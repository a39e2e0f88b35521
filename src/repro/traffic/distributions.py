"""Flow-size distributions used by the paper's testbed workloads.

The evaluation generates UDP flows "according to four widely used
distributions": DCTCP (web search), VL2 (data mining style), HADOOP (Facebook
Hadoop cluster) and CACHE (Facebook key-value cache).  The published CDFs are
flow sizes in bytes; ChameleMon counts packets, and the testbed fixes every
packet to 64 bytes while preserving per-flow packet counts.  We therefore model
each workload directly as a distribution over per-flow *packet counts*, using
piecewise log-linear CDFs whose shapes follow the published traces: DCTCP and
HADOOP are mid-heavy, VL2 and CACHE are highly skewed with many tiny flows and
a thin tail of huge flows.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (cumulative probability, flow size in packets) control points per workload.
_CDF_CONTROL_POINTS: Dict[str, List[Tuple[float, int]]] = {
    # Web-search style: almost no single-packet flows, most flows 10-1000
    # packets, a modest tail.
    "DCTCP": [
        (0.00, 1),
        (0.15, 3),
        (0.30, 8),
        (0.53, 20),
        (0.60, 50),
        (0.70, 150),
        (0.80, 400),
        (0.90, 1000),
        (0.97, 4000),
        (1.00, 20000),
    ],
    # Data-mining style: half the flows are tiny, but the tail is very long.
    "VL2": [
        (0.00, 1),
        (0.50, 1),
        (0.60, 2),
        (0.70, 4),
        (0.80, 10),
        (0.90, 100),
        (0.95, 1000),
        (0.99, 10000),
        (1.00, 100000),
    ],
    # Facebook Hadoop cluster: mostly small RPC-like flows, moderate tail.
    "HADOOP": [
        (0.00, 1),
        (0.40, 1),
        (0.60, 2),
        (0.75, 4),
        (0.85, 10),
        (0.92, 30),
        (0.97, 100),
        (0.99, 600),
        (1.00, 5000),
    ],
    # Facebook cache cluster: extremely skewed, dominated by single-packet
    # flows with a few enormous flows.
    "CACHE": [
        (0.00, 1),
        (0.60, 1),
        (0.80, 2),
        (0.90, 3),
        (0.95, 8),
        (0.98, 50),
        (0.995, 1000),
        (1.00, 50000),
    ],
}

WORKLOAD_NAMES = tuple(sorted(_CDF_CONTROL_POINTS))


@dataclass(frozen=True)
class FlowSizeDistribution:
    """A sampleable flow-size (packet-count) distribution."""

    name: str
    control_points: Tuple[Tuple[float, int], ...]

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size by inverse-transform sampling on the CDF."""
        u = rng.random()
        probs = [p for p, _ in self.control_points]
        index = bisect.bisect_left(probs, u)
        if index <= 0:
            return self.control_points[0][1]
        if index >= len(self.control_points):
            return self.control_points[-1][1]
        (p0, s0), (p1, s1) = self.control_points[index - 1], self.control_points[index]
        if p1 <= p0:
            return s1
        # Log-linear interpolation between control points keeps the heavy tail.
        frac = (u - p0) / (p1 - p0)
        log_size = math.log(s0) + frac * (math.log(s1) - math.log(s0))
        return max(1, int(round(math.exp(log_size))))

    def sample_many(self, count: int, rng: random.Random) -> List[int]:
        return [self.sample(rng) for _ in range(count)]

    def sample_array(self, uniforms: np.ndarray) -> np.ndarray:
        """Vectorized inverse-transform sampling: one size per uniform draw.

        The same piecewise log-linear CDF as :meth:`sample`, evaluated over a
        whole array of uniforms at once (the columnar generator's hot path).
        Returns an int64 array of flow sizes (packets), each >= 1.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        probs = np.array([p for p, _ in self.control_points], dtype=np.float64)
        log_sizes = np.log([s for _, s in self.control_points])
        index = np.searchsorted(probs, u, side="left")
        index = np.clip(index, 1, len(probs) - 1)
        p0, p1 = probs[index - 1], probs[index]
        s0, s1 = log_sizes[index - 1], log_sizes[index]
        span = p1 - p0
        # Degenerate spans (p1 <= p0) take the upper control point, like sample().
        frac = np.where(span > 0, (u - p0) / np.where(span > 0, span, 1.0), 1.0)
        log_size = s0 + frac * (s1 - s0)
        sizes = np.maximum(1, np.rint(np.exp(log_size))).astype(np.int64)
        # Below the first control point sample() returns its size unchanged.
        sizes[u <= probs[0]] = int(round(math.exp(log_sizes[0])))
        return sizes

    def mean_estimate(self, samples: int = 20000, seed: int = 1) -> float:
        """Monte-Carlo estimate of the mean flow size (for sizing experiments)."""
        rng = random.Random(seed)
        drawn = self.sample_many(samples, rng)
        return sum(drawn) / len(drawn)


def get_distribution(name: str) -> FlowSizeDistribution:
    """Look up a workload distribution by name (case-insensitive)."""
    key = name.upper()
    if key not in _CDF_CONTROL_POINTS:
        raise KeyError(
            f"unknown workload '{name}'; choose one of {', '.join(WORKLOAD_NAMES)}"
        )
    return FlowSizeDistribution(key, tuple(_CDF_CONTROL_POINTS[key]))


def zipf_sizes_array(
    num_flows: int,
    alpha: float = 1.1,
    total_packets: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Zipf-distributed flow sizes approximating the CAIDA trace skew.

    The CAIDA 2018 slice used in the paper has 100K flows and 5.3M packets
    (mean ≈ 53 packets/flow) with a heavy-tailed size distribution; a Zipf law
    over flow ranks reproduces that shape.  When ``total_packets`` is given
    the sizes are rescaled to sum approximately to it.  A random +0/+1 per
    flow keeps equal-rank ties from producing identical sizes.
    """
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = rng or np.random.default_rng(0)
    ranks = np.arange(1, num_flows + 1, dtype=np.float64)
    raw = ranks ** -alpha
    if total_packets is None:
        total_packets = num_flows * 53
    scale = total_packets / raw.sum()
    sizes = np.maximum(1, np.rint(raw * scale).astype(np.int64))
    return np.maximum(1, sizes + rng.integers(0, 2, num_flows))


def empirical_cdf(sizes: Sequence[int]) -> List[Tuple[int, float]]:
    """Empirical CDF of a list of flow sizes, as ``(size, P[X <= size])`` pairs."""
    if not sizes:
        return []
    ordered = sorted(sizes)
    n = len(ordered)
    cdf: List[Tuple[int, float]] = []
    previous = None
    for index, size in enumerate(ordered, start=1):
        if size != previous:
            cdf.append((size, index / n))
            previous = size
        else:
            cdf[-1] = (size, index / n)
    return cdf
