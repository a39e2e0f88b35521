"""A minimal, deterministic metrics registry (Prometheus data model).

Three instrument kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
— register into a :class:`MetricsRegistry` that the exposition layer
(:mod:`repro.obs.exposition`) renders as Prometheus text or JSONL snapshots.
The implementation is intentionally small and dependency-free:

* **Fixed, deterministic bucket edges.**  Histograms never adapt their edges
  at runtime, so two runs of the same workload produce structurally identical
  snapshots.
* **Labels as child instruments.**  ``metric.labels(part="hh")`` returns a
  per-label-set child (Prometheus client idiom); the unlabeled methods
  operate on the implicit empty-label child so simple metrics stay one-liners.
* **Thread-safe where it matters.**  Child creation and histogram updates
  take a per-family lock; plain counter/gauge arithmetic relies on the GIL
  like the rest of this codebase's hot paths.

Instruments measure the run, never steer it: nothing in the pipeline reads a
metric back, so enabling metrics cannot perturb bit-identity (asserted by the
tracing on/off property tests, which enable both planes at once).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class MetricError(ValueError):
    """Raised on metric misuse: name/kind clashes, bad labels, edge mismatch."""


#: Default histogram edges for millisecond timings, log-ish spaced from
#: sub-millisecond stages to multi-second epochs.  Fixed forever: changing
#: them would break snapshot comparability across commits.
DEFAULT_MS_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def _label_values(
    labelnames: Tuple[str, ...], labels: Dict[str, Any]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {list(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared family machinery: name, labels, child bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        values = _label_values(self.labelnames, labels)
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values, self._make_child())
        return child

    def _unlabeled(self) -> Any:
        if self.labelnames:
            raise MetricError(
                f"metric {self.name} has labels {list(self.labelnames)}; "
                "use .labels(...)"
            )
        return self.labels()

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in insertion order."""
        with self._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up, got {amount}")
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        return self._unlabeled().value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    """A value that can go up and down (current level, last observation)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)

    @property
    def value(self) -> float:
        return self._unlabeled().value


class _HistogramChild:
    __slots__ = ("edges", "bucket_counts", "sum", "count", "_lock")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.edges = edges
        # One count per finite bucket plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Prometheus buckets are upper-bound inclusive: bucket i counts
        # observations <= edges[i]; bisect_left lands value==edge in it.
        index = bisect_left(self.edges, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper edge, cumulative count) pairs, ending with (+Inf, count)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for edge, count in zip(self.edges, self.bucket_counts):
            running += count
            out.append((edge, running))
        out.append((float("inf"), self.count))
        return out


class Histogram(_Metric):
    """A distribution with fixed, deterministic bucket edges."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise MetricError(f"bucket edges must be sorted and unique, got {buckets}")
        self.buckets = edges

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    @property
    def sum(self) -> float:
        return self._unlabeled().sum

    @property
    def count(self) -> int:
        return self._unlabeled().count


class MetricsRegistry:
    """An ordered collection of metric families, one name each."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labels):
                    raise MetricError(
                        f"metric {name} already registered as {existing.kind} "
                        f"with labels {list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        with self._lock:
            return list(self._metrics.values())


class EpochMetrics:
    """The pipeline's standard per-epoch instruments over one shared registry.

    The streaming engine calls :meth:`observe` once per epoch with the flat
    record, the decode outcome flags, and the epoch's encoder layout; the
    service layers alert-transition counters on the same registry.  Metric
    names and labels are documented in README "Observability".
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.epochs = registry.counter(
            "repro_epochs_total", "Epochs processed by the streaming engine")
        self.flows = registry.counter(
            "repro_flows_total", "Flows replayed through the data plane")
        self.packets = registry.counter(
            "repro_packets_total", "Packets replayed through the data plane")
        self.lost_packets = registry.counter(
            "repro_lost_packets_total", "Ground-truth packets lost in transit")
        self.decode_success = registry.counter(
            "repro_decode_success_total",
            "Sketch decodes that recovered their flow set", labels=("part",))
        self.decode_failure = registry.counter(
            "repro_decode_failure_total",
            "Sketch decodes that failed to converge", labels=("part",))
        self.level_epochs = registry.counter(
            "repro_level_epochs_total",
            "Epochs spent at each attention level", labels=("level",))
        self.rolling_f1 = registry.gauge(
            "repro_rolling_f1", "Rolling loss-detection F1 over the engine window")
        self.rolling_are = registry.gauge(
            "repro_rolling_are", "Rolling average relative error over the window")
        self.encoder_bytes = registry.gauge(
            "repro_encoder_bytes",
            "Upstream flow-encoder bytes allocated per part this epoch",
            labels=("part",))
        self.encoder_budget_bytes = registry.gauge(
            "repro_encoder_budget_bytes",
            "Total upstream flow-encoder byte budget (all parts)")
        self.epoch_ms = registry.histogram(
            "repro_epoch_wall_ms", "Wall milliseconds per epoch")
        self.decode_ms = registry.histogram(
            "repro_decode_ms", "Milliseconds spent decoding sketches per epoch")

    def observe(
        self,
        record: Dict[str, Any],
        decode_success: Optional[Dict[str, bool]] = None,
        layout: Optional[Any] = None,
        num_arrays: int = 3,
    ) -> None:
        from ..controlplane.timing import SWITCH_BUCKET_BYTES

        self.epochs.inc()
        self.flows.inc(record["num_flows"])
        self.packets.inc(record["packets"])
        self.lost_packets.inc(record["lost_packets"])
        self.level_epochs.labels(level=record["level"]).inc()
        self.rolling_f1.set(record["rolling_f1"])
        self.rolling_are.set(record["rolling_are"])
        self.epoch_ms.observe(record["wall_ms"])
        self.decode_ms.observe(record["decode_ms"])
        if decode_success is not None:
            for part, success in decode_success.items():
                family = self.decode_success if success else self.decode_failure
                family.labels(part=part).inc()
        if layout is not None:
            per_bucket = num_arrays * SWITCH_BUCKET_BYTES
            for part, buckets in (
                ("hh", layout.m_hh), ("hl", layout.m_hl), ("ll", layout.m_ll)
            ):
                self.encoder_bytes.labels(part=part).set(buckets * per_bucket)
            self.encoder_budget_bytes.set(layout.m_uf * per_bucket)
