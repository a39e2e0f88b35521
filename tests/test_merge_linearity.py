"""Property tests: sketch merge (``add``) is linear w.r.t. stream splitting.

The network-wide analysis rests on one algebraic fact: encoding a stream split
across switches and then adding the per-switch sketches yields
*bit-identical* state to encoding the whole stream on one node (the
controller sums every switch's HL and LL encoders, paper section 4.2).  These
tests pin that fact for every mergeable sketch in the registry:

* unconditionally linear — CM, CountSketch, Fermat (both narrow and wide
  primes), LossRadar: any split of any stream merges exactly;
* saturating but still exact — Tower: ``min(min(a,s)+min(b,s), s)`` equals
  ``min(a+b, s)`` for non-negative parts, so arbitrary splits merge exactly
  too;
* conditionally exact — FlowRadar and Tower+Fermat: exact for flow-disjoint
  partitions (each flow enters the network at one edge switch, which
  guarantees exactly this), and the tests use flow-disjoint splits with
  pinned seeds.

Each sketch type has a state extractor returning plain Python data, so the
assertions compare every counter/IDsum/bit — not just query answers.
"""

import numpy as np
import pytest

from repro.core.tower_fermat import TowerFermat
from repro.sketches.cm import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.fermat import (
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_127,
    FermatSketch,
)
from repro.sketches.flowradar import FlowRadar
from repro.sketches.lossradar import LossRadar
from repro.sketches.registry import build
from repro.sketches.tower import TowerSketch

SEEDS = (0, 1, 2)
MEMORY_BYTES = 32_768


# --------------------------------------------------------------------------- #
# state extractors — full internal state as plain, ``==``-comparable data
# --------------------------------------------------------------------------- #
def _state(sketch):
    if isinstance(sketch, TowerSketch):
        return [counters.tolist() for counters in sketch._counters]
    if isinstance(sketch, (CountMinSketch, CountSketch)):
        return sketch._counters.tolist()
    if isinstance(sketch, FermatSketch):
        return (
            [row.tolist() for row in sketch._counts],
            [[int(v) for v in row] for row in sketch._idsums],
        )
    if isinstance(sketch, FlowRadar):
        return (
            bytes(sketch._flow_filter._bits),
            sketch._flow_xor.tolist(),
            sketch._flow_count.tolist(),
            sketch._packet_count.tolist(),
        )
    if isinstance(sketch, LossRadar):
        return sketch._count.tolist(), [int(v) for v in sketch._xorsum]
    if isinstance(sketch, TowerFermat):
        return _state(sketch.tower), _state(sketch.fermat)
    raise TypeError(f"no state extractor for {type(sketch).__name__}")


def _stream(seed, num_flows=600, max_count=40):
    rng = np.random.default_rng(seed)
    flows = rng.integers(1, 1 << 32, size=num_flows, dtype=np.uint64)
    counts = rng.integers(1, max_count, size=num_flows, dtype=np.int64)
    return flows.tolist(), counts.tolist()


def _encode(sketch, flows, counts):
    for flow, count in zip(flows, counts):
        sketch.insert(int(flow), int(count))
    return sketch


# --------------------------------------------------------------------------- #
# unconditional linearity: any split of any stream
# --------------------------------------------------------------------------- #
UNCONDITIONAL = ("tower", "cm", "countsketch", "fermat", "lossradar")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", UNCONDITIONAL)
def test_split_stream_merges_exactly(name, seed):
    flows, counts = _stream(seed)
    cut = len(flows) // 3  # deliberately uneven halves
    combined = _encode(
        build(name, memory_bytes=MEMORY_BYTES, seed=seed), flows, counts
    )
    part_a = _encode(
        build(name, memory_bytes=MEMORY_BYTES, seed=seed), flows[:cut], counts[:cut]
    )
    part_b = _encode(
        build(name, memory_bytes=MEMORY_BYTES, seed=seed), flows[cut:], counts[cut:]
    )
    assert _state(part_a.add(part_b)) == _state(combined)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", UNCONDITIONAL)
def test_many_way_split_merges_exactly(name, seed):
    """4-way round-robin split, one part per testbed edge switch."""
    flows, counts = _stream(seed)
    combined = _encode(
        build(name, memory_bytes=MEMORY_BYTES, seed=seed), flows, counts
    )
    merged = build(name, memory_bytes=MEMORY_BYTES, seed=seed)
    for part in range(4):
        merged.add(
            _encode(
                build(name, memory_bytes=MEMORY_BYTES, seed=seed),
                flows[part::4],
                counts[part::4],
            )
        )
    assert _state(merged) == _state(combined)


@pytest.mark.parametrize("prime", (MERSENNE_PRIME_61, MERSENNE_PRIME_127))
@pytest.mark.parametrize("seed", SEEDS)
def test_fermat_linear_at_both_prime_widths(prime, seed):
    """Narrow primes use uint64 IDsum arrays, wide primes object-dtype Python
    ints — the merge must be exact on both storage paths."""
    flows, counts = _stream(seed, num_flows=300)
    make = lambda: FermatSketch(512, num_arrays=3, prime=prime, seed=seed)
    combined = _encode(make(), flows, counts)
    merged = make().add(_encode(make(), flows[::2], counts[::2]))
    merged.add(_encode(make(), flows[1::2], counts[1::2]))
    assert _state(merged) == _state(combined)
    # The merged sketch stays decodable: subtracting an empty sketch and
    # decoding recovers the exact flow -> count map.
    decoded = merged.subtract(make()).decode()
    expected = {}
    for flow, count in zip(flows, counts):
        expected[int(flow)] = expected.get(int(flow), 0) + int(count)
    assert decoded.success
    assert decoded.flows == expected


# --------------------------------------------------------------------------- #
# conditional linearity: flow-disjoint partitions
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_flowradar_flow_disjoint_merge(seed):
    flows, counts = _stream(seed, num_flows=400)
    make = lambda: build("flowradar", memory_bytes=MEMORY_BYTES, seed=seed)
    combined = _encode(make(), flows, counts)
    merged = _encode(make(), flows[::2], counts[::2]).add(
        _encode(make(), flows[1::2], counts[1::2])
    )
    assert _state(merged) == _state(combined)


@pytest.mark.parametrize("seed", SEEDS)
def test_tower_fermat_flow_disjoint_merge(seed):
    """Exact when cross-partition Tower collisions never flip a promotion
    decision — guaranteed here by generous memory relative to the stream."""
    flows, counts = _stream(seed, num_flows=60, max_count=600)
    make = lambda: build(
        "tower_fermat", memory_bytes=MEMORY_BYTES, seed=seed, threshold=250
    )
    combined = _encode(make(), flows, counts)
    merged = _encode(make(), flows[::2], counts[::2]).add(
        _encode(make(), flows[1::2], counts[1::2])
    )
    assert _state(merged) == _state(combined)


# --------------------------------------------------------------------------- #
# merge preconditions are enforced
# --------------------------------------------------------------------------- #
def test_incompatible_merges_rejected():
    with pytest.raises(ValueError):
        TowerSketch([(8, 64)], seed=0).add(TowerSketch([(8, 128)], seed=0))
    with pytest.raises(ValueError):
        TowerSketch([(8, 64)], seed=0).add(TowerSketch([(8, 64)], seed=1))
    with pytest.raises(ValueError):
        CountMinSketch(64, depth=3, seed=0).add(CountMinSketch(64, depth=3, seed=1))
    with pytest.raises(ValueError):
        CountSketch(64, depth=3, seed=0).add(CountSketch(32, depth=3, seed=0))
    with pytest.raises(ValueError):
        FermatSketch(64, seed=0).add(FermatSketch(64, seed=1))
    with pytest.raises(ValueError):
        LossRadar(64, seed=0).add(LossRadar(128, seed=0))
    with pytest.raises(ValueError):
        FlowRadar(300, seed=0).add(FlowRadar(600, seed=0))
    with pytest.raises(ValueError):
        TowerFermat([(8, 64)], threshold=100, seed=0).add(
            TowerFermat([(8, 64)], threshold=200, seed=0)
        )


def test_tower_saturation_still_exact():
    """Saturating counters: min(min(a,s)+min(b,s), s) == min(a+b, s)."""
    tower = lambda: TowerSketch([(4, 8)], seed=3)
    saturation = tower().levels[0].saturation
    flows = [5, 9, 5, 9, 5]
    counts = [10, 6, 9, 12, 1]
    combined = _encode(tower(), flows, counts)
    merged = _encode(tower(), flows[:2], counts[:2]).add(
        _encode(tower(), flows[2:], counts[2:])
    )
    assert _state(merged) == _state(combined)
    assert max(max(level) for level in _state(merged)) == saturation


def test_dunder_add_leaves_operands_untouched():
    flows, counts = _stream(7, num_flows=100)
    a = _encode(TowerSketch([(8, 256)], seed=7), flows[:50], counts[:50])
    b = _encode(TowerSketch([(8, 256)], seed=7), flows[50:], counts[50:])
    before_a, before_b = _state(a), _state(b)
    total = a + b
    assert _state(a) == before_a and _state(b) == before_b
    assert _state(total) == _state(
        _encode(TowerSketch([(8, 256)], seed=7), flows, counts)
    )
