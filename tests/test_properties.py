"""Property-based tests (hypothesis) for the core data-structure invariants."""

from collections import Counter, defaultdict
from typing import Dict, Hashable, Sequence, Set

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlplane.reconfig import threshold_for_target
from repro.metrics.accuracy import f1_score, weighted_mean_relative_error
from repro.sketches.fermat import FermatSketch
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hashing import fold_key, unfold_key
from repro.sketches.lossradar import LossRadar
from repro.sketches.tower import TowerSketch

flow_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=(1 << 32) - 1),
    values=st.integers(min_value=1, max_value=1000),
    min_size=1,
    max_size=60,
)


def safe_fermat(num_flows: int, seed: int = 0) -> FermatSketch:
    """A FermatSketch sized well below the decodability threshold.

    Tiny sketches have a non-negligible pure-bucket false-positive rate (1/m
    per check), so — like the P4 implementation — the property tests carry a
    fingerprint, and keep the load comfortably below the 2-core threshold.
    """
    return FermatSketch.for_flow_count(
        max(60, num_flows), load_factor=0.4, seed=seed, fingerprint_bits=16
    )


def peeling_core(cells_of: Dict[int, Sequence[Hashable]]) -> Set[int]:
    """The keys no peeling decoder can recover: the 2-core of their cells.

    ``cells_of`` maps each inserted key to the cells it was added to.  A peel
    recovers a key that sits alone in one of its cells and removes it from
    all of them; what is left when no cell holds a single key is the core.
    At any load a few keys can land there — two keys that share their cell
    in every array already do (about one pair in ``m**d``) — and their cells
    then hold only sums, which no decoder can split.
    """
    members: Dict[Hashable, Set[int]] = defaultdict(set)
    for key, cells in cells_of.items():
        for cell in cells:
            members[cell].add(key)
    core = set(cells_of)
    peeled = True
    while peeled:
        peeled = False
        for key in list(core):
            if any(len(members[cell]) == 1 for cell in cells_of[key]):
                core.discard(key)
                for cell in cells_of[key]:
                    members[cell].discard(key)
                peeled = True
    return core


def fermat_core(sketch: FermatSketch, flow_ids) -> Set[int]:
    """The flows of ``flow_ids`` that sit in the 2-core of ``sketch``'s buckets."""
    return peeling_core(
        {
            flow_id: [
                (i, h(sketch._extended_id(flow_id)))
                for i, h in enumerate(sketch._hashes)
            ]
            for flow_id in flow_ids
        }
    )


def test_peeling_core_keeps_keys_that_share_every_cell():
    cells_of = {
        1: [("a", 0), ("b", 4)],
        2: [("a", 0), ("b", 4)],
        3: [("a", 0), ("b", 7)],
        4: [("a", 2), ("b", 9)],
    }
    assert peeling_core(cells_of) == {1, 2}
    assert peeling_core({1: cells_of[1], 3: cells_of[3]}) == set()


@settings(max_examples=40, deadline=None)
@given(flows=flow_maps, seed=st.integers(min_value=0, max_value=10))
# Both extended IDs land in buckets [37, 13, 31]: a two-flow core.
@example(flows={11403: 1, 61420745: 1}, seed=5)
def test_fermat_decode_recovers_exact_flows(flows, seed):
    """Inserting any flow set at a safe load decodes back exactly every flow
    outside the peeling core, and succeeds exactly when that core is empty."""
    sketch = safe_fermat(len(flows), seed=seed)
    for flow_id, size in flows.items():
        sketch.insert(flow_id, size)
    core = fermat_core(sketch, flows)
    result = sketch.decode()
    assert result.success == (not core)
    assert result.flows == {f: size for f, size in flows.items() if f not in core}


@settings(max_examples=40, deadline=None)
@given(flows=flow_maps, removed=st.data())
def test_fermat_subtraction_is_exact_difference(flows, removed):
    """upstream - downstream encodes exactly the lost packets, never more."""
    upstream = safe_fermat(len(flows), seed=1)
    downstream = upstream.empty_like()
    losses = {}
    for flow_id, size in flows.items():
        upstream.insert(flow_id, size)
        lost = removed.draw(st.integers(min_value=0, max_value=size))
        if size - lost > 0:
            downstream.insert(flow_id, size - lost)
        if lost:
            losses[flow_id] = lost
    core = fermat_core(upstream, losses)
    result = (upstream - downstream).decode()
    assert result.success == (not core)
    assert result.positive_flows() == {
        f: lost for f, lost in losses.items() if f not in core
    }


@settings(max_examples=30, deadline=None)
@given(flows=flow_maps)
def test_fermat_addition_commutes(flows):
    """a + b and b + a decode to the same multiset of flows."""
    items = list(flows.items())
    a = safe_fermat(len(flows), seed=2)
    b = a.empty_like()
    for index, (flow_id, size) in enumerate(items):
        (a if index % 2 else b).insert(flow_id, size)
    core = fermat_core(a, flows)
    ab = (a + b).decode().flows
    ba = (b + a).decode().flows
    assert ab == ba == {f: size for f, size in flows.items() if f not in core}


@settings(max_examples=30, deadline=None)
@given(flows=flow_maps, seed=st.integers(min_value=0, max_value=5))
def test_fermat_insert_remove_roundtrip(flows, seed):
    """Removing everything that was inserted leaves an empty sketch."""
    sketch = safe_fermat(len(flows), seed=seed)
    for flow_id, size in flows.items():
        sketch.insert(flow_id, size)
    for flow_id, size in flows.items():
        sketch.remove(flow_id, size)
    assert sketch.is_empty()


@settings(max_examples=40, deadline=None)
@given(flows=flow_maps, seed=st.integers(min_value=0, max_value=5))
def test_tower_never_underestimates(flows, seed):
    """TowerSketch estimates are >= the true size (up to saturation)."""
    tower = TowerSketch([(8, 2048), (16, 1024)], seed=seed)
    for flow_id, size in flows.items():
        tower.insert(flow_id, size)
    for flow_id, size in flows.items():
        assert tower.query(flow_id) >= min(size, 255)


@settings(max_examples=30, deadline=None)
@given(flows=flow_maps)
# Both flows land in cells [15, 22, 53]: a two-flow core.
@example(flows={201: 1, 2182: 1})
def test_flowradar_roundtrip(flows):
    """FlowRadar given enough cells decodes every flow outside the peeling
    core, and succeeds exactly when that core is empty."""
    radar = FlowRadar(num_cells=max(64, 6 * len(flows)), seed=3)
    for flow_id, size in flows.items():
        radar.insert(flow_id, size)
    core = peeling_core({flow_id: radar._cells_for(flow_id) for flow_id in flows})
    result = radar.decode()
    assert result.success == (not core)
    assert result.flows == {f: size for f, size in flows.items() if f not in core}


@settings(max_examples=30, deadline=None)
@given(
    packets=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=1 << 20),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=80,
        unique=True,
    )
)
# Both packets land in cells [19, 36, 57]: a two-packet core.
@example(packets=[(669, 73), (13294, 71)])
def test_lossradar_decodes_unique_packets(packets):
    """A LossRadar holding any set of unique packet IDs decodes every packet
    outside the peeling core, and succeeds exactly when that core is empty."""
    meter = LossRadar(num_cells=max(64, 6 * len(packets)), seed=4)
    identifiers = {}
    for flow_id, sequence in packets:
        meter.insert_packet(flow_id, sequence)
        identifiers[LossRadar.packet_identifier(flow_id, sequence)] = flow_id
    core = peeling_core(
        {identifier: meter._cells_for(identifier) for identifier in identifiers}
    )
    result = meter.decode()
    assert result.success == (not core)
    assert result.flows == dict(
        Counter(flow_id for key, flow_id in identifiers.items() if key not in core)
    )


@settings(max_examples=50, deadline=None)
@given(
    parts=st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 8) - 1),
    )
)
def test_key_packing_roundtrip(parts):
    widths = (32, 32, 16, 16, 8)
    assert unfold_key(fold_key(parts, widths), widths) == parts


@settings(max_examples=50, deadline=None)
@given(
    distribution=st.dictionaries(
        keys=st.integers(min_value=1, max_value=10_000),
        values=st.floats(min_value=0.1, max_value=1000),
        min_size=1,
        max_size=40,
    ),
    target=st.floats(min_value=0.0, max_value=5000),
)
def test_threshold_for_target_respects_budget(distribution, target):
    """The chosen threshold never admits more flows than the target (unless
    the threshold already sits at the minimum)."""
    threshold = threshold_for_target(distribution, target, minimum=1)
    admitted = sum(count for size, count in distribution.items() if size >= threshold)
    total = sum(distribution.values())
    assert threshold >= 1
    if threshold > max(distribution):
        assert admitted == 0
    elif threshold > 1:
        assert admitted <= max(target, min(distribution.values()))
    else:
        assert admitted == total


@settings(max_examples=50, deadline=None)
@given(
    truth=st.sets(st.integers(min_value=0, max_value=100), max_size=30),
    reported=st.sets(st.integers(min_value=0, max_value=100), max_size=30),
)
def test_f1_score_bounds(truth, reported):
    score = f1_score(reported, truth)
    assert 0.0 <= score <= 1.0
    if reported == truth:
        assert score == 1.0


@settings(max_examples=50, deadline=None)
@given(
    distribution=st.dictionaries(
        keys=st.integers(min_value=1, max_value=100),
        values=st.floats(min_value=0.0, max_value=100),
        max_size=20,
    )
)
def test_wmre_identity_is_zero(distribution):
    assert weighted_mean_relative_error(distribution, dict(distribution)) == 0.0
