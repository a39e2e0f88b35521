"""Property tests for the decode plane.

FermatSketch's two production decoders — the frontier-based NumPy decoder
(``decode_vectorized``) and the scalar queue (``decode_scalar``) — must be
bit-identical to the per-bucket queue decoder kept in
``tests/fermat_reference.py``: the same recovered flows in the same order,
the same ``success`` and ``remaining``, and the same residual bucket state.
The matrix covers random seeds, mixed insert/remove traces, subtracted sketch
pairs with negative counts, overloaded sketches where decoding must fail,
fingerprint and fingerprintless configs, pop budgets, and every Fermat prime
in use (13/61/89/127-bit Mersenne plus a non-Mersenne prime).  The 89/127-bit
primes decode on the scalar queue alone, as non-Mersenne primes do, so for
them ``decode()`` must match the reference outright, flow order included.  A
golden digest pins the decoders' output on a fixed set of sketches to a
committed value.  The batch decoder ``decode_many``, which peels many
compatible sketches in one frontier, must give each sketch what decoding it
alone gives.  FlowRadar and LossRadar decoders are checked against their own
scalar references.
"""

import functools
import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from fermat_reference import reference_decode_scalar
from repro.controlplane.analysis import decode_hh_encoders, packet_loss_detection
from repro.sketches.fermat import (
    DECODE_POPS_PER_BUCKET,
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_89,
    MERSENNE_PRIME_127,
    FermatSketch,
    decode_many,
)
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hashing import modmul_mersenne_u64
from repro.sketches.lossradar import LossRadar

MERSENNE_PRIME_13 = (1 << 13) - 1


def make_flows(count, seed=0, max_size=50, id_bits=32):
    rng = random.Random(seed)
    flows = {}
    while len(flows) < count:
        flows[rng.randrange(1, 1 << id_bits)] = rng.randrange(1, max_size)
    return flows


def decode_outcome(result, sketch):
    """Everything a decode produces, as plain Python values.

    Flows are compared as an item list, so their order counts: it reaches
    ``LossReport.heavy_losses``.
    """
    return {
        "flows": [[int(k), int(v)] for k, v in result.flows.items()],
        "success": bool(result.success),
        "remaining": int(result.remaining),
        **sketch_state(sketch),
    }


def sketch_state(sketch):
    """A sketch's bucket state, with each row's dtype, as plain Python values."""
    return {
        "counts": [
            [str(row.dtype), row.tolist()] for row in sketch._counts
        ],
        "idsums": [
            [str(row.dtype), [int(v) for v in row]] for row in sketch._idsums
        ],
    }


def assert_identical_decodes(sketch, max_iterations=None, schedules_agree=True):
    """Both decoders of ``sketch`` match the reference in results AND state.

    ``decode_scalar`` must match :func:`reference_decode_scalar` outright, and
    so must ``decode()`` for primes above ``2**61 - 1``, which peel on the
    queue alone.  ``decode_vectorized`` peels in frontier order and hands its
    tail to ``self.decode_scalar``; it must match itself run with the
    reference as that tail.  Unless ``schedules_agree`` is false, both must
    also agree with each other on the recovered flow set, ``success``,
    ``remaining`` and residual state (see ``decode_vectorized``'s caveat on
    overloaded fingerprintless sketches, where they need not).  The frontier
    decoder counts peeled flows, not bucket pops, so a pop budget is checked
    on the scalar queue only (where ``decode`` routes it).
    """
    reference = sketch.copy()
    result = reference_decode_scalar(reference, max_iterations)
    want = decode_outcome(result, reference)
    scalar = sketch.copy()
    assert decode_outcome(scalar.decode_scalar(max_iterations), scalar) == want
    if sketch.prime > MERSENNE_PRIME_61:
        routed = sketch.copy()
        assert decode_outcome(routed.decode(max_iterations), routed) == want
    if max_iterations is None:
        frontier_reference = sketch.copy()
        frontier_reference.decode_scalar = functools.partial(
            reference_decode_scalar, frontier_reference
        )
        want_frontier = decode_outcome(
            frontier_reference.decode_vectorized(), frontier_reference
        )
        frontier = sketch.copy()
        got = decode_outcome(frontier.decode_vectorized(), frontier)
        assert got == want_frontier
        if schedules_agree:
            assert sorted(got["flows"]) == sorted(want["flows"])
            assert {k: got[k] for k in got if k != "flows"} == {
                k: want[k] for k in want if k != "flows"
            }
    return result


# --------------------------------------------------------------------------- #
# limb arithmetic primitives
# --------------------------------------------------------------------------- #
class TestMersenneArithmetic:
    @pytest.mark.parametrize("e", [13, 31, 61])
    def test_modmul_matches_bigint(self, e):
        p = (1 << e) - 1
        rng = random.Random(e)
        a = np.array([rng.randrange(p) for _ in range(200)], dtype=np.uint64)
        b = np.array([rng.randrange(p) for _ in range(200)], dtype=np.uint64)
        got = modmul_mersenne_u64(a, b, e)
        expected = [(int(x) * int(y)) % p for x, y in zip(a, b)]
        assert got.tolist() == expected


# --------------------------------------------------------------------------- #
# FermatSketch: both decoders vs the per-bucket reference
# --------------------------------------------------------------------------- #
#: (prime, fingerprint bits, flow-ID bits, flows, max size): the ID width
#: leaves room for the fingerprint below the prime.
PRIME_CASES = [
    (101, 0, 6, 30, 10),
    (MERSENNE_PRIME_13, 0, 12, 40, 20),
    (MERSENNE_PRIME_13, 8, 4, 12, 20),
    (MERSENNE_PRIME_61, 0, 60, 300, 50),
    (MERSENNE_PRIME_61, 8, 52, 300, 50),
    (MERSENNE_PRIME_89, 0, 88, 200, 50),
    (MERSENNE_PRIME_89, 8, 80, 200, 50),
    (MERSENNE_PRIME_127, 0, 104, 200, 50),
    (MERSENNE_PRIME_127, 8, 104, 200, 50),
]


def _prime_case_id(case):
    prime, bits = case[0], case[1]
    name = f"2^{prime.bit_length()}-1" if prime & (prime + 1) == 0 else str(prime)
    return f"p{name}-fp{bits}"


def loaded_sketch(prime, bits, id_bits, num_flows, max_size, seed=0):
    flows = make_flows(num_flows, seed=seed, max_size=max_size, id_bits=id_bits)
    sketch = FermatSketch.for_flow_count(
        num_flows, load_factor=0.6, seed=seed, prime=prime, fingerprint_bits=bits
    )
    sketch.insert_batch(list(flows), list(flows.values()))
    return sketch, flows


def subtracted_pair(prime, bits, num_flows=250, seed=31, hash_seed=None):
    """``up - down`` with losses and, for a few flows, extra downstream packets.

    ``hash_seed`` (default ``seed``) seeds the sketch's hashes, ``seed`` the
    flows and their losses.
    """
    flows = make_flows(num_flows, seed=seed, id_bits=min(52, prime.bit_length() - 1 - bits))
    up = FermatSketch.for_flow_count(
        num_flows,
        load_factor=0.5,
        seed=seed if hash_seed is None else hash_seed,
        prime=prime,
        fingerprint_bits=bits,
    )
    down = up.empty_like()
    rng = random.Random(seed)
    for flow_id, size in flows.items():
        up.insert(flow_id, size)
        delta = rng.randrange(-2, min(4, size + 1))
        if size - delta:
            down.insert(flow_id, size - delta)
    return up - down


class TestFermatDecodePlane:
    @pytest.mark.parametrize("case", PRIME_CASES, ids=_prime_case_id)
    def test_every_prime_and_fingerprint(self, case):
        sketch, flows = loaded_sketch(*case, seed=11)
        result = assert_identical_decodes(sketch)
        if result.success:
            assert result.flows == flows

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("fingerprint_bits", [0, 8])
    def test_roundtrip_identical(self, seed, fingerprint_bits):
        flows = make_flows(400, seed=seed)
        sketch = FermatSketch.for_flow_count(
            400, load_factor=0.6, seed=seed, fingerprint_bits=fingerprint_bits
        )
        sketch.insert_batch(list(flows), list(flows.values()))
        result = assert_identical_decodes(sketch)
        if result.success:
            assert result.flows == flows

    @pytest.mark.parametrize(
        "prime", [MERSENNE_PRIME_61, MERSENNE_PRIME_89, MERSENNE_PRIME_127]
    )
    def test_all_mersenne_primes(self, prime):
        flows = make_flows(200, seed=11)
        sketch = FermatSketch.for_flow_count(
            200, load_factor=0.6, seed=11, prime=prime, fingerprint_bits=8
        )
        sketch.insert_batch(list(flows), list(flows.values()))
        result = assert_identical_decodes(sketch)
        if result.success:
            assert result.flows == flows

    def test_small_mersenne_prime(self):
        # p = 2**13 - 1 forces multi-fold reductions on tiny residues.
        flows = make_flows(40, seed=13, max_size=20, id_bits=12)
        sketch = FermatSketch(80, prime=MERSENNE_PRIME_13, seed=13)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        result = assert_identical_decodes(sketch)
        if result.success:
            assert result.flows == flows

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_mixed_insert_remove(self, seed):
        flows = make_flows(300, seed=seed)
        sketch = FermatSketch.for_flow_count(300, load_factor=0.6, seed=seed)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        removed = list(flows)[: len(flows) // 3]
        for flow_id in removed:
            sketch.remove(flow_id, flows.pop(flow_id))
        result = assert_identical_decodes(sketch)
        if result.success:
            assert result.flows == flows

    @pytest.mark.parametrize("fingerprint_bits", [0, 8])
    def test_subtracted_pair_identical(self, fingerprint_bits):
        flows = make_flows(250, seed=31)
        up = FermatSketch.for_flow_count(
            250, load_factor=0.5, seed=31, fingerprint_bits=fingerprint_bits
        )
        down = up.empty_like()
        losses = {}
        rng = random.Random(31)
        for flow_id, size in flows.items():
            up.insert(flow_id, size)
            lost = rng.randrange(0, min(4, size + 1))
            if lost:
                losses[flow_id] = lost
            if size - lost:
                down.insert(flow_id, size - lost)
        result = assert_identical_decodes(up - down)
        if result.success:
            assert result.positive_flows() == losses

    @pytest.mark.parametrize(
        "prime", [MERSENNE_PRIME_61, MERSENNE_PRIME_127], ids=["p61", "p127"]
    )
    @pytest.mark.parametrize("fingerprint_bits", [0, 8])
    def test_negative_counts_identical(self, prime, fingerprint_bits):
        delta = subtracted_pair(prime, fingerprint_bits)
        assert any((row < 0).any() for row in delta._counts)
        result = assert_identical_decodes(delta)
        assert any(count < 0 for count in result.flows.values())

    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("fingerprint_bits", [0, 8])
    def test_overloaded_decode_fails_identically(self, seed, fingerprint_bits):
        # 500 flows in 192 buckets: far above the d=3 peeling threshold.
        flows = make_flows(500, seed=seed)
        sketch = FermatSketch(64, seed=seed, fingerprint_bits=fingerprint_bits)
        sketch.insert_batch(list(flows), list(flows.values()))
        result = assert_identical_decodes(sketch)
        assert not result.success
        assert result.remaining > 0

    def test_overloaded_fingerprintless_garbage_cycle(self):
        # 600 flows at 1.15 buckets/flow, no fingerprints: rehash-only
        # verification admits garbage peels, and the queue cycles until the
        # default pop budget stops it.  The frontier and the queue then
        # recover different garbage.
        flows = make_flows(600, seed=44, id_bits=60)
        sketch = FermatSketch(230, seed=44)
        sketch.insert_batch(list(flows), list(flows.values()))
        result = assert_identical_decodes(sketch, schedules_agree=False)
        assert not result.success

    @pytest.mark.parametrize("budget", [1, 7, "initial-queue"])
    @pytest.mark.parametrize(
        "prime", [MERSENNE_PRIME_61, MERSENNE_PRIME_127], ids=["p61", "p127"]
    )
    def test_pop_budget_identical(self, budget, prime):
        sketch, _ = loaded_sketch(prime, 8, 52, 300, 50, seed=7)
        # "initial-queue" is exhausted once every initially non-empty bucket
        # has been popped, before any re-queued bucket gets its turn.
        limit = sketch.nonzero_buckets() if budget == "initial-queue" else budget
        result = assert_identical_decodes(sketch, max_iterations=limit)
        assert not result.success
        routed = sketch.copy()
        assert routed.decode(max_iterations=limit).flows == result.flows

    def test_non_mersenne_prime_routes_to_scalar(self):
        sketch = FermatSketch(16, prime=101, seed=1)
        sketch.insert(7, 3)
        sketch.insert(9, 2)
        assert_identical_decodes(sketch)
        assert sketch.decode().flows == {7: 3, 9: 2}

    def test_empty_sketch(self):
        result = FermatSketch(8).decode_vectorized()
        assert result.success and result.flows == {}

    @pytest.mark.parametrize(
        "prime", [MERSENNE_PRIME_61, MERSENNE_PRIME_127], ids=["p61", "p127"]
    )
    def test_empty_sketch_identical(self, prime):
        result = assert_identical_decodes(FermatSketch(8, prime=prime))
        assert result.success and result.flows == {}

    def test_vectorized_is_default(self):
        flows = make_flows(100, seed=51)
        sketch = FermatSketch.for_flow_count(100, load_factor=0.5, seed=51)
        sketch.insert_batch(list(flows), list(flows.values()))
        assert sketch.decode_nondestructive().flows == flows
        assert sketch.decode().flows == flows
        assert sketch.is_empty()

    def test_encode_trace_matches_per_packet_insert(self):
        rng = random.Random(61)
        packets = [rng.randrange(1, 1 << 32) for _ in range(500)]
        counts = Counter(packets)
        batched = FermatSketch(256, seed=61, fingerprint_bits=8)
        batched.insert_batch(list(counts), list(counts.values()))
        scalar = batched.empty_like()
        for flow_id in packets:
            scalar.insert(flow_id)
        for i in range(batched.num_arrays):
            assert (batched._counts[i] == scalar._counts[i]).all()
            assert all(
                int(x) == int(y)
                for x, y in zip(batched._idsums[i], scalar._idsums[i])
            )

    def test_encode_trace_wide_ids(self):
        sketch = FermatSketch(32, prime=MERSENNE_PRIME_127)
        wide = (1 << 100) + 5
        counts = Counter([wide, wide, 9])
        sketch.insert_batch(list(counts), list(counts.values()))
        assert sketch.decode().flows == {wide: 2, 9: 1}


# --------------------------------------------------------------------------- #
# golden decode digest
# --------------------------------------------------------------------------- #
#: SHA-256 of both decoders' outcomes on :func:`golden_sketches`, computed
#: with the per-bucket queue decoder.  A change that alters what any decode
#: recovers, in which order, or the state it leaves must update this value
#: and say why.  Re-pinned once, when primes above ``2**61 - 1`` stopped
#: running a frontier round: the value is the former one with the
#: ``testbed-hh-*`` sketches' ``decode_vectorized`` outcomes replaced by their
#: ``decode_scalar`` outcomes (the flows come back in the queue's order).
GOLDEN_DECODE_SHA256 = (
    "043d7a4105c0f3e7d7ab4703bb23647eac4db037af242d8069fc3794252ff38f"
)


def golden_sketches():
    """A fixed, seeded set of sketches shaped like the benchmark's decodes."""
    sketches = []
    # Fabric-like HH parts: ~150 uint64 flows in 717 buckets per array on
    # the 61-bit prime, so the whole decode runs on the scalar queue.
    for k in range(3):
        flows = make_flows(150, seed=100 + k, max_size=3000, id_bits=60)
        sketch = FermatSketch(717, prime=MERSENNE_PRIME_61, seed=100 + k)
        sketch.insert_batch(list(flows), list(flows.values()))
        sketches.append((f"fabric-hh-{k}", sketch))
    # Testbed-like HH parts: 104-bit five-tuple IDs in 179 buckets per array
    # on the 127-bit prime, which decodes on the queue alone.
    for k in range(3):
        flows = make_flows(100, seed=200 + k, max_size=3000, id_bits=104)
        sketch = FermatSketch(179, prime=MERSENNE_PRIME_127, seed=200 + k)
        sketch.insert_batch(list(flows), list(flows.values()))
        sketches.append((f"testbed-hh-{k}", sketch))
    # An overloaded fingerprintless sketch: ~1k flows at 1.15 buckets/flow,
    # where garbage peels cycle until the pop limit.
    flows = make_flows(1000, seed=300, id_bits=60)
    sketch = FermatSketch(384, prime=MERSENNE_PRIME_61, seed=300)
    sketch.insert_batch(list(flows), list(flows.values()))
    sketches.append(("overloaded-nofp", sketch))
    # A subtracted pair with fingerprints and some negative counts.
    sketches.append(("subtracted-fp8", subtracted_pair(MERSENNE_PRIME_61, 8, seed=301)))
    return sketches


def golden_decode_digest():
    outcomes = []
    for name, sketch in golden_sketches():
        for decoder in ("decode_scalar", "decode_vectorized"):
            copy = sketch.copy()
            result = getattr(copy, decoder)()
            outcomes.append([name, decoder, decode_outcome(result, copy)])
    payload = json.dumps(outcomes, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def test_golden_decode_digest():
    assert golden_decode_digest() == GOLDEN_DECODE_SHA256


# --------------------------------------------------------------------------- #
# decode_many: one frontier over many sketches
# --------------------------------------------------------------------------- #
def fabric_hh_parts(fingerprint_bits=20, num_parts=32, seed=7):
    """HH parts shaped like the k=8 fabric's: one hash seed, 717 buckets per
    array on the 61-bit prime, 116-202 uint64 flows each."""
    parts = []
    for k in range(num_parts):
        flows = make_flows(
            116 + 37 * k % 87, seed=1000 + k, max_size=3000, id_bits=60 - fingerprint_bits
        )
        part = FermatSketch(
            717, prime=MERSENNE_PRIME_61, seed=seed, fingerprint_bits=fingerprint_bits
        )
        part.insert_batch(list(flows), list(flows.values()))
        parts.append(part)
    return parts


def batch_outcomes(sketches):
    """Each sketch's :func:`decode_outcome` from one ``decode_many`` call on copies."""
    copies = [sketch.copy() for sketch in sketches]
    return [decode_outcome(r, s) for r, s in zip(decode_many(copies), copies)]


def unordered(outcome):
    return dict(outcome, flows=sorted(outcome["flows"]))


def assert_batch_matches_alone(sketches, schedule_dependent=()):
    """``decode_many`` gives every sketch what decoding it alone gives.

    The recovered flow set, ``success``, ``remaining`` and residual state must
    match ``decode()`` on the sketch alone; on primes above ``2**61 - 1``,
    which decode on per-sketch queues, the flow order must match too.  The
    sketches at ``schedule_dependent`` (overloaded and fingerprintless, see
    ``decode_vectorized``'s caveat) must fail either way, but the garbage
    they recover may differ.  Every result must also be the same with
    :func:`reference_decode_scalar` as each sketch's queue tail, patched on
    the instance as the per-sketch checks above do.
    """
    got = batch_outcomes(sketches)
    alone = []
    for sketch in sketches:
        copy = sketch.copy()
        alone.append(decode_outcome(copy.decode(), copy))
    for k, (mine, theirs) in enumerate(zip(got, alone)):
        if k in schedule_dependent:
            assert not mine["success"] and not theirs["success"]
        elif sketches[0].prime > MERSENNE_PRIME_61:
            assert mine == theirs
        else:
            assert unordered(mine) == unordered(theirs)
    references = [sketch.copy() for sketch in sketches]
    for reference in references:
        reference.decode_scalar = functools.partial(reference_decode_scalar, reference)
    results = decode_many(references)
    assert [decode_outcome(r, s) for r, s in zip(results, references)] == got
    return got


class TestDecodeMany:
    def test_fabric_hh_stack(self):
        parts = fabric_hh_parts()
        got = assert_batch_matches_alone(parts)
        assert all(outcome["success"] for outcome in got)
        # A stack that starts well above the queue cutoff runs frontier rounds.
        assert sum(part.nonzero_buckets() for part in parts) > 20 * 512

    def test_queue_tails_get_the_rest_of_the_budget(self):
        parts = fabric_hh_parts()
        limit = DECODE_POPS_PER_BUCKET * parts[0].total_buckets()
        tails = {}
        for k, part in enumerate(parts):
            def tail(max_iterations=None, k=k, part=part):
                result = FermatSketch.decode_scalar(part, max_iterations)
                tails[k] = (max_iterations, len(result.flows))
                return result
            part.decode_scalar = tail
        results = decode_many(parts)
        # The stack stops at the queue cutoff: the parts still holding
        # candidates finish on their own queues, the others are drained.
        assert 0 < len(tails) < len(parts)
        for k, result in enumerate(results):
            assert result.success
            if k in tails:
                budget, tail_flows = tails[k]
                assert budget == limit - (len(result.flows) - tail_flows)

    def test_empty_and_overloaded_sketches_mixed_in(self):
        parts = fabric_hh_parts(fingerprint_bits=0)
        parts.insert(5, parts[0].empty_like())
        # 1870 flows at 1.15 buckets/flow, no fingerprints: garbage peels.
        flows = make_flows(1870, seed=44, id_bits=60)
        overloaded = parts[0].empty_like()
        overloaded.insert_batch(list(flows), list(flows.values()))
        parts.insert(17, overloaded)
        got = assert_batch_matches_alone(parts, schedule_dependent={17})
        assert got[5]["flows"] == []
        assert [k for k, outcome in enumerate(got) if not outcome["success"]] == [17]

    @pytest.mark.parametrize(
        "prime", [MERSENNE_PRIME_61, MERSENNE_PRIME_127], ids=["p61", "p127"]
    )
    @pytest.mark.parametrize("fingerprint_bits", [0, 8])
    def test_subtracted_pairs_with_negative_counts(self, prime, fingerprint_bits):
        deltas = [
            subtracted_pair(prime, fingerprint_bits, seed=60 + k, hash_seed=60)
            for k in range(8)
        ]
        assert all(any((row < 0).any() for row in delta._counts) for delta in deltas)
        got = assert_batch_matches_alone(deltas)
        assert any(count < 0 for _, count in got[0]["flows"])

    def test_one_flow_in_several_sketches(self):
        parts = fabric_hh_parts()
        shared = (1 << 39) + 12345
        for k, size in ((0, 7), (9, 4000), (31, 25)):
            parts[k].insert(shared, size)
        got = assert_batch_matches_alone(parts)
        for k, size in ((0, 7), (9, 4000), (31, 25)):
            assert [shared, size] in got[k]["flows"]
        # A sketch's decode does not depend on the others or their order,
        # flow order included: a flow pure in several sketches in one round
        # is peeled from each.
        assert batch_outcomes(parts[::-1]) == got[::-1]

    def test_wide_prime_parts_keep_queue_order(self):
        parts = []
        for k in range(4):
            flows = make_flows(100, seed=200 + k, max_size=3000, id_bits=104)
            part = FermatSketch(179, prime=MERSENNE_PRIME_127, seed=200)
            part.insert_batch(list(flows), list(flows.values()))
            parts.append(part)
        got = assert_batch_matches_alone(parts)
        for part, outcome in zip(parts, got):
            want = reference_decode_scalar(part.copy())
            assert outcome["flows"] == [[k, v] for k, v in want.flows.items()]

    def test_no_sketches(self):
        assert decode_many([]) == []

    @pytest.mark.parametrize(
        "odd",
        [
            FermatSketch(717, prime=MERSENNE_PRIME_61, seed=8, fingerprint_bits=20),
            FermatSketch(716, prime=MERSENNE_PRIME_61, seed=7, fingerprint_bits=20),
            FermatSketch(717, prime=MERSENNE_PRIME_61, seed=7, fingerprint_bits=8),
            FermatSketch(717, prime=MERSENNE_PRIME_127, seed=7, fingerprint_bits=20),
        ],
        ids=["seed", "buckets", "fingerprint", "prime"],
    )
    def test_incompatible_sketches_rejected_unchanged(self, odd):
        odd = odd.copy()
        odd.insert(5, 3)
        parts = fabric_hh_parts(num_parts=4)
        stack = parts[:2] + [odd] + parts[2:]
        before = [sketch_state(sketch) for sketch in stack]
        with pytest.raises(ValueError, match="must share"):
            decode_many(stack)
        assert [sketch_state(sketch) for sketch in stack] == before


# --------------------------------------------------------------------------- #
# FlowRadar / LossRadar: vectorized vs scalar reference
# --------------------------------------------------------------------------- #
class TestFlowRadarDecodePlane:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_roundtrip_identical(self, seed):
        flows = make_flows(400, seed=seed, max_size=40)
        radar = FlowRadar(2000, seed=seed)
        for flow_id, size in flows.items():
            radar.insert(flow_id, size)
        a, b = radar.decode_scalar(), radar.decode()
        assert a.flows == b.flows
        assert (a.success, a.remaining) == (b.success, b.remaining)
        if a.success:
            assert a.flows == flows

    def test_overloaded_identical(self):
        flows = make_flows(200, seed=4)
        radar = FlowRadar(60, seed=4)
        for flow_id, size in flows.items():
            radar.insert(flow_id, size)
        a, b = radar.decode_scalar(), radar.decode()
        assert a.flows == b.flows
        assert (a.success, a.remaining) == (b.success, b.remaining)
        assert not a.success

    def test_decode_is_nondestructive(self):
        radar = FlowRadar(100, seed=5)
        radar.insert(42, 7)
        assert radar.decode().flows == {42: 7}
        assert radar.decode().flows == {42: 7}

    def test_wide_flow_id_rejected(self):
        radar = FlowRadar(100, seed=6)
        with pytest.raises(ValueError):
            radar.insert(1 << 64, 1)


class TestLossRadarDecodePlane:
    def test_insert_paths_bit_identical(self):
        flows = make_flows(300, seed=7, max_size=30)
        per_packet = LossRadar(4000, seed=7)
        batched_insert = LossRadar(4000, seed=7)
        batch = LossRadar(4000, seed=7)
        for flow_id, size in flows.items():
            for sequence in range(size):
                per_packet.insert_packet(flow_id, sequence)
            batched_insert.insert(flow_id, size)
        batch.insert_batch(list(flows), list(flows.values()))
        for other in (batched_insert, batch):
            assert (per_packet._count == other._count).all()
            assert (per_packet._xorsum == other._xorsum).all()

    @pytest.mark.parametrize("seed", [8, 9])
    def test_subtracted_pair_identical(self, seed):
        flows = make_flows(300, seed=seed, max_size=30)
        rng = random.Random(seed)
        up = LossRadar(3000, seed=seed)
        down = LossRadar(3000, seed=seed)
        losses = {}
        for flow_id, size in flows.items():
            up.insert(flow_id, size)
            lost = rng.randrange(0, min(4, size + 1))
            if lost:
                losses[flow_id] = lost
            kept = sorted(rng.sample(range(size), size - lost))
            if kept:
                down.insert_packets([flow_id] * len(kept), kept)
        delta = up - down
        a, b = delta.decode_scalar(), delta.decode()
        assert a.flows == b.flows
        assert (a.success, a.remaining) == (b.success, b.remaining)
        if a.success:
            assert a.flows == losses

    def test_overloaded_identical(self):
        meter = LossRadar(90, seed=10)
        meter.insert_batch(list(make_flows(80, seed=10)), [5] * 80)
        a, b = meter.decode_scalar(), meter.decode()
        assert a.flows == b.flows
        assert (a.success, a.remaining) == (b.success, b.remaining)
        assert not a.success

    def test_wide_flow_id_rejected(self):
        meter = LossRadar(100, seed=11)
        with pytest.raises(ValueError):
            meter.insert(1 << 48, 1)
        with pytest.raises(ValueError):
            meter.insert_packets([1 << 48], [0])

    def test_sequence_wrap_matches_scalar(self):
        # Counts past 2**16 wrap the 16-bit sequence field; the vectorized
        # insert paths must reproduce packet_identifier's wrap exactly.
        count = (1 << 16) + 300
        vector_insert = LossRadar(512, seed=12)
        vector_insert.insert(777, count)
        batch = LossRadar(512, seed=12)
        batch.insert_batch([777], [count])
        scalar = LossRadar(512, seed=12)
        for sequence in range(count):
            scalar.insert_packet(777, sequence)
        for other in (vector_insert, batch):
            assert (scalar._count == other._count).all()
            assert (scalar._xorsum == other._xorsum).all()


# --------------------------------------------------------------------------- #
# control-plane analysis: destructive fast path
# --------------------------------------------------------------------------- #
def _collect_groups(seed=3, num_flows=300, config=None, fabric=False):
    """One epoch's collected groups on the testbed (104-bit IDs, 127-bit
    prime) or, with ``fabric``, on the k=8 fat-tree (uint64 IDs, 61-bit prime)."""
    from repro.dataplane.config import SwitchResources
    from repro.network.simulator import build_testbed_simulator
    from repro.network.topology import FatTreeSpec, FatTreeTopology
    from repro.traffic.generator import generate_workload

    simulator = build_testbed_simulator(
        resources=SwitchResources.scaled(0.2 if fabric else 0.05),
        config=config,
        seed=seed,
        prime=MERSENNE_PRIME_61 if fabric else None,
        topology=FatTreeTopology(FatTreeSpec(k=8)) if fabric else None,
    )
    trace = generate_workload(
        "DCTCP",
        num_flows=num_flows,
        victim_ratio=0.1,
        loss_rate=0.05,
        num_hosts=simulator.topology.num_hosts,
        seed=seed,
        use_five_tuple=not fabric,
    )
    truth = simulator.run_epoch(trace)
    groups = {node: switch.end_epoch() for node, switch in simulator.switches.items()}
    return groups, truth


class TestDestructiveAnalysis:
    def test_destructive_report_identical(self):
        groups_a, truth = _collect_groups()
        groups_b, _ = _collect_groups()
        copied = packet_loss_detection(groups_a, destructive=False)
        in_place = packet_loss_detection(groups_b, destructive=True)
        assert copied.all_losses() == in_place.all_losses()
        assert copied.heavy_losses == in_place.heavy_losses
        assert copied.light_losses == in_place.light_losses
        assert copied.analysis_completed == in_place.analysis_completed
        assert copied.hl_decode_success == in_place.hl_decode_success
        assert {k: d.flowset for k, d in copied.hh_decodes.items()} == {
            k: d.flowset for k, d in in_place.hh_decodes.items()
        }
        assert copied.all_losses() == truth.losses

    def test_nondestructive_leaves_hh_encoders_intact(self):
        groups, _ = _collect_groups()
        packet_loss_detection(groups, destructive=False)
        # A second pass over the same groups must reproduce the same result.
        again = packet_loss_detection(groups, destructive=False)
        assert again.analysis_completed

    @pytest.mark.parametrize("fabric", [False, True], ids=["testbed", "fabric"])
    def test_hh_decode_is_per_switch_decode(self, fabric):
        groups, _ = _collect_groups(num_flows=5000 if fabric else 300, fabric=fabric)
        parts = {node: group.upstream.parts.hh for node, group in groups.items()}
        before = {node: sketch_state(part) for node, part in parts.items()}
        decodes = decode_hh_encoders(groups)
        # Non-destructive: every switch's HH part keeps its state.
        assert {node: sketch_state(part) for node, part in parts.items()} == before
        for node, part in parts.items():
            alone = part.decode_nondestructive()
            assert decodes[node].flowset == alone.positive_flows()
            assert decodes[node].success == alone.success
        if fabric:
            # The fabric's parts peel in one frontier before their queue tails.
            assert sum(part.nonzero_buckets() for part in parts.values()) > 20 * 512
        in_place = decode_hh_encoders(groups, destructive=True)
        assert {node: d.flowset for node, d in in_place.items()} == {
            node: d.flowset for node, d in decodes.items()
        }
        assert all(part.nonzero_buckets() == 0 for part in parts.values())

    def test_decode_stages_are_spans(self):
        from repro.dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
        from repro.obs import StageTracer

        resources = SwitchResources.scaled(0.05)
        ill = MonitoringConfig(
            layout=resources.ill_layout, threshold_high=64, threshold_low=8,
            sample_rate=0.75,
        )
        assert ill.layout.m_ll > 0
        groups, _ = _collect_groups(config=ill)
        tracer = StageTracer()
        report = packet_loss_detection(groups, destructive=True, tracer=tracer)
        assert report.analysis_completed and report.light_losses
        assert [span.name for span in tracer.drain()] == [
            "hh_decode", "delta_build", "hl_decode", "ll_decode",
        ]
        # Overloaded HH parts: analysis stops after the HH decodes.
        overloaded = MonitoringConfig(
            layout=EncoderLayout(
                m_hh=resources.upstream_buckets - resources.downstream_buckets,
                m_hl=resources.downstream_buckets, m_ll=0,
            ),
            threshold_high=2, threshold_low=1, sample_rate=1.0,
        )
        groups, _ = _collect_groups(num_flows=2000, config=overloaded)
        report = packet_loss_detection(groups, destructive=True, tracer=tracer)
        assert not any(decode.success for decode in report.hh_decodes.values())
        assert [span.name for span in tracer.drain()] == ["hh_decode"]


class TestStreamDecodeTelemetry:
    def test_epoch_records_carry_decode_ms(self):
        from repro.stream import MemorySink, Phase, StreamingEngine, SyntheticSource
        from repro.dataplane.config import SwitchResources

        sink = MemorySink()
        engine = StreamingEngine(
            SyntheticSource(phases=(Phase(epochs=2, num_flows=150),), seed=5),
            sinks=[sink],
            resources=SwitchResources.scaled(0.05),
            seed=5,
        )
        engine.run()
        assert len(sink.records) == 2
        for record in sink.records:
            # An untraced engine still times its epochs with spans.
            assert 0.0 < record["decode_ms"] < record["wall_ms"]
