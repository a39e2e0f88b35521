"""Decode-plane throughput: frontier NumPy peeling, the scalar queue, and the
per-bucket reference.

This benchmark shows, on a 100k-flow epoch, that the decoders of FermatSketch
/ FlowRadar / LossRadar recover **bit-identical** flow sets (same flows,
``success``, ``remaining``) to their references, and times them.  FermatSketch
has three decoders, each timed on its own copy of the sketch:

* the per-bucket queue decoder kept in ``tests/fermat_reference.py``
  (``reference_decode_scalar``), the reference;
* ``decode_scalar``, the same FIFO queue on Python lists with Euclid inverses;
* ``decode_vectorized``, the frontier decoder (the default), which hands its
  tail to ``decode_scalar`` — and every prime at or above ``2**62`` outright,
  so on the ``2**127 - 1`` row it times the queue a second time.

The gate is the one this benchmark has always had: ``decode_vectorized`` runs
at least :data:`MIN_FERMAT_SPEEDUP` times faster than the per-bucket reference
at full scale.  The queue's ratios (reference/queue, queue/frontier) are
reported in the table and the artifact, ungated.

The measured rates are written to ``BENCH_decode_throughput.json`` (a
serialized ``RunResult``) so the decode-throughput trajectory is tracked
across commits next to the backend-speedup and stream-throughput artifacts.
"""

import os
import random
import time

import conftest
from fermat_reference import reference_decode_scalar

from repro.scenarios.results import RunResult
from repro.sketches.fermat import MERSENNE_PRIME_127, FermatSketch
from repro.sketches.flowradar import FlowRadar
from repro.sketches.lossradar import LossRadar
from repro.traffic.generator import generate_caida_like_trace

#: Minimum acceptable frontier-vs-reference decode speedup (FermatSketch, the
#: control-plane hot path) at full scale.
MIN_FERMAT_SPEEDUP = 5.0

#: Machine-readable perf artifact, written next to the repository root.
ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_decode_throughput.json",
)


def _trace_arrays(num_flows, seed=5):
    trace = generate_caida_like_trace(num_flows, seed=seed)
    ids = [flow.flow_id for flow in trace.flows]
    sizes = [flow.size for flow in trace.flows]
    return ids, sizes


def _time_decodes(sketch, scalar_decode, vectorized_decode):
    """Decode both ways, assert identical results, return the timings.

    FlowRadar and LossRadar decodes leave the sketch untouched.
    """
    start = time.perf_counter()
    scalar_result = scalar_decode(sketch)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vector_result = vectorized_decode(sketch)
    vectorized_seconds = time.perf_counter() - start

    assert scalar_result.flows == vector_result.flows, (
        "vectorized decode diverged from the scalar reference"
    )
    assert scalar_result.success == vector_result.success
    assert scalar_result.remaining == vector_result.remaining
    return scalar_seconds, vectorized_seconds, scalar_result


def _fermat_state(sketch):
    return (
        [row.tolist() for row in sketch._counts],
        [[int(value) for value in row] for row in sketch._idsums],
    )


def _fermat_row(name, num_flows, sketch):
    """Time the three Fermat decoders on copies of ``sketch``; assert identity."""
    decoders = (
        ("reference", reference_decode_scalar),
        ("queue", FermatSketch.decode_scalar),
        ("frontier", FermatSketch.decode_vectorized),
    )
    seconds, results, states = {}, {}, {}
    for label, decoder in decoders:
        copy = sketch.copy()
        start = time.perf_counter()
        results[label] = decoder(copy)
        seconds[label] = time.perf_counter() - start
        states[label] = _fermat_state(copy)
    reference = results["reference"]
    # The queue pops in the reference's order, so even the flow order agrees;
    # so does the frontier's on wide primes, which it hands to the queue.
    ordered = ("queue", "frontier") if sketch.prime >= 1 << 62 else ("queue",)
    for label in ordered:
        assert list(results[label].flows.items()) == list(reference.flows.items())
    for label in ("queue", "frontier"):
        assert results[label].flows == reference.flows, (
            f"{label} decode diverged from the per-bucket reference"
        )
        assert results[label].success == reference.success
        assert results[label].remaining == reference.remaining
        assert states[label] == states["reference"]
    return {
        "sketch": name,
        "flows": num_flows,
        "scalar_seconds": seconds["reference"],
        "queue_seconds": seconds["queue"],
        "vectorized_seconds": seconds["frontier"],
        "speedup": seconds["reference"] / max(seconds["frontier"], 1e-9),
        "queue_speedup": seconds["reference"] / max(seconds["queue"], 1e-9),
        "frontier_vs_queue": seconds["queue"] / max(seconds["frontier"], 1e-9),
        "decode_success": reference.success,
    }


def test_decode_plane_identical_and_fast():
    num_flows = conftest.scaled(100_000)
    ids, sizes = _trace_arrays(num_flows)
    rng = random.Random(17)
    rows = []

    # FermatSketch, 61-bit Mersenne prime with fingerprints: the standalone
    # loss-detection configuration (figures 4-6).
    fermat = FermatSketch.for_flow_count(
        num_flows, load_factor=0.7, seed=1, fingerprint_bits=8
    )
    fermat.insert_batch(ids, sizes)
    rows.append(_fermat_row("fermat_p61", num_flows, fermat))
    fermat_speedup = rows[-1]["speedup"]

    # FermatSketch, 127-bit Mersenne prime: the control plane's network-wide
    # encoders (wide residues, decoded on the queue alone).
    wide_flows = max(1, num_flows // 4)
    fermat_wide = FermatSketch.for_flow_count(
        wide_flows, load_factor=0.7, seed=2, prime=MERSENNE_PRIME_127
    )
    fermat_wide.insert_batch(ids[:wide_flows], sizes[:wide_flows])
    rows.append(_fermat_row("fermat_p127", wide_flows, fermat_wide))

    # FlowRadar at the paper's ~1.4 cells/flow operating point.  The flow
    # filter is sized generously (64 bits/flow) so no Bloom false positive
    # leaves ghost packets in the table: on ghost-contaminated states the
    # recovered *sizes* are peel-order-dependent (see FlowRadar.decode), and
    # this benchmark asserts bit-identity of the two decode paths.
    flowradar = FlowRadar(int(num_flows * 1.4), filter_bits=num_flows * 64, seed=3)
    for flow_id, size in zip(ids, sizes):
        flowradar.insert(flow_id, size)
    scalar_s, vector_s, result = _time_decodes(
        flowradar,
        lambda s: s.decode_scalar(),
        lambda s: s.decode(),
    )
    rows.append(
        {
            "sketch": "flowradar",
            "flows": num_flows,
            "scalar_seconds": scalar_s,
            "vectorized_seconds": vector_s,
            "speedup": scalar_s / max(vector_s, 1e-9),
            "decode_success": result.success,
        }
    )

    # LossRadar over the *lost* packets (the delta meter of figures 4-6).
    # Losses are aggregated per unique flow first: duplicate flow IDs would
    # re-insert the same (flow, sequence) identifiers, which cancel in the
    # XOR field and leave unpeelable cells.
    losses = {}
    for flow_id in ids:
        losses[flow_id] = rng.randrange(1, 4)
    lost_packets = sum(losses.values())
    lossradar = LossRadar(int(lost_packets * 1.6), seed=4)
    lossradar.insert_batch(list(losses), list(losses.values()))
    scalar_s, vector_s, result = _time_decodes(
        lossradar,
        lambda s: s.decode_scalar(),
        lambda s: s.decode(),
    )
    rows.append(
        {
            "sketch": "lossradar",
            "flows": num_flows,
            "scalar_seconds": scalar_s,
            "vectorized_seconds": vector_s,
            "speedup": scalar_s / max(vector_s, 1e-9),
            "decode_success": result.success,
        }
    )

    def cell(row, key, fmt):
        return fmt.format(row[key]) if key in row else "-"

    conftest.print_table(
        "Decode plane: per-bucket reference vs scalar queue vs frontier peeling",
        ["sketch", "flows", "reference (s)", "queue (s)", "vectorized (s)",
         "speedup", "ref/queue", "queue/frontier", "success"],
        [
            [
                row["sketch"],
                row["flows"],
                f"{row['scalar_seconds']:.3f}",
                cell(row, "queue_seconds", "{:.3f}"),
                f"{row['vectorized_seconds']:.3f}",
                f"{row['speedup']:.1f}x",
                cell(row, "queue_speedup", "{:.1f}x"),
                cell(row, "frontier_vs_queue", "{:.1f}x"),
                row["decode_success"],
            ]
            for row in rows
        ],
    )

    result = RunResult(
        scenario="decode_throughput",
        params={
            "flows": num_flows,
            "repro_scale": conftest.SCALE,
            "cpu_count": os.cpu_count(),
        },
        seed=5,
        rows=rows,
        extras={
            "fermat_speedup": fermat_speedup,
            "min_fermat_speedup": MIN_FERMAT_SPEEDUP,
        },
    )
    result.to_json(path=ARTIFACT_PATH)
    print(f"perf artifact written to {ARTIFACT_PATH}")

    # Small sketches (REPRO_SCALE < 1) leave the fixed per-round NumPy
    # overhead visible; the 5x bar is the acceptance criterion at full scale.
    required = MIN_FERMAT_SPEEDUP if conftest.SCALE >= 1.0 else 2.0
    assert fermat_speedup >= required, (
        f"vectorized Fermat decode only {fermat_speedup:.1f}x faster than the "
        f"per-bucket reference (required {required:.0f}x at scale {conftest.SCALE})"
    )
