"""Backend speedup benchmark: batched sketch inserts vs the scalar loop.

Bulk ``insert_batch`` into Tower, Fermat and Count-Min sketches is timed
against inserting the same flows one at a time, on a Zipf (CAIDA-like)
trace, and must be several times faster.  That the batched epoch pipeline
computes the right sketch state is pinned by the golden digests of
``tests/test_golden.py``.

Each side is timed best-of-:data:`REPEATS`, the two sides interleaved: one
cold pass per side reads the machine's speed of the moment as much as the
insert path (a shared VM's speed swings by ~40% between passes), and the
best pass of each side, taken in the same noise environment, is the
closest either gets to its own cost.
"""

import time

import conftest
import pytest

from repro.sketches.cm import CountMinSketch
from repro.sketches.fermat import FermatSketch
from repro.sketches.tower import TowerSketch
from repro.traffic.generator import generate_caida_like_trace

#: Interleaved best-of-N passes per side (see the module docstring).
REPEATS = 3


@pytest.mark.parametrize(
    "name,min_speedup,make",
    [
        ("Tower", 8.0, lambda: TowerSketch([(8, 32768), (16, 16384)], seed=1)),
        # Fermat batch inserts still pay per-element IDsum modular arithmetic
        # (61-bit Mersenne folds), so the bar is lower than the pure
        # scatter-add sketches.
        ("Fermat", 4.0, lambda: FermatSketch(65536, seed=1, fingerprint_bits=20)),
        ("CM", 8.0, lambda: CountMinSketch(65536, depth=3, seed=1)),
    ],
)
def test_sketch_insert_batch_speedup(name, min_speedup, make):
    num_flows = conftest.scaled(100_000)
    trace = generate_caida_like_trace(num_flows, seed=5)
    ids = [flow.flow_id for flow in trace.flows]
    sizes = [flow.size for flow in trace.flows]

    scalar_passes, batched_passes = [], []
    for _ in range(REPEATS):
        scalar = make()
        start = time.perf_counter()
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        scalar_passes.append(time.perf_counter() - start)

        batched = make()
        start = time.perf_counter()
        batched.insert_batch(ids, sizes)
        batched_passes.append(time.perf_counter() - start)
    scalar_seconds, batched_seconds = min(scalar_passes), min(batched_passes)

    speedup = scalar_seconds / max(batched_seconds, 1e-9)
    conftest.print_table(
        f"Backend speedup: {name}.insert_batch",
        ["flows", "scalar (s)", "batched (s)", "speedup"],
        [[num_flows, f"{scalar_seconds:.3f}", f"{batched_seconds:.3f}", f"{speedup:.1f}x"]],
    )
    required = min_speedup if conftest.SCALE >= 1.0 else 2.0
    assert speedup >= required
