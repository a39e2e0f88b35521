"""Figure 10: decoding success rate with and without 8-bit fingerprints.

Paper protocol (appendix A.4): insert 1K / 10K CAIDA flows into FermatSketches
of varying size and measure the decoding success rate, (a) at equal buckets
per flow and (b) at equal memory per flow (the fingerprint widens each bucket
from 8 to 9 bytes).

The sweep lives in the ``fig10`` scenario of the registry; this module scales
it, prints the rows, and asserts the paper's claims.
"""

import pytest

from conftest import print_table, run_figure, scaled

NUM_FLOWS = scaled(1000, minimum=200)
BUCKETS_PER_FLOW = (1.17, 1.20, 1.23, 1.26, 1.29)
TRIALS = 200


def run():
    return run_figure(
        "fig10",
        overrides=dict(
            flows=NUM_FLOWS, buckets_per_flow=BUCKETS_PER_FLOW, trials=TRIALS
        ),
    )


@pytest.mark.benchmark(group="fig10")
def test_fig10_fingerprint_effect(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = result.rows()

    print_table(
        "Figure 10: decode success rate, with/without 8-bit fingerprint",
        ["buckets/flow", "no fp", "fp (same buckets)", "fp (same memory)"],
        [
            [
                row["buckets_per_flow"],
                f"{row['no_fp']:.2f}",
                f"{row['fp_same_buckets']:.2f}",
                f"{row['fp_same_memory']:.2f}",
            ]
            for row in rows
        ],
    )

    # With the same number of buckets, fingerprints never hurt and help at the
    # tight end of the sweep.
    for row in rows:
        assert row["fp_same_buckets"] >= row["no_fp"] - 0.15
    # At generous loads everything decodes.
    assert rows[-1]["no_fp"] > 0.8
    assert rows[-1]["fp_same_buckets"] > 0.8
    # Under the same *memory*, spending bytes on fingerprints instead of
    # buckets does not improve the success rate (the paper's conclusion).
    avg_same_buckets = sum(row["fp_same_buckets"] for row in rows) / len(rows)
    avg_same_memory = sum(row["fp_same_memory"] for row in rows) / len(rows)
    assert avg_same_memory <= avg_same_buckets + 0.1
