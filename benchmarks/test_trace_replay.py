"""Trace-plane benchmark: zero-copy binary replay.

Over a 20-epoch store (scaled by ``REPRO_SCALE``), mmap-backed binary replay
must be faster than JSONL parse-and-replay, and it must run in **O(epoch)**
heap: the peak traced allocation while streaming the store stays bounded by
a single epoch's columns, not the file size.

Results are written to ``BENCH_trace_replay.json`` so replay throughput can
be tracked across commits.
"""

import json
import os
import time
import tracemalloc

import conftest

from repro.stream.sources import TraceFileSource, write_trace_file
from repro.traffic.generator import generate_workload

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_trace_replay.json",
)


def _consume(trace) -> int:
    """Touch every column the analysis plane reads (forces mmap page reads)."""
    columns = trace.columns()
    total = int(columns.sizes.sum()) if len(columns) else 0
    total += int(columns.lost_packets.sum()) if len(columns) else 0
    total += int(columns.is_victim.sum()) if len(columns) else 0
    return total


def _replay(path: str) -> tuple:
    """(seconds, epochs, checksum) for one full pass over a trace file."""
    start = time.perf_counter()
    epochs = 0
    checksum = 0
    for trace in TraceFileSource(path).epochs():
        checksum += _consume(trace)
        epochs += 1
    return time.perf_counter() - start, epochs, checksum


def _rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def test_binary_replay_throughput_and_memory(tmp_path):
    """Replay throughput (epochs/s) and the O(epoch) peak-heap bound."""
    epochs = 20
    flows_per_epoch = conftest.scaled(20_000)
    jsonl = str(tmp_path / "stream.jsonl")
    binary = str(tmp_path / "stream.rtbin")
    traces = [
        generate_workload("DCTCP", num_flows=flows_per_epoch, victim_ratio=0.05,
                          seed=epoch, use_five_tuple=False)
        for epoch in range(epochs)
    ]
    write_trace_file(jsonl, traces)
    write_trace_file(binary, traces)
    del traces

    replay_jsonl_s, jsonl_epochs, _ = _replay(jsonl)
    # Peak traced heap during the binary pass: numpy allocations are tracked,
    # so an O(file) implementation (loading all epochs) would blow the bound.
    tracemalloc.start()
    tracemalloc.reset_peak()
    replay_binary_s, binary_epochs, _ = _replay(binary)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert jsonl_epochs == binary_epochs == epochs
    jsonl_eps = epochs / max(replay_jsonl_s, 1e-9)
    binary_eps = epochs / max(replay_binary_s, 1e-9)

    # One epoch's columns: 5 int64 + 1 float64 + 1 bool ≈ 49 bytes per flow.
    epoch_bytes = flows_per_epoch * 49
    file_bytes = os.path.getsize(binary)
    # O(epoch) bound: well under the file size, within a small multiple of a
    # single epoch (slack for interpreter noise and per-epoch scratch).
    bound = max(4 * epoch_bytes, 4 << 20)
    rss_mb = _rss_mb()

    conftest.print_table(
        "Binary vs JSONL replay (20 epochs)",
        ["format", "epochs/s", "seconds", "peak heap (MB)"],
        [
            ["jsonl", f"{jsonl_eps:.1f}", f"{replay_jsonl_s:.3f}", "-"],
            ["binary", f"{binary_eps:.1f}", f"{replay_binary_s:.3f}",
             f"{peak_bytes / 1e6:.1f}"],
        ],
    )

    result = {
        "benchmark": "trace_replay",
        "scale": conftest.SCALE,
        "replay_epochs": epochs,
        "flows_per_epoch": flows_per_epoch,
        "jsonl_epochs_per_second": jsonl_eps,
        "binary_epochs_per_second": binary_eps,
        "binary_peak_heap_bytes": peak_bytes,
        "binary_heap_bound_bytes": bound,
        "binary_file_bytes": file_bytes,
        "rss_mb": rss_mb,
    }
    with open(ARTIFACT_PATH, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"perf artifact written to {ARTIFACT_PATH}")

    assert binary_eps > jsonl_eps, (
        f"binary replay ({binary_eps:.1f} epochs/s) not faster than JSONL "
        f"({jsonl_eps:.1f} epochs/s)"
    )
    assert peak_bytes < bound, (
        f"binary replay peaked at {peak_bytes / 1e6:.1f} MB traced heap — "
        f"exceeds the O(epoch) bound of {bound / 1e6:.1f} MB "
        f"(file is {file_bytes / 1e6:.1f} MB)"
    )
