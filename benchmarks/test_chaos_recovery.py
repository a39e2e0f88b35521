"""Chaos recovery benchmark: what a fault costs, and that recovery is exact.

One measured leg, one machine-readable artifact
(``BENCH_chaos_recovery.json``):

* **Checkpoint corruption** — a checkpointed service interrupted, its newest
  checkpoint corrupted on disk, then resumed.  The benchmark reports the
  quarantine-and-fallback resume wall time and asserts the resumed JSONL is
  bit-identical to an uninterrupted reference.

Correctness (recovery fired, streams identical) is gated hard; timing is
recorded, not gated.
"""

import json
import os
import time

import conftest
from conftest import print_table

from repro.scenarios.results import RunResult

CORES = os.cpu_count() or 1

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_chaos_recovery.json",
)

SEED = 47
EPOCHS = 8
INTERRUPT_EPOCH = 4


def _engine(flows, sinks):
    from repro.dataplane.config import SwitchResources
    from repro.stream import StreamingEngine, SyntheticSource

    source = SyntheticSource.steady(
        num_flows=flows, epochs=EPOCHS, victim_ratio=0.1, loss_rate=0.05,
        seed=SEED,
    )
    return StreamingEngine(
        source,
        sinks=sinks,
        resources=SwitchResources.scaled(0.05),
        seed=SEED,
        rolling_window=4,
    )


def test_chaos_recovery_latency_and_artifact(tmp_path):
    from repro.chaos import corrupt_checkpoint
    from repro.service import TelemetryService
    from repro.stream import JsonlSink, comparable

    flows = conftest.scaled(4000, minimum=500)

    checkpoint = str(tmp_path / "bench.rtck")
    out_path = str(tmp_path / "bench.jsonl")
    ref_path = str(tmp_path / "bench_ref.jsonl")
    TelemetryService(_engine(flows, [JsonlSink(ref_path)])).run()
    TelemetryService(
        _engine(flows, [JsonlSink(out_path)]),
        checkpoint_path=checkpoint, checkpoint_interval=2, keep_checkpoints=2,
    ).run(max_epochs=INTERRUPT_EPOCH)
    corrupt_checkpoint(checkpoint, mode="bitflip", key=SEED)

    resume_start = time.perf_counter()
    resume_service = TelemetryService(
        _engine(flows, [JsonlSink(out_path)]),
        checkpoint_path=checkpoint, checkpoint_interval=2, keep_checkpoints=2,
    )
    resume_service.run(resume=True)
    resume_seconds = time.perf_counter() - resume_start

    assert os.path.exists(checkpoint + ".bad"), "corrupt link must quarantine"
    assert resume_service.monitor.recoveries.get("checkpoint", 0) == 1

    def records_of(path):
        with open(path) as handle:
            return [comparable(json.loads(line)) for line in handle]

    assert records_of(out_path) == records_of(ref_path), (
        "fallback resume must reproduce the uninterrupted stream exactly"
    )

    print_table(
        f"Chaos recovery ({flows} flows, {CORES} cores)",
        ["leg", "wall s"],
        [["checkpoint-fallback resume", f"{resume_seconds:.2f}"]],
    )

    RunResult(
        scenario="chaos_recovery",
        params={"flows": flows, "epochs": EPOCHS, "interrupt_epoch": INTERRUPT_EPOCH},
        seed=SEED,
        rows=[
            {"leg": "checkpoint_corruption",
             "resume_wall_seconds": resume_seconds,
             "recoveries": dict(resume_service.monitor.recoveries),
             "quarantined": [checkpoint + ".bad"],
             "stream_identical": True},
        ],
        extras={"cores": CORES, "repro_scale": conftest.SCALE},
    ).to_json(path=ARTIFACT_PATH)
    print(f"perf artifact written to {ARTIFACT_PATH}")
