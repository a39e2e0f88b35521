"""Golden SHA-256 pins: the record stream, checkpoints and data-plane state.

Every case below runs a fixed, seeded computation and hashes a canonical JSON
rendering of what it produced; ``golden/digests.json`` holds the expected
digests.  The pins are fixed values, not a comparison between two code paths
of the same tree, so a refactor or an optimisation that drifts every path at
once still shows here.  A pure refactor or optimisation leaves every digest
where it is.  A change that alters behaviour on purpose updates the affected
digests in the same change, with the reason in its change notes; on a
mismatch the failure message lists every case's current digest to copy from.

The matrix, each at seeds 0, 1 and 2:

* ``records/<scenario>`` -- the timing-stripped rows (``comparable_records``)
  of the smoke point of seven registered scenarios.  ``serve_chaos`` runs the
  two-shard worker pool.  fig4's ``*_ms`` columns are decode wall times and
  are dropped.
* ``serve/records`` and ``serve/checkpoint`` -- the ``serve`` command with the
  CI smoke flags plus ``--jsonl`` and ``--checkpoint``: its JSONL records and
  its final ``comparable_checkpoint``.
* ``dataplane/<shape>`` -- every switch's classifier counters, encoder parts
  and statistics (``collect_dataplane_state``) plus the ``EpochTruth`` after
  one ``run_epoch``: the testbed (400 DCTCP flows, 5-tuple IDs, 2**127 - 1)
  and the k=8 fabric (2000 uint64 flows, 2**61 - 1).  One more case replays
  a hand-built trace in which a flow ID appears twice.
* ``facade/fabric`` -- four ``ChameleMon`` epochs on that fabric, one flat
  record per epoch (simulate, collection, analysis, the snapshot's classifier
  queries and the reconfiguration all feed it).
"""

import enum
import hashlib
import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.runner import ChameleMon
from repro.dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
from repro.dataplane.sharded import collect_dataplane_state
from repro.network.simulator import build_testbed_simulator
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.obs import comparable_checkpoint, comparable_records
from repro.scenarios import get_scenario, run_scenario
from repro.service import read_checkpoint
from repro.sketches.fermat import MERSENNE_PRIME_61
from repro.traffic.flow import FlowRecord, Trace
from repro.traffic.generator import generate_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")
SEEDS = (0, 1, 2)
SCENARIOS = (
    "stream_timeline",
    "stream_failover",
    "serve_churn",
    "serve_chaos",
    "fig4",
    "fig7",
    "fig9",
)
#: fig4 columns that time each scheme's decode: wall clock, not network state.
WALL_TIME_COLUMNS = ("fermat_ms", "flowradar_ms", "lossradar_ms")
#: The CI smoke flags of ``serve`` (a live link failure and recovery).
SERVE_SMOKE_ARGS = (
    "--phases", "150:0.05:2,300:0.15:2", "--scale", "0.05",
    "--fail-epoch", "1", "--recover-epoch", "3", "--quiet",
)
#: The fabric-k8-5k benchmark shape at 2000 flows.
FABRIC_SCALE = 0.2
FABRIC_FLOWS = 2000
FABRIC_VICTIM_RATIO = 0.02
FABRIC_EPOCHS = 4


# --------------------------------------------------------------------------- #
# canonical digests
# --------------------------------------------------------------------------- #
def _canonical(value):
    """JSON-ready, key-order-free form (dict keys may be tuples or ints)."""
    if isinstance(value, dict):
        return [
            [_canonical(key), _canonical(item)]
            for key, item in sorted(value.items(), key=lambda pair: repr(pair[0]))
        ]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, np.generic):
        return value.item()
    return value


def _digest(value) -> str:
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# the cases
# --------------------------------------------------------------------------- #
def _scenario_records(name: str, seed: int):
    result = run_scenario(name, overrides=get_scenario(name).smoke, seed=seed)
    return [
        {key: value for key, value in row.items() if key not in WALL_TIME_COLUMNS}
        for row in comparable_records(result.rows())
    ]


def _serve_smoke(seed: int, tmp_dir: str):
    jsonl = os.path.join(tmp_dir, f"serve{seed}.jsonl")
    checkpoint = os.path.join(tmp_dir, f"serve{seed}.rtck")
    code = main([
        "serve", *SERVE_SMOKE_ARGS, "--seed", str(seed),
        "--jsonl", jsonl, "--checkpoint", checkpoint,
    ])
    assert code == 0
    with open(jsonl) as handle:
        records = [json.loads(line) for line in handle]
    return comparable_records(records), comparable_checkpoint(read_checkpoint(checkpoint))


def _tiered_config(resources: SwitchResources, high: int, low: int) -> MonitoringConfig:
    """HH, HL and sampled LL thresholds on a layout that sizes every part.

    The layout is the ill-state one with HL and LL filling the downstream
    encoder exactly (``SwitchResources.scaled`` rounds its own ill layout one
    bucket past that capacity at some scales).
    """
    m_ll = resources.ill_layout.m_ll
    m_hl = resources.downstream_buckets - m_ll
    return MonitoringConfig(
        layout=EncoderLayout(
            m_hh=resources.upstream_buckets - m_hl - m_ll, m_hl=m_hl, m_ll=m_ll
        ),
        threshold_high=high,
        threshold_low=low,
        sample_rate=0.75,
    )


def _dataplane(trace: Trace, **simulator_kwargs):
    simulator = build_testbed_simulator(**simulator_kwargs)
    try:
        truth = simulator.run_epoch(trace)
        state = collect_dataplane_state(simulator)
    finally:
        simulator.close()
    return {
        "state": state,
        "flow_sizes": truth.flow_sizes,
        "losses": truth.losses,
        "per_switch_flows": truth.per_switch_flows,
    }


def _testbed_dataplane(seed: int):
    resources = SwitchResources.scaled(0.05)
    trace = generate_workload(
        "DCTCP", num_flows=400, victim_ratio=0.1, loss_rate=0.1, seed=seed
    )
    return _dataplane(
        trace,
        resources=resources,
        config=_tiered_config(resources, high=64, low=8),
        seed=seed,
    )


def _fabric_topology() -> FatTreeTopology:
    return FatTreeTopology(FatTreeSpec(k=8))


def _fabric_trace(topology: FatTreeTopology, seed: int) -> Trace:
    return generate_workload(
        "DCTCP",
        num_flows=FABRIC_FLOWS,
        victim_ratio=FABRIC_VICTIM_RATIO,
        loss_rate=0.05,
        num_hosts=topology.num_hosts,
        seed=seed,
        use_five_tuple=False,
    )


def _fabric_dataplane(seed: int):
    resources = SwitchResources.scaled(FABRIC_SCALE)
    topology = _fabric_topology()
    return _dataplane(
        _fabric_trace(topology, seed),
        resources=resources,
        config=_tiered_config(resources, high=64, low=8),
        seed=seed,
        prime=MERSENNE_PRIME_61,
        topology=topology,
    )


def _duplicate_id_dataplane():
    flows = [
        FlowRecord(
            flow_id=100 + i, size=(i * 13) % 40 + 1,
            src_host=i % 8, dst_host=(i + 3) % 8,
            is_victim=(i % 5 == 0), lost_packets=(i % 5 == 0) * 2,
        )
        for i in range(200)
    ]
    # Flow 100 again, from another host pair: sizes and losses accumulate.
    flows.append(FlowRecord(flow_id=100, size=30, src_host=2, dst_host=6,
                            is_victim=True, lost_packets=5))
    resources = SwitchResources.scaled(0.05)
    return _dataplane(
        Trace(flows=flows),
        resources=resources,
        config=_tiered_config(resources, high=24, low=6),
        seed=11,
    )


def _facade_record(epoch: int, trace: Trace, result):
    accuracy = result.loss_accuracy()
    division = result.memory_division()
    decoded = result.decoded_flow_counts()
    return {
        "epoch": epoch,
        "num_flows": len(trace),
        "num_victims": result.truth.num_victims(),
        "lost_packets": result.truth.total_lost_packets(),
        "level": result.level.value,
        **{f"mem_{part}": division[part] for part in ("hh", "hl", "ll")},
        **{f"decoded_{part}": decoded[part] for part in ("hh", "hl", "ll")},
        "threshold_high": result.config.threshold_high,
        "threshold_low": result.config.threshold_low,
        "sample_rate": result.config.sample_rate,
        "loss_precision": accuracy["precision"],
        "loss_recall": accuracy["recall"],
        "loss_f1": accuracy["f1"],
        "loss_are": accuracy["are"],
    }


def _facade_fabric(seed: int):
    topology = _fabric_topology()
    system = ChameleMon(
        resources=SwitchResources.scaled(FABRIC_SCALE),
        seed=seed,
        prime=MERSENNE_PRIME_61,
        topology=topology,
        history_limit=2,
        destructive_analysis=True,
    )
    records = []
    try:
        for epoch in range(FABRIC_EPOCHS):
            trace = _fabric_trace(topology, seed + 101 * epoch)
            records.append(_facade_record(epoch, trace, system.run_epoch(trace)))
    finally:
        system.close()
    return records


def _compute_digests(tmp_dir: str):
    digests = {}
    for seed in SEEDS:
        for name in SCENARIOS:
            digests[f"records/{name}/seed{seed}"] = _digest(_scenario_records(name, seed))
        records, checkpoint = _serve_smoke(seed, tmp_dir)
        digests[f"serve/records/seed{seed}"] = _digest(records)
        digests[f"serve/checkpoint/seed{seed}"] = _digest(checkpoint)
        digests[f"dataplane/testbed/seed{seed}"] = _digest(_testbed_dataplane(seed))
        digests[f"dataplane/fabric/seed{seed}"] = _digest(_fabric_dataplane(seed))
        digests[f"facade/fabric/seed{seed}"] = _digest(_facade_fabric(seed))
    digests["dataplane/duplicate-ids"] = _digest(_duplicate_id_dataplane())
    return digests


with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _compute_digests(str(tmp_path_factory.mktemp("golden")))


def _report(actual) -> str:
    lines = ["golden digests moved; every case's current digest:"]
    for case in sorted(set(actual) | set(GOLDEN)):
        new = actual.get(case, "<missing>")
        mark = "" if new == GOLDEN.get(case) else "   <-- changed"
        lines.append(f"  {case}: {new}{mark}")
    lines.append("as JSON:")
    lines.append(json.dumps(actual, indent=2, sort_keys=True))
    return "\n".join(lines)


def test_case_set_matches_pins(digests):
    assert sorted(digests) == sorted(GOLDEN), _report(digests)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(digests, case):
    assert digests.get(case) == GOLDEN[case], _report(digests)
