"""Sharded data plane: a persistent worker pool over shared-memory columns.

One *shard* owns a set of edge switches (``edge_nodes[i]`` belongs to shard
``i % num_shards``): it classifies and encodes every flow whose ingress (phase
1) or egress (phase 2) switch it owns, with the serial path's two passes
(:func:`~repro.dataplane.switch.process_upstream` and
:func:`~repro.dataplane.switch.process_downstream`) over its own switches,
then ships the resulting sketch state back as compact deltas that the parent
merges into the central switches with the linear ``add`` algebra.  Because a
switch's whole flow stream stays inside one shard, every classification
decision — which depends on per-switch Tower collisions and flow order — is
made exactly as in the serial path.

Transport is zero-copy both ways that matter:

* The epoch's :class:`~repro.traffic.flow.TraceColumns` are packed once into a
  ``SharedMemory`` block using the ``.rtbin`` column layout
  (:func:`repro.traffic.store.pack_columns_into`); workers map read-only
  NumPy views over it.
* Per-flow hierarchy counts travel from phase 1 to phase 2 through a shared
  scratch block indexed by *global trace position*.  Shards write disjoint
  position sets (each position has exactly one ingress owner), so no locking
  is needed; the pool's phase barrier provides the happens-before edge.

Determinism contract: loss draws are keyed on (seed, epoch, trace position) —
see :mod:`repro.network.simulator` — so any shard can draw its own victims'
losses without coordination, and serial/sharded runs are bit-identical.

The epoch protocol is two-phase because egress encoding needs the (possibly
loss-reduced) hierarchy counts computed at ingress switches owned by *other*
shards:

1. every shard classifies + upstream-encodes its owned ingress switches and
   applies its victims' loss draws to the scratch block;
2. barrier (all phase-1 futures collected);
3. every shard downstream-encodes its owned egress switches from the scratch.

Workers are stateless between epochs: they rebuild fresh switches from the
deployment's (resources, base_seed, prime) and the epoch's config each phase,
which is exactly what ``begin_epoch`` does centrally — sketch hash seeds
derive from ``base_seed`` alone, so worker-built state is bit-identical to
central state.  The parent checks that the switches are one deployment
before it dispatches an epoch, as the serial path does.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as PhaseTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos import ChaosMonitor, InjectedFault, SupervisionPolicy, execute_worker_fault
from ..traffic.store import (
    columns_buffer_capacity,
    columns_from_buffer,
    pack_columns_into,
)
from ..sketches.hashing import KeyArray
from .classifier import ClassifiedBatch
from .switch import EdgeSwitch, process_downstream, process_upstream

_ALIGN = 64

#: (name, itemsize, numpy dtype) of the phase-1 -> phase-2 scratch columns.
_SCRATCH_FIELDS = (
    ("ll", 8, np.int64),
    ("hl", 8, np.int64),
    ("hh", 8, np.int64),
    ("sampled", 1, np.bool_),
)


def _scratch_layout(num_flows: int) -> Tuple[Dict[str, int], int]:
    """(column offsets, total bytes) of the scratch block for one epoch."""
    cursor = _ALIGN
    offsets: Dict[str, int] = {}
    for name, itemsize, _ in _SCRATCH_FIELDS:
        cursor += (-cursor) % _ALIGN
        offsets[name] = cursor
        cursor += itemsize * max(1, num_flows)
    return offsets, cursor + ((-cursor) % _ALIGN)


@dataclass
class _ShardPlan:
    """Everything a worker needs to rebuild its owned slice of the fabric."""

    topology: Any
    num_hosts: int
    edge_nodes: List[Any]
    owners: Dict[Any, int]
    #: Nodes with an attached data plane.
    attached: frozenset
    #: The deployment's (resources, base_seed, prime), shared by every switch.
    params: Optional[Tuple[Any, int, int]]
    num_shards: int


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
_PLAN: Optional[_ShardPlan] = None
_HOST_EDGE: Optional[np.ndarray] = None
#: Shard owning each edge switch, by node index.
_SHARD_OF: Optional[np.ndarray] = None
_SHM_CACHE: Dict[str, shared_memory.SharedMemory] = {}


def _init_worker(plan: _ShardPlan) -> None:
    global _PLAN, _HOST_EDGE, _SHARD_OF
    _PLAN = plan
    node_index = {node: index for index, node in enumerate(plan.edge_nodes)}
    _HOST_EDGE = np.array(
        [
            node_index[plan.topology.edge_switch_of_host(host)]
            for host in range(plan.num_hosts)
        ],
        dtype=np.int64,
    )
    _SHARD_OF = np.array([plan.owners[node] for node in plan.edge_nodes], dtype=np.int64)


def _attach_buffers(
    data_name: str, scratch_name: str
) -> Tuple[shared_memory.SharedMemory, shared_memory.SharedMemory]:
    """Attach (with caching) the epoch's data and scratch blocks.

    Buffers outgrown by the parent arrive under fresh names; cached handles
    for anything but the current pair are dropped.  The parent owns the
    segments' lifetime and unlinks them on close; attaching here re-registers
    the same name with the (fork-shared) resource tracker, which collapses in
    its name set, so no worker-side unregister is needed.
    """
    keep = {data_name, scratch_name}
    for name in [cached for cached in _SHM_CACHE if cached not in keep]:
        with contextlib.suppress(BufferError, OSError):
            _SHM_CACHE.pop(name).close()
    handles = []
    for name in (data_name, scratch_name):
        shm = _SHM_CACHE.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            _SHM_CACHE[name] = shm
        handles.append(shm)
    return handles[0], handles[1]


def _scratch_views(
    scratch: shared_memory.SharedMemory, num_flows: int, offsets: Dict[str, int]
) -> Dict[str, np.ndarray]:
    return {
        name: np.frombuffer(scratch.buf, dtype=dtype, count=num_flows, offset=offsets[name])
        for name, _, dtype in _SCRATCH_FIELDS
    }


def _build_switch(index: int, config: Any) -> EdgeSwitch:
    """A fresh switch for edge node ``index`` under this epoch's ``config``."""
    node = _PLAN.edge_nodes[index]
    if node not in _PLAN.attached:
        raise KeyError(f"no ChameleMon data plane attached to edge switch {node}")
    resources, base_seed, prime = _PLAN.params
    return EdgeSwitch(
        node, resources=resources, config=config, base_seed=base_seed, prime=prime
    )


def _part_delta(part) -> Optional[Tuple[List[np.ndarray], List[np.ndarray]]]:
    if part is None:
        return None
    return (part._counts, part._idsums)


def _phase1_task(
    shard_id: int,
    data_name: str,
    data_meta: Dict[str, Any],
    scratch_name: str,
    scratch_offsets: Dict[str, int],
    key: int,
    config: Any,
    with_spans: bool = False,
    fault: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[Any, Dict[str, Any]], List[Dict[str, Any]]]:
    """Classify + upstream-encode this shard's ingress switches; apply losses.

    With ``with_spans=True`` the phase is timed on this worker's monotonic
    clock and span dicts ship back with the deltas; the parent's tracer
    re-roots them under ``epoch/simulate`` (paths here are phase-relative).
    ``fault`` is a parent-decided chaos descriptor executed before any work
    (the retried epoch rewrites every scratch position, so a crash here
    leaves nothing partial behind).
    """
    from ..network.simulator import (
        apply_victim_losses,
        endpoint_switch_indices,
        switches_by_index,
    )

    execute_worker_fault(fault)
    phase_start = time.perf_counter_ns()
    loss_ns = 0
    data, scratch = _attach_buffers(data_name, scratch_name)
    columns = columns_from_buffer(data.buf, data_meta)
    views = _scratch_views(scratch, data_meta["flows"], scratch_offsets)
    ingress, _ = endpoint_switch_indices(columns, _PLAN.num_hosts, _HOST_EDGE)
    positions = np.flatnonzero(_SHARD_OF[ingress] == shard_id)
    deltas: Dict[Any, Dict[str, Any]] = {}
    if positions.size:
        switches, owner = switches_by_index(
            ingress[positions], lambda index: _build_switch(index, config)
        )
        batch = process_upstream(
            switches, owner, columns.flow_ids[positions], columns.sizes[positions]
        )
        views["ll"][positions] = batch.ll
        views["hl"][positions] = batch.hl
        views["hh"][positions] = batch.hh
        views["sampled"][positions] = batch.sampled
        victim_rows = columns.is_victim[positions] & (columns.lost_packets[positions] > 0)
        victim_positions = positions[victim_rows]
        loss_start = time.perf_counter_ns()
        apply_victim_losses(
            key,
            victim_positions,
            columns.lost_packets[victim_positions],
            views["ll"],
            views["hl"],
            views["hh"],
            views["sampled"],
        )
        loss_ns = time.perf_counter_ns() - loss_start
        for switch in switches:
            group = switch.end_epoch()
            deltas[switch.switch_id] = {
                "classifier": group.classifier.tower._counters,
                "upstream": {
                    name: _part_delta(group.upstream.parts.part(name))
                    for name in ("hh", "hl", "ll")
                },
                "stats": switch.stats,
            }
    spans: List[Dict[str, Any]] = []
    if with_spans:
        spans = [
            {
                "name": "classify_encode",
                "path": ["classify_encode"],
                "shard": shard_id,
                "start_ns": phase_start,
                "duration_ns": time.perf_counter_ns() - phase_start,
            },
            {
                "name": "loss_apply",
                "path": ["classify_encode", "loss_apply"],
                "shard": shard_id,
                "start_ns": phase_start,
                "duration_ns": loss_ns,
            },
        ]
    return deltas, spans


def _phase2_task(
    shard_id: int,
    data_name: str,
    data_meta: Dict[str, Any],
    scratch_name: str,
    scratch_offsets: Dict[str, int],
    config: Any,
    with_spans: bool = False,
) -> Tuple[Dict[Any, Dict[str, Any]], List[Dict[str, Any]]]:
    """Downstream-encode this shard's egress switches from the scratch counts."""
    from ..network.simulator import endpoint_switch_indices, switches_by_index

    phase_start = time.perf_counter_ns()
    data, scratch = _attach_buffers(data_name, scratch_name)
    columns = columns_from_buffer(data.buf, data_meta)
    views = _scratch_views(scratch, data_meta["flows"], scratch_offsets)
    _, egress = endpoint_switch_indices(columns, _PLAN.num_hosts, _HOST_EDGE)
    positions = np.flatnonzero(_SHARD_OF[egress] == shard_id)
    deltas: Dict[Any, Dict[str, Any]] = {}
    if positions.size:
        switches, owner = switches_by_index(
            egress[positions], lambda index: _build_switch(index, config)
        )
        batch = ClassifiedBatch(
            keys=KeyArray(columns.flow_ids[positions]),
            sampled=views["sampled"][positions],
            ll=views["ll"][positions],
            hl=views["hl"][positions],
            hh=views["hh"][positions],
        )
        process_downstream(switches, owner, batch)
        for switch in switches:
            group = switch.end_epoch()
            deltas[switch.switch_id] = {
                "downstream": {
                    name: _part_delta(group.downstream.parts.part(name))
                    for name in ("hl", "ll")
                },
                "stats": switch.stats,
            }
    spans: List[Dict[str, Any]] = []
    if with_spans:
        spans = [
            {
                "name": "downstream_encode",
                "path": ["downstream_encode"],
                "shard": shard_id,
                "start_ns": phase_start,
                "duration_ns": time.perf_counter_ns() - phase_start,
            }
        ]
    return deltas, spans


# --------------------------------------------------------------------------- #
# central merge (the linear sketch algebra)
# --------------------------------------------------------------------------- #
def _merge_fermat(part, state) -> int:
    """Add a shard-shipped Fermat delta into a central part via ``add``.

    Returns the delta's transported byte count (counts + idsums arrays) for
    the ``repro_shard_merge_bytes_total`` metric.
    """
    if part is None or state is None:
        return 0
    counts, idsums = state
    shadow = part.empty_like()
    shadow._counts = [np.asarray(row) for row in counts]
    shadow._idsums = [np.asarray(row) for row in idsums]
    part.add(shadow)
    return sum(np.asarray(row).nbytes for row in counts) + sum(
        np.asarray(row).nbytes for row in idsums
    )


def _merge_tower(tower, arrays) -> int:
    """Saturating bucket-wise add of shard tower counters into a central tower."""
    merged = 0
    for counters, level, delta in zip(tower._counters, tower.levels, arrays):
        delta = np.asarray(delta, dtype=np.int64)
        counters += delta
        np.minimum(counters, level.saturation, out=counters)
        merged += delta.nbytes
    return merged


def _merge_stats(target, delta) -> None:
    target.packets_upstream += delta.packets_upstream
    target.packets_downstream += delta.packets_downstream
    target.flows_seen += delta.flows_seen
    for hierarchy, count in delta.per_hierarchy_packets.items():
        target.per_hierarchy_packets[hierarchy] = (
            target.per_hierarchy_packets.get(hierarchy, 0) + count
        )


def merge_node_deltas(
    switches: Dict[Any, EdgeSwitch],
    up_deltas: Dict[Any, Dict[str, Any]],
    down_deltas: Dict[Any, Dict[str, Any]],
) -> int:
    """Merge shard deltas into the central switches' (freshly rotated) groups.

    Each node is owned by exactly one shard, so each central group receives at
    most one upstream and one downstream delta; the linear add is then exact
    (merge into empty), including the saturating Tower counters.  Returns the
    total delta bytes merged (the shard-transport volume metric).
    """
    merged = 0
    for node, delta in up_deltas.items():
        group = switches[node].end_epoch()
        merged += _merge_tower(group.classifier.tower, delta["classifier"])
        for name in ("hh", "hl", "ll"):
            merged += _merge_fermat(
                group.upstream.parts.part(name), delta["upstream"][name]
            )
        _merge_stats(switches[node].stats, delta["stats"])
    for node, delta in down_deltas.items():
        group = switches[node].end_epoch()
        for name in ("hl", "ll"):
            merged += _merge_fermat(
                group.downstream.parts.part(name), delta["downstream"][name]
            )
        _merge_stats(switches[node].stats, delta["stats"])
    return merged


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
class ShardRecoveryExhausted(RuntimeError):
    """The supervisor gave up: an epoch kept failing across pool respawns."""


#: Worker failures the supervisor may recover from by respawning the pool and
#: recomputing the epoch.  Deterministic task bugs (``KeyError`` and friends)
#: are deliberately absent: retrying those would loop forever, so they
#: propagate immediately with the pool torn down.
_RECOVERABLE = (BrokenProcessPool, PhaseTimeout, InjectedFault, OSError)


class ShardPool:
    """Persistent worker pool executing sharded epochs over shared memory.

    Workers and shared-memory buffers survive across epochs (spin-up and
    buffer allocation are paid once); buffers grow geometrically on demand and
    are unlinked on :meth:`close`.

    With a :class:`~repro.chaos.SupervisionPolicy` the pool also survives its
    workers: a crashed (``BrokenProcessPool``), hung (per-phase timeout), or
    chaos-injected (:class:`~repro.chaos.InjectedFault` / ``OSError``) epoch
    is retried on a freshly respawned pool with jittered exponential backoff,
    up to ``max_respawns`` times.  The recompute is bit-identical to the
    fault-free run: the packed column block is read-only to workers, phase 1
    rewrites every scratch position it owns, and loss draws are keyed on
    (seed, epoch, trace position) — never on execution order.
    """

    def __init__(
        self,
        plan: _ShardPlan,
        num_shards: int,
        supervision: Optional[SupervisionPolicy] = None,
        monitor: Optional[ChaosMonitor] = None,
    ) -> None:
        self.plan = plan
        self.num_shards = num_shards
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self.monitor = monitor
        self._broken = False
        self._executor: Optional[ProcessPoolExecutor] = self._spawn_executor()
        self._data_shm: Optional[shared_memory.SharedMemory] = None
        self._scratch_shm: Optional[shared_memory.SharedMemory] = None

    @classmethod
    def for_simulator(
        cls,
        simulator,
        num_shards: int,
        supervision: Optional[SupervisionPolicy] = None,
        monitor: Optional[ChaosMonitor] = None,
    ) -> "ShardPool":
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        plan = _ShardPlan(
            topology=simulator.topology,
            num_hosts=simulator.topology.num_hosts,
            edge_nodes=list(simulator.edge_nodes),
            owners={
                node: index % num_shards
                for index, node in enumerate(simulator.edge_nodes)
            },
            attached=frozenset(simulator.switches),
            params=next(
                (
                    (switch.resources, switch._base_seed, switch._prime)
                    for switch in simulator.switches.values()
                ),
                None,
            ),
            num_shards=num_shards,
        )
        return cls(plan, num_shards, supervision=supervision, monitor=monitor)

    def _spawn_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_shards, initializer=_init_worker,
            initargs=(self.plan,),
        )

    # ------------------------------------------------------------------ #
    def _ensure_buffers(self, num_flows: int) -> Tuple[Dict[str, int], int]:
        data_bytes = columns_buffer_capacity(num_flows)
        scratch_offsets, scratch_bytes = _scratch_layout(num_flows)
        if self._data_shm is None or self._data_shm.size < data_bytes:
            self._release_buffer("_data_shm")
            self._data_shm = shared_memory.SharedMemory(create=True, size=data_bytes)
        if self._scratch_shm is None or self._scratch_shm.size < scratch_bytes:
            self._release_buffer("_scratch_shm")
            self._scratch_shm = shared_memory.SharedMemory(
                create=True, size=scratch_bytes
            )
        return scratch_offsets, num_flows

    def _release_buffer(self, attr: str) -> None:
        shm = getattr(self, attr)
        if shm is None:
            return
        setattr(self, attr, None)
        with contextlib.suppress(BufferError, OSError):
            shm.close()
        with contextlib.suppress(FileNotFoundError, OSError):
            shm.unlink()

    def run_epoch(
        self,
        columns,
        key: int,
        config: Any,
        with_spans: bool = False,
        epoch: Optional[int] = None,
        faults: Sequence[Dict[str, Any]] = (),
    ) -> Tuple[
        Dict[Any, Dict[str, Any]],
        Dict[Any, Dict[str, Any]],
        List[Dict[str, Any]],
    ]:
        """Run one epoch over the shards; returns (up deltas, down deltas, spans).

        ``config`` is the deployment's MonitoringConfig governing this epoch
        (workers rebuild switches from it each phase, mirroring the central
        ``begin_epoch``).  Phase 1 must fully complete before phase 2
        is dispatched — phase 2 reads hierarchy counts written by every shard.
        ``with_spans=True`` has each worker time its phases and ship span
        dicts back with the deltas (empty list otherwise).

        ``faults`` are chaos descriptors (:meth:`FaultInjector.shard_faults`)
        applied on the first attempt only; a recoverable failure respawns the
        pool and recomputes the whole epoch fault-free.  Each recovery adds a
        ``recover`` span and, when a monitor is attached, one
        ``repro_recoveries_total{site="shard_pool"}`` increment.
        """
        if self._executor is None:
            raise RuntimeError("ShardPool is closed")
        scratch_offsets, _ = self._ensure_buffers(len(columns))
        data_meta = pack_columns_into(self._data_shm.buf, columns)
        recovery_spans: List[Dict[str, Any]] = []
        attempt = 0
        while True:
            try:
                up_deltas, down_deltas, spans = self._dispatch_epoch(
                    data_meta, scratch_offsets, key, config, with_spans,
                    faults if attempt == 0 else (),
                )
            except _RECOVERABLE as error:
                self._broken = True
                if attempt >= self.supervision.max_respawns:
                    self.close()
                    raise ShardRecoveryExhausted(
                        f"shard epoch failed after {attempt + 1} attempts "
                        f"({self.supervision.max_respawns} respawns): {error!r}"
                    ) from error
                recover_start = time.perf_counter_ns()
                self._respawn()
                delay = self.supervision.backoff_delay(
                    key, "shard_pool", epoch if epoch is not None else 0, attempt
                )
                if delay > 0:
                    time.sleep(delay)
                recovery_spans.append({
                    "name": "recover",
                    "path": ["recover"],
                    "shard": None,
                    "start_ns": recover_start,
                    "duration_ns": time.perf_counter_ns() - recover_start,
                })
                attempt += 1
                continue
            if attempt and self.monitor is not None:
                self.monitor.recovery("shard_pool")
            if with_spans:
                spans = spans + recovery_spans
            return up_deltas, down_deltas, spans

    def _dispatch_epoch(
        self,
        data_meta: Dict[str, Any],
        scratch_offsets: Dict[str, int],
        key: int,
        config: Any,
        with_spans: bool,
        faults: Sequence[Dict[str, Any]],
    ) -> Tuple[
        Dict[Any, Dict[str, Any]],
        Dict[Any, Dict[str, Any]],
        List[Dict[str, Any]],
    ]:
        """One attempt at the two-phase epoch protocol (no retry logic)."""
        fault_by_shard: Dict[int, Dict[str, Any]] = {}
        for fault in faults:
            fault_by_shard.setdefault(int(fault.get("shard", 0)) % self.num_shards, fault)
        common = (
            self._data_shm.name,
            data_meta,
            self._scratch_shm.name,
            scratch_offsets,
        )
        spans: List[Dict[str, Any]] = []
        phase1 = [
            self._executor.submit(
                _phase1_task, shard, *common, key, config, with_spans,
                fault_by_shard.get(shard),
            )
            for shard in range(self.num_shards)
        ]
        up_deltas: Dict[Any, Dict[str, Any]] = {}
        for deltas, shard_spans in self._collect(phase1):
            up_deltas.update(deltas)
            spans.extend(shard_spans)
        phase2 = [
            self._executor.submit(_phase2_task, shard, *common, config, with_spans)
            for shard in range(self.num_shards)
        ]
        down_deltas: Dict[Any, Dict[str, Any]] = {}
        for deltas, shard_spans in self._collect(phase2):
            down_deltas.update(deltas)
            spans.extend(shard_spans)
        return up_deltas, down_deltas, spans

    def _collect(self, futures: List[Any]) -> List[Any]:
        """Collect one phase's futures under the supervision deadline.

        ``task_timeout`` bounds the whole phase's wall time (the phase barrier
        is the unit of recovery); a worker sleeping past it surfaces as
        ``concurrent.futures.TimeoutError``, which the supervisor treats like
        a crash.  On any failure the remaining futures are cancelled — the
        respawn tears the executor down anyway.
        """
        timeout = self.supervision.task_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        collected = []
        try:
            for future in futures:
                remaining = None
                if deadline is not None:
                    remaining = max(0.001, deadline - time.monotonic())
                collected.append(future.result(timeout=remaining))
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return collected

    def _respawn(self) -> None:
        """Replace a broken executor with a fresh one (buffers are kept).

        The shared-memory blocks survive — new workers re-attach by name and
        the epoch retry rewrites every scratch position — so respawn cost is
        process spin-up only.
        """
        self._force_shutdown()
        self._executor = self._spawn_executor()
        self._broken = False

    def _force_shutdown(self) -> None:
        """Tear down the executor without joining possibly-hung workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            with contextlib.suppress(Exception):
                process.terminate()
        with contextlib.suppress(Exception):
            executor.shutdown(wait=False, cancel_futures=True)

    @property
    def closed(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        """Shut the workers down and unlink both shared-memory blocks.

        Idempotent and exception-safe: a pool marked broken (dead or hung
        workers) is force-terminated instead of joined, a graceful shutdown
        that raises falls back to the forced path, and the shared-memory
        blocks are always released — teardown never masks the worker error
        that triggered it.
        """
        try:
            if self._broken:
                self._force_shutdown()
            else:
                executor, self._executor = self._executor, None
                if executor is not None:
                    try:
                        executor.shutdown(wait=True, cancel_futures=True)
                    except Exception:
                        with contextlib.suppress(Exception):
                            executor.shutdown(wait=False, cancel_futures=True)
        finally:
            self._release_buffer("_data_shm")
            self._release_buffer("_scratch_shm")

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# state fingerprinting (tests / benchmarks)
# --------------------------------------------------------------------------- #
def _part_fingerprint(part) -> Optional[Tuple[Any, Any]]:
    if part is None:
        return None
    return (
        [row.tolist() for row in part._counts],
        [[int(value) for value in row] for row in part._idsums],
    )


def collect_dataplane_state(simulator) -> Dict[Any, Dict[str, Any]]:
    """A pure-Python, ``==``-comparable snapshot of every switch's epoch state.

    Used by the identity tests and the scaling benchmark to assert that serial
    and sharded runs produce bit-identical sketches and statistics.
    """
    state: Dict[Any, Dict[str, Any]] = {}
    for node in sorted(simulator.switches, key=str):
        switch = simulator.switches[node]
        group = switch.end_epoch()
        stats = switch.stats
        state[node] = {
            "classifier": [row.tolist() for row in group.classifier.tower._counters],
            "upstream": {
                name: _part_fingerprint(group.upstream.parts.part(name))
                for name in ("hh", "hl", "ll")
            },
            "downstream": {
                name: _part_fingerprint(group.downstream.parts.part(name))
                for name in ("hl", "ll")
            },
            "stats": (
                stats.packets_upstream,
                stats.packets_downstream,
                stats.flows_seen,
                tuple(
                    sorted(
                        (hierarchy.name, count)
                        for hierarchy, count in stats.per_hierarchy_packets.items()
                    )
                ),
            ),
        }
    return state
