"""Deterministic fault injection for the whole pipeline (``repro.chaos``).

The paper's pitch is monitoring a network *while it is unhealthy*; this
module makes our own runtime observable under the same conditions.  A
:class:`FaultInjector` holds a set of declarative :class:`FaultSpec` entries
— checkpoint truncation or bit-flips, sink ``OSError`` on flush, netstate
diff-line corruption, metrics-port bind failure — and arms them at injection
points threaded through :class:`~repro.service.service.TelemetryService`, the
file sinks, and :mod:`repro.service.netstate`.

Everything here is **deterministic given the seed**.  Fault selection is
declarative (epoch-matched specs fire in arrival order), and every random
choice an injected fault or a recovery path needs — which byte to flip,
how much backoff jitter to sleep — is drawn from splitmix64 substreams keyed
on ``(seed, site, epoch, attempt)``, mirroring the simulator's
``epoch_loss_key`` discipline.  Two runs with the same seed and spec inject
byte-identical faults, which is what lets the ``serve_chaos`` scenario assert
bit-identical recovery against a fault-free reference.

Spec files (``repro.cli serve --chaos SPEC.json``)::

    {
      "seed": 7,                      // optional, defaults to the run seed
      "faults": [
        {"kind": "checkpoint_corrupt", "epoch": 6, "mode": "bitflip"},
        {"kind": "sink_flush_error", "epoch": 2},
        {"kind": "netstate_corrupt", "count": 2},
        {"kind": "metrics_bind_error"}
      ]
    }

A ``sink_flush_error`` hits the record sinks unless it names
``"target": "alerts"`` (a JSONL alert feed).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..network.simulator import _INV_2_53, _KEY_GAMMA, _U64, mix64

#: Every fault kind the injector understands, with its injection site.
FAULT_KINDS = (
    "checkpoint_corrupt",  # TelemetryService corrupts the .rtck after writing
    "sink_flush_error",   # JsonlSink/CsvSink write raises OSError
    "netstate_corrupt",   # read_state_diffs sees garbled feed lines
    "metrics_bind_error",  # MetricsServer bind raises OSError
)


def chaos_key(seed: int, site: str, epoch: int = 0) -> int:
    """The 64-bit key of one (seed, site, epoch) chaos substream.

    Mirrors ``epoch_loss_key``: the site name is folded in through its hash
    of the raw bytes so distinct injection points never share a stream.
    """
    site_word = 0
    for byte in site.encode("utf-8"):
        site_word = mix64(site_word * 31 + byte)
    return mix64(
        (mix64(seed & _U64) + site_word + (epoch + 1) * _KEY_GAMMA) & _U64
    )


def chaos_uniform(seed: int, site: str, epoch: int = 0, draw: int = 0) -> float:
    """One uniform in [0, 1) from the (seed, site, epoch) substream."""
    z = mix64((chaos_key(seed, site, epoch) + (draw + 1) * _KEY_GAMMA) & _U64)
    return (z >> 11) * _INV_2_53


class ChaosSpecError(ValueError):
    """A chaos spec file or fault entry does not validate."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what to break, when, and how often.

    ``epoch=None`` fires at the first eligible injection-point visit;
    ``count`` is how many times the spec fires before disarming (injection
    points are visited in deterministic order, so firing is reproducible).
    Kind-specific knobs live in ``params`` (``mode``, ``target``, ``lines``,
    ...).
    """

    kind: str
    epoch: Optional[int] = None
    count: int = 1
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosSpecError(
                f"unknown fault kind '{self.kind}' (expected one of {FAULT_KINDS})"
            )
        if self.count < 1:
            raise ChaosSpecError(f"fault count must be >= 1, got {self.count}")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind, "count": self.count}
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        payload.update(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        if "kind" not in payload:
            raise ChaosSpecError(f"fault entry {payload!r} has no 'kind'")
        data = dict(payload)
        kind = str(data.pop("kind"))
        epoch = data.pop("epoch", None)
        count = int(data.pop("count", 1))
        return cls(
            kind=kind,
            epoch=None if epoch is None else int(epoch),
            count=count,
            params=data,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff for transient sink I/O errors (``OSError`` only).

    A write is attempted ``1 + retries`` times; between attempts the caller
    sleeps :meth:`backoff_delay`.  With ``fail_open=True`` an exhausted write
    is dropped with a counted warning instead of crashing the service — the
    degraded-mode contract for non-durable outputs.
    """

    retries: int = 3
    backoff_base: float = 0.01
    backoff_cap: float = 1.0
    fail_open: bool = True

    def backoff_delay(self, seed: int, site: str, epoch: int, attempt: int) -> float:
        jitter = chaos_uniform(seed, f"retry/{site}", epoch, attempt)
        return min(self.backoff_cap, self.backoff_base * (2 ** attempt) * (0.5 + jitter / 2))


class ChaosMonitor:
    """Fault/recovery/degradation accounting shared across the pipeline.

    Counts are always kept in process (scenario verdicts and CLI summaries
    read them); :meth:`bind` additionally mirrors them into ``repro_*``
    counters on a :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self, registry: Optional[Any] = None) -> None:
        self._lock = threading.Lock()
        self.faults_injected: Dict[str, int] = {}
        self.recoveries: Dict[str, int] = {}
        self.degraded_epochs = 0
        self.netstate_rejected_lines = 0
        self.sink_retries = 0
        self.sink_drops = 0
        self._faults_counter = None
        self._recoveries_counter = None
        self._degraded_counter = None
        self._netstate_counter = None
        if registry is not None:
            self.bind(registry)

    def bind(self, registry: Any) -> None:
        """Attach the chaos counters to a metrics registry (idempotent)."""
        self._faults_counter = registry.counter(
            "repro_faults_injected_total",
            "Faults injected by the chaos FaultInjector", labels=("kind",))
        self._recoveries_counter = registry.counter(
            "repro_recoveries_total",
            "Successful recoveries from faults (injected or real)", labels=("site",))
        self._degraded_counter = registry.counter(
            "repro_degraded_epochs_total",
            "Epochs annotated degraded (persistent decode failure)")
        self._netstate_counter = registry.counter(
            "repro_netstate_rejected_lines_total",
            "Malformed netstate diff lines skipped in lenient mode")

    # -- events --------------------------------------------------------- #
    def fault(self, kind: str) -> None:
        with self._lock:
            self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1
        if self._faults_counter is not None:
            self._faults_counter.labels(kind=kind).inc()

    def recovery(self, site: str) -> None:
        with self._lock:
            self.recoveries[site] = self.recoveries.get(site, 0) + 1
        if self._recoveries_counter is not None:
            self._recoveries_counter.labels(site=site).inc()

    def degraded_epoch(self) -> None:
        with self._lock:
            self.degraded_epochs += 1
        if self._degraded_counter is not None:
            self._degraded_counter.inc()

    def netstate_rejected(self) -> None:
        with self._lock:
            self.netstate_rejected_lines += 1
        if self._netstate_counter is not None:
            self._netstate_counter.inc()

    def sink_retry(self) -> None:
        with self._lock:
            self.sink_retries += 1

    def sink_drop(self) -> None:
        with self._lock:
            self.sink_drops += 1

    # -- reading -------------------------------------------------------- #
    def total_faults(self) -> int:
        with self._lock:
            return sum(self.faults_injected.values())

    def total_recoveries(self) -> int:
        with self._lock:
            return sum(self.recoveries.values())

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "faults_injected": dict(self.faults_injected),
                "recoveries": dict(self.recoveries),
                "degraded_epochs": self.degraded_epochs,
                "netstate_rejected_lines": self.netstate_rejected_lines,
                "sink_retries": self.sink_retries,
                "sink_drops": self.sink_drops,
            }


class FaultInjector:
    """Arms declarative fault specs at the pipeline's injection points.

    Components ask the injector whether a fault fires at their site
    (:meth:`take`); fired specs decrement their remaining count and are
    tallied on the shared :class:`ChaosMonitor`.  Sites are visited in
    deterministic order, so a run with the same seed and spec injects
    identically.
    """

    def __init__(
        self,
        seed: int = 0,
        faults: Sequence[FaultSpec] = (),
        monitor: Optional[ChaosMonitor] = None,
    ) -> None:
        self.seed = int(seed)
        self.monitor = monitor if monitor is not None else ChaosMonitor()
        self._lock = threading.Lock()
        self._armed: List[Tuple[FaultSpec, int]] = [
            (spec, spec.count) for spec in faults
        ]

    # -- spec files ----------------------------------------------------- #
    @classmethod
    def from_spec(
        cls,
        spec: Dict[str, Any],
        default_seed: int = 0,
        monitor: Optional[ChaosMonitor] = None,
    ) -> "FaultInjector":
        """Build an injector from a parsed chaos spec dict."""
        unknown = set(spec) - {"seed", "faults"}
        if unknown:
            raise ChaosSpecError(f"unknown chaos spec keys {sorted(unknown)}")
        faults = [FaultSpec.from_dict(entry) for entry in spec.get("faults", [])]
        return cls(
            seed=int(spec.get("seed", default_seed)),
            faults=faults,
            monitor=monitor,
        )

    @classmethod
    def load(
        cls,
        path: str,
        default_seed: int = 0,
        monitor: Optional[ChaosMonitor] = None,
    ) -> "FaultInjector":
        """Load a chaos spec JSON file (``serve --chaos SPEC.json``)."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ChaosSpecError(f"cannot read chaos spec '{path}': {error}") from None
        except ValueError as error:
            raise ChaosSpecError(f"chaos spec '{path}' is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ChaosSpecError(f"chaos spec '{path}' must be a JSON object")
        try:
            return cls.from_spec(payload, default_seed=default_seed, monitor=monitor)
        except ChaosSpecError as error:
            raise ChaosSpecError(f"{path}: {error}") from None

    # -- arming --------------------------------------------------------- #
    def pending(self, kind: Optional[str] = None) -> int:
        """How many armed firings remain (optionally for one kind)."""
        with self._lock:
            return sum(
                remaining
                for spec, remaining in self._armed
                if remaining > 0 and (kind is None or spec.kind == kind)
            )

    def take(
        self,
        kind: str,
        epoch: Optional[int] = None,
        where: Optional[Callable[[FaultSpec], bool]] = None,
    ) -> Optional[FaultSpec]:
        """Fire (and consume) the first armed spec matching this site visit.

        A spec matches when its kind matches, its epoch is either unset
        (first visit wins) or equal to the visit's epoch, and ``where`` (if
        given) accepts it — a rejected spec stays armed for another site.
        Returns the spec so the caller can read its kind-specific ``params``.
        """
        with self._lock:
            for index, (spec, remaining) in enumerate(self._armed):
                if remaining <= 0 or spec.kind != kind:
                    continue
                if spec.epoch is not None and epoch is not None and spec.epoch != epoch:
                    continue
                if spec.epoch is not None and epoch is None:
                    continue
                if where is not None and not where(spec):
                    continue
                self._armed[index] = (spec, remaining - 1)
                self.monitor.fault(kind)
                return spec
        return None

    def sink_hook(self, target: str = "records") -> Callable[[Dict[str, Any]], None]:
        """A ``fault_hook`` for the file sinks: raises ``OSError`` when armed.

        Installed on the :class:`~repro.stream.sinks.JsonlSink` /
        :class:`~repro.stream.sinks.CsvSink` record sinks (``target``
        ``"records"``) and JSONL alert feeds (``"alerts"``); a spec fires
        only on the hook of its own ``"target"``, which defaults to
        ``"records"``.  The hook runs before the write, so a retried write
        lands the record exactly once.
        """

        def hook(record: Dict[str, Any]) -> None:
            spec = self.take(
                "sink_flush_error",
                record.get("epoch"),
                where=lambda s: s.params.get("target", "records") == target,
            )
            if spec is not None:
                raise OSError(
                    f"injected sink flush failure ({target}, "
                    f"epoch {record.get('epoch')})"
                )

        return hook

    def install_sinks(self, sinks: Sequence[Any], target: str = "records") -> int:
        """Set the sink fault hook on every file sink that supports one."""
        hook = self.sink_hook(target)
        installed = 0
        for sink in sinks:
            inner = getattr(sink, "_sink", sink)  # a ResilientSink wraps a file sink
            if hasattr(inner, "fault_hook"):
                inner.fault_hook = hook
                installed += 1
        return installed

    def netstate_hook(self) -> Callable[[int, str], str]:
        """A per-line hook for ``read_state_diffs``: garbles armed lines.

        ``netstate_corrupt`` params: ``lines`` (explicit 1-based feed line
        numbers) or ``count`` (garble the first N payload lines).  Corruption
        truncates the line mid-way and appends non-JSON bytes, so lenient
        readers skip it with a counted warning.
        """
        state = {"remaining": 0, "lines": set()}
        with self._lock:
            for index, (spec, remaining) in enumerate(self._armed):
                if spec.kind != "netstate_corrupt" or remaining <= 0:
                    continue
                self._armed[index] = (spec, 0)
                explicit = spec.params.get("lines")
                if explicit is not None:
                    state["lines"].update(int(number) for number in explicit)
                else:
                    state["remaining"] += remaining

        def hook(line_number: int, line: str) -> str:
            fire = line_number in state["lines"]
            if not fire and state["remaining"] > 0:
                state["remaining"] -= 1
                fire = True
            if not fire:
                return line
            self.monitor.fault("netstate_corrupt")
            keep = max(1, len(line) // 2)
            return line[:keep] + "}{corrupt"

        return hook

    def raise_if(self, kind: str, epoch: Optional[int] = None) -> None:
        """Raise ``OSError`` when a spec of this kind is armed (bind faults)."""
        spec = self.take(kind, epoch)
        if spec is not None:
            raise OSError(f"injected {kind}")

    def checkpoint_fault(self, epoch: Optional[int]) -> Optional[FaultSpec]:
        """The armed checkpoint-corruption spec for this boundary, if any."""
        return self.take("checkpoint_corrupt", epoch)


# --------------------------------------------------------------------------- #
# checkpoint corruption (injection + property tests)
# --------------------------------------------------------------------------- #
#: Corruption modes understood by :func:`corrupt_checkpoint`, each targeting
#: one validated region of the ``.rtck`` layout.
CHECKPOINT_CORRUPTIONS = (
    "truncate",         # cut the file mid-payload
    "bitflip",          # flip one payload bit at a key-derived offset
    "magic",            # clobber the RTCK magic
    "version",          # bump the format version
    "manifest_bounds",  # point the header at a manifest beyond the file
    "manifest",         # garble the JSON manifest bytes
    "blob_bounds",      # point a blob outside the data region
)

_HEADER_STRUCT = struct.Struct("<4sHHQQ")
_CRC_STRUCT = struct.Struct("<I")
_CRC_OFFSET = _HEADER_STRUCT.size
_DATA_START = 64


def corrupt_checkpoint(path: str, mode: str = "bitflip", key: int = 0) -> None:
    """Deterministically corrupt one region of a ``.rtck`` checkpoint.

    ``key`` seeds the byte/bit choice for the modes that need one, so a
    given (spec, seed) corrupts the same byte every run.  Raises
    ``ChaosSpecError`` for unknown modes and ``OSError`` if the file cannot
    be rewritten.
    """
    if mode not in CHECKPOINT_CORRUPTIONS:
        raise ChaosSpecError(
            f"unknown checkpoint corruption '{mode}' "
            f"(expected one of {CHECKPOINT_CORRUPTIONS})"
        )
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if mode == "truncate":
        data = data[: max(1, len(data) // 2)]
    elif mode == "magic":
        data[0] ^= 0xFF
    elif mode == "version":
        magic, version, reserved, offset, length = _HEADER_STRUCT.unpack_from(data)
        _HEADER_STRUCT.pack_into(data, 0, magic, version + 1, reserved, offset, length)
    elif mode == "manifest_bounds":
        magic, version, reserved, _, length = _HEADER_STRUCT.unpack_from(data)
        _HEADER_STRUCT.pack_into(data, 0, magic, version, reserved, len(data) + 1, length)
    elif mode == "manifest":
        _, _, _, offset, length = _HEADER_STRUCT.unpack_from(data)
        position = offset + mix64(key) % max(1, length)
        data[position] = 0x00  # NUL is never valid inside a JSON manifest
    elif mode == "blob_bounds":
        _, _, _, offset, length = _HEADER_STRUCT.unpack_from(data)
        manifest = json.loads(bytes(data[offset : offset + length]))
        blobs = manifest.get("blobs") or {}
        if not blobs:
            raise ChaosSpecError(f"checkpoint '{path}' has no blobs to corrupt")
        name = sorted(blobs)[mix64(key) % len(blobs)]
        blobs[name]["offset"] = len(data)
        encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
        data = bytearray(data[:offset] + encoded)
        magic, version, reserved, _, _ = _HEADER_STRUCT.unpack_from(data)
        _HEADER_STRUCT.pack_into(data, 0, magic, version, reserved, offset, len(encoded))
        # Re-stamp the manifest CRC so the *bounds* check, not the checksum,
        # is what rejects this corruption.
        _CRC_STRUCT.pack_into(data, _CRC_OFFSET, zlib.crc32(bytes(encoded)))
    else:  # bitflip
        if len(data) <= _DATA_START:
            raise ChaosSpecError(f"checkpoint '{path}' is too small to bit-flip")
        position = _DATA_START + mix64(key) % (len(data) - _DATA_START)
        data[position] ^= 1 << (mix64(key + 1) % 8)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
        handle.flush()
        os.fsync(handle.fileno())
