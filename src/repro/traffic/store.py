"""Zero-copy binary epoch store: the mmap-able struct-of-arrays trace format.

The format (extension ``.rtbin``) serializes a sequence of per-epoch
:class:`~repro.traffic.flow.TraceColumns` as raw little-endian column blobs
plus one JSON manifest, so replay is *zero parsing*: each epoch's columns are
``np.frombuffer`` views straight into the file's memory map, and stream
straight into ``insert_batch`` as array slices.

Layout::

    offset 0   magic  b"RTRC"
    offset 4   u16    format version (currently 1)
    offset 6   u16    reserved (0)
    offset 8   u64    manifest offset (bytes, little-endian)
    offset 16  u64    manifest length (bytes)
    offset 64  column blobs, each aligned to 64 bytes, epoch-major
    ...        JSON manifest (UTF-8)

The manifest records, per epoch, the flow count and the absolute offset of
every column blob.  Columns and dtypes::

    flow_id_lo    <u8   low 64 bits of the flow ID
    flow_id_hi    <u8   bits 64..103 of the 104-bit wide ID (wide epochs only)
    size          <i8   packets sent
    src_host      <i8   -1 when unset
    dst_host      <i8   -1 when unset
    is_victim     |b1
    loss_rate     <f8
    lost_packets  <i8

Epochs whose IDs all fit 64 bits omit the ``flow_id_hi`` spill column and
their ``flow_id_lo`` blob *is* the uint64 ID column (zero copy).  Wide epochs
reassemble object-dtype Python ints from the two limb columns on load (the
only non-zero-copy column, and only for 104-bit traces).

The manifest is written after the data (streaming writers never need to know
the epoch count in advance) and its offset is back-patched into the header.
Truncated or corrupt files fail fast with :class:`TraceFormatError` before
any column is touched.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

from .flow import Trace, TraceColumns

MAGIC = b"RTRC"
VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sHHQQ")
_DATA_START = 64
_ALIGN = 64

#: Extensions recognized as the binary epoch format.
BINARY_EXTENSIONS = (".rtbin",)

#: name -> (numpy dtype string, attribute on TraceColumns or None for derived)
COLUMN_DTYPES: Dict[str, str] = {
    "flow_id_lo": "<u8",
    "flow_id_hi": "<u8",
    "size": "<i8",
    "src_host": "<i8",
    "dst_host": "<i8",
    "is_victim": "|b1",
    "loss_rate": "<f8",
    "lost_packets": "<i8",
}

_UINT64_MASK = (1 << 64) - 1


class TraceFormatError(ValueError):
    """The file is not a valid binary epoch store (bad magic, truncation, ...)."""


def _split_wide_ids(flow_ids: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(lo, hi) uint64 limb columns; ``hi`` is None when no ID spills 64 bits."""
    if flow_ids.dtype != object:
        return flow_ids.astype("<u8", copy=False), None
    lo = np.array([int(i) & _UINT64_MASK for i in flow_ids], dtype="<u8")
    hi = np.array([int(i) >> 64 for i in flow_ids], dtype="<u8")
    if not hi.any():
        return lo, None
    return lo, hi


def _join_wide_ids(lo: np.ndarray, hi: Optional[np.ndarray]) -> np.ndarray:
    if hi is None:
        return lo
    return (hi.astype(object) << 64) | lo.astype(object)


def write_binary_trace(path: str, epochs: Iterable[Trace]) -> int:
    """Serialize per-epoch traces to the binary epoch store; returns epochs written.

    Epochs are streamed: each epoch's columns are appended as they arrive and
    the manifest goes at the end, so arbitrarily long streams write in
    O(epoch) memory.  Empty epochs are preserved (unlike JSONL/CSV, which have
    no way to represent a row-less epoch).
    """
    manifest_epochs: List[Dict[str, Any]] = []
    totals = {"flows": 0, "packets": 0, "lost_packets": 0, "victims": 0}
    with open(path, "wb") as handle:
        handle.write(_HEADER_STRUCT.pack(MAGIC, VERSION, 0, 0, 0))
        handle.write(b"\0" * (_DATA_START - handle.tell()))
        for trace in epochs:
            columns = trace.columns()
            lo, hi = _split_wide_ids(columns.flow_ids)
            blobs = {
                "flow_id_lo": lo,
                "size": columns.sizes,
                "src_host": columns.src_hosts,
                "dst_host": columns.dst_hosts,
                "is_victim": columns.is_victim,
                "loss_rate": columns.loss_rate,
                "lost_packets": columns.lost_packets,
            }
            if hi is not None:
                blobs["flow_id_hi"] = hi
            offsets: Dict[str, int] = {}
            for name, array in blobs.items():
                padding = (-handle.tell()) % _ALIGN
                if padding:
                    handle.write(b"\0" * padding)
                offsets[name] = handle.tell()
                data = np.ascontiguousarray(
                    array.astype(COLUMN_DTYPES[name], copy=False)
                )
                handle.write(data.tobytes())
            manifest_epochs.append(
                {"flows": len(columns), "wide": hi is not None, "offsets": offsets}
            )
            totals["flows"] += len(columns)
            totals["packets"] += int(columns.sizes.sum()) if len(columns) else 0
            totals["lost_packets"] += (
                int(columns.lost_packets.sum()) if len(columns) else 0
            )
            totals["victims"] += int(columns.is_victim.sum()) if len(columns) else 0
        manifest = {
            "version": VERSION,
            "columns": COLUMN_DTYPES,
            "epochs": manifest_epochs,
            "totals": totals,
        }
        blob = json.dumps(manifest).encode("utf-8")
        manifest_offset = handle.tell()
        handle.write(blob)
        handle.seek(0)
        handle.write(
            _HEADER_STRUCT.pack(MAGIC, VERSION, 0, manifest_offset, len(blob))
        )
    return len(manifest_epochs)


class BinaryTraceReader:
    """Random-access, zero-copy reader over a binary epoch store.

    Columns are served as read-only NumPy views into one ``mmap`` of the file;
    nothing is parsed or copied on the replay hot path (wide-ID epochs are the
    one exception: their object-dtype IDs are reassembled from the limb
    columns).  Traces come out frozen — callers that want to mutate must copy
    (``trace.columns().copy()``), which is the explicit-mutation contract.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        size = os.path.getsize(path)
        if size < _HEADER_STRUCT.size:
            raise TraceFormatError(f"{path}: too small to hold a header ({size} bytes)")
        self._file = open(path, "rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except Exception:
            self._file.close()
            raise
        try:
            self.manifest = self._load_manifest(size)
        except Exception:
            self.close()
            raise
        self.epochs_meta: List[Dict[str, Any]] = self.manifest["epochs"]

    def _load_manifest(self, size: int) -> Dict[str, Any]:
        magic, version, _, offset, length = _HEADER_STRUCT.unpack(
            self._map[: _HEADER_STRUCT.size]
        )
        if magic != MAGIC:
            raise TraceFormatError(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported format version {version} (expected {VERSION})"
            )
        if offset == 0 or length == 0:
            raise TraceFormatError(
                f"{self.path}: missing manifest (incomplete write?)"
            )
        if offset + length > size:
            raise TraceFormatError(
                f"{self.path}: truncated — manifest spans "
                f"[{offset}, {offset + length}) but the file has {size} bytes"
            )
        try:
            manifest = json.loads(self._map[offset : offset + length].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(f"{self.path}: corrupt manifest: {exc}") from exc
        for field in ("columns", "epochs"):
            if field not in manifest:
                raise TraceFormatError(f"{self.path}: manifest missing '{field}'")
        for index, epoch in enumerate(manifest["epochs"]):
            for name, column_offset in epoch["offsets"].items():
                dtype = np.dtype(manifest["columns"][name])
                end = column_offset + epoch["flows"] * dtype.itemsize
                if end > size:
                    raise TraceFormatError(
                        f"{self.path}: truncated — epoch {index} column '{name}' "
                        f"ends at {end} but the file has {size} bytes"
                    )
        return manifest

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.epochs_meta)

    @property
    def epoch_count(self) -> int:
        return len(self.epochs_meta)

    def _column(self, meta: Dict[str, Any], name: str) -> np.ndarray:
        dtype = np.dtype(self.manifest["columns"][name])
        return np.frombuffer(
            self._map, dtype=dtype, count=meta["flows"], offset=meta["offsets"][name]
        )

    def read_epoch(self, index: int) -> Trace:
        """The epoch's trace, backed by read-only views into the mmap."""
        meta = self.epochs_meta[index]
        if meta["flows"] == 0:
            return Trace(columns=TraceColumns.empty()).freeze()
        lo = self._column(meta, "flow_id_lo")
        hi = self._column(meta, "flow_id_hi") if meta.get("wide") else None
        columns = TraceColumns(
            flow_ids=_join_wide_ids(lo, hi),
            sizes=self._column(meta, "size"),
            src_hosts=self._column(meta, "src_host"),
            dst_hosts=self._column(meta, "dst_host"),
            is_victim=self._column(meta, "is_victim"),
            lost_packets=self._column(meta, "lost_packets"),
            loss_rate=self._column(meta, "loss_rate"),
        )
        return Trace(columns=columns).freeze()

    def epochs(self) -> Iterator[Trace]:
        for index in range(len(self)):
            yield self.read_epoch(index)

    def close(self) -> None:
        try:
            self._map.close()
        except BufferError:
            # Zero-copy column views exported from the mmap are still alive;
            # the mapping is released when the last view is garbage-collected.
            pass
        self._file.close()

    def __enter__(self) -> "BinaryTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def is_binary_trace(path: str) -> bool:
    """True when ``path`` starts with the binary epoch store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def inspect_binary_trace(path: str) -> Dict[str, Any]:
    """Manifest-level summary (no column data is read)."""
    with BinaryTraceReader(path) as reader:
        manifest = reader.manifest
        epochs = manifest["epochs"]
        return {
            "path": path,
            "format": "binary",
            "version": manifest["version"],
            "epochs": len(epochs),
            "flows": manifest["totals"]["flows"],
            "packets": manifest["totals"]["packets"],
            "lost_packets": manifest["totals"]["lost_packets"],
            "victims": manifest["totals"]["victims"],
            "wide_epochs": sum(1 for epoch in epochs if epoch.get("wide")),
            "columns": dict(manifest["columns"]),
            "file_bytes": os.path.getsize(path),
        }
