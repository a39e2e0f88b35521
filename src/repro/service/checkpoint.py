"""Versioned on-disk service checkpoints (the ``.rtck`` format).

A checkpoint captures everything an always-on run needs to continue
bit-identically after an interruption: the engine's loop state (next epoch,
rolling F1/ARE windows, summary totals), the analysis-side system snapshot
(controller RNG and attention level, per-switch pending configurations and
epoch counters, the simulator's loss-substream epoch counter), the alert
rules' firing state, and each file sink's durable byte offset.

The container reuses the binary epoch store's packing idiom
(:mod:`repro.traffic.store`): a fixed little-endian header whose manifest
offset is back-patched after the payload, 64-byte-aligned raw column blobs
for the array-valued state (rolling windows, Mersenne-Twister words), and a
JSON manifest for everything else.  Layout::

    offset 0   magic  b"RTCK"
    offset 4   u16    format version (currently 1)
    offset 6   u16    reserved (0)
    offset 8   u64    manifest offset (bytes, little-endian)
    offset 16  u64    manifest length (bytes)
    offset 24  u32    CRC-32 of the manifest bytes (0 = unchecked legacy file)
    offset 64  state blobs, each aligned to 64 bytes
    ...        JSON manifest (UTF-8); ``payload_crc32`` covers bytes
               ``[64, manifest offset)`` so blob corruption cannot restore

Writes are atomic (temp file + fsync + ``os.replace``), so a crash during a
checkpoint leaves the previous checkpoint intact.  Truncated or corrupt
files fail fast with :class:`CheckpointError` before any state is touched:
the header checks catch structural damage, and the two CRC-32 sums catch
single-bit damage anywhere in the payload or manifest (a flipped bit in a
JSON digit would otherwise parse as valid-but-wrong state).
"""

from __future__ import annotations

import copy
import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

CHECKPOINT_MAGIC = b"RTCK"
CHECKPOINT_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sHHQQ")
_CRC_STRUCT = struct.Struct("<I")
_CRC_OFFSET = _HEADER_STRUCT.size
_DATA_START = 64
_ALIGN = 64

#: File extension convention for service checkpoints.
CHECKPOINT_EXTENSION = ".rtck"


class CheckpointError(ValueError):
    """The file is not a valid service checkpoint (bad magic, truncation, ...)."""


#: Array-valued state lifted out of the JSON manifest into aligned binary
#: blobs: ``(path into the state dict, dtype)``.  The RNG word arrays are the
#: Mersenne-Twister internals (624 32-bit words + an index, stored wide).
_BLOB_SPECS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("engine", "f1_window"), "<f8"),
    (("engine", "are_window"), "<f8"),
    (("system", "controller", "rng", "state"), "<u8"),
    (("system", "simulator", "rng", "state"), "<u8"),
)


def _dig(state: Dict[str, Any], path: Tuple[str, ...]) -> Optional[Dict[str, Any]]:
    """The dict holding ``path``'s leaf, or None when absent."""
    node: Any = state
    for key in path[:-1]:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if not isinstance(node, dict) or path[-1] not in node:
        return None
    return node


def write_checkpoint(path: str, state: Dict[str, Any]) -> None:
    """Atomically serialize a service state dict to ``path``.

    ``state`` must be JSON-able apart from the well-known array fields
    (rolling windows, RNG words), which are packed as aligned binary blobs.
    The input dict is not modified.
    """
    state = copy.deepcopy(state)
    blobs: List[Tuple[str, np.ndarray]] = []
    blob_meta: Dict[str, Dict[str, Any]] = {}
    for spec_path, dtype in _BLOB_SPECS:
        holder = _dig(state, spec_path)
        if holder is None:
            continue
        name = "/".join(spec_path)
        values = holder.pop(spec_path[-1])
        blobs.append((name, np.asarray(values, dtype=dtype)))
        blob_meta[name] = {"dtype": dtype, "count": len(values)}

    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(_HEADER_STRUCT.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0, 0, 0))
        handle.write(b"\0" * (_DATA_START - handle.tell()))
        payload_crc = 0
        for name, array in blobs:
            padding = (-handle.tell()) % _ALIGN
            if padding:
                handle.write(b"\0" * padding)
                payload_crc = zlib.crc32(b"\0" * padding, payload_crc)
            blob_meta[name]["offset"] = handle.tell()
            raw = np.ascontiguousarray(array).tobytes()
            handle.write(raw)
            payload_crc = zlib.crc32(raw, payload_crc)
        manifest = dict(state)
        manifest["version"] = CHECKPOINT_VERSION
        manifest["blobs"] = blob_meta
        manifest["payload_crc32"] = payload_crc
        encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
        manifest_offset = handle.tell()
        handle.write(encoded)
        handle.seek(0)
        handle.write(
            _HEADER_STRUCT.pack(
                CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0, manifest_offset, len(encoded)
            )
        )
        handle.write(_CRC_STRUCT.pack(zlib.crc32(encoded)))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    # Make the rename itself durable before reporting the checkpoint written.
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint; the exact inverse of :func:`write_checkpoint`."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint '{path}': {error}") from None
    if len(data) < _DATA_START:
        raise CheckpointError(f"checkpoint '{path}' is truncated ({len(data)} bytes)")
    magic, version, _, manifest_offset, manifest_length = _HEADER_STRUCT.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"'{path}' is not a service checkpoint (bad magic {magic!r})")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint '{path}' has format version {version}; this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    if manifest_offset + manifest_length > len(data) or manifest_offset < _DATA_START:
        raise CheckpointError(f"checkpoint '{path}' has a corrupt manifest location")
    encoded = data[manifest_offset : manifest_offset + manifest_length]
    (manifest_crc,) = _CRC_STRUCT.unpack_from(data, _CRC_OFFSET)
    if manifest_crc and zlib.crc32(encoded) != manifest_crc:
        raise CheckpointError(f"checkpoint '{path}' manifest checksum mismatch")
    try:
        manifest = json.loads(encoded)
    except ValueError as error:
        raise CheckpointError(f"checkpoint '{path}' manifest is corrupt: {error}") from None

    blob_meta = manifest.pop("blobs", {})
    manifest.pop("version", None)
    payload_crc = manifest.pop("payload_crc32", None)
    if payload_crc is not None and zlib.crc32(data[_DATA_START:manifest_offset]) != payload_crc:
        raise CheckpointError(f"checkpoint '{path}' payload checksum mismatch")
    for name, meta in blob_meta.items():
        spec_path = tuple(name.split("/"))
        itemsize = np.dtype(meta["dtype"]).itemsize
        start, end = meta["offset"], meta["offset"] + meta["count"] * itemsize
        if end > manifest_offset or start < _DATA_START:
            raise CheckpointError(f"checkpoint '{path}' blob '{name}' is out of bounds")
        values = np.frombuffer(data[start:end], dtype=meta["dtype"])
        holder = _dig_create(manifest, spec_path)
        holder[spec_path[-1]] = [
            float(v) if meta["dtype"] == "<f8" else int(v) for v in values
        ]
    return manifest


def _dig_create(state: Dict[str, Any], path: Tuple[str, ...]) -> Dict[str, Any]:
    node = state
    for key in path[:-1]:
        node = node.setdefault(key, {})
    return node


def inspect_checkpoint(path: str) -> Dict[str, Any]:
    """A human-oriented summary of a checkpoint (CLI ``serve --inspect``)."""
    state = read_checkpoint(path)
    meta = state.get("meta", {})
    engine = state.get("engine", {})
    return {
        "path": path,
        "next_epoch": engine.get("next_epoch"),
        "seed": meta.get("seed"),
        "written_at": meta.get("written_at"),
        "schedule_fingerprint": meta.get("schedule_fingerprint"),
        "epochs_recorded": engine.get("summary", {}).get("epochs"),
        "sinks": [
            {"kind": s.get("kind"), "path": s.get("path"), "offset": s.get("offset")}
            for s in state.get("sinks", [])
        ],
        "alerts_firing": [
            name
            for name, rule_state in (state.get("alerts") or {}).items()
            if rule_state.get("firing")
        ],
    }
