"""Upstream and downstream flow encoders — divided FermatSketches.

The upstream flow encoder of every edge switch is one ``d``-array FermatSketch
divided into three parts (HH, HL, LL encoders); the downstream flow encoder is
divided into two (HL, LL).  All switches use the same division and the same
hash seeds so that the controller can add same-named parts across switches and
subtract downstream from upstream (section 4.2, "Packet loss detection").

Because a part's hashes depend only on its name, size and the base seed, a
flow's extended ID and bucket indices in a part are the same at every switch
and on both sides: the downstream HL and LL parts have the upstream parts'
seeds and sizes.  :class:`PartHashes` computes them once per epoch for all
switches' flows, and :func:`encode_part` encodes any subset of those flows
into the switches' copies of the part in one scatter per array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..sketches.fermat import MERSENNE_PRIME_127, FermatSketch, insert_scattered
from ..sketches.hashing import KeyArray
from .config import EncoderLayout, SwitchResources

#: Seed offsets so that the three encoder parts use independent hash functions
#: while remaining identical across switches (required for add/subtract).
_PART_SEED_OFFSETS = {"hh": 101, "hl": 202, "ll": 303}


def _build_part(
    name: str,
    buckets: int,
    resources: SwitchResources,
    base_seed: int,
    prime: int,
) -> Optional[FermatSketch]:
    if buckets <= 0:
        return None
    return FermatSketch(
        buckets_per_array=buckets,
        num_arrays=resources.num_arrays,
        prime=prime,
        seed=base_seed + _PART_SEED_OFFSETS[name],
        fingerprint_bits=resources.fingerprint_bits,
    )


@dataclass
class EncoderParts:
    """The named FermatSketch parts of a flow encoder."""

    hh: Optional[FermatSketch] = None
    hl: Optional[FermatSketch] = None
    ll: Optional[FermatSketch] = None

    def part(self, name: str) -> Optional[FermatSketch]:
        return getattr(self, name)

    def memory_bytes(self) -> int:
        return sum(
            part.memory_bytes() for part in (self.hh, self.hl, self.ll) if part is not None
        )


class UpstreamFlowEncoder:
    """The ingress-side flow encoder (HH + HL + LL parts)."""

    def __init__(
        self,
        layout: EncoderLayout,
        resources: SwitchResources,
        base_seed: int = 0,
        prime: int = MERSENNE_PRIME_127,
    ) -> None:
        resources.validate_layout(layout)
        self.layout = layout
        self.resources = resources
        self.parts = EncoderParts(
            hh=_build_part("hh", layout.m_hh, resources, base_seed, prime),
            hl=_build_part("hl", layout.m_hl, resources, base_seed, prime),
            ll=_build_part("ll", layout.m_ll, resources, base_seed, prime),
        )

    def memory_bytes(self) -> int:
        return self.parts.memory_bytes()


class DownstreamFlowEncoder:
    """The egress-side flow encoder (HL + LL parts; HH packets use the HL part)."""

    def __init__(
        self,
        layout: EncoderLayout,
        resources: SwitchResources,
        base_seed: int = 0,
        prime: int = MERSENNE_PRIME_127,
    ) -> None:
        resources.validate_layout(layout)
        self.layout = layout
        self.resources = resources
        self.parts = EncoderParts(
            hh=None,
            hl=_build_part("hl", layout.m_hl, resources, base_seed, prime),
            ll=_build_part("ll", layout.m_ll, resources, base_seed, prime),
        )

    def memory_bytes(self) -> int:
        return self.parts.memory_bytes()


def accumulate_parts(parts: list[Optional[FermatSketch]]) -> Optional[FermatSketch]:
    """Sum a list of compatible FermatSketch parts (skipping Nones)."""
    present = [part for part in parts if part is not None]
    if not present:
        return None
    total = present[0].copy()
    for part in present[1:]:
        total.add(part)
    return total


@dataclass
class PartHashes:
    """One encoder part's hashes of a set of flows, shared by every switch.

    ``rows`` are the flows' positions in the epoch's batch (ascending),
    ``keys`` their fingerprint-extended IDs and ``indices[i]`` their buckets
    in array ``i``.  The extended IDs are checked against the prime only when
    they are encoded, so hashing a superset of the flows a part encodes
    raises nothing the encoding would not.
    """

    rows: np.ndarray
    keys: KeyArray
    indices: List[np.ndarray]

    @classmethod
    def of(cls, part: FermatSketch, flow_keys: KeyArray, rows: np.ndarray) -> "PartHashes":
        keys = part.extended_keys(flow_keys.take(rows))
        return cls(rows, keys, [h.hash_array(keys) for h in part._hashes])


def encode_part(
    parts: Sequence[FermatSketch],
    owner: np.ndarray,
    rows: np.ndarray,
    counts: np.ndarray,
    hashes: PartHashes,
) -> None:
    """Encode ``counts[k]`` packets of flow ``rows[k]`` into ``parts[owner[k]]``.

    ``parts`` are every switch's copy of one part (same hashes), and
    ``rows`` (ascending) must be among the flows ``hashes`` covers.
    """
    if rows.size == hashes.rows.size:
        at = slice(None)
        keys = hashes.keys
    else:
        at = np.searchsorted(hashes.rows, rows)
        keys = hashes.keys.take(at)
    insert_scattered(parts, owner, keys, [index[at] for index in hashes.indices], counts)
