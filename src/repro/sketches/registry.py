"""Config-driven sketch factory: one registry for every sketch in the repo.

Every algorithm the experiments compare — ChameleMon's Tower+Fermat
combination, the nine accumulation baselines of appendix C, and the three
loss-detection schemes of Figures 4-6 — is constructible from a single
string-keyed factory::

    from repro.sketches.registry import build, available

    sketch = build("tower_fermat", memory_bytes=100_000, seed=3)
    baseline = build("cm", memory_bytes=100_000, seed=3)

Builders are registered with :func:`register_sketch`; each accepts the common
``memory_bytes``/``seed`` pair plus scheme-specific keyword arguments (e.g.
``buckets_per_array`` for FermatSketch, ``num_cells`` for the IBF meters).
:func:`build` filters the keyword arguments down to what a builder's
signature accepts, so one configuration dictionary can drive a heterogeneous
set of sketches (the accumulation experiment passes ``hh_candidate_threshold``
to every algorithm; only Tower+Fermat consumes it).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional

#: Tower+Fermat promotion threshold when the caller does not derive one from
#: the workload (the paper sets T_h to the heavy-change threshold).
DEFAULT_THRESHOLD_FALLBACK = 250

#: Field widths of the CPU loss-detection evaluation (32-bit counts / IDs).
FERMAT_BUCKET_BYTES = 8

_BUILDERS: Dict[str, Callable[..., Any]] = {}


def register_sketch(name: str, *, replace: bool = False) -> Callable:
    """Register a sketch builder under ``name``.

    A builder is any callable ``builder(memory_bytes=..., seed=..., **kwargs)``
    returning a constructed sketch.
    """

    def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
        if name in _BUILDERS and not replace:
            raise ValueError(f"sketch '{name}' is already registered")
        _BUILDERS[name] = builder
        return builder

    return decorator


def available() -> list:
    """Sorted names of every registered sketch."""
    return sorted(_BUILDERS)


def is_registered(name: str) -> bool:
    return name in _BUILDERS


def build(name: str, *, memory_bytes: Optional[int] = None, seed: int = 0, **kwargs):
    """Construct the sketch registered as ``name``.

    Keyword arguments a builder's signature does not accept are dropped, so a
    single configuration can be applied across algorithms with different
    knobs.  Unknown names raise ``KeyError`` listing the registry contents;
    a given ``memory_bytes`` of 0 or less raises ``ValueError``.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sketch '{name}'; available: {', '.join(available())}"
        ) from None
    if memory_bytes is not None and memory_bytes <= 0:
        raise ValueError(f"sketch '{name}' needs a positive memory_bytes, got {memory_bytes}")
    if memory_bytes is None:
        # Builders whose memory_bytes parameter has no default require it;
        # the rest (fermat, flowradar, ...) accept alternate sizing kwargs
        # and raise their own descriptive errors when neither is given.
        parameter = inspect.signature(builder).parameters.get("memory_bytes")
        if parameter is not None and parameter.default is inspect.Parameter.empty:
            raise ValueError(f"sketch '{name}' requires memory_bytes")
    return builder(memory_bytes=memory_bytes, seed=seed, **_accepted(builder, kwargs))


def _accepted(builder: Callable, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    parameters = inspect.signature(builder).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return kwargs
    return {key: value for key, value in kwargs.items() if key in parameters}


# --------------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------------- #
@register_sketch("tower_fermat")
def _build_tower_fermat(
    memory_bytes: int,
    seed: int = 0,
    threshold: Optional[int] = None,
    hh_candidate_threshold: Optional[int] = None,
):
    from ..core.tower_fermat import TowerFermat

    promote_at = threshold or hh_candidate_threshold or DEFAULT_THRESHOLD_FALLBACK
    return TowerFermat.for_memory(memory_bytes, threshold=promote_at, seed=seed)


@register_sketch("cm")
def _build_cm(memory_bytes: int, seed: int = 0, depth: int = 3):
    from .cm import CountMinSketch

    return CountMinSketch.for_memory(memory_bytes, depth=depth, seed=seed)


@register_sketch("cu")
def _build_cu(memory_bytes: int, seed: int = 0, depth: int = 3):
    from .cm import CUSketch

    return CUSketch.for_memory(memory_bytes, depth=depth, seed=seed)


@register_sketch("countsketch")
def _build_countsketch(memory_bytes: int, seed: int = 0, depth: int = 3):
    from .countsketch import CountSketch

    return CountSketch.for_memory(memory_bytes, depth=depth, seed=seed)


@register_sketch("countheap")
def _build_countheap(memory_bytes: int, seed: int = 0):
    from .countsketch import CountHeap

    return CountHeap.for_memory(memory_bytes, seed=seed)


@register_sketch("univmon")
def _build_univmon(memory_bytes: int, seed: int = 0):
    from .univmon import UnivMon

    return UnivMon.for_memory(memory_bytes, seed=seed)


@register_sketch("elastic")
def _build_elastic(memory_bytes: int, seed: int = 0):
    from .elastic import ElasticSketch

    return ElasticSketch.for_memory(memory_bytes, seed=seed)


@register_sketch("fcm")
def _build_fcm(memory_bytes: int, seed: int = 0):
    from .fcm import FCMSketch

    return FCMSketch.for_memory(memory_bytes, seed=seed)


@register_sketch("hashpipe")
def _build_hashpipe(memory_bytes: int, seed: int = 0):
    from .hashpipe import HashPipe

    return HashPipe.for_memory(memory_bytes, seed=seed)


@register_sketch("coco")
def _build_coco(memory_bytes: int, seed: int = 0):
    from .coco import CocoSketch

    return CocoSketch.for_memory(memory_bytes, seed=seed)


@register_sketch("mrac")
def _build_mrac(memory_bytes: int, seed: int = 0):
    # MRAC is a single hashed 32-bit counter array plus EM post-processing.
    from .cm import CountMinSketch

    return CountMinSketch.for_memory(memory_bytes, depth=1, seed=seed)


@register_sketch("tower")
def _build_tower(memory_bytes: Optional[int] = None, seed: int = 0, levels=None):
    from .tower import TowerSketch

    if levels is not None:
        return TowerSketch(levels, seed=seed)
    if memory_bytes is None:
        raise ValueError("tower needs memory_bytes or an explicit levels list")
    # Half the memory as 8-bit counters, half as 16-bit counters (the paper's
    # equal-memory-per-level deployment shape).
    return TowerSketch(
        [(8, max(1, memory_bytes // 2)), (16, max(1, memory_bytes // 4))], seed=seed
    )


@register_sketch("bloom")
def _build_bloom(memory_bytes: int, seed: int = 0, num_hashes: int = 10):
    from .bloom import BloomFilter

    return BloomFilter(max(8, memory_bytes * 8), num_hashes=num_hashes, seed=seed)


@register_sketch("fermat")
def _build_fermat(
    memory_bytes: Optional[int] = None,
    seed: int = 0,
    buckets_per_array: Optional[int] = None,
    num_arrays: int = 3,
    fingerprint_bits: int = 0,
):
    from .fermat import FermatSketch

    if buckets_per_array is None:
        if memory_bytes is None:
            raise ValueError("fermat needs memory_bytes or buckets_per_array")
        buckets_per_array = max(1, memory_bytes // (num_arrays * FERMAT_BUCKET_BYTES))
    return FermatSketch(
        buckets_per_array,
        num_arrays=num_arrays,
        seed=seed,
        fingerprint_bits=fingerprint_bits,
    )


@register_sketch("flowradar")
def _build_flowradar(
    memory_bytes: Optional[int] = None, seed: int = 0, num_cells: Optional[int] = None
):
    from .flowradar import FlowRadar

    if num_cells is not None:
        return FlowRadar(num_cells, seed=seed)
    if memory_bytes is None:
        raise ValueError("flowradar needs memory_bytes or num_cells")
    return FlowRadar.for_memory(memory_bytes, seed=seed)


@register_sketch("lossradar")
def _build_lossradar(
    memory_bytes: Optional[int] = None, seed: int = 0, num_cells: Optional[int] = None
):
    from .lossradar import LossRadar

    if num_cells is not None:
        return LossRadar(num_cells, seed=seed)
    if memory_bytes is None:
        raise ValueError("lossradar needs memory_bytes or num_cells")
    return LossRadar.for_memory(memory_bytes, seed=seed)
