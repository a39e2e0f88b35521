"""The per-bucket FermatSketch queue decoder, kept as the oracle.

``reference_decode_scalar`` is the scalar queue decoder as it stood before
``FermatSketch.decode_scalar`` moved onto Python lists: it pops one bucket at
a time off a FIFO queue, reads it through NumPy scalar indexing, recovers the
flow with Fermat's little theorem (``pow(count, p - 2, p)``), and writes every
peel straight into the sketch's arrays.  Both production decoders
(``decode_scalar`` and ``decode_vectorized``) are asserted bit-identical to it
in ``tests/test_decode_plane.py``, and ``benchmarks/test_decode_throughput.py``
times them against it.
"""

from collections import deque
from typing import Dict, Optional, Tuple

from repro.sketches.base import DecodeResult


def _split_extended(sketch, ext: int) -> Tuple[int, int]:
    bits = sketch.params.fingerprint_bits
    if not bits:
        return ext, 0
    return ext >> bits, ext & ((1 << bits) - 1)


def _pure_candidate(sketch, i: int, j: int) -> Optional[Tuple[int, int, int]]:
    """If bucket (i, j) passes pure-bucket verification, return its flow.

    Returns ``(extended_id, flow_id, count)`` or ``None``.  Verification
    combines rehashing (does the recovered ID map back to this bucket?) and
    the optional fingerprint check (appendix A.4).
    """
    count = int(sketch._counts[i][j])
    idsum = int(sketch._idsums[i][j])
    p = sketch.params.prime
    if count % p == 0:
        return None
    # Fermat's little theorem: f = IDsum * count^(p-2) mod p.
    ext = (idsum * pow(count % p, p - 2, p)) % p
    if sketch._hashes[i](ext) != j:
        return None
    flow_id, fp = _split_extended(sketch, ext)
    if sketch._fp_hash is not None and sketch._fp_hash(flow_id) != fp:
        return None
    return ext, flow_id, count


def reference_decode_scalar(sketch, max_iterations: Optional[int] = None) -> DecodeResult:
    """Decode ``sketch`` in place with the per-bucket scalar queue."""
    p = sketch.params.prime
    d = sketch.params.num_arrays
    queue: deque[Tuple[int, int]] = deque()
    queued = [[False] * sketch.params.buckets_per_array for _ in range(d)]
    for i in range(d):
        counts, idsums = sketch._counts[i], sketch._idsums[i]
        for j in range(sketch.params.buckets_per_array):
            if counts[j] != 0 or idsums[j] != 0:
                queue.append((i, j))
                queued[i][j] = True

    flows: Dict[int, int] = {}
    iterations = 0
    limit = max_iterations if max_iterations is not None else 64 * sketch.total_buckets()
    while queue and iterations < limit:
        iterations += 1
        i, j = queue.popleft()
        queued[i][j] = False
        candidate = _pure_candidate(sketch, i, j)
        if candidate is None:
            continue
        ext, flow_id, count = candidate
        flows[flow_id] = flows.get(flow_id, 0) + count
        if flows[flow_id] == 0:
            del flows[flow_id]
        delta = (ext * count) % p
        for i2, h in enumerate(sketch._hashes):
            j2 = h(ext)
            sketch._counts[i2][j2] -= count
            sketch._idsums[i2][j2] = (int(sketch._idsums[i2][j2]) - delta) % p
            if (sketch._counts[i2][j2] != 0 or sketch._idsums[i2][j2] != 0) and not queued[i2][j2]:
                queue.append((i2, j2))
                queued[i2][j2] = True

    remaining = sketch.nonzero_buckets()
    return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)
