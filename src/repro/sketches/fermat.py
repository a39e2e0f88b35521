"""FermatSketch — the key technique of ChameleMon (paper section 3.1).

FermatSketch is an invertible sketch built from ``d`` equal-sized bucket
arrays.  Every bucket holds two fields:

* a **count** field — number of packets mapped into the bucket, and
* an **IDsum** field — the sum of the flow IDs of those packets *modulo a
  prime* ``p``.

Because the IDsum field aggregates flow IDs with modular addition rather than
XOR, two lost packets of the same flow do not cancel out, so the sketch can
aggregate *per-flow* losses.  Fermat's little theorem is what makes a bucket
that holds a single flow recoverable: if bucket ``B`` is *pure* then
``IDsum = count * f (mod p)`` and therefore ``f = IDsum * count^(p-2) (mod p)``.
The decoders compute ``count^(-1)`` by extended Euclid (``pow(count, -1, p)``),
which for a prime ``p`` is the same residue as ``count^(p-2)``.  There are two
decoders: the scalar queue (:meth:`FermatSketch.decode_scalar`), which decodes
every prime, and the NumPy frontier (:meth:`FermatSketch.decode_vectorized`,
the default), which peels Mersenne primes below ``2**62`` (uint64 residues) a
round at a time and hands its tail, and every other prime, to the queue.

The sketch is

* **dividable** — a contiguous slice of the bucket arrays is itself a valid
  FermatSketch (ChameleMon carves HH/HL/LL encoders out of one array),
* **additive** and **subtractive** — two sketches with identical parameters
  can be added or subtracted bucket-wise, which is how ChameleMon computes the
  set of victim flows (upstream minus downstream), and
* **decodable** — a peeling process (identical in structure to IBLT decoding /
  2-core removal on a random hypergraph) recovers every inserted flow and its
  exact size with high probability as long as the load factor stays below
  roughly ``1 / c_d`` (≈ 81.3 % for ``d = 3``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .base import DecodeResult, InvertibleSketch
from .hashing import (
    HashFamily,
    KeyArray,
    PairwiseHash,
    fold_limb_sums_mod_mersenne,
    mersenne_exponent,
    modmul_array,
    modmul_mersenne_u64,
)

# Primes used as the Fermat modulus.  The modulus must exceed every flow ID
# (including the fingerprint extension) and every flow size inserted.
MERSENNE_PRIME_61 = (1 << 61) - 1
MERSENNE_PRIME_89 = (1 << 89) - 1
MERSENNE_PRIME_127 = (1 << 127) - 1

#: Default number of bucket arrays; the paper recommends 3 for the highest
#: memory efficiency (c_3 = 1.23 buckets per flow).
DEFAULT_NUM_ARRAYS = 3

#: Below this many candidate buckets a frontier round is all fixed NumPy
#: overhead (a few hundred kernel launches regardless of batch size), so the
#: vectorized decoder hands the remaining (small or rarely contended) tail to
#: the scalar queue decoder instead.
SCALAR_TAIL_BUCKETS = 512

#: When a frontier round peels fewer than 1/16 of its candidate buckets the
#: decode is trickling (a contended, usually overloaded sketch): rescanning
#: the whole frontier every round would degrade to O(buckets^2), while the
#: scalar queue only revisits buckets a peel actually touched.
SCALAR_TAIL_PEEL_FRACTION = 16

#: Number of *consecutive* trickling rounds tolerated before handing the
#: decode to the scalar queue.  Overloaded sketches usually reach a fixpoint
#: (zero verified peels — no scalar pass needed at all) within a round or
#: two of trickling; only a sustained trickle is worth the switch.
SCALAR_TAIL_TRICKLE_ROUNDS = 3

#: Default pop budget of a decode, in pops per bucket.  A decodable sketch
#: drains in far fewer; a failing one pops until the budget runs out, so the
#: budget sets what a failed decode costs.  On fig10's decodes at 1.23
#: buckets per flow, 4 pops per bucket already gives the same ``success`` as
#: 64 (2 does not); 8 does on every decode of the benchmark workloads' first
#: 24 epochs.
DECODE_POPS_PER_BUCKET = 8

#: Field widths used by the paper's CPU evaluation (32-bit count, 32-bit ID).
DEFAULT_BUCKET_BYTES = 8


def _merge_flows(flows: Dict[int, int], items: Iterable[Tuple[int, int]]) -> None:
    """Accumulate (flow, count) pairs into ``flows``, dropping zero totals."""
    for flow_id, count in items:
        merged = flows.get(flow_id, 0) + count
        if merged:
            flows[flow_id] = merged
        else:
            flows.pop(flow_id, None)


def peeling_threshold(d: int, samples: int = 4096) -> float:
    """Return ``c_d``, the minimum average buckets-per-flow for decodability.

    ``c_d`` is defined in Theorem 3.1 of the paper as the inverse of the
    supremum load factor ``alpha`` such that ``1 - exp(-d * alpha * x^(d-1)) < x``
    for every ``x`` in (0, 1).  This is the classic 2-core threshold of random
    ``d``-uniform hypergraphs.  The value is computed numerically; for the
    paper's parameters it evaluates to c_3 ≈ 1.222, c_4 ≈ 1.295, c_5 ≈ 1.425.
    """
    if d < 2:
        raise ValueError("peeling requires at least 2 bucket arrays")
    if d == 2:
        # The 2-core threshold of random 2-uniform hypergraphs (graphs) is at
        # average degree 1, i.e. alpha = 0.5 -> c_2 = 2.0.
        return 2.0

    def feasible(alpha: float) -> bool:
        for i in range(1, samples):
            x = i / samples
            if 1.0 - math.exp(-d * alpha * (x ** (d - 1))) >= x:
                return False
        return True

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        raise RuntimeError("failed to compute peeling threshold")
    return 1.0 / lo


@dataclass(frozen=True)
class FermatParams:
    """Structural parameters shared by compatible FermatSketches."""

    num_arrays: int
    buckets_per_array: int
    prime: int
    seed: int
    fingerprint_bits: int = 0
    count_bytes: int = 4
    id_bytes: int = 4

    def bucket_bytes(self) -> int:
        fp_bytes = (self.fingerprint_bits + 7) // 8
        return self.count_bytes + self.id_bytes + fp_bytes

    def total_buckets(self) -> int:
        return self.num_arrays * self.buckets_per_array


class FermatSketch(InvertibleSketch):
    """The FermatSketch data structure (encode / decode / add / subtract).

    Parameters
    ----------
    buckets_per_array:
        ``m`` — number of buckets in each of the ``num_arrays`` arrays.
    num_arrays:
        ``d`` — number of bucket arrays (3 recommended).
    prime:
        Fermat modulus ``p``.  Must be a prime strictly larger than every flow
        ID (after fingerprint extension) and every per-flow packet count.
    seed:
        Hash seed.  Sketches that must be added/subtracted/compared must share
        the same seed, prime, and geometry.
    fingerprint_bits:
        Optional extra verification bits appended to each flow ID before
        encoding (paper appendix A.4).  0 disables fingerprints.
    """

    def __init__(
        self,
        buckets_per_array: int,
        num_arrays: int = DEFAULT_NUM_ARRAYS,
        prime: int = MERSENNE_PRIME_61,
        seed: int = 0,
        fingerprint_bits: int = 0,
        count_bytes: int = 4,
        id_bytes: int = 4,
    ) -> None:
        if buckets_per_array <= 0:
            raise ValueError("buckets_per_array must be positive")
        if num_arrays < 2:
            raise ValueError("FermatSketch needs at least 2 bucket arrays")
        if prime <= 2:
            raise ValueError("prime must be a prime larger than 2")
        if fingerprint_bits < 0:
            raise ValueError("fingerprint_bits must be non-negative")
        self.params = FermatParams(
            num_arrays=num_arrays,
            buckets_per_array=buckets_per_array,
            prime=prime,
            seed=seed,
            fingerprint_bits=fingerprint_bits,
            count_bytes=count_bytes,
            id_bytes=id_bytes,
        )
        family = HashFamily(seed)
        self._hashes: List[PairwiseHash] = family.draw_many(num_arrays, buckets_per_array)
        self._fp_hash: Optional[PairwiseHash] = None
        if fingerprint_bits:
            self._fp_hash = family.draw(1 << fingerprint_bits)
        # Counts are int64 NumPy arrays (they go negative after subtraction).
        # IDsums hold residues in [0, prime): for primes below 2**62 the sum
        # of two residues fits uint64, so a plain uint64 array works; wider
        # primes (e.g. 2**127 - 1) fall back to object-dtype Python ints.
        self._counts: List[np.ndarray] = [
            np.zeros(buckets_per_array, dtype=np.int64) for _ in range(num_arrays)
        ]
        idsum_dtype = np.uint64 if prime < (1 << 62) else object
        self._idsums: List[np.ndarray] = [
            np.zeros(buckets_per_array, dtype=idsum_dtype) for _ in range(num_arrays)
        ]

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_flow_count(
        cls,
        expected_flows: int,
        num_arrays: int = DEFAULT_NUM_ARRAYS,
        load_factor: float = 0.70,
        **kwargs,
    ) -> "FermatSketch":
        """Size a sketch for ``expected_flows`` at a target load factor.

        Load factor is the ratio of recorded flows to total buckets; the paper
        targets 70 % (the decodability limit for d = 3 is ≈ 81.3 %).
        """
        if expected_flows <= 0:
            raise ValueError("expected_flows must be positive")
        if not 0 < load_factor < 1:
            raise ValueError("load_factor must be in (0, 1)")
        total = max(num_arrays, math.ceil(expected_flows / load_factor))
        per_array = max(1, math.ceil(total / num_arrays))
        return cls(per_array, num_arrays=num_arrays, **kwargs)

    def empty_like(self) -> "FermatSketch":
        """Return an empty sketch with identical parameters (and hashes)."""
        return FermatSketch(
            self.params.buckets_per_array,
            num_arrays=self.params.num_arrays,
            prime=self.params.prime,
            seed=self.params.seed,
            fingerprint_bits=self.params.fingerprint_bits,
            count_bytes=self.params.count_bytes,
            id_bytes=self.params.id_bytes,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_arrays(self) -> int:
        return self.params.num_arrays

    @property
    def buckets_per_array(self) -> int:
        return self.params.buckets_per_array

    @property
    def prime(self) -> int:
        return self.params.prime

    def memory_bytes(self) -> int:
        return self.params.total_buckets() * self.params.bucket_bytes()

    def total_buckets(self) -> int:
        return self.params.total_buckets()

    def is_empty(self) -> bool:
        """True when every bucket is zero (counts and IDsums)."""
        return self.nonzero_buckets() == 0

    def nonzero_buckets(self) -> int:
        """Number of buckets with a non-zero count or IDsum."""
        total = 0
        for counts, idsums in zip(self._counts, self._idsums):
            nonzero = (counts != 0) | (idsums != 0).astype(bool)
            total += int(np.count_nonzero(nonzero))
        return total

    def compatible_with(self, other: "FermatSketch") -> bool:
        """True when ``other`` can be added to / subtracted from this sketch."""
        return isinstance(other, FermatSketch) and self.params == other.params

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def _extended_id(self, flow_id: int) -> int:
        if flow_id < 0:
            raise ValueError("flow IDs must be non-negative integers")
        if self._fp_hash is None:
            ext = flow_id
        else:
            ext = (flow_id << self.params.fingerprint_bits) | self._fp_hash(flow_id)
        if ext >= self.params.prime:
            raise ValueError(
                "flow ID (after fingerprint extension) must be smaller than the "
                "Fermat prime; use a larger prime"
            )
        return ext

    def insert(self, flow_id: int, count: int = 1) -> None:
        """Encode ``count`` packets of flow ``flow_id`` (Algorithm 1)."""
        if count == 0:
            return
        ext = self._extended_id(flow_id)
        p = self.params.prime
        delta = (ext * count) % p
        for i, h in enumerate(self._hashes):
            j = h(ext)
            self._counts[i][j] += count
            self._idsums[i][j] = (int(self._idsums[i][j]) + delta) % p

    def extended_keys(
        self, flow_ids: Union[Sequence[int], np.ndarray, KeyArray]
    ) -> KeyArray:
        """Fingerprint-extend a batch of flow IDs into a shared :class:`KeyArray`.

        The extended IDs are not checked against the prime here: the batch
        encoder (:func:`insert_scattered`) checks exactly the IDs it encodes.
        """
        id_keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
        if self._fp_hash is None:
            return id_keys
        bits = self.params.fingerprint_bits
        fingerprints = self._fp_hash.hash_array(id_keys)
        if id_keys.limbs.shape[0] * 32 + bits <= 63:
            # Single-limb IDs (the guard rules out wider ones): the
            # extension fits uint64 and stays vectorized.
            return KeyArray(
                (id_keys.limbs[0] << np.uint64(bits)) | fingerprints.astype(np.uint64)
            )
        ids = np.array(id_keys.ints(), dtype=object)
        return KeyArray((ids << bits) | fingerprints.astype(object))

    def insert_batch(
        self,
        flow_ids: Union[Sequence[int], np.ndarray],
        counts: Union[Sequence[int], np.ndarray],
    ) -> None:
        """Vectorized bulk insert — bit-identical state to scalar inserts.

        The one-sketch case of :func:`insert_scattered`.
        """
        counts = np.asarray(counts, dtype=np.int64)
        keys = self.extended_keys(flow_ids)
        if counts.shape != (keys.size,):
            raise ValueError("flow_ids and counts must have the same length")
        indices = [h.hash_array(keys) for h in self._hashes]
        insert_scattered([self], np.zeros(keys.size, dtype=np.int64), keys, indices, counts)

    def remove(self, flow_id: int, count: int = 1) -> None:
        """Remove ``count`` packets of flow ``flow_id`` (inverse of insert)."""
        self.insert(flow_id, -count)

    # ------------------------------------------------------------------ #
    # addition / subtraction
    # ------------------------------------------------------------------ #
    def add(self, other: "FermatSketch") -> "FermatSketch":
        """In-place bucket-wise addition of ``other`` into this sketch."""
        self._require_compatible(other)
        p = self.params.prime
        for i in range(self.params.num_arrays):
            self._counts[i] += other._counts[i]
            self._idsums[i] = (self._idsums[i] + other._idsums[i]) % p
        return self

    def subtract(self, other: "FermatSketch") -> "FermatSketch":
        """In-place bucket-wise subtraction of ``other`` from this sketch."""
        self._require_compatible(other)
        p = self.params.prime
        for i in range(self.params.num_arrays):
            self._counts[i] -= other._counts[i]
            # ``a - b`` would underflow uint64 storage; ``a + (p - b)`` is the
            # same residue and stays within [0, 2p).
            self._idsums[i] = (self._idsums[i] + (p - other._idsums[i])) % p
        return self

    def __add__(self, other: "FermatSketch") -> "FermatSketch":
        return self.copy().add(other)

    def __sub__(self, other: "FermatSketch") -> "FermatSketch":
        return self.copy().subtract(other)

    def copy(self) -> "FermatSketch":
        clone = self.empty_like()
        clone._counts = [row.copy() for row in self._counts]
        clone._idsums = [row.copy() for row in self._idsums]
        return clone

    def _require_compatible(self, other: "FermatSketch") -> None:
        if not self.compatible_with(other):
            raise ValueError(
                "FermatSketches must share num_arrays, buckets_per_array, prime, "
                "seed, and fingerprint configuration to be combined"
            )

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def decode(self, max_iterations: Optional[int] = None) -> DecodeResult:
        """Recover every encoded flow and its size (Algorithm 2).

        The decoding peels pure buckets repeatedly.  It succeeds when the
        sketch is fully drained; otherwise ``success`` is ``False`` and
        ``remaining`` reports how many non-empty buckets are left.  Flows that
        were inserted and later fully removed do not appear in the result.

        Runs :meth:`decode_vectorized`, which peels Mersenne primes below
        ``2**62`` in NumPy frontier rounds and every other prime on the scalar
        queue (:meth:`decode_scalar`).  Both produce the same recovered flows,
        ``success``, ``remaining``, and residual bucket state.

        An explicit ``max_iterations`` asks for the queue's pop-bounded
        stopping behavior (the frontier counts peeled flows per round, not
        bucket pops), so it always runs the scalar queue.
        """
        if max_iterations is None:
            return self.decode_vectorized()
        return self.decode_scalar(max_iterations)

    def decode_scalar(self, max_iterations: Optional[int] = None) -> DecodeResult:
        """The scalar queue decoder: one bucket at a time, in FIFO order.

        Every non-empty bucket is queued in (array, bucket) order.  Each pop
        recovers the bucket's candidate flow as ``IDsum * count^(-1) mod p``,
        verifies it by rehash and fingerprint, and on success peels the flow
        from its ``d`` buckets and queues those left non-empty.  Decoding stops
        when the queue drains or after ``max_iterations`` pops (default
        :data:`DECODE_POPS_PER_BUCKET` per bucket).  The peel runs on plain Python lists —
        each row is read once with ``tolist()`` and written back once at the
        end — with the pairwise hashes evaluated inline from their
        coefficients.  Used directly for non-Mersenne primes, primes at or
        above ``2**62`` and pop budgets, and for the tail of a frontier decode.
        """
        p = self.params.prime
        bits = self.params.fingerprint_bits
        fp_mask = (1 << bits) - 1
        coefficients = [(h.a, h.b, h.prime, h.range_size) for h in self._hashes]
        fp_hash = self._fp_hash
        if fp_hash is not None:
            fa, fb, fprime, frange = fp_hash.a, fp_hash.b, fp_hash.prime, fp_hash.range_size
        counts = [row.tolist() for row in self._counts]
        idsums = [row.tolist() for row in self._idsums]
        queue: deque[Tuple[int, int]] = deque()
        queued = [[False] * self.params.buckets_per_array for _ in counts]
        for i, (count_row, idsum_row) in enumerate(zip(self._counts, self._idsums)):
            nonzero = np.flatnonzero((count_row != 0) | (idsum_row != 0).astype(bool))
            flags = queued[i]
            for j in nonzero.tolist():
                queue.append((i, j))
                flags[j] = True

        flows: Dict[int, int] = {}
        iterations = 0
        limit = (
            max_iterations
            if max_iterations is not None
            else DECODE_POPS_PER_BUCKET * self.total_buckets()
        )
        while queue and iterations < limit:
            iterations += 1
            i, j = queue.popleft()
            queued[i][j] = False
            count = counts[i][j]
            residue = count % p
            if not residue:
                continue
            # Fermat's little theorem; pow(c, -1, p) is the same residue as
            # c^(p-2) mod p, computed by extended Euclid.
            ext = idsums[i][j] * pow(residue, -1, p) % p
            a, b, prime, size = coefficients[i]
            if (a * ext + b) % prime % size != j:
                continue
            flow_id = ext >> bits
            if fp_hash is not None and (fa * flow_id + fb) % fprime % frange != ext & fp_mask:
                continue
            merged = flows.get(flow_id, 0) + count
            if merged:
                flows[flow_id] = merged
            else:
                del flows[flow_id]
            delta = ext * count % p
            for i2, (a, b, prime, size) in enumerate(coefficients):
                j2 = (a * ext + b) % prime % size
                count_row, idsum_row = counts[i2], idsums[i2]
                left = count_row[j2] - count
                count_row[j2] = left
                idsum = (idsum_row[j2] - delta) % p
                idsum_row[j2] = idsum
                if (left or idsum) and not queued[i2][j2]:
                    queue.append((i2, j2))
                    queued[i2][j2] = True

        # In place, so each row keeps its dtype (int64 counts; uint64 or
        # object IDsums).
        for row, values in zip(self._counts, counts):
            row[:] = values
        for row, values in zip(self._idsums, idsums):
            row[:] = values
        remaining = self.nonzero_buckets()
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    # ------------------------------------------------------------------ #
    # vectorized (frontier) decoding
    # ------------------------------------------------------------------ #
    def decode_vectorized(self, max_iterations: Optional[int] = None) -> DecodeResult:
        """Frontier-based NumPy peeling — same results as :meth:`decode_scalar`.

        For Mersenne primes below ``2**62`` (uint64 residues), each round (1)
        collects every candidate bucket at once, (2) recovers the extended
        IDs of the whole frontier in batch — ``count^(-1) mod p`` by extended
        Euclid on unique counts — (3) verifies rehash and fingerprint with the
        vectorized hash path, and (4) subtracts all verified peels with
        duplicate-safe scatters.  Rounds repeat until no bucket verifies; a
        frontier of at most :data:`SCALAR_TAIL_BUCKETS` candidates is handed
        to the scalar queue decoder (per-round NumPy overhead would
        dominate).  Every other prime runs on the scalar queue entirely: on
        the wide primes' object-dtype residues a frontier round is no faster
        than the queue, so their flows come back in the queue's order.

        Caveat: on a *fingerprintless* sketch loaded beyond the peeling
        threshold, rehash-only pure-bucket verification admits rare false
        positives, and which ones fire depends on the peel schedule — any two
        valid schedules (including two different queue disciplines) can then
        diverge in the garbage they recover or in whether the decode stalls.
        Fingerprints (appendix A.4) suppress those false positives, and on
        decodable states every schedule recovers the same true flow set.
        """
        p = self.params.prime
        exponent = mersenne_exponent(p)
        if exponent is None or exponent > 61:
            return self.decode_scalar(max_iterations)
        limit = (
            max_iterations
            if max_iterations is not None
            else DECODE_POPS_PER_BUCKET * self.total_buckets()
        )
        flows: Dict[int, int] = {}
        # Count values repeat heavily within and across rounds (loss counts
        # are small integers), so Fermat inverses are cached per decode.
        inverse_cache: Dict[int, int] = {}
        peels = 0
        trickle_streak = 0

        def finish_on_scalar_queue() -> DecodeResult:
            tail = self.decode_scalar(max(limit - peels, 1))
            _merge_flows(flows, tail.flows.items())
            return DecodeResult(
                flows=flows, success=tail.success, remaining=tail.remaining
            )

        while True:
            candidates = [np.nonzero(counts % p != 0)[0] for counts in self._counts]
            total = sum(int(j.size) for j in candidates)
            if total == 0:
                break
            if total <= SCALAR_TAIL_BUCKETS or peels >= limit:
                return finish_on_scalar_queue()
            peeled = self._peel_frontier_u64(candidates, exponent, inverse_cache)
            if not peeled:
                break
            _merge_flows(flows, peeled)
            peels += len(peeled)
            if len(peeled) * SCALAR_TAIL_PEEL_FRACTION < total:
                trickle_streak += 1
                if trickle_streak >= SCALAR_TAIL_TRICKLE_ROUNDS:
                    # Sustained trickle: finish on the scalar queue decoder.
                    return finish_on_scalar_queue()
            else:
                trickle_streak = 0
        remaining = self.nonzero_buckets()
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    def _invert_counts_u64(self, unique: np.ndarray, cache: Dict[int, int]) -> np.ndarray:
        """Inverses of unique count residues by extended Euclid, cached across rounds."""
        p = self.params.prime
        unique_list = unique.tolist()
        cache.update((c, pow(c, -1, p)) for c in unique_list if c not in cache)
        return np.fromiter(
            (cache[c] for c in unique_list), dtype=np.uint64, count=len(unique_list)
        )

    def _peel_frontier_u64(
        self, candidates: List[np.ndarray], exponent: int, cache: Dict[int, int]
    ) -> List[Tuple[int, int]]:
        """One frontier round for primes below ``2**62`` (uint64 residues)."""
        p = self.params.prime
        bits = self.params.fingerprint_bits
        exts: List[np.ndarray] = []
        raws: List[np.ndarray] = []
        for i, j in enumerate(candidates):
            if j.size == 0:
                continue
            raw = self._counts[i][j]
            cmod = (raw % p).astype(np.uint64)
            nonzero = cmod != 0  # counts that are non-zero multiples of p
            if not nonzero.all():
                j, raw, cmod = j[nonzero], raw[nonzero], cmod[nonzero]
                if j.size == 0:
                    continue
            # Invert *unique* counts only: loss counts repeat heavily, so this
            # collapses the inversion work per round.
            unique, inverse_index = np.unique(cmod, return_inverse=True)
            inverses = self._invert_counts_u64(unique, cache)[inverse_index]
            ext = modmul_mersenne_u64(self._idsums[i][j], inverses, exponent)
            # Pure-bucket verification: rehash plus optional fingerprint.
            ok = self._hashes[i].hash_array(KeyArray(ext)) == j
            if bits:
                fp = self._fp_hash.hash_array(ext >> np.uint64(bits)).astype(np.uint64)
                ok &= fp == (ext & np.uint64((1 << bits) - 1))
            if ok.any():
                exts.append(ext[ok])
                raws.append(raw[ok])
        if not exts:
            return []
        ext_all = np.concatenate(exts)
        raw_all = np.concatenate(raws)
        # The same flow can be pure in several buckets at once; peel it once
        # (the scalar queue sees the later duplicates as already-empty).
        _, first = np.unique(ext_all, return_index=True)
        order = np.sort(first)
        ext_u, count_u = ext_all[order], raw_all[order]
        keys = KeyArray(ext_u)
        delta = modmul_mersenne_u64(ext_u, (count_u % p).astype(np.uint64), exponent)
        # Subtract as the congruent addition of (p - delta): uint64-safe.
        neg = np.where(delta == 0, np.uint64(0), p - delta)
        limb_mask = np.uint64(0xFFFFFFFF)
        buckets = self.params.buckets_per_array
        # Residues below 2**32 fit a single limb row (and the limb folder's
        # two-row branch requires e >= 32).
        limb_rows = 2 if exponent > 32 else 1
        for i2, h in enumerate(self._hashes):
            indices = h.hash_array(keys)
            np.subtract.at(self._counts[i2], indices, count_u)
            accumulator = np.zeros((limb_rows, buckets), dtype=np.uint64)
            np.add.at(accumulator[0], indices, neg & limb_mask)
            if limb_rows == 2:
                np.add.at(accumulator[1], indices, neg >> np.uint64(32))
            folded = fold_limb_sums_mod_mersenne(accumulator, exponent)
            self._idsums[i2] = (self._idsums[i2] + folded) % p
        flow_ids = (ext_u >> np.uint64(bits)) if bits else ext_u
        return list(zip(flow_ids.tolist(), count_u.tolist()))

    def decode_nondestructive(self) -> DecodeResult:
        """Decode a copy, leaving this sketch untouched."""
        return self.copy().decode()

    def load_factor(self, recorded_flows: int) -> float:
        """Load factor = recorded flows / total buckets."""
        return recorded_flows / self.total_buckets()

    def bucket(self, i: int, j: int) -> Tuple[int, int]:
        """Return the (count, IDsum) pair of bucket ``j`` of array ``i``."""
        return int(self._counts[i][j]), int(self._idsums[i][j])

    def counts_array(self, i: int) -> np.ndarray:
        """A copy of array ``i``'s per-bucket counts (for load estimation)."""
        return self._counts[i].copy()


#: IDsum limb sums are folded for at most this many buckets at a time (or one
#: sketch's, when larger), which bounds the folding temporaries when many
#: sketches are encoded together.
_FOLD_BUCKETS = 1 << 13


def insert_scattered(
    sketches: Sequence[FermatSketch],
    owner: np.ndarray,
    keys: KeyArray,
    indices: Sequence[np.ndarray],
    counts: np.ndarray,
) -> None:
    """Encode ``counts[r]`` packets of extended ID ``keys[r]`` into ``sketches[owner[r]]``.

    The batch encoder of every FermatSketch.  The sketches must share their
    parameters (hashes, prime, geometry); ``indices[i][r]`` is row ``r``'s
    bucket in array ``i``.  Each array takes one scatter-add of the counts
    and one per IDsum limb over ``owner * m + bucket``; the IDsum deltas
    ``(ext * count) mod p`` are computed limb-wise, and the limb sums are
    reduced and merged into each sketch's IDsums once.  Sums of residues are
    congruent to the per-insert reduction, so the stored residues match
    scalar :meth:`FermatSketch.insert` calls exactly, in any order.  Raises
    ``ValueError`` before any update when an extended ID is not below the
    prime.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return
    params = sketches[0].params
    p = params.prime
    if keys.limbs.shape[0] * 32 >= p.bit_length() and keys.max_int() >= p:
        raise ValueError(
            "flow ID (after fingerprint extension) must be smaller than the "
            "Fermat prime; use a larger prime"
        )
    exponent = mersenne_exponent(p)
    if counts.min() >= 0 and counts.max() < (1 << 31):
        delta_limbs = modmul_array(keys, counts.astype(np.uint64), p)
    else:
        delta_limbs = None
    if delta_limbs is None:
        # Negative counts or a non-Mersenne prime: per-element fallback
        # (works for both uint64 and object IDsum storage).
        deltas = [(ext * count) % p for ext, count in zip(keys.ints(), counts.tolist())]
        owners = owner.tolist()
    num = len(sketches)
    m = params.buckets_per_array
    touched = np.flatnonzero(np.bincount(owner, minlength=num)).tolist()
    step = max(1, _FOLD_BUCKETS // m)
    chunks = [
        [s for s in touched if start <= s < start + step] for start in range(0, num, step)
    ]
    base = owner * m
    for i, bucket in enumerate(indices):
        flat = base + bucket
        count_sums = np.zeros(num * m, dtype=np.int64)
        np.add.at(count_sums, flat, counts)
        for s in touched:
            sketches[s]._counts[i] += count_sums[s * m:(s + 1) * m]
        if delta_limbs is None:
            for s, j, delta in zip(owners, bucket.tolist(), deltas):
                idsums = sketches[s]._idsums[i]
                idsums[j] = (int(idsums[j]) + delta) % p
            continue
        limb_sums = np.zeros((delta_limbs.shape[0], num * m), dtype=np.uint64)
        for limb in range(delta_limbs.shape[0]):
            np.add.at(limb_sums[limb], flat, delta_limbs[limb])
        narrow = exponent is not None and sketches[0]._idsums[i].dtype == np.uint64
        for chunk in filter(None, chunks):
            lo, hi = chunk[0] * m, (chunk[-1] + 1) * m
            merged = fold_limb_sums_mod_mersenne(limb_sums[:, lo:hi], exponent) if narrow else None
            if merged is None:
                # Wide primes: merge the limb sums through object-dtype Horner.
                merged = np.zeros(hi - lo, dtype=object)
                for limb in range(limb_sums.shape[0] - 1, -1, -1):
                    merged = (merged << 32) + limb_sums[limb, lo:hi].astype(object)
            for s in chunk:
                row = merged[s * m - lo:(s + 1) * m - lo]
                sketches[s]._idsums[i] = (sketches[s]._idsums[i] + row) % p


def minimum_memory_for_flows(
    num_flows: int,
    num_arrays: int = DEFAULT_NUM_ARRAYS,
    load_factor: float = 0.70,
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> int:
    """Memory (bytes) for a FermatSketch holding ``num_flows`` at ``load_factor``."""
    total_buckets = math.ceil(num_flows / load_factor)
    per_array = math.ceil(total_buckets / num_arrays)
    return per_array * num_arrays * bucket_bytes


def packet_loss_sketch_pair(
    expected_victims: int,
    num_arrays: int = DEFAULT_NUM_ARRAYS,
    load_factor: float = 0.70,
    seed: int = 0,
    prime: int = MERSENNE_PRIME_61,
    fingerprint_bits: int = 0,
) -> Tuple[FermatSketch, FermatSketch]:
    """Build an (upstream, downstream) FermatSketch pair for loss detection.

    Both sketches share hashes so that ``upstream - downstream`` is a valid
    FermatSketch encoding exactly the lost packets.
    """
    upstream = FermatSketch.for_flow_count(
        expected_victims,
        num_arrays=num_arrays,
        load_factor=load_factor,
        seed=seed,
        prime=prime,
        fingerprint_bits=fingerprint_bits,
    )
    return upstream, upstream.empty_like()
