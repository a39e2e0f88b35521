"""Seeded pairwise-independent hash families — scalar and vectorized paths.

Every sketch in this package locates counters with hash functions of the form
``h(x) = ((a * x + b) mod P) mod m`` where ``P`` is a large prime and ``a``,
``b`` are drawn uniformly at random.  This family is pairwise independent,
which is the assumption made by the analyses of FermatSketch, TowerSketch,
Count-Min, and the other sketches reproduced here.

The hashes are deterministic for a given seed so that experiments are
reproducible and so that two sketches built with the same seed are structurally
compatible (a requirement for FermatSketch addition/subtraction).

Two evaluation paths produce bit-identical results:

* the scalar path (:meth:`PairwiseHash.__call__`) uses Python big-int
  arithmetic and is the reference implementation;
* the vectorized path (:meth:`PairwiseHash.hash_array`) evaluates whole arrays
  of keys at once for the ``2**89 - 1`` family, the one every hash in this
  package is drawn from (other primes take the scalar loop).  Keys are
  decomposed into base-``2**32`` limbs held in ``uint64`` NumPy arrays, the
  Mersenne modulus is reduced by folding
  (``v mod (2**e - 1) == (v >> e) + (v & (2**e - 1))``, iterated), and the
  final ``mod m`` uses precomputed powers of ``2**32 mod m``.  Keys and their
  mod-``P`` reductions can be shared across hash functions via
  :class:`KeyArray`, which is what makes multi-hash sketches cheap to batch.

The same limb arithmetic, for any Mersenne prime, computes the FermatSketch
encoder's IDsum deltas (:func:`modmul_array`,
:func:`fold_limb_sums_mod_mersenne`) and the frontier decoder's products
(:func:`modmul_mersenne_u64`).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

# A Mersenne prime comfortably larger than any 64-bit key yet cheap to reduce.
_MERSENNE_PRIME_89 = (1 << 89) - 1

_LIMB_BITS = 32
_LIMB_MASK = np.uint64(0xFFFFFFFF)
_LIMB_SHIFT = np.uint64(_LIMB_BITS)

#: Largest supported ``range_size`` of the vectorized path: keeps every
#: intermediate of the final ``mod m`` step inside uint64.
_MAX_VECTOR_RANGE = 1 << 31

#: Keys per call of a limb kernel (hash, modular product).  The kernels make
#: about twenty temporaries the length of their input, so a large batch is
#: evaluated a slice at a time to bound them.
_KERNEL_KEYS = 1 << 16


def mersenne_exponent(prime: int) -> Optional[int]:
    """Return ``e`` when ``prime == 2**e - 1``, else ``None``."""
    e = prime.bit_length()
    return e if prime == (1 << e) - 1 else None


# --------------------------------------------------------------------------- #
# limb arithmetic (base 2**32, little-endian rows of a (L, n) uint64 array)
# --------------------------------------------------------------------------- #
def _limbs_from_keys(keys: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
    """Decompose non-negative integer keys into base-``2**32`` limbs.

    Returns ``(limbs, ints)`` where ``limbs`` has shape ``(L, n)`` and ``ints``
    is the keys as plain Python integers (kept for the scalar fallback).
    """
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if keys.size and keys.min() < 0:
            raise ValueError("hash keys must be non-negative")
        arr = keys.astype(np.uint64)
        limbs = np.empty((2, arr.size), dtype=np.uint64)
        limbs[0] = arr & _LIMB_MASK
        limbs[1] = arr >> _LIMB_SHIFT
        return limbs, None
    if isinstance(keys, np.ndarray) and keys.dtype.kind not in "iuO":
        raise ValueError("hash keys must be integers")
    try:
        arr = np.asarray(keys, dtype=np.uint64)
        ints = None
    except (OverflowError, TypeError, ValueError):
        arr = None
        ints = [int(k) for k in keys]
    if arr is None and not ints:
        return np.zeros((1, 0), dtype=np.uint64), ints
    if arr is None:
        try:
            arr = np.asarray(ints, dtype=np.uint64)
        except OverflowError:
            arr = None
    if arr is not None:
        limbs = np.empty((2, arr.size), dtype=np.uint64)
        limbs[0] = arr & _LIMB_MASK
        limbs[1] = arr >> _LIMB_SHIFT
        return limbs, ints
    # Wide-key path (keys above 64 bits, e.g. packed 5-tuples): decompose via
    # Python big-int arithmetic on an object array, once per batch.
    objs = np.array(ints, dtype=object)
    if min(ints) < 0:
        raise ValueError("hash keys must be non-negative")
    num_limbs = max(1, (max(ints).bit_length() + _LIMB_BITS - 1) // _LIMB_BITS)
    limbs = np.empty((num_limbs, objs.size), dtype=np.uint64)
    work = objs
    for i in range(num_limbs):
        limbs[i] = (work & 0xFFFFFFFF).astype(np.uint64)
        work = work >> _LIMB_BITS
    return limbs, ints


def _limbs_rshift(limbs: np.ndarray, shift: int) -> np.ndarray:
    """Right-shift every column's value by ``shift`` bits."""
    q, r = divmod(shift, _LIMB_BITS)
    length, n = limbs.shape
    if q >= length:
        return np.zeros((1, n), dtype=np.uint64)
    out_len = length - q
    out = np.zeros((out_len, n), dtype=np.uint64)
    if r == 0:
        out[:] = limbs[q:]
        return out
    rs = np.uint64(r)
    ls = np.uint64(_LIMB_BITS - r)
    for i in range(out_len):
        out[i] = limbs[q + i] >> rs
        if q + i + 1 < length:
            out[i] |= (limbs[q + i + 1] << ls) & _LIMB_MASK
    return out


def _limbs_low(limbs: np.ndarray, bits: int) -> np.ndarray:
    """Mask every column's value down to its low ``bits`` bits."""
    q, r = divmod(bits, _LIMB_BITS)
    length, n = limbs.shape
    out_len = min(length, q + (1 if r else 0))
    out = limbs[:max(out_len, 1)].copy()
    if out_len == 0:
        return np.zeros((1, n), dtype=np.uint64)
    if r and q < length and out_len == q + 1:
        out[q] &= np.uint64((1 << r) - 1)
    return out


def _limbs_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise big-int addition of two limb arrays."""
    la, n = a.shape
    lb = b.shape[0]
    length = max(la, lb)
    out = np.zeros((length + 1, n), dtype=np.uint64)
    carry = np.zeros(n, dtype=np.uint64)
    for i in range(length):
        s = carry
        if i < la:
            s = s + a[i]
        if i < lb:
            s = s + b[i]
        out[i] = s & _LIMB_MASK
        carry = s >> _LIMB_SHIFT
    out[length] = carry
    return out


def _limbs_mod_mersenne(limbs: np.ndarray, e: int) -> np.ndarray:
    """Reduce every column modulo the Mersenne prime ``2**e - 1``."""
    while True:
        hi = _limbs_rshift(limbs, e)
        if not hi.any():
            break
        limbs = _limbs_add(_limbs_low(limbs, e), hi)
    # Values are now < 2**e; map the single non-residue 2**e - 1 to zero.
    num_limbs = (e + _LIMB_BITS - 1) // _LIMB_BITS
    out = np.zeros((num_limbs, limbs.shape[1]), dtype=np.uint64)
    avail = min(num_limbs, limbs.shape[0])
    out[:avail] = limbs[:avail]
    prime_limbs = [
        np.uint64(((1 << e) - 1 >> (_LIMB_BITS * i)) & 0xFFFFFFFF)
        for i in range(num_limbs)
    ]
    is_prime = np.ones(limbs.shape[1], dtype=bool)
    for i in range(num_limbs):
        is_prime &= out[i] == prime_limbs[i]
    if is_prime.any():
        out[:, is_prime] = 0
    return out


def _limbs_mul_small_mod(
    xlimbs: np.ndarray, factors: np.ndarray, e: int
) -> np.ndarray:
    """Compute ``(x * factor) mod (2**e - 1)`` column-wise.

    ``factors`` must be a uint64 array of per-column multipliers below
    ``2**32`` (packet counts in practice).
    """
    length, n = xlimbs.shape
    lo_acc = np.zeros((length + 1, n), dtype=np.uint64)
    hi_acc = np.zeros((length + 1, n), dtype=np.uint64)
    for j in range(length):
        prod = xlimbs[j] * factors
        lo_acc[j] += prod & _LIMB_MASK
        hi_acc[j] += prod >> _LIMB_SHIFT
    out = np.zeros((length + 2, n), dtype=np.uint64)
    carry = np.zeros(n, dtype=np.uint64)
    for k in range(length + 1):
        s = lo_acc[k] + carry
        out[k] = s & _LIMB_MASK
        carry = (s >> _LIMB_SHIFT) + hi_acc[k]
    out[length + 1] = carry
    return _limbs_mod_mersenne(out, e)


def _hash89(xlimbs: np.ndarray, a: int, b: int, m: int) -> np.ndarray:
    """Fused ``((a * x + b) mod (2**89 - 1)) mod m`` kernel.

    ``xlimbs`` must be reduced modulo ``2**89 - 1`` (at most 3 limbs, top limb
    below ``2**25``).  The kernel expands the schoolbook product column-wise,
    folds the positional weights with ``2**96 ≡ 2**7`` and ``2**128 ≡ 2**39``
    (mod ``2**89 - 1``), and finishes with at most two Mersenne folds — all on
    flat uint64 arrays.
    """
    length, n = xlimbs.shape
    a_limbs = [np.uint64((a >> (_LIMB_BITS * i)) & 0xFFFFFFFF) for i in range(3)]
    cols: List[Optional[np.ndarray]] = [None] * 5

    def _accumulate(k: int, value: np.ndarray) -> None:
        cols[k] = value if cols[k] is None else cols[k] + value

    for i, ai in enumerate(a_limbs):
        if ai == 0:
            continue
        for j in range(min(length, 3)):
            prod = ai * xlimbs[j]
            k = i + j
            if k < 4:
                _accumulate(k, prod & _LIMB_MASK)
                _accumulate(k + 1, prod >> _LIMB_SHIFT)
            else:
                # Only (i, j) == (2, 2): both limbs are < 2**25, so the raw
                # product (< 2**50) fits the unnormalized column directly.
                _accumulate(4, prod)
    zero = np.zeros(n, dtype=np.uint64)
    for i, bi in enumerate((b & 0xFFFFFFFF, (b >> 32) & 0xFFFFFFFF, b >> 64)):
        if bi:
            _accumulate(i, np.uint64(bi))
    for k in range(5):
        if cols[k] is None:
            cols[k] = zero
        elif cols[k].ndim == 0:
            cols[k] = np.full(n, cols[k], dtype=np.uint64)
    # Positional weights mod 2**89 - 1: 2**96 -> 2**7, 2**128 -> 2**39.
    t3 = cols[3] << np.uint64(7)
    u4 = cols[4] << np.uint64(7)
    lo = cols[0] + (t3 & _LIMB_MASK)
    mid = (cols[1] & _LIMB_MASK) + (t3 >> _LIMB_SHIFT) + (u4 & _LIMB_MASK)
    hi = (cols[1] >> _LIMB_SHIFT) + (u4 >> _LIMB_SHIFT) + cols[2]
    # Normalize to 32-bit limbs, then fold bits >= 89 back down (<= 2 rounds).
    top_mask = np.uint64((1 << 25) - 1)
    top_shift = np.uint64(25)
    while True:
        mid += lo >> _LIMB_SHIFT
        lo &= _LIMB_MASK
        hi += mid >> _LIMB_SHIFT
        mid &= _LIMB_MASK
        overflow = hi >> top_shift
        if not overflow.any():
            break
        hi &= top_mask
        lo += overflow
    # Map the lone non-residue 2**89 - 1 to zero.
    is_prime = (hi == top_mask) & (mid == _LIMB_MASK) & (lo == _LIMB_MASK)
    if is_prime.any():
        lo = lo.copy()
        lo[is_prime] = 0
        mid = np.where(is_prime, np.uint64(0), mid)
        hi = np.where(is_prime, np.uint64(0), hi)
    if m & (m - 1) == 0:
        # Power-of-two ranges (classifier/sample/sign hashes): 2**32 mod m == 0
        # for every m <= 2**32, so only the low limb matters.
        return lo & np.uint64(m - 1)
    mu = np.uint64(m)
    w32 = np.uint64((1 << 32) % m)
    w64 = np.uint64((1 << 64) % m)
    # lo < 2**32, (mid % m) * w32 < 2**62, hi * w64 < 2**56: the sum fits uint64.
    return (lo + (mid % mu) * w32 + hi * w64) % mu


def _limbs_to_ints(limbs: np.ndarray) -> List[int]:
    """Recombine limb columns into Python integers (scalar fallback path)."""
    values = [0] * limbs.shape[1]
    for i in range(limbs.shape[0] - 1, -1, -1):
        row = limbs[i].tolist()
        for k in range(len(values)):
            values[k] = (values[k] << _LIMB_BITS) | row[k]
    return values


class KeyArray:
    """A batch of hash keys with cached limb decompositions.

    Building a :class:`KeyArray` once and passing it to several
    :meth:`PairwiseHash.hash_array` calls shares both the base-``2**32``
    decomposition and the per-prime Mersenne reduction across hash functions,
    which is where most of the vectorized path's time goes.
    """

    __slots__ = ("limbs", "size", "_reduced", "_ints")

    def __init__(self, keys: Union[Sequence[int], np.ndarray]) -> None:
        self.limbs, self._ints = _limbs_from_keys(keys)
        # Trimming all-zero top limbs halves the kernel work for narrow keys.
        while self.limbs.shape[0] > 1 and not self.limbs[-1].any():
            self.limbs = self.limbs[:-1]
        self.size = self.limbs.shape[1]
        self._reduced: Dict[int, np.ndarray] = {}

    def reduced(self, prime: int, exponent: int) -> np.ndarray:
        """Limbs of ``key mod prime`` (cached per Mersenne prime)."""
        if self.limbs.shape[0] * _LIMB_BITS < exponent:
            return self.limbs  # already below the prime: reduction is identity
        cached = self._reduced.get(prime)
        if cached is None:
            cached = _limbs_mod_mersenne(self.limbs, exponent)
            self._reduced[prime] = cached
        return cached

    def take(self, rows: np.ndarray) -> "KeyArray":
        """The keys at integer positions ``rows``, with their cached reductions."""
        sub = KeyArray.__new__(KeyArray)
        limbs = self.limbs[:, rows]
        while limbs.shape[0] > 1 and not limbs[-1].any():
            limbs = limbs[:-1]
        sub.limbs = limbs
        sub.size = limbs.shape[1]
        sub._reduced = {prime: cached[:, rows] for prime, cached in self._reduced.items()}
        sub._ints = None if self._ints is None else [self._ints[r] for r in rows.tolist()]
        return sub

    def ints(self) -> List[int]:
        """The keys as plain Python integers (scalar fallback)."""
        if self._ints is None:
            self._ints = _limbs_to_ints(self.limbs)
        return self._ints

    def max_int(self) -> int:
        """Largest key in the batch, computed from the limbs (no int list)."""
        if self.size == 0:
            return 0
        if self._ints is not None:
            return max(self._ints)
        mask = None
        value = 0
        for i in range(self.limbs.shape[0] - 1, -1, -1):
            row = self.limbs[i]
            top = int(row.max() if mask is None else row[mask].max())
            value = (value << _LIMB_BITS) | top
            equal = row == top
            mask = equal if mask is None else (mask & equal)
        return value


@dataclass(frozen=True)
class PairwiseHash:
    """A single pairwise-independent hash function onto ``[0, range_size)``."""

    a: int
    b: int
    range_size: int
    prime: int = _MERSENNE_PRIME_89

    def __post_init__(self) -> None:
        # Validate once at construction time: __call__ is the hottest branch
        # in the codebase and must stay check-free.
        if self.range_size <= 0:
            raise ValueError("hash range must be positive")
        if self.prime <= 1:
            raise ValueError("prime must be > 1")

    def __call__(self, key: int) -> int:
        return ((self.a * key + self.b) % self.prime) % self.range_size

    def with_range(self, range_size: int) -> "PairwiseHash":
        """Return the same hash coefficients mapped onto a new range."""
        return PairwiseHash(self.a, self.b, range_size, self.prime)

    def hash_array(self, keys: Union[Sequence[int], np.ndarray, KeyArray]) -> np.ndarray:
        """Vectorized evaluation: bit-identical to ``[self(k) for k in keys]``.

        Accepts a sequence of non-negative integers, a NumPy integer array, or
        a :class:`KeyArray` (shared across hash functions for speed).  Returns
        an ``int64`` array of bucket indices.
        """
        key_array = keys if isinstance(keys, KeyArray) else KeyArray(keys)
        if key_array.size == 0:
            return np.zeros(0, dtype=np.int64)
        if self.prime == _MERSENNE_PRIME_89 and self.range_size <= _MAX_VECTOR_RANGE:
            reduced = key_array.reduced(self.prime, 89)
            out = np.empty(key_array.size, dtype=np.int64)
            for start in range(0, key_array.size, _KERNEL_KEYS):
                out[start:start + _KERNEL_KEYS] = _hash89(
                    reduced[:, start:start + _KERNEL_KEYS], self.a, self.b, self.range_size
                )
            return out
        # Other primes / huge ranges: scalar reference loop.
        return np.array([self(k) for k in key_array.ints()], dtype=np.int64)


def modmul_array(
    keys: Union[Sequence[int], np.ndarray, KeyArray],
    factors: np.ndarray,
    prime: int,
) -> Optional[np.ndarray]:
    """Vectorized ``(key * factor) mod prime`` as base-``2**32`` limb columns.

    Used by the FermatSketch batch encoder to compute IDsum deltas without
    per-element Python big-int work.  ``factors`` must be non-negative and
    below ``2**32``.  Returns ``None`` when ``prime`` is not Mersenne (callers
    fall back to object-array arithmetic).
    """
    exponent = mersenne_exponent(prime)
    if exponent is None:
        return None
    key_array = keys if isinstance(keys, KeyArray) else KeyArray(keys)
    reduced = key_array.reduced(prime, exponent)
    factors = factors.astype(np.uint64)
    return np.concatenate(
        [
            _limbs_mul_small_mod(
                reduced[:, start:start + _KERNEL_KEYS],
                factors[start:start + _KERNEL_KEYS],
                exponent,
            )
            for start in range(0, max(key_array.size, 1), _KERNEL_KEYS)
        ],
        axis=1,
    )


def modmul_mersenne_u64(a: np.ndarray, b: np.ndarray, e: int) -> np.ndarray:
    """Element-wise ``(a * b) mod (2**e - 1)`` on uint64 residue arrays, e <= 61.

    ``a`` and ``b`` must hold residues below ``2**e - 1``.  The 128-bit product
    is assembled from 32-bit half-products (every intermediate fits uint64:
    the high halves are below ``2**(e-32)``, so the cross terms stay under
    ``2**62`` and the folded sum under ``2**63``) and reduced with the Mersenne
    identity ``2**64 ≡ 2**(64-e)``.  The vectorized FermatSketch decoder uses
    it to recover a frontier's extended IDs (``IDsum * count^(-1)``) and its
    peel deltas.
    """
    if e > 61:
        raise ValueError("modmul_mersenne_u64 supports Mersenne exponents <= 61")
    mask_e = np.uint64((1 << e) - 1)
    eu = np.uint64(e)
    if e <= 31:
        # Residues below 2**31: the raw product fits uint64 directly.
        v = a * b
    else:
        a0, a1 = a & _LIMB_MASK, a >> _LIMB_SHIFT
        b0, b1 = b & _LIMB_MASK, b >> _LIMB_SHIFT
        ll = a0 * b0
        mid = a0 * b1 + a1 * b0 + (ll >> _LIMB_SHIFT)
        low = (ll & _LIMB_MASK) | ((mid & _LIMB_MASK) << _LIMB_SHIFT)
        high = (mid >> _LIMB_SHIFT) + a1 * b1  # product = low + high * 2**64
        v = (low & mask_e) + (low >> eu) + (high << np.uint64(64 - e))
    while (v >> eu).any():
        v = (v & mask_e) + (v >> eu)
    v[v == mask_e] = 0
    return v


def fold_limb_sums_mod_mersenne(limb_sums: np.ndarray, e: int) -> Optional[np.ndarray]:
    """Reduce per-bucket base-``2**32`` limb *sums* modulo ``2**e - 1`` in uint64.

    ``limb_sums`` rows may be unnormalized (each entry a sum of up to ``2**20``
    32-bit limb values).  Returns fully reduced residues, or ``None`` when the
    residues would not fit uint64 (``e > 61``) — callers then merge limbs via
    object-dtype arithmetic instead.  Used by the FermatSketch batch encoder to
    turn scatter-added IDsum delta limbs into residues without Python big-ints.
    """
    if e > 61 or limb_sums.shape[0] > 2:
        return None
    mask_e = np.uint64((1 << e) - 1)
    if limb_sums.shape[0] == 1:
        v = limb_sums[0].copy()
    else:
        low = limb_sums[0] & _LIMB_MASK
        t = limb_sums[1] + (limb_sums[0] >> _LIMB_SHIFT)
        l1 = t & _LIMB_MASK
        l2 = t >> _LIMB_SHIFT
        r = np.uint64(e - 32)
        lo = low | ((l1 & np.uint64((1 << (e - 32)) - 1)) << _LIMB_SHIFT)
        hi = (l1 >> r) | (l2 << np.uint64(64 - e))
        v = lo + hi
    eu = np.uint64(e)
    while (v >> eu).any():
        v = (v & mask_e) + (v >> eu)
    v[v == mask_e] = 0
    return v


@functools.lru_cache(maxsize=256, typed=True)
def _coefficients(seed: int, prime: int, count: int) -> Tuple[Tuple[int, int], ...]:
    """The first ``count`` ``(a, b)`` pairs ``random.Random(seed)`` draws.

    Memoised: every switch of a deployment rebuilds the same sketches from
    the same seeds every epoch, so each sequence is drawn once per process.
    ``lru_cache`` is thread-safe (the streaming engine builds sketches on
    its generation thread alongside the epoch loop) and bounded.
    """
    rng = random.Random(seed)
    return tuple((rng.randrange(1, prime), rng.randrange(0, prime)) for _ in range(count))


class HashFamily:
    """A reproducible family of pairwise-independent hash functions.

    The ``k``-th function drawn from a family is the ``k``-th ``(a, b)`` pair
    of ``random.Random(seed)`` (``a = randrange(1, prime)``, then
    ``b = randrange(0, prime)``), read from a per-process memo.

    Parameters
    ----------
    seed:
        Seed for the underlying PRNG.  Two families built with the same seed
        produce identical hash functions in the same order.
    prime:
        Prime modulus of the family.  Must exceed every key that will be
        hashed; the default covers 64-bit keys with a wide margin.
    """

    def __init__(self, seed: int = 0, prime: int = _MERSENNE_PRIME_89) -> None:
        if prime <= 1:
            raise ValueError("prime must be > 1")
        self._seed = seed
        self._prime = prime
        self._drawn = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def prime(self) -> int:
        return self._prime

    def _next_pairs(self, count: int) -> Tuple[Tuple[int, int], ...]:
        end = self._drawn + count
        # Memo entries grow in powers of two, so few lengths are cached.
        size = max(8, 1 << (end - 1).bit_length())
        pairs = _coefficients(self._seed, self._prime, size)[self._drawn:end]
        self._drawn = end
        return pairs

    def draw(self, range_size: int) -> PairwiseHash:
        """Draw the next hash function of the family onto ``[0, range_size)``."""
        if range_size <= 0:
            raise ValueError("hash range must be positive")
        ((a, b),) = self._next_pairs(1)
        return PairwiseHash(a, b, range_size, self._prime)

    def draw_many(self, count: int, range_size: int) -> list[PairwiseHash]:
        """Draw ``count`` independent hash functions with the same range."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count and range_size <= 0:
            raise ValueError("hash range must be positive")
        return [
            PairwiseHash(a, b, range_size, self._prime)
            for a, b in self._next_pairs(count)
        ]


def fold_key(parts: Iterable[int], widths: Sequence[int]) -> int:
    """Pack integer fields into a single integer key.

    ``parts`` and ``widths`` are matched positionally; each part must fit in
    its declared bit width.  Used to build packed 5-tuple flow IDs.
    """
    parts = list(parts)
    if len(parts) != len(widths):
        raise ValueError("parts and widths must have the same length")
    key = 0
    for value, width in zip(parts, widths):
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        key = (key << width) | value
    return key


def unfold_key(key: int, widths: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`fold_key`: split a packed key back into its fields."""
    parts: list[int] = []
    for width in reversed(widths):
        parts.append(key & ((1 << width) - 1))
        key >>= width
    if key:
        raise ValueError("key has more bits than the declared widths")
    return tuple(reversed(parts))
