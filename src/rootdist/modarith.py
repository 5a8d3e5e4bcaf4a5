"""Integer plumbing: smallest-prime-factor sieve, factorization, CRT, primality.

One kernel, ``_spf``, sieves: ``SpfSieve``'s table, and the blocks of
_SIEVE_BLOCK numbers that ``_primes_in`` and each ``roots.ModulusTable``
sieve for themselves and do not keep.  The process-wide ``SpfSieve``
(``cached_sieve``; no stream builds it) serves per-n factorization and its
explicit callers.  A table is uint16 (0 for a prime); a limit above 10^8
entries (200 MB) is refused before anything is allocated.  Past its limit,
``factorize`` trial-divides by its primes and refuses a composite cofactor
rather than guess.  ``is_prime`` reads the shared sieve when one covers n
(it never builds one) and runs a Miller-Rabin test with the 13 prime bases
2..41 beyond it, proven correct below psi_13 = 3317044064679887385961981
(Sorenson and Webster, Math. Comp. 86, 2017); larger n are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, UnsupportedInputError

# Deterministic Miller-Rabin base set: the first 13 primes are correct for
# n < psi_13 = 3317044064679887385961981; the first 12 only below
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# Largest sieve limit built; 2 bytes per entry, as sqrt(10^8) < 2^16.
_SIEVE_LIMIT_MAX = 10**8

# The shared sieve is never built smaller than this.
_SHARED_SIEVE_MIN = 10**5

# Numbers per block of a segmented sieve (``_primes_in``, the modulus table).
_SIEVE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered product of prime powers."""

    modulus: int
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.parts:
            if e < 1 or p <= last:
                raise InvalidArgumentError("factorization parts must have ascending primes and e >= 1")
            prod *= p**e
            last = p
        if prod != self.modulus:
            raise InvalidArgumentError("factorization does not reconstruct its modulus")


def _spf(a: int, b: int, small: list[int]) -> np.ndarray:
    """The smallest prime of each composite n in [a, b) as uint16 (0 for any other n).
    ``small`` holds the primes up to sqrt(b - 1), largest first (a larger one writes nothing):
    each writes its multiples from its square, so the smallest prime of n writes last."""
    out = np.zeros(b - a, dtype=np.uint16)
    for q in small:
        out[max(q * q, -(-a // q) * q) - a :: q] = q
    return out


def _primes_in(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo < p <= hi, ascending, for lo >= 1: the zeros of
    ``_spf``, a block of _SIEVE_BLOCK numbers at a time."""
    small = _primes_in(1, math.isqrt(hi))[::-1].tolist() if hi > 3 else []
    found = [np.flatnonzero(_spf(a, min(a + _SIEVE_BLOCK, hi + 1), small) == 0) + a
             for a in range(lo + 1, hi + 1, _SIEVE_BLOCK)]
    return np.concatenate([np.zeros(0, np.int64), *found])


class SpfSieve:
    """Smallest-prime-factor table for 2 <= n <= limit: uint16, 0 for a
    prime, which every reader here turns into n (``sieve[n]`` is n)."""

    def __init__(self, limit: int):
        if limit < 2:
            raise InvalidArgumentError("sieve limit must be at least 2")
        if limit > _SIEVE_LIMIT_MAX:
            raise ResourceLimitError(f"sieve limit {limit} exceeds the cap of {_SIEVE_LIMIT_MAX} entries")
        self.limit = int(limit)
        self._table = _spf(0, self.limit + 1, _primes_in(1, math.isqrt(self.limit))[::-1].tolist())
        self.spf = memoryview(self._table)  # zero-copy; indexing yields Python ints

    def __getitem__(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise InvalidArgumentError(f"sieve lookup out of range: {n}")
        return self.spf[n] or n

    def primes(self) -> list[int]:
        """Every prime up to limit: a fresh list, not kept (200 MB at the cap)."""
        return list(self._primes_upto(self.limit))

    def _primes_upto(self, root: int) -> Iterator[int]:
        """The primes up to root <= limit, ascending, read off the table a
        block at a time, so that a caller who stops early reads no further."""
        for a in range(2, root + 1, 1 << 14):
            yield from (np.flatnonzero(self._table[a : min(a + (1 << 14), root + 1)] == 0) + a).tolist()


_shared_sieve: SpfSieve | None = None


def cached_sieve(limit: int) -> SpfSieve:
    """The process-wide sieve, covering at least limit and _SHARED_SIEVE_MIN:
    replaced by a larger one only when limit exceeds it, so one table is alive."""
    global _shared_sieve
    if _shared_sieve is None or _shared_sieve.limit < limit:
        _shared_sieve = SpfSieve(max(limit, _SHARED_SIEVE_MIN))
    return _shared_sieve


def spf_parts(n: int, sieve: SpfSieve) -> list[tuple[int, int]]:
    """The prime powers (p, e) of 1 <= n <= sieve.limit by ascending p:
    each step divides out the smallest prime factor of what is left."""
    spf = sieve.spf
    parts = []
    while n > 1:
        p = spf[n] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        parts.append((p, e))
    return parts


def is_prime(n: int) -> bool:
    """Read off the shared sieve when it covers n, else deterministic
    Miller-Rabin below 3.3e24; raises beyond that range."""
    if n < 2:
        return False
    if _shared_sieve is not None and n <= _shared_sieve.limit:
        return _shared_sieve.spf[n] == 0
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BOUND:
        raise UnsupportedInputError(
            f"{n} exceeds the deterministic primality-testing range"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, sieve: SpfSieve | None = None) -> Factorization:
    """Factor n using the sieve (the shared one by default), with a
    trial-division fallback above its limit.

    A composite cofactor that survives trial division by every sieved prime
    is rejected (never guessed at).
    """
    if n < 1:
        raise InvalidArgumentError(f"cannot factorize {n}: need a positive integer")
    if sieve is None:
        sieve = cached_sieve(0)
    if n <= sieve.limit:
        return Factorization(n, tuple(spf_parts(n, sieve)))
    parts: list[tuple[int, int]] = []
    m = n
    for p in sieve._primes_upto(min(math.isqrt(n), sieve.limit)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
    if m > 1:
        if is_prime(m):
            parts.append((m, 1))
        else:
            raise UnsupportedInputError(
                f"composite cofactor {m} of {n} is beyond factoring capability"
            )
    return Factorization(n, tuple(parts))


def inverse(a: int, m: int) -> int:
    """Multiplicative inverse of a mod m."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise InvalidArgumentError(f"{a} is not invertible mod {m}") from None


def crt_product(parts: Iterable[tuple[Sequence[int], int]]) -> list[int]:
    """The sorted r in [0, prod m) with r mod m in R for each (R, m) of ``parts``,
    R in [0, m) and the m pairwise coprime.  An empty R ends the walk: no r."""
    acc, acc_m = [0], 1
    for rs, m in parts:
        if not rs:
            return []
        inv = inverse(acc_m % m, m)
        acc = [a + acc_m * ((b - a) * inv % m) for a in acc for b in rs]
        acc_m *= m
    return sorted(acc)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The unique r in [0, m1*m2) with r = r1 mod m1 and r = r2 mod m2."""
    if m1 < 1 or m2 < 1:
        raise InvalidArgumentError("moduli must be positive")
    if not (0 <= r1 < m1 and 0 <= r2 < m2):
        raise InvalidArgumentError("residues must lie in [0, modulus)")
    if math.gcd(m1, m2) != 1:
        raise InvalidArgumentError(f"moduli {m1} and {m2} are not coprime")
    return crt_product((((r1,), m1), ((r2,), m2)))[0]


def euler_phi(fact: Factorization) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in fact.parts)
