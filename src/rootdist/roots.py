"""Roots of f(x) = 0 mod p, mod p^e, and mod n, plus filtered streams over n.

A root set mod n is a sorted tuple of ints in [0, n); the modulus travels
beside it (``root_stream`` yields (n, roots)), never inside it.

Roots mod p come from one algorithm: the roots of gcd(x^p - x, f) by
equal-degree splitting in numpy lanes, one lane per prime, holding int64
residues below ``_lane_prime_bound`` and Python ints above it.  Every
prime up to a limit (at most the sieve's cap of 10^8) sits in one prime
table per polynomial, with its sorted roots in CSR form, filled in batches
of lanes (see ``PrimeRootTable``).  A prime taken on its own (a single
prime far beyond the table, p = 2, or one dividing the leading
coefficient) gets a residue scan below _SCAN_LIMIT and a lane of its own
above it.  Root sets for prime powers are memoized in LRU stores shared
by every stream in the process.  Correctness never depends on a cache
hit: entries are pure functions of (polynomial, prime, exponent).

A stream reads one modulus table built for the call (``root_table``): the
roots mod every n <= x in int32 CSR arrays.  Write n = q m with q the full
power of the smallest prime of n; the roots mod n are the CRT products of
the roots mod q and mod m.  One pass fills the table in ascending chunks
[a, min(2a, a + _TABLE_CHUNK)), so that q and m (both at most n/2 when
m > 1) always lie in an earlier, finished chunk.  Streams read the table
only through ``_stream_windows``, as root tuples, and do not keep it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .intpoly import IntPolynomial, poly_eval_mod
from .modarith import (
    _SIEVE_LIMIT_MAX, Factorization, SpfSieve, cached_sieve, factorize, inverse, is_prime
)

# A prime taken on its own gets a scan of every residue below this bound
# (p = 2 included) and a lane of its own above it.
_SCAN_LIMIT = 512

# Primes or moduli per numpy pass while filling a table; bounds the
# scratch arrays.
_TABLE_CHUNK = 1 << 12

# Refuse a modulus table of more roots than this (4 bytes each).  It is
# below 2^31, so int32 offsets hold every running total.
_TABLE_ROOTS_MAX = 1 << 28

# Split shifts are s_t = (_SHIFT_BASE + t) mod p for t = 0, 1, ...  Any p
# consecutive shifts visit every residue, and some residue separates any two
# roots: the quadratic residues are not invariant under a nonzero
# translation mod p.  The offset makes the shifts depend on p, so that no
# fixed shift fails for every prime (s = 0 never splits x^2 + 1).
_SHIFT_BASE = 2654435761

# Refuse a level of singular lifts that would produce more roots than this.
_LIFT_OUTPUT_LIMIT = 10**6


def _scan_roots(f: IntPolynomial, p: int) -> tuple[int, ...]:
    return tuple(v for v in range(p) if poly_eval_mod(f, v, p) == 0)


# -- Lanes -----------------------------------------------------------------
#
# One lane per prime.  A polynomial in lanes is an (L, w) array whose column
# j holds the coefficient of x^j mod the lane's prime, in [0, p), in the
# dtype of the prime array P.  Products of a polynomial of degree below d
# are summed before they are reduced, so an intermediate stays below
# d * p^2: int64 lanes take the primes for which that is below 2^62 (see
# _lane_prime_bound), object lanes of Python ints take any prime.


def _lane_prime_bound(d: int) -> int:
    """Lanes hold primes below this bound for a polynomial of degree d."""
    return math.isqrt((1 << 62) // d)


def _lane_pow(a: np.ndarray, e: np.ndarray, P: np.ndarray) -> np.ndarray:
    """a^e mod p per lane, by masked square-and-multiply."""
    r = np.ones_like(a)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = r * r % P
        r = np.where((e >> bit) & 1 == 1, r * a % P, r)
    return r


def _lane_reduce(C: np.ndarray, G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """C mod G for monic G of one degree k in every lane, in place; C may
    hold unreduced sums of at most k products of residues."""
    k = G.shape[1] - 1
    Pc = P[:, None]
    for top in range(C.shape[1] - 1, k - 1, -1):
        C[:, top - k : top] -= C[:, top, None] % Pc * G[:, :k]
    return C[:, :k] % Pc


def _lane_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A * B for A, B of one width, unreduced mod p (for _lane_reduce)."""
    k = A.shape[1]
    C = np.zeros((A.shape[0], 2 * k - 1), dtype=A.dtype)
    for i in range(k):
        C[:, i : i + k] += A[:, i, None] * B
    return C


def _lane_powmod_linear(s: np.ndarray, e: np.ndarray, G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(x + s)^e mod G per lane; only lanes whose exponent has a bit set
    take the multiply at that bit."""
    L, k = G.shape[0], G.shape[1] - 1
    R = np.zeros((L, k), dtype=P.dtype)
    R[:, 0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        R = _lane_reduce(_lane_mul(R, R), G, P)
        take = (e >> bit) & 1 == 1
        if take.any():
            C = np.zeros((L, k + 1), dtype=P.dtype)
            C[:, 1:] = R
            C[:, :k] += s[:, None] * R
            R = np.where(take[:, None], _lane_reduce(C, G, P), R)
    return R


def _lane_degree(A: np.ndarray) -> np.ndarray:
    """Degree per lane, -1 for the zero polynomial."""
    nz = A != 0
    return np.where(nz.any(axis=1), A.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _lane_gcd(A: np.ndarray, B: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monic gcd per lane and its degree, for A nonzero in every lane.

    Euclid with pseudo-remainders: A <- lc(B) A - lc(A) x^(deg A - deg B) B
    cancels the top term of A without a modular inverse; one inverse makes
    the result monic.
    """
    w = max(A.shape[1], B.shape[1])
    # Pad with zeros of P's dtype: np.pad puts int64 zeros into object lanes.
    A, B = (np.hstack([M, np.zeros((len(P), w - M.shape[1]), P.dtype)]) for M in (A, B))
    Pc = P[:, None]
    rows = np.arange(A.shape[0])
    cols = np.arange(w)
    while True:
        dB = _lane_degree(B)
        live = dB >= 0
        if not live.any():
            break
        lb = B[rows, np.maximum(dB, 0), None]
        while True:
            dA = _lane_degree(A)
            act = live & (dA >= dB)
            if not act.any():
                break
            shift = cols - np.where(act, dA - dB, 0)[:, None]
            Bs = np.where(shift >= 0, np.take_along_axis(B, np.maximum(shift, 0), axis=1), 0)
            la = A[rows, np.maximum(dA, 0), None]
            A = np.where(act[:, None], (lb * A - la * Bs) % Pc, A)
        A, B = np.where(live[:, None], B, A), np.where(live[:, None], A, B)
    d = _lane_degree(A)
    inv = _lane_pow(A[rows, d], P - 2, P)
    return A * inv[:, None] % Pc, d


def _lane_divexact(A: np.ndarray, D: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A / D per lane for monic D of one degree that divides A."""
    k, j = A.shape[1] - 1, D.shape[1] - 1
    Pc = P[:, None]
    R = A.copy()
    Q = np.zeros((A.shape[0], k - j + 1), dtype=P.dtype)
    for i in range(k - j, -1, -1):
        q = R[:, i + j, None]
        Q[:, i] = q[:, 0]
        R[:, i : i + j + 1] = (R[:, i : i + j + 1] - q * D) % Pc
    return Q


def _lane_residues(c: int, P: np.ndarray) -> np.ndarray:
    """c mod p per lane, for an integer c of any size; Python ints in
    object lanes."""
    if P.dtype == np.int64 and -(1 << 62) < c < 1 << 62:
        return np.int64(c) % P
    return np.array([c % p for p in P.tolist()], dtype=P.dtype)


def _lane_roots(coeffs: tuple[int, ...], P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f mod every lane prime, as (lane, root) pairs.

    Every p must be odd and prime to the leading coefficient, so that f mod
    p keeps its degree d >= 2, and below _lane_prime_bound(d) in int64
    lanes.  The distinct roots are those of g = gcd(x^p - x, f).
    """
    if P.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    d = len(coeffs) - 1
    Pc = P[:, None]
    F = np.stack([_lane_residues(c, P) for c in coeffs], axis=1)
    F = F * _lane_pow(F[:, d], P - 2, P)[:, None] % Pc
    XP = _lane_powmod_linear(np.zeros_like(P), P, F, P)
    XP[:, 1] = (XP[:, 1] - 1) % P
    G, rho = _lane_gcd(F, XP, P)
    return _split_into_roots(G, rho, P)


def _split_into_roots(
    G: np.ndarray, rho: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of monic products of distinct linear factors, G of degree
    rho in each lane, as (lane, root) pairs.

    Equal-degree splitting: gcd with (x+s)^((p-1)/2) - 1 separates the roots
    a by whether a+s is a quadratic residue.  The shifts s follow the
    sequence described at ``_SHIFT_BASE``, so a proper split comes within p
    tries.  Pieces are split in one batch per piece degree, down to linear
    factors.
    """
    lanes = np.arange(len(P))
    # degree -> list of (lane, prime, monic piece, shifts tried)
    pieces: dict[int, list] = {}
    for k in range(1, G.shape[1]):
        sel = rho == k
        if sel.any():
            pieces[k] = [(lanes[sel], P[sel], G[sel, : k + 1], np.zeros(int(sel.sum()), np.int64))]
    for k in range(G.shape[1] - 1, 1, -1):
        if k not in pieces:
            continue
        own, Pk, Gk, tries = (np.concatenate(a) for a in zip(*pieces.pop(k)))
        while own.size:
            if (tries >= Pk).any():
                raise RuntimeError("equal-degree splitting did not terminate")
            s = (_SHIFT_BASE + tries) % Pk
            H = _lane_powmod_linear(s, (Pk - 1) // 2, Gk, Pk)
            H[:, 0] = (H[:, 0] - 1) % Pk
            T, j = _lane_gcd(Gk, H, Pk)
            tries = tries + 1
            for jj in range(1, k):
                sel = j == jj
                if sel.any():
                    Tj = T[sel, : jj + 1]
                    rest = _lane_divexact(Gk[sel], Tj, Pk[sel])
                    for piece, deg in ((Tj, jj), (rest, k - jj)):
                        pieces.setdefault(deg, []).append((own[sel], Pk[sel], piece, tries[sel]))
            keep = (j == 0) | (j == k)
            own, Pk, Gk, tries = own[keep], Pk[keep], Gk[keep], tries[keep]
    linear = pieces.get(1, [])
    if not linear:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return (
        np.concatenate([own for own, _, _, _ in linear]),
        np.concatenate([(-Gk[:, 0]) % Pk for _, Pk, Gk, _ in linear]),
    )


def _roots_mod_prime_large(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Roots mod one prime p >= _SCAN_LIMIT on a lane of its own, int64
    below the lane bound and Python ints above it.  A prime dividing the
    leading coefficient lowers the degree."""
    coeffs = [c % p for c in f.coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d <= 0:
        # A primitive polynomial cannot vanish identically mod p, so a
        # degree-0 reduction is a nonzero constant: no roots.
        return ()
    if d == 1:
        return (-coeffs[0] * inverse(coeffs[1], p) % p,)
    dtype = np.int64 if p < _lane_prime_bound(d) else object
    _, roots = _lane_roots(tuple(coeffs), np.array([p], dtype=dtype))
    return tuple(sorted(roots.tolist()))


@lru_cache(maxsize=1 << 20)
def _prime_roots_cached(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Roots mod one prime outside the prime table's lanes: a residue scan
    below _SCAN_LIMIT, a lane of its own above it."""
    if p < _SCAN_LIMIT:
        return _scan_roots(f, p)
    return _roots_mod_prime_large(f, p)


def _primes_in(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo < p <= hi, ascending, for lo >= 1: a sieve of
    the segment by the primes up to sqrt(hi)."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    flags = np.ones(hi - lo, dtype=bool)  # flags[i] stands for lo + 1 + i
    for q in np.flatnonzero(small).tolist():
        flags[max(q * q, (lo // q + 1) * q) - lo - 1 :: q] = False
    return np.flatnonzero(flags).astype(np.int64) + (lo + 1)


class PrimeRootTable:
    """Roots of one polynomial mod every prime p <= limit.

    CSR layout: the roots mod primes[i] are roots[offsets[i]:offsets[i+1]],
    sorted ascending, so rho(primes[i]) = offsets[i+1] - offsets[i].  The
    table grows by ``fill``, which runs the odd primes prime to the leading
    coefficient and below _lane_prime_bound(d) in chunks of int64 lanes;
    the other primes go one at a time through ``_prime_roots_cached``.
    Like the sieve, the limit is capped at 10^8.
    """

    def __init__(self, f: IntPolynomial):
        self.f = f
        self.limit = 1
        self.primes = np.zeros(0, dtype=np.int64)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.roots = np.zeros(0, dtype=np.int64)

    def fill(self, limit: int) -> None:
        """Extend the table to every prime up to limit."""
        if limit <= self.limit:
            return
        if limit > _SIEVE_LIMIT_MAX:
            raise ResourceLimitError(
                f"prime table limit {limit} exceeds the cap of {_SIEVE_LIMIT_MAX}"
            )
        new = _primes_in(self.limit, limit)
        bound = _lane_prime_bound(self.f.degree)
        counts, roots = [np.zeros(0, np.int64)], [self.roots]
        for start in range(0, new.size, _TABLE_CHUNK):
            P = new[start : start + _TABLE_CHUNK]
            lanes = (P != 2) & (_lane_residues(self.f.leading, P) != 0) & (P < bound)
            own, vals = _lane_roots(self.f.coeffs, P[lanes])
            own = np.flatnonzero(lanes)[own]
            single = np.flatnonzero(~lanes)
            found = [_prime_roots_cached(self.f, int(P[i])) for i in single]
            own = np.concatenate([own, np.repeat(single, [len(r) for r in found])])
            vals = np.concatenate([vals, np.array([v for r in found for v in r], dtype=np.int64)])
            order = np.lexsort((vals, own))
            counts.append(np.bincount(own, minlength=P.size))
            roots.append(vals[order])
        self.primes = np.concatenate([self.primes, new])
        self.offsets = np.concatenate([self.offsets, self.offsets[-1] + np.cumsum(np.concatenate(counts))])
        self.roots = np.concatenate(roots)
        self.limit = limit

    def rho(self) -> np.ndarray:
        """Root counts, one per prime in ``primes``."""
        return np.diff(self.offsets)

    def lookup(self, p: int) -> tuple[int, ...] | None:
        """The roots mod p, or None when p is not a prime of the table."""
        i = int(np.searchsorted(self.primes, p))
        if i == self.primes.size or self.primes[i] != p:
            return None
        return tuple(self.roots[self.offsets[i] : self.offsets[i + 1]].tolist())


@lru_cache(maxsize=8)
def prime_table(f: IntPolynomial) -> PrimeRootTable:
    """The shared, growing prime table of f."""
    return PrimeRootTable(f)


def _table_roots(f: IntPolynomial, p: int) -> tuple[int, ...] | None:
    """Roots mod p from f's table.  A prime past the limit but within twice
    it doubles the table, so ascending per-prime callers pay for a few
    passes in all; a prime further out, or one whose doubling would pass
    the table cap, returns None (``_prime_roots_cached`` takes it)."""
    table = prime_table(f)
    if p > table.limit:
        if p > 2 * table.limit or 2 * table.limit > _SIEVE_LIMIT_MAX:
            return None
        table.fill(2 * table.limit)
    return table.lookup(p)


def roots_mod_prime(f: IntPolynomial, p: int) -> list[int]:
    """Sorted roots of f mod a prime p."""
    if p < 2 or not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    return list(_prime_power_roots_cached(f, p, 1))


def _lift_all(f: IntPolynomial, p: int, e: int, parents: tuple[int, ...]) -> tuple[int, ...]:
    """Roots mod p^e above the given roots mod p^(e-1), for e >= 2.

    A nonsingular root (p does not divide f'(v)) lifts by one Newton step.
    At a singular root f(v + t p^(e-1)) = f(v) mod p^e for every t: the
    linear Taylor term carries p * p^(e-1) and the higher ones p^(2(e-1)).
    So one evaluation decides whether all p lifts are roots or none is.
    """
    pe_prev = p ** (e - 1)
    pe = pe_prev * p
    out: list[int] = []
    singular = 0
    for v in parents:
        if f.deriv_mod(v, p) != 0:
            u = inverse(f.deriv_mod(v, pe), pe)
            out.append((v - poly_eval_mod(f, v, pe) * u) % pe)
        elif poly_eval_mod(f, v, pe) == 0:
            singular += 1
            if singular * p > _LIFT_OUTPUT_LIMIT:
                raise ResourceLimitError(
                    f"singular lifts to {p}^{e} exceed {_LIFT_OUTPUT_LIMIT} roots"
                )
            out.extend(range(v, pe, pe_prev))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=1 << 20)
def _prime_power_roots_cached(f: IntPolynomial, p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        roots = _table_roots(f, p)
        return _prime_roots_cached(f, p) if roots is None else roots
    parents = _prime_power_roots_cached(f, p, e - 1)
    if not parents:
        return ()
    return _lift_all(f, p, e, parents)


def roots_mod_prime_power(f: IntPolynomial, p: int, e: int) -> list[int]:
    """Sorted roots of f mod p^e, built level by level from the roots mod p."""
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if e < 1:
        raise InvalidArgumentError("exponent must be at least 1")
    return list(_prime_power_roots_cached(f, p, e))


def _crt_roots(f: IntPolynomial, parts: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Sorted roots of f mod the product of the prime powers p^e in
    ``parts`` (ascending p), glued through the CRT from the cached root
    sets mod each p^e; no parts means the modulus 1 and the root 0."""
    acc: tuple[int, ...] | list[int] = (0,)
    acc_m = 1
    for p, e in parts:
        part = _prime_power_roots_cached(f, p, e)
        if not part:
            return ()
        pe = p**e
        if acc_m == 1:
            acc, acc_m = part, pe
        else:
            inv = inverse(acc_m % pe, pe)
            acc = [a + acc_m * ((b - a) * inv % pe) for a in acc for b in part]
            acc_m *= pe
    return tuple(sorted(acc))


def roots_from_factorization(f: IntPolynomial, fact: Factorization) -> tuple[int, ...]:
    """Combine cached prime-power root sets through the CRT."""
    return _crt_roots(f, fact.parts)


def roots_mod_n(f: IntPolynomial, n: int) -> tuple[int, ...]:
    """The sorted roots of f mod n, assembled from its prime-power factors.

    The convention rho(1) = 1 with root {0} keeps counts multiplicative and
    matches the ascending-modulus sequence starting at n = 1.
    """
    if n < 1:
        raise InvalidArgumentError("modulus must be positive")
    return roots_from_factorization(f, factorize(n))


class ModulusFilter:
    """Which moduli a stream visits: all, squarefree, a progression,
    coprime-to-m, or an explicit list."""

    def __init__(self, kind: str, a: int = 0, m: int = 0, values: frozenset[int] | None = None):
        self.kind = kind
        self.a = a
        self.m = m
        self.values = values
        if kind == "progression":
            if m < 1 or math.gcd(a, m) != 1:
                raise InvalidArgumentError(
                    f"progression filter needs gcd(a, m) = 1; got a={a}, m={m}"
                )
        elif kind == "coprime":
            if m < 1:
                raise InvalidArgumentError("coprime filter needs a positive modulus")
        elif kind == "list":
            if not values:
                raise InvalidArgumentError("explicit filter needs at least one modulus")
        elif kind not in ("all", "squarefree"):
            raise InvalidArgumentError(f"unknown filter kind {kind!r}")

    @classmethod
    def all(cls) -> "ModulusFilter":
        return cls("all")

    @classmethod
    def squarefree(cls) -> "ModulusFilter":
        return cls("squarefree")

    @classmethod
    def progression(cls, a: int, m: int) -> "ModulusFilter":
        return cls("progression", a=a % m if m else a, m=m)

    @classmethod
    def coprime(cls, m: int) -> "ModulusFilter":
        return cls("coprime", m=m)

    @classmethod
    def explicit(cls, values: Iterable[int]) -> "ModulusFilter":
        return cls("list", values=frozenset(int(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> "ModulusFilter":
        """Parse "all", "squarefree", "progression:a,m", "coprime:m", "list:n1,n2,..."."""
        text = text.strip()
        if text == "all":
            return cls.all()
        if text == "squarefree":
            return cls.squarefree()
        head, sep, tail = text.partition(":")
        if not sep:
            raise InvalidArgumentError(f"cannot parse filter {text!r}")
        try:
            if head == "progression":
                a_txt, m_txt = tail.split(",")
                return cls.progression(int(a_txt), int(m_txt))
            if head == "coprime":
                return cls.coprime(int(tail))
            if head == "list":
                return cls.explicit(int(v) for v in tail.split(","))
        except (ValueError, TypeError) as exc:
            raise InvalidArgumentError(f"cannot parse filter {text!r}: {exc}") from None
        raise InvalidArgumentError(f"unknown filter kind {head!r}")

    def window(self, lo: int, hi: int) -> Sequence[int]:
        """The accepted n in [lo, hi), ascending, for 1 <= lo < hi."""
        if self.kind == "all":
            return range(lo, hi)
        if self.kind == "progression":
            return range(lo + (self.a - lo) % self.m, hi, self.m)
        if self.kind == "list":
            return sorted(v for v in self.values if lo <= v < hi)
        n = np.arange(lo, hi, dtype=np.int64)
        if self.kind == "coprime":
            return n[np.gcd(n, self.m) == 1].tolist()
        keep = np.ones(hi - lo, dtype=bool)
        for p in _primes_in(1, math.isqrt(hi - 1)).tolist():
            keep[(-lo) % (p * p) :: p * p] = False
        return n[keep].tolist()

    def accepts(self, n: int) -> bool:
        return bool(self.window(n, n + 1))

    def describe(self) -> str:
        if self.kind == "progression":
            return f"progression:{self.a},{self.m}"
        if self.kind == "coprime":
            return f"coprime:{self.m}"
        if self.kind == "list":
            return "list:" + ",".join(str(v) for v in sorted(self.values))
        return self.kind

    def __repr__(self) -> str:
        return f"ModulusFilter({self.describe()!r})"


def _moduli_chunks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) in ascending chunks [a, min(2a, a + _TABLE_CHUNK)), for
    lo >= 1: a proper divisor of n is at most n/2, so it lies in an earlier
    chunk than n."""
    while lo < hi:
        top = min(2 * lo, lo + _TABLE_CHUNK, hi)
        yield lo, top
        lo = top


def _split_smallest(lo: int, hi: int, spf: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n, p, q, m) for n in [lo, hi), 2 <= lo: p = spf[n] is the smallest
    prime of n, q = p^e its full power in n, and m = n // q."""
    n = np.arange(lo, hi, dtype=np.int64)
    p = spf[lo:hi].astype(np.int64)
    q = p.copy()
    m = n // p
    more = np.flatnonzero(m % p == 0)
    while more.size:
        q[more] *= p[more]
        m[more] //= p[more]
        more = more[m[more] % p[more] == 0]
    return n, p, q, m


def root_table(
    f: IntPolynomial, xmax: int, sieve: SpfSieve | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, roots): the sorted roots of f mod every n <= xmax in CSR
    form, roots mod n = roots[offsets[n]:offsets[n + 1]] (n = 0 is empty),
    both int32.

    n = q m with q the full power of its smallest prime; for m > 1 the
    roots mod n are b + m ((a - b) m^-1 mod q) over the roots a mod q and b
    mod m, finished in earlier chunks (see ``_moduli_chunks``).  Roots mod
    a prime come from the prime table, mod a higher prime power from
    ``_prime_power_roots_cached``.  The roots buffer starts at xmax + 1 and
    at least doubles when a chunk overruns it; a chunk that would pass
    _TABLE_ROOTS_MAX roots raises ``ResourceLimitError`` unwritten.  The
    sieve (the shared one unless ``sieve`` covers xmax) is fetched before
    the prime table is filled.
    """
    if sieve is None or sieve.limit < xmax:
        sieve = cached_sieve(xmax)
    table = prime_table(f)
    table.fill(xmax)
    spf = np.asarray(sieve.spf)

    offsets = np.zeros(xmax + 2, dtype=np.int32)
    offsets[2] = 1
    roots = np.zeros(min(xmax + 1, _TABLE_ROOTS_MAX), dtype=np.int32)  # roots[0] = 0 mod 1
    for lo, hi in _moduli_chunks(2, xmax + 1):
        n, p, q, m = _split_smallest(lo, hi, spf)
        i0, i1 = np.searchsorted(table.primes, (lo, hi)).tolist()
        own = [np.repeat(np.flatnonzero(p == n), np.diff(table.offsets[i0 : i1 + 1]))]
        vals = [table.roots[table.offsets[i0] : table.offsets[i1]]]
        for i in np.flatnonzero((m == 1) & (p != n)).tolist():
            pe, e = int(p[i]), 1
            while pe < int(n[i]):
                pe, e = pe * int(p[i]), e + 1
            power = _prime_power_roots_cached(f, int(p[i]), e)
            own.append(np.full(len(power), i))
            vals.append(np.array(power, dtype=np.int64))
        # rho(q) rho(m), read only for m > 1: when m = 1, q = n is unfinished
        c = (offsets[q + 1] - offsets[q]) * (offsets[m + 1] - offsets[m])
        sel = np.flatnonzero((m > 1) & (c > 0))
        if sel.size:
            k = c[sel]
            qs, ms = q[sel], m[sel]
            inv = _lane_pow(ms % qs, qs - qs // p[sel] - 1, qs)
            pos = np.arange(int(k.sum())) - np.repeat(np.cumsum(k) - k, k)
            rm = np.repeat(offsets[ms + 1] - offsets[ms], k)
            a = roots[np.repeat(offsets[qs], k) + pos // rm].astype(np.int64)
            b = roots[np.repeat(offsets[ms], k) + pos % rm].astype(np.int64)
            Q = np.repeat(qs, k)
            own.append(np.repeat(sel, k))
            vals.append(b + np.repeat(ms, k) * ((a - b) % Q * np.repeat(inv, k) % Q))
        own_all, vals_all = np.concatenate(own), np.concatenate(vals)
        start = int(offsets[lo])
        stop = start + own_all.size
        if stop > _TABLE_ROOTS_MAX:
            raise ResourceLimitError(
                f"roots mod every n <= {xmax} pass the cap of {_TABLE_ROOTS_MAX}"
            )
        if stop > roots.size:
            grown = np.zeros(min(max(stop, 2 * roots.size), _TABLE_ROOTS_MAX), dtype=np.int32)
            grown[:start] = roots[:start]
            roots = grown
        roots[start:stop] = vals_all[np.lexsort((vals_all, own_all))]
        offsets[lo + 1 : hi + 1] = start + np.cumsum(np.bincount(own_all, minlength=hi - lo))
    return offsets, roots[: offsets[-1]]


def _stream_windows(
    fs: Sequence[IntPolynomial], xmax: int, flt: ModulusFilter, sieve: SpfSieve | None
) -> Iterator[tuple[Sequence[int], list[list[tuple[int, ...]]]]]:
    """The moduli n <= xmax that ``flt`` accepts, a window at a time, with
    the roots of each polynomial in ``fs``: yields (ns, rows), where
    rows[j][k] is the sorted root tuple of fs[j] mod ns[k], sliced out of
    one ``root_table`` per polynomial.

    An explicit list takes ``roots_mod_n`` per listed n, so it needs only
    its own primes and builds no table.
    """
    if flt.kind == "list":
        for n in flt.window(1, xmax + 1):
            yield (n,), [[roots_mod_n(f, n)] for f in fs]
        return
    tables = [root_table(f, xmax, sieve) for f in fs]
    for lo, hi in _moduli_chunks(1, xmax + 1):
        ns = flt.window(lo, hi)
        if not ns:
            continue
        rows = []
        for offsets, roots in tables:
            off = offsets[lo : hi + 1]
            vals = roots[off[0] : off[-1]].tolist()
            off = (off - off[0]).tolist()
            rows.append([tuple(vals[off[n - lo] : off[n - lo + 1]]) for n in ns])
        yield ns, rows


def root_stream(
    f: IntPolynomial,
    xmax: int,
    flt: ModulusFilter | None = None,
    sieve: SpfSieve | None = None,
    extra_accept: Callable[[int], bool] | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, sorted roots of f mod n) for n = 1..xmax in ascending
    order, filtered; one item per accepted modulus, empty root sets included.

    The roots come from one ``root_table`` built for this call.
    ``extra_accept`` is an additional cheap predicate on n (used for the
    coprimality restriction of inverse-mode Weyl sums).
    """
    if xmax < 1:
        raise InvalidArgumentError("xmax must be at least 1")
    if flt is None:
        flt = ModulusFilter.all()
    for ns, (rows,) in _stream_windows((f,), xmax, flt, sieve):
        for n, roots in zip(ns, rows):
            if extra_accept is None or extra_accept(n):
                yield n, roots


def clear_caches() -> None:
    """Drop the memoized per-prime root stores (mainly for tests)."""
    _prime_roots_cached.cache_clear()
    _prime_power_roots_cached.cache_clear()
    prime_table.cache_clear()
