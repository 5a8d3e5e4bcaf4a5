"""Roots of f(x) = 0 mod p, mod p^e, and mod n, plus filtered streams over n.

A root set mod n is a sorted tuple of ints in [0, n); the modulus travels
beside it (``root_stream`` yields (n, roots)), never inside it.

Roots mod p come from numpy lanes, one lane per prime, holding int64
residues below ``_lane_prime_bound`` and Python ints above it: for a
quadratic (-b +- s)/(2a) with s^2 = b^2 - 4ac by Tonelli-Shanks, and
otherwise the roots of gcd(x^p - x, f) by equal-degree splitting.  Every
prime up to a limit (at most 10^8) sits in one prime table per polynomial,
its sorted roots in CSR form (``PrimeRootTable``).  ``prime_counts`` keeps
nothing: it stops at 1 + (D/p) for a quadratic and at deg gcd for d >= 4.
For a cubic, Stickelberger's (D/p) = (-1)^(3 - r), r the number of
irreducible factors of f mod a prime p not dividing D (Swan, Pacific J.
Math. 12, 1962), leaves one root at (D/p) = -1 and 0 or 3 at (D/p) = 1, as
x^p = x mod f or not; only p | D takes the gcd.  A prime taken on its own
(far beyond the table, p = 2, or dividing the leading coefficient) gets a
residue scan below _SCAN_LIMIT (one int64 Horner pass over every residue)
and a lane of its own above it.  ``roots_mod_n`` reads the row of f's
modulus table when it covers n, and otherwise glues by the CRT the roots mod
each p^e of n from ``roots_mod_prime_power``: mod p from f's prime table,
mod p^e (e >= 2) from an LRU of 2^12 lifts (one per (f, p, e)), a nonsingular
root straight to p^e by the towers' Newton lift, a singular one level by level.

A stream reads the modulus table of its polynomial (``root_table``): the
roots mod every n <= x in int32 CSR arrays, one growing table shared by
every stream.  It owns f's prime table: the 4 most recently used
polynomials keep both tables until ``clear_caches()``, evicting one frees
both, and a per-n query fills no modulus-table rows.  Write n = q m with
q the full power of the smallest prime of n; the roots mod n are the CRT
products of the roots mod q and mod m, or lifts of the roots mod n/p when
n = q.  Chunks [a, min(2a, a + _TABLE_CHUNK)) fill it in ascending order, so
that q, m and n/p (at most n/2) always lie in an earlier, finished chunk.
Streams read the table only through ``_stream_windows``, in int64 CSR
windows whose moduli a ``ModulusFilter`` alone decides (a dropped one costs
nothing); an explicit list takes one window of Python ints per listed n
from ``roots_mod_n``.  ``root_stream`` makes a tuple only of a nonempty row
(every empty one is the shared ()), and the single-polynomial consumers read
its items, because the benchmark's traced ``trace.stream_moduli`` counts them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .intpoly import IntPolynomial, parse_ints, poly_eval_mod
from .modarith import (
    _SIEVE_LIMIT_MAX, Factorization, SpfSieve, cached_sieve, crt_product, factorize, inverse, is_prime
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
    """The roots mod p < _SCAN_LIMIT: f at every residue by int64 Horner."""
    v = np.arange(p, dtype=np.int64)
    r = np.zeros(p, dtype=np.int64)
    for a in reversed(f.coeffs):
        r = (r * v + a % p) % p
    return tuple(np.flatnonzero(r == 0).tolist())


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
    for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
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
    for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
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


def _lane_monic(coeffs: tuple[int, ...], P: np.ndarray) -> np.ndarray:
    """f mod p made monic per lane, for p prime to its leading coefficient."""
    F = np.stack([_lane_residues(c, P) for c in coeffs], axis=1)
    return F if coeffs[-1] == 1 else F * _lane_pow(F[:, -1], P - 2, P)[:, None] % P[:, None]


def _lane_root_gcd(F: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gcd(x^p - x, F) per lane for monic F, and its degree: the root count."""
    XP = _lane_powmod_linear(np.zeros_like(P), P, F, P)
    XP[:, 1] = (XP[:, 1] - 1) % P
    return _lane_gcd(F, XP, P)


def _lane_roots(coeffs: tuple[int, ...], P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f mod every lane prime, as (lane, root) pairs.

    Every p must be odd and prime to the leading coefficient, so that f mod
    p keeps its degree d >= 2, and below _lane_prime_bound(d) in int64
    lanes.  A quadratic takes ``_quadratic_roots``; for d >= 3 the distinct
    roots are those of g = gcd(x^p - x, f).
    """
    F = _lane_monic(coeffs, P)
    if F.shape[1] == 3:
        return _quadratic_roots(F, P)
    return _split_into_roots(*_lane_root_gcd(F, P), P)


def _quadratic_roots(F: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of monic quadratics x^2 + c1 x + c0 mod odd primes, as (lane,
    root) pairs: (s - c1) / 2 for both square roots s of D = c1^2 - 4 c0.

    Tonelli-Shanks per lane: with p - 1 = Q 2^S, Q odd, and a = D^((Q-1)/2),
    R = a D and t = a R = D^Q satisfy R^2 = D t, and t^(2^(S-1)) is Euler's
    test of D.  Step k = S-1, ..., 1 multiplies R by c and t by c^2 when t
    has order 2^k, where c = z^Q (z the least non-residue) is squared down
    to order 2^(k+1); then t = 1 and s = R.
    """
    D = (F[:, 1] * F[:, 1] - 4 * F[:, 0]) % P
    Q, S = P - 1, np.zeros(P.size, np.int64)
    while (even := Q % 2 == 0).any():
        Q, S = np.where(even, Q // 2, Q), S + even
    a = _lane_pow(D, (Q - 1) // 2, P)
    R = a * D % P
    t = a * R % P
    chi = _lane_pow(t, (P - 1) // (2 * Q), P)  # 2^(S-1), in the dtype of P
    sq = np.flatnonzero(chi == 1)
    need = sq[t[sq] != 1]  # only these lanes ask for a non-residue
    Pn, Sn, tn, Rn = P[need], S[need], t[need], R[need]
    z, todo = np.zeros_like(Pn), np.arange(need.size)
    for q in filter(is_prime, itertools.count(2)):  # the least non-residue is a prime
        # p = 1 mod 4 here: (2/p) = -1 iff p = 5 mod 8, and (q/p) = (p/q) for odd q
        m = 8 if q == 2 else q
        square = np.zeros(m, bool)
        square[np.arange(m) ** 2 % m] = True
        nr = ~square[(Pn[todo] % m).astype(np.int64)]
        z[todo[nr]], todo = q, todo[~nr]
        if not todo.size:
            break
    c = _lane_pow(z, Q[need], Pn)
    for k in range(int(Sn.max(initial=0)) - 1, 0, -1):
        u = tn
        for _ in range(k - 1):
            u = u * u % Pn
        flip = u != 1
        Rn, tn = np.where(flip, Rn * c % Pn, Rn), np.where(flip, tn * c % Pn * c % Pn, tn)
        c = np.where(k < Sn, c * c % Pn, c)
    R[need] = Rn
    lanes = np.flatnonzero(chi != P - 1)  # D = 0 (where R = 0) or a square
    own = np.concatenate([lanes, sq])
    s = np.concatenate([R[lanes], -R[sq]])
    return own, (s - F[own, 1]) % P[own] * ((P[own] + 1) // 2) % P[own]


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


@lru_cache(maxsize=1 << 12)
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


def _prime_chunks(f: IntPolynomial, lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The primes p with lo < p <= hi in chunks of _TABLE_CHUNK, each with
    the mask of its lane primes: odd, prime to the leading coefficient and
    below _lane_prime_bound(d).  A hi past the cap of 10^8 raises first."""
    if hi > _SIEVE_LIMIT_MAX:
        raise ResourceLimitError(f"prime table limit {hi} exceeds the cap of {_SIEVE_LIMIT_MAX}")
    new = _primes_in(lo, hi)
    bound = _lane_prime_bound(f.degree)
    for start in range(0, new.size, _TABLE_CHUNK):
        P = new[start : start + _TABLE_CHUNK]
        yield P, (P != 2) & (_lane_residues(f.leading, P) != 0) & (P < bound)


class PrimeRootTable:
    """Roots of one polynomial mod every prime p <= limit.

    CSR layout: the roots mod primes[i] are roots[offsets[i]:offsets[i+1]],
    sorted ascending, so rho(primes[i]) = offsets[i+1] - offsets[i].  The
    table grows by ``fill``, which runs the odd primes prime to the leading
    coefficient and below _lane_prime_bound(d) in chunks of int64 lanes;
    the other primes go one at a time through ``_prime_roots_cached``.
    Like the sieve, the limit is capped at 10^8, so the arrays are int32
    (search them with int32 keys: any other converts the whole array).
    ``lookup`` is the one reader of roots mod p; no LRU keeps a copy of a
    lane prime's row.
    """

    def __init__(self, f: IntPolynomial):
        self.f = f
        self.limit = 1
        self.primes = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int32)
        self.roots = np.zeros(0, dtype=np.int32)

    def fill(self, limit: int) -> None:
        """Extend the table to every prime up to limit."""
        if limit <= self.limit:
            return
        primes, counts, roots = [self.primes], [self.offsets[-1:]], [self.roots]
        for P, lanes in _prime_chunks(self.f, self.limit, limit):
            own, vals = _lane_roots(self.f.coeffs, P[lanes])
            own = np.flatnonzero(lanes)[own]
            single = np.flatnonzero(~lanes)
            found = [_prime_roots_cached(self.f, int(P[i])) for i in single]
            own = np.concatenate([own, np.repeat(single, [len(r) for r in found])])
            vals = np.concatenate([vals, np.array([v for r in found for v in r], dtype=np.int64)])
            order = np.lexsort((vals, own))
            primes.append(P)
            counts.append(np.bincount(own, minlength=P.size))
            roots.append(vals[order])
        self.primes = np.concatenate(primes, dtype=np.int32)
        self.offsets = np.concatenate([self.offsets[:-1], np.cumsum(np.concatenate(counts), dtype=np.int32)])
        self.roots = np.concatenate(roots, dtype=np.int32)
        self.limit = limit

    def rho(self) -> np.ndarray:
        """Root counts, one per prime in ``primes``."""
        return np.diff(self.offsets)

    def lookup(self, p: int) -> tuple[int, ...]:
        """The roots mod a prime p.  The doubling rule: a p with
        max(L, 511) < p <= 2 max(L, 512) <= 10^8, L the limit (512 is
        _SCAN_LIMIT, 10^8 the cap), fills the table to 2 max(L, 512), so
        ascending callers pay for a few doubling passes from wherever they
        start.  Then p up to the limit is prime iff it has a row; other
        primes (below 512, further out, or past the cap) go to
        ``_prime_roots_cached`` once ``is_prime`` passes them."""
        grow = 2 * max(self.limit, _SCAN_LIMIT)
        if max(self.limit, _SCAN_LIMIT - 1) < p <= grow <= _SIEVE_LIMIT_MAX:
            self.fill(grow)
        if p <= self.limit:
            i = int(self.primes.searchsorted(np.int32(max(p, 0))))
            if i < self.primes.size and self.primes[i] == p:
                return tuple(self.roots[self.offsets[i] : self.offsets[i + 1]].tolist())
        elif is_prime(p):
            return _prime_roots_cached(self.f, p)
        raise InvalidArgumentError(f"{p} is not prime")


def prime_table(f: IntPolynomial) -> PrimeRootTable:
    """f's shared, growing prime table, kept and evicted with its modulus
    table: the 4 most recently used polynomials keep both (``modulus_table``)."""
    return modulus_table(f).primes


def prime_counts(f: IntPolynomial, xmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes, rho): every prime p <= xmax and the number of roots of f mod
    p.  The primes of f's prime table are sliced from it.  The others run
    the front half of the lanes chunk by chunk and are not kept: 1 + (D/p)
    by Euler's test for a quadratic; for a cubic 1 root where (D/p) = -1,
    3 or 0 where (D/p) = 1 as x^p = x mod f or not (Stickelberger), and
    deg gcd(x^p - x, f) where p | D; deg gcd for every lane of d >= 4."""
    table = prime_table(f)
    i = int(table.primes.searchsorted(np.int32(min(xmax, table.limit)), side="right"))
    primes, rho = [table.primes[:i]], [table.rho()[:i]]
    for P, lanes in _prime_chunks(f, min(table.limit, xmax), xmax):
        r = np.zeros(P.size, np.int64)
        F = _lane_monic(f.coeffs, L := P[lanes])
        if f.degree == 2:
            D = (F[:, 1] * F[:, 1] - 4 * F[:, 0]) % L
            r[lanes] = (_lane_pow(D, (L - 1) // 2, L) + 1) % L
        elif f.degree == 3:
            # disc(f) = lead^4 disc(F); (D/p) = -1 leaves 2 factors, 1 leaves 1 or 3
            chi = _lane_pow(_lane_residues(f.discriminant, L), (L - 1) // 2, L)
            rl, sq, ram = np.ones(L.size, np.int64), chi == 1, chi == 0
            XP = _lane_powmod_linear(np.zeros_like(L[sq]), L[sq], F[sq], L[sq])
            rl[sq] = 3 * (XP == [0, 1, 0]).all(axis=1)  # x^p = x mod F
            rl[ram] = _lane_root_gcd(F[ram], L[ram])[1]
            r[lanes] = rl
        else:
            r[lanes] = _lane_root_gcd(F, L)[1]
        r[~lanes] = [len(_prime_roots_cached(f, p)) for p in P[~lanes].tolist()]
        primes.append(P)
        rho.append(r)
    return np.concatenate(primes, dtype=np.int64), np.concatenate(rho, dtype=np.int64)


def _newton_lift(f: IntPolynomial, v: int, base: int, depth: int, powers: dict) -> int:
    """The root mod base^depth above a root v mod base at which f' is a unit,
    by Newton steps to precisions 1 = k_0 < ... < k_t = depth, k_(i+1) <= 2 k_i,
    with u = 1/f'(v) mod base^k Newton-iterated alongside.  ``powers`` maps k
    to base^k (shared with nadic's digit splits); the steps add theirs."""
    steps = [depth]
    while steps[-1] > 1:
        steps.append((steps[-1] + 1) // 2)
    u = inverse(f.deriv_mod(v, base), base)
    for k in reversed(steps[:-1]):
        m = powers[k] = powers.get(k) or base**k
        v = (v - poly_eval_mod(f, v, m) * u) % m
        if k < depth:
            u = u * (2 - f.deriv_mod(v, m) * u) % m
    return v


def _lift_all(f: IntPolynomial, p: int, e: int, roots_mod_p: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted roots mod p^e above the given roots mod p.

    A nonsingular root (p does not divide f'(v)) goes straight to p^e by
    ``_newton_lift``.  The singular ones go level by level, until none is
    left: at a singular root v mod p^(k-1), f(v + t p^(k-1)) = f(v) mod p^k
    for every t (the linear Taylor term carries p * p^(k-1), the higher ones
    p^(2(k-1))), so one evaluation decides whether all p lifts are roots.
    """
    powers: dict[int, int] = {}
    singular = [v for v in roots_mod_p if f.deriv_mod(v, p) == 0]
    out = [_newton_lift(f, v, p, e, powers) for v in roots_mod_p if v not in singular]
    k, pk = 1, p
    while singular and k < e:
        k, pk = k + 1, pk * p
        alive = [v for v in singular if poly_eval_mod(f, v, pk) == 0]
        if len(alive) * p > _LIFT_OUTPUT_LIMIT:
            raise ResourceLimitError(f"singular lifts to {p}^{k} exceed {_LIFT_OUTPUT_LIMIT} roots")
        singular = [w for v in alive for w in range(v, pk, pk // p)]
    return tuple(sorted(out + singular))


@lru_cache(maxsize=1 << 12)
def _prime_power_roots_cached(f: IntPolynomial, p: int, e: int) -> tuple[int, ...]:
    """Roots mod p^e for e >= 2, lifted in one ``_lift_all`` call from the
    roots mod p in f's prime table.  This LRU of 2^12 entries holds one
    entry for each (f, p, e) asked, and lifted prime powers only."""
    return _lift_all(f, p, e, prime_table(f).lookup(p))


def roots_mod_prime_power(f: IntPolynomial, p: int, e: int) -> list[int]:
    """Sorted roots of f mod p^e, lifted from the roots mod p (``_lift_all``),
    which ``PrimeRootTable.lookup`` reads first: a p that is not prime raises
    before a bad exponent."""
    roots = prime_table(f).lookup(p)
    if e < 1:
        raise InvalidArgumentError("exponent must be at least 1")
    return list(roots if e == 1 else _prime_power_roots_cached(f, p, e))


def roots_mod_prime(f: IntPolynomial, p: int) -> list[int]:
    """Sorted roots of f mod a prime p."""
    return roots_mod_prime_power(f, p, 1)


def roots_from_factorization(f: IntPolynomial, fact: Factorization) -> tuple[int, ...]:
    """Sorted roots of f mod ``fact.modulus``, glued through the CRT from
    root sets mod each p^e of ``fact.parts`` (ascending p); no parts means
    the modulus 1 and the root 0.  A part with no roots ends the walk."""
    return tuple(crt_product((roots_mod_prime_power(f, p, e), p**e) for p, e in fact.parts))


def roots_mod_n(f: IntPolynomial, n: int) -> tuple[int, ...]:
    """The sorted roots of f mod n: the row of f's modulus table when it
    covers n, else glued from the prime-power factors of n.  No row is filled,
    and f becomes the most recently used polynomial; but a prime factor of n
    may grow f's prime table (the doubling rule of ``PrimeRootTable.lookup``).
    rho(1) = 1 with root {0} keeps counts multiplicative and starts the
    ascending moduli at n = 1.
    """
    if n < 1:
        raise InvalidArgumentError("modulus must be positive")
    table = modulus_table(f)
    if n <= table.limit:
        return tuple(table.roots[table.offsets[n] : table.offsets[n + 1]].tolist())
    return roots_from_factorization(f, factorize(n))


@dataclass(frozen=True)
class ModulusFilter:
    """Which moduli a stream visits: all n, the squarefree n, n = a mod m
    or an explicit list, and of those only the n prime to ``prime_to``;
    ``coprime(m)`` (``coprime:m``) is all n with prime_to = m."""

    kind: str
    a: int = 0
    m: int = 0
    values: frozenset[int] | None = None
    prime_to: int = 1

    def __post_init__(self):
        if self.kind == "progression" and (self.m < 1 or math.gcd(self.a, self.m) != 1):
            raise InvalidArgumentError(
                f"progression filter needs gcd(a, m) = 1; got a={self.a}, m={self.m}"
            )
        if self.kind == "list" and not self.values:
            raise InvalidArgumentError("explicit filter needs at least one modulus")
        if self.kind not in ("all", "squarefree", "progression", "list"):
            raise InvalidArgumentError(f"unknown filter kind {self.kind!r}")
        if self.prime_to < 1:
            raise InvalidArgumentError("coprime filter needs a positive modulus")

    @classmethod
    def all(cls) -> "ModulusFilter":
        return cls("all")

    @classmethod
    def squarefree(cls) -> "ModulusFilter":
        return cls("squarefree")

    @classmethod
    def progression(cls, a: int, m: int) -> "ModulusFilter":
        return cls("progression", a=a % m if m >= 1 else a, m=m)

    @classmethod
    def coprime(cls, m: int) -> "ModulusFilter":
        return cls("all", prime_to=m)

    @classmethod
    def explicit(cls, values: Iterable[int]) -> "ModulusFilter":
        return cls("list", values=frozenset(int(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> "ModulusFilter":
        """Parse "all", "squarefree", "progression:a,m", "coprime:m", "list:n1,n2,..."."""
        text = text.strip()
        if text in ("all", "squarefree"):
            return cls(text)
        head, sep, tail = text.partition(":")
        if not sep:
            raise InvalidArgumentError(f"cannot parse filter {text!r}")
        if head == "progression":
            return cls.progression(*parse_ints(tail, "progression filter", 2))
        if head == "coprime":
            return cls.coprime(*parse_ints(tail, "coprime filter", 1))
        if head == "list":
            return cls.explicit(parse_ints(tail, "list filter"))
        raise InvalidArgumentError(f"unknown filter kind {head!r}")

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The accepted n in [lo, hi), ascending, for 1 <= lo < hi: int64, or
        Python ints (object dtype) when one passes 2^63 - 1.  A squarefree
        window sieves the primes up to sqrt(hi - 1), refused past the cap."""
        if self.kind == "squarefree":
            root = math.isqrt(hi - 1)
            if root > _SIEVE_LIMIT_MAX:
                raise ResourceLimitError(f"squarefree window to {hi - 1} sieves past {_SIEVE_LIMIT_MAX}")
            keep = np.ones(hi - lo, dtype=bool)
            for p in _primes_in(1, root).tolist():
                keep[(-lo) % (p * p) :: p * p] = False
            ns = np.flatnonzero(keep) + lo
        elif self.kind == "list":
            ns = sorted(v for v in self.values if lo <= v < hi)
        else:
            ns = range(lo, hi) if self.kind == "all" else range(lo + (self.a - lo) % self.m, hi, self.m)
            if hi < 1 << 63:
                # int64 bounds: a step past hi leaves the first n at most
                ns = np.arange(min(ns.start, hi), hi, min(ns.step, hi))
        if not isinstance(ns, np.ndarray):
            ns = np.array(ns, np.int64 if not ns or ns[-1] < 1 << 63 else object)
        if self.prime_to == 1:
            return ns
        if self.prime_to < 1 << 63 and ns.dtype == np.int64:
            return ns[np.gcd(ns, self.prime_to) == 1]
        # gcd(n, M) = gcd(n, M mod n): exact for M of any size
        return ns[np.array([math.gcd(n, self.prime_to % n) == 1 for n in ns.tolist()], dtype=bool)]

    def accepts(self, n: int) -> bool:
        return self.window(n, n + 1).size > 0

    def describe(self) -> str:
        """The ``parse`` spelling; a kind other than all under coprime:M
        shows as "kind&coprime:M", for display only (``parse`` rejects it)."""
        if self.kind == "progression":
            text = f"progression:{self.a},{self.m}"
        elif self.kind == "list":
            text = "list:" + ",".join(str(v) for v in sorted(self.values))
        else:
            text = self.kind
        if self.prime_to > 1:
            text = f"{'' if self.kind == 'all' else text + '&'}coprime:{self.prime_to}"
        return text

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


def _split_smallest(lo: int, hi: int, sieve: SpfSieve) -> tuple[np.ndarray, ...]:
    """(n, p, q, m) for n in [lo, hi), 2 <= lo: p = sieve[n] is the smallest
    prime of n, q = p^e its full power in n, and m = n // q."""
    n = np.arange(lo, hi, dtype=np.int64)
    p = sieve.smallest(lo, hi)
    q = p.copy()
    m = n // p
    more = np.flatnonzero(m % p == 0)
    while more.size:
        q[more] *= p[more]
        m[more] //= p[more]
        more = more[m[more] % p[more] == 0]
    return n, p, q, m


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [s, s + k) over starts s and lengths k, one after another."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


class ModulusTable:
    """The sorted roots of one polynomial mod every n <= limit in int32 CSR
    form: roots mod n = roots[offsets[n]:offsets[n + 1]] (n = 0 is empty).

    ``fill`` appends chunks of rows (``_moduli_chunks``) read off finished
    rows.  Write n = q m, q the full power of the smallest prime p of n.  For
    m > 1 the roots mod n are b + m ((a - b) m^-1 mod q) over the roots a mod
    q and b mod m; for n = p^e, e >= 2, the zeros of f (int64 Horner mod n)
    among the lifts v + t n/p, 0 <= t < p, of the roots v mod n/p.  So no
    fill reads an LRU store once the prime table covers it.  Rows are written
    only past the finished ones, so a view of those never changes; a fill
    that would pass _TABLE_ROOTS_MAX roots raises ``ResourceLimitError`` and
    leaves the table as it was.
    """

    def __init__(self, f: IntPolynomial):
        self.f = f
        self.limit = 1
        self.primes = PrimeRootTable(f)
        self.offsets = np.array([0, 0, 1], dtype=np.int32)
        self.roots = np.zeros(1, dtype=np.int32)  # roots[0] = 0 mod 1

    def fill(self, xmax: int) -> None:
        """Extend the table to every n <= xmax; the shared sieve, the one
        the table reads, is fetched before the prime table is filled."""
        if xmax <= self.limit:
            return
        sieve = cached_sieve(xmax)
        table = self.primes
        table.fill(xmax)
        offsets = np.zeros(xmax + 2, dtype=np.int32)
        offsets[: self.limit + 2] = self.offsets
        roots = self.roots
        for lo, hi in _moduli_chunks(self.limit + 1, xmax + 1):
            n, p, q, m = _split_smallest(lo, hi, sieve)
            i0, i1 = table.primes.searchsorted(np.array((lo, hi), np.int32)).tolist()
            own = [np.repeat(np.flatnonzero(p == n), np.diff(table.offsets[i0 : i1 + 1]))]
            vals = [table.roots[table.offsets[i0] : table.offsets[i1]]]
            sel = np.flatnonzero((m == 1) & (p != n))  # n = p^e, e >= 2
            up = n[sel] // p[sel]
            k = (offsets[up + 1] - offsets[up]) * p[sel]
            i = np.repeat(sel, k)
            pos = _ranges(np.zeros_like(k), k)
            v = roots[np.repeat(offsets[up], k) + pos // p[i]] + pos % p[i] * (n[i] // p[i])
            r = np.zeros_like(v)
            for a in reversed(self.f.coeffs):
                r = (r * v + _lane_residues(a, n[i])) % n[i]
            own.append(i[r == 0])
            vals.append(v[r == 0])
            # rho(q) rho(m), read only for m > 1: when m = 1, q = n is unfinished
            c = (offsets[q + 1] - offsets[q]) * (offsets[m + 1] - offsets[m])
            sel = np.flatnonzero((m > 1) & (c > 0))
            k = c[sel]
            qs, ms = q[sel], m[sel]
            inv = _lane_pow(ms % qs, qs - qs // p[sel] - 1, qs)
            pos = _ranges(np.zeros_like(k), k)
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
                # np.zeros maps pages lazily: slack costs no memory until written
                grown = np.zeros(min(max(stop, 2 * roots.size, xmax + 1), _TABLE_ROOTS_MAX), np.int32)
                grown[:start] = roots[:start]
                roots = grown
            roots[start:stop] = vals_all[np.lexsort((vals_all, own_all))]
            offsets[lo + 1 : hi + 1] = start + np.cumsum(np.bincount(own_all, minlength=hi - lo))
        self.offsets, self.roots, self.limit = offsets, roots, xmax


# The one per-polynomial store, least recently used first (a dict keeps order).
_modulus_tables: dict[IntPolynomial, ModulusTable] = {}


def modulus_table(f: IntPolynomial) -> ModulusTable:
    """f's shared, growing modulus table, with its prime table (``primes``).
    The 4 most recently used polynomials keep both until ``clear_caches()``;
    a per-n query (``roots_mod_n``) fills no rows of this table, though it
    may grow the prime table (the doubling rule of ``PrimeRootTable.lookup``)."""
    table = _modulus_tables.pop(f, None) or ModulusTable(f)
    _modulus_tables[f] = table
    if len(_modulus_tables) > 4:
        del _modulus_tables[next(iter(_modulus_tables))]
    return table


def root_table(f: IntPolynomial, xmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, roots): read-only views of the rows n <= xmax of f's
    modulus table, filled to xmax first; both int32."""
    table = modulus_table(f)
    table.fill(xmax)
    offsets = table.offsets[: xmax + 2]
    roots = table.roots[: offsets[-1]]
    offsets.flags.writeable = roots.flags.writeable = False
    return offsets, roots


def _stream_windows(
    fs: Sequence[IntPolynomial], xmax: int, flt: ModulusFilter | None
) -> Iterator[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """The moduli n <= xmax that ``flt`` (all n when None) accepts, a window
    at a time, with the roots of each polynomial in ``fs`` (one
    ``root_table`` each): yields (ns, rows), ns ascending and rows[j] =
    (counts, roots), the counts[k] sorted roots of fs[j] mod ns[k] one row
    after another in roots.  Table windows are int64 arrays (every table n
    is at most 10^8); an explicit list takes ``roots_mod_n`` per listed n,
    so it needs only its own primes, in object arrays of Python ints.
    """
    flt = flt or ModulusFilter.all()
    if flt.kind == "list":
        for n in flt.window(1, xmax + 1).tolist():
            rows = [roots_mod_n(f, n) for f in fs]
            yield np.array([n], object), [(np.array([len(r)]), np.array(r, object)) for r in rows]
        return
    tables = [root_table(f, xmax) for f in fs]
    for lo, hi in _moduli_chunks(1, xmax + 1):
        ns = flt.window(lo, hi)
        if ns.size:
            counts = [(offsets[ns + 1] - offsets[ns]).astype(np.int64) for offsets, _ in tables]
            yield ns, [
                (c, roots[_ranges(offsets[ns], c)].astype(np.int64))
                for c, (offsets, roots) in zip(counts, tables)
            ]


def root_stream(
    f: IntPolynomial, xmax: int, flt: ModulusFilter | None = None
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, sorted roots of f mod n) for the n <= xmax that ``flt`` accepts
    (all n by default), ascending, empty root sets included, from f's kept
    ``root_table`` (read on the first item).  Only a nonempty row becomes a
    tuple of its own; every empty one is the shared ().
    """
    if xmax < 1:
        raise InvalidArgumentError("xmax must be at least 1")

    def rows(counts: np.ndarray, roots: np.ndarray) -> list[tuple[int, ...]]:
        vals, ends = roots.tolist(), np.cumsum(counts)
        nz = np.flatnonzero(counts)
        out: list[tuple[int, ...]] = [()] * counts.size
        for i, a, b in zip(nz.tolist(), (ends - counts)[nz].tolist(), ends[nz].tolist()):
            out[i] = tuple(vals[a:b])
        return out

    windows = _stream_windows((f,), xmax, flt)
    return itertools.chain.from_iterable(zip(ns.tolist(), rows(*row)) for ns, (row,) in windows)


def clear_caches() -> None:
    """Drop the memoized root stores and the kept tables (mainly for tests)."""
    _prime_roots_cached.cache_clear()
    _prime_power_roots_cached.cache_clear()
    _modulus_tables.clear()
