"""Independent reference implementations used only to check the package.

Everything here is deliberately written a different way from the library:
direct scans, schoolbook trial division, exact rational arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
import cmath

import numpy as np


def brute_roots(coeffs, n):
    """Roots of the polynomial mod n by scanning every residue (numpy Horner)."""
    if n == 1:
        return [0]
    v = np.arange(n, dtype=object if n > 3_000_000 else np.int64)
    acc = np.full(n, coeffs[-1] % n, dtype=v.dtype)
    for c in reversed(coeffs[:-1]):
        acc = (acc * v + c) % n
    return [int(r) for r in np.flatnonzero(acc == 0)]


def brute_roots_py(coeffs, n):
    """Pure-python variant of brute_roots (slow, no numpy)."""
    out = []
    for v in range(n):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * v + c) % n
        if acc == 0:
            out.append(v)
    return out if n > 1 else [0]


def eratosthenes(limit):
    """Boolean primality table via the classic sieve (bytearray, no numpy)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        p += 1
    return flags


def trial_factorize(n):
    """Schoolbook trial division."""
    parts = []
    m = n
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            parts.append((d, e))
        d += 1
    if m > 1:
        parts.append((m, 1))
    return parts


def rational_root_search(coeffs):
    """Some rational root p/q with p | c0 and q | c_d, or None: every
    candidate is tried by evaluating q^d f(p/q) in integers."""
    c0, cd = coeffs[0], coeffs[-1]
    if c0 == 0:
        return Fraction(0)
    d = len(coeffs) - 1
    for q in _divisors(cd):
        for p in _divisors(c0):
            for num in (p, -p):
                val = 0  # Horner for q^d f(num/q)
                for i in range(d, -1, -1):
                    val = val * num + coeffs[i] * q ** (d - i)
                if val == 0:
                    return Fraction(num, q)
    return None


@lru_cache(maxsize=None)
def _divisors(m):
    return [k for k in range(1, abs(m) + 1) if m % k == 0]


def exact_star_discrepancy(pairs):
    """Exact rational star discrepancy of points given as (numerator, denominator)."""
    xs = sorted(Fraction(v, n) for v, n in pairs)
    cnt = len(xs)
    best = Fraction(0)
    for i, x in enumerate(xs, 1):
        best = max(best, Fraction(i, cnt) - x, x - Fraction(i - 1, cnt))
    return best


def direct_exp_sum(roots, h, n):
    """Naive float evaluation of the root exponential sum."""
    return sum(cmath.exp(2j * cmath.pi * h * v / n) for v in roots) if roots else 0j


def van_der_corput(count, base=2):
    """First ``count`` points of the base-b radical-inverse sequence."""
    pts = []
    for k in range(1, count + 1):
        x = 0.0
        denom = base
        m = k
        while m:
            m, digit = divmod(m, base)
            x += digit / denom
            denom *= base
        pts.append(x)
    return pts
