"""Independent reference implementations used only to check the package.

Everything here is deliberately written a different way from the library:
direct scans, schoolbook trial division, exact rational arithmetic, and
one-level-at-a-time digit towers with full-precision phases.
"""

from fractions import Fraction
from functools import lru_cache
import cmath
import math
import random

import numpy as np

from rootdist import inverse, poly_eval_mod, roots_mod_n
from rootdist.modarith import Factorization, cached_sieve, spf_parts
from rootdist.nadic import _SPARSE_FACTOR, NormalityReport
from rootdist.roots import roots_from_factorization


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


def factored_root_stream(f, xmax, flt=None):
    """(n, roots of f mod n) for the accepted n <= xmax, one modulus at a
    time: n factored by its smallest prime factors (``spf_parts``), the
    filter decided from n and that factorization (and gcd(n, prime_to)),
    and the cached prime-power root sets glued through the CRT."""
    sieve = cached_sieve(xmax)
    for n in range(1, xmax + 1):
        if flt is not None and math.gcd(n, flt.prime_to) != 1:
            continue
        parts = spf_parts(n, sieve)
        kind = "all" if flt is None else flt.kind
        if kind == "squarefree":
            keep = all(e == 1 for _, e in parts)
        elif kind == "progression":
            keep = n % flt.m == flt.a
        elif kind == "list":
            keep = n in flt.values
        else:
            keep = True
        if keep:
            yield n, roots_from_factorization(f, Factorization(n, tuple(parts)))


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


def linear_hensel_digits(f, base, depth):
    """Digit tuples of every base-n root of f, one per root mod n, by one
    linear Hensel update per level with a full-precision evaluation each
    time (O(depth^2))."""
    out = []
    for seed in roots_mod_n(f, base):
        u = inverse(f.deriv_mod(seed, base), base)
        digits = [seed]
        v = seed
        pw = base
        for _ in range(depth - 1):
            pw_next = pw * base
            v_next = (v - poly_eval_mod(f, v, pw_next) * u) % pw_next
            digits.append((v_next - v) // pw)
            v, pw = v_next, pw_next
        out.append(tuple(digits))
    return out


def rolling_word_frequencies(digits, base, word_length):
    """The NormalityReport of word_frequencies for a valid digit sequence,
    counted by a rolling window code in a dict and every word decoded from
    its code by divmod."""
    digits = tuple(digits)
    table_size = base**word_length
    windows = len(digits) - word_length + 1
    counts = {}
    code = 0
    for d in digits[:word_length]:
        code = code * base + d
    counts[code] = 1
    msd = base ** (word_length - 1)
    for i in range(1, windows):
        code = (code - digits[i - 1] * msd) * base + digits[i + word_length - 1]
        counts[code] = counts.get(code, 0) + 1
    uniform = 1.0 / table_size
    expected = windows / table_size
    max_dev = 0.0
    chi = 0.0
    table = []
    for code in range(table_size):
        c = counts.get(code, 0)
        word = []
        x = code
        for _ in range(word_length):
            x, d = divmod(x, base)
            word.append(d)
        table.append((tuple(reversed(word)), c))
        max_dev = max(max_dev, abs(c / windows - uniform))
        chi += (c - expected) ** 2 / expected
    return NormalityReport(
        base=base,
        word_length=word_length,
        window_count=windows,
        counts=tuple(table),
        max_deviation=max_dev,
        chi_square=chi,
        sparse=len(digits) < table_size * _SPARSE_FACTOR,
    )


def scalar_phase_walk(digits, base, h, acc):
    """Yield acc plus e(h*P_k/n^k) over k = 1..l for l = 1..len(digits): the
    64-bit cell of every level read off a rolling window of the top digits
    (recomputed from the whole prefix where the window cannot certify it),
    turned into a phase by cmath.exp and added with Python's complex adds.
    The window is kept on purpose: it derives the cells independently of the
    recurrence that rootdist.nadic uses."""
    bound = abs(h) << 88
    width, top = 1, base
    while top < bound:
        width += 1
        top *= base
    lead = top // base
    h64 = h << 64
    window = 0
    for l, a in enumerate(digits, 1):
        window = a * lead + window // base
        cell, r = divmod(window * h64, top)
        if l > width and not 0 <= r + h64 < top:
            prefix = 0
            for d in reversed(digits[:l]):
                prefix = prefix * base + d
            cell = ((h * prefix) % base**l << 64) // base**l
        acc += cmath.exp(complex(0.0, 2.0 * math.pi * ((cell & (2**64 - 1)) * 2.0**-64)))
        yield acc


def scalar_digits(x, base, count):
    """The count base-n digits of x, least significant first, one divmod each."""
    out = []
    for _ in range(count):
        x, a = divmod(x, base)
        out.append(a)
    return out


def _exact_phase(num, den):
    """exp(2*pi*i*num/den), rounded once to 64 fractional bits of num/den mod 1."""
    t = num % den
    frac = ((t << 64) // den) * 2.0**-64
    return cmath.exp(complex(0.0, 2.0 * math.pi * frac))


def exact_prefix_weyl_sum(digits, base, h, levels):
    """(1/levels) * (1 + sum over l = 1..levels of e(h*prefix_l/n^l)), with
    every prefix rebuilt in full and reduced exactly (O(levels^2))."""
    total = complex(1.0, 0.0)
    prefix = 0
    pw = 1
    for l in range(1, levels + 1):
        prefix += digits[l - 1] * pw
        pw *= base
        total += _exact_phase(h * prefix, pw)
    return total / levels


def exact_haar_monte_carlo(base, levels, samples, seed=0, h=1):
    """(mean, stderr) of |S|^2 over random digit strings, sample i drawn
    from random.Random(f"{seed}:{i}"), phases reduced exactly."""
    total = 0.0
    total_sq = 0.0
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        prefix = 0
        pw = 1
        acc = complex(0.0, 0.0)
        for _ in range(levels):
            prefix += rng.randrange(base) * pw
            pw *= base
            acc += _exact_phase(h * prefix, pw)
        val = abs(acc / levels) ** 2
        total += val
        total_sq += val * val
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)
