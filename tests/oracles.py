"""Independent reference implementations used only to check the package.

Everything here is deliberately written a different way from the library:
direct scans, schoolbook trial division, exact rational arithmetic, and
one-level-at-a-time digit towers with full-precision phases.
"""

from fractions import Fraction
from functools import lru_cache
import cmath
import itertools
import math
import random

import numpy as np

from rootdist import (
    HSpec,
    JointWeylSeries,
    ModulusFilter,
    WeylSeries,
    inverse,
    poly_eval_mod,
    root_exp_sum,
    root_stream,
    roots_mod_n,
)
from rootdist.equidist import KahanSum, _checkpoint_list, box_discrepancy_from_hist
from rootdist.modarith import Factorization, cached_sieve, spf_parts
from rootdist.nadic import _SPARSE_FACTOR, NormalityReport
from rootdist.roots import PrimeRootTable, roots_from_factorization
from rootdist.systems import default_hset


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


def lattice_roots_x2p1(xmax):
    """(offsets, roots) of x^2 + 1 mod every n <= xmax, laid out as
    ``root_table``'s, from lattice points alone: no sieve, lift or CRT.

    Each root mod n is one primitive vector (r, s), r > 0, s >= 0, with
    r^2 + s^2 = n (one per orbit of the units 1, i, -1, -i).  Complete it by
    u = r^-1 mod s (u = 1 at s = 0) and t = (r u - 1) / s; then v = r t + s u
    satisfies v s = u n - r, so v = -r/s and v^2 = r^2/s^2 = -1 mod n.  All
    vectors at once, u by a vectorized extended Euclid.
    """
    k = np.array([math.isqrt(xmax - s * s) for s in range(math.isqrt(xmax) + 1)])
    s = np.repeat(np.arange(k.size), k)
    r = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k) + 1
    keep = np.gcd(r, s) == 1
    r, s = r[keep], s[keep]
    a, b, x, y = r, s, np.ones_like(r), np.zeros_like(r)  # a = x r, b = y r mod s
    while (live := b != 0).any():
        q = np.where(live, a // np.where(live, b, 1), 0)
        a, b = np.where(live, b, a), np.where(live, a - q * b, b)
        x, y = np.where(live, y, x), np.where(live, x - q * y, y)
    one = np.maximum(s, 1)
    u = np.where(s > 0, x % one, 1)
    t = (r * u - 1) // one
    n = r * r + s * s
    v = (r * t + s * u) % n
    order = np.lexsort((v, n))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(n, minlength=xmax + 1))))
    return offsets, v[order]


def lattice_roots_monic_quadratic(b, c, xmax):
    """Sorted roots of x^2 + b x + c mod every n <= xmax, b^2 - 4c = D < 0,
    from the reduced binary quadratic forms (Gauss; Cox, *Primes of the Form
    x^2 + ny^2*, sections 2-3).

    v is a root mod n exactly when B = 2v + b has B^2 = D mod 4n, so each
    root is a form [n, B, (B^2 - D)/4n] with B mod 2n.  It is g times a
    primitive form of discriminant D/g^2, which is Q o gamma for exactly one
    reduced Q = [a, b', c'] and gamma = [[r, t], [s, u]] in SL2(Z): then
    n = g Q(r, s) and B = g (2a r t + b'(r u + s t) + 2c' s u).  So every
    primitive (r, s) of every reduced Q gives a root, and a set per n drops
    the repeats that the automorphisms of Q make.
    """
    D = b * b - 4 * c
    assert D < 0
    found = [set() for _ in range(xmax + 1)]
    for g in range(1, math.isqrt(-D) + 1):
        if D % (g * g) or (D // (g * g)) % 4 not in (0, 1):
            continue
        disc = D // (g * g)
        for qa in range(1, math.isqrt(-disc // 3) + 1):
            for qb in range(-qa + 1, qa + 1):
                if (qb * qb - disc) % (4 * qa):
                    continue
                qc = (qb * qb - disc) // (4 * qa)
                if qc < qa or (qc == qa and qb < 0) or math.gcd(qa, qb, qc) != 1:
                    continue
                # reduced: Q(r, s) >= qa (r^2 - |r s| + s^2) >= qa max(|r|, |s|)^2 / 2
                R = math.isqrt(2 * (xmax // g) // qa) + 1
                for r in range(-R, R + 1):
                    for s in range(-R, R + 1):
                        n = g * (qa * r * r + qb * r * s + qc * s * s)
                        if n > xmax or math.gcd(r, s) != 1:
                            continue
                        u = pow(r, -1, abs(s)) if s else r
                        t = (r * u - 1) // s if s else 0
                        B = g * (2 * qa * r * t + qb * (r * u + s * t) + 2 * qc * s * u)
                        found[n].add((B - b) // 2 % n)
    return [sorted(vs) for vs in found]


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
    counted by a rolling window code in a dict and tallied in code order."""
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
    tally = tuple(counts.get(code, 0) for code in range(table_size))
    for c in tally:
        max_dev = max(max_dev, abs(c / windows - uniform))
        chi += (c - expected) ** 2 / expected
    return NormalityReport(
        base=base,
        word_length=word_length,
        window_count=windows,
        tally=tally,
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


# -- scalar stream consumers ----------------------------------------------
#
# The per-modulus loops that the numpy stream consumers replaced: one
# root_exp_sum (cmath.exp per root) and one complex KahanSum.add per modulus.


def checkpointed(items, checkpoints, snapshot):
    """Pass through items keyed by an ascending item[0], calling snapshot(c)
    for each checkpoint c once every item with key <= c has been passed on;
    stop at the first item past the last checkpoint."""
    cps = iter(checkpoints)
    c = next(cps, None)
    for item in items:
        while c is not None and item[0] > c:
            snapshot(c)
            c = next(cps, None)
        if c is None:
            return
        yield item
    while c is not None:
        snapshot(c)
        c = next(cps, None)


def scalar_weyl_series(f, h, xmax, flt=None, checkpoints=None):
    if isinstance(h, int):
        h = HSpec.const(h)
    checkpoints = _checkpoint_list(checkpoints, xmax)
    flt = flt or ModulusFilter.all()
    if h.kind == "inverse":
        flt = ModulusFilter(flt.kind, flt.a, flt.m, flt.values, math.lcm(flt.prime_to, h.value))
    series = WeylSeries(h=h, checkpoints=checkpoints)
    acc, abs_acc = KahanSum(0j), KahanSum()
    norm = 0

    def snapshot(_):
        series.signed.append(acc.value)
        series.abs_sum.append(abs_acc.value)
        series.normalizer.append(norm)
        series.empty_flags.append(norm == 0)

    for n, roots in checkpointed(root_stream(f, xmax, flt), checkpoints, snapshot):
        if not roots:
            continue
        norm += len(roots)
        hn = h.value if h.kind == "const" else (inverse(h.value % n, n) if n > 1 else 0)
        term = root_exp_sum(f, hn, n, roots)
        acc.add(term)
        abs_acc.add(abs(term))
    return series


def scalar_ratio_points(f, xmax, flt=None):
    return np.asarray([v / n for n, roots in root_stream(f, xmax, flt) for v in roots], dtype=np.float64)


def scalar_progression_sums(f, a, m, xmax, checkpoints=None):
    """The sums column of ``progression_root_sums``."""
    checkpoints = _checkpoint_list(checkpoints, xmax)
    sums = []
    acc = 0
    stream = root_stream(f, xmax, ModulusFilter.progression(a, m))
    for _, roots in checkpointed(stream, checkpoints, lambda _: sums.append(acc)):
        acc += len(roots)
    return sums


def scalar_joint_weyl_series(system, xmax, checkpoints=None, grid=None, flt=None, cloud_sink=None):
    r = system.dimension
    hset = default_hset(r)
    grid = grid or {1: 64, 2: 64, 3: 16}[r]
    checkpoints = _checkpoint_list(checkpoints, xmax)
    flt = flt or ModulusFilter.all()
    series = JointWeylSeries(hset=hset, checkpoints=checkpoints, grid=grid, dimension=r)
    for h in hset:
        series.signed[h], series.abs_sum[h] = [], []
    acc = {h: KahanSum(0j) for h in hset}
    abs_acc = {h: KahanSum() for h in hset}
    hist = np.zeros((grid,) * r, dtype=np.int64)
    norm = 0

    def snapshot(_):
        series.normalizer.append(norm)
        for h in hset:
            series.signed[h].append(acc[h].value)
            series.abs_sum[h].append(abs_acc[h].value)
        series.box_disc.append(box_discrepancy_from_hist(hist, norm) if norm else 1.0)

    streams = [root_stream(f, xmax, flt) for f in system.polys]
    moduli = ((items[0][0], [roots for _, roots in items]) for items in zip(*streams))
    for n, per_poly in checkpointed(moduli, checkpoints, snapshot):
        count = math.prod(len(roots) for roots in per_poly)
        if count == 0:
            continue
        norm += count
        for h in hset:
            # joint_exp_sum over the streamed root sets
            term = math.prod(map(root_exp_sum, system.polys, h, [n] * r, per_poly), start=complex(1.0, 0.0))
            acc[h].add(term)
            abs_acc[h].add(abs(term))
        for tup in itertools.product(*per_poly):
            hist[tuple((v * grid) // n for v in tup)] += 1
            if cloud_sink is not None:
                cloud_sink(n, tup)
    return series


def scalar_prime_stats(f, xmax, checkpoints=None, closure_index=1):
    """The rows of ``prime_stats`` by its per-prime loop: one ``KahanSum.add``
    per prime with a root for each sum, in ascending p, over the root counts
    of a prime table (the table route: gcd and splitting, or Tonelli-Shanks
    for a quadratic)."""
    checkpoints = _checkpoint_list(checkpoints, xmax, lo=2)
    table = PrimeRootTable(f)
    table.fill(checkpoints[-1])
    bad, d = f.eta * f.discriminant, f.degree
    ratio_acc, log_prod, log_prod_split = KahanSum(), KahanSum(), KahanSum()
    sum_rho = pi = 0
    rows = []

    def snapshot(x):
        logx = math.log(x)
        rows.append((
            x,
            sum_rho,
            x / logx,
            pi,
            ratio_acc.value - math.log(logx),
            math.exp(log_prod.value) / logx,
            math.exp(log_prod_split.value) / logx ** (1.0 / closure_index),
        ))

    items = zip(table.primes.tolist(), table.rho().tolist())
    for p, rho in checkpointed(items, checkpoints, snapshot):
        pi += 1
        if rho:
            sum_rho += rho
            ratio_acc.add(rho / p)
            log_prod.add(math.log1p(rho / p))
            if rho == d and bad % p != 0:
                log_prod_split.add(math.log1p(rho / p))
    return rows
