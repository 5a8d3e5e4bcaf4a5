"""Exponential sums over root sets, checkpointed Weyl series, discrepancy
measures, and prime-counting statistics.

Accumulation order is pinned to ascending modulus and float sums carry Kahan
compensation, so identical inputs reproduce identical output bytes.  Phases
are reduced mod 1 in integer arithmetic before any float conversion.

Stream consumers read every ``root_stream`` item (the benchmark counts them)
and work its nonempty rows in numpy, fewer than _TABLE_CHUNK consecutive n at
a time: ``_phase_sums`` does what ``root_exp_sum`` does per modulus, in its
order, and the per-modulus sums enter the Kahan sums in ascending n, so every
bit is as the scalar loop left it.  A checkpointed walk streams, and fills
tables, only up to its last checkpoint; xmax bounds the checkpoints.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidArgumentError
from .intpoly import IntPolynomial
from .modarith import SpfSieve, euler_phi, factorize, inverse
from .roots import (_INT64_MODULUS_BOUND, _TABLE_CHUNK, ModulusFilter, _lane_residues,
                    _prime_power_roots_cached, prime_counts, root_stream, roots_mod_n)

_TWO_PI = 2.0 * math.pi


class KahanSum:
    """Compensated accumulator.  Started at 0j it sums complex terms: every
    operation is then complex with complex, which CPython does componentwise,
    so the result has the bits of two float sums."""

    __slots__ = ("value", "_c")

    def __init__(self, zero: float | complex = 0.0):
        self.value = zero
        self._c = zero

    def add(self, x: float | complex) -> None:
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t

    def extend(self, xs: Iterable[float]) -> None:
        """``add`` each of xs in order, on locals."""
        s, c = self.value, self._c
        for x in xs:
            y = x - c
            t = s + y
            c = (t - s) - y
            s = t
        self.value, self._c = s, c


def root_exp_sum(
    f: IntPolynomial,
    h: int,
    n: int,
    roots: tuple[int, ...] | None = None,
) -> complex:
    """Sum of exp(2*pi*i*h*v/n) over the roots v of f mod n.

    At h = 0 (or h divisible by n) this degenerates to the root count.  The
    modulus of the result never exceeds the root count.
    """
    if roots is None:
        roots = roots_mod_n(f, n)
    if h % n == 0:
        return complex(len(roots), 0.0)
    total_re = 0.0
    total_im = 0.0
    for v in roots:
        z = cmath.exp(complex(0.0, _TWO_PI * (h * v % n / n)))  # reduced mod 1 exactly
        total_re += z.real
        total_im += z.imag
    return complex(total_re, total_im)


def _phase_sums(ns, counts, roots, hn) -> tuple[np.ndarray, np.ndarray]:
    """(re, im): ``root_exp_sum`` bit for bit for each of the moduli ns, with
    rows (counts, roots) as ``_stream_windows`` makes them and hn = h mod n.
    Step j adds cos and sin of 2 pi (t / n), t = hn v mod n, for the j-th root
    v of every modulus that has one; h = 0 mod n adds cos 0 = 1 per root."""
    own = np.repeat(np.arange(ns.size), counts)
    n = ns[own]
    y = _TWO_PI * np.asarray(hn[own] * roots % n / n, dtype=np.float64)
    cos, sin = np.cos(y), np.sin(y)
    first = np.cumsum(counts) - counts
    re, im = np.zeros(ns.size), np.zeros(ns.size)
    live, j = np.flatnonzero(counts), 0
    while live.size:
        re[live] += cos[first[live] + j]
        im[live] += sin[first[live] + j]
        j += 1
        live = live[counts[live] > j]
    return re, im


def _windows(stream: Iterable[tuple[int, tuple[int, ...]]]) -> Iterator:
    """The nonempty rows of an ascending (n, roots) stream as windows (ns,
    [(counts, roots)]) over fewer than _TABLE_CHUNK consecutive n, as a table
    window is, arrays as in ``_stream_windows``.  Every item is read."""

    def window():
        dt = np.int64 if not ns or ns[-1] <= _INT64_MODULUS_BOUND else object
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        flat = np.fromiter(itertools.chain.from_iterable(rows), dt, int(counts.sum()))
        return np.array(ns, dtype=dt), [(counts, flat)]

    ns: list[int] = []
    rows: list[tuple[int, ...]] = []
    for n, roots in stream:
        if roots:
            if ns and n - ns[0] >= _TABLE_CHUNK:
                yield window()
                ns, rows = [], []
            ns.append(n)
            rows.append(roots)
    yield window()


def _segments(windows: Iterable[tuple[np.ndarray, list]], checkpoints: list[int]) -> Iterator:
    """Cut ascending windows (ns, rows), none past the last checkpoint, at the
    checkpoints: yields (segment, done), segment a piece of a window or None,
    and done true once every n up to the next checkpoint has been yielded."""
    cps = iter(checkpoints)
    c = next(cps)
    for ns, rows in windows:
        ends = [np.concatenate(([0], np.cumsum(k))) for k, _ in rows]
        lo = 0
        while True:
            hi = int(np.searchsorted(ns, c, side="right"))
            yield (ns[lo:hi], [(k[lo:hi], v[e[lo] : e[hi]]) for (k, v), e in zip(rows, ends)]), hi < ns.size
            if hi == ns.size:
                break
            lo, c = hi, next(cps)
    yield None, True
    for _ in cps:
        yield None, True


def _cross_inverses(n1: int, n2: int) -> tuple[int, int]:
    """(nbar2, nbar1) for coprime n1, n2: nbar2 inverts n2 mod n1 and nbar1
    inverts n1 mod n2, each 0 when its modulus is 1."""
    if math.gcd(n1, n2) != 1:
        raise InvalidArgumentError(f"{n1} and {n2} are not coprime")
    nbar2 = inverse(n2 % n1, n1) if n1 > 1 else 0
    nbar1 = inverse(n1 % n2, n2) if n2 > 1 else 0
    return nbar2, nbar1


def root_exp_sum_factored(f: IntPolynomial, h: int, n1: int, n2: int) -> complex:
    """The coprime-split product form of the exponential sum.

    With nbar_i the inverse of n_i modulo the other factor, the sum over the
    combined modulus factors as the product of twisted sums over the parts.
    """
    nbar2, nbar1 = _cross_inverses(n1, n2)
    return root_exp_sum(f, h * nbar2, n1) * root_exp_sum(f, h * nbar1, n2)


@dataclass(frozen=True)
class HSpec:
    """Frequency choice for Weyl sums: a constant h, or per-modulus inverse
    of a fixed m (the unique h(n) in [0, n) with m*h(n) = 1 mod n)."""

    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in ("const", "inverse"):
            raise InvalidArgumentError(f"unknown h mode {self.kind!r}")
        if self.kind == "inverse" and self.value < 1:
            raise InvalidArgumentError("inverse mode needs a positive m")

    @classmethod
    def const(cls, h: int) -> "HSpec":
        return cls("const", h)

    @classmethod
    def inverse_of(cls, m: int) -> "HSpec":
        return cls("inverse", m)

    @classmethod
    def parse(cls, text: str) -> "HSpec":
        text = text.strip()
        if text.startswith("inv:"):
            try:
                return cls.inverse_of(int(text[4:]))
            except ValueError as exc:
                raise InvalidArgumentError(f"cannot parse h spec {text!r}: {exc}") from None
        try:
            return cls.const(int(text))
        except ValueError as exc:
            raise InvalidArgumentError(f"cannot parse h spec {text!r}: {exc}") from None


def decades(xmax: int) -> list[int]:
    """Default checkpoints: powers of ten up to xmax, then xmax itself."""
    if xmax < 1:
        raise InvalidArgumentError("xmax must be at least 1")
    cps = []
    c = 10
    while c <= xmax:
        cps.append(c)
        c *= 10
    if not cps or cps[-1] != xmax:
        cps.append(xmax)
    return cps


def _checkpoint_list(checkpoints: Iterable[int] | None, xmax: int, lo: int = 1) -> list[int]:
    """The distinct checkpoints ascending, decades(xmax) by default; every
    one must lie in [lo, xmax]."""
    if checkpoints is None:
        checkpoints = decades(xmax)
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < lo or cps[-1] > xmax:
        raise InvalidArgumentError(f"checkpoints must lie in [{lo}, xmax]")
    return cps


@dataclass
class WeylSeries:
    """Checkpointed partial exponential sums along a filtered modulus stream.

    signed[k] is the complex sum of the per-modulus sums up to checkpoint k,
    abs_sum[k] the sum of their moduli, and normalizer[k] the exact count of
    contributing roots.  W = |signed| / normalizer is the normalized Weyl
    statistic; a zero normalizer flags the checkpoint and reports W as NaN.
    """

    h: HSpec
    checkpoints: list[int]
    signed: list[complex] = field(default_factory=list)
    abs_sum: list[float] = field(default_factory=list)
    normalizer: list[int] = field(default_factory=list)
    empty_flags: list[bool] = field(default_factory=list)

    @property
    def weyl_statistic(self) -> list[float]:
        out = []
        for z, norm in zip(self.signed, self.normalizer):
            out.append(abs(z) / norm if norm > 0 else math.nan)
        return out

    def csv_rows(self) -> list[list[str]]:
        rows = [["x", "signed_re", "signed_im", "abs_sum", "normalizer", "W"]]
        for x, z, a, norm, w in zip(
            self.checkpoints, self.signed, self.abs_sum, self.normalizer, self.weyl_statistic
        ):
            rows.append(
                [str(x), f"{z.real:.12g}", f"{z.imag:.12g}", f"{a:.12g}", str(norm), f"{w:.12g}"]
            )
        return rows


def weyl_series(
    f: IntPolynomial,
    h: HSpec | int,
    xmax: int,
    flt: ModulusFilter | None = None,
    checkpoints: list[int] | None = None,
    sieve: SpfSieve | None = None,
) -> WeylSeries:
    """Accumulate the Weyl partial sums over the filtered stream up to xmax.

    In inverse mode only moduli prime to m contribute (the inverse must
    exist): the caller's filter runs with prime_to = lcm(prime_to, m).
    """
    if isinstance(h, int):
        h = HSpec.const(h)
    checkpoints = _checkpoint_list(checkpoints, xmax)
    if flt is None:
        flt = ModulusFilter.all()
    if h.kind == "inverse":
        flt = replace(flt, prime_to=math.lcm(flt.prime_to, h.value))

    series = WeylSeries(h=h, checkpoints=checkpoints)
    sums = [KahanSum(), KahanSum(), KahanSum()]  # re, im, |term|
    norm = 0
    stream = _windows(root_stream(f, checkpoints[-1], flt, sieve))
    for seg, done in _segments(stream, checkpoints):
        if seg:
            ns, ((counts, roots),) = seg
            hn = _lane_residues(h.value, ns) if h.kind == "const" else np.array(
                [inverse(h.value % n, n) if n > 1 else 0 for n in ns.tolist()], ns.dtype)
            re, im = _phase_sums(ns, counts, roots, hn)
            for acc, xs in zip(sums, (re, im, np.hypot(re, im))):
                acc.extend(xs.tolist())
            norm += int(counts.sum())
        if done:
            series.signed.append(complex(sums[0].value, sums[1].value))
            series.abs_sum.append(sums[2].value)
            series.normalizer.append(norm)
            series.empty_flags.append(norm == 0)
    return series


def ratio_points(
    f: IntPolynomial,
    xmax: int,
    flt: ModulusFilter | None = None,
    sieve: SpfSieve | None = None,
) -> np.ndarray:
    """The fractions v/n for every root along the stream, in stream order."""
    pts = [
        np.asarray(roots / np.repeat(ns, counts), dtype=np.float64)
        for ns, ((counts, roots),) in _windows(root_stream(f, xmax, flt, sieve))
    ]
    return np.concatenate(pts)


def star_discrepancy(points) -> float:
    """Exact one-dimensional star discrepancy of a point sample in [0, 1)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InvalidArgumentError("star discrepancy of an empty sample is undefined")
    if pts.min() < 0.0 or pts.max() >= 1.0:
        raise InvalidArgumentError("points must lie in [0, 1)")
    pts = np.sort(pts)
    n = pts.size
    idx = np.arange(1, n + 1, dtype=np.float64)
    up = np.max(idx / n - pts)
    down = np.max(pts - (idx - 1.0) / n)
    return float(max(up, down))


def box_discrepancy(points, grid: int) -> float:
    """Anchored-box discrepancy over a uniform grid of corner coordinates.

    Each point is binned on a grid^r lattice and empirical box counts are
    compared with box volumes at every grid corner.  This is a documented
    approximation of the star discrepancy; exact computation in r > 1
    dimensions is not needed for trend checks.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise InvalidArgumentError("box discrepancy of an empty sample is undefined")
    if grid < 2:
        raise InvalidArgumentError("grid resolution must be at least 2")
    r = pts.shape[1]
    hist, _ = np.histogramdd(pts, bins=[grid] * r, range=[(0.0, 1.0)] * r)
    return box_discrepancy_from_hist(hist, int(pts.shape[0]))


def box_discrepancy_from_hist(hist: np.ndarray, count: int) -> float:
    """Anchored-box discrepancy from precomputed lattice counts."""
    if count < 1:
        raise InvalidArgumentError("box discrepancy of an empty sample is undefined")
    r = hist.ndim
    grid = hist.shape[0]
    pref = hist.astype(np.float64)
    for axis in range(r):
        pref = np.cumsum(pref, axis=axis)
        pad = [(1, 0) if a == axis else (0, 0) for a in range(r)]
        pref = np.pad(pref, pad)
    emp = pref / count
    axes = np.arange(grid + 1, dtype=np.float64) / grid
    vol = axes
    for _ in range(r - 1):
        vol = np.multiply.outer(vol, axes)
    return float(np.max(np.abs(emp - vol)))


@dataclass(frozen=True)
class DiscrepancyReport:
    """A discrepancy value with the sample size and method that produced it."""

    sample_count: int
    value: float
    kind: str  # "star" (1-D exact) or "box" (grid approximation)
    checkpoint: int
    grid: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidArgumentError("discrepancy must lie in [0, 1]")
        if self.kind == "star" and self.value < 1.0 / (2.0 * self.sample_count):
            raise InvalidArgumentError(
                "one-dimensional star discrepancy cannot be below 1/(2N)"
            )


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def split_prime_count(f: IntPolynomial, n: int) -> int:
    """Number of primes dividing n that avoid eta*disc and split completely,
    i.e. have a full set of deg(f) roots."""
    if n < 1:
        raise InvalidArgumentError("modulus must be positive")
    if n == 1:
        return 0
    bad = f.eta * f.discriminant
    count = 0
    for p, _ in factorize(n).parts:
        if bad % p != 0 and len(_prime_power_roots_cached(f, p, 1)) == f.degree:
            count += 1
    return count


def dilated_sum_square_bound(f: IntPolynomial, h: int, n: int) -> BoundCheck:
    """Mean-square bound for the dilated exponential sums.

    Compares sum over a = 1..n of |S(a*h, n)|^2 against
    n * gcd(h, n) * rho(n)^2 / d^(number of split primes dividing n),
    where S is the root exponential sum and rho the root count.
    """
    roots = roots_mod_n(f, n)
    lhs_acc = KahanSum()
    for a in range(1, n + 1):
        lhs_acc.add(abs(root_exp_sum(f, a * h, n, roots)) ** 2)
    lhs = lhs_acc.value
    rho = len(roots)
    omega = split_prime_count(f, n)
    rhs = n * math.gcd(h, n) * rho * rho / f.degree**omega
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-6)


@dataclass
class PrimeStats:
    """Cumulative statistics over primes at each checkpoint.

    Row columns: x, sum of per-prime root counts, x/log x, prime count,
    (sum of rho(p)/p) - log log x, prod(1 + rho(p)/p) / log x, and the same
    product restricted to split primes divided by log^(1/closure_index) x.
    The three trailing columns stabilize toward constants; their values at
    the last checkpoint are the reported estimates.
    """

    checkpoints: list[int]
    rows: list[tuple[int, int, float, int, float, float, float]]
    closure_index: int

    def csv_rows(self) -> list[list[str]]:
        head = ["x", "sum_rho_p", "x_over_log_x", "pi_x", "c2_partial", "c3_partial", "c4_partial"]
        out = [head]
        for x, s, xl, pi, c2, c3, c4 in self.rows:
            out.append([str(x), str(s), f"{xl:.12g}", str(pi), f"{c2:.12g}", f"{c3:.12g}", f"{c4:.12g}"])
        return out


def prime_stats(
    f: IntPolynomial,
    xmax: int,
    checkpoints: list[int] | None = None,
    closure_index: int = 1,
    sieve: SpfSieve | None = None,
) -> PrimeStats:
    """Accumulate root counts over primes up to xmax.

    closure_index is the degree of the normal closure of the root field over
    the root field itself; it is 1 whenever that extension is trivial (as for
    quadratic fields) and must be supplied by the caller otherwise, since
    Galois closures are not computed here.  The primes and their root counts
    come from ``prime_counts``, so ``sieve`` is not consulted.
    """
    if xmax < 2:
        raise InvalidArgumentError("xmax must be at least 2")
    if closure_index < 1:
        raise InvalidArgumentError("closure index must be at least 1")
    checkpoints = _checkpoint_list(checkpoints, xmax, lo=2)
    bad = f.eta * f.discriminant
    d = f.degree
    sum_rho = 0
    pi = 0
    ratio_acc = KahanSum()
    log_prod = KahanSum()
    log_prod_split = KahanSum()
    rows: list[tuple[int, int, float, int, float, float, float]] = []

    def snapshot(x: int) -> None:
        logx = math.log(x)
        rows.append(
            (
                x,
                sum_rho,
                x / logx,
                pi,
                ratio_acc.value - math.log(logx),
                math.exp(log_prod.value) / logx,
                math.exp(log_prod_split.value) / logx ** (1.0 / closure_index),
            )
        )

    primes, counts = prime_counts(f, checkpoints[-1])
    cuts = np.searchsorted(primes, checkpoints, side="right").tolist()
    for x, lo, hi in zip(checkpoints, [0] + cuts, cuts):
        for p, rho in zip(primes[lo:hi].tolist(), counts[lo:hi].tolist()):
            if rho:
                sum_rho += rho
                ratio_acc.add(rho / p)
                log_prod.add(math.log1p(rho / p))
                if rho == d and bad % p != 0:
                    log_prod_split.add(math.log1p(rho / p))
        pi = hi
        snapshot(x)
    return PrimeStats(checkpoints, rows, closure_index)


@dataclass
class ProgressionSums:
    """Exact root-count sums over moduli in one residue class."""

    residue: int
    modulus: int
    checkpoints: list[int]
    sums: list[int]
    phi: int  # Euler phi of the modulus

    def csv_rows(self) -> list[list[str]]:
        out = [["x", "sum_rho", "slope_estimate"]]
        for x, s in zip(self.checkpoints, self.sums):
            out.append([str(x), str(s), f"{s * self.phi / x:.12g}"])
        return out


def progression_root_sums(
    f: IntPolynomial,
    a: int,
    m: int,
    xmax: int,
    checkpoints: list[int] | None = None,
    sieve: SpfSieve | None = None,
) -> ProgressionSums:
    """Sum of root counts over n = a mod m up to xmax, with a slope estimate.

    Requires gcd(a, m) = 1; m = 1 gives the unrestricted sum.
    """
    flt = ModulusFilter.progression(a, m)
    checkpoints = _checkpoint_list(checkpoints, xmax)
    sums: list[int] = []
    acc = 0
    for seg, done in _segments(_windows(root_stream(f, checkpoints[-1], flt, sieve)), checkpoints):
        acc += int(seg[1][0][0].sum()) if seg else 0
        if done:
            sums.append(acc)
    phi_m = euler_phi(factorize(m))
    return ProgressionSums(flt.a, m, checkpoints, sums, phi_m)
