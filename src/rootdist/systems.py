"""Simultaneous congruences for several polynomials with pairwise coprime
discriminants: root tuples, joint exponential sums, and r-dimensional
equidistribution trends.

The tuple set mod n is the Cartesian product of the per-polynomial root
sets (sorted tuples), so joint exponential sums factor into one-dimensional
sums and no tuple enumeration is needed to evaluate them; tuples are
materialized only for listings (``root_tuples``, a tuple of root tuples in
lexicographic order) and the discrepancy cloud.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .equidist import (
    KahanSum,
    _checkpoint_list,
    _cross_inverses,
    _phase_sums,
    _segments,
    box_discrepancy_from_hist,
    root_exp_sum,
)
from .errors import InvalidArgumentError
from .intpoly import IntPolynomial
from .modarith import SpfSieve
from .roots import ModulusFilter, _lane_residues, _ranges, _stream_windows, roots_mod_n

_DEFAULT_GRIDS = {1: 64, 2: 64, 3: 16}
_MAX_DIMENSION = 3


@dataclass(frozen=True)
class PolySystem:
    """Polynomials whose discriminants are pairwise coprime.

    eta is the lcm of the per-polynomial constants; the discriminant product
    drives joint admissibility exactly as the single discriminant does in
    the one-polynomial case.
    """

    polys: tuple[IntPolynomial, ...]

    def __post_init__(self):
        if not self.polys:
            raise InvalidArgumentError("a system needs at least one polynomial")
        discs = [p.discriminant for p in self.polys]
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                g = math.gcd(discs[i], discs[j])
                if g != 1:
                    raise InvalidArgumentError(
                        f"discriminants of polynomials {i} and {j} share gcd {g}; "
                        "the system requires pairwise coprime discriminants"
                    )

    @property
    def dimension(self) -> int:
        return len(self.polys)

    @property
    def discriminants(self) -> tuple[int, ...]:
        return tuple(p.discriminant for p in self.polys)

    @property
    def eta(self) -> int:
        return math.lcm(*(p.eta for p in self.polys))


def root_tuples(system: PolySystem, n: int) -> tuple[tuple[int, ...], ...]:
    """Every simultaneous root tuple mod n, in lexicographic order: the
    Cartesian product of the per-polynomial root sets mod n."""
    return tuple(itertools.product(*(roots_mod_n(f, n) for f in system.polys)))


def joint_exp_sum(
    system: PolySystem,
    hvec: tuple[int, ...],
    n: int,
    rootsets: list[tuple[int, ...]] | None = None,
) -> complex:
    """Sum of exp(2*pi*i*(h . v)/n) over all root tuples v.

    Because the tuple set is a product set and the phase splits into per
    coordinate factors, this equals the product of the one-dimensional sums.
    """
    if len(hvec) != system.dimension:
        raise InvalidArgumentError("frequency vector length must match the system")
    if rootsets is None:
        rootsets = [roots_mod_n(f, n) for f in system.polys]
    out = complex(1.0, 0.0)
    for f, h, roots in zip(system.polys, hvec, rootsets):
        out *= root_exp_sum(f, h, n, roots)
        if out == 0:
            return out
    return out


def joint_exp_sum_factored(system: PolySystem, hvec: tuple[int, ...], n1: int, n2: int) -> complex:
    """Coprime-split product form of the joint exponential sum."""
    nbar2, nbar1 = _cross_inverses(n1, n2)
    left = joint_exp_sum(system, tuple(h * nbar2 for h in hvec), n1)
    right = joint_exp_sum(system, tuple(h * nbar1 for h in hvec), n2)
    return left * right


def default_hset(r: int) -> list[tuple[int, ...]]:
    """The nonzero frequency vectors with entries in {-1, 0, 1}."""
    return [h for h in itertools.product((-1, 0, 1), repeat=r) if any(h)]


@dataclass
class JointWeylSeries:
    """Checkpointed joint Weyl sums plus the tuple-cloud box discrepancy."""

    hset: list[tuple[int, ...]]
    checkpoints: list[int]
    grid: int
    dimension: int
    normalizer: list[int] = field(default_factory=list)
    signed: dict[tuple[int, ...], list[complex]] = field(default_factory=dict)
    abs_sum: dict[tuple[int, ...], list[float]] = field(default_factory=dict)
    box_disc: list[float] = field(default_factory=list)

    def weyl_statistic(self, h: tuple[int, ...]) -> list[float]:
        return [
            abs(z) / norm if norm > 0 else math.nan
            for z, norm in zip(self.signed[h], self.normalizer)
        ]

    def csv_rows(self) -> list[list[str]]:
        def tag(h):
            return "_".join(str(c) for c in h)

        head = ["x", "normalizer"]
        for h in self.hset:
            t = tag(h)
            head += [f"signed_re_{t}", f"signed_im_{t}", f"abs_{t}", f"W_{t}"]
        head.append("box_discrepancy")
        rows = [head]
        stats = {h: self.weyl_statistic(h) for h in self.hset}
        for k, x in enumerate(self.checkpoints):
            row = [str(x), str(self.normalizer[k])]
            for h in self.hset:
                z = self.signed[h][k]
                row += [
                    f"{z.real:.12g}",
                    f"{z.imag:.12g}",
                    f"{self.abs_sum[h][k]:.12g}",
                    f"{stats[h][k]:.12g}",
                ]
            row.append(f"{self.box_disc[k]:.12g}")
            rows.append(row)
        return rows


def joint_weyl_series(
    system: PolySystem,
    xmax: int,
    hset: list[tuple[int, ...]] | None = None,
    checkpoints: list[int] | None = None,
    grid: int | None = None,
    flt: ModulusFilter | None = None,
    sieve: SpfSieve | None = None,
    cloud_sink=None,
) -> JointWeylSeries:
    """Stream n ascending, accumulating joint Weyl sums and the box
    discrepancy of the growing tuple cloud {(v_1/n, ..., v_r/n)}.

    ``cloud_sink``, when given, receives one (n, tuple) call per root tuple
    in stream order (used by the CLI to dump the cloud as CSV).
    """
    r = system.dimension
    if r > _MAX_DIMENSION:
        raise InvalidArgumentError(f"dimension {r} exceeds the supported cap {_MAX_DIMENSION}")
    if hset is None:
        hset = default_hset(r)
    hset = [tuple(int(c) for c in h) for h in hset]
    for h in hset:
        if len(h) != r:
            raise InvalidArgumentError("frequency vector length must match the system")
        if not any(h):
            raise InvalidArgumentError("the zero frequency vector is not allowed in hset")
    if grid is None:
        grid = _DEFAULT_GRIDS[r]
    if grid < 2:
        raise InvalidArgumentError("grid resolution must be at least 2")
    if xmax < 1:
        raise InvalidArgumentError("xmax must be at least 1")
    checkpoints = _checkpoint_list(checkpoints, xmax)
    if flt is None:
        flt = ModulusFilter.all()
    series = JointWeylSeries(
        hset=hset,
        checkpoints=checkpoints,
        grid=grid,
        dimension=r,
    )
    for h in hset:
        series.signed[h] = []
        series.abs_sum[h] = []
    sums = {h: (KahanSum(), KahanSum(), KahanSum()) for h in hset}  # re, im, |term|
    norm_acc = 0
    hist = np.zeros((grid,) * r, dtype=np.int64)

    def add(ns: np.ndarray, rows: list[tuple[np.ndarray, np.ndarray]]) -> None:
        nonlocal norm_acc, hist
        phases = {}  # (j, h_j) -> the root_exp_sum of polynomial j per n
        for h in hset:
            # joint_exp_sum: the product of the sums from 1 + 0j, left as it is once exactly 0
            re, im = np.ones(ns.size), np.zeros(ns.size)
            for j, hj in enumerate(h):
                if (j, hj) not in phases:
                    phases[j, hj] = _phase_sums(ns, *rows[j], _lane_residues(hj, ns))
                a, b = phases[j, hj]
                live = (re != 0) | (im != 0)
                re, im = np.where(live, re * a - im * b, re), np.where(live, re * b + im * a, im)
            for acc, xs in zip(sums[h], (re, im, np.hypot(re, im))):
                acc.extend(xs.tolist())
        # every root tuple of every n, lexicographic: the last root varies fastest
        count = np.prod([k for k, _ in rows], axis=0)
        own = np.repeat(np.arange(ns.size), count)
        pos = _ranges(np.zeros_like(count), count)
        cols = []
        for k, roots in reversed(rows):
            cols.insert(0, roots[np.repeat(np.cumsum(k) - k, count) + pos % k[own]])
            pos //= k[own]
        cell = np.zeros(own.size, dtype=np.int64)
        for v in cols:
            cell = cell * grid + np.asarray(v * grid // ns[own], dtype=np.int64)
        hist += np.bincount(cell, minlength=hist.size).reshape(hist.shape)
        norm_acc += own.size
        if cloud_sink is not None:
            for n, *tup in zip(ns[own].tolist(), *(v.tolist() for v in cols)):
                cloud_sink(n, tuple(tup))

    def nonempty(windows):  # the moduli at which every polynomial has a root
        for ns, rows in windows:
            keep = np.flatnonzero(np.prod([k for k, _ in rows], axis=0))
            yield ns[keep], [(k[keep], v[_ranges((np.cumsum(k) - k)[keep], k[keep])]) for k, v in rows]

    for seg, done in _segments(nonempty(_stream_windows(system.polys, xmax, flt, sieve)), checkpoints):
        if seg:
            add(*seg)
        if done:
            series.normalizer.append(norm_acc)
            for h, (re, im, mag) in sums.items():
                series.signed[h].append(complex(re.value, im.value))
                series.abs_sum[h].append(mag.value)
            series.box_disc.append(box_discrepancy_from_hist(hist, norm_acc) if norm_acc else 1.0)
    return series
