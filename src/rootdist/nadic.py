"""Base-n digit towers for polynomial roots, digit statistics, and the
Haar-measure Monte Carlo for the mean-square of digit Weyl sums.

A root v of f mod n with gcd(n, eta*disc) = 1 has a unit derivative, so it
lifts uniquely to a root mod n^L.  The lift runs quadratic Newton steps with
precision doubling, the inverse of f' Newton-iterated alongside, and a
divide-and-conquer base conversion reads off the L digits (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 9).

A phase e(h*prefix_l/n^l) is rounded once, to its 64-bit fractional cell
floor(2^64 * frac(h*prefix_l/n^l)), and only then converted to float.  The
prefix walk reads that cell off a rolling window of the top digits; when the
window cannot certify the cell, it recomputes it exactly from the whole
prefix.  All tower arithmetic is exact big-integer work.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AdmissibilityError, InvalidArgumentError, ResourceLimitError
from .ideals import admissibility
from .intpoly import IntPolynomial, poly_eval_mod
from .modarith import inverse
from .roots import roots_mod_n

_TWO_PI = 2.0 * math.pi

# Guard for the n^m-entry word table.
_MAX_WORD_TABLE = 2 * 10**6

# Guard for the tower depth: the Newton lift allocates n^depth at once.
_MAX_DEPTH = 10**7

# Digit runs at most this long are converted digit by digit.
_DIGIT_LEAF = 32

# The phase window spans n^W >= |h| * 2^(64 + _WINDOW_GUARD_BITS), so it
# fails to certify a 64-bit cell about once per 2^_WINDOW_GUARD_BITS levels.
_WINDOW_GUARD_BITS = 24
_MASK64 = (1 << 64) - 1

# Word counts thinner than this multiple of the table size are flagged.
_SPARSE_FACTOR = 100


def _frac_cell(num: int, den: int) -> int:
    """floor(2^64 * frac(num/den)) for arbitrarily large den."""
    return ((num % den) << 64) // den


def _digits_value(digits, base: int) -> int:
    """sum of digits[j] * base^j, split in halves so big values stay cheap."""
    if len(digits) <= _DIGIT_LEAF:
        acc = 0
        for a in reversed(digits):
            acc = acc * base + a
        return acc
    half = len(digits) // 2
    return _digits_value(digits[:half], base) + _digits_value(digits[half:], base) * base**half


def _split_digits(x: int, base: int, count: int, powers: dict, out: list) -> None:
    """Append the ``count`` base-n digits of x < base^count to out, least
    significant first, by halving divmods."""
    if count <= _DIGIT_LEAF:
        for _ in range(count):
            x, a = divmod(x, base)
            out.append(a)
        return
    half = (count + 1) // 2
    if half not in powers:
        powers[half] = base**half
    hi, lo = divmod(x, powers[half])
    _split_digits(lo, base, half, powers, out)
    _split_digits(hi, base, count - half, powers, out)


@dataclass(frozen=True)
class NadicExpansion:
    """Digits (a_0, ..., a_{L-1}) of a root of f in the base-n limit ring.

    The depth-l prefix value a_0 + a_1*n + ... + a_{l-1}*n^(l-1) is a root of
    f mod n^l for every l up to the depth.
    """

    poly: IntPolynomial
    base: int
    digits: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def seed_root(self) -> int:
        return self.digits[0]

    def prefix_value(self, level: int) -> int:
        """The integer built from the first ``level`` digits."""
        if not 1 <= level <= self.depth:
            raise InvalidArgumentError(
                f"level must lie in [1, {self.depth}]; got {level}"
            )
        return _digits_value(self.digits[:level], self.base)

    def digit_line(self) -> str:
        return " ".join(str(a) for a in self.digits)


def nadic_expansions(f: IntPolynomial, base: int, depth: int) -> list[NadicExpansion]:
    """All base-n expansions of a root of f, one per root of f mod n.

    Requires gcd(base, eta*disc) = 1: under that gate every root mod n lifts
    uniquely to every level, so the expansion count equals the root count.
    Bases touching eta*disc are rejected with the admissibility report
    rather than guessed at.  Depths above _MAX_DEPTH raise
    ResourceLimitError before anything is allocated.
    """
    if base < 2:
        raise InvalidArgumentError("base must be at least 2")
    if depth < 1:
        raise InvalidArgumentError("depth must be at least 1")
    if depth > _MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the cap of {_MAX_DEPTH} digits")
    report = admissibility(f, base)
    if not report.admissible:
        raise AdmissibilityError(report)
    seeds = roots_mod_n(f, base)
    if not seeds:
        return []
    # Precisions 1 = k_0 < k_1 < ... < k_t = depth with k_{i+1} <= 2*k_i.
    steps = [depth]
    while steps[-1] > 1:
        steps.append((steps[-1] + 1) // 2)
    steps.reverse()
    powers = {k: base**k for k in steps}
    out = []
    for seed in seeds:
        # v is the root mod base^k and u the inverse of f'(v) mod base^k.
        v = seed
        u = inverse(f.deriv_mod(seed, base), base)
        for k in steps[1:]:
            m = powers[k]
            v = (v - poly_eval_mod(f, v, m) * u) % m
            if k < depth:
                u = u * (2 - f.deriv_mod(v, m) * u) % m
        digits: list[int] = []
        _split_digits(v, base, depth, powers, digits)
        out.append(NadicExpansion(f, base, tuple(digits)))
    return out


@dataclass(frozen=True)
class NormalityReport:
    """Sliding-window word frequencies of a digit sequence.

    counts holds every one of the base^m words (zeros included); deviations
    are measured against the uniform weight base^(-m).  For overlapping
    windows (m >= 2) the chi-square column is a descriptive statistic, not
    an exact multinomial test.
    """

    base: int
    word_length: int
    window_count: int
    counts: tuple[tuple[tuple[int, ...], int], ...]
    max_deviation: float
    chi_square: float
    sparse: bool

    def frequencies(self) -> dict[tuple[int, ...], float]:
        return {w: c / self.window_count for w, c in self.counts}

    def to_jsonable(self, top: int | None = None) -> dict:
        """Plain-dict form; word tables longer than ``top`` keep only the
        largest deviations."""
        uniform = self.base**-self.word_length
        entries = [
            {
                "word": ",".join(str(d) for d in w),
                "count": c,
                "freq": c / self.window_count,
                "deviation": abs(c / self.window_count - uniform),
            }
            for w, c in self.counts
        ]
        truncated = False
        if top is not None and len(entries) > top:
            entries.sort(key=lambda e: (-e["deviation"], e["word"]))
            entries = entries[:top]
            truncated = True
        return {
            "base": self.base,
            "word_length": self.word_length,
            "window_count": self.window_count,
            "max_deviation": self.max_deviation,
            "chi_square": self.chi_square,
            "sparse": self.sparse,
            "truncated": truncated,
            "words": entries,
        }


def word_frequencies(digits, base: int, word_length: int) -> NormalityReport:
    """Count every length-m window of a digit sequence against uniformity."""
    digits = tuple(map(int, digits))
    if base < 2:
        raise InvalidArgumentError("base must be at least 2")
    if word_length < 1:
        raise InvalidArgumentError("word length must be at least 1")
    if len(digits) < word_length:
        raise InvalidArgumentError("sequence shorter than the word length")
    if min(digits) < 0 or max(digits) >= base:
        raise InvalidArgumentError("digit out of range for the base")
    table_size = base**word_length
    if table_size > _MAX_WORD_TABLE:
        raise InvalidArgumentError(
            f"word table would hold {table_size} entries; cap is {_MAX_WORD_TABLE}"
        )
    windows = len(digits) - word_length + 1
    # Window i has the code sum of digits[i + j] * base^(m-1-j), below
    # base^m <= _MAX_WORD_TABLE, so int64 holds it exactly; codes ascend in
    # the lexicographic order of the words.
    weights = base ** np.arange(word_length - 1, -1, -1, dtype=np.int64)
    codes = sliding_window_view(np.array(digits, dtype=np.int64), word_length) @ weights
    counts = np.bincount(codes, minlength=table_size).tolist()
    uniform = 1.0 / table_size
    expected = windows / table_size
    max_dev = 0.0
    chi = 0.0
    table = []
    for word, c in zip(itertools.product(range(base), repeat=word_length), counts):
        table.append((word, c))
        max_dev = max(max_dev, abs(c / windows - uniform))
        chi += (c - expected) ** 2 / expected
    sparse = len(digits) < table_size * _SPARSE_FACTOR
    return NormalityReport(
        base=base,
        word_length=word_length,
        window_count=windows,
        counts=tuple(table),
        max_deviation=max_dev,
        chi_square=chi,
        sparse=sparse,
    )


def prefix_weyl_sum(exp: NadicExpansion, h: int, levels: int) -> complex:
    """(1/levels) * sum over l = 0..levels of exp(2*pi*i*h*prefix_l/n^l).

    The l = 0 term is exp(0) = 1 (an empty prefix over the unit modulus);
    the normalizer stays ``levels``, so the value carries an O(1/levels)
    offset relative to the same sum without that constant term.
    """
    if h == 0:
        raise InvalidArgumentError("frequency h must be nonzero")
    if not 1 <= levels <= exp.depth:
        raise InvalidArgumentError(f"levels must lie in [1, {exp.depth}]")
    total = complex(1.0, 0.0)  # l = 0 term
    return deque(_phase_walk(exp.digits[:levels], exp.base, h, total), maxlen=1)[0] / levels


def _phase_cells(digits, base: int, h: int):
    """Yield floor(2^64 * frac(h*P_l/n^l)) for l = 1..len(digits), where P_l
    is the value of the first l digits.

    The window T holds the top W digits of P_l, so that P_l/n^l lies in
    [T/n^W, (T+1)/n^W), with W least such that n^W >= |h| * 2^(64+guard).
    The cell floor(2^64*h*x) mod 2^64 of every x in that interval is the
    same when floor(2^64*h*T/n^W) = floor(2^64*h*(T+1)/n^W), which holds
    exactly when the remainder r of the first quotient has
    0 <= r + h*2^64 < n^W.  For l <= W the window is P_l itself, scaled, and
    always exact.  Any other level recomputes its cell from the whole prefix.
    """
    bound = abs(h) << (64 + _WINDOW_GUARD_BITS)
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
            cell = _frac_cell(h * _digits_value(digits[:l], base), base**l)
        yield cell & _MASK64


def _phase_walk(digits, base: int, h: int, acc: complex) -> Iterator[complex]:
    """Yield the running sums acc plus e(h*P_k/n^k) over k = 1..l, for
    l = 1..len(digits), added in level order; every phase is formed from
    its 64-bit cell the same way, and depends only on the first l digits."""
    for cell in _phase_cells(digits, base, h):
        acc += cmath.exp(complex(0.0, _TWO_PI * (cell * 2.0**-64)))
        yield acc


def haar_monte_carlo(
    base: int, levels: int, samples: int, seed: int = 0, h: int = 1
) -> tuple[float, float]:
    """Monte-Carlo mean of |S|^2 for uniformly random digit strings.

    S averages exp(2*pi*i*h*prefix_l/n^l) over levels l = 1..levels; with
    independent uniform digits the cross terms vanish and the exact mean is
    1/levels (the indexing starts at level 1, where that identity is exact;
    the trajectory sum for concrete expansions keeps its l = 0 term and is
    documented separately).  Returns (sample mean, standard error).  Each
    sample derives its own PRNG stream from (seed, index), so the result is
    independent of evaluation order.
    """
    if base < 2:
        raise InvalidArgumentError("base must be at least 2")
    if levels < 1:
        raise InvalidArgumentError("levels must be at least 1")
    if samples < 1:
        raise InvalidArgumentError("need at least one sample")
    if h == 0:
        raise InvalidArgumentError("frequency h must be nonzero")
    total = 0.0
    total_sq = 0.0
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        digits = [rng.randrange(base) for _ in range(levels)]
        acc = deque(_phase_walk(digits, base, h, complex(0.0, 0.0)), maxlen=1)[0]
        val = abs(acc / levels) ** 2
        total += val
        total_sq += val * val
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


@dataclass(frozen=True)
class ExpansionEvidence:
    """Digit statistics and Weyl-sum magnitudes for one expansion.

    Whether these digit strings are normal is an open question; this type
    reports evidence only and never attaches a verdict.
    """

    seed_root: int
    reports: tuple[NormalityReport, ...]
    weyl_trajectory: tuple[tuple[int, float], ...]


def normality_evidence(
    f: IntPolynomial,
    base: int,
    depth: int,
    max_word_length: int,
) -> list[ExpansionEvidence]:
    """Word-frequency tables and Weyl magnitudes for every expansion.

    Word counts need roughly 100 * base^m digits to be meaningful; shallower
    towers are processed anyway but flagged sparse and warned about.
    """
    if max_word_length < 1:
        raise InvalidArgumentError("max word length must be at least 1")
    if depth < base**max_word_length * _SPARSE_FACTOR:
        warnings.warn(
            f"depth {depth} is below {_SPARSE_FACTOR} * base^{max_word_length}; "
            "word counts will be sparse",
            UserWarning,
            stacklevel=2,
        )
    # prefix_weyl_sum(exp, 1, l) at these levels, read off one walk
    traj_levels = {max(1, depth // 4), max(1, depth // 2), depth}
    out = []
    for exp in nadic_expansions(f, base, depth):
        reports = tuple(
            word_frequencies(exp.digits, base, m) for m in range(1, max_word_length + 1)
        )
        sums = _phase_walk(exp.digits, base, 1, complex(1.0, 0.0))
        traj = tuple((l, abs(acc / l)) for l, acc in enumerate(sums, 1) if l in traj_levels)
        out.append(ExpansionEvidence(exp.seed_root, reports, traj))
    return out
