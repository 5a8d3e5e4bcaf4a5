"""Base-n digit towers for polynomial roots, digit statistics, and the
Haar-measure Monte Carlo for the mean-square of digit Weyl sums.

A root v of f mod n with gcd(n, eta*disc) = 1 has a unit derivative, so it
lifts uniquely to a root mod n^L, by ``roots._newton_lift``, which also
takes the roots mod p to p^e.  A divide-and-conquer base conversion reads
off the L digits (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 9) down to leaves below 2^63, which numpy splits into digits in int64.
The digits stay one read-only array per tower, int64 below base 2^63 and
object (Python ints) from there, read as they are by the word counts and the
phase walk.  For a quadratic c2*x^2 + c1*x + c0 only one root of each
conjugate pair is lifted: sigma(x) = -c1/c2 - x maps the roots mod every n^k
to themselves and fixes no root mod n (f' is a unit there), so by Hensel
uniqueness the lift of sigma(s) is sigma of the lift of s, whose digits one
borrow scan reads off the lifted row and the periodic digits of -c1/c2.

Word counts code each window by Horner over shifted slices of the row, in
int64; a word is its code in base n, so a report keeps one count per word
in code order and builds the words only when they are read.  The Haar
samples of a batch draw their 32-bit words together, and one numpy pass
over the (samples, words) block keeps each row's randrange draws.

A phase e(h*prefix_l/n^l) is rounded once, to its 64-bit fractional cell
floor(2^64 * frac(h*prefix_l/n^l)), and only then converted to float.  The
prefix walk gets every cell from the exact recurrence
U_l = floor((a*h*2^64 + U_{l-1})/n), a the digit added at level l, with the
cell U_l mod 2^64, taken in blocks of B levels, B - 1 the largest j with
n^j <= 2^32: Python steps U exactly from one block start to the next, and
numpy divides every cell inside a block out of the block start's U in 32-bit
limbs.  One walk takes a 2-D array of equal-length digit rows (the towers of
normality_evidence, or a batch of Haar samples), turns chunks of cells into
phases and adds them along each row in level order with np.cumsum.
normality_evidence refuses a word length that the digits cannot fill, or
whose word table passes its cap, before it lifts anything.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, InvalidArgumentError, ResourceLimitError
from .ideals import admissibility
from .intpoly import IntPolynomial
from .roots import _newton_lift, roots_mod_n

_TWO_PI = 2.0 * math.pi

# Guard for the n^m-entry word table.
_MAX_WORD_TABLE = 2 * 10**6

# Guard for the tower depth: the Newton lift allocates n^depth at once.
_MAX_DEPTH = 10**7

# Digit runs at most this long are converted digit by digit.
_DIGIT_LEAF = 32

# Leaves per numpy digit batch, and cells per phase-walk chunk.
_LEAF_BATCH = 1 << 12
_WALK_CHUNK = 1 << 13

_MASK64 = (1 << 64) - 1

# Word counts thinner than this multiple of the table size are flagged.
_SPARSE_FACTOR = 100


def _digits_value(digits, base: int) -> int:
    """sum of digits[j] * base^j, split in halves so big values stay cheap."""
    if len(digits) <= _DIGIT_LEAF:
        acc = 0
        for a in reversed(digits):
            acc = acc * base + int(a)  # Python ints: int64 digits would overflow
        return acc
    half = len(digits) // 2
    return _digits_value(digits[:half], base) + _digits_value(digits[half:], base) * base**half


def _split_digits(x: int, base: int, count: int, powers: dict):
    """The ``count`` base-n digits of x < base^count, least significant first,
    as an int64 array, or an object array of ints for a base of 2^63 or more.

    Halving divmods cut x into leaves of L digits, L the longest with
    base^L < 2^63 (only the top leaf may be shorter), and numpy splits the
    leaves in int64; a base of 2^63 or more is cut down to single digits.
    """
    leaf = 1
    while base ** (leaf + 1) < 2**63:
        leaf += 1
    leaves, stack = [], [(x, count)]
    while stack:
        v, k = stack.pop()
        if k <= leaf:
            leaves.append(v)
            continue
        half = -(-k // (2 * leaf)) * leaf
        if half not in powers:
            powers[half] = base**half
        hi, lo = divmod(v, powers[half])
        stack += [(hi, k - half), (lo, half)]
    if base >= 2**63:
        return np.array(leaves, dtype=object)
    weights = base ** np.arange(leaf, dtype=np.int64)
    digits = np.empty((len(leaves), leaf), dtype=np.int64)
    for i in range(0, len(leaves), _LEAF_BATCH):
        block = np.array(leaves[i : i + _LEAF_BATCH], dtype=np.int64)
        digits[i : i + len(block)] = block[:, None] // weights % base
    return digits.ravel()[:count]  # without the zeros above the top leaf


def _sub_digits(num: int, den: int, v, base: int):
    """The digit row of (num/den - v) mod base^L, for den prime to base and a
    digit row v of length L (int64, or object past 2^63), by one vectorised
    borrow scan (Knuth, TAOCP vol. 2, 4.3.1, Algorithm S).

    For den > 0 the digits of num/den are a_j = r_j/den mod base, r_0 = num,
    r_(j+1) = (r_j - a_j*den)/base.  r reaches [-den, 0], which the step
    permutes, so the digits from its entry there repeat once r returns.
    With d = num/den - v digit by digit, a borrow leaves digit j when
    d_j < 0, or when d_j = 0 and a borrow entered j: the last nonzero d at or
    below j decides.  The borrow out of the top digit is dropped.
    """
    num, den = (num, den) if den > 0 else (-num, -den)
    inv, length = pow(den, -1, base), len(v)
    row, r, first = [], num, None
    while len(row) < length:
        if first is None and -den <= r <= 0:
            first, start = r, len(row)
        row.append(r * inv % base)
        r = (r - row[-1] * den) // base
        if r == first:
            break
    d = np.array(row, dtype=v.dtype)
    if len(row) < length:  # the block row[start:] repeats
        d = np.concatenate([d, np.tile(d[start:], length // (len(row) - start))])
    d = d[:length] - v
    last = np.arange(length, dtype=np.int32)  # depth <= _MAX_DEPTH < 2^31
    last *= d != 0  # position 0 stands in for none: then d_0 = 0, no borrow
    borrow = (d < 0)[np.maximum.accumulate(last, out=last)]
    np.add(d, base, out=d, where=borrow)
    d[1:] -= borrow[:-1]
    return d


def _read_digits(digits):
    """An int64 array as it is, any other sequence as a tuple of ints read
    through operator.index: a float digit such as 1.5 is refused, not
    truncated."""
    if isinstance(digits, np.ndarray) and digits.dtype == np.int64:
        return digits
    try:
        return tuple(map(operator.index, digits))
    except TypeError:
        raise InvalidArgumentError("digits must be integers") from None


class NadicExpansion:
    """Digits (a_0, ..., a_{L-1}) of a root of f in the base-n limit ring.

    The depth-l prefix value a_0 + a_1*n + ... + a_{l-1}*n^(l-1) is a root of
    f mod n^l for every l up to the depth.  ``row`` holds the digits as a
    read-only array, int64 below base 2^63 and object (Python ints) from
    there; ``digits`` is a tuple of ints built from it on each access.  Two
    expansions are equal when their polynomial, base and digits are.  No
    digits, or a digit that is not an integer or lies outside [0, base), is
    refused.
    """

    __slots__ = ("poly", "base", "row")

    def __init__(self, poly: IntPolynomial, base: int, digits):
        self.poly, self.base = poly, base
        digits = _read_digits(digits)
        if not len(digits):
            raise InvalidArgumentError("an expansion needs at least one digit")
        if np.min(digits) < 0 or np.max(digits) >= base:
            raise InvalidArgumentError("digit out of range for the base")
        self.row = np.array(digits, dtype=np.int64 if base < 2**63 else object)
        self.row.flags.writeable = False

    def _key(self) -> tuple:
        return self.poly, self.base, self.digits if self.row.dtype == object else self.row.tobytes()

    def __eq__(self, other):
        return isinstance(other, NadicExpansion) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self.row.tolist())

    @property
    def depth(self) -> int:
        return len(self.row)

    @property
    def seed_root(self) -> int:
        return int(self.row[0])

    def prefix_value(self, level: int) -> int:
        """The integer built from the first ``level`` digits."""
        if not 1 <= level <= self.depth:
            raise InvalidArgumentError(
                f"level must lie in [1, {self.depth}]; got {level}"
            )
        return _digits_value(self.row[:level], self.base)

    def digit_line(self) -> str:
        return " ".join(map(str, self.digits))


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
    powers = {}  # base^k by k, shared by the lifts and the digit splits
    rows = {}  # seed -> the digits of its root mod base^depth
    for seed in seeds:
        if seed in rows:
            continue
        rows[seed] = _split_digits(_newton_lift(f, seed, base, depth, powers), base, depth, powers)
        if f.degree == 2:  # sigma(x) = -c1/c2 - x pairs the roots (module docstring)
            partner = _sub_digits(-f.coeffs[1], f.coeffs[2], rows[seed], base)
            rows[int(partner[0])] = partner
    return [NadicExpansion(f, base, rows.pop(s)) for s in seeds]


@dataclass(frozen=True)
class NormalityReport:
    """Sliding-window word frequencies of a digit sequence.

    tally holds the count of every one of the base^m words (zeros
    included) in lexicographic word order, so a word is its index written
    in base n with m digits; ``counts`` pairs each word with its count on
    access and holds nothing.  Deviations are measured against the uniform
    weight base^(-m).  For overlapping windows (m >= 2) the chi-square
    column is a descriptive statistic, not an exact multinomial test.
    """

    base: int
    word_length: int
    window_count: int
    tally: tuple[int, ...]
    max_deviation: float
    chi_square: float
    sparse: bool

    def _words(self):
        return itertools.product(range(self.base), repeat=self.word_length)

    @property
    def counts(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(zip(self._words(), self.tally))

    def frequencies(self) -> dict[tuple[int, ...], float]:
        return {w: c / self.window_count for w, c in zip(self._words(), self.tally)}

    def to_jsonable(self, top: int | None = None) -> dict:
        """Plain-dict form; word tables longer than ``top`` keep only the
        largest deviations."""
        uniform = self.base**-self.word_length
        entries = (
            {
                "word": ",".join(str(d) for d in w),
                "count": c,
                "freq": c / self.window_count,
                "deviation": abs(c / self.window_count - uniform),
            }
            for w, c in zip(self._words(), self.tally)
        )
        truncated = top is not None and len(self.tally) > top
        if truncated:  # equal to sorted(...)[:top], but holds top entries, not one per word
            entries = heapq.nsmallest(top, entries, key=lambda e: (-e["deviation"], e["word"]))
        return {
            "base": self.base,
            "word_length": self.word_length,
            "window_count": self.window_count,
            "max_deviation": self.max_deviation,
            "chi_square": self.chi_square,
            "sparse": self.sparse,
            "truncated": truncated,
            "words": list(entries),
        }


def _check_words(length: int, base: int, word_length: int) -> int:
    """base^m for windows of length m in a sequence of the given length."""
    if length < word_length:
        raise InvalidArgumentError("sequence shorter than the word length")
    table_size = base**word_length
    if table_size > _MAX_WORD_TABLE:
        raise InvalidArgumentError(
            f"word table would hold {table_size} entries; cap is {_MAX_WORD_TABLE}"
        )
    return table_size


def word_frequencies(digits, base: int, word_length: int) -> NormalityReport:
    """Count every length-m window of a digit sequence against uniformity.

    An int64 array is counted as it is; any other sequence is read through
    operator.index first, so a digit that is not an integer is refused."""
    digits = _read_digits(digits)
    if base < 2:
        raise InvalidArgumentError("base must be at least 2")
    if word_length < 1:
        raise InvalidArgumentError("word length must be at least 1")
    if len(digits) >= word_length and (np.min(digits) < 0 or np.max(digits) >= base):
        raise InvalidArgumentError("digit out of range for the base")
    table_size = _check_words(len(digits), base, word_length)
    windows = len(digits) - word_length + 1
    # Window i has the code sum of digits[i + j] * base^(m-1-j), formed by
    # Horner over shifted slices; every partial code is below base^m <=
    # _MAX_WORD_TABLE, so int64 holds it exactly.  Codes ascend in the
    # lexicographic order of the words.
    digits = np.asarray(digits, dtype=np.int64)
    codes = digits[:windows].copy()
    for j in range(1, word_length):
        codes *= base
        codes += digits[j : j + windows]
    tally = tuple(np.bincount(codes, minlength=table_size).tolist())
    uniform = 1.0 / table_size
    expected = windows / table_size
    max_dev = chi = 0.0
    for c in tally:  # Python's pow and adds in word order, as the goldens pin
        max_dev = max(max_dev, abs(c / windows - uniform))
        chi += (c - expected) ** 2 / expected
    return NormalityReport(
        base, word_length, windows, tally, max_dev, chi,
        sparse=len(digits) < table_size * _SPARSE_FACTOR,
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
    return _phase_walk([exp.row[:levels]], exp.base, h, total, [levels])[0][0] / levels


def _block(base: int) -> int:
    """B: one more than the largest j with base^j <= 2^32, or 1 past 2^32."""
    b = 1
    while base**b <= 2**32:
        b += 1
    return b


def _phase_cells(rows, base: int, h: int):
    """Yield floor(2^64 * frac(h*P_l/n^l)) for l = 1..L of every row of
    equal-length digit rows, where P_l is the value of the row's first l
    digits, as uint64 arrays (rows x levels) of at most max(_WALK_CHUNK +
    rows*(B - 1), rows*B) cells, each ending on a block start.

    U_l = floor(2^64*h*P_l/n^l) satisfies U_0 = 0 and
    U_l = floor((a*h*2^64 + U_{l-1})/n), a the digit added at level l:
    P_l/n^l = (a + P_{l-1}/n^(l-1))/n, so 2^64*h*P_l/n^l = (q + t)/n with
    the integer q = a*h*2^64 + U_{l-1} and 0 <= t < 1, and
    floor((q + t)/n) = floor(q/n).  The cell is U_l mod 2^64, and
    |U_l| <= |h| * 2^64 because P_l < n^l.

    Since floor(floor(x/a)/b) = floor(x/(ab)), a block of B levels from s
    gives U_{s+j} = floor((h*2^64*D_j + U_s)/n^j), D_j the value of the
    block's first j digits.  Python takes that step exactly at j = B, from
    one block start to the next.  For 0 < j < B write U_s = c*2^64 + u with
    0 <= u < 2^64 and r = (h*D_j + c) mod n^j: the cell is then
    floor((r*2^64 + u)/n^j), which numpy divides in two 32-bit limbs.  As
    n^j | n^(B-1) <= 2^32, r may be formed from h and c mod n^(B-1), and
    h*D_j + c < 2^64 and every partial quotient fit in uint64.
    """
    block = _block(base)
    step, low = base**block, base ** (block - 1)
    h64, hlow = h << 64, h % low
    count, length = len(rows), len(rows[0])
    chunk = block * max(1, -(-min(length, _WALK_CHUNK // count) // block))
    tops = [0] * count
    for start in range(0, length, chunk):
        stop = min(start + chunk, length)
        blocks = -(-(stop - start) // block)
        if block == 1:  # Python ints: h64 * d overflows an int64 digit
            values = [list(map(int, row[start:stop])) for row in rows]
        else:
            powers = base ** np.arange(block, dtype=np.uint64)
            digits = np.zeros((count, blocks * block), dtype=np.uint64)
            digits[:, : stop - start] = [row[start:stop] for row in rows]
            # prefix[r, k, j - 1] is D_j of block k of row r; D_B < n^B <= 2^64
            prefix = np.cumsum(digits.reshape(count, blocks, block) * powers, axis=2)
            values = prefix[:, :, -1].tolist()
        ulist, clist = [], []
        for i, row in enumerate(values):
            x = tops[i]
            us, cs = [x & _MASK64], [(x >> 64) % low]
            for d in row:
                x = (h64 * d + x) // step
                us.append(x & _MASK64)
                cs.append((x >> 64) % low)
            tops[i] = x
            ulist.append(us)
            clist.append(cs)
        u = np.array(ulist, dtype=np.uint64)
        cells = np.empty((count, blocks, block), dtype=np.uint64)
        cells[:, :, -1] = u[:, 1:]
        if block > 1:
            c = np.array(clist, dtype=np.uint64)[:, :-1, None]
            u = u[:, :-1, None]
            r = (hlow * prefix[:, :, :-1] + c) % powers[1:]
            q, r = np.divmod(r << 32 | u >> 32, powers[1:])
            cells[:, :, :-1] = q << 32 | (r << 32 | u & 0xFFFFFFFF) // powers[1:]
        yield cells.reshape(count, -1)[:, : stop - start]


def _phase_walk(rows, base: int, h: int, acc: complex, levels) -> list[list[complex]]:
    """For each of the equal-length digit rows, acc plus e(h*P_k/n^k) over
    k = 1..l at each of the ascending ``levels`` l in [1, L], each phase
    formed from its 64-bit cell.  np.cumsum adds in order along each row,
    with the row's sum so far put into the first term of each chunk: exactly
    the sums of adding the phases to acc one by one."""
    out = [[] for _ in rows]
    start = 0
    re, im = np.full(len(rows), acc.real), np.full(len(rows), acc.imag)
    for cells in _phase_cells(rows, base, h):
        theta = _TWO_PI * (cells * 2.0**-64)
        cos, sin = np.cos(theta), np.sin(theta)
        cos[:, 0] += re
        sin[:, 0] += im
        cos, sin = np.cumsum(cos, axis=1), np.cumsum(sin, axis=1)
        end = start + cells.shape[1]
        cols = [l - start - 1 for l in levels if start < l <= end]
        for sums, res, ims in zip(out, cos[:, cols].tolist(), sin[:, cols].tolist()):
            sums += map(complex, res, ims)
        start, re, im = end, cos[:, -1], sin[:, -1]
    return out


def _haar_rows(rngs, base: int, levels: int):
    """The first ``levels`` values of rng.randrange(base) for each generator.

    randrange draws getrandbits(k), k the bit length of base, until a draw
    falls below base.  For k <= 32 each draw is the top k bits of one 32-bit
    word of the generator, and getrandbits(32*w) returns the next w words,
    the first in the lowest bits.  So every generator gives w = 2*levels + 16
    words, and one numpy pass over the (rows, w) block rejects the draws,
    gathers the kept ones in row order and reads each row's first ``levels``
    from its offset, the cumulative sum of the kept counts of the rows
    before it.  A row that kept fewer goes on from its own generator for the
    values it lacks, in the same way.
    """
    bits = base.bit_length()
    if bits > 32:
        return [[rng.randrange(base) for _ in range(levels)] for rng in rngs]
    words = 2 * levels + 16  # each word is kept with probability above 1/2
    block = b"".join(rng.getrandbits(32 * words).to_bytes(4 * words, "little") for rng in rngs)
    draws = np.frombuffer(block, "<u4").reshape(len(rngs), words) >> (32 - bits)
    keep = draws < base
    counts = keep.sum(axis=1)
    # levels zeros after the kept draws keep a short row's reads in bounds
    kept = np.concatenate([draws[keep], np.zeros(levels, dtype=draws.dtype)])
    rows = kept[(np.cumsum(counts) - counts)[:, None] + np.arange(levels)]
    for i, count in enumerate(counts.tolist()):
        if count < levels:
            rows[i, count:] = _haar_rows([rngs[i]], base, levels - count)[0]
    return rows


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
    # samples per walk, so that a batch holds at most _WALK_CHUNK digits
    batch = max(1, _WALK_CHUNK // max(levels, _block(base)))
    for first in range(0, samples, batch):
        rngs = [random.Random(f"{seed}:{i}") for i in range(first, min(first + batch, samples))]
        rows = _haar_rows(rngs, base, levels)
        for (acc,) in _phase_walk(rows, base, h, complex(0.0, 0.0), [levels]):
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
    # Refuse a word length before the lift, as word_frequencies would after
    # it; base^m passes the table cap by m = 21, which bounds the loop.  A
    # base below 2 or a depth below 1 is left to nadic_expansions to name,
    # and so is an inadmissible base, which is refused before the warning.
    if base >= 2 and depth >= 1:
        for m in range(1, max_word_length + 1):
            _check_words(depth, base, m)
    # prefix_weyl_sum(exp, 1, l) at these levels, read off one walk
    traj_levels = sorted({max(1, depth // 4), max(1, depth // 2), depth})
    exps = nadic_expansions(f, base, depth)
    if depth < base**max_word_length * _SPARSE_FACTOR:
        warnings.warn(
            f"depth {depth} is below {_SPARSE_FACTOR} * base^{max_word_length}; "
            "word counts will be sparse",
            UserWarning,
            stacklevel=2,
        )
    if not exps:
        return []
    sums = _phase_walk([exp.row for exp in exps], base, 1, complex(1.0, 0.0), traj_levels)
    out = []
    for exp, accs in zip(exps, sums):
        reports = tuple(word_frequencies(exp.row, base, m) for m in range(1, max_word_length + 1))
        traj = tuple((l, abs(acc / l)) for l, acc in zip(traj_levels, accs))
        out.append(ExpansionEvidence(exp.seed_root, reports, traj))
    return out
