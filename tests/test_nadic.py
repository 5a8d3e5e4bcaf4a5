import cmath
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from oracles import (
    exact_haar_monte_carlo,
    exact_prefix_weyl_sum,
    linear_hensel_digits,
    rolling_word_frequencies,
    scalar_digits,
    scalar_phase_walk,
)
from rootdist import (
    AdmissibilityError,
    InvalidArgumentError,
    IntPolynomial,
    NadicExpansion,
    ResourceLimitError,
    haar_monte_carlo,
    nadic_expansions,
    normality_evidence,
    poly_eval_mod,
    prefix_weyl_sum,
    word_frequencies,
)
from rootdist import nadic, roots

FREQUENCIES = (1, -1, 3, -12345, 2**40 + 1, 2**200 + 7)
# levels per walk chunk of one long base-5 row: _WALK_CHUNK rounded up to
# whole blocks of B = 14 levels
CHUNK = -(-nadic._WALK_CHUNK // nadic._block(5)) * nadic._block(5)


@pytest.fixture(scope="module")
def golden_towers(x2p1):
    """The towers behind the goldens: x^2+1 in base 5, whose depth-2000 and
    depth-10^4 prefixes the acceptance and CLI goldens pin, at the depth of
    the deepest CLI golden."""
    return nadic_expansions(x2p1, 5, 70000)


def _window_width(base, h):
    """Least W with base^W >= |h| * 2^88: the width of the window of top
    digits that scalar_phase_walk reads each cell off."""
    w = 1
    while base**w < abs(h) * 2**88:
        w += 1
    return w


def _top_digit_string(base):
    """n-1 repeated: x_l = 1 - n^-l sits just below 1, so for h > 0 the
    oracle's window [T, T+1)/n^W straddles the cell boundary at h at every
    level past W."""
    return (base - 1,) * 150


def _three_twos_string():
    """3, 2, 2, ...: x_l = 1/2 + 5^-l/2 sits just above 1/2, while the
    oracle's window of top digits 2...2 reads just below 1/2."""
    return (3,) + (2,) * 119


def _later_chunk_string():
    """Base-5 digits with a run of 2s as long as the oracle's window in the
    second walk chunk: the window reads 0.22...2, just below 1/2, and
    straddles the cell boundary at 1/2 there."""
    width = _window_width(5, 1)
    rng = random.Random(9)
    return tuple(
        [rng.randrange(5) for _ in range(CHUNK + 99)]
        + [0] + [2] * (width + 2) + [0]
        + [rng.randrange(5) for _ in range(50)]
    )


def _exact_cells(digits, base, h):
    """((h*P_l) % n^l << 64) // n^l for l = 1..len(digits), P_l the value
    of the first l digits, each from the whole prefix."""
    out, prefix, pw = [], 0, 1
    for a in digits:
        prefix += a * pw
        pw *= base
        out.append(((h * prefix) % pw << 64) // pw)
    return out


def _cells(rows, base, h):
    """The kernel's cells of each row, chunks joined, as lists of ints."""
    return np.concatenate(list(nadic._phase_cells(rows, base, h)), axis=1).tolist()


def test_expansion_digits_example(x2p1):
    exps = nadic_expansions(x2p1, 5, 5)
    by_seed = {e.seed_root: e for e in exps}
    assert set(by_seed) == {2, 3}
    assert by_seed[2].digits == (2, 1, 2, 1, 3)
    # Hensel chain oracle: 2, 7, 57, 182, 2057 verified by squaring
    chain = [2, 7, 57, 182, 2057]
    for level, value in enumerate(chain, 1):
        assert (value * value + 1) % 5**level == 0
        assert by_seed[2].prefix_value(level) == value


def test_expansion_rejects_inadmissible_base(x2p1):
    with pytest.raises(AdmissibilityError):
        nadic_expansions(x2p1, 2, 10)  # 2 divides the discriminant
    # oracle: a root mod 2 exists but none mod 4, so no 2-adic root exists
    assert [v for v in range(2) if (v * v + 1) % 2 == 0] == [1]
    assert [v for v in range(4) if (v * v + 1) % 4 == 0] == []


def test_expansion_empty_when_no_roots(x2p1):
    assert nadic_expansions(x2p1, 3, 10) == []


def test_expansion_input_validation(x2p1):
    with pytest.raises(InvalidArgumentError):
        nadic_expansions(x2p1, 5, 0)
    with pytest.raises(InvalidArgumentError):
        nadic_expansions(x2p1, 1, 5)


def test_expansion_count_matches_root_count(x2p1):
    assert len(nadic_expansions(x2p1, 13, 10)) == 2


@pytest.mark.parametrize(
    "coeffs, base, depth",
    [
        ((1, 0, 1), 5, 10**4),
        ((-2, 0, 0, 1), 5, 2000),
        ((1, 1, 1), 7, 2000),
        ((3, 0, 2), 5, 2000),
        ((1, 0, 1), 65, 600),
        ((1, 0, 1), 221, 500),
    ],
)
def test_newton_digits_match_linear_hensel(coeffs, base, depth):
    f = IntPolynomial(coeffs)
    want = linear_hensel_digits(f, base, depth)
    assert want
    assert [e.digits for e in nadic_expansions(f, base, depth)] == want


def test_newton_digits_every_small_depth(x3m2):
    # every precision schedule up to 70, including depth 1 and odd halvings
    full = linear_hensel_digits(x3m2, 5, 70)
    for depth in range(1, 71):
        got = [e.digits for e in nadic_expansions(x3m2, 5, depth)]
        assert got == [d[:depth] for d in full], depth


def _leaf(base):
    """The digits per int64 leaf of _split_digits: the most L with base^L < 2^63."""
    leaf = 1
    while base ** (leaf + 1) < 2**63:
        leaf += 1
    return leaf


def _newton_steps(depth):
    """The Newton steps of one lift to the given depth."""
    steps = 0
    while depth > 1:
        depth, steps = (depth + 1) // 2, steps + 1
    return steps


def _spy_evaluations(monkeypatch):
    """Record the lift's calls of poly_eval_mod: one per Newton step of a lift."""
    calls = []
    monkeypatch.setattr(roots, "poly_eval_mod", lambda *a: calls.append(a) or poly_eval_mod(*a))
    return calls


@pytest.mark.parametrize(
    "coeffs, base",
    [
        ((1, 0, 1), 5),
        ((1, 0, 1), 65),
        ((1, 0, 1), 2**40 + 97),
        ((1, 0, 1), 2**64 + 13),
        ((2, 1, 1), 2),
        ((3, 0, 2), 5),
        ((1, 0, 2), 33),
        ((1, 1, 2), 11 * 23),
        ((1, 1, -3), 17 * 23),
        ((1, 1, -3), 2**64 + 13),
        ((1, -1, 1), 7),
        ((-1, 0, -1), 5),
        ((-3, 3, 1), 5),
        ((-3, 1, 1), 2**40 + 97),
        ((1, 2, -1), 2**40 + 97),
        ((-1, 0, -1), 2**64 + 13),
    ],
)
def test_paired_quadratic_towers_match_a_lift_of_every_seed(coeffs, base, monkeypatch):
    # c2 = 1, -1, 2 and -3, with and without c1: one Newton lift per
    # conjugate pair, the partner read off sigma by a borrow scan at any
    # base, with shift 0, a small positive integer, n^depth - c or -c1/c2,
    # against the linear Hensel oracle, which lifts every seed on its own;
    # depths on both sides of a leaf
    f = IntPolynomial(coeffs)
    calls = _spy_evaluations(monkeypatch)
    leaf = _leaf(base)
    full = linear_hensel_digits(f, base, 300)
    assert len(full) % 2 == 0 and full
    for depth in sorted({1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 300} - {0}):
        calls.clear()
        exps = nadic_expansions(f, base, depth)
        assert [e.digits for e in exps] == [d[:depth] for d in full], depth
        assert len(calls) == len(full) // 2 * _newton_steps(depth)
        for e in exps:
            assert poly_eval_mod(f, e.prefix_value(depth), base**depth) == 0


@pytest.mark.parametrize(
    "coeffs, base",
    [
        ((1, 0, 1), 5),  # shift 0
        ((1, -1, 1), 7),  # shift 1
        ((1, 2, -1), 2**40 + 97),  # c2 = -1, shift 2
        ((-3, 3, 1), 5),  # shift 5^depth - 3
        ((-3, 1, 1), 2**40 + 97),  # shift n^depth - 1
        ((1, -2, -1), 2**62 + 135),  # c2 = -1, shift n^depth - 2, one digit a leaf
        ((1, 0, 1), 65),
        ((2, 1, 3), 2),  # shift -1/3, digits 1, 0, 1, 0, ...
        ((1, 0, 2), 33),  # c2 = 2, shift 0
        ((1, 1, -3), 391),  # shift 1/3
    ],
)
def test_partner_rows_are_a_scan_of_the_lifted_rows(coeffs, base, monkeypatch):
    # each partner row is (-c1/c2 - v) mod n^depth read off the lifted row by
    # the borrow scan, never by a second base conversion, for every c2
    f = IntPolynomial(coeffs)
    c1, c2 = coeffs[1], coeffs[2]
    splits = []
    split = nadic._split_digits
    monkeypatch.setattr(nadic, "_split_digits", lambda *a: splits.append(a) or split(*a))
    for depth in (1, 2, _leaf(base), _leaf(base) + 1, 777):
        top = base**depth
        splits.clear()
        exps = nadic_expansions(f, base, depth)
        assert exps and len(splits) == len(exps) // 2
        rows = {e.seed_root: e.row.tolist() for e in exps}
        shift = -c1 * pow(c2, -1, top)
        for e in exps:
            want = split((shift - e.prefix_value(depth)) % top, base, depth, {}).tolist()
            assert rows[(shift - e.seed_root) % base] == want, depth


@pytest.mark.parametrize(
    "coeffs, base",
    [((1, 0, 1), 2**64 + 13), ((-1, -1, -1), 2**64 + 81), ((1, 0, 2), 2**64 + 81)],
)
def test_big_base_rows_are_object_arrays_and_partners_a_borrow_scan(coeffs, base, monkeypatch):
    # past 2^63 a row is a read-only object array of ints, and the partner
    # is read off the lifted row by the borrow scan (shift 0 for x^2 + 1 and
    # 2x^2 + 1, -1 for -x^2 - x - 1)
    f = IntPolynomial(coeffs)
    c1, c2 = coeffs[1], coeffs[2]
    splits = []
    split = nadic._split_digits
    monkeypatch.setattr(nadic, "_split_digits", lambda *a: splits.append(a) or split(*a))
    for depth in (1, 2, 40, 301):
        top = base**depth
        splits.clear()
        lifted, partner = nadic_expansions(f, base, depth)
        assert len(splits) == 1
        v = lifted.prefix_value(depth)
        assert list(partner.digits) == scalar_digits((-c1 * pow(c2, -1, top) - v) % top, base, depth)
        for e in (lifted, partner):
            assert e.row.dtype == object and not e.row.flags.writeable
            assert {type(a) for a in e.row} == {int} and e.digits == tuple(e.row)
            assert poly_eval_mod(f, e.prefix_value(depth), top) == 0
            built = NadicExpansion(f, base, list(e.digits))
            assert built == e and hash(built) == hash(e)


def _value(row, base):
    acc = 0
    for a in reversed(row):
        acc = acc * base + a
    return acc


@pytest.mark.parametrize("base", [2, 5, 7, 2**40 + 97, 2**62 + 135, 2**63 - 25])
def test_borrow_scan_matches_integer_subtraction(base):
    # (x - v) mod n^k for built rows v: all zeros, all n - 1, a lone 1 under
    # x = 0 (a borrow through every zero), a run of zeros between x's digit
    # and v's, and random rows; x of either sign, from 0 past +-n^k
    rng = random.Random(base)
    for k in (1, 2, 3, 64, 300):
        top = base**k
        rows = (
            [0] * k,
            [base - 1] * k,
            [1] + [0] * (k - 1),
            [0] * (k - 1) + [1],
            [2 % base] + [0] * (k - 1),
            [rng.randrange(base) for _ in range(k)],
            [rng.choice((0, 0, 0, 1, base - 1)) for _ in range(k)],
        )
        xs = (0, 1, 3, base, 3 * base ** (k // 2), top - 1, top, -1, -3, -base, -top, -top - 1, 7**40, -(7**40))
        for v, x in itertools.product(rows, xs):
            got = nadic._sub_digits(x, 1, np.array(v, dtype=np.int64), base)
            assert got.dtype == np.int64
            assert got.tolist() == scalar_digits((x - _value(v, base)) % top, base, k), (k, x)


@pytest.mark.parametrize("base", [2, 3, 5, 33, 2**40 + 97, 2**64 + 13])
def test_borrow_scan_of_a_rational_shift(base):
    # (num/den - v) mod n^k, num/den a prefix of digits and a repeated block:
    # 1/13 in base 2 has one digit and a 12-digit block, so k runs shorter
    # than, equal to and longer than both; 2^61 - 1 in base 3 has a block
    # far longer than any k here, so the digit loop must stop at k
    rng = random.Random(base)
    dtype = np.int64 if base < 2**63 else object
    dens = [d for d in (-1, 2, -3, 7, 13, 2**61 - 1) if math.gcd(d, base) == 1]
    for k in (1, 2, 11, 12, 13, 14, 25, 300):
        top = base**k
        nums = (0, 1, -1, 5, -5, top + 3, -top - 3, 7**40, -(7**40))
        rows = ([0] * k, [base - 1] * k, [rng.randrange(base) for _ in range(k)])
        for den, num, v in itertools.product(dens, nums, rows):
            got = nadic._sub_digits(num, den, np.array(v, dtype=dtype), base)
            assert got.dtype == dtype
            want = (num * pow(den, -1, top) - _value(v, base)) % top
            assert got.tolist() == scalar_digits(want, base, k), (k, den, num)


def test_cubic_lifts_every_seed(monkeypatch):
    # x^3 - 3x + 1 splits completely mod 17: three seeds, three lifts
    f = IntPolynomial((1, -3, 0, 1))
    calls = _spy_evaluations(monkeypatch)
    want = linear_hensel_digits(f, 17, 200)
    assert len(want) == 3
    assert [e.digits for e in nadic_expansions(f, 17, 200)] == want
    assert len(calls) == 3 * _newton_steps(200)


def test_expansion_depth_cap(x2p1):
    with pytest.raises(ResourceLimitError):
        nadic_expansions(x2p1, 5, nadic._MAX_DEPTH + 1)


@pytest.mark.parametrize(
    "base", [2, 3, 5, 65, 2**31 - 1, 2**62 + 135, 2**63 - 25, 2**64 + 13]
)
def test_leaf_digits_match_scalar_divmod(base):
    leaf = _leaf(base)
    rng = random.Random(base)
    counts = {1, leaf - 1, leaf, leaf + 1, 2 * leaf + 3, 7 * leaf - 2, 300}
    counts |= {rng.randrange(1, 2000) for _ in range(3)}
    powers = {}
    for count in sorted(c for c in counts if c >= 1):
        top = base**count
        values = [
            top - 1,  # every digit base - 1
            rng.randrange(top),
            rng.randrange(base ** max(count // 3, 1)),  # leading zero digits
            base ** (count // 2),  # one 1 among zeros
            0,
        ]
        for x in values:
            want = scalar_digits(x, base, count)
            for got in (nadic._split_digits(x, base, count, powers), nadic._split_digits(x, base, count, {})):
                assert got.dtype == (np.int64 if base < 2**63 else object)
                assert got.tolist() == want, (base, count, x)


def test_leaf_digits_in_several_batches():
    # more leaves than one numpy batch holds; the leaves here are one digit
    base = 2**62 + 135
    count = nadic._LEAF_BATCH * 2 + 5
    x = random.Random(3).randrange(base**count)
    assert nadic._split_digits(x, base, count, {}).tolist() == scalar_digits(x, base, count)


@pytest.mark.parametrize("base", [5, 2**64 + 13])
def test_expansion_built_from_digits_equals_the_lifted_tower(base, x2p1):
    exp = nadic_expansions(x2p1, base, 40)[0]
    built = NadicExpansion(x2p1, base, exp.digits)
    assert built == exp and hash(built) == hash(exp)
    assert built.depth == len(built.row) == exp.depth == 40
    assert NadicExpansion(x2p1, base, list(exp.digits)) == exp
    assert NadicExpansion(x2p1, base, exp.digits[:-1]) != exp
    assert NadicExpansion(IntPolynomial((2, 1, 1)), base, exp.digits) != exp
    assert len({exp, built}) == 1
    assert type(exp.seed_root) is int and exp.seed_root == exp.digits[0]
    # numpy integers are read as ints in either representation
    for digits in ([0, 4, np.int64(3), np.uint8(2)], np.array([0, 4, 3, 2], dtype=np.int64)):
        assert NadicExpansion(x2p1, base, digits).digits == (0, 4, 3, 2)


@pytest.mark.parametrize(
    "base, digits, problem",
    [(base, [0, 1.5], "digits must be integers") for base in (5, 2**64 + 13)]
    + [(base, [0, -1], "out of range") for base in (5, 2**64 + 13)]
    + [
        (5, np.array([0.0, 1.0]), "digits must be integers"),
        (5, ["1"], "digits must be integers"),
        (5, [1, 7], "out of range"),
        (5, [5], "out of range"),
        (5, np.array([4, 5], dtype=np.int64), "out of range"),
        (5, np.array([3, -1], dtype=np.int64), "out of range"),
        (5, [2**70], "out of range"),
        (2**64 + 13, [2**64 + 13], "out of range"),
    ],
)
def test_expansion_refuses_digits_that_are_not_digits(base, digits, problem, x2p1):
    with pytest.raises(InvalidArgumentError, match=problem):
        NadicExpansion(x2p1, base, digits)


def test_expansion_composite_base(x2p1):
    exps = nadic_expansions(x2p1, 65, 8)
    assert len(exps) == 4
    for e in exps:
        for level in (1, 4, 8):
            assert poly_eval_mod(x2p1, e.prefix_value(level), 65**level) == 0


def test_prefix_examples(x2p1):
    exp = [e for e in nadic_expansions(x2p1, 5, 5) if e.seed_root == 2][0]
    assert exp.prefix_value(3) == 57  # 2 + 5 + 50
    assert exp.prefix_value(1) == exp.seed_root
    assert exp.prefix_value(5) == 2057
    assert pow(2057, 2, 5**5) == 5**5 - 1
    with pytest.raises(InvalidArgumentError):
        exp.prefix_value(6)
    with pytest.raises(InvalidArgumentError):
        exp.prefix_value(0)


def test_tower_soundness_depth_200(x2p1):
    for exp in nadic_expansions(x2p1, 5, 200):
        for level in range(1, 201):
            assert poly_eval_mod(x2p1, exp.prefix_value(level), 5**level) == 0


def test_prefix_coherence(x3m2):
    for exp in nadic_expansions(x3m2, 5, 60):
        for level in range(2, 61):
            assert exp.prefix_value(level) % 5 ** (level - 1) == exp.prefix_value(level - 1)


def test_expansions_deterministic(x2p1):
    a = [e.digits for e in nadic_expansions(x2p1, 5, 100)]
    b = [e.digits for e in nadic_expansions(x2p1, 5, 100)]
    assert a == b


def test_word_frequencies_alternating():
    digits = [l % 2 for l in range(100)]
    rep = word_frequencies(digits, 2, 1)
    freqs = rep.frequencies()
    assert freqs[(0,)] == 0.5 and freqs[(1,)] == 0.5
    assert rep.max_deviation == 0.0
    rep2 = word_frequencies(digits, 2, 2)
    freqs2 = rep2.frequencies()
    assert freqs2[(0, 1)] == 50 / 99
    assert freqs2[(1, 0)] == 49 / 99
    assert freqs2[(0, 0)] == 0.0 and freqs2[(1, 1)] == 0.0
    assert rep2.max_deviation > 0.24


def test_word_frequencies_all_zeros():
    rep = word_frequencies([0] * 10, 2, 1)
    assert rep.frequencies()[(0,)] == 1.0
    assert rep.max_deviation == 0.5


def test_word_frequencies_invariants():
    rng = random.Random(4)
    digits = [rng.randrange(5) for _ in range(4000)]
    for m in (1, 2, 3):
        rep = word_frequencies(digits, 5, m)
        assert len(rep.counts) == 5**m
        assert abs(sum(rep.frequencies().values()) - 1.0) < 1e-12
        assert rep.window_count == 4000 - m + 1


def test_word_frequencies_errors():
    with pytest.raises(InvalidArgumentError):
        word_frequencies([0, 1], 2, 0)
    with pytest.raises(InvalidArgumentError):
        word_frequencies([0, 1], 2, 3)
    with pytest.raises(InvalidArgumentError):
        word_frequencies([0, 5], 5, 1)
    with pytest.raises(InvalidArgumentError):
        word_frequencies([-1, 0], 5, 1)


@pytest.mark.parametrize(
    "digits", [[0.5, 1.7, 1.2], [0, 1.0], np.array([0.5, 1.7, 1.2]), [0, None], [0, "1"]]
)
def test_word_frequencies_refuse_non_integer_digits(digits):
    with pytest.raises(InvalidArgumentError, match="digits must be integers"):
        word_frequencies(digits, 2, 1)


@pytest.mark.parametrize("base, m", [(5, 3), (13, 2), (2, 5)])
def test_words_are_the_base_n_digits_of_their_index(base, m):
    rng = random.Random(base * m)
    rep = word_frequencies([rng.randrange(base) for _ in range(3000)], base, m)
    words = [w for w, _ in rep.counts]
    assert [c for _, c in rep.counts] == list(rep.tally) and len(words) == base**m
    for code, word in enumerate(words):
        assert sum(d * base ** (m - 1 - j) for j, d in enumerate(word)) == code
        assert len(word) == m and all(0 <= d < base for d in word)
    assert list(rep.frequencies()) == words
    assert list(rep.frequencies().values()) == [c / rep.window_count for c in rep.tally]
    assert [e["word"] for e in rep.to_jsonable()["words"]] == [",".join(map(str, w)) for w in words]


def test_word_table_holds_one_count_per_word():
    # 5^8 = 390,625 words: one int per word is about 3 MB, a (word tuple,
    # count) pair per word about 60 MB
    digits = np.random.default_rng(5).integers(0, 5, 2 * 10**5)
    tracemalloc.start()
    rep = word_frequencies(digits, 5, 8)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert sum(c for _, c in rep.counts) == rep.window_count == 2 * 10**5 - 7
    assert held < 8 * 2**20


def test_word_frequencies_match_rolling_counts():
    rng = random.Random(11)
    for base in (2, 5, 7, 65):
        for m in range(1, 5):
            if base**m > nadic._MAX_WORD_TABLE:
                continue
            # every call walks the whole table: two lengths for the 65^3 words
            lengths = (m, m + 1, m + 7, 500, 20000) if base**m < 10**4 else (m + 1, 5000)
            for length in lengths:
                digits = [rng.randrange(base) for _ in range(length)]
                assert word_frequencies(digits, base, m) == rolling_word_frequencies(
                    digits, base, m
                ), (base, m, length)
    # tables at the cap's edge: the longest Horner codes, 2^20 and 12^5 words
    for base, m in ((2, 20), (12, 5)):
        assert base**m <= nadic._MAX_WORD_TABLE < base ** (m + 1)
        digits = np.array([rng.randrange(base) for _ in range(5000)], dtype=np.int64)
        assert word_frequencies(digits, base, m) == rolling_word_frequencies(digits, base, m)


def test_chi_square_calibration():
    # m = 1 windows are a clean multinomial: the statistic should sit inside
    # the 99.9% quantile almost always on uniform input
    df = 4
    cutoff = scipy.stats.chi2.ppf(0.999, df)
    good = 0
    for seed in range(100):
        rng = random.Random(seed)
        digits = [rng.randrange(5) for _ in range(5000)]
        rep = word_frequencies(digits, 5, 1)
        if rep.chi_square <= cutoff:
            good += 1
    assert good >= 95


def test_prefix_weyl_sum_small_level(x2p1):
    exp = [e for e in nadic_expansions(x2p1, 5, 10) if e.seed_root == 2][0]
    # levels = 1: terms are e(0) = 1 and e(h * a0 / 5)
    val = prefix_weyl_sum(exp, 1, 1)
    expected = 1 + cmath.exp(2j * cmath.pi * 2 / 5)
    assert abs(val - expected) < 1e-12
    assert abs(val) <= 2.0


def test_prefix_weyl_sum_matches_direct(x2p1):
    exp = [e for e in nadic_expansions(x2p1, 5, 10) if e.seed_root == 2][0]
    val = prefix_weyl_sum(exp, 1, 4)
    prefixes = [2, 7, 57, 182]
    direct = 1 + sum(
        cmath.exp(2j * cmath.pi * x / 5 ** (l + 1)) for l, x in enumerate(prefixes)
    )
    assert abs(val - direct / 4) < 1e-9


def test_prefix_weyl_sum_constant_digits_geometric():
    # a constant digit string c,c,c,... has prefix_l / n^l = c/(n-1) * (1 - n^-l),
    # so the phases follow a closed geometric form
    f = IntPolynomial((1, 0, 1))
    base, c, levels = 7, 3, 12
    exp = NadicExpansion(f, base, (c,) * levels)
    h = base - 1
    val = prefix_weyl_sum(exp, h, levels)
    direct = 1 + 0j
    for l in range(1, levels + 1):
        ratio = c * (base**l - 1) / (base - 1) / base**l
        direct += cmath.exp(2j * cmath.pi * h * ratio)
    assert abs(val - direct / levels) < 1e-9


@pytest.mark.parametrize("h", FREQUENCIES)
def test_prefix_weyl_sum_matches_exact_walk(h, x2p1, x2px1):
    towers = nadic_expansions(x2p1, 5, 3000) + nadic_expansions(x2px1, 7, 1500)
    towers += nadic_expansions(x2p1, 65, 600) + nadic_expansions(x2p1, 2**64 + 13, 300)
    # a base in (2^32, 2^63): blocks of one level over an int64 row
    towers += nadic_expansions(x2p1, 2**40 + 97, 300)
    for exp in towers:
        for levels in (1, 37, 38, 39, exp.depth // 3, exp.depth):
            got = prefix_weyl_sum(exp, h, levels)
            assert got == exact_prefix_weyl_sum(exp.digits, exp.base, h, levels)


@pytest.mark.parametrize("base", [5, 7, 65])
@pytest.mark.parametrize("h", FREQUENCIES)
def test_prefix_weyl_sum_top_digit_strings(base, h):
    exp = NadicExpansion(IntPolynomial((1, 0, 1)), base, _top_digit_string(base))
    assert prefix_weyl_sum(exp, h, 150) == exact_prefix_weyl_sum(exp.digits, base, h, 150)


@pytest.mark.parametrize("h", FREQUENCIES)
def test_phase_cells_match_exact_cells(h):
    strings = [(_top_digit_string(base), base) for base in (5, 7, 65)]
    strings += [(_three_twos_string(), 5), (_later_chunk_string(), 5)]
    for digits, base in strings:
        assert _cells([digits], base, h) == [_exact_cells(digits, base, h)]


@pytest.mark.parametrize("base", [2, 3, 5, 65, 2**32 - 5, 2**32, 2**32 + 15])
@pytest.mark.parametrize("h", FREQUENCIES)
def test_block_cells_match_exact_cells(base, h, monkeypatch):
    # levels B-1, B, B+1 and, with chunks cut to a few blocks, chunk edges,
    # over rows of top digits, zeros and random digits walked together
    block = nadic._block(base)
    assert base ** (block - 1) <= 2**32 < base**block
    for chunk_cells in (nadic._WALK_CHUNK, 12 * block):
        monkeypatch.setattr(nadic, "_WALK_CHUNK", chunk_cells)
        rng = random.Random(base ^ h)
        for length in (block - 1, block, block + 1, 2 * block + 3, 7 * block + 1):
            if length < 1:
                continue
            rows = [(base - 1,) * length, (0,) * length]
            rows += [tuple(rng.randrange(base) for _ in range(length)) for _ in range(2)]
            want = [_exact_cells(row, base, h) for row in rows]
            assert _cells(rows, base, h) == want, (length, chunk_cells)


def _walk_levels(digits, base, h, acc, levels):
    """The scalar walk's running sums at the given levels."""
    want = set(levels)
    return [s for l, s in enumerate(scalar_phase_walk(digits, base, h, acc), 1) if l in want]


def test_walk_matches_scalar_walk_on_golden_towers(golden_towers):
    # every level of the towers the goldens pin, walked alone and together,
    # across several chunks
    levels = range(1, 70001)
    rows = [exp.digits for exp in golden_towers]
    want = [list(scalar_phase_walk(row, 5, 1, complex(1.0, 0.0))) for row in rows]
    for row, sums in zip(rows, want):
        assert nadic._phase_walk([row], 5, 1, complex(1.0, 0.0), levels) == [sums]
    assert nadic._phase_walk(rows, 5, 1, complex(1.0, 0.0), levels) == want


@pytest.mark.parametrize("base", [2, 5, 65, 2**32 + 15])
@pytest.mark.parametrize("h", [1, -12345, 2**200 + 7])
def test_walk_of_rows_matches_scalar_walk_per_row(base, h, monkeypatch):
    # different digit strings in one 2-D walk, chunks cut short so that rows
    # cross several chunk edges
    monkeypatch.setattr(nadic, "_WALK_CHUNK", 40 * nadic._block(base))
    rng = random.Random(base)
    length = 23 * nadic._block(base) + 5
    rows = [(base - 1,) * length, (0,) * length]
    rows += [tuple(rng.randrange(base) for _ in range(length)) for _ in range(3)]
    levels = sorted({1, 2, length // 3, length - 1, length})
    for acc in (complex(1.0, 0.0), complex(0.0, 0.0)):
        want = [_walk_levels(row, base, h, acc, levels) for row in rows]
        assert nadic._phase_walk(rows, base, h, acc, levels) == want


def test_numpy_phases_match_cmath_on_golden_cells(golden_towers):
    for cells in _cells([exp.digits for exp in golden_towers], 5, 1):
        theta = nadic._TWO_PI * (np.array(cells, dtype=np.uint64) * 2.0**-64)
        want = [nadic._TWO_PI * (c * 2.0**-64) for c in cells]
        assert theta.tolist() == want
        phases = [cmath.exp(complex(0.0, t)) for t in want]
        assert np.cos(theta).tolist() == [z.real for z in phases]
        assert np.sin(theta).tolist() == [z.imag for z in phases]


@pytest.mark.parametrize("h", FREQUENCIES)
def test_walk_matches_scalar_walk_at_chunk_edges(h, golden_towers):
    levels = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1]
    for exp in golden_towers:
        digits = exp.digits[: 2 * CHUNK + 1]
        for acc in (complex(1.0, 0.0), complex(0.0, 0.0)):
            want = _walk_levels(digits, 5, h, acc, levels)
            assert nadic._phase_walk([digits], 5, h, acc, levels) == [want]
            assert nadic._phase_walk([digits], 5, h, acc, levels[-1:]) == [want[-1:]]


def test_walk_fallback_cell_in_a_later_chunk():
    # the oracle recomputes the cells of this run in the second chunk from
    # the whole prefix; the walk must agree with it across the chunk edge
    digits = _later_chunk_string()
    levels = list(range(CHUNK - 2, len(digits) + 1))
    got = nadic._phase_walk([digits], 5, 1, complex(1.0, 0.0), levels)
    assert got == [_walk_levels(digits, 5, 1, complex(1.0, 0.0), levels)]


def test_phase_window_falls_back_to_exact_cells(x2p1):
    # the cell is 2^63 at every level past the oracle's window, where the
    # oracle has to recompute it from the whole prefix
    levels = 120
    width = _window_width(5, 1)
    exp = NadicExpansion(x2p1, 5, _three_twos_string())
    (cells,) = _cells([exp.digits], 5, 1)
    assert cells[width:] == [2**63] * (levels - width)
    assert prefix_weyl_sum(exp, 1, levels) == exact_prefix_weyl_sum(exp.digits, 5, 1, levels)


def test_prefix_weyl_sum_errors(x2p1):
    exp = nadic_expansions(x2p1, 5, 5)[0]
    with pytest.raises(InvalidArgumentError):
        prefix_weyl_sum(exp, 1, 6)
    with pytest.raises(InvalidArgumentError):
        prefix_weyl_sum(exp, 0, 3)


def test_haar_monte_carlo_matches_mean(x2p1):
    mean, se = haar_monte_carlo(3, 64, 2000, seed=0)
    assert abs(mean - 1 / 64) <= 3 * se
    mean, se = haar_monte_carlo(5, 16, 10**4, seed=1)
    assert abs(mean - 1 / 16) <= 3 * se


@pytest.mark.parametrize("h", FREQUENCIES)
def test_haar_monte_carlo_matches_exact_walk(h):
    for base, levels, samples, seed in ((5, 200, 12, 0), (3, 64, 30, 7), (65, 40, 5, 2)):
        got = haar_monte_carlo(base, levels, samples, seed=seed, h=h)
        assert got == exact_haar_monte_carlo(base, levels, samples, seed=seed, h=h)


def _spy_walks(monkeypatch):
    """Record the digit rows of every walk, as lists of ints."""
    walks = []
    walk = nadic._phase_walk

    def spy(rows, *rest):
        walks.append([list(map(int, row)) for row in rows])
        return walk(rows, *rest)

    monkeypatch.setattr(nadic, "_phase_walk", spy)
    return walks


@pytest.mark.parametrize("base", (2, 4, 5, 7, 2**31 + 1, 2**32 - 5, 2**32, 2**64 + 13))
def test_haar_digits_are_randrange_draws(base, monkeypatch):
    # the batched walk gets, sample for sample, the digits rng.randrange(base)
    # draws, its rejections included
    walks = _spy_walks(monkeypatch)
    haar_monte_carlo(base, 300, 10, seed=11)
    want = []
    for i in range(10):
        rng = random.Random(f"11:{i}")
        want.append([rng.randrange(base) for _ in range(300)])
    assert walks == [want]
    if base == 2**31 + 1:
        # half the draws are rejected, so some rows keep fewer than 300 of
        # their first 2*300 + 16 words and draw a second time
        firsts = [random.Random(f"11:{i}").getrandbits(32 * 616) for i in range(10)]
        kept = [sum(x >> 32 * j & 0xFFFFFFFF < base for j in range(616)) for x in firsts]
        assert min(kept) < 300


@pytest.mark.parametrize("base", (3, 5, 65, 2**64 + 13))
def test_haar_batches_match_exact_walk(base, monkeypatch):
    # several batches of samples, and samples longer than a walk chunk
    monkeypatch.setattr(nadic, "_WALK_CHUNK", 256)
    walks = _spy_walks(monkeypatch)
    for levels, samples, batches in ((40, 32, [6] * 5 + [2]), (300, 4, [1] * 4)):
        walks.clear()
        got = haar_monte_carlo(base, levels, samples, seed=5, h=-3)
        assert got == exact_haar_monte_carlo(base, levels, samples, seed=5, h=-3)
        assert [len(w) for w in walks] == batches


def test_haar_memory_bounded_by_batch(monkeypatch):
    # a walk gets at most _WALK_CHUNK digits, so the peak does not grow with
    # the sample count
    walks = _spy_walks(monkeypatch)
    haar_monte_carlo(5, 100, 5000, seed=3)
    assert len(walks) > 10
    assert max(len(w) * 100 for w in walks) <= nadic._WALK_CHUNK
    monkeypatch.undo()
    peaks = []
    for samples in (500, 5000):
        tracemalloc.start()
        haar_monte_carlo(5, 100, samples, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 200 * nadic._WALK_CHUNK


def test_haar_monte_carlo_single_sample_deterministic():
    m1, se1 = haar_monte_carlo(2, 1, 1, seed=0)
    m2, se2 = haar_monte_carlo(2, 1, 1, seed=0)
    assert m1 == m2 and se1 == se2 == 0.0
    # one level: |S|^2 is either |e(h a0 / 2)|^2 = 1 regardless of the digit
    assert abs(m1 - 1.0) < 1e-12


def test_haar_monte_carlo_order_independence():
    # sample i uses its own PRNG stream, so the first k samples of any run
    # are those of the oracle, which draws each sample afresh
    full = haar_monte_carlo(3, 8, 50, seed=7)
    for k in (1, 10, 50):
        assert haar_monte_carlo(3, 8, k, seed=7) == exact_haar_monte_carlo(3, 8, k, seed=7)
    assert haar_monte_carlo(3, 8, 50, seed=7) == full


def test_normality_evidence_structure(x2p1):
    evidence = normality_evidence(x2p1, 5, 3000, 2)
    assert len(evidence) == 2
    for ev in evidence:
        assert [r.word_length for r in ev.reports] == [1, 2]
        assert len(ev.weyl_trajectory) == 3
        for _, mag in ev.weyl_trajectory:
            assert 0.0 <= mag <= 2.0


@pytest.mark.filterwarnings("ignore:depth")
@pytest.mark.parametrize("depth", [1, 2, 3, 7, 1000])
def test_normality_trajectory_matches_prefix_weyl_sums(depth, x2p1, x3m2):
    # one walk read at L/4, L/2 and L gives the bits of three separate walks
    for f in (x2p1, x3m2):
        evidence = normality_evidence(f, 5, depth, 1)
        assert evidence
        for ev, exp in zip(evidence, nadic_expansions(f, 5, depth)):
            levels = sorted({max(1, depth // 4), max(1, depth // 2), depth})
            want = tuple((l, abs(prefix_weyl_sum(exp, 1, l))) for l in levels)
            assert ev.weyl_trajectory == want, (f.coeffs, depth)


def test_normality_evidence_sparse_warning(x2p1):
    with pytest.warns(UserWarning, match="sparse"):
        evidence = normality_evidence(x2p1, 5, 100, 3)
    for ev in evidence:
        assert ev.reports[-1].sparse


def test_word_frequencies_same_for_lists_tuples_and_arrays():
    rng = random.Random(12)
    digits = [rng.randrange(5) for _ in range(3000)]
    for m in (1, 2, 4):
        want = word_frequencies(digits, 5, m)
        assert word_frequencies(tuple(digits), 5, m) == want
        assert word_frequencies(np.array(digits, dtype=np.int64), 5, m) == want
        assert word_frequencies(np.array(digits, dtype=np.uint8), 5, m) == want


@pytest.mark.parametrize(
    "digits, base, m",
    [
        ([0, 1], 1, 1),
        ([0, 1], 2, 0),
        ([0, 1], 2, 3),
        ([], 2, 1),
        ([0, 5], 5, 1),
        ([-1, 0], 5, 1),
        ([0, 5], 5, 3),  # shorter than the word length wins over the range
        ([0] * 20, 5, 10),
        ([0, 5] * 10, 5, 10),  # the range check comes before the table cap
    ],
)
def test_word_frequencies_errors_same_for_arrays(digits, base, m):
    with pytest.raises(InvalidArgumentError) as listed:
        word_frequencies(digits, base, m)
    with pytest.raises(InvalidArgumentError) as arrayed:
        word_frequencies(np.array(digits, dtype=np.int64), base, m)
    assert str(arrayed.value) == str(listed.value)


def _refuse_lift(monkeypatch):
    def lift(*args):
        raise AssertionError("lifted before the word checks")

    monkeypatch.setattr(nadic, "nadic_expansions", lift)


@pytest.mark.parametrize(
    "base, depth, max_m",
    [(13, 300000, 6), (5, 100, 10**7), (5, 3, 10**7), (2**64 + 13, 10, 1)],
)
def test_normality_refuses_word_lengths_before_the_lift(base, depth, max_m, x2p1, monkeypatch):
    # the same first error that word_frequencies would reach after the lift
    m = next(m for m in range(1, max_m + 1) if depth < m or base**m > nadic._MAX_WORD_TABLE)
    with pytest.raises(InvalidArgumentError) as want:
        word_frequencies(np.zeros(min(depth, 10), dtype=np.int64), base, m)
    if depth >= m:
        assert "word table would hold" in str(want.value)
    _refuse_lift(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(InvalidArgumentError) as got:
        normality_evidence(x2p1, base, depth, max_m)
    assert time.perf_counter() - t0 < 2.0
    assert str(got.value) == str(want.value)


def test_word_table_json_truncation():
    rng = random.Random(8)
    digits = [rng.randrange(3) for _ in range(10000)]
    rep = word_frequencies(digits, 3, 4)
    full = rep.to_jsonable()
    assert len(full["words"]) == 81 and not full["truncated"]
    cut = rep.to_jsonable(top=20)
    assert len(cut["words"]) == 20 and cut["truncated"]


@pytest.mark.parametrize(
    "call, message, argv",
    [
        (lambda f: haar_monte_carlo(1, 10, 2), "base must be at least 2", None),
        (lambda f: haar_monte_carlo(5, 0, 2), "levels must be at least 1", None),
        (lambda f: haar_monte_carlo(5, 10, 0), "need at least one sample", None),
        (lambda f: haar_monte_carlo(5, 10, 2, h=0), "frequency h must be nonzero", None),
        (lambda f: normality_evidence(f, 5, 100, 0), "max word length must be at least 1",
         ["normality", "--poly", "1,0,1", "--base", "5", "--depth", "100", "--max-m", "0"]),
        (lambda f: NadicExpansion(f, 5, []), "an expansion needs at least one digit", None),
    ],
)
def test_nadic_refusals(x2p1, call, message, argv, capsys):
    from rootdist.cli import main

    with pytest.raises(InvalidArgumentError, match=message):
        call(x2p1)
    if argv is not None:
        assert main(argv) == 2 and message in capsys.readouterr().err


def test_no_root_mod_the_base_gives_no_evidence(x2p1, capsys):
    # 3 is inert in Z[i]: x^2 + 1 has no root mod 3, so there is no tower
    from rootdist.cli import main

    assert nadic_expansions(x2p1, 3, 300) == []
    assert normality_evidence(x2p1, 3, 300, 1) == []
    assert main(["normality", "--poly", "1,0,1", "--base", "3", "--depth", "300", "--max-m", "1"]) == 0
    assert capsys.readouterr().out == '{\n  "evidence": [],\n  "verdict": null\n}\n'


def test_word_table_top_matches_a_full_sort_in_a_base_past_ten():
    # in base 12 word strings sort unlike digit tuples: "11,0" < "2,0" but
    # (11, 0) > (2, 0), and a tuple tie-break here differs from top 20 on
    rng = random.Random(12)
    rep = word_frequencies([rng.randrange(12) for _ in range(1500)], 12, 2)
    full = rep.to_jsonable()["words"]
    assert len(full) == 144 and len({e["deviation"] for e in full}) < 144  # ties to break
    want = sorted(full, key=lambda e: (-e["deviation"], e["word"]))
    for top in (1, 20, 143):
        cut = rep.to_jsonable(top=top)
        assert cut["truncated"] and cut["words"] == want[:top]
    assert rep.to_jsonable(top=144) == rep.to_jsonable()
