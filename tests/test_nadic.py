import cmath
import random

import pytest
import scipy.stats

from oracles import (
    exact_haar_monte_carlo,
    exact_prefix_weyl_sum,
    linear_hensel_digits,
    rolling_word_frequencies,
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
from rootdist import nadic

FREQUENCIES = (1, -1, 3, -12345, 2**40 + 1)


def _window_width(base, h):
    """Least W with base^W >= |h| * 2^88."""
    w = 1
    while base**w < abs(h) * 2**88:
        w += 1
    return w


def _count_exact_cells(monkeypatch):
    """Count the levels whose phase cell the walk recomputes in full."""
    calls = []
    inner = nadic._frac_cell

    def spy(num, den):
        calls.append(den)
        return inner(num, den)

    monkeypatch.setattr(nadic, "_frac_cell", spy)
    return calls


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


def test_expansion_depth_cap(x2p1):
    with pytest.raises(ResourceLimitError):
        nadic_expansions(x2p1, 5, nadic._MAX_DEPTH + 1)


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
    towers += nadic_expansions(x2p1, 65, 600)
    for exp in towers:
        for levels in (1, 37, 38, 39, exp.depth // 3, exp.depth):
            got = prefix_weyl_sum(exp, h, levels)
            assert got == exact_prefix_weyl_sum(exp.digits, exp.base, h, levels)


@pytest.mark.parametrize("base", [5, 7, 65])
@pytest.mark.parametrize("h", FREQUENCIES)
def test_prefix_weyl_sum_top_digit_strings(base, h, monkeypatch):
    # x_l = 1 - n^-l sits just below 1, so for h > 0 the window
    # [T, T+1)/n^W straddles the cell boundary at h at every level past W
    exact = _count_exact_cells(monkeypatch)
    exp = NadicExpansion(IntPolynomial((1, 0, 1)), base, (base - 1,) * 150)
    assert prefix_weyl_sum(exp, h, 150) == exact_prefix_weyl_sum(exp.digits, base, h, 150)
    if h > 0:
        assert len(exact) == 150 - _window_width(base, h)


def test_phase_window_falls_back_to_exact_cells(x2p1, monkeypatch):
    # digits 3, 2, 2, ... give x_l = 1/2 + 5^-l/2 just above 1/2, while the
    # window of top digits 2...2 reads just below 1/2: only the exact
    # recomputation gives the cell 2^63 at every level past W
    levels = 120
    width = _window_width(5, 1)
    exp = NadicExpansion(x2p1, 5, (3,) + (2,) * (levels - 1))
    exact = _count_exact_cells(monkeypatch)
    cells = list(nadic._phase_cells(exp.digits, 5, 1))
    assert cells[width:] == [2**63] * (levels - width)
    assert exact == [5**l for l in range(width + 1, levels + 1)]
    assert prefix_weyl_sum(exp, 1, levels) == exact_prefix_weyl_sum(exp.digits, 5, 1, levels)
    # a real tower certifies every level from its window
    exact.clear()
    for tower in nadic_expansions(x2p1, 5, 4000):
        for h in FREQUENCIES:
            prefix_weyl_sum(tower, h, 4000)
    assert exact == []


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


def test_haar_monte_carlo_single_sample_deterministic():
    m1, se1 = haar_monte_carlo(2, 1, 1, seed=0)
    m2, se2 = haar_monte_carlo(2, 1, 1, seed=0)
    assert m1 == m2 and se1 == se2 == 0.0
    # one level: |S|^2 is either |e(h a0 / 2)|^2 = 1 regardless of the digit
    assert abs(m1 - 1.0) < 1e-12


def test_haar_monte_carlo_order_independence():
    # sample i uses its own PRNG stream, so a prefix run matches a full run
    full, _ = haar_monte_carlo(3, 8, 50, seed=7)
    prefix_vals = []
    for i in (10, 50):
        m, _ = haar_monte_carlo(3, 8, i, seed=7)
        prefix_vals.append(m)
    redo, _ = haar_monte_carlo(3, 8, 50, seed=7)
    assert full == redo


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


def test_word_table_json_truncation():
    rng = random.Random(8)
    digits = [rng.randrange(3) for _ in range(10000)]
    rep = word_frequencies(digits, 3, 4)
    full = rep.to_jsonable()
    assert len(full["words"]) == 81 and not full["truncated"]
    cut = rep.to_jsonable(top=20)
    assert len(cut["words"]) == 20 and cut["truncated"]
