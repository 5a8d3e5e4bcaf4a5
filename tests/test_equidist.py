import math
import random
import tracemalloc

import numpy as np
import pytest

from rootdist import (
    DiscrepancyReport,
    HSpec,
    InvalidArgumentError,
    ModulusFilter,
    PolySystem,
    ResourceLimitError,
    box_discrepancy,
    decades,
    dilated_sum_square_bound,
    joint_weyl_series,
    parse_polynomial,
    prime_stats,
    progression_root_sums,
    ratio_points,
    root_exp_sum,
    root_exp_sum_factored,
    roots_mod_n,
    split_prime_count,
    star_discrepancy,
    weyl_series,
)

from rootdist import SpfSieve, modarith
from rootdist.cli import main
from rootdist.roots import clear_caches
from rootdist.equidist import _GRID_CELL_CAP, _check_grid, box_discrepancy_from_hist
from oracles import (
    direct_exp_sum,
    eratosthenes,
    exact_star_discrepancy,
    trial_factorize,
    van_der_corput,
)


GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def test_exp_sum_golden_ratio_identity(x2p1):
    val = root_exp_sum(x2p1, 1, 5)
    # e(2/5) + e(3/5) = 2 cos(4 pi / 5) = -(1 + sqrt 5)/2
    assert abs(val - complex(-GOLDEN_RATIO, 0)) < 1e-12


def test_exp_sum_h_zero_gives_count(x2p1):
    assert root_exp_sum(x2p1, 0, 5) == 2
    assert root_exp_sum(x2p1, 5, 5) == 2  # h = 0 mod n
    # every phase is cos 0 = 1.0 and sin 0 = 0.0, so the loop sums ones
    x2p3 = parse_polynomial("3,0,1")
    for f, n in ((x2p1, 5), (x2p1, 65), (x2p1, 3), (x2p3, 508), (x2p3, 1)):
        for k in (0, 1, -2):
            want = complex(len(roots_mod_n(f, n)), 0.0)
            assert repr(root_exp_sum(f, k * n, n)) == repr(want), (f.coeffs, n, k)


def test_exp_sum_exactly_zero():
    # the roots of x^2 + 3 mod 508 are 39, 254 - 39, 254 + 39 and 508 - 39,
    # and their phases cancel in floats to exactly 0
    assert root_exp_sum(parse_polynomial("3,0,1"), 1, 508) == 0j


def test_exp_sum_bounded_and_conjugate(reference_polys, small_sieve):
    rng = random.Random(31)
    for _ in range(300):
        f = rng.choice(reference_polys)
        n = rng.randint(1, 400)
        h = rng.randint(-20, 20)
        roots = roots_mod_n(f, n)
        z = root_exp_sum(f, h, n, roots)
        assert abs(z) <= len(roots) + 1e-9
        zc = root_exp_sum(f, -h, n, roots)
        assert abs(z - zc.conjugate()) < 1e-9


def test_exp_sum_matches_direct(reference_polys, small_sieve):
    rng = random.Random(37)
    for _ in range(200):
        f = rng.choice(reference_polys)
        n = rng.randint(2, 500)
        h = rng.randint(1, 50)
        roots = roots_mod_n(f, n)
        assert abs(root_exp_sum(f, h, n, roots) - direct_exp_sum(roots, h, n)) < 1e-9


def test_factored_exp_sum_examples(x2p1):
    lhs = root_exp_sum_factored(x2p1, 1, 5, 13)
    assert abs(lhs - root_exp_sum(x2p1, 1, 65)) < 1e-9
    assert root_exp_sum_factored(x2p1, 0, 5, 13) == 4  # counts multiply
    assert root_exp_sum_factored(x2p1, 1, 5, 3) == 0  # empty factor annihilates


def test_factored_exp_sum_random(x2p1, small_sieve):
    rng = random.Random(41)
    done = 0
    while done < 1000:
        n1 = rng.randint(1, 316)
        n2 = rng.randint(1, 316)
        if math.gcd(n1, n2) != 1 or n1 * n2 > 10**5:
            continue
        h = rng.randint(-5, 5)
        got = root_exp_sum_factored(x2p1, h, n1, n2)
        want = root_exp_sum(x2p1, h, n1 * n2)
        assert abs(got - want) < 1e-9
        done += 1


def test_factored_exp_sum_rejects_common_factor(x2p1):
    with pytest.raises(InvalidArgumentError):
        root_exp_sum_factored(x2p1, 1, 6, 4)


def test_weyl_normalizer_example(x2p1):
    series = weyl_series(x2p1, 0, 10)
    assert series.normalizer[-1] == 6
    assert series.signed[-1] == 6  # h = 0: signed equals normalizer exactly


def test_weyl_signed_matches_direct(x2p1, small_sieve):
    series = weyl_series(x2p1, 1, 10, checkpoints=[10], sieve=small_sieve)
    direct = sum(
        direct_exp_sum(roots_mod_n(x2p1, n), 1, n)
        for n in range(1, 11)
    )
    assert abs(series.signed[0] - direct) < 1e-9


def test_weyl_xmax_one(x2p1):
    series = weyl_series(x2p1, 1, 1, checkpoints=[1])
    assert series.signed == [1]
    assert series.normalizer == [1]


def test_weyl_abs_dominates_signed(x2p1):
    series = weyl_series(x2p1, 1, 200)
    for z, a in zip(series.signed, series.abs_sum):
        assert a >= abs(z) - 1e-9


def test_weyl_empty_stream_flags(x2p1):
    series = weyl_series(x2p1, 1, 3, ModulusFilter.explicit([3]), checkpoints=[3])
    assert series.normalizer == [0]
    assert series.empty_flags == [True]
    assert math.isnan(series.weyl_statistic[0])


def test_weyl_inverse_mode(x2p1, small_sieve):
    # h(n) is the inverse of 2 mod n; only odd n contribute
    series = weyl_series(x2p1, HSpec.inverse_of(2), 15, checkpoints=[15], sieve=small_sieve)
    total = 0j
    norm = 0
    for n in range(1, 16):
        if n % 2 == 0:
            continue
        roots = roots_mod_n(x2p1, n)
        hn = pow(2, -1, n) if n > 1 else 0
        total += direct_exp_sum(roots, hn, n)
        norm += len(roots)
    assert abs(series.signed[0] - total) < 1e-9
    assert series.normalizer[0] == norm


def test_weyl_rejects_bad_checkpoints(x2p1):
    with pytest.raises(InvalidArgumentError):
        weyl_series(x2p1, 1, 10, checkpoints=[0, 5])
    with pytest.raises(InvalidArgumentError):
        weyl_series(x2p1, 1, 10, checkpoints=[20])


def test_weyl_csv_shape(x2p1):
    series = weyl_series(x2p1, 1, 100, checkpoints=[10, 100])
    rows = series.csv_rows()
    assert rows[0] == ["x", "signed_re", "signed_im", "abs_sum", "normalizer", "W"]
    assert len(rows) == 3


def test_star_discrepancy_examples():
    assert star_discrepancy([0.5]) == 0.5
    assert star_discrepancy([0.0, 0.25, 0.5, 0.75]) == 0.25
    assert star_discrepancy([0.0, 0.0, 0.0, 0.0]) == 1.0
    with pytest.raises(InvalidArgumentError):
        star_discrepancy([])


def test_star_discrepancy_matches_exact_oracle(x2p1, small_sieve):
    pairs = [
        (v, n)
        for n in range(1, 200)
        for v in roots_mod_n(x2p1, n)
    ]
    got = star_discrepancy([v / n for v, n in pairs])
    assert abs(got - float(exact_star_discrepancy(pairs))) < 1e-12


def test_star_discrepancy_van_der_corput_bound():
    for count in (10, 100, 1000):
        d = star_discrepancy(van_der_corput(count))
        assert d <= 2 * math.log(count + 1) / count


def test_discrepancy_report_invariants():
    DiscrepancyReport(4, 0.25, "star", 4)
    with pytest.raises(InvalidArgumentError):
        DiscrepancyReport(4, 1.5, "star", 4)
    with pytest.raises(InvalidArgumentError):
        DiscrepancyReport(4, 0.05, "star", 4)  # below 1/(2N)


def test_box_discrepancy_1d_close_to_star():
    pts = [k / 97 for k in range(97)]
    star = star_discrepancy(pts)
    box = box_discrepancy(pts, 64)
    assert abs(star - box) < 1.0 / 32


def test_dilated_bound_equality_instance(x2p1):
    chk = dilated_sum_square_bound(x2p1, 1, 5)
    assert chk.holds
    assert abs(chk.lhs - 10) < 1e-6 and abs(chk.rhs - 10) < 1e-6


def test_dilated_bound_zero_instance(x2p1):
    chk = dilated_sum_square_bound(x2p1, 1, 3)
    assert chk.holds and chk.lhs == 0 and chk.rhs == 0


def test_dilated_bound_gcd_saturation(x2p1):
    # h = n: every dilation is trivial, so lhs = n * rho(n)^2 and the bound
    # saturates its gcd factor at n
    chk = dilated_sum_square_bound(x2p1, 5, 5)
    assert chk.holds
    assert abs(chk.lhs - 20) < 1e-6  # 5 * rho(5)^2
    assert abs(chk.rhs - 50) < 1e-6  # 5 * gcd(5,5) * 4 / 2


def test_split_prime_count_examples(x2p1):
    assert split_prime_count(x2p1, 65) == 2
    assert split_prime_count(x2p1, 6) == 0
    assert split_prime_count(x2p1, 1) == 0


@pytest.mark.parametrize("coeffs", [(1, 1, 6), (-3, 2, 2), (-2, 0, 0, 1), (-1, -3, 0, 5)])
def test_split_prime_count_matches_a_residue_scan(coeffs):
    # the leading coefficients 6, 2 and 5 have prime factors; 23 divides the
    # discriminant of 6x^2 + x + 1, 7 that of 2x^2 + 2x - 3, and 2 and 3 that of x^3 - 2
    f = parse_polynomial(",".join(map(str, coeffs)))
    bad = f.eta * f.discriminant
    split = [False] * 2001
    for p in (p for p in range(2, 2001) if all(p % q for q in range(2, math.isqrt(p) + 1))):
        roots = [v for v in range(p) if sum(c * v**j for j, c in enumerate(coeffs)) % p == 0]
        split[p] = len(roots) == f.degree and bad % p != 0
    for n in range(1, 2001):
        assert split_prime_count(f, n) == sum(split[p] for p, _ in trial_factorize(n)), n


def test_stream_consumers_read_the_shared_sieve(x2p1, monkeypatch):
    # a caller's sieve is not read: the modulus table fills from the shared one
    clear_caches()
    monkeypatch.setattr(modarith, "_shared_sieve", None)
    got = weyl_series(x2p1, 1, 3000, sieve=SpfSieve(10**4))
    assert modarith._shared_sieve is not None and modarith._shared_sieve.limit >= 3000
    clear_caches()
    want = weyl_series(x2p1, 1, 3000)
    assert (got.signed, got.abs_sum, got.normalizer) == (want.signed, want.abs_sum, want.normalizer)
    clear_caches()


def test_prime_stats_small(x2p1):
    stats = prime_stats(x2p1, 10, checkpoints=[10])
    x, sum_rho, x_log, pi, _, _, _ = stats.rows[0]
    assert sum_rho == 3  # p = 2 contributes 1, p = 5 contributes 2
    assert pi == 4
    assert abs(x_log - 10 / math.log(10)) < 1e-12


def test_prime_stats_rejects_small_xmax(x2p1):
    with pytest.raises(InvalidArgumentError):
        prime_stats(x2p1, 1)


def test_progression_sums_examples(x2p1):
    sums = progression_root_sums(x2p1, 1, 4, 10, checkpoints=[10])
    assert sums.sums == [3]  # n in {1, 5, 9}: 1 + 2 + 0
    sums = progression_root_sums(x2p1, 3, 4, 10, checkpoints=[10])
    assert sums.sums == [0]
    unrestricted = progression_root_sums(x2p1, 1, 1, 10, checkpoints=[10])
    assert unrestricted.sums == [6]


def test_progression_rejects_common_factor(x2p1):
    with pytest.raises(InvalidArgumentError):
        progression_root_sums(x2p1, 2, 4, 10)


def test_progression_slope_scaling(x2p1):
    sums = progression_root_sums(x2p1, 1, 4, 1000, checkpoints=[1000])
    assert sums.csv_rows()[-1][2] == f"{sums.sums[-1] * 2 / 1000:.12g}"  # phi(4) = 2


def test_checkpoint_rows_match_runs_stopped_there(x2p1, x2px1):
    # Unsorted, repeated checkpoints whose last one lies below xmax: row k
    # must be exactly the final row of a run to xmax = c_k.  61 and 1009 are
    # primes that are 1 mod 3, 1 mod 4 and +-1 mod 5, so every statistic
    # counts them, and a row that missed its own checkpoint shows in the
    # root count summed directly below.
    cps, xmax = [1009, 61, 1009, 1301], 1500
    system = PolySystem((x2px1, parse_polynomial("-1,-1,1")))
    f, g = system.polys

    def rho(poly, n):
        return len(roots_mod_n(poly, n))

    def squarefree(n):
        return all(e == 1 for _, e in trial_factorize(n))

    def weyl_rows(out):
        return list(zip(out.normalizer, out.signed, out.abs_sum, out.empty_flags))

    def joint_rows(out):
        return [
            (norm, disc, [out.signed[h][k] for h in out.hset], [out.abs_sum[h][k] for h in out.hset])
            for k, (norm, disc) in enumerate(zip(out.normalizer, out.box_disc))
        ]

    # name: (run to x with checkpoints c, rows, root count in a row, that count to c)
    cases = {
        "weyl": (
            lambda x, c: weyl_series(x2p1, HSpec.inverse_of(3), x, ModulusFilter.squarefree(), c),
            weyl_rows,
            lambda row: row[0],
            lambda c: sum(rho(x2p1, n) for n in range(1, c + 1) if n % 3 and squarefree(n)),
        ),
        "stats": (
            lambda x, c: prime_stats(x2p1, x, c),
            lambda out: out.rows,
            lambda row: row[3],
            lambda c: sum(eratosthenes(c)),
        ),
        "sums": (
            lambda x, c: progression_root_sums(x2p1, 1, 4, x, c),
            lambda out: out.csv_rows()[1:],
            lambda row: int(row[1]),
            lambda c: sum(rho(x2p1, n) for n in range(1, c + 1, 4)),
        ),
        "joint": (
            lambda x, c: joint_weyl_series(system, x, checkpoints=c),
            joint_rows,
            lambda row: row[0],
            lambda c: sum(rho(f, n) * rho(g, n) for n in range(1, c + 1)),
        ),
    }
    for name, (run, rows, count, direct) in cases.items():
        out = run(xmax, cps)
        assert out.checkpoints == [61, 1009, 1301], name
        got = rows(out)
        assert len(got) == 3, name
        for row, c in zip(got, out.checkpoints):
            assert row == rows(run(c, [c]))[-1], (name, c)
            assert count(row) == direct(c), (name, c)


def test_decades():
    assert decades(1) == [1]
    assert decades(10) == [10]
    assert decades(123) == [10, 100, 123]
    assert decades(10**4) == [10, 100, 1000, 10**4]


def test_ratio_points_matches_stream(x2p1, small_sieve):
    pts = ratio_points(x2p1, 50, sieve=small_sieve)
    manual = [
        v / n
        for n in range(1, 51)
        for v in roots_mod_n(x2p1, n)
    ]
    assert pts.tolist() == manual


def test_hspec_parse():
    assert HSpec.parse("0") == HSpec.const(0)
    assert HSpec.parse("-3") == HSpec.const(-3)
    assert HSpec.parse("inv:2") == HSpec.inverse_of(2)
    with pytest.raises(InvalidArgumentError):
        HSpec.parse("inv:x")
    with pytest.raises(InvalidArgumentError):
        HSpec.parse("h=1")


@pytest.mark.parametrize(
    "call, exc, message, argv",
    [
        (lambda f: HSpec("bogus", 1), InvalidArgumentError, "unknown h mode 'bogus'", None),
        (lambda f: HSpec.parse("inv:0"), InvalidArgumentError, "inverse mode needs a positive m",
         ["weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "inv:0"]),
        (lambda f: decades(0), InvalidArgumentError, "xmax must be at least 1",
         ["weyl", "--poly", "1,0,1", "--xmax", "0"]),
        (lambda f: box_discrepancy(np.zeros((0, 2)), 4), InvalidArgumentError,
         "box discrepancy of an empty sample is undefined", None),
        (lambda f: box_discrepancy([0.5], 1), InvalidArgumentError,
         "grid resolution must be at least 2", None),
        (lambda f: box_discrepancy_from_hist(np.zeros((4, 4)), 0), InvalidArgumentError,
         "box discrepancy of an empty sample is undefined", None),
        (lambda f: split_prime_count(f, 0), InvalidArgumentError, "modulus must be positive", None),
        (lambda f: root_exp_sum(f, 1, 0, (0,)), InvalidArgumentError, "modulus must be positive", None),
        (lambda f: star_discrepancy(np.zeros((2, 2))), InvalidArgumentError,
         "star discrepancy needs one-dimensional points", None),
    ],
)
def test_equidist_refusals(x2p1, call, exc, message, argv, capsys):
    with pytest.raises(exc, match=message):
        call(x2p1)
    if argv is not None:
        assert main(argv) == exc.exit_code
        assert message.replace("\\", "") in capsys.readouterr().err


@pytest.mark.parametrize(
    "discrepancy, points",
    [
        # min() and max() of a sample with a NaN are NaN, which star let through
        (star_discrepancy, [0.5, math.nan]),
        (star_discrepancy, [0.5, 1.0]),
        (star_discrepancy, [-0.25, 0.5]),
        (star_discrepancy, [0.5, -math.inf]),
        # histogramdd drops such a point from the counts while the sample
        # size keeps it: box read 0.5 for the first two on a 4-grid
        (lambda pts: box_discrepancy(pts, 4), [1.5, 0.2]),
        (lambda pts: box_discrepancy(pts, 4), [0.5, math.nan]),
        (lambda pts: box_discrepancy(pts, 4), [[0.2, 0.3], [0.4, 1.0]]),
        (lambda pts: box_discrepancy(pts, 4), [[0.2, math.nan], [0.4, 0.5]]),
    ],
)
def test_discrepancies_refuse_points_outside_the_unit_interval(discrepancy, points):
    with pytest.raises(InvalidArgumentError, match=r"points must lie in \[0, 1\)"):
        discrepancy(points)


def test_box_grid_past_the_cell_cap_is_refused_before_allocating():
    side = {1: _GRID_CELL_CAP, 2: math.isqrt(_GRID_CELL_CAP), 3: round(_GRID_CELL_CAP ** (1 / 3))}
    for r, grid in side.items():
        while grid**r <= _GRID_CELL_CAP:
            grid += 1
        _check_grid(grid - 1, r)  # the largest grid under the cap passes
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cells, past the cap of 4194304") as info:
                box_discrepancy(np.full((3, r), 0.5), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.exit_code == 1
        assert peak < 1 << 20, (r, grid, peak)
