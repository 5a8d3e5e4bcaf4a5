"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Regression goldens live in tests/goldens/acceptance.json and are
regenerated by tools/gen_goldens.py.
"""

import json
import math
import random
import time
import warnings

import pytest

import rootdist as rd
from rootdist import ModulusFilter

from conftest import GOLDEN_DIR
from oracles import brute_roots, eratosthenes


@pytest.fixture(scope="module")
def goldens():
    return json.loads((GOLDEN_DIR / "acceptance.json").read_text())


@pytest.fixture(scope="module")
def big_sieve():
    return rd.SpfSieve(10**6)


def _report(num: int, desc: str, ok: bool, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.time() - t0:.1f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _at_most_one_adjacent_inversion(values) -> bool:
    inversions = sum(1 for a, b in zip(values, values[1:]) if not b < a)
    return inversions <= 1


def test_criterion_01_oracle_equivalence(reference_polys, small_sieve):
    t0 = time.time()
    ok = True
    for f in reference_polys:
        for n, rs in rd.root_stream(f, 3000):
            if list(rs) != brute_roots(f.coeffs, n):
                ok = False
                break
    _report(1, "roots equal brute-force enumeration for all n <= 3000, three polynomials", ok, t0)


def test_criterion_02_bijection(reference_polys, small_sieve):
    t0 = time.time()
    ok = True
    for f in reference_polys:
        bad = f.eta * f.discriminant
        for n in range(1, 3001):
            if math.gcd(n, bad) != 1:
                continue
            roots = rd.roots_mod_n(f, n)
            ideals = rd.enumerate_degree_one(f, n, small_sieve)
            if len(ideals) != len(roots):
                ok = False
                break
            for v in roots:
                if rd.ideal_residue(rd.ideal_from_root(f, v, n)) != v:
                    ok = False
                    break
            for ideal in ideals:
                if rd.ideal_from_root(f, rd.ideal_residue(ideal), n) != ideal:
                    ok = False
                    break
    _report(2, "root <-> ideal maps are mutually inverse for admissible n <= 3000", ok, t0)


def test_criterion_03_split_identities(reference_polys, small_sieve, x2px1):
    t0 = time.time()
    rng = random.Random(0)
    ok = True
    done = 0
    while done < 1000:
        f = reference_polys[done % 3]
        n1 = rng.randint(1, 316)
        n2 = rng.randint(1, 316)
        if math.gcd(n1, n2) != 1 or n1 * n2 > 10**5:
            continue
        h = rng.randint(-10, 10)
        lhs = rd.root_exp_sum_factored(f, h, n1, n2)
        rhs = rd.root_exp_sum(f, h, n1 * n2)
        if abs(lhs - rhs) >= 1e-9:
            ok = False
            break
        done += 1
    system = rd.PolySystem((x2px1, rd.parse_polynomial("-1,-1,1")))
    done = 0
    while ok and done < 500:
        n1 = rng.randint(1, 100)
        n2 = rng.randint(1, 100)
        if math.gcd(n1, n2) != 1 or n1 * n2 > 10**4:
            continue
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        lhs = rd.joint_exp_sum_factored(system, h, n1, n2)
        rhs = rd.joint_exp_sum(system, h, n1 * n2)
        if abs(lhs - rhs) >= 1e-9:
            ok = False
        done += 1
    _report(3, "coprime-split identities hold to 1e-9 on 1000 + 500 random splits", ok, t0)


def test_criterion_04_dilated_square_bound(reference_polys, small_sieve, x2p1):
    t0 = time.time()
    ok = True
    for f in reference_polys:
        for h in (1, 2, 3):
            for n in range(1, 501):
                if not rd.dilated_sum_square_bound(f, h, n).holds:
                    ok = False
    chk = rd.dilated_sum_square_bound(x2p1, 1, 5)
    ok = ok and abs(chk.lhs - 10) < 1e-6 and abs(chk.rhs - 10) < 1e-6
    _report(4, "mean-square dilation bound holds for n <= 500, h in {1,2,3}; equality at (1,5)", ok, t0)


def test_criterion_05_prime_statistics(x2p1, big_sieve):
    t0 = time.time()
    stats = rd.prime_stats(x2p1, 10**6, checkpoints=[10**6], sieve=big_sieve)
    _, sum_rho, _, pi_x, _, _, _ = stats.rows[-1]
    flags = eratosthenes(10**6)
    pi_oracle = sum(flags)
    one_mod_four = sum(1 for p in range(2, 10**6 + 1) if flags[p] and p % 4 == 1)
    expected = 2 * one_mod_four + 1  # two roots per split prime, one at p = 2
    ok = (
        sum_rho == expected == 78351
        and pi_x == pi_oracle == 78498
        and abs(sum_rho - pi_x) / pi_x < 0.02
    )
    _report(5, f"sum of rho(p) to 1e6 is {sum_rho} = 78351; pi(1e6) = {pi_x}", ok, t0)


def _weyl_trend(f, flt, golden, big_sieve):
    cps = [10**3, 10**4, 10**5, 10**6]
    series = rd.weyl_series(f, 1, 10**6, flt, cps, sieve=big_sieve)
    wvals = series.weyl_statistic
    d_low = rd.star_discrepancy(rd.ratio_points(f, 10**3, flt, big_sieve))
    d_high = rd.star_discrepancy(rd.ratio_points(f, 10**6, flt, big_sieve))
    trend_ok = _at_most_one_adjacent_inversion(wvals)
    disc_ok = d_high < d_low / 2
    golden_ok = (
        [f"{w:.12g}" for w in wvals] == golden["W"]
        and series.normalizer == golden["normalizer"]
        and f"{d_low:.12g}" == golden["star_discrepancy_1e3"]
        and f"{d_high:.12g}" == golden["star_discrepancy_1e6"]
    )
    return trend_ok, disc_ok, golden_ok, wvals


def test_criterion_06_equidistribution_trend(x2p1, big_sieve, goldens):
    t0 = time.time()
    trend_ok, disc_ok, golden_ok, wvals = _weyl_trend(
        x2p1, None, goldens["weyl"]["all"], big_sieve
    )
    _report(
        6,
        f"W decreasing {['%.3g' % w for w in wvals]}, discrepancy halves, goldens match",
        trend_ok and disc_ok and golden_ok,
        t0,
    )


def test_criterion_07_filtered_trends(x2p1, big_sieve, goldens):
    t0 = time.time()
    ok = True
    for name, flt in (
        ("squarefree", ModulusFilter.squarefree()),
        ("progression_1_4", ModulusFilter.progression(1, 4)),
    ):
        trend_ok, disc_ok, golden_ok, _ = _weyl_trend(
            x2p1, flt, goldens["weyl"][name], big_sieve
        )
        ok = ok and trend_ok and disc_ok and golden_ok
    _report(7, "same trend and discrepancy halving under squarefree and 1 mod 4 filters", ok, t0)


def test_criterion_08_tower(x2p1):
    t0 = time.time()
    exps = rd.nadic_expansions(x2p1, 5, 200)
    seed2 = next(e for e in exps if e.seed_root == 2)
    ok = seed2.digits[:5] == (2, 1, 2, 1, 3)
    for level in range(1, 201):
        value = seed2.prefix_value(level)
        if (value * value + 1) % 5**level != 0:
            ok = False
    _report(8, "5-adic tower starts (2,1,2,1,3) and is exact to depth 200", ok, t0)


def test_criterion_09_haar_variance():
    t0 = time.time()
    mean_a, se_a = rd.haar_monte_carlo(3, 64, 2000, seed=0)
    mean_b, se_b = rd.haar_monte_carlo(5, 16, 10**4, seed=1)
    ok = abs(mean_a - 1 / 64) <= 3 * se_a and abs(mean_b - 1 / 16) <= 3 * se_b
    _report(
        9,
        f"Haar mean-square {mean_a:.5f} vs 1/64 and {mean_b:.5f} vs 1/16, within 3 SE",
        ok,
        t0,
    )


def test_criterion_10_systems(x2px1, goldens):
    t0 = time.time()
    try:
        rd.PolySystem((rd.parse_polynomial("1,0,1"), rd.parse_polynomial("-2,0,1")))
        rejected = False
    except rd.InvalidArgumentError as exc:
        rejected = "gcd 4" in str(exc)
    system = rd.PolySystem((x2px1, rd.parse_polynomial("-1,-1,1")))
    tuples_ok = rd.root_tuples(system, 31) == ((5, 13), (5, 19), (25, 13), (25, 19))
    cps = [10**3, 10**4, 10**5]
    series = rd.joint_weyl_series(system, 10**5, checkpoints=cps)
    disc = series.box_disc
    golden = goldens["system"]
    golden_ok = (
        [f"{d:.12g}" for d in disc] == golden["box_discrepancy"]
        and series.normalizer == golden["normalizer"]
        and all(
            [f"{w:.12g}" for w in series.weyl_statistic(h)]
            == golden["W"]["_".join(map(str, h))]
            for h in series.hset
        )
    )
    ok = rejected and tuples_ok and disc[-1] < disc[0] and golden_ok
    _report(
        10,
        f"system validation, 4 tuples mod 31, box discrepancy {disc[0]:.4f} -> {disc[-1]:.4f}",
        ok,
        t0,
    )


def test_criterion_11_normality_evidence(x2p1, goldens):
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # m = 3 at depth 1e4 is sparse
        evidence = rd.normality_evidence(x2p1, 5, 10**4, 3)
    # Report-only: the criterion checks that the tables exist and match the
    # pinned run, never that the digits "are normal".
    ok = len(evidence) == 2
    for ev, golden in zip(evidence, goldens["normality"]):
        ok = ok and ev.seed_root == golden["seed_root"]
        for rep in ev.reports:
            key = str(rep.word_length)
            ok = ok and f"{rep.max_deviation:.12g}" == golden["max_deviation"][key]
            ok = ok and f"{rep.chi_square:.12g}" == golden["chi_square"][key]
        traj = [[lvl, f"{mag:.12g}"] for lvl, mag in ev.weyl_trajectory]
        ok = ok and traj == golden["weyl_trajectory"]
    devs = [f"{r.max_deviation:.3g}" for r in evidence[0].reports]
    _report(11, f"normality evidence emitted (max deviations m=1..3: {devs}), goldens match", ok, t0)
