import cmath
import math
import random

import pytest

from rootdist import (
    InvalidArgumentError,
    ResourceLimitError,
    ModulusFilter,
    PolySystem,
    default_hset,
    joint_exp_sum,
    joint_exp_sum_factored,
    joint_weyl_series,
    parse_polynomial,
    root_exp_sum,
    root_tuples,
    roots_mod_n,
    weyl_series,
)


@pytest.fixture(scope="module")
def pair_system(x2px1):
    return PolySystem((x2px1, parse_polynomial("-1,-1,1")))


def test_validate_accepts_coprime_discs(pair_system):
    assert pair_system.discriminants == (-3, 5)
    assert pair_system.eta == 1


def test_validate_rejects_shared_disc(x2p1):
    with pytest.raises(InvalidArgumentError) as info:
        PolySystem((x2p1, parse_polynomial("-2,0,1")))
    assert "gcd 4" in str(info.value)
    assert "0 and 1" in str(info.value)


def test_singleton_system_valid(x2p1):
    assert PolySystem((x2p1,)).dimension == 1


def test_root_tuples_example(pair_system):
    tset = root_tuples(pair_system, 31)
    assert tset == ((5, 13), (5, 19), (25, 13), (25, 19))
    for v1, v2 in tset:
        assert (v1 * v1 + v1 + 1) % 31 == 0
        assert (v2 * v2 - v2 - 1) % 31 == 0


def test_root_tuples_mod_one(pair_system):
    assert root_tuples(pair_system, 1) == ((0, 0),)


def test_root_tuples_empty(pair_system):
    assert root_tuples(pair_system, 2) == ()


def test_tuple_count_multiplicative(pair_system, small_sieve):
    rng = random.Random(3)
    done = 0
    while done < 200:
        n1 = rng.randint(1, 100)
        n2 = rng.randint(1, 100)
        if math.gcd(n1, n2) != 1:
            continue
        a = len(root_tuples(pair_system, n1))
        b = len(root_tuples(pair_system, n2))
        c = len(root_tuples(pair_system, n1 * n2))
        assert c == a * b
        done += 1


def test_joint_exp_sum_factors_on_zero_component(pair_system):
    got = joint_exp_sum(pair_system, (1, 0), 31)
    f1 = pair_system.polys[0]
    expected = root_exp_sum(f1, 1, 31) * 2
    assert abs(got - expected) < 1e-12


def test_joint_exp_sum_with_an_exactly_zero_factor():
    # x^2 + 3 has S(1, 508) = 0 exactly, and x^2 + x + 2 has roots mod 508
    system = PolySystem((parse_polynomial("3,0,1"), parse_polynomial("2,1,1")))
    assert roots_mod_n(system.polys[1], 508)
    assert joint_exp_sum(system, (1, 1), 508) == 0


def test_joint_exp_sum_zero_vector_counts(pair_system):
    assert joint_exp_sum(pair_system, (0, 0), 31) == 4


def test_joint_exp_sum_matches_direct_tuple_sum(pair_system, small_sieve):
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 300)
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        direct = 0j
        for tup in root_tuples(pair_system, n):
            phase = sum(hi * vi for hi, vi in zip(h, tup))
            direct += cmath.exp(2j * cmath.pi * phase / n)
        got = joint_exp_sum(pair_system, h, n)
        assert abs(got - direct) < 1e-9


def test_joint_exp_sum_separability(pair_system, small_sieve):
    # zero second component: the sum factors into (f1 twisted sum) * rho_2(n)
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(2, 200)
        h1 = rng.randint(-4, 4)
        got = joint_exp_sum(pair_system, (h1, 0), n)
        lhs = root_exp_sum(pair_system.polys[0], h1, n)
        rho2 = len(roots_mod_n(pair_system.polys[1], n))
        assert abs(got - lhs * rho2) < 1e-9


def test_joint_factored_identity_examples(pair_system):
    direct = joint_exp_sum(pair_system, (1, 1), 341)
    split = joint_exp_sum_factored(pair_system, (1, 1), 31, 11)
    assert abs(direct - split) < 1e-9
    # n1 = 1 degenerates to the plain sum
    assert abs(
        joint_exp_sum_factored(pair_system, (1, 1), 1, 31)
        - joint_exp_sum(pair_system, (1, 1), 31)
    ) < 1e-9
    assert joint_exp_sum_factored(pair_system, (0, 0), 31, 11).real == pytest.approx(
        len(root_tuples(pair_system, 31)) * len(root_tuples(pair_system, 11))
    )


def test_joint_factored_identity_random(pair_system, small_sieve):
    rng = random.Random(29)
    done = 0
    while done < 500:
        n1 = rng.randint(1, 100)
        n2 = rng.randint(1, 100)
        if math.gcd(n1, n2) != 1 or n1 * n2 > 10**4:
            continue
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        got = joint_exp_sum_factored(pair_system, h, n1, n2)
        want = joint_exp_sum(pair_system, h, n1 * n2)
        assert abs(got - want) < 1e-9
        done += 1


def test_joint_factored_rejects_common_factor(pair_system):
    with pytest.raises(InvalidArgumentError):
        joint_exp_sum_factored(pair_system, (1, 1), 6, 4)


def test_default_hset():
    hs = default_hset(2)
    assert len(hs) == 8
    assert (0, 0) not in hs
    assert all(set(h) <= {-1, 0, 1} for h in hs)


def test_joint_weyl_rejects_zero_vector(pair_system):
    with pytest.raises(InvalidArgumentError):
        joint_weyl_series(pair_system, 10, hset=[(0, 0)])


def test_joint_weyl_degenerate_cloud(pair_system):
    series = joint_weyl_series(pair_system, 1, checkpoints=[1])
    assert series.normalizer == [1]
    assert series.box_disc == [1 - 1 / 64**2]
    for h in series.hset:
        assert abs(series.signed[h][0] - 1) < 1e-12


def test_joint_weyl_r1_matches_equidist(x2p1, small_sieve):
    singleton = PolySystem((x2p1,))
    js = joint_weyl_series(
        singleton, 500, hset=[(1,)], checkpoints=[100, 500], grid=64, sieve=small_sieve
    )
    ws = weyl_series(x2p1, 1, 500, checkpoints=[100, 500], sieve=small_sieve)
    assert js.normalizer == ws.normalizer
    for a, b in zip(js.signed[(1,)], ws.signed):
        assert abs(a - b) < 1e-9
    for a, b in zip(js.abs_sum[(1,)], ws.abs_sum):
        assert abs(a - b) < 1e-9


def test_joint_weyl_filter(pair_system, small_sieve):
    js = joint_weyl_series(
        pair_system,
        50,
        hset=[(1, 1)],
        checkpoints=[50],
        flt=ModulusFilter.progression(1, 4),
        sieve=small_sieve,
    )
    manual = 0
    for n in range(1, 51):
        if n % 4 == 1:
            manual += len(root_tuples(pair_system, n))
    assert js.normalizer == [manual]


def test_joint_weyl_csv_layout(pair_system):
    series = joint_weyl_series(pair_system, 100, hset=[(1, 0), (0, 1)], checkpoints=[100])
    rows = series.csv_rows()
    assert rows[0][0] == "x" and rows[0][1] == "normalizer"
    assert rows[0][-1] == "box_discrepancy"
    assert len(rows[0]) == 2 + 2 * 4 + 1
    assert len(rows) == 2


def test_dimension_cap():
    polys = [
        parse_polynomial("1,1,1"),    # disc -3
        parse_polynomial("-1,-1,1"),  # disc 5
        parse_polynomial("2,2,1"),    # disc -4
        parse_polynomial("2,1,1"),    # disc -7
    ]
    assert PolySystem(tuple(polys[:3])).dimension == 3
    with pytest.raises(InvalidArgumentError, match="dimension"):
        joint_weyl_series(PolySystem(tuple(polys)), 10)


@pytest.mark.parametrize(
    "call, exc, message, argv",
    [
        (lambda s: PolySystem(()), InvalidArgumentError, "a system needs at least one polynomial", None),
        (lambda s: joint_exp_sum(s, (1,), 5), InvalidArgumentError,
         "frequency vector length must match the system", None),
        (lambda s: joint_weyl_series(s, 10, [(1, 0), (1, 0, 1)]), InvalidArgumentError,
         "frequency vector length must match the system", None),
        (lambda s: joint_weyl_series(s, 0), InvalidArgumentError, "xmax must be at least 1",
         ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "0"]),
        # no checkpoint lies in [1, xmax] when xmax < 1, as weyl_series also says
        (lambda s: joint_weyl_series(s, 0, checkpoints=[1]), InvalidArgumentError,
         r"checkpoints must lie in \[1, xmax\]", None),
        (lambda s: joint_weyl_series(s, 10, grid=1), InvalidArgumentError,
         "grid resolution must be at least 2",
         ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "10", "--grid", "1"]),
        # 2049^2 cells pass the 2^22-cell cap; 2048^2 would not
        (lambda s: joint_weyl_series(s, 10, grid=2049), ResourceLimitError, "cells, past the cap of 4194304",
         ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "10", "--grid", "2049"]),
    ],
)
def test_systems_refusals(pair_system, call, exc, message, argv, capsys, monkeypatch):
    import numpy as np

    from rootdist.cli import main

    def no_histogram(*args, **kwargs):
        raise AssertionError("allocated before the checks")

    monkeypatch.setattr(np, "zeros", no_histogram)
    with pytest.raises(exc, match=message):
        call(pair_system)
    if argv is not None:
        assert main(argv) == exc.exit_code and message in capsys.readouterr().err
