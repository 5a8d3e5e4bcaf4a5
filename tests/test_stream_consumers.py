"""The numpy stream consumers against the scalar loops they replaced
(oracles.scalar_*): every float compared by repr, so a single bit of
difference fails."""

import cmath
import math

import numpy as np
import pytest

from rootdist import (
    HSpec,
    ModulusFilter,
    PolySystem,
    joint_weyl_series,
    parse_polynomial,
    progression_root_sums,
    ratio_points,
    roots_mod_n,
    weyl_series,
)
from rootdist.equidist import _TWO_PI
from rootdist.roots import _INT64_MODULUS_BOUND, root_table

from oracles import (
    scalar_joint_weyl_series,
    scalar_progression_sums,
    scalar_ratio_points,
    scalar_weyl_series,
)

POLYS = ["1,0,1", "-2,0,0,1", "1,1,1", "-7,0,2", "-15552000,0,1"]
HS = [HSpec.const(0), HSpec.const(1), HSpec.const(3), HSpec.const(-2),
      HSpec.const(2**64 + 13), HSpec.inverse_of(2), HSpec.inverse_of(3)]
FILTERS = ["all", "squarefree", "progression:1,4", "coprime:6", "list:1,2,5,10,65,97,360,1000,2999"]
XMAX = 3000
# the default decades, checkpoints below xmax (the walk stops early), and xmax = 1
RUNS = [(XMAX, None), (XMAX, [7, 50, 999]), (1, None)]


def weyl_reprs(series):
    return (
        series.checkpoints,
        [repr(z) for z in series.signed],
        [repr(a) for a in series.abs_sum],
        series.normalizer,
        series.empty_flags,
    )


@pytest.mark.parametrize("poly", POLYS)
def test_weyl_series_matches_scalar_loop(poly):
    f = parse_polynomial(poly)
    for h in HS:
        for text in FILTERS:
            for xmax, cps in RUNS:
                flt = ModulusFilter.parse(text)
                got = weyl_series(f, h, xmax, flt, cps)
                want = scalar_weyl_series(f, h, xmax, flt, cps)
                assert weyl_reprs(got) == weyl_reprs(want), (poly, h, text, xmax, cps)


@pytest.mark.parametrize("poly", POLYS)
def test_ratio_points_and_progression_sums_match_scalar_loops(poly):
    f = parse_polynomial(poly)
    for text in FILTERS:
        for xmax in (XMAX, 1):
            flt = ModulusFilter.parse(text)
            got, want = ratio_points(f, xmax, flt), scalar_ratio_points(f, xmax, flt)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (poly, text, xmax)
    for a, m in ((1, 1), (1, 4), (3, 10)):
        for xmax, cps in RUNS:
            got = progression_root_sums(f, a, m, xmax, cps)
            assert got.sums == scalar_progression_sums(f, a, m, xmax, cps), (poly, a, m, xmax, cps)


def test_moduli_past_the_int64_bound_match_scalar_loops():
    # object lanes: (h mod n) v no longer fits in int64
    f = parse_polynomial("1,0,1")
    q = 5000000029  # prime, 1 mod 4
    big = [5 * q, 13 * q, 4000000000069]
    assert min(big) > _INT64_MODULUS_BOUND and all(len(roots_mod_n(f, n)) >= 2 for n in big)
    flt = ModulusFilter.explicit([5, 65] + big)
    for h in (HSpec.const(1), HSpec.const(2**64 + 13), HSpec.inverse_of(3)):
        got = weyl_series(f, h, 10**13, flt, [100, 10**13])
        want = scalar_weyl_series(f, h, 10**13, flt, [100, 10**13])
        assert weyl_reprs(got) == weyl_reprs(want), h
    assert ratio_points(f, 10**13, flt).tobytes() == scalar_ratio_points(f, 10**13, flt).tobytes()


def joint_reprs(series):
    return (
        series.checkpoints,
        series.normalizer,
        {h: [repr(z) for z in zs] for h, zs in series.signed.items()},
        {h: [repr(a) for a in xs] for h, xs in series.abs_sum.items()},
        [repr(d) for d in series.box_disc],
    )


@pytest.mark.parametrize(
    "polys", [("1,1,1", "-1,-1,1"), ("1,0,1", "-1,-1,0,1"), ("1,1,1", "-1,-1,1", "1,0,1")]
)
def test_joint_weyl_series_matches_scalar_loop(polys):
    system = PolySystem(tuple(parse_polynomial(p) for p in polys))
    for text in ("all", "squarefree", "progression:1,4", "coprime:6", "list:1,7,91,133,1000"):
        for xmax, cps in RUNS:
            flt = ModulusFilter.parse(text)
            got_cloud, want_cloud = [], []
            got = joint_weyl_series(system, xmax, checkpoints=cps, flt=flt,
                                    cloud_sink=lambda n, t: got_cloud.append((n, t)))
            want = scalar_joint_weyl_series(system, xmax, checkpoints=cps, flt=flt,
                                            cloud_sink=lambda n, t: want_cloud.append((n, t)))
            assert joint_reprs(got) == joint_reprs(want), (polys, text, xmax, cps)
            assert got_cloud == want_cloud
            assert all(type(n) is int and all(type(v) is int for v in t) for n, t in got_cloud)


def _golden_angles():
    """(f, h, xmax) of every Weyl sum the goldens pin: acceptance.json (h = 1
    to 1e6, the pair's h in {-1, 0, 1} to 1e5) and the weyl runs of cli.json."""
    x2p1 = parse_polynomial("1,0,1")
    yield x2p1, HSpec.const(1), 10**6
    for poly in ("1,1,1", "-1,-1,1"):
        yield parse_polynomial(poly), HSpec.const(-1), 10**5
        yield parse_polynomial(poly), HSpec.const(1), 10**5
    yield x2p1, HSpec.inverse_of(3), 20000
    yield x2p1, HSpec.inverse_of(6), 20000
    yield parse_polynomial("-2,0,0,1"), HSpec.const(1), 30000
    yield parse_polynomial("3,0,2"), HSpec.inverse_of(3), 20000


def test_numpy_phases_equal_cmath_on_every_golden_root():
    # The kernel takes cos and sin of its angles from numpy; root_exp_sum
    # took them from cmath.exp.  A vectorized libm may round differently.
    for f, h, xmax in _golden_angles():
        offsets, roots = root_table(f, xmax)
        n = np.repeat(np.arange(xmax + 1, dtype=np.int64), np.diff(offsets))
        v = roots.astype(np.int64)
        if h.kind == "const":
            hn = h.value % n
        else:
            keep = np.gcd(n, h.value) == 1
            n, v = n[keep], v[keep]
            hn = np.array([pow(h.value, -1, k) if k > 1 else 0 for k in n.tolist()], np.int64)
        y = _TWO_PI * (hn * v % n / n)
        want = [cmath.exp(complex(0.0, t)) for t in y.tolist()]
        assert np.cos(y).tobytes() == np.array([z.real for z in want]).tobytes(), (f, h)
        assert np.sin(y).tobytes() == np.array([z.imag for z in want]).tobytes(), (f, h)
        re, im = np.cos(y[:20000]), np.sin(y[:20000])
        assert np.hypot(re, im).tolist() == [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]


@pytest.mark.parametrize("poly", ["1,0,1", "-15552000,0,1"])
def test_longer_streams_and_small_batches_match_scalar_loops(poly, monkeypatch):
    f = parse_polynomial(poly)
    for h in (HSpec.const(1), HSpec.inverse_of(3)):
        assert weyl_reprs(weyl_series(f, h, 20000)) == weyl_reprs(scalar_weyl_series(f, h, 20000))
    # batches of at most 5 moduli: a flush between checkpoints changes nothing
    import rootdist.equidist as equidist

    monkeypatch.setattr(equidist, "_TABLE_CHUNK", 5)
    for text in ("all", "progression:1,4"):
        flt = ModulusFilter.parse(text)
        got = weyl_series(f, 3, 2000, flt, [10, 11, 12, 1500])
        assert weyl_reprs(got) == weyl_reprs(scalar_weyl_series(f, 3, 2000, flt, [10, 11, 12, 1500]))
        assert ratio_points(f, 2000, flt).tobytes() == scalar_ratio_points(f, 2000, flt).tobytes()
    assert progression_root_sums(f, 1, 4, 2000).sums == scalar_progression_sums(f, 1, 4, 2000)


def test_consumers_read_items_up_to_the_last_checkpoint(monkeypatch):
    # the benchmark counts root_stream items: the walk reads every item up
    # to the last checkpoint, which is xmax under the default decades
    import rootdist.equidist as equidist

    f = parse_polynomial("1,0,1")
    read = []

    def counted(*args, **kwargs):
        for item in equidist_root_stream(*args, **kwargs):
            read.append(item[0])
            yield item

    equidist_root_stream = equidist.root_stream
    monkeypatch.setattr(equidist, "root_stream", counted)
    for text, want in (("all", list(range(1, 51))), ("progression:1,4", list(range(1, 50, 4)))):
        read.clear()
        weyl_series(f, 1, 3000, ModulusFilter.parse(text), [7, 50])
        assert read == want, text
        read.clear()
        progression_root_sums(f, 1, 4, 3000, [7, 50])
        assert read == list(range(1, 50, 4))
    read.clear()
    weyl_series(f, 1, 3000)
    assert read == list(range(1, 3001))


def test_checkpointed_walks_stop_at_the_last_checkpoint(monkeypatch):
    # explicit checkpoints below xmax: the same reprs as with xmax at the last
    # checkpoint, and no table (or prime count) reaches past it
    import rootdist.equidist as equidist
    from rootdist import prime_stats
    from rootdist.roots import _modulus_tables, clear_caches

    f, g = parse_polynomial("1,0,1"), parse_polynomial("-1,-1,1")
    system = PolySystem((parse_polynomial("1,1,1"), g))
    cps = [7, 50, 999]
    counted = []
    prime_counts = equidist.prime_counts
    monkeypatch.setattr(equidist, "prime_counts", lambda f, x: counted.append(x) or prime_counts(f, x))
    for xmax in (999, 5000, 10**9):
        clear_caches()
        h, flt = HSpec.inverse_of(3), ModulusFilter.squarefree()
        assert weyl_reprs(weyl_series(f, h, xmax, flt, cps)) == weyl_reprs(weyl_series(f, h, 999, flt, cps))
        assert progression_root_sums(f, 1, 4, xmax, cps).sums == progression_root_sums(f, 1, 4, 999, cps).sums
        assert joint_reprs(joint_weyl_series(system, xmax, checkpoints=cps)) == joint_reprs(
            joint_weyl_series(system, 999, checkpoints=cps))
        assert _modulus_tables[f].limit == _modulus_tables[g].limit == 999, xmax
        assert repr(prime_stats(f, xmax, cps).rows) == repr(prime_stats(f, 999, cps).rows)
        assert counted[-2:] == [999, 999]
    clear_caches()
