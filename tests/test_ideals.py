import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from rootdist import (
    AdmissibilityError,
    FactoredIdeal,
    InvalidArgumentError,
    SpfSieve,
    UnsupportedInputError,
    admissibility,
    enumerate_degree_one,
    ideal_from_root,
    ideal_residue,
    inertia_degree,
    is_degree_one,
    roots_mod_n,
    roots_mod_prime_power,
)
from rootdist import cli
from rootdist import roots as roots_module
from rootdist.intpoly import IntPolynomial
from rootdist.roots import clear_caches, root_table

from oracles import trial_factorize


def test_ideal_from_root_examples(x2p1):
    assert ideal_from_root(x2p1, 57, 65).components == ((5, 1, 2), (13, 1, 5))
    assert ideal_from_root(x2p1, 7, 25).components == ((5, 2, 7),)
    unit = ideal_from_root(x2p1, 0, 1)
    assert unit.components == () and unit.norm == 1


def test_ideal_from_root_rejects_inadmissible(x2p1):
    with pytest.raises(AdmissibilityError) as info:
        ideal_from_root(x2p1, 1, 2)  # 2 divides the discriminant
    assert info.value.report.offending_primes == (2,)
    assert info.value.exit_code == 3


def test_ideal_from_root_rejects_non_root(x2p1):
    with pytest.raises(InvalidArgumentError):
        ideal_from_root(x2p1, 1, 65)


def test_residue_examples(x2p1):
    assert ideal_residue(FactoredIdeal(((5, 1, 2), (13, 1, 5)))) == 57
    assert ideal_residue(FactoredIdeal(())) == 0
    assert ideal_residue(FactoredIdeal(((5, 2, 7),))) == 7


def test_admissibility_report(x2p1):
    rep = admissibility(x2p1, 10)
    assert not rep.admissible and rep.offending_primes == (2,)
    rep = admissibility(x2p1, 65)
    assert rep.admissible and rep.offending_primes == ()
    for n in (0, -65):
        with pytest.raises(InvalidArgumentError, match="modulus must be positive"):
            admissibility(x2p1, n)


def test_is_degree_one_examples(x2p1):
    ok, why = is_degree_one(x2p1, ((5, 1, 2), (13, 1, 5)))
    assert ok, why
    ok, why = is_degree_one(x2p1, ((5, 1, 2), (5, 1, 3)))
    assert not ok and "(ii)" in why
    ok, _ = is_degree_one(x2p1, ())
    assert ok


def test_is_degree_one_flags_ramified(x2p1):
    ok, why = is_degree_one(x2p1, ((2, 1, 1),))
    assert not ok and "(i)" in why


def test_inertia_examples(x2p1):
    assert inertia_degree(x2p1, ((5, 1, 2), (5, 1, 3))).as_fraction() == Fraction(2)
    assert inertia_degree(x2p1, ((5, 1, 2), (13, 1, 5))).as_fraction() == Fraction(1)
    assert inertia_degree(x2p1, ((5, 2, 7),)).as_fraction() == Fraction(1)


def test_inertia_irrational_case(x2p1):
    deg = inertia_degree(x2p1, ((5, 1, 2), (5, 1, 3), (13, 1, 5)))
    assert deg.as_fraction() is None
    assert not deg.is_one
    expected = (2 * math.log(5) + math.log(13)) / (math.log(5) + math.log(13))
    assert abs(float(deg) - expected) < 1e-12


def test_inertia_degree_equality_and_hash(x2p1):
    two = inertia_degree(x2p1, ((5, 1, 2), (5, 1, 3)))
    assert two == 2 and two != 1 and two != 3
    same = inertia_degree(x2p1, ((13, 1, 5), (13, 1, 8)))
    assert two != same  # equal ratios, other primes
    again = inertia_degree(x2p1, ((5, 1, 3), (5, 1, 2)))
    assert two == again and hash(two) == hash(again) and len({two, again, same}) == 2
    irrational = inertia_degree(x2p1, ((5, 1, 2), (5, 1, 3), (13, 1, 5)))
    assert irrational != 1 and irrational != 2
    assert (two == "2") is False  # neither an int nor an InertiaDegree
    # the unit ideal (no components) has degree one, exactly and as a float
    unit = inertia_degree(x2p1, ())
    assert unit.is_one and unit == 1 and unit.as_fraction() == Fraction(1)
    assert float(unit) == 1.0


def test_inertia_rejects_ramified(x2p1):
    with pytest.raises(UnsupportedInputError):
        inertia_degree(x2p1, ((2, 1, 1),))


@pytest.mark.parametrize("check", [inertia_degree, is_degree_one])
@pytest.mark.parametrize(
    "comp, why",
    [
        ((5, 0, 2), "out of range"),  # e = 0
        ((5, 1, 7), "out of range"),  # residue past p^e
        ((1, 1, 0), "is not prime"),
        ((4, 1, 0), "is not prime"),  # 4 divides disc but is not prime
        ((5, 1, 1), r"component residue 1 is not a root mod 5\^1"),
        ((5, 2, 2), r"component residue 2 is not a root mod 5\^2"),
    ],
)
def test_component_checks_come_first(x2p1, check, comp, why):
    with pytest.raises(InvalidArgumentError, match=why) as info:
        check(x2p1, (comp,))
    assert info.value.exit_code == 2


def test_inertia_one_iff_degree_one(x2p1, small_sieve):
    rng = random.Random(23)
    candidate_primes = [p for p in (5, 13, 17, 29, 37, 41) ]
    trials = 0
    while trials < 1000:
        comps = []
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(candidate_primes)
            e = rng.randint(1, 2)
            roots = roots_mod_n(x2p1, p**e)
            comps.append((p, e, rng.choice(roots)))
        comps.sort()
        trials += 1
        ok, _ = is_degree_one(x2p1, tuple(comps))
        assert inertia_degree(x2p1, tuple(comps)).is_one == ok


def test_enumerate_examples(x2p1):
    ideals = enumerate_degree_one(x2p1, 65)
    assert len(ideals) == 4
    assert sorted(ideal_residue(i) for i in ideals) == [8, 18, 47, 57]
    assert enumerate_degree_one(x2p1, 3) == []
    assert enumerate_degree_one(x2p1, 1) == [FactoredIdeal(())]
    with pytest.raises(AdmissibilityError):
        enumerate_degree_one(x2p1, 6)


def test_bijection_small(x2p1, small_sieve):
    bad = x2p1.eta * x2p1.discriminant
    for n in range(1, 501):
        if math.gcd(n, bad) != 1:
            continue
        roots = roots_mod_n(x2p1, n)
        ideals = enumerate_degree_one(x2p1, n, small_sieve)
        assert len(ideals) == len(roots)
        for v in roots:
            assert ideal_residue(ideal_from_root(x2p1, v, n)) == v
        for ideal in ideals:
            assert ideal_from_root(x2p1, ideal_residue(ideal), n) == ideal


def _refuse(*args):
    pytest.fail("the factorization route ran")


def _product_route(f, n):
    """The ideals of norm n as the product, by ascending primes, of the root
    sets mod each p^e of n: the order enumerate_degree_one keeps."""
    sets = ([(p, e, v) for v in roots_mod_prime_power(f, p, e)] for p, e in trial_factorize(n))
    return [FactoredIdeal(comps) for comps in itertools.product(*sets)]


def test_enumerate_reads_the_kept_table(monkeypatch, capsys):
    # ROADMAP item 7's polynomials to 2e4: with no table kept, and off a
    # kept table with the factorization route patched out, every n gives
    # the product route's ideals in its order, and ideals --nmax prints
    # their JSON lines in n order
    for c in ((1, 0, 1), (-8, 0, 1), (-7, 0, 2), (-15552000, 0, 1), (-2, 0, 0, 1)):
        f = IntPolynomial(c)
        bad = f.eta * f.discriminant
        ns = [n for n in range(1, 20001) if math.gcd(n, bad) == 1]
        argv = ["ideals", "--poly=" + ",".join(map(str, c)), "--nmax", "20000"]
        clear_caches()
        want = [_product_route(f, n) for n in ns]
        lines = "".join(ideal.to_json() + "\n" for row in want for ideal in row)
        assert [enumerate_degree_one(f, n) for n in ns] == want, c
        assert (cli.main(argv), capsys.readouterr().out) == (0, lines), c
        clear_caches()
        root_table(f, 20000)
        with monkeypatch.context() as m:
            m.setattr(roots_module, "roots_from_factorization", _refuse)
            assert [enumerate_degree_one(f, n) for n in ns] == want, c
            assert (cli.main(argv), capsys.readouterr().out) == (0, lines), c
    clear_caches()


def test_enumerate_ignores_the_callers_sieve():
    # n past the process sieve's 10^5 and within the caller's 10^6: both calls give the product route's ideals
    big = SpfSieve(10**6)
    rng = random.Random(42)
    for c in ((1, 0, 1), (-2, 0, 0, 1)):
        f = IntPolynomial(c)
        bad = f.eta * f.discriminant
        ns = [n for n in rng.sample(range(10**5 + 1, 10**6 + 1), 300) if math.gcd(n, bad) == 1]
        ns += [100003, 130321, 999961]  # a prime, 19^4 and the largest prime below 10^6
        for n in ns:
            assert enumerate_degree_one(f, n, big) == enumerate_degree_one(f, n) == _product_route(f, n), (c, n)


def test_json_round_trip_and_field_order(x2p1):
    ideal = ideal_from_root(x2p1, 57, 65)
    text = ideal.to_json()
    assert text == '{"norm": 65, "components": [[5, 1, 2], [13, 1, 5]]}'
    data = json.loads(text)
    assert list(data.keys()) == ["norm", "components"]


def test_ideal_line_matches_json_dumps():
    # json is the oracle: ints as str(int), ", " and ": " separators, key order kept;
    # some p^e pass 2^64, past every norm the goldens reach
    rng = random.Random(53)
    primes = [p for p in range(2, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for _ in range(300):
        comps = []
        for p in sorted(rng.sample(primes, rng.randint(1, 4))):
            e = rng.randint(1, 40)
            comps.append((p, e, rng.randrange(p**e)))
        want = json.dumps({"norm": math.prod(p**e for p, e, _ in comps),
                           "components": [list(t) for t in comps]})
        assert FactoredIdeal(tuple(comps)).to_json() == want, comps


def test_component_validation():
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((5, 1, 2), (5, 1, 3)))  # repeated prime
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((5, 1, 6),))  # residue out of range


def test_factored_ideal_keeps_no_dict_and_its_value_semantics():
    components = ((5, 1, 2), (13, 1, 5))
    ideal = FactoredIdeal(components)
    assert not hasattr(ideal, "__dict__")
    # the frozen dataclass's hash and equality: over the one field
    assert ideal == FactoredIdeal(components) and hash(ideal) == hash((components,))
    assert ideal != FactoredIdeal(((5, 1, 3), (13, 1, 5))) and ideal != components
    assert len({ideal, FactoredIdeal(components)}) == 1
    with pytest.raises(AttributeError):
        ideal.components = ()
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((13, 1, 5), (5, 1, 2)))  # descending primes


@pytest.mark.parametrize("v", [65, -8])
def test_ideal_from_root_rejects_a_root_out_of_range(x2p1, v):
    with pytest.raises(InvalidArgumentError, match=rf"root {v} out of range \[0, 65\)"):
        ideal_from_root(x2p1, v, 65)
