import math
import random
import warnings

import pytest
import sympy

from rootdist import (
    IntPolynomial,
    InvalidArgumentError,
    parse_polynomial,
    poly_eval_mod,
)
from rootdist.intpoly import IrreducibilityAssumedWarning, _rational_root

from oracles import brute_roots_py, rational_root_search


def test_discriminant_quadratic(x2p1):
    assert x2p1.discriminant == -4  # b^2 - 4ac = 0 - 4


def test_discriminant_cubic(x3m2):
    assert x3m2.discriminant == -108  # disc(x^3 + c) = -27 c^2


def test_discriminant_x2px1(x2px1):
    assert x2px1.discriminant == -3  # 1 - 4


def test_discriminant_matches_sympy():
    rng = random.Random(7)
    x = sympy.symbols("x")
    seen = 0
    while seen < 40:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 6))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
                f = IntPolynomial(tuple(coeffs))
        except InvalidArgumentError:
            continue
        expr = sum(c * x**i for i, c in enumerate(f.coeffs))
        assert f.discriminant == sympy.discriminant(expr, x)
        seen += 1


def test_discriminant_vanishes_exactly_at_repeated_root_primes(x2p1, x3m2):
    # p | disc exactly when f mod p has a repeated root, checked by scanning
    # residues for a root that is also a root of f'.
    for f in (x2p1, x3m2):
        for p in range(2, 100):
            if any(p % q == 0 for q in range(2, p)):
                continue
            deriv = f.derivative()
            repeated = False
            for v in range(p):
                fv = sum(c * v**i for i, c in enumerate(f.coeffs)) % p
                dv = sum(c * v**i for i, c in enumerate(deriv)) % p
                if fv == 0 and dv == 0:
                    repeated = True
            assert (f.discriminant % p == 0) == repeated, (f.coeffs, p)


def test_eval_mod_examples(x2p1, x3m2):
    assert poly_eval_mod(x2p1, 2, 5) == 0
    assert poly_eval_mod(x2p1, 7, 25) == 0
    assert poly_eval_mod(x3m2, 3, 25) == 0


def test_eval_mod_matches_exact_reduction(reference_polys):
    rng = random.Random(11)
    for _ in range(1000):
        f = rng.choice(reference_polys)
        m = rng.randint(1, 2**200)
        v = rng.randint(0, 2**64)
        exact = sum(c * v**i for i, c in enumerate(f.coeffs)) % m
        assert poly_eval_mod(f, v, m) == exact


def test_eval_mod_rejects_bad_modulus(x2p1):
    with pytest.raises(InvalidArgumentError):
        poly_eval_mod(x2p1, 1, 0)


def test_degree_too_small_rejected():
    with pytest.raises(InvalidArgumentError):
        IntPolynomial((1, 1))


def test_zero_leading_rejected():
    with pytest.raises(InvalidArgumentError):
        IntPolynomial((1, 0, 1, 0))


def test_imprimitive_rejected():
    with pytest.raises(InvalidArgumentError):
        IntPolynomial((2, 0, 2))


def test_rational_root_rejected():
    with pytest.raises(InvalidArgumentError, match="rational root"):
        IntPolynomial((-1, 0, 1))  # x^2 - 1
    with pytest.raises(InvalidArgumentError, match="rational root"):
        IntPolynomial((0, 1, 1))  # root 0
    with pytest.raises(InvalidArgumentError, match="rational root"):
        IntPolynomial((-1, 1, 2))  # root 1/2


def test_quadratic_rational_root_beyond_search_cap():
    # x^2 - 10^14 = (x - 10^7)(x + 10^7): coefficients past the divisor
    # search cap, decided by the discriminant
    with pytest.raises(InvalidArgumentError, match="rational root 10000000"):
        IntPolynomial((-(10**14), 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = IntPolynomial((-(1000003**3), 0, 1))
    assert f.discriminant == 4 * 1000003**3


def test_quadratic_rational_root_matches_divisor_search():
    # every primitive quadratic with |coefficients| <= 30; the search result
    # is shared between f, -f and f(-x), which have the same rational roots
    want = {}
    for a in range(-30, 31):
        for b in range(-30, 31):
            for c in range(-30, 31):
                if a == 0 or math.gcd(a, b, c) != 1:
                    continue
                got = _rational_root((c, b, a))
                if got is not None:
                    assert a * got**2 + b * got + c == 0
                key = (-c, abs(b), -a) if a < 0 else (c, abs(b), a)
                if key not in want:
                    want[key] = rational_root_search(key) is not None
                assert (got is not None) == want[key], (a, b, c)


def test_repeated_factor_rejected():
    with pytest.raises(InvalidArgumentError, match="repeated factor"):
        IntPolynomial((1, 0, 2, 0, 1))  # (x^2 + 1)^2


def test_degree_four_warns():
    with pytest.warns(IrreducibilityAssumedWarning):
        f = IntPolynomial((2, 0, 0, 0, 1))  # x^4 + 2
    assert f.degree == 4


def test_eta_default_and_override():
    f = IntPolynomial((1, 1, 3))
    assert f.eta == 3


def test_parse_round_trip():
    f = parse_polynomial(" 1 , 0 , 1 ")
    assert f.coeffs == (1, 0, 1)
    # unicode minus tolerated
    g = parse_polynomial("−2,0,0,1")
    assert g.coeffs == (-2, 0, 0, 1)


def test_parse_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        parse_polynomial("1,,1")
    with pytest.raises(InvalidArgumentError):
        parse_polynomial("1,a,1")


def test_pretty(x3m2):
    assert str(x3m2) == "x^3 - 2"


def test_eval_consistency_with_brute_roots(x2px1):
    # every residue the scanner accepts evaluates to zero and vice versa
    for n in (7, 31, 49):
        roots = brute_roots_py(x2px1.coeffs, n)
        for v in range(n):
            assert (poly_eval_mod(x2px1, v, n) == 0) == (v in roots)


def test_equal_coefficients_hash_equal_and_share_one_table():
    from rootdist.roots import _modulus_tables, modulus_table

    f, g = IntPolynomial((1, 0, 1)), parse_polynomial("1,0,1")
    assert f is not g and f == g and hash(f) == hash(g) == hash(((1, 0, 1),))
    assert f != IntPolynomial((2, 0, 1)) and IntPolynomial((2, 0, 1)) == IntPolynomial((2, 0, 1))
    assert {f: 1}[g] == 1
    assert modulus_table(f) is modulus_table(g)
    assert sum(1 for h in _modulus_tables if h == f) == 1
