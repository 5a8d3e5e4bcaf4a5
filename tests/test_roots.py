import math
import random
import time
import warnings
import weakref

import numpy as np
import pytest
import sympy

from rootdist import (
    InvalidArgumentError,
    ModulusFilter,
    ResourceLimitError,
    UnsupportedInputError,
    enumerate_degree_one,
    factorize,
    poly_eval_mod,
    root_stream,
    roots_mod_n,
    roots_mod_prime,
    roots_mod_prime_power,
    weyl_series,
)
from rootdist import roots as roots_module
from rootdist.intpoly import IntPolynomial, IrreducibilityAssumedWarning
from rootdist import modarith
from rootdist.modarith import _spf
from rootdist.roots import (
    _SCAN_LIMIT,
    PrimeRootTable,
    _lane_pow,
    _lane_prime_bound,
    _lane_roots,
    _moduli_chunks,
    _primes_in,
    _prime_power_roots_cached,
    _prime_roots_cached,
    _roots_mod_prime_large,
    _scan_roots,
    _split_smallest,
    _stream_windows,
    clear_caches,
    modulus_table,
    prime_counts,
    prime_table,
    root_table,
)

from oracles import (
    brute_roots,
    brute_roots_py,
    eratosthenes,
    factored_root_stream,
    lattice_roots_monic_quadratic,
    lattice_roots_x2p1,
    linear_hensel_digits,
    trial_factorize,
)

# ROADMAP item 7's polynomials for the table route: 2 divides the leading
# coefficient of 2x^2 - 7, and x^2 - 2^9 3^5 5^3 has more roots than moduli.
TABLE_ROUTE_POLYS = ((1, 0, 1), (-8, 0, 1), (-7, 0, 2), (-15552000, 0, 1), (-2, 0, 0, 1))


def test_roots_mod_prime_examples(x2p1, x2px1):
    assert roots_mod_prime(x2p1, 5) == [2, 3]
    assert roots_mod_prime(x2p1, 3) == []
    assert roots_mod_prime(x2px1, 31) == [5, 25]
    assert (5 * 5 + 5 + 1) % 31 == 0 and (25 * 25 + 25 + 1) % 31 == 0


def test_roots_mod_prime_rejects_composite(x2p1):
    for p in (10, -7, 0, 1):
        with pytest.raises(InvalidArgumentError):
            roots_mod_prime(x2p1, p)


def test_prime_queries_within_the_table_run_no_primality_test(x2p1, monkeypatch):
    # up to its limit f's prime table decides primality; with no shared
    # sieve every is_prime call would be a 13-base Miller-Rabin test
    clear_caches()
    monkeypatch.setattr(modarith, "_shared_sieve", None)
    prime_table(x2p1).fill(10**5)
    calls = []
    is_prime = roots_module.is_prime
    monkeypatch.setattr(roots_module, "is_prime", lambda n: calls.append(n) or is_prime(n))
    flags = eratosthenes(10**5)
    got = {p: roots_mod_prime(x2p1, p) for p in range(10**5 + 1) if flags[p]}
    assert calls == [] and len(got) == 9592
    assert got[2] == [1] and got[3] == [] and got[99989] == brute_roots(x2p1.coeffs, 99989)
    # a composite, in the table's range or past it, is refused before a bad exponent
    for n in (-7, 0, 1, 10, 99_999, 10**5 + 1, 2**61 + 1):
        with pytest.raises(InvalidArgumentError, match="is not prime"):
            roots_mod_prime_power(x2p1, n, 0)
    with pytest.raises(InvalidArgumentError, match="exponent must be at least 1"):
        roots_mod_prime_power(x2p1, 99989, 0)
    assert calls[-1] == 2**61 + 1  # past the table and its doubling: Miller-Rabin decides
    clear_caches()


def test_roots_mod_prime_large_matches_scan(reference_polys):
    # single primes above 2^16, through the table or a lane of their own
    flags = eratosthenes(70000)
    primes = [p for p in range(65536, 70000) if flags[p]][:12]
    for f in reference_polys:
        for p in primes:
            assert roots_mod_prime(f, p) == brute_roots(f.coeffs, p), (f.coeffs, p)


def test_roots_mod_prime_large_with_leading_divisor():
    # 2x^2 + x + 65539: reduction mod p=65539 drops no degree, but mod a
    # prime dividing the leading coefficient the degree falls to one.
    from rootdist import IntPolynomial

    f = IntPolynomial((65539, 1, 2))
    p = 65537
    assert roots_mod_prime(f, p) == brute_roots(f.coeffs, p)


def test_roots_mod_prime_large_with_only_the_constant_left():
    # 521x^2 + 521x + 1 is the nonzero constant 1 mod 521 > _SCAN_LIMIT
    f = IntPolynomial((1, 521, 521))
    assert _roots_mod_prime_large(f, 521) == ()
    assert roots_mod_prime(f, 521) == []


def _oracle_polys(reference_polys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        quartic = IntPolynomial((1, 0, -10, 0, 1))
    # 2x^2 - 7: p = 2 divides the leading coefficient, p = 7 is ramified.
    # x^4 - 10x^2 + 1 has four roots or none mod every p > 3, so every
    # split starts from a piece of degree 4.
    return reference_polys + [IntPolynomial((-7, 0, 2)), quartic]


def _table_entries(table):
    return {
        p: list(table.roots[table.offsets[i] : table.offsets[i + 1]].tolist())
        for i, p in enumerate(table.primes.tolist())
    }


def test_prime_table_matches_brute_force(reference_polys):
    limit = 20000
    flags = eratosthenes(limit)
    for f in _oracle_polys(reference_polys):
        table = PrimeRootTable(f)
        table.fill(limit)
        entries = _table_entries(table)
        assert list(entries) == [p for p in range(limit + 1) if flags[p]]
        assert table.rho().tolist() == [len(r) for r in entries.values()]
        for p, got in entries.items():
            assert got == brute_roots(f.coeffs, p), (f.coeffs, p)


def _sympy_roots(coeffs, p):
    """The roots mod p of the linear factors sympy finds over F_p."""
    g = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)
    if g.degree() < 1:
        return []
    linear = (h.all_coeffs() for h, _ in g.factor_list()[1] if h.degree() == 1)
    return sorted(-int(b) * pow(int(a), -1, p) % p for a, b in linear)


def test_int64_lanes_near_their_prime_bound_match_sympy(reference_polys):
    # the largest primes the int64 lanes take, where unreduced sums come
    # closest to overflow
    for f in _oracle_polys(reference_polys):
        bound = _lane_prime_bound(f.degree)
        P = _primes_in(bound - 3000, bound - 1)
        lane, vals = _lane_roots(f.coeffs, P)
        for i, p in enumerate(P.tolist()):
            got = sorted(vals[lane == i].tolist())
            assert got == _sympy_roots(f.coeffs, p), (f.coeffs, p)


def _object_lane_polys():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        return [
            IntPolynomial(c)
            for c in [
                (1, 0, 1),
                (-7, 0, 2),
                (-2, 0, 0, 1),
                (1, 0, -10, 0, 1),
                (3, -1, 4, 1, 5),
                (-6, 0, 11, 0, 0, 1),
                (1, -3, 0, 2, 0, 0, 7),
                (-5, 1, 0, 0, 0, 0, 0, 2),
            ]
        ]


def test_roots_mod_prime_past_the_lane_bound_matches_sympy():
    # primes of 33 to 80 bits, all past every int64 lane bound: one object
    # lane of Python ints per prime
    rng = random.Random(5)
    clear_caches()
    for f in _object_lane_polys():
        for bits in (33, 48, 64, 80):
            p = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            assert p >= _lane_prime_bound(2)
            assert roots_mod_prime(f, p) == _sympy_roots(f.coeffs, p), (f.coeffs, p)


def test_roots_mod_prime_past_the_lane_bound_with_leading_divisor():
    p = 2**61 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        to_linear = IntPolynomial((1, 3, p))  # px^2 + 3x + 1 = 3x + 1 mod p
        to_cubic = IntPolynomial((-2, 1, 0, 1, p))  # degree 4, and 3 mod p
    clear_caches()
    assert roots_mod_prime(to_linear, p) == [-pow(3, -1, p) % p]
    got = roots_mod_prime(to_cubic, p)
    assert got == _sympy_roots(to_cubic.coeffs, p)
    assert got and all(poly_eval_mod(to_cubic, v, p) == 0 for v in got)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_lanes_match_brute_force_on_random_quartics(dtype):
    # distinct roots of monic quartics, repeated roots included: the
    # random ones, then three of the form (x - a)^2 (x - b)(x - c)
    rng = random.Random(9)
    cases = []
    for _ in range(50):
        p = rng.choice([101, 211, 307])
        cases.append(([rng.randrange(p) for _ in range(4)] + [1], p))
    for a, b, c, p in [(3, 7, 9, 101), (5, 9, 5, 211), (8, 8, 8, 307)]:
        coeffs = [1]
        for r in (a, a, b, c):
            coeffs = [(u - r * v) % p for u, v in zip([0] + coeffs, coeffs + [0])]
        cases.append((coeffs, p))
    for coeffs, p in cases:
        lane, vals = _lane_roots(tuple(coeffs), np.array([p], dtype=dtype))
        assert lane.tolist() == [0] * len(vals)
        assert sorted(vals.tolist()) == brute_roots(coeffs, p), (coeffs, p)


# v2(p - 1) = 16, 18, 20 and 23, all in int64 lanes: Tonelli-Shanks
# takes up to 22 steps
_DEEP_TWO_ADIC_PRIMES = (65537, 786433, 7340033, 998244353)


def _quadratics_at(p):
    # x^2 + 1, x^2 + x + 1, 2x^2 + 3x + 5, and x^2 + 2x + 1 + p, whose
    # discriminant -4p is 0 mod p
    return [IntPolynomial(c) for c in [(1, 0, 1), (1, 1, 1), (5, 3, 2), (1 + p, 2, 1)]]


def _scan_int64(coeffs, p):
    """Every v < p with f(v) = 0 mod p, by int64 Horner in blocks (p < 2^31)."""
    out = []
    for lo in range(0, p, 1 << 20):
        v = np.arange(lo, min(p, lo + (1 << 20)), dtype=np.int64)
        acc = np.full(v.size, coeffs[-1] % p, dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc = (acc * v + c % p) % p
        out += (v[acc == 0]).tolist()
    return out


# 3 * 2^66 + 1, on an object lane: 2^(S-1) does not fit in an int64
@pytest.mark.parametrize("p", [*_DEEP_TWO_ADIC_PRIMES, 3 * 2**66 + 1])
def test_quadratic_closed_form_at_deep_two_adic_primes(p, monkeypatch):
    def no_split(*args):
        raise AssertionError("a quadratic reached the equal-degree split")

    monkeypatch.setattr(roots_module, "_split_into_roots", no_split)
    for f in _quadratics_at(p):
        want = _sympy_roots(f.coeffs, p)
        if p < 10**7:
            assert want == _scan_int64(f.coeffs, p), (f.coeffs, p)
        assert list(_roots_mod_prime_large(f, p)) == want, (f.coeffs, p)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_quadratic_lanes_mix_two_adic_depths(dtype):
    # one pass over primes whose Tonelli-Shanks runs differ in length
    P = np.array([3, 5, 13, 17, 97, 257, *_DEEP_TWO_ADIC_PRIMES], dtype=dtype)
    for coeffs in [(1, 0, 1), (1, 1, 1), (5, 3, 2), (-13, 0, 1)]:
        lane, vals = _lane_roots(coeffs, P)
        for i, p in enumerate(P.tolist()):
            assert sorted(vals[lane == i].tolist()) == _sympy_roots(coeffs, p), (coeffs, p)


# primes p = 1 mod 4 whose least quadratic non-residue is 2, 3, 7, 11, 17,
# 23 and 41, and past 2^64 (object lanes only) 2, 7, 3 and 17
_LEAST_NON_RESIDUE_PRIMES = {
    np.int64: ((5, 2), (17, 3), (241, 7), (1009, 11), (8089, 17), (53881, 23), (1083289, 41)),
    object: ((18446744073709551629, 2), (18446744073709552009, 7),
             (18446744073709552361, 3), (18446744073709552969, 17)),
}


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_quadratic_roots_at_primes_of_each_least_non_residue(dtype):
    # x^2 - s^2 for the s whose Tonelli-Shanks asks for a non-residue, one
    # lane each, in one pass over all the primes
    cases = _LEAST_NON_RESIDUE_PRIMES[np.int64]
    if dtype is object:
        cases += _LEAST_NON_RESIDUE_PRIMES[object]
    rows, primes = [], []
    for p, q in cases:
        assert sympy.legendre_symbol(q, p) == -1 and all(sympy.legendre_symbol(r, p) == 1 for r in range(2, q))
        Q = p - 1
        while Q % 2 == 0:
            Q //= 2
        asks = [s for s in range(2, 40) if pow(s * s, Q, p) != 1]
        assert asks, p
        for s in asks:
            rows.append([-s * s % p, 0, 1])
            primes.append(p)
    P = np.array(primes, dtype=dtype)
    lane, vals = roots_module._quadratic_roots(np.array(rows, dtype=dtype), P)
    for i, (c0, _, _) in enumerate(rows):
        p = primes[i]
        assert sorted(vals[lane == i].tolist()) == _sympy_roots((c0, 0, 1), p), (p, c0)
    for p, _ in cases:
        for coeffs in [(1, 0, 1), (1, 1, 1), (5, 3, 2), (-2, 0, 1), (-3, 0, 1)]:
            lane, vals = _lane_roots(coeffs, np.array([p], dtype=dtype))
            assert sorted(vals.tolist()) == _sympy_roots(coeffs, p), (coeffs, p)


def test_empty_lanes(x2p1, x3m2):
    empty = np.zeros(0, np.int64)
    assert _lane_pow(empty, empty, empty).size == 0
    for coeffs in (x2p1.coeffs, x3m2.coeffs):
        assert [a.size for a in _lane_roots(coeffs, empty)] == [0, 0]
    # 1019 = 3 mod 4 and 1021 = 1 mod 4 leave -4 a non-residue and a
    # square: no lane, then no lane without a root of t, asks for one
    assert _roots_mod_prime_large(x2p1, 1019) == ()
    assert _roots_mod_prime_large(x2p1, 1021) == tuple(brute_roots(x2p1.coeffs, 1021))
    clear_caches()
    assert [a.tolist() for a in prime_counts(x3m2, 2)] == [[2], [1]]
    clear_caches()


# x^3 - 3x + 1 is cyclic (discriminant 81, a square, so (D/p) is never -1,
# and 3 divides it); 5x^3 - 3x - 1 is not monic (discriminant -135)
CUBICS = ((-2, 0, 0, 1), (1, -3, 0, 1), (-1, -3, 0, 5))


def test_prime_counts_match_the_table():
    # the counts pass, a slice of a table that covers xmax, and a slice of
    # one that covers part of it, for degrees 2 to 7
    limit = 20000
    for f in _object_lane_polys() + [IntPolynomial(c) for c in CUBICS[1:]]:
        whole = PrimeRootTable(f)
        whole.fill(limit)
        clear_caches()
        primes, rho = prime_counts(f, limit)
        assert prime_table(f).limit == 1  # nothing stored
        assert primes.tolist() == whole.primes.tolist(), f.coeffs
        assert rho.tolist() == whole.rho().tolist(), f.coeffs
        prime_table(f).fill(5000)
        for xmax in (3000, limit):
            primes, rho = prime_counts(f, xmax)
            k = int(np.searchsorted(whole.primes, xmax, side="right"))
            assert primes.tolist() == whole.primes[:k].tolist()
            assert rho.tolist() == whole.rho()[:k].tolist()
        assert prime_table(f).limit == 5000
    clear_caches()


def test_cubic_counts_take_the_gcd_only_where_p_divides_the_discriminant(monkeypatch):
    # (D/p) = -1 counts one root with no powering; x^p mod f is taken only
    # where (D/p) = 1, and gcd(x^p - x, f) only where p | D
    gcd_lanes, power_lanes = [], []
    root_gcd, powmod = roots_module._lane_root_gcd, roots_module._lane_powmod_linear
    monkeypatch.setattr(
        roots_module, "_lane_root_gcd", lambda F, P: gcd_lanes.extend(P.tolist()) or root_gcd(F, P)
    )
    monkeypatch.setattr(
        roots_module, "_lane_powmod_linear",
        lambda s, e, G, P: power_lanes.extend(P.tolist()) or powmod(s, e, G, P),
    )
    limit = 50000
    for coeffs in CUBICS:
        f = IntPolynomial(coeffs)
        whole = PrimeRootTable(f)
        whole.fill(limit)
        gcd_lanes.clear()
        power_lanes.clear()
        clear_caches()
        primes, rho = prime_counts(f, limit)
        assert rho.tolist() == whole.rho().tolist(), coeffs
        disc = f.discriminant
        lanes = [p for p in primes.tolist() if p != 2 and f.leading % p != 0]
        assert sorted(gcd_lanes) == [p for p in lanes if disc % p == 0] == [3], coeffs
        # the gcd powers its own lanes once more
        squares = [p for p in lanes if sympy.legendre_symbol(disc % p, p) == 1]
        assert sorted(power_lanes) == sorted(squares + gcd_lanes), coeffs
        if disc == 81:  # a square: every lane but p = 3 powers
            assert len(squares) == len(lanes) - 1
        else:  # about half do
            assert 0.4 * len(lanes) < len(squares) < 0.6 * len(lanes), coeffs
    clear_caches()


def test_prime_table_doubling_matches_single_pass(x3m2):
    clear_caches()
    roots_mod_prime(x3m2, 1000003)  # far beyond any table: a lane of its own
    assert prime_table(x3m2).limit == 1
    flags = eratosthenes(20000)
    for p in (p for p in range(20001) if flags[p]):
        roots_mod_prime(x3m2, p)
    grown = prime_table(x3m2)
    assert grown.limit == 32768  # 1024 at the query for 521, doubled at 1031, 2053, ...
    whole = PrimeRootTable(x3m2)
    whole.fill(grown.limit)
    assert _table_entries(grown) == _table_entries(whole)
    steps = PrimeRootTable(x3m2)
    for limit in (100, 114, 126, 5000, 32768):  # (114, 126] holds no prime
        steps.fill(limit)
    assert _table_entries(steps) == _table_entries(whole)


def test_prime_table_cap(x3m2, monkeypatch):
    # the cap is the sieve's 10^8; a small stand-in keeps the fills cheap
    clear_caches()
    monkeypatch.setattr(roots_module, "_SIEVE_LIMIT_MAX", 600)
    table = prime_table(x3m2)
    with pytest.raises(ResourceLimitError):
        table.fill(601)
    assert table.limit == 1 and table.primes.size == 0
    table.fill(400)
    # 521 is within 2 max(limit, _SCAN_LIMIT) = 1024, but that fill would
    # pass the cap
    assert roots_mod_prime(x3m2, 521) == brute_roots(x3m2.coeffs, 521)
    assert table.limit == 400
    clear_caches()


def test_prime_table_is_int32(x2p1):
    # 4 bytes per prime, per offset and per root; the lanes compute in int64
    table = PrimeRootTable(x2p1)
    table.fill(10**6)
    assert (table.primes.size, table.roots.size) == (78_498, 78_351)
    assert {a.dtype for a in (table.primes, table.offsets, table.roots)} == {np.dtype(np.int32)}
    assert (table.primes.nbytes, table.offsets.nbytes, table.roots.nbytes) == (313_992, 313_996, 313_404)
    assert table.lookup(999_983) == () and table.lookup(999_961) == (256_200, 743_761)
    # a prime = 1 mod 4 past 2^31 and the cap is never searched for in the table
    assert roots_mod_prime(x2p1, 2147483693) == [72742850, 2074740843]
    clear_caches()
    prime_table(x2p1).fill(10**6)
    for xmax in (5000, 2 * 10**6):  # below and past the table's limit
        primes, rho = prime_counts(x2p1, xmax)
        assert primes.dtype == rho.dtype == np.int64
        k = min(primes.size, table.primes.size)
        assert primes[:k].tolist() == table.primes[:k].tolist()
        assert rho[:k].tolist() == table.rho()[:k].tolist()
    assert prime_table(x2p1).limit == 10**6


def test_prime_table_doubles_only_within_twice_its_limit(x3m2):
    # a prime p >= _SCAN_LIMIT = 512 with max(limit, 511) < p <= 2 max(limit, 512)
    # fills the table to that bound; any other prime leaves it
    clear_caches()
    table = prime_table(x3m2)
    for p in (2, 3, 509):  # below _SCAN_LIMIT on a fresh table: a scan
        assert roots_mod_prime(x3m2, p) == brute_roots(x3m2.coeffs, p)
    assert table.limit == 1
    # 1031 is past 2 max(1, 512) = 1024: no fill, a single-prime route instead
    assert roots_mod_prime(x3m2, 1031) == brute_roots(x3m2.coeffs, 1031)
    assert table.limit == 1
    table.fill(100)
    assert roots_mod_prime(x3m2, 307) == brute_roots(x3m2.coeffs, 307)
    assert table.limit == 100
    assert roots_mod_prime(x3m2, 1031) == brute_roots(x3m2.coeffs, 1031)
    assert table.limit == 100
    assert roots_mod_prime(x3m2, 521) == brute_roots(x3m2.coeffs, 521)
    assert table.limit == 1024
    assert roots_mod_prime(x3m2, 2039) == brute_roots(x3m2.coeffs, 2039)
    assert table.limit == 2048
    # 4099 is past twice the limit
    assert roots_mod_prime(x3m2, 4099) == brute_roots(x3m2.coeffs, 4099)
    assert table.limit == 2048
    clear_caches()


def test_prime_table_grows_for_ascending_callers_that_skip_two(x2p1):
    # the ideals of x^2 + 1 skip p = 2; the scan takes the primes below 512
    # and the table then doubles from 1024 on
    clear_caches()
    flags = eratosthenes(5000)
    for p in (p for p in range(3, 5001) if flags[p]):
        assert roots_mod_prime(x2p1, p) == brute_roots(x2p1.coeffs, p)
    assert prime_table(x2p1).limit == 8192
    # the 96 scans, and p = 2, which the first fill takes on its own
    assert _prime_roots_cached.cache_info().currsize == sum(flags[:512]) == 97
    clear_caches()


@pytest.mark.parametrize(
    "coeffs, cap, fill, p, limit",
    [
        ((-2, 0, 0, 1), None, None, 509, 1),  # below _SCAN_LIMIT, before any table: a scan
        ((-2, 0, 0, 1), None, 5000, 4999, 5000),  # inside the table
        ((-2, 0, 0, 1), None, 5000, 5003, 10000),  # just past its limit: the doubling fill
        ((-7, 3, 521), None, None, 521, 1024),  # divides the leading coefficient: a lane of its own
        ((-2, 0, 0, 1), 600, 400, 1031, 400),  # past the cap (600 here): no fill, a lane of its own
    ],
)
def test_roots_mod_p_come_from_the_prime_table_not_the_power_lru(coeffs, cap, fill, p, limit, monkeypatch):
    clear_caches()
    if cap is not None:
        monkeypatch.setattr(roots_module, "_SIEVE_LIMIT_MAX", cap)
    f = IntPolynomial(coeffs)
    table = prime_table(f)
    if fill is not None:
        table.fill(fill)
    before = _prime_power_roots_cached.cache_info().currsize
    for _ in range(2):  # the second call reads what the first one stored
        assert roots_mod_prime_power(f, p, 1) == brute_roots(coeffs, p)
        assert table.limit == limit
    assert _prime_power_roots_cached.cache_info().currsize == before
    clear_caches()


def test_prime_power_examples(x2p1):
    assert roots_mod_prime_power(x2p1, 5, 2) == [7, 18]
    assert roots_mod_prime_power(x2p1, 5, 3) == [57, 68]
    assert 68 == 125 - 57
    assert roots_mod_prime_power(x2p1, 2, 2) == []
    assert roots_mod_prime_power(x2p1, 13, 1) == [5, 8]


def test_prime_power_matches_brute(reference_polys):
    for f in reference_polys:
        for p in (2, 3, 5, 7):
            for e in (1, 2, 3, 4):
                assert roots_mod_prime_power(f, p, e) == brute_roots(f.coeffs, p**e)


def test_unramified_power_counts_stable(reference_polys):
    flags = eratosthenes(200)
    for f in reference_polys:
        bad = f.discriminant * f.leading
        for p in (p for p in range(2, 200) if flags[p]):
            if bad % p == 0:
                continue
            base = len(roots_mod_prime(f, p))
            for e in range(2, 6):
                assert len(roots_mod_prime_power(f, p, e)) == base


def test_roots_mod_n_examples(x2p1):
    assert roots_mod_n(x2p1, 65) == (8, 18, 47, 57)
    assert roots_mod_n(x2p1, 1) == (0,)
    assert roots_mod_n(x2p1, 12) == ()


def test_roots_mod_n_soundness(reference_polys, small_sieve):
    for f in reference_polys:
        for n in range(1, 5001):
            for v in roots_mod_n(f, n):
                assert poly_eval_mod(f, v, n) == 0


def test_roots_mod_n_completeness(reference_polys, small_sieve):
    for f in reference_polys:
        for n in range(1, 3001):
            got = list(roots_mod_n(f, n))
            assert got == brute_roots(f.coeffs, n), (f.coeffs, n)


def test_count_multiplicative(x2p1, small_sieve):
    rng = random.Random(17)
    done = 0
    while done < 1000:
        n1 = rng.randint(1, 300)
        n2 = rng.randint(1, 300)
        if math.gcd(n1, n2) != 1:
            continue
        a = len(roots_mod_n(x2p1, n1))
        b = len(roots_mod_n(x2p1, n2))
        c = len(roots_mod_n(x2p1, n1 * n2))
        assert c == a * b
        done += 1


def test_count_bounded_by_degree_power(reference_polys, small_sieve):
    for f in reference_polys:
        for n in range(1, 2000):
            omega = len(set(p for p, _ in __import__("rootdist").factorize(n, small_sieve).parts))
            assert len(roots_mod_n(f, n)) <= f.degree**omega


def test_root_sets_are_sorted_tuples(x2p1, x3m2):
    assert roots_mod_n(x3m2, 1001) == tuple(brute_roots(x3m2.coeffs, 1001))
    for n, rs in root_stream(x2p1, 100):
        assert type(rs) is tuple and list(rs) == brute_roots(x2p1.coeffs, n)


def test_stream_rho_values(x2p1):
    rho = {n: len(rs) for n, rs in root_stream(x2p1, 10)}
    assert [rho[n] for n in range(1, 11)] == [1, 1, 0, 0, 2, 0, 0, 0, 0, 2]


def test_stream_squarefree_filter(x2p1):
    ns = [n for n, _ in root_stream(x2p1, 10, ModulusFilter.squarefree())]
    assert ns == [1, 2, 3, 5, 6, 7, 10]


def test_stream_progression_filter(x2p1):
    ns = [n for n, _ in root_stream(x2p1, 10, ModulusFilter.progression(1, 4))]
    assert ns == [1, 5, 9]


def test_stream_explicit_and_coprime_filters(x2p1):
    ns = [n for n, _ in root_stream(x2p1, 20, ModulusFilter.explicit([3, 7, 20]))]
    assert ns == [3, 7, 20]
    ns = [n for n, _ in root_stream(x2p1, 10, ModulusFilter.coprime(2))]
    assert ns == [1, 3, 5, 7, 9]


def test_explicit_list_windows_hold_python_ints(x2p1):
    # one window per listed n, on both sides of isqrt(2^63 - 1) = 3037000499,
    # in object arrays whatever the size of n, as roots_mod_n returns them
    fs = (x2p1, IntPolynomial((1, 1, 1)))
    listed = [5, 91, 3037000493, 4000000000069]
    windows = list(_stream_windows(fs, 10**13, ModulusFilter.explicit(listed)))
    assert [ns.tolist() for ns, _ in windows] == [[n] for n in listed]
    for ns, rows in windows:
        assert ns.dtype == object and all(v.dtype == object for _, v in rows)
        assert [(k.tolist(), v.tolist()) for k, v in rows] == [
            ([len(r)], list(r)) for r in (roots_mod_n(f, ns[0]) for f in fs)
        ]
        assert all(type(x) is int for _, v in rows for x in v.tolist())


def test_smallest_prime_factor_walk_matches_trial_division():
    # the table's split n = q m, q the full power of the smallest prime,
    # chunk by chunk from the chunk's _spf row, and factorize
    small = _primes_in(1, 70)[::-1].tolist()
    seen = []
    for lo, hi in _moduli_chunks(2, 5001):
        assert hi <= 2 * lo
        for n, p, q, m in zip(*(a.tolist() for a in _split_smallest(lo, hi, _spf(lo, hi, small)))):
            want = trial_factorize(n)
            smallest, e = want[0]
            assert (p, q, m) == (smallest, smallest**e, n // smallest**e)
            assert list(factorize(n).parts) == want
            seen.append(n)
    assert seen == list(range(2, 5001))


@pytest.mark.parametrize("kept", [False, True], ids=["no-sieve", "sieve-kept"])
def test_a_stream_leaves_the_process_sieve_and_far_moduli_as_it_found_them(kept, x2p1, monkeypatch):
    # 10^12 + 87 = 11 * 136511 * 665947: past the 10^5 process sieve its cofactor is refused, and a
    # stream that grew that sieve to 10^6 would turn the refusal into ()
    def answer():
        try:
            return roots_mod_n(x2p1, 10**12 + 87)
        except UnsupportedInputError as exc:
            return str(exc)

    clear_caches()
    monkeypatch.setattr(modarith, "_shared_sieve", None)
    before = answer()  # factorize builds the 10^5 sieve
    assert modarith._shared_sieve.limit == 10**5 and "composite cofactor 90909090917" in before
    if not kept:
        monkeypatch.setattr(modarith, "_shared_sieve", None)
    sieve = modarith._shared_sieve
    clear_caches()
    weyl_series(x2p1, 1, 10**6)
    left = modarith._shared_sieve
    assert modulus_table(x2p1).limit == 10**6 and answer() == before
    assert left is sieve
    clear_caches()


def _stream_filters():
    return [
        ModulusFilter.all(),
        ModulusFilter.squarefree(),
        ModulusFilter.progression(1, 4),
        ModulusFilter.progression(3, 7),
        ModulusFilter.coprime(6),
        ModulusFilter.explicit([-5, 0, 1, 5, 10, 99, 1024, 12345, 19999, 20000, 20001, 10**9]),
    ]


def test_stream_matches_factored_walk(reference_polys):
    # the table against the per-n walk it replaced, under every filter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        polys = reference_polys + [
            IntPolynomial((3, 0, 2)),  # p = 2 divides the leading coefficient
            IntPolynomial((-8, 0, 1)),  # singular at 2
            IntPolynomial((1, 0, -10, 0, 1)),
        ]
    xmax = 20000
    for f in polys:
        for flt in _stream_filters():
            assert list(root_stream(f, xmax, flt)) == list(factored_root_stream(f, xmax, flt)), (
                f.coeffs,
                flt,
            )
        odd = ModulusFilter("progression", 1, 2, prime_to=3)
        assert list(root_stream(f, xmax, odd)) == list(factored_root_stream(f, xmax, odd))


def test_stream_chunk_edges(x3m2, monkeypatch):
    # chunks of 7 moduli (and prime-table lanes of 7 primes): the dyadic
    # start [1, 2), [2, 4), [4, 8), then [8, 15), [15, 22), ...
    clear_caches()
    monkeypatch.setattr(roots_module, "_TABLE_CHUNK", 7)
    chunks = [(1, 2), (2, 4), (4, 8), (8, 15), (15, 22), (22, 29), (29, 30)]
    assert list(_moduli_chunks(1, 30)) == chunks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        polys = [x3m2, IntPolynomial((-8, 0, 1))]
    for f in polys:
        for flt in _stream_filters():
            got = list(root_stream(f, 3000, flt))
            assert got == list(factored_root_stream(f, 3000, flt)), (f.coeffs, flt)
    clear_caches()


def test_stream_with_more_roots_than_moduli():
    # x^2 - 2^9 3^5 5^3 holds 7011 roots mod the n <= 3000, so the roots
    # buffer of the table (3001 entries at first) grows while it is filled
    clear_caches()
    f = IntPolynomial((-15552000, 0, 1))
    assert root_table(f, 3000)[1].size == 7011
    for flt in _stream_filters():
        assert list(root_stream(f, 3000, flt)) == list(factored_root_stream(f, 3000, flt)), flt


def test_root_table_matches_lattice_points_of_x2p1(x2p1):
    # the oracle shares no code with the table: no sieve, lane roots, lift or CRT
    for xmax in (10**5, 10**6):
        offsets, roots = root_table(x2p1, xmax)
        want_offsets, want_roots = lattice_roots_x2p1(xmax)
        assert np.array_equal(offsets, want_offsets) and np.array_equal(roots, want_roots), xmax


@pytest.mark.parametrize("b, c", [
    (0, 1), (1, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2),
    (2, 5), (3, 7), (0, 12), (1, 7), (4, 20),
])
def test_root_table_matches_reduced_forms(b, c):
    # discriminants -3 and -4, non-fundamental D (-12, -16, -27, -48, -64),
    # class number 2 (-20, -24, -48, -64)
    offsets, roots = root_table(IntPolynomial((c, b, 1)), 3000)
    want = lattice_roots_monic_quadratic(b, c, 3000)
    assert [roots[offsets[n] : offsets[n + 1]].tolist() for n in range(3001)] == want


def test_root_table_layout_and_cap(x2p1, monkeypatch):
    offsets, roots = root_table(x2p1, 1000)
    assert offsets.dtype == np.int32 and roots.dtype == np.int32
    assert offsets.size == 1002 and offsets[0] == offsets[1] == 0
    assert roots[offsets[65] : offsets[66]].tolist() == [8, 18, 47, 57]
    total = int(offsets[-1])
    # the cap binds on a fresh build, not on the kept table
    monkeypatch.setattr(roots_module, "_TABLE_ROOTS_MAX", total)
    clear_caches()
    assert root_table(x2p1, 1000)[1].size == total
    monkeypatch.setattr(roots_module, "_TABLE_ROOTS_MAX", total - 1)
    clear_caches()
    with pytest.raises(ResourceLimitError):
        root_table(x2p1, 1000)
    with pytest.raises(ResourceLimitError):
        next(root_stream(x2p1, 1000))
    # a growth past the cap raises in its last chunk and keeps the old
    # limit; a later smaller growth still answers
    root_table(x2p1, 100)
    with pytest.raises(ResourceLimitError):
        root_table(x2p1, 1000)
    assert modulus_table(x2p1).limit == 100
    small_offsets, small_roots = root_table(x2p1, 500)
    assert small_offsets.tolist() == offsets[:502].tolist()
    assert small_roots.tolist() == roots[: offsets[501]].tolist()
    # an explicit list builds no table
    assert list(root_stream(x2p1, 1000, ModulusFilter.explicit([65]))) == [(65, (8, 18, 47, 57))]
    clear_caches()


def _table_rows(offsets, roots):
    off, vals = offsets.tolist(), roots.tolist()
    return [(n, tuple(vals[off[n] : off[n + 1]])) for n in range(1, len(off) - 1)]


def test_modulus_table_grows_in_steps():
    # requests up and down: every answer equals a fresh build and the
    # factored oracle, and the table keeps the largest limit asked for
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        polys = [
            IntPolynomial(c)
            for c in ((1, 0, 1), (-2, 0, 0, 1), (-15552000, 0, 1), (-8, 0, 1), (-7, 0, 2), (2, 0, 0, 0, 1))
        ]
    steps = (5, 77, 1500, 40, 3000, 2999, 3001)
    for f in polys:
        want = list(factored_root_stream(f, max(steps)))
        fresh = {}
        for x in steps:
            clear_caches()
            fresh[x] = [a.tolist() for a in root_table(f, x)]
        clear_caches()
        for x in steps:
            offsets, roots = root_table(f, x)
            assert [offsets.tolist(), roots.tolist()] == fresh[x], (f.coeffs, x)
            assert _table_rows(offsets, roots) == want[:x], (f.coeffs, x)
        assert modulus_table(f).limit == max(steps)
    clear_caches()


def test_root_table_views_are_read_only_and_kept(x2px1):
    clear_caches()
    offsets, roots = root_table(x2px1, 2000)
    kept = offsets.tolist(), roots.tolist()
    for arr in (offsets, roots):
        with pytest.raises(ValueError):
            arr[0] = 1
    # a small growth appends to the same roots buffer, a large one moves it
    assert np.shares_memory(roots, root_table(x2px1, 2100)[1])
    assert not np.shares_memory(roots, root_table(x2px1, 50000)[1])
    assert (offsets.tolist(), roots.tolist()) == kept
    assert _table_rows(offsets, roots) == list(factored_root_stream(x2px1, 2000))
    assert modulus_table(x2px1).limit == 50000
    clear_caches()
    assert modulus_table(x2px1).limit == 1


def test_table_fill_reads_no_root_store(monkeypatch):
    # once the prime table covers x, a build or a growth asks neither LRU
    # store and lifts nothing, so passes count the same work whether or not
    # they built a table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        polys = [IntPolynomial(c) for c in ((1, 0, 1), (-2, 0, 0, 1), (-15552000, 0, 1), (-7, 0, 2))]
    lifts = []
    monkeypatch.setattr(roots_module, "_lift_all", lambda *args: lifts.append(args))
    for f in polys:
        clear_caches()
        prime_table(f).fill(20000)
        before = _prime_roots_cached.cache_info(), _prime_power_roots_cached.cache_info()
        root_table(f, 3000)
        root_table(f, 20000)
        assert (_prime_roots_cached.cache_info(), _prime_power_roots_cached.cache_info()) == before
        assert lifts == [], f.coeffs
    clear_caches()


def test_stream_matches_roots_mod_n(x3m2, small_sieve):
    # the per-n roots come by factorization: no row is filled before the stream
    clear_caches()
    want = [(n, roots_mod_n(x3m2, n)) for n in range(1, 401)]
    assert list(root_stream(x3m2, 400)) == want


def _refuse(*args):
    pytest.fail("the factorization route ran")


def test_roots_mod_n_reads_the_kept_table(monkeypatch):
    # every n <= 2e4 by factorization with no table kept, then off the rows
    # of a kept table with the factorization route patched out
    for c in TABLE_ROUTE_POLYS:
        f = IntPolynomial(c)
        clear_caches()
        want = [roots_mod_n(f, n) for n in range(1, 20001)]
        root_table(f, 20000)
        with monkeypatch.context() as m:
            m.setattr(roots_module, "roots_from_factorization", _refuse)
            got = [roots_mod_n(f, n) for n in range(1, 20001)]
        assert got == want, c
        assert all(type(v) is int for rs in got for v in rs)
        # past the table: the factorization route, and the table stays as it was
        assert roots_mod_n(f, 20001) == tuple(brute_roots(c, 20001))
        assert roots_module._modulus_tables[f].limit == 20000
    clear_caches()


def test_the_four_most_recent_polynomials_keep_both_tables():
    # per-n queries fill no modulus-table rows, but make their polynomial the
    # most recently used; a fifth polynomial evicts the least recently used
    # one, and with it both of its tables.  The kept limits stay as they were
    # here only because every prime factor below is at most 511: a prime p
    # with max(L, 511) < p <= 2 max(L, 512) <= 10^8 fills f's prime table
    # (limit L) to 2 max(L, 512)
    clear_caches()
    polys = [IntPolynomial(c) for c in TABLE_ROUTE_POLYS]
    first, second, third, fourth, fifth = polys
    for f in polys[:4]:
        root_table(f, 300)
        assert prime_table(f) is modulus_table(f).primes
    kept = roots_module._modulus_tables
    limits = {f: (t.limit, t.primes.limit) for f, t in kept.items()}
    assert limits == {f: (300, 300) for f in polys[:4]}
    assert roots_mod_n(first, 1105) == tuple(brute_roots(first.coeffs, 1105))
    assert len(enumerate_degree_one(first, 1105)) == 8
    assert list(kept) == [second, third, fourth, first]
    evicted = [weakref.ref(kept[second]), weakref.ref(kept[second].primes)]
    assert roots_mod_n(fifth, 1001) == tuple(brute_roots(fifth.coeffs, 1001))
    assert len(enumerate_degree_one(fifth, 1001)) == len(brute_roots(fifth.coeffs, 1001))
    assert [ref() for ref in evicted] == [None, None]
    assert list(kept) == [third, fourth, first, fifth]
    assert {f: (t.limit, t.primes.limit) for f, t in kept.items()} == {
        third: limits[third], fourth: limits[fourth], first: limits[first], fifth: (1, 1)
    }
    # the evicted polynomial comes back with both of its tables empty
    assert prime_table(second).limit == 1
    assert modulus_table(second).limit == 1 and list(kept) == [fourth, first, fifth, second]
    clear_caches()


def test_scan_matches_residue_by_residue_below_the_scan_limit():
    # every prime below 512; the leading coefficient of 2x^2 - 7 and of
    # 30x^3 + x + 7 vanishes at some of them, and one has coefficients past int64
    flags = eratosthenes(_SCAN_LIMIT - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        polys = [IntPolynomial(c) for c in TABLE_ROUTE_POLYS + ((7, 1, 0, 30), (2**70 + 3, -(2**65), 1))]
    for f in polys:
        for p in (p for p in range(_SCAN_LIMIT) if flags[p]):
            got = _scan_roots(f, p)
            assert got == tuple(brute_roots_py(f.coeffs, p)), (f.coeffs, p)
            assert all(type(v) is int for v in got)


def test_filter_prime_to_past_int64(x2p1):
    # gcd(n, M) = gcd(n, M mod n) under every kind, for M past 2^63
    p70 = 590295810358705651741  # prime, 70 bits
    kinds = [
        ModulusFilter("all"),
        ModulusFilter("squarefree"),
        ModulusFilter("progression", 1, 4),
        ModulusFilter("list", values=frozenset({1, 2, 3, 5, 30, 97, 98, 99, 400})),
    ]
    for M in (2**63 + 1, 2**64, 10**23, 30 * p70):
        for base in kinds:
            flt = ModulusFilter(base.kind, base.a, base.m, base.values, prime_to=M)
            for lo, hi in ((1, 2), (1, 401), (97, 100), (200, 260)):
                want = [n for n in base.window(lo, hi) if math.gcd(n, M) == 1]
                assert list(flt.window(lo, hi)) == want, (M, base, lo, hi)
    flt = ModulusFilter.parse("coprime:9223372036854775809")  # 3^3 19 43 5419 77158673929
    assert flt == ModulusFilter("all", prime_to=2**63 + 1)
    assert flt.describe() == "coprime:9223372036854775809"
    assert [n for n, _ in root_stream(x2p1, 12, flt)] == [1, 2, 4, 5, 7, 8, 10, 11]


def test_filter_prime_to_below_int64_is_exact():
    # one np.gcd pass for M < 2^63, against math.gcd
    for M in (6, 2**31 + 11, 2**40 * 3 * 5 * 7, 3**39, 2**63 - 25):
        for base in ("all", "squarefree", "progression:1,4"):
            flt = ModulusFilter.parse(base)
            flt = ModulusFilter(flt.kind, flt.a, flt.m, flt.values, prime_to=M)
            for lo, hi in ((1, 2), (1, 401), (97, 100), (5000, 9100)):
                want = [n for n in ModulusFilter.parse(base).window(lo, hi) if math.gcd(n, M) == 1]
                got = flt.window(lo, hi)
                assert got.dtype == np.int64 and got.tolist() == want, (M, base, lo, hi)


def test_filter_windows_are_ascending_int64_arrays():
    # every kind, against a Python-int reference; past 2^63 - 1 a listed n
    # comes back as a Python int in an object array
    big = [2**63 - 1, 2**63, 2**64 + 13, 2**70]
    kinds = {
        "all": lambda n: True,
        "squarefree": lambda n: all(n % (p * p) for p in range(2, math.isqrt(n) + 1)),
        "progression:3,7": lambda n: n % 7 == 3,
        "progression:1,100000000000000000000000": lambda n: n == 1,
        "coprime:6": lambda n: math.gcd(n, 6) == 1,
        "coprime:100000000000000000000007": lambda n: math.gcd(n, 10**23 + 7) == 1,
        "list:1,5,97,400,4096": lambda n: n in (1, 5, 97, 400, 4096),
    }
    for text, keep in kinds.items():
        flt = ModulusFilter.parse(text)
        for lo, hi in ((1, 2), (1, 401), (97, 100), (4000, 8192)):
            got = flt.window(lo, hi)
            want = [n for n in range(lo, hi) if keep(n)]
            assert got.dtype == np.int64 and got.tolist() == want, (text, lo, hi)
    flt = ModulusFilter.explicit([3] + big)
    for lo, hi in ((1, 2**63), (1, 2**71), (2**63, 2**65)):
        got = flt.window(lo, hi)
        want = [n for n in [3] + big if lo <= n < hi]
        assert got.dtype == (np.int64 if want[-1] < 2**63 else object), (lo, hi)
        assert got.tolist() == want and all(type(n) is int for n in got.tolist())
    # accepts far past int64, as the ranges and the exact gcd answered it
    n = 2**70
    assert ModulusFilter.all().accepts(n)
    assert ModulusFilter.progression(n % 7, 7).accepts(n) and not ModulusFilter.progression(1, 4).accepts(n)
    assert ModulusFilter.progression(1, 10**23).accepts(1) and not ModulusFilter.progression(1, 10**23).accepts(n)
    assert ModulusFilter.coprime(35).accepts(n) and not ModulusFilter.coprime(6).accepts(n)
    assert ModulusFilter.explicit(big).accepts(n) and not ModulusFilter.explicit(big).accepts(n + 1)


def test_squarefree_window_refuses_a_sieve_past_the_cap(monkeypatch):
    # sqrt(hi - 1) past the cap raises before anything is allocated; a
    # small stand-in cap shows the bound is exact
    flt = ModulusFilter.squarefree()
    with pytest.raises(ResourceLimitError):
        flt.accepts(2**70)
    monkeypatch.setattr(roots_module, "_SIEVE_LIMIT_MAX", 100)
    want = [n for n in range(10100, 10201) if all(n % (p * p) for p in range(2, 101))]
    assert flt.window(10100, 10201).tolist() == want
    assert flt.accepts(10199) and not flt.accepts(10100)
    with pytest.raises(ResourceLimitError):
        flt.window(10100, 10202)  # sqrt(10201) = 101
    with pytest.raises(ResourceLimitError):
        list(root_stream(IntPolynomial((1, 0, 1)), 10201, flt))


def test_filter_parse_and_describe():
    flt = ModulusFilter.parse("progression:1,4")
    assert flt.accepts(9) and not flt.accepts(2)
    assert flt.describe() == "progression:1,4"
    assert ModulusFilter("squarefree", prime_to=30).describe() == "squarefree&coprime:30"
    assert ModulusFilter.parse("coprime:6").accepts(35)
    assert ModulusFilter.parse("list:2,4").accepts(4)
    assert ModulusFilter.parse("all").accepts(123)
    with pytest.raises(InvalidArgumentError):
        ModulusFilter.parse("progression:2,4")  # gcd > 1
    with pytest.raises(InvalidArgumentError):
        ModulusFilter.parse("nonsense")


def test_stream_determinism(x2p1):
    a = [(n, rs) for n, rs in root_stream(x2p1, 500)]
    b = [(n, rs) for n, rs in root_stream(x2p1, 500)]
    assert a == b


def test_ramified_lift_blowup_guard():
    # x^2 - p^3 for a prime p above the output cap: the unique root mod p is
    # singular and all p > 10^6 of its lifts are roots mod p^2
    from rootdist import IntPolynomial, ResourceLimitError

    p = 1000003
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IrreducibilityAssumedWarning)
        f = IntPolynomial((-(p**3), 0, 1))
    assert roots_mod_prime(f, p) == [0]
    with pytest.raises(ResourceLimitError):
        roots_mod_prime_power(f, p, 2)
    # x^2 - p: the singular root mod p has no lift at all
    assert roots_mod_prime_power(IntPolynomial((-p, 0, 1)), p, 2) == []


def test_singular_lifts_match_brute():
    # x^2 - 8 at 2 and x^2 - 243 at 3: singular roots whose lifts survive
    # some levels and die out at others
    from rootdist import IntPolynomial

    for coeffs, p in (((-8, 0, 1), 2), ((-243, 0, 1), 3)):
        f = IntPolynomial(coeffs)
        for e in range(1, 7):
            assert roots_mod_prime_power(f, p, e) == brute_roots(coeffs, p**e), (coeffs, e)


def _digit_value(digits, base):
    return sum(d * base**j for j, d in enumerate(digits))


def test_deep_prime_power_matches_the_linear_lift(x2p1):
    # the Newton lift to 5^600 against one linear Hensel step per level
    clear_caches()
    want = sorted(_digit_value(d, 5) for d in linear_hensel_digits(x2p1, 5, 600))
    assert len(want) == 2
    assert roots_mod_prime_power(x2p1, 5, 600) == want
    clear_caches()
    start = time.perf_counter()
    deep = roots_mod_prime_power(x2p1, 5, 5000)
    assert time.perf_counter() - start < 1.0
    below = roots_mod_prime_power(x2p1, 5, 4999)
    assert len(deep) == 2
    for v in deep:
        assert poly_eval_mod(x2p1, v, 5**5000) == 0 and v % 5**4999 in below


def test_singular_and_nonsingular_roots_lift_together():
    # x^3 - x - 8 at 2: 0 is a nonsingular root mod 2 and 1 a singular one
    # whose lifts survive at every level
    coeffs = (-8, -1, 0, 1)
    f = IntPolynomial(coeffs)
    clear_caches()
    assert f.deriv_mod(0, 2) == 1 and f.deriv_mod(1, 2) == 0
    for e in range(1, 17):
        assert roots_mod_prime_power(f, 2, e) == brute_roots(coeffs, 2**e), e
    deep = roots_mod_prime_power(f, 2, 600)
    below = roots_mod_prime_power(f, 2, 599)
    assert len(deep) == 5
    for v in deep:
        assert poly_eval_mod(f, v, 2**600) == 0 and v % 2**599 in below
    clear_caches()


def test_a_cold_lift_adds_one_lru_entry(x2p1):
    clear_caches()
    _prime_power_roots_cached(x2p1, 5, 400)
    assert _prime_power_roots_cached.cache_info().currsize == 1
    clear_caches()


def test_level_validation(x2p1):
    with pytest.raises(InvalidArgumentError):
        roots_mod_prime_power(x2p1, 5, 0)
    with pytest.raises(InvalidArgumentError):
        roots_mod_n(x2p1, 0)
    for xmax in (0, -5):  # refused when called, not an empty stream
        with pytest.raises(InvalidArgumentError, match="xmax must be at least 1"):
            root_stream(x2p1, xmax)


@pytest.mark.parametrize(
    "call, message, argv",
    [
        (lambda: ModulusFilter.explicit([]), "explicit filter needs at least one modulus", None),
        (lambda: ModulusFilter("bogus"), "unknown filter kind 'bogus'", None),
        (lambda: ModulusFilter.parse("coprime:0"), "coprime filter needs a positive modulus",
         ["roots", "--poly", "1,0,1", "--nmax", "10", "--filter", "coprime:0"]),
        (lambda: ModulusFilter.parse("squarefree:3"), "unknown filter kind 'squarefree'",
         ["weyl", "--poly", "1,0,1", "--xmax", "10", "--filter", "squarefree:3"]),
        (lambda: ModulusFilter.parse("squarefree3"), "cannot parse filter 'squarefree3'", None),
        (lambda: ModulusFilter.parse("list:"), "cannot parse list filter '': empty entry", None),
    ],
)
def test_modulus_filter_refusals(call, message, argv, capsys):
    from rootdist.cli import main

    with pytest.raises(InvalidArgumentError, match=message):
        call()
    if argv is not None:
        assert main(argv) == 2 and message in capsys.readouterr().err


def test_modulus_filter_describe_round_trips():
    for text in ("all", "squarefree", "progression:3,4", "coprime:6", "list:1,5,25"):
        assert ModulusFilter.parse(text).describe() == text
    assert ModulusFilter.explicit([25, 1, 5, 5]).describe() == "list:1,5,25"
    assert repr(ModulusFilter.parse("list: 5,−1")) == "ModulusFilter('list:-1,5')"


@pytest.mark.parametrize("a, m", [(1, -3), (-3, -1), (2, 0)])
def test_progression_reduces_a_only_for_a_positive_modulus(a, m):
    # a mod -3 would be -2, and the error would name a value not given
    with pytest.raises(InvalidArgumentError, match=f"got a={a}, m={m}"):
        ModulusFilter.progression(a, m)
    assert ModulusFilter.progression(-1, 4).a == 3
