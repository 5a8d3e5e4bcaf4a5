import math
import random
import warnings

import numpy as np
import pytest
import sympy

from rootdist import (
    InvalidArgumentError,
    ModulusFilter,
    ResourceLimitError,
    factorize,
    poly_eval_mod,
    root_stream,
    roots_mod_n,
    roots_mod_prime,
    roots_mod_prime_power,
)
from rootdist import roots as roots_module
from rootdist.intpoly import IntPolynomial, IrreducibilityAssumedWarning
from rootdist.modarith import cached_sieve
from rootdist.roots import (
    PrimeRootTable,
    _lane_prime_bound,
    _lane_roots,
    _moduli_chunks,
    _primes_in,
    _split_smallest,
    clear_caches,
    prime_table,
    root_table,
)

from oracles import brute_roots, eratosthenes, factored_root_stream, trial_factorize


def test_roots_mod_prime_examples(x2p1, x2px1):
    assert roots_mod_prime(x2p1, 5) == [2, 3]
    assert roots_mod_prime(x2p1, 3) == []
    assert roots_mod_prime(x2px1, 31) == [5, 25]
    assert (5 * 5 + 5 + 1) % 31 == 0 and (25 * 25 + 25 + 1) % 31 == 0


def test_roots_mod_prime_rejects_composite(x2p1):
    with pytest.raises(InvalidArgumentError):
        roots_mod_prime(x2p1, 10)


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


def test_prime_table_doubling_matches_single_pass(x3m2):
    clear_caches()
    roots_mod_prime(x3m2, 1000003)  # far beyond any table: a lane of its own
    assert prime_table(x3m2).limit == 1
    flags = eratosthenes(20000)
    for p in (p for p in range(20001) if flags[p]):
        roots_mod_prime(x3m2, p)
    grown = prime_table(x3m2)
    assert grown.limit == 32768  # doubled from 1 by the queries for 2, 3, 5, 11, ...
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
    # 409 is within twice the limit, but doubling would pass the cap
    assert roots_mod_prime(x3m2, 409) == brute_roots(x3m2.coeffs, 409)
    assert table.limit == 400
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


def test_smallest_prime_factor_walk_matches_trial_division():
    # the table's split n = q m, q the full power of the smallest prime,
    # chunk by chunk, and factorize on the same sieve
    spf = np.asarray(cached_sieve(5000).spf)
    seen = []
    for lo, hi in _moduli_chunks(2, 5001):
        assert hi <= 2 * lo
        for n, p, q, m in zip(*(a.tolist() for a in _split_smallest(lo, hi, spf))):
            want = trial_factorize(n)
            smallest, e = want[0]
            assert (p, q, m) == (smallest, smallest**e, n // smallest**e)
            assert list(factorize(n).parts) == want
            seen.append(n)
    assert seen == list(range(2, 5001))


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
        prime_to_3 = lambda n: n % 3 != 0  # noqa: E731
        odd = ModulusFilter.progression(1, 2)
        got = list(root_stream(f, xmax, odd, extra_accept=prime_to_3))
        assert got == list(factored_root_stream(f, xmax, odd, prime_to_3))


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
    f = IntPolynomial((-15552000, 0, 1))
    assert root_table(f, 3000)[1].size == 7011
    for flt in _stream_filters():
        assert list(root_stream(f, 3000, flt)) == list(factored_root_stream(f, 3000, flt)), flt


def test_root_table_layout_and_cap(x2p1, monkeypatch):
    offsets, roots = root_table(x2p1, 1000)
    assert offsets.dtype == np.int32 and roots.dtype == np.int32
    assert offsets.size == 1002 and offsets[0] == offsets[1] == 0
    assert roots[offsets[65] : offsets[66]].tolist() == [8, 18, 47, 57]
    total = int(offsets[-1])
    monkeypatch.setattr(roots_module, "_TABLE_ROOTS_MAX", total)
    assert root_table(x2p1, 1000)[1].size == total
    monkeypatch.setattr(roots_module, "_TABLE_ROOTS_MAX", total - 1)
    with pytest.raises(ResourceLimitError):
        root_table(x2p1, 1000)
    with pytest.raises(ResourceLimitError):
        next(root_stream(x2p1, 1000))
    # an explicit list builds no table
    assert list(root_stream(x2p1, 1000, ModulusFilter.explicit([65]))) == [(65, (8, 18, 47, 57))]


def test_stream_matches_roots_mod_n(x3m2, small_sieve):
    for n, rs in root_stream(x3m2, 400, sieve=small_sieve):
        assert rs == roots_mod_n(x3m2, n)


def test_filter_parse_and_describe():
    flt = ModulusFilter.parse("progression:1,4")
    assert flt.accepts(9) and not flt.accepts(2)
    assert flt.describe() == "progression:1,4"
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


def test_level_validation(x2p1):
    with pytest.raises(InvalidArgumentError):
        roots_mod_prime_power(x2p1, 5, 0)
    with pytest.raises(InvalidArgumentError):
        roots_mod_n(x2p1, 0)
