import math
import random

import numpy as np
import pytest
import sympy

from rootdist import (
    Factorization,
    InvalidArgumentError,
    ResourceLimitError,
    UnsupportedInputError,
    SpfSieve,
    crt_pair,
    factorize,
    is_prime,
)

from rootdist import modarith
from rootdist.modarith import _SIEVE_BLOCK, _SIEVE_LIMIT_MAX, _spf, cached_sieve, crt_product
from rootdist.roots import _primes_in

from oracles import eratosthenes, trial_factorize


def test_sieve_small_entries():
    sieve = SpfSieve(10)
    assert sieve[9] == 3
    assert sieve[7] == 7
    assert sieve[10] == 2


def test_sieve_smallest_case():
    assert SpfSieve(2)[2] == 2


def test_sieve_rejects_tiny_limit():
    with pytest.raises(InvalidArgumentError):
        SpfSieve(1)


def test_sieve_refuses_limit_above_cap():
    # raised before the 200 MB table is allocated
    with pytest.raises(ResourceLimitError):
        SpfSieve(10**8 + 1)


def test_shared_sieve_grows_and_is_unique():
    assert cached_sieve(50_000) is cached_sieve(10**5)
    assert cached_sieve(10**5).limit >= 10**5
    big = cached_sieve(2 * 10**5)
    assert big.limit >= 2 * 10**5
    # one table is alive: smaller requests get the grown one
    assert cached_sieve(10**5) is big


def test_sieve_prime_count_at_million():
    sieve = SpfSieve(10**6)
    flags = eratosthenes(10**6)
    expected = sum(flags)
    assert expected == 78498
    primes = sieve.primes()
    assert len(primes) == expected
    assert all(type(p) is int for p in primes)
    # a fresh list on each call: the sieve keeps none
    again = sieve.primes()
    assert again == primes and again is not primes


def test_sieve_matches_trial_division_across_two_to_the_sixteen(monkeypatch):
    # the table is uint16 with 0 for a prime, safe because every composite
    # n <= the cap has its smallest prime below 2^16; past 2^16 every prime
    # reads back as itself
    assert math.isqrt(_SIEVE_LIMIT_MAX) < 2**16
    limit = 150_000
    sieve = SpfSieve(limit)
    n = np.arange(limit + 1)
    want = np.zeros(limit + 1, np.int64)
    for p in _primes_in(1, math.isqrt(limit)).tolist():  # ascending: the first divisor wins
        want[(want == 0) & (n % p == 0)] = p
    want = np.where(want == 0, n, want)[2:].tolist()
    assert [sieve[k] for k in range(2, limit + 1)] == want
    assert [s or k for k, s in enumerate(sieve.spf)][2:] == want
    assert sieve.primes() == _primes_in(1, limit).tolist()
    # is_prime reads the shared sieve: with no Miller-Rabin base left, any
    # other route would call every odd composite prime
    shared = cached_sieve(70_000)
    monkeypatch.setattr(modarith, "_MR_BASES", ())
    assert shared is modarith._shared_sieve
    assert [is_prime(k) for k in range(65_000, 70_001)] == [sympy.isprime(k) for k in range(65_000, 70_001)]
    assert SpfSieve(10**6).spf.nbytes == 2_000_002  # 2 bytes per entry


def _smallest_factor(n):
    """The smallest prime of a composite n by trial division, 0 for any other n."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), 0) if n > 3 else 0


def test_spf_blocks_match_trial_division():
    # from 0, at a multiple of small primes, inside [q, q^2) for q = 97 (q itself stays 0, q^2 reads q),
    # ending at 4 or below, and at random
    rng = random.Random(11)
    blocks = [(0, 1), (0, 4), (2, 4), (3, 4), (0, 3000), (6 * 7 * 11 * 13, 6 * 7 * 11 * 13 + 2000),
              (97, 9500), (150, 9410), (9409, 9410), (10**6 - 2000, 10**6)]
    blocks += [(a, a + rng.randint(1, 3000)) for a in (rng.randint(0, 10**6) for _ in range(30))]
    for a, b in blocks:
        small = sorted((p for p in range(2, math.isqrt(b - 1) + 1) if _smallest_factor(p) == 0), reverse=True)
        got = _spf(a, b, small)
        assert got.dtype == np.uint16 and got.tolist() == [_smallest_factor(n) for n in range(a, b)], (a, b)


def test_primes_in_matches_sympy_across_block_edges():
    rng = random.Random(12)
    cases = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (1, 97), (89, 97), (1, _SIEVE_BLOCK + 1),
             (_SIEVE_BLOCK - 5, 3 * _SIEVE_BLOCK + 7), (5, 4)]
    for _ in range(20):
        lo = rng.randint(1, 4 * _SIEVE_BLOCK)
        cases.append((lo, lo + rng.randint(0, 2 * _SIEVE_BLOCK)))
    for lo, hi in cases:
        got = _primes_in(lo, hi)
        assert got.dtype == np.int64 and got.tolist() == list(sympy.primerange(lo + 1, hi + 1)), (lo, hi)


def test_sieve_agrees_with_trial_division(small_sieve):
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, small_sieve.limit)
        assert small_sieve[n] == trial_factorize(n)[0][0]


def test_factorize_examples(small_sieve):
    assert factorize(65, small_sieve).parts == ((5, 1), (13, 1))
    assert factorize(360, small_sieve).parts == ((2, 3), (3, 2), (5, 1))


def test_factorize_prime_beyond_sieve():
    sieve = SpfSieve(2000)
    n = 999983
    assert all(n % d for d in range(2, math.isqrt(n) + 1))  # oracle: prime
    assert factorize(n, sieve).parts == ((n, 1),)


def test_factorize_round_trip(small_sieve):
    for n in range(1, 10**5 + 1):
        fact = factorize(n, small_sieve)
        prod = 1
        for p, e in fact.parts:
            prod *= p**e
        assert prod == n


def test_factorize_rejects_zero(small_sieve):
    with pytest.raises(InvalidArgumentError):
        factorize(0, small_sieve)


def test_factorize_beyond_sieve_matches_trial_division():
    # trial division by the sieved primes up to sqrt(n); 994009 = 997^2
    sieve = SpfSieve(1000)
    for n in range(993_000, 995_000):
        assert list(factorize(n, sieve).parts) == trial_factorize(n), n


def test_factorize_beyond_sieve_lists_only_the_primes_to_its_root(monkeypatch):
    # trial division reads the primes up to isqrt(n) off the sieve's table,
    # never the list of every prime it holds
    def every_prime(self):
        raise AssertionError("factorize listed every prime of the sieve")

    monkeypatch.setattr(SpfSieve, "primes", every_prime)
    sieve = SpfSieve(10**4)
    # a prime, 7 q with q past the sieve, and two prime powers
    for n in (1000003, 7 * 1000003, 9973**3, 3**20):
        assert list(factorize(n, sieve).parts) == trial_factorize(n), n
    with pytest.raises(UnsupportedInputError):
        factorize(10007 * 10009, sieve)  # both past the sieve


def test_factorize_rejects_hard_composite():
    sieve = SpfSieve(100)
    hard = 1000003 * 1000033  # both prime factors beyond the sieve
    with pytest.raises(UnsupportedInputError):
        factorize(hard, sieve)


def test_factorization_validates():
    with pytest.raises(InvalidArgumentError):
        Factorization(12, ((2, 1), (3, 1)))
    with pytest.raises(InvalidArgumentError):
        Factorization(6, ((3, 1), (2, 1)))


def test_crt_examples():
    assert crt_pair(2, 5, 5, 13) == 57
    assert 57 % 5 == 2 and 57 % 13 == 5
    assert crt_pair(0, 7, 0, 11) == 0
    assert crt_pair(3, 5, 8, 13) == 8


def test_crt_rejects_common_factor():
    with pytest.raises(InvalidArgumentError):
        crt_pair(1, 6, 1, 4)


def test_crt_random_round_trip():
    rng = random.Random(5)
    done = 0
    while done < 10**4:
        m1 = rng.randint(1, 10**6)
        m2 = rng.randint(1, 10**6)
        if math.gcd(m1, m2) != 1:
            continue
        r1 = rng.randrange(m1)
        r2 = rng.randrange(m2)
        r = crt_pair(r1, m1, r2, m2)
        assert 0 <= r < m1 * m2
        assert r % m1 == r1 and r % m2 == r2
        done += 1


def test_crt_product_matches_brute_force():
    # up to three pairwise coprime moduli among 1, primes and prime powers,
    # each with a set of 0-3 residues, against a search of [0, prod m)
    rng = random.Random(11)
    moduli = (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 25)
    for _ in range(400):
        ms = []
        for m in rng.sample(moduli, rng.randint(0, 3)):
            if all(math.gcd(m, k) == 1 for k in ms):
                ms.append(m)
        sets = [sorted(rng.sample(range(m), min(m, rng.randint(0, 3)))) for m in ms]
        want = [r for r in range(math.prod(ms)) if all(r % m in s for s, m in zip(sets, ms))]
        assert crt_product(zip(sets, ms)) == want, (sets, ms)


def test_crt_product_reads_no_part_past_an_empty_set():
    def parts():
        yield (1, 2), 3
        yield (), 5
        pytest.fail("a part past the empty set was read")

    assert crt_product(parts()) == []
    assert crt_product([]) == [0]


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and the
# first 13 prime bases (Sorenson and Webster, Math. Comp. 86, 2017).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _check_is_prime_to(limit):
    flags = eratosthenes(limit)  # a bytearray sieve, not the library's
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_against_sieve():
    # read off the shared sieve
    assert cached_sieve(0).limit >= 10**5
    _check_is_prime_to(10**5)


def test_is_prime_by_miller_rabin_against_sieve(monkeypatch):
    monkeypatch.setattr(modarith, "_shared_sieve", None)
    _check_is_prime_to(10**5)


def test_is_prime_builds_no_sieve(monkeypatch):
    monkeypatch.setattr(modarith, "_shared_sieve", None)
    for n in (0, 1, 2, 97, 99991, 10**5 + 3, 2**61 - 1, PSI_12):
        is_prime(n)
    assert modarith._shared_sieve is None


def test_is_prime_psi_12():
    # a strong pseudoprime to the bases 2..37, so base 41 decides it
    p, q = 399165290221, 798330580441
    assert PSI_12 == p * q and is_prime(p) and is_prime(q)
    assert not is_prime(PSI_12)
    with pytest.raises(UnsupportedInputError):
        is_prime(PSI_13)  # no factor among the bases, at the proven bound


def test_is_prime_64bit_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_beyond_deterministic_range():
    with pytest.raises(UnsupportedInputError):
        is_prime(2**89 - 1)  # no tiny factor, above the proven base-set bound


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpfSieve(10)[11], "sieve lookup out of range: 11"),
        (lambda: SpfSieve(10)[1], "sieve lookup out of range: 1"),
        (lambda: modarith.inverse(6, 9), "6 is not invertible mod 9"),
        (lambda: crt_pair(0, 0, 1, 3), "moduli must be positive"),
        (lambda: crt_pair(1, 3, 0, -5), "moduli must be positive"),
        (lambda: crt_pair(3, 3, 0, 5), r"residues must lie in \[0, modulus\)"),
        (lambda: crt_pair(0, 3, -1, 5), r"residues must lie in \[0, modulus\)"),
    ],
)
def test_modarith_refusals(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()
