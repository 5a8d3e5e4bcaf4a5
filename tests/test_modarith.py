import math
import random

import pytest

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
from rootdist.modarith import cached_sieve

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
    # raised before the 400 MB table is allocated
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
    assert len(sieve.primes()) == expected
    assert all(type(p) is int for p in sieve.primes())


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
