"""Degree-one ideal data in factored form, and the root <-> ideal bijection.

An ideal of norm n coprime to eta*disc is stored extensionally as one
(prime, exponent, residue) triple per prime power of n; no integral basis is
ever needed.  Ramified primes (those dividing eta*disc) are refused outright:
identifying which root mod p belongs to a ramified degree-one prime would
need p-adic factorization machinery this representation deliberately avoids.

Norms here are always ideal norms (residue-ring sizes).  No norm of a ring
element is ever computed, so the unit-scale ambiguity between element norms
over the localized ring and products of complex embeddings never arises.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AdmissibilityError, InvalidArgumentError, UnsupportedInputError
from .intpoly import IntPolynomial, poly_eval_mod
from .modarith import SpfSieve, cached_sieve, crt_product, factorize, is_prime, spf_parts
from .roots import roots_from_factorization, roots_mod_n


@dataclass(frozen=True)
class AdmissibilityReport:
    """Whether gcd(n, eta*disc) = 1, and the primes that break it."""

    modulus: int
    admissible: bool
    offending_primes: tuple[int, ...]


def admissibility(f: IntPolynomial, n: int) -> AdmissibilityReport:
    if n < 1:
        raise InvalidArgumentError("modulus must be positive")
    g = math.gcd(n, f.eta * f.discriminant)
    if g == 1:
        return AdmissibilityReport(n, True, ())
    return AdmissibilityReport(n, False, tuple(p for p, _ in factorize(g).parts))


@dataclass(frozen=True, slots=True)
class FactoredIdeal:
    """A degree-one ideal as (prime, exponent, residue mod p^e) components.

    Distinct primes across components encode the coprime-norms condition;
    each component being a residue of a genuine root encodes the degree-one
    condition for admissible primes.
    """

    components: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e, v in self.components:
            if p <= last:
                raise InvalidArgumentError("component primes must be distinct and ascending")
            if e < 1 or not 0 <= v < p**e:
                raise InvalidArgumentError("component exponent or residue out of range")
            last = p

    @property
    def norm(self) -> int:
        return math.prod(p**e for p, e, _ in self.components)

    def to_json(self) -> str:
        parts = ", ".join(f"[{p}, {e}, {v}]" for p, e, v in self.components)
        return f'{{"norm": {self.norm}, "components": [{parts}]}}'


def ideal_from_root(f: IntPolynomial, v: int, n: int) -> FactoredIdeal:
    """The ideal generated by (root shift, n) for a root v of f mod n."""
    report = admissibility(f, n)
    if not report.admissible:
        raise AdmissibilityError(report)
    if not 0 <= v < n:
        raise InvalidArgumentError(f"root {v} out of range [0, {n})")
    if poly_eval_mod(f, v, n) != 0:
        raise InvalidArgumentError(f"{v} is not a root of the polynomial mod {n}")
    return _ideals_of((v,), factorize(n).parts)[0]


def _ideals_of(roots: Iterable[int], parts: Sequence[tuple[int, int]]) -> list[FactoredIdeal]:
    """The sorted ideals of roots v mod prod p^e over ``parts``: components (p, e, v mod p^e)."""
    return [FactoredIdeal(c) for c in sorted(tuple((p, e, v % p**e) for p, e in parts) for v in roots)]


def ideal_residue(ideal: FactoredIdeal) -> int:
    """The unique integer in [0, norm) matching every component residue."""
    return crt_product(((v,), p**e) for p, e, v in ideal.components)[0]


def _check_components(f: IntPolynomial, components: tuple[tuple[int, int, int], ...]) -> None:
    """Refuse a component (p, e, v) unless p is prime, e >= 1, 0 <= v < p^e
    and f(v) = 0 mod p^e."""
    for p, e, v in components:
        if not is_prime(p):
            raise InvalidArgumentError(f"component p = {p} is not prime")
        if e < 1 or not 0 <= v < p**e:
            raise InvalidArgumentError("component exponent or residue out of range")
        if poly_eval_mod(f, v, p**e) != 0:
            raise InvalidArgumentError(f"component residue {v} is not a root mod {p}^{e}")


def is_degree_one(
    f: IntPolynomial, components: tuple[tuple[int, int, int], ...]
) -> tuple[bool, str]:
    """Classify a component list against the two degree-one conditions.

    Condition (ii) asks that component norms be pairwise coprime, i.e. no
    rational prime repeats.  Condition (i) asks each component to be a
    degree-one prime power, which this representation can only certify for
    primes away from eta*disc.
    """
    _check_components(f, components)
    bad = f.eta * f.discriminant
    seen = Counter(p for p, _, _ in components)
    repeated = sorted(p for p, k in seen.items() if k > 1)
    if repeated:
        return False, (
            f"condition (ii) fails: primes {repeated} appear in more than one "
            "component, so the component norms are not pairwise coprime"
        )
    inadmissible = sorted(p for p in seen if bad % p == 0)
    if inadmissible:
        return False, (
            f"condition (i) cannot be certified: primes {inadmissible} divide "
            "eta*disc, and ramified primes are excluded from this representation"
        )
    return True, "degree one"


@dataclass(frozen=True)
class InertiaDegree:
    """Inertia degree as a pair of per-prime exponent vectors.

    The value is log(product of component norms) / log(contraction to Z).
    Logs of distinct primes are independent, so the quotient is returned
    symbolically: exact when the vectors are proportional, and always
    convertible to float.  The only predicate consumers need, equality with
    1, is decided exactly.
    """

    numerator: tuple[tuple[int, int], ...]
    denominator: tuple[tuple[int, int], ...]

    @property
    def is_one(self) -> bool:
        return self.numerator == self.denominator

    def as_fraction(self) -> Fraction | None:
        num = dict(self.numerator)
        den = dict(self.denominator)
        if not den:
            return Fraction(1)  # unit ideal: both residue rings are trivial
        ratios = {Fraction(num[p], den[p]) for p in den}
        if len(ratios) == 1:
            return ratios.pop()
        return None

    def __float__(self) -> float:
        if not self.denominator:
            return 1.0
        num = sum(e * math.log(p) for p, e in self.numerator)
        den = sum(e * math.log(p) for p, e in self.denominator)
        return num / den

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            frac = self.as_fraction()
            return frac is not None and frac == other
        if isinstance(other, InertiaDegree):
            return (self.numerator, self.denominator) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.numerator, self.denominator))


def inertia_degree(
    f: IntPolynomial, components: tuple[tuple[int, int, int], ...]
) -> InertiaDegree:
    """Inertia degree of a product of components (equal primes allowed).

    The residue ring size multiplies over components; the contraction to the
    integers is governed per prime by the largest exponent present.  The
    unit ideal (no components) has degree one by convention.
    """
    _check_components(f, components)
    bad = f.eta * f.discriminant
    total: dict[int, int] = {}
    largest: dict[int, int] = {}
    for p, e, _ in components:
        if bad % p == 0:
            raise UnsupportedInputError(
                f"prime {p} divides eta*disc; ramified components are unsupported"
            )
        total[p] = total.get(p, 0) + e
        largest[p] = max(largest.get(p, 0), e)
    num = tuple(sorted(total.items()))
    den = tuple(sorted(largest.items()))
    return InertiaDegree(num, den)


def enumerate_degree_one(
    f: IntPolynomial, n: int, sieve: SpfSieve | None = None
) -> list[FactoredIdeal]:
    """All degree-one ideals of norm n, sorted: ``_ideals_of`` applied to the roots of
    f mod n (``roots_mod_n``) and the parts of n (one factorization past the process
    sieve, ``cached_sieve(0)``); ``sieve`` is not read."""
    report = admissibility(f, n)
    if not report.admissible:
        raise AdmissibilityError(report)
    sieve = cached_sieve(0)
    fact = None if n <= sieve.limit else factorize(n, sieve)  # once, for roots and parts
    roots = roots_mod_n(f, n) if fact is None else roots_from_factorization(f, fact)
    if not roots:
        return []
    return _ideals_of(roots, spf_parts(n, sieve) if fact is None else fact.parts)

