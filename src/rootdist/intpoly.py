"""Primitive integer polynomials: validation, exact discriminants, modular evaluation.

Coefficients are kept in ascending degree order and all arithmetic is exact;
the discriminant in particular is computed over arbitrary-precision integers
because downstream admissibility tests (does p divide eta*disc?) must never
see a rounded value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidArgumentError

# Unicode minus signs tolerated in text input alongside ASCII '-'.
_MINUS_TO_ASCII = str.maketrans(dict.fromkeys("−–—", "-"))

# Above this bound rational-root candidates of degree >= 3 are not enumerated.
_RATROOT_COEFF_CAP = 10**12


class IrreducibilityAssumedWarning(UserWarning):
    """Irreducibility could not be proven and is taken on trust."""


@dataclass(frozen=True)
class IntPolynomial:
    """A primitive polynomial over Z of degree >= 2 with nonzero discriminant."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        # the dataclass hash, once: every kept-table lookup hashes f
        object.__setattr__(self, "_hash", hash((coeffs,)))
        if len(coeffs) < 3:
            raise InvalidArgumentError("polynomial degree must be at least 2")
        if coeffs[-1] == 0:
            raise InvalidArgumentError("leading coefficient must be nonzero")
        if math.gcd(*coeffs) != 1:
            raise InvalidArgumentError(
                "polynomial must be primitive (divide out the coefficient gcd)"
            )
        root = _rational_root(coeffs)
        if root is not None:
            raise InvalidArgumentError(
                f"polynomial is reducible: it has the rational root {root}"
            )
        if self.discriminant == 0:
            raise InvalidArgumentError(
                "polynomial has a repeated factor (discriminant is zero)"
            )
        if self.degree >= 4:
            warnings.warn(
                "irreducibility of degree >= 4 polynomials is assumed, not proven",
                IrreducibilityAssumedWarning,
                stacklevel=2,
            )

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def eta(self) -> int:
        """The denominator-clearing constant |leading|: eta times a root is
        an algebraic integer."""
        return abs(self.coeffs[-1])

    @cached_property
    def discriminant(self) -> int:
        """Exact discriminant via the resultant of f and f'."""
        d = self.degree
        res = _resultant(self.coeffs, self.derivative())
        quo, rem = divmod(res, self.coeffs[-1])
        assert rem == 0, "resultant of f and f' must be divisible by the leading coefficient"
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        return sign * quo

    def derivative(self) -> tuple[int, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def deriv_mod(self, v: int, m: int) -> int:
        return _horner(self.derivative(), v, m)

    def __str__(self) -> str:
        return pretty(self)


def poly_eval_mod(f: IntPolynomial, v: int, m: int) -> int:
    """Horner evaluation of f at v with every intermediate reduced mod m.

    m may be arbitrarily large (for example a deep prime power); the
    reduction keeps intermediates no bigger than m squared.
    """
    return _horner(f.coeffs, v, m)


def _horner(coeffs: tuple[int, ...], v: int, m: int) -> int:
    """The polynomial with ascending coefficients coeffs at v, mod m >= 1."""
    if m < 1:
        raise InvalidArgumentError("modulus must be positive")
    acc = 0
    v = v % m
    for c in reversed(coeffs):
        acc = (acc * v + c) % m
    return acc


def parse_ints(text: str, what: str, count: int | None = None) -> tuple[int, ...]:
    """The integers of a comma-separated list such as "1,-3, 4", with a
    Unicode minus read as '-' and the whitespace around an entry ignored.
    ``count``, when given, is the number of entries required; ``what``
    names the list in the error."""

    def refuse(problem: str) -> InvalidArgumentError:
        return InvalidArgumentError(f"cannot parse {what} {text!r}: {problem}")

    parts = [p.strip() for p in text.translate(_MINUS_TO_ASCII).split(",")]
    if "" in parts:
        raise refuse("empty entry")
    if count is not None and len(parts) != count:
        raise refuse(f"expected {count} integer{'s' if count != 1 else ''}, got {len(parts)}")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError as exc:
            # all digits, yet refused: past the int digit limit, say
            digits = p.lstrip("+-").replace("_", "").isdecimal()
            raise refuse(str(exc) if digits else f"{p!r} is not an integer") from None
    return tuple(values)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse comma-separated ascending coefficients, e.g. "1,0,1" for x^2+1."""
    return IntPolynomial(parse_ints(text, "polynomial"))


def pretty(f: IntPolynomial) -> str:
    """Human-readable form like "x^3 - 2" for messages and logs."""
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            body = x if abs(c) == 1 else f"{abs(c)}{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _rational_root(coeffs: tuple[int, ...]) -> object | None:
    """A rational root of the polynomial, or None when none exists.

    For degree 2 a rational root exists exactly when the discriminant is a
    perfect square, which is decided at any size.  Higher degrees search the
    candidates p/q with p | c0 and q | c_d.  For degree 2 and 3 the absence
    of a rational root proves irreducibility over Q; larger degrees get only
    this spot check.  Degree >= 3 coefficients beyond the enumeration cap
    are skipped with a warning.
    """
    c0, cd = coeffs[0], coeffs[-1]
    if c0 == 0:
        return 0
    if len(coeffs) == 3:
        b = coeffs[1]
        disc = b * b - 4 * cd * c0
        s = math.isqrt(disc) if disc >= 0 else -1
        return Fraction(s - b, 2 * cd) if s * s == disc else None
    if abs(c0) > _RATROOT_COEFF_CAP or abs(cd) > _RATROOT_COEFF_CAP:
        warnings.warn(
            "coefficients too large for exhaustive rational-root search; "
            "irreducibility is assumed",
            IrreducibilityAssumedWarning,
            stacklevel=3,
        )
        return None
    d = len(coeffs) - 1
    for q in _divisors(cd):
        for p in _divisors(c0):
            for num in (p, -p):
                if math.gcd(num, q) != 1:
                    continue
                # q^d * f(num/q) as an exact integer
                val = 0
                for i, c in enumerate(coeffs):
                    val += c * num**i * q ** (d - i)
                if val == 0:
                    return Fraction(num, q)
    return None


def _resultant(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Resultant of two integer polynomials, a of positive degree and b of
    nonzero lead, by Euclid over Fractions: with r the remainder of a by b,
    res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * res(b, r),
    0 when r vanishes, and c^(deg a) for a constant b = c.  Exact."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    res = Fraction(1)
    while len(b) > 1:
        r = a[:]
        while len(r) >= len(b):  # clear the top coefficient of r by a multiple of b
            q, shift = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(res * b[0] ** (len(a) - 1))
