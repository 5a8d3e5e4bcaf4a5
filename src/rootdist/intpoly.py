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
_MINUS_VARIANTS = ("−", "–", "—")

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
        """Exact discriminant via the Sylvester resultant of f and f'."""
        d = self.degree
        res = _resultant(self.coeffs, self.derivative())
        quo, rem = divmod(res, self.coeffs[-1])
        assert rem == 0, "resultant of f and f' must be divisible by the leading coefficient"
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        return sign * quo

    def derivative(self) -> tuple[int, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def deriv_mod(self, v: int, m: int) -> int:
        if m < 1:
            raise InvalidArgumentError("modulus must be positive")
        acc = 0
        v = v % m
        for c in reversed(self.derivative()):
            acc = (acc * v + c) % m
        return acc

    def __str__(self) -> str:
        return pretty(self)


def poly_eval_mod(f: IntPolynomial, v: int, m: int) -> int:
    """Horner evaluation of f at v with every intermediate reduced mod m.

    m may be arbitrarily large (for example a deep prime power); the
    reduction keeps intermediates no bigger than m squared.
    """
    if m < 1:
        raise InvalidArgumentError("modulus must be positive")
    acc = 0
    v = v % m
    for c in reversed(f.coeffs):
        acc = (acc * v + c) % m
    return acc


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse comma-separated ascending coefficients, e.g. "1,0,1" for x^2+1."""
    for variant in _MINUS_VARIANTS:
        text = text.replace(variant, "-")
    parts = [p.strip() for p in text.split(",")]
    if any(p == "" for p in parts):
        raise InvalidArgumentError(f"cannot parse polynomial {text!r}: empty coefficient")
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse polynomial {text!r}: {exc}") from None
    return IntPolynomial(coeffs)


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
    """Resultant of two integer polynomials via a Sylvester determinant.

    The determinant is taken with Bareiss fraction-free elimination, so all
    intermediates stay integers and the result is exact.
    """
    da, db = len(a) - 1, len(b) - 1
    if da < 1 or db < 0:
        raise InvalidArgumentError("resultant needs degrees >= 1 and >= 0")
    if db == 0:
        return b[0] ** da
    size = da + db
    desc_a = list(reversed(a))
    desc_b = list(reversed(b))
    mat = [[0] * size for _ in range(size)]
    for i in range(db):
        mat[i][i : i + da + 1] = desc_a
    for i in range(da):
        mat[db + i][i : i + db + 1] = desc_b
    return _bareiss_det(mat)


def _bareiss_det(mat: list[list[int]]) -> int:
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, n):
            row_i = mat[i]
            row_k = mat[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[n - 1][n - 1]
