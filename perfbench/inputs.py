"""Seeded inputs for the benchmark workloads.

Every input the program receives is drawn here from the workload seed; the
program never sees the seed itself.  Seed 0 is the reference configuration of
``tests/goldens/acceptance.json`` (x^2 + 1, the pair x^2 + x + 1 and
x^2 - x - 1, base 5), so its outputs can be compared with the goldens.

Polynomials are kept as ascending coefficient tuples and checked with plain
integer arithmetic, so drawing inputs does not import the program.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cold_cli", "warm_session", "digit_tower")

# Problem sizes.  They are fixed for every seed; only the polynomials,
# frequencies and residue classes change.
COLD_XMAX = 200_000  # cold_cli: weyl and stats jobs run to this bound
WARM_XMAX = 100_000  # warm_session: single-polynomial streams
WARM_PAIR_XMAX = 10_000  # warm_session: joint series of the pair
WARM_IDEALS_NMAX = 20_000  # warm_session: enumerate_degree_one for n <= this
TOWER_BASE = 5
TOWER_DEPTH = 10_000
TOWER_MAX_WORD = 3
HAAR_LEVELS = 200
HAAR_SAMPLES = 40

# Admissible moduli whose ideals are checked against a brute-force root scan.
SAMPLED_MODULI = 12


def poly_text(coeffs) -> str:
    """The CLI spelling of a polynomial, e.g. (-2, 0, 0, 1) -> "-2,0,0,1"."""
    return ",".join(str(c) for c in coeffs)


def discriminant(coeffs) -> int:
    """Discriminant of a monic quadratic or cubic."""
    if len(coeffs) == 3:
        c, b, _ = coeffs
        return b * b - 4 * c
    d, c, b, _ = coeffs
    return b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _has_integer_root(coeffs) -> bool:
    """A monic integer polynomial has a rational root only at a divisor of c0."""
    c0 = abs(coeffs[0])
    for v in range(1, c0 + 1):
        if c0 % v:
            continue
        for r in (v, -v):
            if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                return True
    return False


def _quadratic(rng: random.Random, accept=lambda coeffs: True) -> tuple[int, ...]:
    """Monic irreducible x^2 + b x + c with |b| <= 3, 1 <= |c| <= 5."""
    while True:
        coeffs = (rng.choice([c for c in range(-5, 6) if c]), rng.randint(-3, 3), 1)
        if not _is_square(discriminant(coeffs)) and accept(coeffs):
            return coeffs


def _cubic(rng: random.Random) -> tuple[int, ...]:
    """Monic irreducible cubic with coefficients in [-3, 3] and Galois group
    S3 (non-square discriminant), so the share of split primes is fixed."""
    while True:
        coeffs = (rng.choice([c for c in range(-3, 4) if c]), rng.randint(-3, 3), rng.randint(-3, 3), 1)
        disc = discriminant(coeffs)
        if disc != 0 and not _is_square(disc) and not _has_integer_root(coeffs):
            return coeffs


def translate(coeffs, k: int) -> tuple[int, ...]:
    """Coefficients of f(x + k) for a monic quadratic f."""
    c, b, _ = coeffs
    return (k * k + b * k + c, 2 * k + b, 1)


def _roots_mod(coeffs, n: int) -> int:
    return sum(1 for v in range(n) if sum(c * v**i for i, c in enumerate(coeffs)) % n == 0)


def draw(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed, as a JSON-ready dict."""
    rng = random.Random(f"rootdist-bench:{workload}:{seed}")
    if workload == "cold_cli":
        if seed == 0:
            quad, cubic = (1, 0, 1), (-2, 0, 0, 1)
        else:
            quad, cubic = _quadratic(rng), _cubic(rng)
        return {"quadratic": quad, "cubic": cubic, "xmax": COLD_XMAX}
    if workload == "warm_session":
        # Translates f(x + k) keep rho(n) for every n, so every seed does the
        # same amount of per-root work; the roots themselves all move.
        quad = translate((1, 0, 1), 0 if seed == 0 else rng.randint(-6, 6))
        pair = tuple(translate(g, 0 if seed == 0 else rng.randint(-6, 6)) for g in ((1, 1, 1), (-1, -1, 1)))
        # The filter moduli fix the share of moduli a stream visits, so they
        # stay fixed; the frequency and the residue class are drawn.
        if seed == 0:
            h0, inv_m, prog = 1, 2, (1, 4)
        else:
            h0, inv_m, prog = rng.randint(1, 5), 3, (rng.randint(1, 4), 5)
        admissible = [
            n for n in range(2, WARM_IDEALS_NMAX + 1) if math.gcd(n, discriminant(quad)) == 1
        ]
        return {
            "quadratic": quad,
            "pair": pair,
            "h0": h0,
            "inv_m": inv_m,
            "progression": prog,
            "xmax": WARM_XMAX,
            "pair_xmax": WARM_PAIR_XMAX,
            "ideals_nmax": WARM_IDEALS_NMAX,
            "sampled_moduli": sorted(rng.sample(admissible, SAMPLED_MODULI)),
        }
    if workload == "digit_tower":
        if seed == 0:
            quad = (1, 0, 1)
        else:
            # Two roots mod the base, and the base admissible (coprime to disc).
            quad = _quadratic(
                rng,
                lambda c: math.gcd(TOWER_BASE, discriminant(c)) == 1
                and _roots_mod(c, TOWER_BASE) == 2,
            )
        return {
            "quadratic": quad,
            "base": TOWER_BASE,
            "depth": TOWER_DEPTH,
            "max_word": TOWER_MAX_WORD,
            "haar_levels": HAAR_LEVELS,
            "haar_samples": HAAR_SAMPLES,
            "haar_seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")
