"""Correctness gate: every result a run produces is checked here.

Seed 0 is compared with the regression goldens in
``tests/goldens/acceptance.json``.  Every seed is also checked against
oracles that share no code with the program: brute-force root scans for
small moduli, identities that tie one query's output to another's, the tower
congruence f(prefix_L) = 0 mod base^L, and identical output across repeats.

A check function takes the drawn inputs and the run's results and returns a
list of ``(name, ok, detail)``.  Its ``tamper_*`` partner returns a copy of
the results with one value changed, which the check must reject; a gate that
accepts it counts as a failed check.
"""

from __future__ import annotations

import cmath
import copy
import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

GOLDENS = Path("tests") / "goldens" / "acceptance.json"
ORACLE_XMAX = 1_000
W_TOL = 1e-9


# -- oracles ------------------------------------------------------------

@lru_cache(maxsize=None)
def brute_roots(coeffs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Roots mod n by evaluating at every residue."""
    if n == 1:
        return (0,)
    v = np.arange(n, dtype=np.int64)
    acc = np.full(n, coeffs[-1] % n, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = (acc * v + c) % n
    return tuple(int(r) for r in np.flatnonzero(acc == 0))


def prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def brute_weyl(coeffs, h_of_n, accept, checkpoints) -> dict[int, tuple[int, float]]:
    """Normalizer and W at each checkpoint <= ORACLE_XMAX, from scratch."""
    out, norm, total = {}, 0, 0j
    cps = [c for c in checkpoints if c <= ORACLE_XMAX]
    for n in range(1, max(cps, default=0) + 1):
        if accept(n):
            h = h_of_n(n)
            if h is not None:
                roots = brute_roots(tuple(coeffs), n)
                norm += len(roots)
                total += sum(cmath.exp(2j * math.pi * ((h * v) % n) / n) for v in roots)
        if n in cps:
            out[n] = (norm, abs(total) / norm if norm else math.nan)
    return out


def _compare_weyl(name, coeffs, h_of_n, accept, checkpoints, normalizers, ws):
    """Checks of (normalizer, W) rows against the brute-force oracle."""
    got = dict(zip(checkpoints, zip(normalizers, ws)))
    res = []
    for x, (norm, w) in brute_weyl(coeffs, h_of_n, accept, checkpoints).items():
        gn, gw = got[x]
        ok = gn == norm and (abs(float(gw) - w) <= W_TOL or (norm == 0 and gw == "nan"))
        res.append((f"{name}.oracle@{x}", ok, f"got ({gn}, {gw}) want ({norm}, {w:.12g})"))
    return res


@lru_cache(maxsize=None)
def _goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def _compare_golden(name, golden, checkpoints, normalizers, ws):
    got = dict(zip(checkpoints, zip(normalizers, ws)))
    res = []
    for x, norm, w in zip(golden["checkpoints"], golden["normalizer"], golden["W"]):
        if x in got:
            ok = got[x] == (norm, w)
            res.append((f"{name}.golden@{x}", ok, f"got {got[x]} want {(norm, w)}"))
    return res


def _prime_stats_checks(name, coeffs, rows):
    """rows: (x, sum_rho_p, pi_x) per checkpoint."""
    flags = prime_flags(max(x for x, _, _ in rows))
    res = []
    for x, sum_rho, pi in rows:
        want_pi = sum(flags[: x + 1])
        res.append((f"{name}.pi@{x}", pi == want_pi, f"got {pi} want {want_pi}"))
        if x <= ORACLE_XMAX:
            want = sum(len(brute_roots(tuple(coeffs), p)) for p in range(2, x + 1) if flags[p])
            res.append((f"{name}.sum_rho@{x}", sum_rho == want, f"got {sum_rho} want {want}"))
    return res


def _inverse_or_none(m):
    def h(n):
        if n == 1:
            return 0
        return pow(m, -1, n) if math.gcd(m, n) == 1 else None

    return h


# -- cold_cli -----------------------------------------------------------

def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cold(inp: dict, res: dict, seed: int) -> list:
    out = []
    by_job: dict[str, set] = {}
    for job in res["jobs"]:
        by_job.setdefault(job["name"], set()).add(job["stdout"])
    for name, texts in by_job.items():
        out.append((f"{name}.identical_bytes", len(texts) == 1, f"{len(texts)} distinct outputs"))
    weyl = _csv(res["jobs"][0]["stdout"])
    cps = [int(r["x"]) for r in weyl]
    norms = [int(r["normalizer"]) for r in weyl]
    ws = [r["W"] for r in weyl]
    out += _compare_weyl("weyl", inp["quadratic"], lambda n: 1, lambda n: True, cps, norms, ws)
    if seed == 0:
        out += _compare_golden("weyl", _goldens()["weyl"]["all"], cps, norms, ws)
    stats = _csv(res["jobs"][1]["stdout"])
    rows = [(int(r["x"]), int(r["sum_rho_p"]), int(r["pi_x"])) for r in stats]
    out += _prime_stats_checks("stats", inp["cubic"], rows)
    return out


def tamper_cold(res: dict) -> dict:
    bad = copy.deepcopy(res)
    job = bad["jobs"][0]
    lines = job["stdout"].split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("1000,"))
    cells = lines[row].split(",")
    cells[4] = str(int(cells[4]) + 1)
    lines[row] = ",".join(cells)
    job["stdout"] = "\n".join(lines)
    return bad


# -- warm_session -------------------------------------------------------

def check_warm(inp: dict, res: dict, seed: int) -> list:
    s = res["summary"]
    out = _same_digests(res)
    f = inp["quadratic"]
    a, m = inp["progression"]
    variants = {
        "weyl_all": (lambda n: 1, lambda n: True),
        "weyl_h0_squarefree": (lambda n: inp["h0"], squarefree),
        "weyl_inv": (_inverse_or_none(inp["inv_m"]), lambda n: True),
        "weyl_progression": (lambda n: 1, lambda n: n % m == a % m),
    }
    for name, (h_of_n, accept) in variants.items():
        w = s["weyl"][name]
        out += _compare_weyl(name, f, h_of_n, accept, w["checkpoints"], w["normalizer"], w["W"])
    total = s["weyl"]["weyl_all"]["normalizer"][-1]
    out.append(("points.count", s["points"] == total, f"{s['points']} points, normalizer {total}"))
    out.append(("sums_all.total", s["sums_all"][-1] == total, f"{s['sums_all'][-1]} vs {total}"))
    prog = s["weyl"]["weyl_progression"]["normalizer"][-1]
    out.append(("sums_progression.total", s["sums_progression"][-1] == prog, f"{s['sums_progression'][-1]} vs {prog}"))
    star = float(s["star"])
    out.append(("star.range", 1 / (2 * s["points"]) <= star <= 1, f"star {star}"))
    out += _prime_stats_checks("prime_stats", f, s["prime_stats"])
    for n_text, ideals in s["sampled_ideals"].items():
        n = int(n_text)
        residues = sorted(_crt(ideal) for ideal in ideals)
        norms_ok = all(math.prod(p**e for p, e, _ in ideal) == n for ideal in ideals)
        want = list(brute_roots(tuple(f), n))
        out.append((f"ideals@{n}", norms_ok and residues == want, f"got {residues} want {want}"))
    j = s["joint"]
    polys = [tuple(c) for c in inp["pair"]]
    out += _joint_checks(polys, j)
    if seed == 0:
        for name, key in (("weyl_all", "all"), ("weyl_h0_squarefree", "squarefree"), ("weyl_progression", "progression_1_4")):
            w = s["weyl"][name]
            out += _compare_golden(name, _goldens()["weyl"][key], w["checkpoints"], w["normalizer"], w["W"])
        g = _goldens()["system"]
        got = dict(zip(j["checkpoints"], range(len(j["checkpoints"]))))
        for k, x in enumerate(g["checkpoints"]):
            if x not in got:
                continue
            i = got[x]
            ok = j["normalizer"][i] == g["normalizer"][k] and j["box_discrepancy"][i] == g["box_discrepancy"][k]
            ok = ok and all(j["W"][h][i] == g["W"][h][k] for h in g["W"])
            out.append((f"joint.golden@{x}", ok, "normalizer, box discrepancy and W per h"))
    return out


def _crt(components) -> int:
    acc, acc_m = 0, 1
    for p, e, v in components:
        pe = p**e
        acc += acc_m * ((v - acc) * pow(acc_m, -1, pe) % pe)
        acc_m *= pe
    return acc


def _joint_checks(polys, j) -> list:
    res = []
    sums: dict[str, complex] = {h: 0j for h in j["W"]}
    norm = 0
    cps = [x for x in j["checkpoints"] if x <= ORACLE_XMAX]
    for n in range(1, max(cps, default=0) + 1):
        roots = [brute_roots(p, n) for p in polys]
        norm += math.prod(len(r) for r in roots)
        for h in sums:
            hv = [int(c) for c in h.split("_")]
            term = 1 + 0j
            for hi, r in zip(hv, roots):
                term *= sum(cmath.exp(2j * math.pi * ((hi * v) % n) / n) for v in r)
            sums[h] += term
        if n in cps:
            i = j["checkpoints"].index(n)
            ok = j["normalizer"][i] == norm and all(
                abs(float(j["W"][h][i]) - abs(sums[h]) / norm) <= W_TOL for h in sums
            )
            res.append((f"joint.oracle@{n}", ok, f"normalizer {j['normalizer'][i]} want {norm}"))
    return res


def tamper_warm(res: dict) -> dict:
    bad = copy.deepcopy(res)
    w = bad["summary"]["weyl"]["weyl_all"]
    w["normalizer"][w["checkpoints"].index(1000)] += 1
    return bad


# -- digit_tower --------------------------------------------------------

def check_tower(inp: dict, res: dict, seed: int) -> list:
    s = res["summary"]
    out = _same_digests(res)
    f, base, depth = tuple(inp["quadratic"]), inp["base"], inp["depth"]
    want_roots = list(brute_roots(f, base))
    seeds = [d[0] for d in s["digits"]]
    out.append(("tower.seed_roots", seeds == want_roots, f"got {seeds} want {want_roots}"))
    for k, digits in enumerate(s["digits"]):
        ok = len(digits) == depth and all(0 <= d < base for d in digits)
        for level in (depth // 2, depth):
            value = 0
            for d in reversed(digits[:level]):
                value = value * base + d
            ok = ok and sum(c * value**i for i, c in enumerate(f)) % base**level == 0
        out.append((f"tower[{k}].congruence", ok, f"f(prefix_L) = 0 mod {base}^L at L = {depth // 2}, {depth}"))
        ev = s["evidence"][k]
        for m_text, counts in ev["counts"].items():
            m = int(m_text)
            want = [0] * base**m
            for i in range(len(digits) - m + 1):
                want[int("".join(str(d) for d in digits[i : i + m]), base)] += 1
            out.append((f"tower[{k}].words{m}", counts == want, f"word counts for m = {m}"))
    mean, err = s["haar"]
    target = 1 / inp["haar_levels"]
    out.append(("haar.mean", abs(mean - target) <= 6 * err, f"mean {mean} vs 1/levels {target}, stderr {err}"))
    if seed == 0:
        for k, g in enumerate(_goldens()["normality"]):
            ev = s["evidence"][k]
            ok = all(ev[key] == g[key] for key in ("seed_root", "max_deviation", "chi_square", "weyl_trajectory"))
            out.append((f"tower[{k}].golden", ok, "seed root, deviations, chi-square, Weyl trajectory"))
    return out


def tamper_tower(res: dict) -> dict:
    bad = copy.deepcopy(res)
    digits = bad["summary"]["digits"][0]
    digits[-1] = (digits[-1] + 1) % 5
    return bad


def _same_digests(res: dict) -> list:
    digests = {p["digest"] for p in res["passes"]}
    return [("passes.identical", len(digests) == 1, f"{len(digests)} distinct results over {len(res['passes'])} passes")]


GATES = {
    "cold_cli": (check_cold, tamper_cold),
    "warm_session": (check_warm, tamper_warm),
    "digit_tower": (check_tower, tamper_tower),
}


def run_gate(workload: str, inp: dict, res: dict, seed: int) -> list:
    """All checks, plus the self-test that a tampered result is rejected."""
    check, tamper = GATES[workload]
    results = check(inp, res, seed)
    missed = sum(not ok for _, ok, _ in check(inp, tamper(res), seed)) == 0
    results.append(("gate.rejects_tampered_result", not missed, "the gate must fail a result with one value changed"))
    return results
