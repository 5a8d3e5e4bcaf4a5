#!/usr/bin/env python3
"""Regenerate the regression goldens under tests/goldens/: acceptance.json
(the acceptance-criteria statistics), cli.json (the stdout of small CLI
runs) and cli_md5.json (the stdout md5 of larger CLI runs).

Run from the repository root after an intentional behavior change:

    python tools/gen_goldens.py

Values are deterministic (fixed seeds, pinned accumulation order), so a
regeneration on unchanged code reproduces the committed files byte for byte.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rootdist as rd
from rootdist import cli

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"

CHECKPOINTS = [10**3, 10**4, 10**5, 10**6]
FILTERS = {
    "all": None,
    "squarefree": rd.ModulusFilter.squarefree(),
    "progression_1_4": rd.ModulusFilter.progression(1, 4),
}


# Small CLI runs whose stdout cli.json pins byte for byte.  The flag marks
# a run that also writes its tuple cloud through --cloud-out.
CLI_COMMANDS = [
    (["roots", "--poly", "1,0,1", "--n", "65"], False),
    (["roots", "--poly", "1,0,1", "--nmax", "2000", "--filter", "squarefree"], False),
    (["roots", "--poly=-8,0,1", "--nmax", "300", "--filter", "coprime:3"], False),
    (["roots", "--poly", "1,0,1", "--nmax", "30", "--filter", "list:0,5,-5,10,99"], False),
    # x^2 - 2^9 3^5 5^3: more roots than moduli, so the modulus table grows
    (["roots", "--poly=-15552000,0,1", "--nmax", "300"], False),
    # 5 (2^61 + 21), a prime past the int64 lane bound
    (["roots", "--poly", "1,0,1", "--n", "11529215046068469865"], False),
    # a prime above the 10^8 table cap, below the int64 lane bound for degree 3
    (["roots", "--poly=-2,0,0,1", "--n", "1000000123"], False),
    (["weyl", "--poly", "1,0,1", "--xmax", "20000", "--h", "inv:3",
      "--checkpoints", "500,50,20000"], False),
    (["weyl", "--poly", "1,0,1", "--xmax", "20000", "--filter", "progression:1,4",
      "--format", "json"], False),
    (["weyl", "--poly=-2,0,0,1", "--xmax", "30000", "--filter", "squarefree"], False),
    (["weyl", "--poly", "3,0,2", "--xmax", "20000", "--h", "inv:3"], False),
    # inverse mode under a caller filter; coprime:10 with inv:6 keeps n prime to 30
    (["weyl", "--poly", "1,0,1", "--xmax", "20000", "--h", "inv:3", "--filter", "squarefree"], False),
    (["weyl", "--poly", "1,0,1", "--xmax", "20000", "--h", "inv:6", "--filter", "coprime:10"], False),
    (["stats", "--poly=-2,0,0,1", "--xmax", "20000"], False),
    (["stats", "--poly", "1,0,1", "--xmax", "20000", "--progression", "1,4"], False),
    # a non-monic quadratic (2 divides the leading coefficient) and a quartic
    (["stats", "--poly=-7,0,2", "--xmax", "20000"], False),
    (["stats", "--poly", "1,0,-10,0,1", "--xmax", "20000"], False),
    (["ideals", "--poly", "1,0,1", "--nmax", "500"], False),
    # 13 (2^61 + 21)
    (["ideals", "--poly", "1,0,1", "--n", "29975959119778021649"], False),
    (["system", "--polys", "1,1,1;-1,-1,1", "--n", "31"], False),
    (["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "5000"], True),
    # x^2 + 3 has root sums exactly 0 at (h, n) = (1, 508), (-1, 508) and
    # (1, 652), where x^2 + x + 2 has roots: joint sums that are exact zeros
    (["system", "--polys", "3,0,1;2,1,1", "--xmax", "1000"], False),
    (["padic", "--poly", "1,0,1", "--base", "5", "--depth", "50"], False),
    (["padic", "--poly=-2,0,0,1", "--base", "5", "--depth", "3000"], False),
    (["padic", "--poly", "1,0,1", "--base", "65", "--depth", "400"], False),
    (["normality", "--poly", "1,0,1", "--base", "5", "--depth", "2000"], False),
    # base 2 under a monic quadratic with a unit discriminant
    (["padic", "--poly", "2,1,1", "--base", "2", "--depth", "300"], False),
    # 2^64 + 13, a prime base whose digits overflow int64
    (["padic", "--poly", "1,0,1", "--base", "18446744073709551629", "--depth", "6"], False),
    # deep enough that the phase walk runs over several chunks
    (["normality", "--poly", "1,0,1", "--base", "5", "--depth", "70000", "--max-m", "4"], False),
    # 2x^2 + 1 in base 33 = 3 * 11: a non-monic quadratic with four seeds
    (["padic", "--poly", "1,0,2", "--base", "33", "--depth", "400"], False),
    # a deep prime power: both roots of x^2 + 1 lifted straight to 5^600
    (["roots", "--poly", "1,0,1", "--n", str(5**600)], False),
    # joint sums over list windows on both sides of isqrt(2^63 - 1) =
    # 3037000499, where the last two moduli have 4 x 4 and 2 x 2 root tuples
    (["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "10000000000000",
      "--filter", "list:7,13,91,3036998521,3037000501,4000000000069", "--hset", "1,1;2,-3;5,7"], False),
    # 2^40 7^3 13^2 17, past every table: the 5 roots of x^3 - x - 8 mod 2^40
    # (a singular lift) glued by the CRT with three other prime powers
    (["roots", "--poly=-8,-1,0,1", "--n", "1083501638963953664"], False),
]


# Larger CLI runs whose stdout cli_md5.json pins by md5.  The ideals runs
# read every n <= 20000 off the modulus table (2 divides the leading
# coefficient of 2x^2 - 7); the weyl run sums phases over seven decade
# checkpoints and the system run over a pair to 1e5.  The squarefree weyl
# run under inv:3 takes the squarefree and coprime window steps to 1e6, and
# the ideals run of x^2 - 2^9 3^5 5^3 keeps only the n prime to 30.  The
# last two ideals runs are a cubic (x^3 - 2, n prime to 6) and x^2 + 1 to
# 2e5, which reads 60 table windows against 16 for the runs to 20000.  The
# stats runs count roots mod every prime: x^3 - 2 to 1e6 over many lane
# chunks, the cyclic cubic x^3 - 3x + 1 (discriminant 81, a square, and 3
# divides it) and the non-monic 5x^3 - 3x - 1.
CLI_MD5_COMMANDS = [
    ["ideals", "--poly", "1,0,1", "--nmax", "20000"],
    ["ideals", "--poly=-7,0,2", "--nmax", "20000"],
    ["weyl", "--poly", "1,0,1", "--xmax", "1000000"],
    ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100000"],
    ["weyl", "--poly", "1,0,1", "--xmax", "1000000", "--h", "inv:3", "--filter", "squarefree"],
    ["ideals", "--poly=-15552000,0,1", "--nmax", "20000"],
    ["ideals", "--poly=-2,0,0,1", "--nmax", "20000"],
    ["ideals", "--poly", "1,0,1", "--nmax", "200000"],
    ["stats", "--poly=-2,0,0,1", "--xmax", "1000000"],
    ["stats", "--poly", "1,-3,0,1", "--xmax", "200000"],
    ["stats", "--poly=-1,-3,0,5", "--xmax", "200000"],
    # digit walks: base 2 spans three walk chunks, base 65 has four towers
    ["normality", "--poly", "2,1,1", "--base", "2", "--depth", "40000", "--max-m", "3"],
    ["normality", "--poly", "1,0,1", "--base", "65", "--depth", "20000", "--max-m", "1"],
    # the four towers of the non-monic 2x^2 + 1 in base 33
    ["normality", "--poly", "1,0,2", "--base", "33", "--depth", "20000", "--max-m", "1"],
    # non-monic partners whose shift -c1/c2 has a repeating block: 3x^2 + x + 2
    # in base 2 (-1/3 = ...0101) and -3x^2 + x + 1 in base 391 = 17 * 23
    ["normality", "--poly", "2,1,3", "--base", "2", "--depth", "40000", "--max-m", "3"],
    ["normality", "--poly", "1,1,-3", "--base", "391", "--depth", "20000", "--max-m", "1"],
    # truncated word tables in a base past ten, where the top-20 tie-break
    # by word string ("10,..." before "2,...") is not the order of the codes
    ["normality", "--poly", "1,0,1", "--base", "13", "--depth", "30000", "--max-m", "4"],
    # towers in bases past 2^63: 2^64 + 13 and 2^64 + 81, a prime = 1 mod 12,
    # where the partners of x^2 + 1, -x^2 - x - 1 and 2x^2 + 1 are borrow
    # scans of the lifted rows in object arrays
    ["padic", "--poly", "1,0,1", "--base", "18446744073709551629", "--depth", "3000"],
    ["padic", "--poly=-1,-1,-1", "--base", "18446744073709551697", "--depth", "3000"],
    ["padic", "--poly", "1,0,2", "--base", "18446744073709551697", "--depth", "3000"],
]


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"rootdist {' '.join(argv)} exited {code}")
    return buf.getvalue()


def cli_md5_goldens():
    return [
        {"argv": argv, "md5": hashlib.md5(cli_stdout(argv).encode()).hexdigest()}
        for argv in CLI_MD5_COMMANDS
    ]


def cli_goldens():
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cloud = Path(tmp) / "cloud.csv"
        for argv, writes_cloud in CLI_COMMANDS:
            stdout = cli_stdout(argv + ["--cloud-out", str(cloud)] if writes_cloud else argv)
            entry = {"argv": argv, "stdout": stdout}
            if writes_cloud:
                entry["cloud_out"] = cloud.read_text()
            out.append(entry)
    return out


def weyl_goldens(f):
    out = {}
    for name, flt in FILTERS.items():
        t0 = time.time()
        series = rd.weyl_series(f, 1, 10**6, flt, CHECKPOINTS)
        d_low = rd.star_discrepancy(rd.ratio_points(f, 10**3, flt))
        d_high = rd.star_discrepancy(rd.ratio_points(f, 10**6, flt))
        out[name] = {
            "checkpoints": CHECKPOINTS,
            "W": [f"{w:.12g}" for w in series.weyl_statistic],
            "normalizer": series.normalizer,
            "star_discrepancy_1e3": f"{d_low:.12g}",
            "star_discrepancy_1e6": f"{d_high:.12g}",
        }
        print(f"  weyl[{name}]: {time.time() - t0:.1f}s W={out[name]['W']}")
    return out


def system_goldens():
    system = rd.PolySystem(
        (rd.parse_polynomial("1,1,1"), rd.parse_polynomial("-1,-1,1"))
    )
    cps = [10**3, 10**4, 10**5]
    series = rd.joint_weyl_series(system, 10**5, checkpoints=cps)
    return {
        "checkpoints": cps,
        "box_discrepancy": [f"{d:.12g}" for d in series.box_disc],
        "normalizer": series.normalizer,
        "W": {
            "_".join(map(str, h)): [f"{w:.12g}" for w in series.weyl_statistic(h)]
            for h in series.hset
        },
    }


def normality_goldens(f):
    evidence = rd.normality_evidence(f, 5, 10**4, 3)
    out = []
    for ev in evidence:
        out.append(
            {
                "seed_root": ev.seed_root,
                "max_deviation": {
                    str(r.word_length): f"{r.max_deviation:.12g}" for r in ev.reports
                },
                "chi_square": {
                    str(r.word_length): f"{r.chi_square:.12g}" for r in ev.reports
                },
                "weyl_trajectory": [
                    [lvl, f"{mag:.12g}"] for lvl, mag in ev.weyl_trajectory
                ],
            }
        )
    return out


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    f = rd.parse_polynomial("1,0,1")
    print("generating weyl goldens (three full streams to 1e6)...")
    payload = {
        "weyl": weyl_goldens(f),
        "system": system_goldens(),
        "normality": normality_goldens(f),
    }
    path = GOLDEN_DIR / "acceptance.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    path = GOLDEN_DIR / "cli.json"
    path.write_text(json.dumps(cli_goldens(), indent=2) + "\n")
    print(f"wrote {path}")
    path = GOLDEN_DIR / "cli_md5.json"
    path.write_text(json.dumps(cli_md5_goldens(), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
