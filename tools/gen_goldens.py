#!/usr/bin/env python3
"""Regenerate the regression goldens under tests/goldens/.

Run from the repository root after an intentional behavior change:

    python tools/gen_goldens.py

Values are deterministic (fixed seeds, pinned accumulation order), so a
regeneration on unchanged code reproduces the committed files byte for byte.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rootdist as rd

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"

CHECKPOINTS = [10**3, 10**4, 10**5, 10**6]
FILTERS = {
    "all": None,
    "squarefree": rd.ModulusFilter.squarefree(),
    "progression_1_4": rd.ModulusFilter.progression(1, 4),
}


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


if __name__ == "__main__":
    main()
