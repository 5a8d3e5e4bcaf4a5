"""One library workload in one fresh process: set-up, then timed passes.

Started by ``run.py`` with a JSON spec as its only argument.  It prints
``ready`` as soon as set-up is done, so the parent can time set-up from
process start, then one JSON line with per-pass timings and the results of
the first pass.  Results go back to the parent for checking; this process
does no checking of its own.

With ``"trace": true`` the span recorder is installed before set-up, and set-up
and every pass are recorded under the root spans ``bench.setup`` and
``bench.pass``; the spans are written to ``spans_out``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import warnings

import spans

clock = time.perf_counter


def _weyl(series) -> dict:
    return {
        "checkpoints": series.checkpoints,
        "normalizer": series.normalizer,
        "W": [f"{w:.12g}" for w in series.weyl_statistic],
    }


# -- warm_session -------------------------------------------------------

def warm_setup(rd, inp: dict) -> dict:
    """Build the sieve and fill the per-prime root caches, so that every
    per-prime lookup in a pass is a cache hit."""
    from rootdist.modarith import cached_sieve

    xmax, pair_xmax = inp["xmax"], inp["pair_xmax"]
    f = rd.IntPolynomial(tuple(inp["quadratic"]))
    system = rd.PolySystem(tuple(rd.IntPolynomial(tuple(c)) for c in inp["pair"]))
    sieve = cached_sieve(xmax)
    for p in sieve.primes():
        e, pe = 1, p
        while pe <= xmax:
            rd.roots_mod_prime_power(f, p, e)
            if pe <= pair_xmax:
                for g in system.polys:
                    rd.roots_mod_prime_power(g, p, e)
            e, pe = e + 1, pe * p
    bad = f.eta * f.discriminant
    return {
        "f": f,
        "system": system,
        "sieve": sieve,
        "admissible": [n for n in range(1, inp["ideals_nmax"] + 1) if math.gcd(n, bad) == 1],
    }


def warm_pass(rd, inp: dict, st: dict):
    f, sieve, xmax = st["f"], st["sieve"], inp["xmax"]
    a, m = inp["progression"]
    out = {
        "weyl_all": rd.weyl_series(f, 1, xmax, sieve=sieve),
        "weyl_h0_squarefree": rd.weyl_series(
            f, inp["h0"], xmax, rd.ModulusFilter.squarefree(), sieve=sieve
        ),
        "weyl_inv": rd.weyl_series(f, rd.HSpec.inverse_of(inp["inv_m"]), xmax, sieve=sieve),
        "weyl_progression": rd.weyl_series(
            f, 1, xmax, rd.ModulusFilter.progression(a, m), sieve=sieve
        ),
    }
    points = rd.ratio_points(f, xmax, sieve=sieve)
    out["points"] = len(points)
    out["star"] = rd.star_discrepancy(points)
    out["sums_all"] = rd.progression_root_sums(f, 1, 1, xmax, sieve=sieve)
    out["sums_progression"] = rd.progression_root_sums(f, a, m, xmax, sieve=sieve)
    out["prime_stats"] = rd.prime_stats(f, xmax, sieve=sieve)
    out["ideals"] = {n: rd.enumerate_degree_one(f, n, sieve) for n in st["admissible"]}
    out["joint"] = rd.joint_weyl_series(st["system"], inp["pair_xmax"], sieve=sieve)
    return out


def warm_summary(inp: dict, out: dict) -> dict:
    joint = out["joint"]
    ideals = out["ideals"]
    return {
        "weyl": {k: _weyl(out[k]) for k in ("weyl_all", "weyl_h0_squarefree", "weyl_inv", "weyl_progression")},
        "points": out["points"],
        "star": f"{out['star']:.12g}",
        "sums_all": out["sums_all"].sums,
        "sums_progression": out["sums_progression"].sums,
        "sums_checkpoints": out["sums_all"].checkpoints,
        "prime_stats": [[row[0], row[1], row[3]] for row in out["prime_stats"].rows],
        "ideal_count": sum(len(v) for v in ideals.values()),
        "sampled_ideals": {
            str(n): [[list(c) for c in ideal.components] for ideal in ideals[n]]
            for n in inp["sampled_moduli"]
        },
        "joint": {
            "checkpoints": joint.checkpoints,
            "normalizer": joint.normalizer,
            "box_discrepancy": [f"{d:.12g}" for d in joint.box_disc],
            "W": {"_".join(map(str, h)): [f"{w:.12g}" for w in joint.weyl_statistic(h)] for h in joint.hset},
        },
    }


# -- digit_tower --------------------------------------------------------

def tower_setup(rd, inp: dict) -> dict:
    import rootdist.nadic as nadic

    # normality_evidence does not return the digits, so keep what
    # nadic_expansions hands it; the parent checks the towers.
    captured: list = []
    inner = nadic.nadic_expansions

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        captured.append(out)
        return out

    nadic.nadic_expansions = capture
    f = rd.IntPolynomial(tuple(inp["quadratic"]))
    # The seed roots mod the base, so that every pass does the same work.
    rd.roots_mod_n(f, inp["base"])
    return {"f": f, "captured": captured}


def tower_pass(rd, inp: dict, st: dict):
    st["captured"].clear()
    with warnings.catch_warnings():
        # depth < 100 * base^m is expected here; the warning is not a failure.
        warnings.simplefilter("ignore", UserWarning)
        evidence = rd.normality_evidence(st["f"], inp["base"], inp["depth"], inp["max_word"])
    haar = rd.haar_monte_carlo(
        inp["base"], inp["haar_levels"], inp["haar_samples"], seed=inp["haar_seed"]
    )
    return {"evidence": evidence, "haar": haar, "expansions": st["captured"][0]}


def tower_summary(inp: dict, out: dict) -> dict:
    return {
        "digits": [list(exp.digits) for exp in out["expansions"]],
        "evidence": [
            {
                "seed_root": ev.seed_root,
                "max_deviation": {str(r.word_length): f"{r.max_deviation:.12g}" for r in ev.reports},
                "chi_square": {str(r.word_length): f"{r.chi_square:.12g}" for r in ev.reports},
                "counts": {str(r.word_length): [c for _, c in r.counts] for r in ev.reports},
                "weyl_trajectory": [[lvl, f"{mag:.12g}"] for lvl, mag in ev.weyl_trajectory],
            }
            for ev in out["evidence"]
        ],
        "haar": list(out["haar"]),
    }


BODIES = {
    "warm_session": (warm_setup, warm_pass, warm_summary),
    "digit_tower": (tower_setup, tower_pass, tower_summary),
}


def _take_counts(rec: spans.Recorder, seen: dict) -> dict:
    """The counts since the last call, root-cache hits and misses included;
    ``seen`` keeps the cache totals of the last call."""
    now = spans.roots_cache_counts()
    counts = dict(rec.counts)
    counts.update({k: v - seen.get(k, 0) for k, v in now.items()})
    seen.update(now)
    rec.counts.clear()
    return counts


def main() -> None:
    spec = json.loads(sys.argv[1])
    setup, run_pass, summarize = BODIES[spec["workload"]]
    inp = spec["inputs"]
    rec = spans.Recorder(spec["run_id"]) if spec["trace"] else None

    import rootdist as rd

    result = {"rootdist": rd.__file__}
    seen = {}
    if rec is not None:
        spans.install(rec)
    t0 = clock()
    st = rec.call("bench.setup", setup, rd, inp) if rec else setup(rd, inp)
    result["setup_wall"] = clock() - t0
    if rec is not None:
        result["setup_counts"] = _take_counts(rec, seen)
    print("ready", flush=True)

    # Passes run until the measuring share is used up; a pass is never cut.
    passes, deadline = [], clock() + spec["seconds"]
    while len(passes) < spec["min_passes"] or (clock() < deadline and len(passes) < spec["max_passes"]):
        t0 = clock()
        out = rec.call("bench.pass", run_pass, rd, inp, st) if rec else run_pass(rd, inp, st)
        elapsed = clock() - t0
        text = json.dumps(summarize(inp, out), sort_keys=True)
        passes.append({"pass_s": elapsed, "digest": hashlib.sha256(text.encode()).hexdigest()})
        if "summary" not in result:
            result["summary"] = json.loads(text)
            # Peak RSS through set-up and one pass: later passes repeat the
            # same work, and how many run depends on the machine's speed.
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            passes[-1]["counts"] = _take_counts(rec, seen)
    result["passes"] = passes
    if rec is not None:
        payload = rec.dump()
        payload["reduced"] = rec.reduce({"bench.setup": 1.0, "bench.pass": 1.0 / len(passes)})
        spans.write_json(spec["spans_out"], payload)
        result["reduced"] = payload["reduced"]
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
