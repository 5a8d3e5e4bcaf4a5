#!/usr/bin/env python3
"""The rootdist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the program in ``src/``
as it is, since there is nothing to build.  The metrics and their units are
the ones listed in ``BENCHMARK.json``; ``perfbench/README.md`` says what each
one means and which layer metric should move which end-to-end metric.

All load comes from one child process at a time, and no threads are started.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance, drawn inputs, every check, every timing) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

clock = time.perf_counter

# Every child must be done by then, so the run ends within 180 s.
RUN_DEADLINE_S = 170.0
# Worker workloads: fresh processes per untraced run, each doing set-up and
# then passes for an equal share of the measuring time.
WORKER_CHILDREN = 3
# Set-up is sampled in up to SETUP_SAMPLES fresh processes, as long as the
# extra samples fit in PROBE_BUDGET_S.
SETUP_SAMPLES = 9
PROBE_BUDGET_S = 2.5
TRACED_PASSES = 2


class ChildFailed(Exception):
    """A child missed the run deadline or could not report a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One thread per process: keep numpy's BLAS pool from starting.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, deadline: float, log: Path) -> dict:
    """Run one child to completion and return its exit code, stdout, wall
    time, peak RSS (from its own rusage) and the time at which it printed
    ``ready`` (if it did).  The child is killed if the deadline passes."""
    start = clock()
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
    chunks, ready_at = [], None
    fd = proc.stdout.fileno()
    try:
        while True:
            left = deadline - clock()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                raise ChildFailed(f"{cmd[1:3]} passed the run deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if ready_at is None and b"".join(chunks).startswith(b"ready\n"):
                ready_at = clock() - start
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": b"".join(chunks).decode(),
        "wall": clock() - start,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "ready_s": ready_at,
    }


# -- cold_cli -----------------------------------------------------------

def cold_jobs(inp: dict) -> list[tuple[str, list[str]]]:
    x = str(inp["xmax"])
    return [
        ("weyl", ["weyl", f"--poly={inputs.poly_text(inp['quadratic'])}", "--xmax", x]),
        ("stats", ["stats", f"--poly={inputs.poly_text(inp['cubic'])}", "--xmax", x]),
    ]


def run_cold(inp, args, env, deadline, out_dir, tag) -> dict:
    py, log = sys.executable, out_dir / f"{tag}.stderr"
    probes = [
        run_child([py, "-c", "import rootdist.cli"], env, deadline, log)["wall"]
        for _ in range(SETUP_SAMPLES)
    ]
    rounds, jobs = [], []

    def one_round(traced: bool) -> None:
        walls, rss, reduced, counts = [], [], [], {}
        for name, argv in cold_jobs(inp):
            if traced:
                spans_out = out_dir / f"{tag}.spans.{len(rounds)}.{name}.json"
                cmd = [py, str(HERE / "tracecli.py"), str(spans_out), f"{tag}/{len(rounds)}/{name}", "--", *argv]
            else:
                cmd = [py, "-m", "rootdist.cli", *argv]
            job = run_child(cmd, env, deadline, log)
            jobs.append({"name": name, "code": job["code"], "stdout": job["stdout"]})
            walls.append(job["wall"])
            rss.append(job["rss_mb"])
            if traced and job["code"] == 0:
                dump = json.loads(spans_out.read_text())
                reduced.append(dump["reduced"])
                _add_counts(counts, dump["counts"])
                _add_counts(counts, {"cli.output_bytes": len(job["stdout"].encode())})
        rounds.append({"traced": traced, "wall": sum(walls), "walls": walls, "rss_mb": max(rss),
                       "reduced": reduced, "counts": counts})

    t0 = clock()
    if args.trace:
        one_round(False)
        for _ in range(TRACED_PASSES):
            one_round(True)
    else:
        # At least two rounds, so that repeated jobs can be compared.
        while len(rounds) < 2 or (clock() - t0 < args.seconds and clock() + rounds[-1]["wall"] < deadline):
            one_round(False)
    return {"setup_probes": probes, "rounds": rounds, "jobs": jobs}


def cold_metrics(inp, raw, trace: bool) -> dict:
    if not trace:
        work = work_per_pass("cold_cli", inp)
        return {
            "setup_s": statistics.median(raw["setup_probes"]),
            "work_per_s": work * len(raw["rounds"]) / sum(r["wall"] for r in raw["rounds"]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in raw["rounds"]),
        }
    plain = [r for r in raw["rounds"] if not r["traced"]]
    traced = [r for r in raw["rounds"] if r["traced"]]
    per_round = []
    for r in traced:
        merged = _merge_reduced(r["reduced"], 1.0)
        merged["wall"] = r["wall"]
        merged["counts"] = r["counts"]
        per_round.append(merged)
    return _layer_metrics(per_round, statistics.mean(r["wall"] for r in plain))


# -- worker workloads ---------------------------------------------------

def run_workers(inp, args, env, deadline, out_dir, tag) -> dict:
    log = out_dir / f"{tag}.stderr"

    def worker(k: int, traced: bool, seconds: float, passes: int, max_passes: int) -> dict:
        spec = {
            "workload": args.workload,
            "inputs": inp,
            "trace": traced,
            "run_id": f"{tag}/{k}",
            "seconds": seconds,
            "min_passes": passes,
            "max_passes": max_passes,
            "spans_out": str(out_dir / f"{tag}.spans.{k}.json"),
        }
        child = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], env, deadline, log)
        if child["code"] != 0 or child["ready_s"] is None:
            raise ChildFailed(f"worker {k} exited with {child['code']}; see {log}")
        result = json.loads(child["stdout"].splitlines()[-1])
        expected = Path("src", "rootdist", "__init__.py").resolve()
        if Path(result["rootdist"]).resolve() != expected:
            raise ChildFailed(f"worker imported {result['rootdist']}, not {expected}")
        result.update(traced=traced, setup_s=child["ready_s"], wall=child["wall"])
        return result

    if args.trace:
        children = [worker(k, k == 1, 0.0, TRACED_PASSES, TRACED_PASSES) for k in range(2)]
        probes = []
    else:
        share = args.seconds / WORKER_CHILDREN
        children = [worker(k, False, share, 1, 1000) for k in range(WORKER_CHILDREN)]
        # Set-up-only children add samples to the set-up median when set-up
        # is cheap; an expensive set-up is sampled by the measuring children.
        probes, spent = [], 0.0
        cost = max(c["setup_s"] for c in children)
        while len(children) + len(probes) < SETUP_SAMPLES and spent + cost <= PROBE_BUDGET_S:
            probe = worker(len(children) + len(probes), False, 0.0, 0, 0)
            probes.append(probe["setup_s"])
            spent += probe["wall"]
    return {
        "children": children,
        "setup_probes": probes,
        "passes": [p for c in children for p in c["passes"]],
        "summary": children[0]["summary"],
    }


def stream_moduli(workload: str, inp: dict) -> int:
    """Moduli that ``root_stream`` yields in one pass or round."""
    x = inp["xmax"]
    if workload == "cold_cli":
        return x  # the weyl job; stats walks the primes without a stream
    a, m = inp["progression"]
    inv_m = inp["inv_m"]
    return (
        3 * x  # weyl h=1, ratio_points, progression_root_sums with m = 1
        + sum(_squarefree_flags(x)[1:])
        + sum(1 for n in range(1, x + 1) if n % inv_m)  # inv:m visits n coprime to prime m
        + 2 * len(range(a % m, x + 1, m))  # weyl and sums on n = a mod m
    )


def _squarefree_flags(x: int) -> bytearray:
    flags = bytearray([1]) * (x + 1)
    for q in range(2, math.isqrt(x) + 1):
        flags[q * q :: q * q] = bytes(len(range(q * q, x + 1, q * q)))
    return flags


def work_per_pass(workload: str, inp: dict) -> int:
    """The work unit of ``work_per_s``: moduli visited by a cold_cli round or
    a warm_session pass, or digits made by a digit_tower pass."""
    if workload == "digit_tower":
        return len(checks.brute_roots(tuple(inp["quadratic"]), inp["base"])) * inp["depth"]
    primes = sum(checks.prime_flags(inp["xmax"]))
    if workload == "cold_cli":
        return stream_moduli(workload, inp) + primes
    bad = inputs.discriminant(inp["quadratic"])
    ideals = sum(1 for n in range(1, inp["ideals_nmax"] + 1) if math.gcd(n, bad) == 1)
    return stream_moduli(workload, inp) + primes + ideals + inp["pair_xmax"]


def worker_metrics(workload, inp, raw, trace: bool) -> dict:
    children = raw["children"]
    if not trace:
        work = work_per_pass(workload, inp)
        return {
            "setup_s": statistics.median([c["setup_s"] for c in children] + raw["setup_probes"]),
            "work_per_s": work * len(raw["passes"]) / sum(p["pass_s"] for p in raw["passes"]),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
    plain = next(c for c in children if not c["traced"])
    traced = next(c for c in children if c["traced"])

    def unit_wall(c):
        return c["setup_wall"] + statistics.mean(p["pass_s"] for p in c["passes"])

    counts = dict(traced["setup_counts"])
    _add_counts(counts, traced["passes"][0]["counts"])
    unit = dict(traced["reduced"], wall=unit_wall(traced), counts=counts)
    return _layer_metrics([unit], unit_wall(plain))


# -- per-layer metrics --------------------------------------------------

def _add_counts(into: dict, more: dict) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


def _merge_reduced(parts: list[dict], weight: float) -> dict:
    out = {"busy": {}, "layer_self": {}, "covered": 0.0}
    for part in parts:
        for key in ("busy", "layer_self"):
            _add_counts(out[key], {k: weight * v for k, v in part[key].items()})
        out["covered"] += weight * part["covered"]
    return out


def _layer_metrics(units: list[dict], plain_wall: float) -> dict:
    """Per-layer metrics of one traced unit (the mean over ``units``); a
    unit is set-up plus one pass, or one round of CLI jobs."""
    merged = _merge_reduced(units, 1.0 / len(units))
    wall = statistics.mean(u["wall"] for u in units)
    out = {f"{name}_s": t for name, t in merged["busy"].items()}
    out.update({f"{layer}.self_s": t for layer, t in merged["layer_self"].items()})
    out.update(units[0]["counts"])
    out["trace.coverage"] = merged["covered"] / wall
    out["trace.overhead_s"] = wall - plain_wall
    return out


def trace_checks(raw: dict, workload: str, inp: dict) -> list:
    """Traced counts must be equal in every traced pass or round, and the
    streams must visit the moduli that ``work_per_s`` counts."""
    if workload == "cold_cli":
        seen = [r["counts"] for r in raw["rounds"] if r["traced"]]
    else:
        seen = [p["counts"] for c in raw["children"] if c["traced"] for p in c["passes"]]
    out = [("trace.counts_repeat", all(s == seen[0] for s in seen), f"{len(seen)} traced passes")]
    if workload != "digit_tower":
        got, want = seen[0].get("roots.stream_moduli", 0), stream_moduli(workload, inp)
        out.append(("trace.stream_moduli", got == want, f"streams yielded {got}, work unit counts {want}"))
    return out


# -- provenance ---------------------------------------------------------

def provenance(args) -> dict:
    src = sorted(Path("src", "rootdist").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rootdist" / "__init__.py").is_file() or not (root / checks.GOLDENS).is_file():
        print("run.py: no rootdist source tree (src/rootdist) and goldens here; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = clock() + RUN_DEADLINE_S
    inp = inputs.draw(args.workload, args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for stale in out_dir.glob(f"{tag}.*"):
        stale.unlink()
    env = child_env(root)

    record = {"provenance": provenance(args), "inputs": inp}
    if args.workload == "cold_cli":
        raw = run_cold(inp, args, env, deadline, out_dir, tag)
        metrics = cold_metrics(inp, raw, args.trace)
        jobs = len(raw["jobs"])
    else:
        raw = run_workers(inp, args, env, deadline, out_dir, tag)
        metrics = worker_metrics(args.workload, inp, raw, args.trace)
        jobs = len(raw["children"])
    try:
        gate = checks.run_gate(args.workload, inp, raw, args.seed)
    except Exception:  # a malformed result fails the gate instead of the run
        traceback.print_exc()
        gate = [("gate.results_readable", False, "checking raised; traceback on stderr")]
    if args.trace:
        gate += trace_checks(raw, args.workload, inp)
    failed_checks = [c for c in gate if not c[1]]
    attempted = len(gate) + jobs
    failed = len(failed_checks) + sum(1 for j in raw.get("jobs", []) if j["code"] != 0)

    reported = {}
    for m in wanted:
        value = metrics.get(m["name"], 0 if m["unit"] == "count" else 0.0)
        reported[m["name"]] = {"value": value, "unit": m["unit"]}
    record.update(metrics=reported, checks=gate, raw={k: v for k, v in raw.items() if k != "summary"})
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"{tag}: inputs {json.dumps({k: v for k, v in inp.items() if k != 'sampled_moduli'})}")
    for name, m in reported.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {failed}/{attempted}")
    for name, _, detail in failed_checks:
        print(f"  FAILED {name}: {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
