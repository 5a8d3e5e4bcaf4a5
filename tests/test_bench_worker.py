"""The benchmark worker calls rootdist with fixed conventions (``sieve=``
keywords, ``enumerate_degree_one(f, n, sieve)``, JSON-ready digits, counts
and seed roots); a src/ change that breaks one must fail here, not only in
the benchmark run.  The bodies run on shrunken seed-0 inputs."""

import importlib.util
import json
import sys
from pathlib import Path

import rootdist as rd
from rootdist import nadic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker(monkeypatch):
    monkeypatch.setitem(sys.modules, "spans", _load("spans", "spans.py"))  # worker.py imports it by name
    return _load("perfbench_inputs", "inputs.py"), _load("perfbench_worker", "worker.py")


def test_warm_session_bodies_run_and_summarize_to_json(monkeypatch):
    inputs, worker = _worker(monkeypatch)
    inp = inputs.draw("warm_session", 0) | {
        "xmax": 2000, "pair_xmax": 300, "ideals_nmax": 200, "sampled_moduli": [5, 13, 65]
    }
    st = worker.warm_setup(rd, inp)
    summary = json.loads(json.dumps(worker.warm_summary(inp, worker.warm_pass(rd, inp, st))))
    assert summary["weyl"]["weyl_all"]["checkpoints"][-1] == 2000
    assert summary["joint"]["checkpoints"][-1] == 300
    assert [len(summary["sampled_ideals"][n]) for n in ("5", "13", "65")] == [2, 2, 4]


def test_digit_tower_bodies_run_and_summarize_to_json(monkeypatch):
    inputs, worker = _worker(monkeypatch)
    # tower_setup replaces nadic.nadic_expansions by a capturing wrapper;
    # monkeypatch puts the original back afterwards
    monkeypatch.setattr(nadic, "nadic_expansions", nadic.nadic_expansions)
    inp = inputs.draw("digit_tower", 0) | {"depth": 300, "haar_levels": 20, "haar_samples": 3}
    st = worker.tower_setup(rd, inp)
    summary = json.loads(json.dumps(worker.tower_summary(inp, worker.tower_pass(rd, inp, st))))
    assert [len(digits) for digits in summary["digits"]] == [300, 300]
    assert all(type(d) is int for digits in summary["digits"] for d in digits)
    assert sorted(ev["seed_root"] for ev in summary["evidence"]) == [2, 3]
    assert [len(ev["counts"]["3"]) for ev in summary["evidence"]] == [125, 125]
    assert len(summary["haar"]) == 2  # the mean of |S|^2 and its standard error
