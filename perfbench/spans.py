"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces a module
function with a timing wrapper in every ``rootdist`` module that imported it,
so calls between modules are seen too.  Nothing in ``src/`` is changed.

A span has a name, start, end, parent and run id.  Calls that happen once per
modulus or per prime would make millions of spans, so repeated calls of one
name under one parent share a span: ``busy`` is the summed time inside the
calls and ``calls`` their number.  A span's self time is its busy time minus
the busy time of its children; children are entered and left while the
parent is on the stack, so they always lie inside the parent's busy time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

clock = time.perf_counter


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # Each span: [name, start, end, busy, calls, parent]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._shared: dict[tuple[int, str], int] = {}

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        key = (parent, name)
        idx = self._shared.get(key)
        if idx is None:
            idx = len(self.spans)
            self.spans.append([name, start, start, 0.0, 0, parent])
            self._shared[key] = idx
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        span[3] += end - start
        span[4] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        start = clock()
        idx = self._open(name, start)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, start, clock())

    def wrap(self, name: str, fn, count=None):
        """A timing wrapper; ``count(counts, result, args, kwargs)`` runs
        after the span closes, so its cost shows as overhead, not as layer
        time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            idx = self._open(name, start)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, start, clock())
            if count is not None:
                count(self.counts, out, args, kwargs)
            return out

        return wrapper

    def wrap_generator(self, name: str, fn, count_key: str):
        """Time only the work done inside each ``next()`` of a generator, and
        count the items it yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = clock()
                idx = self._open(name, start)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start, clock())
                self.counts[count_key] += 1
                yield item

        return wrapper

    def reduce(self, weights: dict[str, float]) -> dict:
        """Per-name busy time, per-layer self time, and the time covered by
        layer spans, over the trees under the named root spans.

        ``weights`` maps a root span name to the factor its tree counts with
        (1 / passes turns the trees of several passes into one pass).  Where
        a name nests inside itself (recursion) only the outermost span
        counts, so no time is counted twice.
        """
        own = self._self_times()
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s[5] < 0 else root[s[5]])
        busy: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        covered = 0.0
        for i, s in enumerate(self.spans):
            w = weights.get(self.spans[root[i]][0], 0.0)
            if s[5] < 0:
                continue
            if self.spans[s[5]][5] < 0:
                covered += w * s[3]
            layer = s[0].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + w * own[i]
            if self.spans[s[5]][0] != s[0]:
                busy[s[0]] = busy.get(s[0], 0.0) + w * s[3]
        return {"busy": busy, "layer_self": layer_self, "covered": covered}

    def _self_times(self) -> list[float]:
        own = [s[3] for s in self.spans]
        for s in self.spans:
            if s[5] >= 0:
                own[s[5]] -= s[3]
        return own

    def dump(self) -> dict:
        own = self._self_times()
        return {
            "run": self.run_id,
            "spans": [
                {
                    "name": s[0],
                    "start": s[1],
                    "end": s[2],
                    "busy": s[3],
                    "self": own[i],
                    "calls": s[4],
                    "parent": s[5],
                    "run": self.run_id,
                }
                for i, s in enumerate(self.spans)
            ],
        }


def roots_cache_counts() -> dict[str, int]:
    """Hits and misses of the per-prime and per-prime-power root caches."""
    from rootdist import roots

    infos = [roots._prime_roots_cached.cache_info(), roots._prime_power_roots_cached.cache_info()]
    return {
        "roots.cache_hits": sum(i.hits for i in infos),
        "roots.cache_misses": sum(i.misses for i in infos),
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


# -- the layer map ----------------------------------------------------

def _add(key):
    def count(counts, out, args, kwargs):
        counts[key] += 1

    return count


def _add_len(key):
    def count(counts, out, args, kwargs):
        counts[key] += len(out)

    return count


def _count_lift(counts, out, args, kwargs):
    f, p = args[0], args[1]
    counts["roots.lift_prime_powers"] += 1
    if (f.eta * f.discriminant) % p == 0:
        counts["roots.lift_ramified"] += 1


def _count_phase(counts, out, args, kwargs):
    roots = args[3] if len(args) > 3 else kwargs.get("roots")
    if roots is not None:
        counts["equidist.phase_terms"] += len(roots)


def _count_digits(counts, out, args, kwargs):
    counts["nadic.digits"] += sum(exp.depth for exp in out)


def _count_tuples(counts, out, args, kwargs):
    counts["systems.tuples"] += out.normalizer[-1] if out.normalizer else 0


# (module, attribute, span name, counter); "gen" marks a generator.
LAYER_MAP = [
    ("rootdist.modarith", "cached_sieve", "numcore.sieve", None),
    ("rootdist.modarith", "factorize", "numcore.factorize", _add("numcore.factorize_calls")),
    ("rootdist.fppoly", "powmod_unchecked", "numcore.powmod", None),
    ("rootdist.fppoly", "gcd_unchecked", "numcore.gcd", None),
    ("rootdist.roots", "_scan_roots", "roots.scan", _add("roots.scan_primes")),
    ("rootdist.roots", "_roots_mod_prime_large", "roots.gcd_split", _add("roots.gcd_primes")),
    ("rootdist.roots", "_split_into_roots", "roots.split", None),
    ("rootdist.roots", "_lift_all", "roots.lift", _count_lift),
    ("rootdist.roots", "roots_from_factorization", "roots.crt", _add_len("roots.roots_out")),
    ("rootdist.roots", "root_stream", "roots.stream", "gen"),
    ("rootdist.ideals", "enumerate_degree_one", "ideals.enumerate", _add_len("ideals.count")),
    ("rootdist.equidist", "root_exp_sum", "equidist.phase", _count_phase),
    ("rootdist.equidist", "weyl_series", "equidist.weyl", None),
    ("rootdist.equidist", "ratio_points", "equidist.points", None),
    ("rootdist.equidist", "star_discrepancy", "equidist.star", None),
    ("rootdist.equidist", "prime_stats", "equidist.prime_stats", None),
    ("rootdist.equidist", "progression_root_sums", "equidist.progression", None),
    ("rootdist.nadic", "nadic_expansions", "nadic.lift", _count_digits),
    ("rootdist.nadic", "word_frequencies", "nadic.words", None),
    ("rootdist.nadic", "prefix_weyl_sum", "nadic.prefix_weyl", None),
    ("rootdist.nadic", "haar_monte_carlo", "nadic.haar", None),
    ("rootdist.systems", "joint_weyl_series", "systems.joint", _count_tuples),
    ("rootdist.cli", "_rows_to_text", "cli.format", None),
]

# Report formatting that runs before ``_rows_to_text`` sees the rows.
CSV_METHODS = [
    ("rootdist.equidist", "WeylSeries", "csv_rows"),
    ("rootdist.equidist", "PrimeStats", "csv_rows"),
    ("rootdist.equidist", "ProgressionSums", "csv_rows"),
    ("rootdist.systems", "JointWeylSeries", "csv_rows"),
]


def install(rec: Recorder) -> None:
    """Wrap every function in LAYER_MAP wherever ``rootdist`` holds it."""
    mods = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rootdist" and m]
    for mod_name, attr, span, counter in LAYER_MAP:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        original = getattr(mod, attr)
        if counter == "gen":
            wrapper = rec.wrap_generator(span, original, "roots.stream_moduli")
        else:
            wrapper = rec.wrap(span, original, counter)
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
    for mod_name, cls_name, attr in CSV_METHODS:
        mod = sys.modules.get(mod_name)
        if mod is not None:
            cls = getattr(mod, cls_name)
            setattr(cls, attr, rec.wrap("cli.format", getattr(cls, attr)))
