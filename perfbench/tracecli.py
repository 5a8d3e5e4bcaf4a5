"""Run one ``rootdist`` CLI job in this fresh process with spans recorded.

    python perfbench/tracecli.py SPANS_OUT RUN_ID -- CLI_ARGS...

The job's output goes to stdout exactly as from ``python -m rootdist.cli``.
The span dump, the per-layer reduction and the counts are written to
SPANS_OUT; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import sys

import spans


def main() -> int:
    spans_out, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_OUT RUN_ID -- CLI_ARGS...")
    rec = spans.Recorder(run_id)

    def job():
        cli = rec.call("cli.import", importlib.import_module, "rootdist.cli")
        spans.install(rec)
        return rec.call("cli.main", cli.main, argv)

    code = rec.call("bench.job", job)
    sys.stdout.flush()
    rec.counts.update(spans.roots_cache_counts())
    payload = rec.dump()
    payload["reduced"] = rec.reduce({"bench.job": 1.0})
    payload["counts"] = dict(rec.counts)
    spans.write_json(spans_out, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
