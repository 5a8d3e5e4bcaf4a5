"""Command-line surface: one subcommand per module group.

Outputs are deterministic byte-for-byte, written through a
temp-file rename so failures never leave partial files.  Exit codes: 2 for
argument and parse problems, 3 for unsupported inputs, 1 for internal
limits or unexpected failures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from .equidist import (
    HSpec,
    decades,
    prime_stats,
    progression_root_sums,
    weyl_series,
)
from .errors import InvalidArgumentError, RootdistError
from .ideals import _ideals_of, enumerate_degree_one
from .intpoly import IntPolynomial, parse_polynomial
from .nadic import nadic_expansions, normality_evidence
from .modarith import cached_sieve, spf_parts
from .roots import ModulusFilter, root_stream, roots_mod_n
from .systems import PolySystem, default_hset, joint_weyl_series, root_tuples

# Flags whose value is a list of integers, which may start with a minus sign.
_INT_LIST_FLAGS = ("--poly", "--polys", "--hset", "--progression")
_NEGATIVE_LEAD = re.compile(r"-\s*\d")


def _read_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read config file {path}: {exc}") from None
    return values


def _emit(outputs: list[tuple[str, str | None]]) -> None:
    """Write fully-built texts, each to stdout (None) or to a file.  Each
    file goes to a temp file beside it, with the mode a plain open would
    give, and the temp files are renamed only once all are written."""
    os.umask(umask := os.umask(0))
    staged: list[tuple[str, str]] = []
    path = None
    try:
        for text, path in outputs:
            if path is not None:
                fd, tmp = tempfile.mkstemp(prefix=".rootdist-", dir=os.path.dirname(os.path.abspath(path)))
                staged.append((tmp, path))
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
                os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise
    sys.stdout.write("".join(text for text, path in outputs if path is None))


def _rows_to_text(rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    head, *body = rows
    return json.dumps([dict(zip(head, row)) for row in body], indent=2) + "\n"


def _parse_checkpoints(text: str, xmax: int) -> list[int]:
    if text == "decades":
        return decades(xmax)
    try:
        return [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse checkpoints {text!r}: {exc}") from None


def _parse_polys(text: str) -> list[IntPolynomial]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise InvalidArgumentError("empty polynomial list")
    return [parse_polynomial(c) for c in chunks]


def _parse_hset(text: str, r: int) -> list[tuple[int, ...]]:
    """Semicolon-separated integer vectors, e.g. "1,0;0,1;-1,1"."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vec = tuple(int(c) for c in chunk.split(","))
        except ValueError as exc:
            raise InvalidArgumentError(f"cannot parse hset entry {chunk!r}: {exc}") from None
        if len(vec) != r:
            raise InvalidArgumentError(f"hset entry {chunk!r} has wrong dimension")
        out.append(vec)
    if not out:
        raise InvalidArgumentError("empty hset")
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--config", help="key=value file supplying defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootdist",
        description="Roots of polynomial congruences and their distribution statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="list roots of f mod n (or all n up to a bound)")
    p_roots.add_argument("--poly", required=True, help="ascending coefficients, e.g. 1,0,1")
    p_roots.add_argument("--n", type=int)
    p_roots.add_argument("--nmax", type=int)
    p_roots.add_argument("--filter")
    _add_common(p_roots)

    p_weyl = sub.add_parser("weyl", help="checkpointed Weyl partial sums")
    p_weyl.add_argument("--poly", required=True)
    p_weyl.add_argument("--xmax", type=int, required=True)
    p_weyl.add_argument("--h", default="1", help="integer, or inv:M for inverse mode")
    p_weyl.add_argument("--filter", default="all")
    p_weyl.add_argument("--checkpoints", default="decades")
    _add_common(p_weyl)

    p_padic = sub.add_parser("padic", help="digit towers of roots in base n")
    p_padic.add_argument("--poly", required=True)
    p_padic.add_argument("--base", type=int, required=True)
    p_padic.add_argument("--depth", type=int, required=True)
    _add_common(p_padic)

    p_norm = sub.add_parser("normality", help="digit-word statistics (evidence only, no verdict)")
    p_norm.add_argument("--poly", required=True)
    p_norm.add_argument("--base", type=int, required=True)
    p_norm.add_argument("--depth", type=int, required=True)
    p_norm.add_argument("--max-m", type=int, default=2, dest="max_m")
    _add_common(p_norm)

    p_stats = sub.add_parser("stats", help="prime-counting statistics")
    p_stats.add_argument("--poly", required=True)
    p_stats.add_argument("--xmax", type=int, required=True)
    p_stats.add_argument("--checkpoints", default="decades")
    p_stats.add_argument("--closure-index", type=int, default=1, dest="closure_index")
    p_stats.add_argument(
        "--progression",
        help="a,m: sum root counts over n = a mod m instead of prime statistics",
    )
    _add_common(p_stats)

    p_ideals = sub.add_parser("ideals", help="degree-one ideals of norm n as JSON")
    p_ideals.add_argument("--poly", required=True)
    p_ideals.add_argument("--n", type=int)
    p_ideals.add_argument("--nmax", type=int)
    _add_common(p_ideals)

    p_system = sub.add_parser("system", help="simultaneous congruences for several polynomials")
    p_system.add_argument("--polys", required=True, help="semicolon-separated coefficient lists")
    p_system.add_argument("--n", type=int)
    p_system.add_argument("--xmax", type=int)
    p_system.add_argument("--hset", help="semicolon-separated frequency vectors")
    p_system.add_argument("--grid", type=int)
    p_system.add_argument("--filter")
    p_system.add_argument("--checkpoints")
    p_system.add_argument("--cloud-out", dest="cloud_out", help="dump tuple cloud CSV here")
    _add_common(p_system)

    for tabular in (p_weyl, p_stats, p_system):
        tabular.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _refuse_unread(args: argparse.Namespace, ranged: str, *flags: str) -> None:
    """Exit 2 on a flag given to a single-n run, which only ``ranged`` reads;
    a value from --config counts as given."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise InvalidArgumentError(f"{flag} needs {ranged}")


def _cmd_roots(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    lines = []
    if (args.n is None) == (args.nmax is None):
        raise InvalidArgumentError("exactly one of --n and --nmax is required")
    if args.n is not None:
        _refuse_unread(args, "--nmax", "--filter")
        stream = [(args.n, roots_mod_n(f, args.n))]
    else:
        flt = ModulusFilter.parse("all" if args.filter is None else args.filter)
        stream = root_stream(f, args.nmax, flt)
    for n, roots in stream:
        lines.append(f"{n}: {' '.join(str(v) for v in roots)}".rstrip())
    return "\n".join(lines) + "\n"


def _cmd_weyl(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    h = HSpec.parse(args.h)
    flt = ModulusFilter.parse(args.filter)
    cps = _parse_checkpoints(args.checkpoints, args.xmax)
    series = weyl_series(f, h, args.xmax, flt, cps)
    return _rows_to_text(series.csv_rows(), args.format)


def _cmd_padic(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    exps = nadic_expansions(f, args.base, args.depth)
    return "\n".join(exp.digit_line() for exp in exps) + "\n" if exps else ""


def _cmd_normality(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    evidence = normality_evidence(f, args.base, args.depth, args.max_m)
    payload = []
    for ev in evidence:
        payload.append(
            {
                "seed_root": ev.seed_root,
                "reports": [
                    r.to_jsonable(top=None if r.word_length <= 3 else 20)
                    for r in ev.reports
                ],
                "weyl_trajectory": [
                    {"levels": lvl, "magnitude": mag} for lvl, mag in ev.weyl_trajectory
                ],
            }
        )
    return json.dumps({"evidence": payload, "verdict": None}, indent=2) + "\n"


def _cmd_stats(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    cps = _parse_checkpoints(args.checkpoints, args.xmax)
    if args.progression:
        try:
            a_txt, m_txt = args.progression.split(",")
            a, m = int(a_txt), int(m_txt)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"cannot parse progression {args.progression!r}: {exc}"
            ) from None
        sums = progression_root_sums(f, a, m, args.xmax, cps)
        return _rows_to_text(sums.csv_rows(), args.format)
    stats = prime_stats(f, args.xmax, cps, args.closure_index)
    return _rows_to_text(stats.csv_rows(), args.format)


def _cmd_ideals(args: argparse.Namespace) -> str:
    f = parse_polynomial(args.poly)
    if (args.n is None) == (args.nmax is None):
        raise InvalidArgumentError("exactly one of --n and --nmax is required")
    if args.n is not None:
        rows = [enumerate_degree_one(f, args.n)]
    else:
        stream = root_stream(f, args.nmax, ModulusFilter.coprime(abs(f.eta * f.discriminant)))
        sieve = cached_sieve(args.nmax)  # the sieve the stream's table fill reads
        rows = (_ideals_of(roots, spf_parts(n, sieve)) for n, roots in stream if roots)
    return "".join(ideal.to_json() + "\n" for row in rows for ideal in row)


def _cmd_system(args: argparse.Namespace) -> str | list[tuple[str, str | None]]:
    system = PolySystem(tuple(_parse_polys(args.polys)))
    if (args.n is None) == (args.xmax is None):
        raise InvalidArgumentError("exactly one of --n and --xmax is required")
    if args.n is not None:
        _refuse_unread(args, "--xmax", "--hset", "--grid", "--filter", "--checkpoints", "--cloud-out")
        body = " ".join(",".join(str(v) for v in tup) for tup in root_tuples(system, args.n))
        return f"{args.n}: {body}".rstrip() + "\n"
    hset = (
        _parse_hset(args.hset, system.dimension)
        if args.hset
        else default_hset(system.dimension)
    )
    flt = ModulusFilter.parse("all" if args.filter is None else args.filter)
    cps = _parse_checkpoints("decades" if args.checkpoints is None else args.checkpoints, args.xmax)
    cloud_rows: list[str] | None = [] if args.cloud_out else None

    def sink(n, tup):
        cloud_rows.append(f"{n}," + ",".join(str(v) for v in tup))

    series = joint_weyl_series(
        system,
        args.xmax,
        hset,
        cps,
        args.grid,
        flt,
        cloud_sink=sink if cloud_rows is not None else None,
    )
    text = _rows_to_text(series.csv_rows(), args.format)
    if cloud_rows is None:
        return text
    head = "n," + ",".join(f"v{i + 1}" for i in range(system.dimension))
    return [(text, args.output), (head + "\n" + "\n".join(cloud_rows) + "\n", args.cloud_out)]


# A handler returns its text, or the (text, path) pairs to write (None: stdout).
_HANDLERS = {
    "roots": _cmd_roots,
    "weyl": _cmd_weyl,
    "padic": _cmd_padic,
    "normality": _cmd_normality,
    "stats": _cmd_stats,
    "ideals": _cmd_ideals,
    "system": _cmd_system,
}


def _apply_config(argv: list[str], parser: argparse.ArgumentParser, path: str) -> list[str]:
    """Inject config key=value pairs as flags right after the subcommand.

    Flags typed on the command line come later in argv and therefore win.
    """
    raw = _read_config_file(path)
    cmd_pos = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if cmd_pos is None:
        raise InvalidArgumentError("--config requires a subcommand")
    sub_action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    sp = sub_action.choices.get(argv[cmd_pos])
    if sp is None:
        raise InvalidArgumentError(f"unknown subcommand {argv[cmd_pos]!r}")
    option_by_dest = {
        action.dest: action.option_strings[-1]
        for action in sp._actions
        if action.option_strings
    }
    inject: list[str] = []
    for key, value in raw.items():
        if key in ("config", "help") or key not in option_by_dest:
            raise InvalidArgumentError(f"unknown config key {key!r}")
        inject += [option_by_dest[key], value]
    return argv[: cmd_pos + 1] + inject + argv[cmd_pos + 1 :]


def _glue_int_list_values(argv: list[str]) -> list[str]:
    """Spell ``--poly -2,0,0,1`` as ``--poly=-2,0,0,1`` for every flag in
    _INT_LIST_FLAGS: argparse reads a token that starts with '-' and is not
    a plain negative number as a flag, which would leave the flag without
    its value."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _INT_LIST_FLAGS and i + 1 < len(argv) and _NEGATIVE_LEAD.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre_args, _ = pre.parse_known_args(argv)
    try:
        if pre_args.config:
            argv = _apply_config(argv, parser, pre_args.config)
        args = parser.parse_args(_glue_int_list_values(argv))
        out = _HANDLERS[args.command](args)
        _emit(out if isinstance(out, list) else [(out, args.output)])
    except RootdistError as exc:
        print(f"rootdist: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
