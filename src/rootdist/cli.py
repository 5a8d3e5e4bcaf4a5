"""Command-line surface: one subcommand per module group.

Outputs are deterministic byte-for-byte and staged in temp files, stdout
too, so a failed run leaves no file and prints nothing.  Exit codes: 2 for
argument and parse problems, 3 for unsupported inputs, 1 for internal
limits or unexpected failures.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import re
import shutil
import sys
import tempfile
import warnings

from .equidist import HSpec, prime_stats, progression_root_sums, weyl_series
from .errors import InvalidArgumentError, RootdistError
from .ideals import _ideals_of, enumerate_degree_one
from .intpoly import parse_ints, parse_polynomial
from .nadic import nadic_expansions, normality_evidence
from .modarith import cached_sieve, spf_parts
from .roots import ModulusFilter, root_stream, roots_mod_n
from .systems import PolySystem, joint_weyl_series, root_tuples

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


def _emit(handler, args: argparse.Namespace) -> None:
    """Run ``handler(args, output)``.  ``output(path)`` stages a text file: a temp file beside
    path's resolved target, with the mode a plain open would give, or an anonymous one for
    stdout (None) and for a target that exists but is no regular file (a FIFO, a device).
    Once the handler returns, temp files are renamed into place (a symlink stays a link), the
    rest written by a plain open and stdout copied out: a failed run writes and prints nothing."""
    os.umask(umask := os.umask(0))
    staged = []  # (path, the resolved target to rename onto or None, its staged file)
    path = None

    def output(target: str | None):
        nonlocal path
        path = target
        if target is not None and (os.path.isdir(target) or target.endswith(os.sep)):
            code = errno.EISDIR if os.path.isdir(target) else errno.ENOTDIR  # as the rename would fail
            raise OSError(code, os.strerror(code))
        real = None if target is None else os.path.realpath(target)
        if real is not None and (os.path.isfile(real) or not os.path.exists(real)):
            fh = tempfile.NamedTemporaryFile("w", encoding="utf-8", newline="\n", prefix=".rootdist-",
                                             dir=os.path.dirname(real), delete=False)
            os.chmod(fh.name, 0o666 & ~umask)
        else:
            real, fh = None, tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
        staged.append((target, real, fh))
        return fh

    try:
        handler(args, output)
        for path, real, fh in staged:
            fh.flush()
        for path, real, fh in staged:
            if real is not None:
                os.replace(fh.name, real)
        for path, real, fh in staged:
            if path is not None and real is None:
                fh.seek(0)
                with open(path, "w", encoding="utf-8", newline="\n") as out:
                    shutil.copyfileobj(fh, out)
    except BaseException as exc:
        for target, real, fh in staged:
            with contextlib.suppress(OSError):
                fh.close()
            if real is not None and os.path.exists(fh.name):
                os.unlink(fh.name)
        if isinstance(exc, OSError):
            where = "stdout" if path is None else path
            raise InvalidArgumentError(f"cannot write {where}: {exc.strerror or exc}") from None
        raise
    for target, real, fh in staged:
        with fh:
            if target is None:
                fh.seek(0)
                shutil.copyfileobj(fh, sys.stdout)


def _rows_to_text(rows: list[list[str]], fmt: str | None) -> str:
    if fmt != "json":  # csv, also when --format is not given
        return "\n".join(",".join(row) for row in rows) + "\n"
    head, *body = rows
    return json.dumps([dict(zip(head, row)) for row in body], indent=2) + "\n"


def _parse_checkpoints(text: str | None) -> tuple[int, ...] | None:
    """None, the library's decades, when the flag is absent or "decades"."""
    return None if text in (None, "decades") else parse_ints(text, "checkpoints")


def _parse_filter(text: str | None) -> ModulusFilter | None:
    return None if text is None else ModulusFilter.parse(text)


def _parse_semicolon_list(text: str, what: str, parse) -> list:
    """Semicolon-separated entries such as "1,0;0,1", blank ones skipped; exit 2 on none."""
    entries = [parse(chunk) for chunk in text.split(";") if chunk.strip()]
    if not entries:
        raise InvalidArgumentError(f"empty {what}")
    return entries


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
    p_weyl.add_argument("--filter")
    p_weyl.add_argument("--checkpoints")
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
    p_stats.add_argument("--checkpoints")
    p_stats.add_argument("--closure-index", type=int, dest="closure_index")
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
        tabular.add_argument("--format", choices=("csv", "json"))
    return parser


def _refuse_unread(args: argparse.Namespace, ranged: str, *flags: str) -> None:
    """Exit 2 on a flag given to a run that does not read it (only ``ranged``
    does); a value from --config counts as given."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise InvalidArgumentError(f"{flag} needs {ranged}")


def _single_n(args: argparse.Namespace, ranged: str, *unread: str) -> bool:
    """True for a --n run.  Exit 2 unless exactly one of --n and ``ranged`` is
    given, on a --n run if any of ``unread`` (read by ``ranged`` only) is, and
    on a ranged run below 1, naming ``ranged``."""
    if (args.n is None) == (getattr(args, ranged[2:]) is None):
        raise InvalidArgumentError(f"exactly one of --n and {ranged} is required")
    if args.n is not None:
        _refuse_unread(args, ranged, *unread)
    elif getattr(args, ranged[2:]) < 1:
        raise InvalidArgumentError(f"{ranged} must be at least 1")
    return args.n is not None


# A handler writes each output to the file ``output(path)`` stages (see _emit).
def _cmd_roots(args: argparse.Namespace, output) -> None:
    f = parse_polynomial(args.poly)
    if _single_n(args, "--nmax", "--filter"):
        stream = [(args.n, roots_mod_n(f, args.n))]
    else:
        stream = root_stream(f, args.nmax, _parse_filter(args.filter))
    output(args.output).writelines(f"{n}: {' '.join(map(str, roots))}".rstrip() + "\n" for n, roots in stream)


def _cmd_weyl(args: argparse.Namespace, output) -> None:
    f = parse_polynomial(args.poly)
    series = weyl_series(f, HSpec.parse(args.h), args.xmax, _parse_filter(args.filter),
                         _parse_checkpoints(args.checkpoints))
    output(args.output).write(_rows_to_text(series.csv_rows(), args.format))


def _cmd_padic(args: argparse.Namespace, output) -> None:
    exps = nadic_expansions(parse_polynomial(args.poly), args.base, args.depth)
    output(args.output).writelines(exp.digit_line() + "\n" for exp in exps)


def _cmd_normality(args: argparse.Namespace, output) -> None:
    evidence = normality_evidence(parse_polynomial(args.poly), args.base, args.depth, args.max_m)
    payload = [
        {
            "seed_root": ev.seed_root,
            "reports": [r.to_jsonable(top=None if r.word_length <= 3 else 20) for r in ev.reports],
            "weyl_trajectory": [{"levels": lvl, "magnitude": mag} for lvl, mag in ev.weyl_trajectory],
        }
        for ev in evidence
    ]
    output(args.output).write(json.dumps({"evidence": payload, "verdict": None}, indent=2) + "\n")


def _cmd_stats(args: argparse.Namespace, output) -> None:
    f = parse_polynomial(args.poly)
    cps = _parse_checkpoints(args.checkpoints)
    if args.progression is not None:
        _refuse_unread(args, "prime statistics, not --progression", "--closure-index")
        a, m = parse_ints(args.progression, "progression", 2)
        report = progression_root_sums(f, a, m, args.xmax, cps)
    else:
        report = prime_stats(f, args.xmax, cps, 1 if args.closure_index is None else args.closure_index)
    output(args.output).write(_rows_to_text(report.csv_rows(), args.format))


def _cmd_ideals(args: argparse.Namespace, output) -> None:
    f = parse_polynomial(args.poly)
    if _single_n(args, "--nmax"):
        rows = [enumerate_degree_one(f, args.n)]
    else:
        stream = root_stream(f, args.nmax, ModulusFilter.coprime(abs(f.eta * f.discriminant)))
        sieve = cached_sieve(args.nmax)  # the sieve the stream's table fill reads
        rows = (_ideals_of(roots, spf_parts(n, sieve)) for n, roots in stream if roots)
    output(args.output).writelines(ideal.to_json() + "\n" for row in rows for ideal in row)


def _cmd_system(args: argparse.Namespace, output) -> None:
    system = PolySystem(tuple(_parse_semicolon_list(args.polys, "polynomial list", parse_polynomial)))
    if _single_n(args, "--xmax", "--hset", "--grid", "--filter", "--checkpoints", "--cloud-out", "--format"):
        body = " ".join(",".join(str(v) for v in tup) for tup in root_tuples(system, args.n))
        output(args.output).write(f"{args.n}: {body}".rstrip() + "\n")
        return
    if None not in (args.cloud_out, args.output) and (
            os.path.realpath(args.cloud_out) == os.path.realpath(args.output)):
        raise InvalidArgumentError("--output and --cloud-out name the same file")

    def h_vector(chunk):
        vec = parse_ints(chunk := chunk.strip(), "hset entry")
        if len(vec) != system.dimension:
            raise InvalidArgumentError(f"hset entry {chunk!r} has wrong dimension")
        return vec

    hset = None if args.hset is None else _parse_semicolon_list(args.hset, "hset", h_vector)
    sink = None
    if args.cloud_out is not None:  # staged now, the output after the series: an OSError names its file
        cloud = output(args.cloud_out)
        cloud.write("n," + ",".join(f"v{i + 1}" for i in range(system.dimension)) + "\n")

        def sink(n, tup):
            cloud.write(f"{n}," + ",".join(str(v) for v in tup) + "\n")

    series = joint_weyl_series(system, args.xmax, hset, _parse_checkpoints(args.checkpoints), args.grid,
                               _parse_filter(args.filter), cloud_sink=sink)
    output(args.output).write(_rows_to_text(series.csv_rows(), args.format))


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
    cmd_pos = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if cmd_pos is None:
        raise InvalidArgumentError("--config requires a subcommand")
    if any(len(flag := tok.partition("=")[0]) > 2 and "--config".startswith(flag) for tok in argv[:cmd_pos]):
        raise InvalidArgumentError("--config goes after the subcommand: rootdist SUBCOMMAND --config FILE")
    raw = _read_config_file(path)
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
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"rootdist: warning: {message}", file=sys.stderr)
        try:
            if pre_args.config:
                argv = _apply_config(argv, parser, pre_args.config)
            args = parser.parse_args(_glue_int_list_values(argv))
            for flag in ("--output", "--cloud-out"):  # refused before any work, not at the rename
                if getattr(args, flag[2:].replace("-", "_"), None) == "":
                    raise InvalidArgumentError(f"empty {flag} path")
            _emit(_HANDLERS[args.command], args)
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
