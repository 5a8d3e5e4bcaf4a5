import hashlib
import json
import os
import stat
import time
from pathlib import Path

import pytest

from rootdist.cli import main
from rootdist.errors import ResourceLimitError
from rootdist.roots import clear_caches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_goldens_replay_byte_identically(tmp_path, capsys):
    """The stdout (and tuple cloud) of the runs in goldens/cli.json, which
    tools/gen_goldens.py writes."""
    cases = json.loads((Path(__file__).parent / "goldens" / "cli.json").read_text())
    cloud = tmp_path / "cloud.csv"
    for case in cases:
        argv = case["argv"] + (["--cloud-out", str(cloud)] if "cloud_out" in case else [])
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, case["stdout"]), case["argv"]
        if "cloud_out" in case:
            assert cloud.read_text() == case["cloud_out"]


def test_cli_md5_goldens(capsys):
    """The stdout md5 of the larger runs in goldens/cli_md5.json, which
    tools/gen_goldens.py writes."""
    cases = json.loads((Path(__file__).parent / "goldens" / "cli_md5.json").read_text())
    assert cases
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, hashlib.md5(out.encode()).hexdigest()) == (0, case["md5"]), case["argv"]


@pytest.mark.parametrize("poly", ["1,0,1", "-2,0,0,1"])
def test_psi_12_is_a_composite_cofactor(poly, capsys):
    # 399165290221 * 798330580441: both factors are past trial division
    code, out, err = run_cli(capsys, "roots", f"--poly={poly}", "--n", "318665857834031151167461")
    assert code == 3 and out == ""
    assert "composite cofactor 318665857834031151167461" in err and "beyond factoring capability" in err


def test_roots_single_n(capsys):
    code, out, err = run_cli(capsys, "roots", "--poly", "1,0,1", "--n", "65")
    assert code == 0 and out == "65: 8 18 47 57\n"


def test_negative_leading_coefficient_after_poly_flag(capsys):
    spaced = run_cli(capsys, "stats", "--poly", "-2,0,0,1", "--xmax", "1000")
    glued = run_cli(capsys, "stats", "--poly=-2,0,0,1", "--xmax", "1000")
    assert spaced[0] == 0 and spaced == glued
    code, out, _ = run_cli(capsys, "system", "--polys", "-1,-1,1;1,1,1", "--n", "31")
    assert code == 0 and out == "31: 13,5 13,25 19,5 19,25\n"


def test_negative_leading_value_after_hset_and_progression_flags(capsys):
    for cmd, flag, value in (
        (["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100"], "--hset", "-1,1;1,1"),
        (["stats", "--poly", "1,0,1", "--xmax", "100"], "--progression", "-1,4"),
    ):
        spaced = run_cli(capsys, *cmd, flag, value)
        glued = run_cli(capsys, *cmd, f"{flag}={value}")
        assert spaced[0] == 0 and spaced == glued, flag


def test_roots_mod_one(capsys):
    code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,1", "--n", "1")
    assert code == 0 and out == "1: 0\n"


def test_roots_rejects_low_degree(capsys):
    code, out, err = run_cli(capsys, "roots", "--poly", "1,1", "--n", "5")
    assert code == 2 and out == "" and "degree" in err


def test_roots_stream_with_filter(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--poly", "1,0,1", "--nmax", "10", "--filter", "progression:1,4"
    )
    assert code == 0
    assert out.splitlines() == ["1: 0", "5: 2 3", "9:"]


def test_roots_needs_exactly_one_target(capsys):
    code, _, err = run_cli(capsys, "roots", "--poly", "1,0,1")
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", "--poly", "1,0,1"],
        ["ideals", "--poly", "1,0,1", "--n", "5", "--nmax", "5"],
        ["system", "--polys", "1,1,1;-1,-1,1"],
        ["system", "--polys", "1,1,1;-1,-1,1", "--n", "31", "--xmax", "31"],
    ],
)
def test_ideals_and_system_need_exactly_one_target(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "exactly one" in err


def test_unsupported_input_exit_code(capsys):
    # base 2 divides the discriminant of x^2+1: admissibility failure is exit 3
    code, _, err = run_cli(capsys, "padic", "--poly", "1,0,1", "--base", "2", "--depth", "4")
    assert code == 3 and "not admissible" in err


def test_padic_depth_cap_exit_code(capsys):
    # the cap trips before any lifting, so this returns at once
    code, out, err = run_cli(
        capsys, "padic", "--poly", "1,0,1", "--base", "5", "--depth", "10000001"
    )
    assert code == 1 and out == "" and "cap" in err


@pytest.mark.parametrize(
    "base, depth, max_m, message",
    [
        ("13", "300000", "6", "word table would hold 4826809 entries"),
        ("5", "300000", "10000000", "word table would hold 9765625 entries"),
    ],
)
def test_normality_word_errors_exit_before_the_lift(base, depth, max_m, message, capsys, monkeypatch):
    import rootdist.nadic

    def lift(*args):
        raise AssertionError("lifted before the word checks")

    monkeypatch.setattr(rootdist.nadic, "nadic_expansions", lift)
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "normality", "--poly", "1,0,1", "--base", base, "--depth", depth, "--max-m", max_m
    )
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "base, depth, message",
    [("5", "0", "depth must be at least 1"), ("-5", "10", "base must be at least 2")],
)
def test_normality_base_and_depth_errors_exit_fast(base, depth, message, capsys):
    # the lift names these errors, so nothing before it may cost time that
    # grows with --max-m
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "normality", "--poly", "1,0,1", "--base", base, "--depth", depth,
        "--max-m", "10000000",
    )
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == "" and message in err


def test_weyl_normalizer_column(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,signed_re,signed_im,abs_sum,normalizer,W"
    assert lines[1].split(",")[4] == "6"


def test_weyl_checkpoint_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "weyl", "--poly", "1,0,1", "--xmax", "1000", "--h", "1",
        "--checkpoints", "10,100,1000",
    )
    assert code == 0 and len(out.splitlines()) == 4


def test_weyl_inverse_mode_filters_even(capsys):
    code, out, _ = run_cli(
        capsys,
        "weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "inv:2",
        "--filter", "coprime:2", "--checkpoints", "10",
    )
    assert code == 0
    # odd n <= 10 contribute rho: 1, 0, 2, 0, 0 -> normalizer 3
    assert out.splitlines()[1].split(",")[4] == "3"


def test_weyl_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "0", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["normalizer"] == "6"


def test_padic_digit_lines(capsys):
    code, out, _ = run_cli(capsys, "padic", "--poly", "1,0,1", "--base", "5", "--depth", "5")
    assert code == 0
    assert "2 1 2 1 3" in out.splitlines()


def test_stats_final_checkpoint(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--poly", "1,0,1", "--xmax", "100", "--checkpoints", "10,100"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("x,sum_rho_p")
    assert rows[-1].split(",")[1] == "23"


def test_stats_progression_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats", "--poly", "1,0,1", "--xmax", "10", "--progression", "1,4",
        "--checkpoints", "10",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "3"


def test_stats_closure_index_default_and_refusals(tmp_path, capsys):
    argv = ["stats", "--poly", "1,0,1", "--xmax", "100"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--closure-index", "1", "--format", "csv")[:2] == (0, out)
    code, out, err = run_cli(capsys, *argv, "--closure-index", "0")
    assert (code, out) == (2, "") and "closure index must be at least 1" in err
    # the progression table never reads the closure index; a --config value counts as given
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("closure-index=1\n")
    for extra in (["--closure-index", "3"], ["--closure-index", "0"], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, *argv, "--progression", "1,4", *extra)
        assert (code, out) == (2, "") and "--closure-index" in err, extra
    assert run_cli(capsys, *argv, "--progression", "1,4")[0] == 0


def test_stats_empty_progression_fails_to_parse(capsys):
    # an empty value is given, not absent: it must not fall back to the
    # prime-statistics table
    argv = ["stats", "--poly", "1,0,1", "--xmax", "100", "--progression", ""]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "cannot parse progression ''" in err


def test_system_hset_entries_must_parse_and_fit(capsys):
    argv = ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100"]
    for hset, message in (("1,x", "cannot parse hset entry"), ("1,0;1,0,1", "wrong dimension"),
                          ("1", "wrong dimension"), (";", "empty hset"), ("", "empty hset")):
        code, out, err = run_cli(capsys, *argv, "--hset", hset)
        assert (code, out) == (2, "") and message in err, hset


def test_ideals_json_lines(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--poly", "1,0,1", "--n", "65")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0])["norm"] == 65


def test_ideals_inadmissible_exit(capsys):
    code, _, err = run_cli(capsys, "ideals", "--poly", "1,0,1", "--n", "6")
    assert code == 3


def test_system_tuple_listing(capsys):
    code, out, _ = run_cli(
        capsys, "system", "--polys", "1,1,1;−1,−1,1", "--n", "31"
    )
    assert code == 0
    assert out == "31: 5,13 5,19 25,13 25,19\n"


def test_system_trend_and_cloud(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    code, out, _ = run_cli(
        capsys,
        "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100",
        "--checkpoints", "100", "--cloud-out", str(cloud),
    )
    assert code == 0
    assert out.splitlines()[0].endswith("box_discrepancy")
    body = cloud.read_text().splitlines()
    assert body[0] == "n,v1,v2"
    assert body[1] == "1,0,0"


def test_system_single_n_refuses_cloud_out(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    code, out, err = run_cli(
        capsys, "system", "--polys", "1,1,1;-1,-1,1", "--n", "13", "--cloud-out", str(cloud)
    )
    assert code == 2 and out == ""
    assert "--cloud-out needs --xmax" in err
    assert not list(tmp_path.iterdir())


def test_roots_single_n_refuses_filter(tmp_path, capsys):
    # the filter would reject 25; a --config value counts as given
    argv = ["roots", "--poly", "1,0,1", "--n", "25"]
    code, out, err = run_cli(capsys, *argv, "--filter", "squarefree")
    assert (code, out) == (2, "") and "--filter needs --nmax" in err
    cfg = tmp_path / "roots.cfg"
    cfg.write_text("filter=all\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "") and "--filter needs --nmax" in err
    assert run_cli(capsys, *argv)[:2] == (0, "25: 7 18\n")
    assert run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "25", "--config", str(cfg))[0] == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--hset", "1,0"), ("--grid", "7"), ("--filter", "squarefree"), ("--checkpoints", "5"),
     ("--format", "json")],
)
def test_system_single_n_refuses_ranged_flags(flag, value, tmp_path, capsys):
    argv = ["system", "--polys", "1,1,1;-1,-1,1", "--n", "13"]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (2, "") and f"{flag} needs --xmax" in err
    cfg = tmp_path / "system.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "") and f"{flag} needs --xmax" in err
    assert run_cli(capsys, *argv)[:2] == (0, "13:\n")


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, _, _ = run_cli(
        capsys,
        "weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "0",
        "--output", str(target),
    )
    assert code == 0
    assert target.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".rootdist-")]


def test_error_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code, _, _ = run_cli(
        capsys,
        "weyl", "--poly", "1,0,1", "--xmax", "10", "--h", "0",
        "--filter", "progression:2,4", "--output", str(target),
    )
    assert code == 2
    assert not target.exists()
    assert not list(tmp_path.iterdir())


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    for flag, argv in (
        ("--output", ["roots", "--poly", "1,0,1", "--n", "65"]),
        ("--cloud-out", ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "20"]),
    ):
        target = tmp_path / "missing" / "o.txt"
        code, out, err = run_cli(capsys, *argv, flag, str(target))
        assert code == 2 and out == ""
        assert err.startswith("rootdist: error: ") and f"cannot write {target}" in err
        assert ".rootdist-" not in err
        assert not list(tmp_path.iterdir())


def test_system_with_unwritable_output_leaves_no_cloud(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    target = tmp_path / "missing" / "o.csv"
    code, out, err = run_cli(
        capsys, "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "20",
        "--cloud-out", str(cloud), "--output", str(target),
    )
    assert code == 2 and out == "" and f"cannot write {target}" in err
    assert not list(tmp_path.iterdir())


def test_output_files_get_the_umask_mode(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(
            capsys, "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "20",
            "--cloud-out", str(tmp_path / "c.csv"), "--output", str(tmp_path / "o.csv"),
        )
    finally:
        os.umask(old)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "o.csv"]
    for path in tmp_path.iterdir():
        assert path.stat().st_mode & 0o777 == 0o644


def test_fifo_output_gets_the_run_and_stays_a_fifo(tmp_path, capsys):
    # the read end is open, nonblocking, before the run, so the run's plain open does not block
    fifo = tmp_path / "F"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "200000000", "--output", str(fifo))
        assert (code, out) == (1, "")  # refused at the sieve cap, after the output was staged
        assert os.read(fd, 1 << 16) == b""
        assert run_cli(capsys, "roots", "--poly", "1,0,1", "--n", "65", "--output", str(fifo)) == (0, "", "")
        assert os.read(fd, 1 << 16) == b"65: 8 18 47 57\n"
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_symlink_output_stays_a_link(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "L"
    link.symlink_to(real.name)
    code, _, _ = run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "200000000", "--output", str(link))
    assert code == 1 and real.read_text() == "old\n"
    assert run_cli(capsys, "roots", "--poly", "1,0,1", "--n", "65", "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    assert real.read_text() == "65: 8 18 47 57\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["L", "real.txt"]


@pytest.mark.parametrize("command", ["ideals", "system", "weyl"])
def test_deep_prime_power_runs_exit_0(command, capsys):
    # 5^600 lies far past any recursion limit of a level-by-level lift;
    # goldens/cli.json pins the roots run at 5^600
    n = str(5**600)
    argv = {
        "ideals": ["ideals", "--poly", "1,0,1", "--n", n],
        "system": ["system", "--polys", "1,1,1;-1,-1,1", "--n", n],
        "weyl": ["weyl", "--poly", "1,0,1", "--xmax", n, "--filter", f"list:{n}", "--checkpoints", n],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"xmax=\xff\n")
    code, out, err = run_cli(capsys, "weyl", "--poly", "1,0,1", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("rootdist: error: cannot read config file")
    assert list(tmp_path.iterdir()) == [cfg]


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "500", "--h", "1")
    _, second, _ = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "500", "--h", "1")
    assert first == second
    _, n1, _ = run_cli(
        capsys, "normality", "--poly", "1,0,1", "--base", "5", "--depth", "600", "--max-m", "1"
    )
    _, n2, _ = run_cli(
        capsys, "normality", "--poly", "1,0,1", "--base", "5", "--depth", "600", "--max-m", "1"
    )
    assert n1 == n2


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xmax=10\nh=0\n")
    code, out, _ = run_cli(
        capsys, "weyl", "--poly", "1,0,1", "--config", str(cfg)
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "6"
    # explicit flags beat the config file
    code, out, _ = run_cli(
        capsys, "weyl", "--poly", "1,0,1", "--config", str(cfg), "--xmax", "5"
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "5"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # help=1 would inject --help: usage on stdout and exit 0 with nothing computed
    for key in ("bogus", "help"):
        cfg.write_text(f"{key}=1\n")
        code, out, err = run_cli(
            capsys, "weyl", "--poly", "1,0,1", "--xmax", "10", "--config", str(cfg)
        )
        assert code == 2 and out == ""
        assert err.startswith("rootdist: error: ") and f"unknown config key '{key}'" in err


def test_seed_and_threads_flags_are_gone(capsys):
    for flag, value in (("--threads", "2"), ("--seed", "1")):
        with pytest.raises(SystemExit) as info:
            main(["roots", "--poly", "1,0,1", "--n", "5", flag, value])
        assert info.value.code == 2
    # --format belongs to the tabular subcommands only
    for argv in (
        ["roots", "--poly", "1,0,1", "--n", "5"],
        ["padic", "--poly", "1,0,1", "--base", "5", "--depth", "3"],
        ["normality", "--poly", "1,0,1", "--base", "5", "--depth", "3"],
        ["ideals", "--poly", "1,0,1", "--n", "5"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", "json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_oversized_sieve_exits_before_allocating(capsys):
    from rootdist import parse_polynomial
    from rootdist.roots import prime_table

    code, out, err = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "100000001")
    assert code == 1 and out == "" and "sieve limit" in err
    # the stream asked for its sieve before filling the prime table
    assert prime_table(parse_polynomial("1,0,1")).limit < 10**8


def test_oversized_prime_table_exits_before_allocating(capsys):
    from rootdist import parse_polynomial
    from rootdist.roots import prime_table

    code, out, err = run_cli(capsys, "stats", "--poly", "1,0,1", "--xmax", "100000001")
    assert code == 1 and out == "" and "prime table limit" in err
    assert prime_table(parse_polynomial("1,0,1")).limit < 10**8


def test_ideals_past_every_sieve_factor_n_once(monkeypatch, capsys):
    # 13 (2^61 + 21): the roots and the (p, e) parts come from one factorize
    import sys

    from rootdist import modarith

    calls = []
    original = modarith.factorize

    def counted(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("rootdist") and getattr(mod, "factorize", None) is original:
            monkeypatch.setattr(mod, "factorize", counted)
    argv = ["ideals", "--poly", "1,0,1", "--n", "29975959119778021649"]
    code, out, _ = run_cli(capsys, *argv)
    cases = json.loads((Path(__file__).parent / "goldens" / "cli.json").read_text())
    assert (code, out) == (0, next(c["stdout"] for c in cases if c["argv"] == argv))
    assert calls == [29975959119778021649]


def test_progression_modulus_past_int64(capsys):
    # 10^23: a window holds one n at most, and the table is indexed by int64
    m = "100000000000000000000000"
    code, out, _ = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "100", "--filter", f"progression:1,{m}")
    assert (code, out) == run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "100", "--filter", "list:1")[:2]
    assert code == 0 and out.count("\n") == 3
    code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "5", "--filter", f"progression:1,{m}")
    assert (code, out) == (0, "1: 0\n")
    code, out, _ = run_cli(capsys, "stats", "--poly", "1,0,1", "--xmax", "100", "--progression", f"1,{m}")
    assert code == 0 and out.splitlines()[1:] == ["10,1,4e+21", "100,1,4e+20"]


def test_bad_progression_reports_the_filter_error(capsys):
    code, out, err = run_cli(capsys, "stats", "--poly", "1,0,1", "--xmax", "100", "--progression", "2,4")
    assert code == 2 and out == "" and "progression filter needs gcd(a, m) = 1" in err
    code, _, err = run_cli(capsys, "stats", "--poly", "1,0,1", "--xmax", "100", "--progression", "1,0")
    assert code == 2 and "progression filter needs gcd(a, m) = 1" in err


@pytest.mark.parametrize("nmax", ["0", "-5"])
def test_ideals_nmax_below_one_exits_2(nmax, capsys):
    # the message names the flag that was typed, for ideals and roots alike
    for command in ("ideals", "roots"):
        code, out, err = run_cli(capsys, command, "--poly", "1,0,1", "--nmax", nmax)
        assert code == 2 and out == "" and "--nmax must be at least 1" in err


def test_checkpoints_below_xmax_stop_the_walk(capsys):
    # the walk reads only to the last checkpoint, so a bound past the sieve
    # cap fills nothing past 10
    from rootdist import parse_polynomial
    from rootdist.roots import prime_table

    code, out, err = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "100000001", "--checkpoints", "10")
    assert (code, out) == run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "10")[:2]
    assert code == 0 and err == "" and out.count("\n") == 2
    assert prime_table(parse_polynomial("1,0,1")).limit < 10**8


MINUS = "\u2212"
_PAIR = ["system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100"]
_X2P1 = ["--poly", "1,0,1", "--xmax", "100"]


@pytest.mark.parametrize(
    "argv, ok",
    [
        (["stats", *_X2P1, "--progression", "-1,4"], True),
        (["weyl", *_X2P1, "--h", "-3"], True),
        (["weyl", *_X2P1, "--h", "inv:-3"], False),
        ([*_PAIR, "--hset", "-1,1;1,-1"], True),
        (["weyl", *_X2P1, "--checkpoints", "10,-5,100"], False),
        (["weyl", *_X2P1, "--filter", "progression:-1,4"], True),
        (["roots", "--poly", "1,0,1", "--nmax", "30", "--filter", "list:5,-5,25"], True),
        (["roots", "--poly", "1,0,1", "--nmax", "30", "--filter", "coprime:-3"], False),
        (["roots", "--poly", "-8,0,1", "--n", "7"], True),
    ],
)
def test_every_integer_list_reads_a_unicode_minus(argv, ok, capsys):
    # the same bytes, and the same refusal where a value must be positive
    code, out, err = ascii_run = run_cli(capsys, *argv)
    assert (code, out != "") == ((0, True) if ok else (2, False))
    assert run_cli(capsys, *(a if a.startswith("--") else a.replace("-", MINUS) for a in argv)) == ascii_run


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", *_X2P1, "--progression", "1"], "cannot parse progression '1': expected 2 integers, got 1"),
        (["stats", *_X2P1, "--progression", "1,4,5"], "expected 2 integers, got 3"),
        (["stats", *_X2P1, "--progression", "1,"], "cannot parse progression '1,': empty entry"),
        (["weyl", *_X2P1, "--filter", "progression:1"],
         "cannot parse progression filter '1': expected 2 integers, got 1"),
        (["weyl", *_X2P1, "--filter", "progression:1,4,5"], "expected 2 integers, got 3"),
        (["weyl", *_X2P1, "--filter", "progression:,4"], "empty entry"),
        (["weyl", *_X2P1, "--filter", "list:1,,5"], "cannot parse list filter '1,,5': empty entry"),
        (["weyl", *_X2P1, "--filter", "coprime:"], "cannot parse coprime filter '': empty entry"),
        (["weyl", *_X2P1, "--filter", "coprime:3,5"], "expected 1 integer, got 2"),
        (["weyl", *_X2P1, "--h", ""], "cannot parse h spec '': empty entry"),
        (["weyl", *_X2P1, "--h", "1,2"], "cannot parse h spec '1,2': expected 1 integer, got 2"),
        (["weyl", *_X2P1, "--h", "inv:"], "cannot parse inverse-mode m '': empty entry"),
        (["weyl", *_X2P1, "--h", "inv:x"], "'x' is not an integer"),
        (["weyl", *_X2P1, "--checkpoints", "10,,100"], "cannot parse checkpoints '10,,100': empty entry"),
        (["weyl", *_X2P1, "--checkpoints", ""], "cannot parse checkpoints '': empty entry"),
        ([*_PAIR, "--checkpoints", "10,"], "empty entry"),
        ([*_PAIR, "--hset", "1,;0,1"], "cannot parse hset entry '1,': empty entry"),
        (["roots", "--poly", "1,,1", "--n", "5"], "cannot parse polynomial '1,,1': empty entry"),
        (["system", "--polys", "1,1,1;-1,,1", "--n", "5"], "cannot parse polynomial '-1,,1': empty entry"),
    ],
)
def test_integer_list_refusals_exit_2_in_plain_words(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    assert "unpack" not in err and "invalid literal" not in err


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# the h of the table\n   \nh = 0\n  # xmax=5\nxmax=10\n")
    assert run_cli(capsys, "weyl", "--poly", "1,0,1", "--config", str(cfg)) == run_cli(
        capsys, "weyl", "--poly", "1,0,1", "--h", "0", "--xmax", "10"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["weyl", "--poly", "1,0,1", "--config", "{cfg}"], "{cfg}:2: expected key=value, got 'xmax 10'"),
        (["--config={cfg}"], "--config requires a subcommand"),
        (["bogus", "--config", "{cfg}"], "unknown subcommand 'bogus'"),
        # the flag before the subcommand, in both spellings
        (["--config", "{cfg}", "weyl", "--poly", "1,0,1"], "--config goes after the subcommand"),
        (["--config={cfg}", "weyl", "--poly", "1,0,1"], "--config goes after the subcommand"),
    ],
)
def test_config_refusals_exit_2(argv, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h=0\nxmax 10\n" if "key=value" in message else "h=0\n")
    code, out, err = run_cli(capsys, *(a.format(cfg=cfg) for a in argv))
    assert (code, out) == (2, "") and message.format(cfg=cfg) in err


def test_library_warning_prints_one_line(capsys):
    # depth 2000 is below 100 * 5^2: normality warns that its word counts are sparse
    argv = ("normality", "--poly", "1,0,1", "--base", "5", "--depth", "2000", "--max-m", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] is None
    assert err == "rootdist: warning: depth 2000 is below 100 * base^2; word counts will be sparse\n"


def test_system_refuses_output_and_cloud_out_on_one_file(tmp_path, capsys, monkeypatch):
    # both temp files would be renamed onto the one path, the cloud last
    import rootdist.cli

    def series(*args, **kwargs):
        raise AssertionError("the series ran before the flags were checked")

    monkeypatch.setattr(rootdist.cli, "joint_weyl_series", series)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cloud-out={tmp_path / 'F'}\n")
    system = ("system", "--polys", "1,1,1;-1,-1,1", "--xmax", "100")
    for flags in (
        ("--output", "F", "--cloud-out", "F"),
        ("--output", "./F", "--cloud-out", str(tmp_path / "F")),
        ("--config", str(cfg), "--output", "F"),
    ):
        code, out, err = run_cli(capsys, *system, *flags)
        assert (code, out) == (2, ""), flags
        assert "--output and --cloud-out name the same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_normality_refuses_an_inadmissible_base_before_warning(capsys):
    # base 4 shares 2 with disc(x^2 + 1) = -4; depth 10 is below 100 * 4^2
    code, out, err = run_cli(capsys, "normality", "--poly", "1,0,1", "--base", "4", "--depth", "10")
    assert (code, out) == (3, "")
    assert err == "rootdist: error: modulus 4 is not admissible: offending primes [2]\n"


def test_ranged_roots_with_no_accepted_modulus_prints_nothing(capsys):
    assert run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "3", "--filter", "progression:5,7") == (0, "", "")
    code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,1", "--nmax", "12", "--filter", "progression:5,7")
    assert (code, out) == (0, "5: 2 3\n12:\n")


def test_failed_cloud_write_removes_the_staged_output(tmp_path, capsys):
    # the cloud is staged first, so the output is never staged
    cloud = tmp_path / "missing" / "c.csv"
    code, out, err = run_cli(
        capsys, "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "20",
        "--output", str(tmp_path / "OK"), "--cloud-out", str(cloud),
    )
    assert (code, out) == (2, "") and f"cannot write {cloud}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("target, reason", [("D", "Is a directory"), ("nodir/", "Not a directory")])
def test_output_that_cannot_be_a_file_leaves_no_cloud(target, reason, tmp_path, capsys, monkeypatch):
    # both names fail only at their rename, which ran after the cloud's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D").mkdir()
    code, out, err = run_cli(
        capsys, "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "20",
        "--cloud-out", "cloud.csv", "--output", target,
    )
    assert (code, out, err) == (2, "", f"rootdist: error: cannot write {target}: {reason}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["D"] and not list((tmp_path / "D").iterdir())


def test_broken_pipe_exits_1(capsys, monkeypatch):
    import sys

    def broken(text):
        raise BrokenPipeError

    monkeypatch.setattr(sys.stdout, "write", broken)
    assert main(["roots", "--poly", "1,0,1", "--n", "65"]) == 1


def test_system_refuses_an_empty_polynomial_list(capsys):
    for polys in (";", " ; "):
        code, out, err = run_cli(capsys, "system", "--polys", polys, "--n", "31")
        assert (code, out) == (2, "") and "empty polynomial list" in err


def test_ranged_run_refused_by_the_table_cap_prints_and_leaves_nothing(tmp_path, capsys, monkeypatch):
    # the outputs are staged before the stream fills the table; its refusal removes them
    from rootdist import roots as roots_module

    monkeypatch.setattr(roots_module, "_TABLE_ROOTS_MAX", 100)
    clear_caches()
    for argv in (["roots", "--poly", "1,0,1", "--nmax", "1000"], ["ideals", "--poly", "1,0,1", "--nmax", "1000"]):
        for extra in ([], ["--output", str(tmp_path / "o.txt")]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, out) == (1, "") and "pass the cap of 100" in err, (argv, extra)
            assert not list(tmp_path.iterdir())
    clear_caches()


def test_handler_failing_midway_prints_and_leaves_nothing(tmp_path, capsys, monkeypatch):
    import rootdist.cli

    staged_sizes = []

    def stream(f, nmax, flt):
        yield from ((n, (0,)) for n in range(1, 5001))  # about 30 kB: past the write buffer
        staged_sizes.append([p.stat().st_size for p in tmp_path.iterdir()])
        raise ResourceLimitError("stopped")

    def series(system, xmax, *args, cloud_sink=None):
        for n in range(1, 5001):
            cloud_sink(n, (0, 0))
        staged_sizes.append([p.stat().st_size for p in tmp_path.iterdir()])
        raise ResourceLimitError("stopped")

    monkeypatch.setattr(rootdist.cli, "root_stream", stream)
    monkeypatch.setattr(rootdist.cli, "joint_weyl_series", series)
    roots = ("roots", "--poly", "1,0,1", "--nmax", "5000")
    system = ("system", "--polys", "1,1,1;-1,-1,1", "--xmax", "5000", "--cloud-out", str(tmp_path / "c.csv"))
    for argv in (roots, (*roots, "--output", str(tmp_path / "o.txt")), system,
                 (*system, "--output", str(tmp_path / "o.csv"))):
        assert run_cli(capsys, *argv) == (1, "", "rootdist: error: stopped\n"), argv
        assert not list(tmp_path.iterdir())
    # stdout's temp file is anonymous; each file's temp held part of its text
    assert [len(s) for s in staged_sizes] == [0, 1, 1, 1] and all(s[0] > 0 for s in staged_sizes[1:])


def test_unwritable_stdout_temp_exits_2(capsys, monkeypatch):
    import tempfile

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    assert run_cli(capsys, "roots", "--poly", "1,0,1", "--n", "65") == (
        2, "", "rootdist: error: cannot write stdout: Permission denied\n"
    )


def test_broken_pipe_on_a_ranged_listing_exits_1(capsys, monkeypatch):
    import sys

    def broken(text):
        raise BrokenPipeError

    monkeypatch.setattr(sys.stdout, "write", broken)
    assert main(["roots", "--poly", "1,0,1", "--nmax", "20000"]) == 1
    assert main(["ideals", "--poly", "1,0,1", "--nmax", "20000"]) == 1


@pytest.mark.parametrize("flag", ["--output", "--cloud-out"])
def test_empty_output_path_is_refused_before_any_work(flag, tmp_path, capsys, monkeypatch):
    # given on the command line or by --config; nothing is computed or written
    import rootdist.cli

    def series(*args, **kwargs):
        raise AssertionError("the series ran before the path was checked")

    monkeypatch.setattr(rootdist.cli, "joint_weyl_series", series)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}=\n")
    system = ("system", "--polys", "1,1,1;-1,-1,1")
    for flags in (("--xmax", "20", flag, ""), ("--xmax", "20", "--config", str(cfg)), ("--n", "5", flag, "")):
        code, out, err = run_cli(capsys, *system, *flags)
        assert (code, out, err) == (2, "", f"rootdist: error: empty {flag} path\n"), flags
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cloud_with_no_tuples_is_its_header(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "system", "--polys", "1,1,1;-1,-1,1", "--xmax", "3",
                         "--filter", "progression:5,7", "--cloud-out", str(cloud))
    assert code == 0 and cloud.read_text() == "n,v1,v2\n"
