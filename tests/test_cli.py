import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from rootdist.cli import main


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
    code, out, err = run_cli(capsys, "ideals", "--poly", "1,0,1", "--nmax", nmax)
    assert code == 2 and out == "" and "xmax must be at least 1" in err


def test_checkpoints_below_xmax_stop_the_walk(capsys):
    # the walk reads only to the last checkpoint, so a bound past the sieve
    # cap fills nothing past 10
    from rootdist import parse_polynomial
    from rootdist.roots import prime_table

    code, out, err = run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "100000001", "--checkpoints", "10")
    assert (code, out) == run_cli(capsys, "weyl", "--poly", "1,0,1", "--xmax", "10")[:2]
    assert code == 0 and err == "" and out.count("\n") == 2
    assert prime_table(parse_polynomial("1,0,1")).limit < 10**8
