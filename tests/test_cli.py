"""The command-line front end: configuration, report serialization,
determinism and exit codes."""

import json
from fractions import Fraction

import pytest

from siegelweil import cli, eisenstein, field, hermitian, localwhittaker
from siegelweil.cli import (
    ConfigError,
    Report,
    build_config,
    emit,
    main,
    parse_config_file,
    parse_report,
    parse_targets,
)
from siegelweil.field import Ideal


def _args(argv):
    return cli._build_parser().parse_args(argv)


def test_parse_targets():
    assert parse_targets("1..4") == (1, 2, 3, 4)
    assert parse_targets("-2..2") == (-2, -1, 1, 2)  # zero dropped
    assert parse_targets("3,5/2,-1") == (3, Fraction(5, 2), -1)
    with pytest.raises(ConfigError):
        parse_targets("5..1")
    with pytest.raises(ConfigError):
        parse_targets("1,0,2")
    with pytest.raises(ConfigError):
        parse_targets("pi")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "disc = -7\n"
        "alpha = 1..5   # trailing comment\n"
        "format = csv\n"
    )
    assert parse_config_file(cfg) == {"disc": "-7", "alpha": "1..5", "format": "csv"}

    cfg.write_text("discc = -7\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(cfg)

    cfg.write_text("disc = -7\ndisc = -4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(cfg)

    cfg.write_text("disc\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(cfg)


def test_flags_override_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("disc = -7\nalpha = 1..5\ntau = 2\n")
    config = build_config(_args(["verify", str(cfg), "--alpha", "1..2", "--disc", "-4"]))
    assert config.disc == -4
    assert config.alphas == (1, 2)
    assert config.tau == 2  # untouched file value survives


def test_config_validation():
    with pytest.raises(ConfigError, match="fundamental"):
        build_config(_args(["verify", "--disc", "-12"]))
    with pytest.raises(ConfigError, match="required"):
        build_config(_args(["verify"]))
    with pytest.raises(ConfigError, match="coherent"):
        build_config(_args(["verify", "--disc", "-4", "--xi", "1"]))
    with pytest.raises(ConfigError, match="positive"):
        build_config(_args(["siegel-weil", "--disc", "-4", "--alpha", "-3..3"]))
    with pytest.raises(ConfigError, match="tolerance"):
        build_config(_args(["verify", "--disc", "-4", "--tol", "-1"]))


# ---------------------------------------------------------------------------
# serialization

def _tiny_report():
    config = build_config(_args(["verify", "--disc", "-4", "--alpha", "1..3"]))
    return cli.run_verify(config)


def test_json_round_trip():
    report = _tiny_report()
    data = emit(report, "json")
    assert parse_report(data) == report
    assert emit(parse_report(data), "json") == data


def test_json_row_schema():
    report = _tiny_report()
    rows = json.loads(emit(report, "json"))["rows"]
    assert len(rows) == 3
    assert list(rows[0]) == list(cli.REPORT_COLUMNS)
    assert rows[0]["alpha"] == "1"
    assert rows[0]["diff"] == ["2"]
    assert rows[0]["lhs_logs"] == {"2": "2"}
    assert rows[0]["pass"] is True


def test_csv_shape():
    report = _tiny_report()
    lines = emit(report, "csv").decode().splitlines()
    assert lines[0] == ",".join(cli.REPORT_COLUMNS)
    assert len(lines) == 1 + len(report.rows)


def test_empty_report_keeps_the_header():
    empty = Report("verify", {}, cli.REPORT_COLUMNS, [],
                   {"total": 0, "passed": 0, "failed": 0})
    lines = emit(empty, "csv").decode().splitlines()
    assert lines == [",".join(cli.REPORT_COLUMNS)]
    assert parse_report(emit(empty, "json")) == empty


def test_unknown_format():
    with pytest.raises(ValueError):
        emit(_tiny_report(), "yaml")


def test_emit_is_deterministic():
    a = emit(_tiny_report(), "json")
    b = emit(_tiny_report(), "json")
    assert a == b
    assert emit(_tiny_report(), "text") == emit(_tiny_report(), "text")


# ---------------------------------------------------------------------------
# the executable surface

def test_main_verify_passes(capsys):
    code = main(["verify", "--disc", "-4", "--alpha", "-3..6", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 9  # every requested target reported exactly once
    assert all(r.endswith("true") for r in rows)


def test_main_verify_with_a_denominator_in_xi(capsys):
    """xi = -1/5 puts 5 in the denominators of every norm form; the finite
    rows still compare exact rationals and all pass."""
    code = main(["verify", "--disc", "-23", "--xi", "-1/5", "--alpha", "-20..40",
                 "--format", "csv"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 60
    assert [r for r in rows if not r.endswith("true")] == []
    assert code == 0


def test_main_inert_primes_above_128(capsys):
    """Inert flips at 127, 131, 137 and 139, whose neighbor lattices have
    scales above 128, pass like any other."""
    code = main(["verify", "--disc", "-4", "--alpha", "125..140", "--format", "csv"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 16
    assert [r for r in rows if not r.endswith("true")] == []
    assert code == 0


def test_main_neighbor_construction_failure_exits_3(capsys, monkeypatch):
    class NoForms:
        forms = ()

    monkeypatch.setattr(hermitian, "class_group", lambda D: NoForms())
    hermitian.coherent_neighbor.cache_clear()
    try:
        assert main(["verify", "--disc", "-7", "--alpha", "7"]) == 3
    finally:
        hermitian.coherent_neighbor.cache_clear()
    assert "InternalError" in capsys.readouterr().err


def test_main_finite_degrees_need_no_ideal_arithmetic(capsys, monkeypatch, tmp_path):
    """A lattice is a (form, scale) pair, depths come from one valuation and
    the family from the class group: with every cache cold and no ideal
    constructible, the sweeps at finite and archimedean places and a
    densities dump of a prime lattice all run and pass."""
    def forbidden(*args):
        raise RuntimeError("ideal arithmetic on the production path")

    monkeypatch.setattr(Ideal, "__init__", forbidden)
    serial = tmp_path / "serial.cfg"
    serial.write_text("jobs = 1\n")
    prime = tmp_path / "prime.cfg"
    prime.write_text("jobs = 1\nlattice_ideal = prime:3\n")
    runs = [
        ["verify", str(serial), "--disc", "-23", "--alpha", "1..64"],
        ["siegel-weil", str(serial), "--disc", "-24", "--alpha", "1..200"],
        ["verify", str(serial), "--disc", "-239", "--alpha", "-60..-1"],
        ["densities", str(prime), "--disc", "-23"],
    ]
    for argv in runs:
        eisenstein.kappa_sw.cache_clear()
        hermitian.coherent_neighbor.cache_clear()
        try:
            code = main([*argv, "--format", "csv"])
        finally:
            eisenstein.kappa_sw.cache_clear()
            hermitian.coherent_neighbor.cache_clear()
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows, argv
        if argv[0] != "densities":
            assert len(rows) == len(cli.parse_targets(argv[-1])), argv
            assert [r for r in rows if not r.endswith("true")] == [], argv
        assert code == 0, argv


@pytest.mark.parametrize("disc,xi,alpha", [
    ("-7", "-6/7", "-20..60"),   # ramified 7 in the denominator of xi
    ("-4", "-1/9", "-30..80"),   # inert 3 in the denominator of xi
])
def test_main_verify_telescopes_to_the_flipped_content(capsys, disc, xi, alpha):
    """With p in the denominator of xi the flipped lattice has negative
    content at p and represents targets of negative valuation; the local
    derivative telescopes down to that content, so every row passes."""
    code = main(["verify", "--disc", disc, "--xi", xi, "--alpha", alpha, "--format", "csv"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(cli.parse_targets(alpha))
    assert [r for r in rows if not r.endswith("true")] == []
    assert code == 0


@pytest.mark.parametrize("choice", ["prime:1", "prime:4", "prime:0"])
def test_main_densities_refuses_a_lattice_ideal_that_is_not_prime(capsys, tmp_path, choice):
    """prime:p names the prime above p, so p itself must be a prime."""
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(f"lattice_ideal = {choice}\n")
    assert main(["densities", str(cfg), "--disc", "-23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err and "not a prime" in captured.err


def test_main_densities_at_a_prime_near_a_billion(tmp_path):
    """The prime above p = 1000000007 (split in Q(sqrt -23)) is found by a
    modular square root, not by a scan of [0, 2p)."""
    import os
    import subprocess
    import sys

    import siegelweil

    src = os.path.dirname(os.path.dirname(siegelweil.__file__))
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text("lattice_ideal = prime:1000000007\n")
    run = subprocess.run(
        [sys.executable, "-m", "siegelweil.cli", "densities", str(cfg), "--disc", "-23",
         "--alpha", "1..3"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    assert "form=['-1000000007', '-92030517', '-2117404']" in run.stdout


@pytest.mark.parametrize("argv", [
    ["siegel-weil", "--disc", "-24", "--alpha", "1..200"],
    ["verify", "--disc", "-23", "--alpha", "1..64"],
    ["siegel-weil", "--disc", "-239", "--alpha", "57121,13651919"],  # 239^2, 239^3
])
def test_main_densities_need_no_congruence_counting(capsys, monkeypatch, tmp_path, argv):
    """Every density on a sweep has a closed form, at p | 2D too: with the
    congruence counter disabled and every cache cold, the rows still pass."""
    def forbidden(*args):
        raise RuntimeError("congruence counting on the production path")

    for module in (field, hermitian, localwhittaker):
        monkeypatch.setattr(module, "binary_form_count_fast", forbidden)
    cfg = tmp_path / "serial.cfg"
    cfg.write_text("jobs = 1\n")
    eisenstein.kappa_sw.cache_clear()
    hermitian.coherent_neighbor.cache_clear()
    try:
        code = main([argv[0], str(cfg), *argv[1:], "--format", "csv"])
    finally:
        eisenstein.kappa_sw.cache_clear()
        hermitian.coherent_neighbor.cache_clear()
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(cli.parse_targets(argv[-1]))
    assert [r for r in rows if not r.endswith("true")] == []
    assert code == 0


def test_main_refuses_several_flip_primes_under_optimisation():
    """For D = -84 the symbol (-1, D)_p is -1 at 2, 3 and 7; the refusal is
    an explicit InternalError (exit 3), so `python -O` keeps it instead of
    reporting rows built on the first candidate."""
    import os
    import subprocess
    import sys

    import siegelweil

    src = os.path.dirname(os.path.dirname(siegelweil.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-m", "siegelweil.cli", "siegel-weil", "--disc", "-84",
         "--alpha", "1..10"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 3
    assert run.stdout == ""
    assert "InternalError" in run.stderr


def test_main_config_error(capsys):
    assert main(["verify", "--disc", "-9"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_bad_flag_is_a_usage_error(capsys):
    assert main(["verify", "--disc", "-4", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_main_calibration_failure_is_instructive(capsys):
    code = main(["siegel-weil", "--disc", "-3", "--alpha", "1..4",
                 "--calibration-alpha", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "candidate calibration targets" in captured.err
    assert "1" in captured.err


def test_main_negative_control_wrong_weight(capsys, monkeypatch):
    """With the constant calibrated against the true weights, a wrong stacky
    weight shows up as row failures and exit code 1."""
    eisenstein.kappa_sw.cache_clear()
    eisenstein.kappa_sw(-4, Fraction(-1))  # pin the honest constant first
    monkeypatch.setattr(eisenstein, "weight_denominator", lambda D: 5)
    code = main(["siegel-weil", "--disc", "-4", "--alpha", "1..6", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.endswith("false") for line in out.splitlines()[1:])


def test_main_densities_and_calibrate(capsys):
    assert main(["densities", "--disc", "-4", "--alpha", "1,2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == ",".join(cli.DENSITY_COLUMNS)
    assert any(line.startswith("1,inf,arch,1") for line in lines)

    assert main(["calibrate", "--disc", "-23", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = {r["key"]: r["value"] for r in data["rows"]}
    assert rows["kappa_sw"] == "2"
    assert rows["stack_mass"] == "3"
    assert rows["flip_prime"] == "23"
