import re
import subprocess
import sys
from pathlib import Path

import pytest

from snskit import cli
from snskit.cli import main
from snskit.config import (
    _SECTIONS,
    ConfigError,
    build_config,
    parse_assignments,
    parse_config,
)
from snskit.keyrate import evaluate

ASYM_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "asym_scan.cfg"
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "table1_symmetric.cfg"
# Byte-exact outputs frozen from an earlier version of the code:
# `snskit tables --seed 1`, and `snskit scan` on a copy of the asymmetric
# benchmark config.
DATA = Path(__file__).resolve().parent / "data"

BASE_CONFIG = """\
# hardware
exp.p_d     = 1.0e-8
exp.e_d     = 0.03
exp.eta_d   = 0.30
exp.f       = 1.1
exp.alpha_f = 0.2
exp.N       = 1.0e12
exp.L_A     = 150
exp.L_B     = 150

src.p_z  = 0.92
src.eps  = 0.28
src.p0   = 0.025
src.p1   = 0.927
src.mu1  = 0.046
src.mu2  = 0.274
src.mu_z = 0.504

opt.distances = 300
opt.restarts  = 2
opt.max_evals = 120
opt.seed      = 7
"""


def _write(tmp_path: Path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "snskit", *args], capture_output=True, text=True
    )


# ---------------------------------------------------------------------------
# Parsing


def test_parse_assignments_happy_path():
    values = parse_assignments("exp.p_d = 1e-8\n# note\n\nsrc.p_z=0.5\n")
    assert values == {"exp.p_d": "1e-8", "src.p_z": "0.5"}


def test_parse_assignments_reports_line_numbers():
    with pytest.raises(ConfigError, match=":3:"):
        parse_assignments("exp.p_d = 1e-8\n\nexp.dark = 2\n")
    with pytest.raises(ConfigError, match=":1:.*section"):
        parse_assignments("mystery.key = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_assignments("exp.p_d = 1\nexp.p_d = 2\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_assignments("exp.p_d 1e-8\n")


def test_build_config_requires_hardware_block():
    with pytest.raises(ConfigError, match="missing required exp"):
        build_config(parse_assignments("exp.p_d = 1e-8\n"))


def test_build_config_partial_src_rejected():
    text = BASE_CONFIG.replace("src.mu_z = 0.504\n", "")
    with pytest.raises(ConfigError, match="missing required src.*mu_z"):
        build_config(parse_assignments(text))


def test_build_config_symmetric_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE_CONFIG))
    problem = cfg.problem
    assert problem.x0 is not None and problem.x0.is_symmetric()
    assert cfg.distances == (300.0,)
    assert problem.method == "A" and problem.zigzag_mode == "approx"
    assert problem.seed == 7  # from opt.seed


def test_build_config_asymmetric_side(tmp_path):
    text = BASE_CONFIG + "src.mu_z_b = 0.45\nsrc.eps_b = 0.35\nsrc.mu1_b = 0.0479\n"
    src = parse_config(_write(tmp_path, text)).problem.x0
    assert not src.is_symmetric()
    assert src.mu_z_b == 0.45
    assert src.p_z_b == src.p_z  # unspecified side fields mirror


def test_parse_config_overrides(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    problem = parse_config(path, overrides=["exp.N=1e11", "run.method=B"]).problem
    assert problem.exp.N == 1e11
    assert problem.method == "B"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path, overrides=["exp.bogus=1"])


def test_run_seed_is_an_unknown_key(tmp_path, capsys):
    # opt.seed is the one config key for the optimizer seed (--seed overrides it).
    path = _write(tmp_path, BASE_CONFIG + "run.seed = 3\n")
    assert main(["rate", "--config", path]) == 2
    assert "unknown key 'run.seed'" in capsys.readouterr().err
    plain = _write(tmp_path, BASE_CONFIG, name="plain.cfg")
    assert main(["rate", "--config", plain, "--set", "run.seed=3"]) == 2
    assert "unknown key 'run.seed'" in capsys.readouterr().err


def test_build_config_validates_values():
    with pytest.raises(ConfigError, match="p_d"):
        build_config(parse_assignments(BASE_CONFIG.replace("exp.p_d     = 1.0e-8", "exp.p_d = 2")))
    with pytest.raises(ConfigError, match="parse"):
        build_config(parse_assignments(BASE_CONFIG.replace("= 1.0e12", "= twelve")))


@pytest.mark.parametrize("key,value", [
    ("opt.distances", "250,nan"),
    ("opt.distances", "250,-10"),
    ("opt.distances", "250,inf"),
    ("opt.delta_L", "400"),
    ("opt.delta_L", "-400"),
    ("opt.delta_L", "nan"),
    ("opt.delta_L", "inf"),
])
def test_build_config_checks_the_scan_grid(key, value):
    # A bad grid point fails when the config is read, not after earlier points ran.
    values = parse_assignments(BASE_CONFIG.replace("opt.distances = 300", "opt.distances = 250,300"))
    values[key] = value
    with pytest.raises(ConfigError, match=key):
        build_config(values)


def test_build_config_checks_the_scan_grid_against_the_arm_offset():
    # Without opt.delta_L the scan keeps L_A - L_B, so the grid must fit it.
    values = parse_assignments(BASE_CONFIG.replace("exp.L_B     = 150", "exp.L_B     = 50"))
    build_config(values)
    values["opt.distances"] = "80,300"
    with pytest.raises(ConfigError,
                       match=r"opt.distances: at 80 km with exp.L_A - exp.L_B = 100\.0,"):
        build_config(values)


def test_parse_config_rejects_an_approx_budget(tmp_path):
    # Approx mode is the default, and its Gaussian constants need xi_tau = 1e-2.
    path = _write(tmp_path, BASE_CONFIG + "budget.xi_tau = 1e-3\n")
    with pytest.raises(ConfigError, match="approx mode's Gaussian quantiles"):
        parse_config(path)


@pytest.mark.parametrize("key", [
    "budget.eps_n1_prime", "budget.eps_nk",
    "opt.mu_lo", "opt.mu_hi", "opt.p_lo", "opt.p_hi", "exp.slice_mode",
])
def test_budget_multi_use_totals_are_unknown_keys(tmp_path, capsys, key):
    # Settings no run may change are not keys: the multi-use totals follow
    # xi_default, and the search box and the slice-averaged error model are
    # fixed.
    path = _write(tmp_path, BASE_CONFIG + f"{key} = 1e-20\n")
    assert main(["rate", "--config", path]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_readme_configuration_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        row = re.match(r"\|\s*`(\w+)\.`\s*\|(.*)\|\s*$", line)
        if row:
            spans = re.findall(r"`([^`]*)`", row.group(2))
            documented[row.group(1)] = sorted(" ".join(spans).split())
    assert documented == {section: sorted(keys) for section, keys in _SECTIONS.items()}


# ---------------------------------------------------------------------------
# Command-line flags override their config keys

_FLAG_CASES = [
    # flag, key, value in the file, --set value, flag value
    ("--method", "run.method", "A", "A", "B"),
    ("--method", "run.method", "B", "B", "A"),
    ("--mode", "run.zigzag", "approx", "approx", "exact"),
    ("--mode", "run.zigzag", "exact", "exact", "approx"),
    ("--seed", "opt.seed", "7", "8", "9"),
    ("--out", "run.out", "file.csv", "set.csv", "flag.csv"),
]


def _setting(cfg, key: str) -> str:
    problem = cfg.problem
    return {
        "run.method": problem.method, "run.zigzag": problem.zigzag_mode,
        "opt.seed": str(problem.seed), "run.out": cfg.out,
    }[key]


@pytest.mark.parametrize("flag,key,in_file,in_set,in_flag", _FLAG_CASES)
def test_cli_flag_beats_set_and_file(tmp_path, monkeypatch, flag, key, in_file, in_set, in_flag):
    text = BASE_CONFIG.replace("opt.seed      = 7\n", "") + f"{key} = {in_file}\n"
    path = _write(tmp_path, text)
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda cfg: seen.append(cfg) or 0)
    assert main(["scan", "--config", path]) == 0
    assert main(["scan", "--config", path, "--set", f"{key}={in_set}"]) == 0
    # The flag wins although it comes before the --set.
    assert main(["scan", "--config", path, flag, in_flag, "--set", f"{key}={in_set}"]) == 0
    assert [_setting(cfg, key) for cfg in seen] == [in_file, in_set, in_flag]


@pytest.mark.parametrize("command", ["rate", "optimize"])
def test_cli_rate_and_optimize_get_the_overridden_problem(tmp_path, monkeypatch, command):
    path = _write(tmp_path, BASE_CONFIG + "run.method = A\nrun.zigzag = approx\n")
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda problem: seen.append(problem) or 0)
    argv = [command, "--config", path, "--method", "B", "--mode", "exact", "--seed", "3"]
    assert main(argv) == 0
    (problem,) = seen
    assert (problem.method, problem.zigzag_mode, problem.seed) == ("B", "exact", 3)


@pytest.mark.parametrize("seed", [2**53 + 1, 10**400])
def test_cli_seed_flag_is_exact(tmp_path, monkeypatch, seed):
    # Past 2**53 (and past the float range) a seed read through float would change.
    path = _write(tmp_path, BASE_CONFIG)
    seen = []
    monkeypatch.setattr(cli, "cmd_optimize", lambda problem: seen.append(problem) or 0)
    assert main(["optimize", "--config", path, "--seed", str(seed)]) == 0
    assert main(["optimize", "--config", path, "--set", f"opt.seed={seed}"]) == 0
    assert [problem.seed for problem in seen] == [seed, seed]


def test_cli_out_flag_keeps_its_path_verbatim(tmp_path, monkeypatch):
    path = _write(tmp_path, BASE_CONFIG)
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda cfg: seen.append(cfg) or 0)
    assert main(["scan", "--config", path, "--out", " spaced name.csv "]) == 0
    assert seen[0].out == " spaced name.csv "


@pytest.mark.parametrize(
    "key,value", [("run.method", "C"), ("run.zigzag", "fast"), ("opt.mode", "sym")]
)
@pytest.mark.parametrize("command", ["rate", "optimize", "scan"])
def test_cli_bad_search_setting_is_a_config_error(tmp_path, capsys, command, key, value):
    path = _write(tmp_path, BASE_CONFIG)
    assert main([command, "--config", path, "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(value) in err


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_help_runs():
    cp = _run_cli("--help")
    assert cp.returncode == 0
    assert "rate" in cp.stdout and "scan" in cp.stdout


def test_cli_rate_fixed_point(tmp_path):
    cp = _run_cli("rate", "--config", _write(tmp_path, BASE_CONFIG))
    assert cp.returncode == 0, cp.stderr
    assert "R             2.65225e-06" in cp.stdout
    assert "eps_tol" in cp.stdout


def test_cli_rate_config_error_names_field(tmp_path):
    path = _write(tmp_path, BASE_CONFIG.replace("exp.p_d     = 1.0e-8", "exp.p_d = 2"))
    cp = _run_cli("rate", "--config", path)
    assert cp.returncode == 2
    assert "p_d" in cp.stderr


def test_cli_rate_zero_rate_exit_code(tmp_path):
    # Fixed source point at a distance far beyond reach: report still prints.
    path = _write(tmp_path, BASE_CONFIG)
    cp = _run_cli("rate", "--config", path, "--set", "exp.L_A=400", "--set", "exp.L_B=400")
    assert cp.returncode == 3
    assert "R             0.00000e+00" in cp.stdout


def test_cli_rate_zero_failure_probability_exit_code(tmp_path):
    # No key meets a zero failure probability, so the budget rejects it.
    path = _write(tmp_path, BASE_CONFIG)
    cp = _run_cli("rate", "--config", path, "--set", "budget.eps_PA=0")
    assert cp.returncode == 2
    assert cp.stderr.startswith("config error:") and "eps_PA" in cp.stderr
    assert cp.stdout == ""


def test_cli_rate_method_b_flag(tmp_path):
    cp = _run_cli("rate", "--config", _write(tmp_path, BASE_CONFIG), "--method", "B")
    assert cp.returncode == 0
    assert "2.84911e-06" in cp.stdout


def test_cli_scan_without_distances_is_a_config_error(tmp_path, capsys):
    for grid in ("opt.distances =", "# no grid"):
        path = _write(tmp_path, BASE_CONFIG.replace("opt.distances = 300", grid))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: opt.distances")
        assert not out.exists()
        # A fixed-source rate needs no grid.
        assert main(["rate", "--config", path]) == 0


def test_cli_scan_keeps_the_configured_arm_offset(tmp_path):
    # Without opt.delta_L a scan holds the exp. block's L_A - L_B (150 - 100
    # km in the benchmark's asymmetric config), not equal arms.
    text = ASYM_CONFIG.read_text(encoding="utf-8")
    offset_line = "opt.delta_L   = 50\n"
    assert offset_line in text
    paths = [_write(tmp_path, text, name="given.cfg"),
             _write(tmp_path, text.replace(offset_line, ""), name="default.cfg")]
    outs = [tmp_path / "given.csv", tmp_path / "default.csv"]
    for path, out in zip(paths, outs):
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_build_config_rejects_an_offset_that_disagrees_with_the_arms(tmp_path, capsys):
    # opt.delta_L may only restate L_A - L_B: 150 - 100 = 50 in the
    # benchmark's config, so 0 would scan other arms than rate evaluates.
    path = str(ASYM_CONFIG)
    for command in ("scan", "rate"):
        assert main([command, "--config", path, "--set", "opt.delta_L=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: opt.delta_L = 0.0 differs from exp.L_A - exp.L_B = 50.0"
        )
    # Just beyond rounding, the message shows the values that differ.
    values = parse_assignments(ASYM_CONFIG.read_text(encoding="utf-8"))
    values["opt.delta_L"] = "50.00001"
    with pytest.raises(ConfigError, match=r"= 50\.00001 differs from .* = 50\.0$"):
        build_config(values)
    # Rounding in the arms is not a disagreement.
    values = parse_assignments(BASE_CONFIG.replace("exp.L_A     = 150", "exp.L_A     = 100.1")
                               .replace("exp.L_B     = 150", "exp.L_B     = 50.05"))
    values["opt.delta_L"] = "50.05"
    build_config(values)


@pytest.mark.parametrize("key,value", [("src.mu_z_b", "0.3"), ("src.p_z_b", "0.9")])
def test_cli_symmetric_search_rejects_a_one_sided_source(capsys, key, value):
    # A symmetric search would drop the _b value; rate, which does not
    # search, evaluates the source as given (mu_z_b = 0.3 breaks the decoy
    # constraint, p_z_b = 0.9 does not).
    path = str(SHIPPED_CONFIG)
    field = key.split(".", 1)[1]
    for command in ("optimize", "scan"):
        assert main([command, "--config", path, "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a symmetric search") and f"{field} = {value}" in err
    rate_code = main(["rate", "--config", path, "--set", f"{key}={value}"])
    out = capsys.readouterr()
    if key == "src.mu_z_b":
        assert rate_code == 2 and "decoy constraint" in out.err
    else:
        assert rate_code == 0 and out.err == ""


def test_cli_source_brighter_than_1_is_a_config_error(capsys):
    assert main(["rate", "--config", str(SHIPPED_CONFIG), "--set", "src.mu_z=2"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: invalid src parameters: signal intensities must lie in (0, 1]")


@pytest.mark.parametrize("command", ["optimize", "tables"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, command):
    config = [] if command == "tables" else ["--config", _write(tmp_path, BASE_CONFIG)]
    assert main([command, *config, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: seed must be a non-negative integer, got -1")


def test_cli_optimize_takes_a_seed_of_several_words(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    assert main(["optimize", "--config", path, "--seed", str(2**70 + 3)]) == 0
    assert capsys.readouterr().out.startswith("evaluations")


@pytest.mark.parametrize("command", ["optimize", "rate"])
def test_cli_method_b_at_440km_retries_from_method_a_optimum(tmp_path, capsys, command):
    # Cold, method B plateaus at R = 0 on Table II hardware at 440 km; like
    # a scan, the command re-optimizes from method A's optimum there.
    path = _write(tmp_path, (
        "exp.p_d = 1.0e-8\nexp.e_d = 0.03\nexp.eta_d = 0.30\nexp.f = 1.1\n"
        "exp.alpha_f = 0.2\nexp.N = 1.0e12\nexp.L_A = 220\nexp.L_B = 220\nopt.seed = 1\n"
    ))
    assert main([command, "--config", path, "--method", "B"]) == 0
    rate = re.search(r"^R +(\S+)$", capsys.readouterr().out, re.MULTILINE).group(1)
    assert float(rate) >= 0.95 * 3.26e-8  # published Table II rate


def test_cli_scan_unwritable_path_exit_code(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    cp = _run_cli("scan", "--config", path, "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert cp.returncode == 4


def test_cli_plob_values():
    cp = _run_cli("plob", "250", "440")
    assert cp.returncode == 0
    assert "1.44270e-05" in cp.stdout
    assert "2.28652e-09" in cp.stdout


@pytest.mark.parametrize("args,name", [
    (["--", "-5"], "distance"),
    (["250", "inf"], "distance"),
    (["250", "nan"], "distance"),
    (["250", "--eta-d", "-0.5"], "eta_d"),
    (["250", "--eta-d", "1.5"], "eta_d"),
    (["250", "--eta-d", "nan"], "eta_d"),
    (["250", "--alpha-f", "-1"], "alpha_f"),
    (["250", "--alpha-f", "inf"], "alpha_f"),
])
def test_cli_plob_bad_input_is_a_config_error(capsys, args, name):
    assert main(["plob", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and name in err


def test_cli_rate_optimizes_without_fixed_source(tmp_path):
    # Published-hardware configuration solved through the config path: no
    # src block, budget override, optimization kicks in.
    text = (
        "exp.p_d = 3.36e-8\nexp.e_d = 0.07\nexp.eta_d = 0.20\nexp.f = 1.1\n"
        "exp.alpha_f = 0.185\nexp.N = 2.0e13\nexp.L_A = 201\nexp.L_B = 201\n"
        "budget.xi_default = 1.69e-10\n"
        "opt.restarts = 4\nopt.max_evals = 2000\nopt.seed = 1\n"
    )
    cp = _run_cli("rate", "--config", _write(tmp_path, text), "--method", "A")
    assert cp.returncode == 0, cp.stderr
    rate_line = next(l for l in cp.stdout.splitlines() if l.startswith("R "))
    rate = float(rate_line.split()[-1])
    assert 8.5e-8 <= rate <= 1.15e-7  # ~9.98e-8 at the full budget


def test_cli_tables_command_small_budget():
    cp = subprocess.run([sys.executable, "-m", "snskit", "tables", "--seed", "1"],
                        capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert b"plob1" in cp.stdout
    assert cp.stdout.count(b"Benchmark rates") == 2
    assert cp.stdout == (DATA / "tables_seed1.txt").read_bytes()


def test_cli_scan_matches_the_frozen_asymmetric_csv(tmp_path):
    out = tmp_path / "asym.csv"
    assert main(["scan", "--config", str(DATA / "asym_scan.cfg"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "asym_scan.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--restarts", "--max-evals"])
def test_cli_tables_takes_no_search_budget(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["tables", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["exp.M_slices", "opt.restarts", "opt.seed"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "2.7"])
def test_cli_int_key_rejects_non_integral_values(tmp_path, capsys, key, raw):
    path = _write(tmp_path, BASE_CONFIG)
    assert main(["optimize", "--config", path, "--set", f"{key}={raw}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key {key!r}: {raw!r}")


def test_int_keys_read_integral_floats(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE_CONFIG),
                       overrides=["opt.max_evals=1e3", "exp.M_slices=32.0"])
    problem = cfg.problem
    assert problem.max_evals == 1000 and type(problem.max_evals) is int
    assert problem.exp.M_slices == 32 and type(problem.exp.M_slices) is int


def test_cli_scan_deterministic_and_refeedable(tmp_path):
    path = _write(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", path, "--out", str(out1)]) == 0
    assert main(["scan", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    header, row = out1.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    # Re-feed the emitted parameters as a fixed-point config; the rate must
    # reproduce the optimizer's method-B value to full precision.
    refed = "\n".join(
        line for line in BASE_CONFIG.splitlines() if not line.startswith("src.")
    )
    refed += "\n" + "\n".join(
        f"src.{name} = {cols[name]}" for name in ("p_z", "eps", "p0", "p1", "mu1", "mu2", "mu_z")
    )
    refed_path = _write(tmp_path, refed, name="refed.cfg")
    problem = parse_config(refed_path).problem
    rep = evaluate(
        problem.exp.at_distance(float(cols["L_km"])), problem.x0, method="B",
        budget=problem.security,
    )
    assert f"{rep.R:.5e}" == cols["R_B"]
    # And literally through the rate command.
    cp = _run_cli("rate", "--config", refed_path, "--method", "B")
    assert cp.returncode == 0, cp.stderr
    assert f"R             {cols['R_B']}" in cp.stdout
    # Separately-optimized curves keep the bounded-difference estimator ahead.
    assert float(cols["R_B"]) >= float(cols["R_A"])