"""End-to-end checks of the command line front end.

Everything runs in-process through main(argv) so exit codes and artifact
bytes are observable without spawning interpreters, except the console
script's path, main() reading sys.argv, which only a new process runs.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pathcalc
from pathcalc import brownian_path, path_from_csv, path_to_csv, ramp_path
from pathcalc.cli import OPTS, build_parser, main

DATA = Path(__file__).with_name("data")

def _run(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(OPTS))
def test_command_help_equals_its_help_in_the_full_parser(name, capsys):
    # main builds the named command's parser alone
    lone = _help(main, [name, "--help"], capsys)
    full = _help(build_parser().parse_args, [name, "--help"], capsys)
    assert lone == full
    assert lone.startswith(f"usage: pathcalc {name} ")


def _console(*argv):
    """The console script's path: main() reading sys.argv, in a new
    process that finds this checkout's package first."""
    env = dict(os.environ)
    src = str(Path(pathcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "pathcalc.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_console_script_path_writes_the_in_process_bytes(tmp_path):
    argv = ["probe", "--samples", "5"]
    child = _console(*argv, "--out", str(tmp_path / "child.csv"))
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "child.csv").read_bytes() \
        == _run(tmp_path, argv, "parent.csv")
    listing = _console("--help")
    assert listing.returncode == 0, listing.stderr
    assert "{" + ",".join(OPTS) + "}" in listing.stdout


def test_unparseable_flag_value_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["deriv", "--t", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["probe", "--samples", "abc"],
    ["deriv", "--t", "-inf"],       # argparse reads -inf as an option
    ["qv", "--bogus", "1"],
    ["bogus"],
    [],
], ids=["bad_int", "negative_looks_like_flag", "unknown_flag",
        "unknown_command", "no_command"])
def test_usage_error_is_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("config-error:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# artifact reproducibility

FAST_ARGV = {
    "flow": ["flow", "--path", "ramp:1.0", "--nodes", "33",
             "--direction", "const:1.0", "--substep", "0.03125"],
    "deriv": ["deriv", "--kind", "space", "--functional", "square",
              "--path", "ramp:1.0", "--nodes", "65", "--t", "0.5",
              "--count", "8"],
    "relation": ["relation", "--functional", "square", "--direction", "eval",
                 "--times", "0.5", "--nodes", "129", "--count", "12"],
    "recover-grad": ["recover-grad", "--functional", "square",
                     "--directions", "const:1.0", "--nodes", "129",
                     "--count", "12"],
    "counterexample": ["counterexample", "--t0", "0.5", "--nodes", "257"],
    "ito-check": ["ito-check", "--functional", "exp_eval", "--paths", "2",
                  "--level-min", "4", "--level-max", "6", "--n-exp", "8"],
    "qv": ["qv", "--index", "0", "--level-min", "4", "--level-max", "6",
           "--n-exp", "8"],
    "stratonovich": ["stratonovich", "--integrand", "eval", "--index", "0",
                     "--level-min", "4", "--level-max", "6",
                     "--n-exp", "8"],
    "feynman-kac": ["feynman-kac", "--benchmark", "gauss_square",
                    "--times", "0.25,0.75", "--n-paths", "50",
                    "--n-steps", "8", "--seed", "3"],
    "probe": ["probe", "--functional", "eval", "--samples", "40"],
}


@pytest.mark.parametrize("name", sorted(FAST_ARGV))
def test_rerun_is_byte_identical(tmp_path, name):
    argv = FAST_ARGV[name]
    first = _run(tmp_path, argv, "a.csv")
    second = _run(tmp_path, argv, "b.csv")
    assert first == second
    assert first.endswith(b"\n")


def test_stdout_is_the_default_sink(capsys):
    rc = main(["qv", "--level-min", "4", "--level-max", "5",
               "--n-exp", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "level,qv_T\n" in out
    assert out.startswith("# ")


def test_stamp_adds_a_generated_line(tmp_path):
    argv = ["qv", "--level-min", "4", "--level-max", "4", "--n-exp", "8"]
    plain = _run(tmp_path, argv, "plain.csv")
    assert b"# generated = " not in plain
    out = tmp_path / "stamped.csv"
    assert main(argv + ["--stamp", "--out", str(out)]) == 0
    assert b"# generated = " in out.read_bytes()


# ---------------------------------------------------------------------------
# config files


def test_config_file_matches_flags(tmp_path):
    cfg = tmp_path / "qv.cfg"
    cfg.write_text("# comment line\n\nindex = 1\nlevel_min = 4\n"
                   "level_max = 6\nn_exp = 8\n")
    by_file = _run(tmp_path, ["qv", "--config", str(cfg)], "file.csv")
    by_flags = _run(tmp_path, ["qv", "--index", "1", "--level-min", "4",
                               "--level-max", "6", "--n-exp", "8"],
                    "flags.csv")
    assert by_file == by_flags


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "qv.cfg"
    cfg.write_text("index = 1\nlevel_min = 4\nlevel_max = 6\nn_exp = 8\n")
    mixed = _run(tmp_path, ["qv", "--config", str(cfg), "--index", "2"],
                 "mixed.csv")
    pure = _run(tmp_path, ["qv", "--index", "2", "--level-min", "4",
                           "--level-max", "6", "--n-exp", "8"], "pure.csv")
    assert mixed == pure


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("index = 1\nturbo = yes\n")
    rc = main(["qv", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error:")


def test_malformed_config_line_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("index 1\n")
    assert main(["qv", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error channels


def test_domain_error_exits_two(capsys):
    rc = main(["deriv", "--kind", "horizontal", "--t", "0.995"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error:")


def test_unknown_kind_exits_two(capsys):
    assert main(["deriv", "--kind", "banana"]) == 2
    assert capsys.readouterr().err.startswith("config-error:")


def test_monte_carlo_overflow_exits_three(capsys):
    rc = main(["feynman-kac", "--horizon", "1e308", "--n-paths", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical-error:")
    assert captured.err.count("\n") == 1


def test_ill_conditioned_directions_exit_three(capsys):
    rc = main(["recover-grad", "--path", "ramp:1.0,1.0",
               "--functional", "square", "--t", "0.5",
               "--directions", "const:1.0,1.0;const:1.0,1.0000000001"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical-error:")


def test_out_into_missing_directory_exits_four(tmp_path, capsys):
    rc = main(["qv", "--level-min", "4", "--level-max", "4",
               "--n-exp", "8", "--out", str(tmp_path / "no" / "dir.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("io-error:")


# ---------------------------------------------------------------------------
# artifact schemas


def _lines(raw):
    return raw.decode().splitlines()


def test_flow_artifact_is_a_loadable_path(tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--path", "ramp:1.0", "--nodes", "65",
               "--direction", "const:1.0", "--substep", "0.015625",
               "--out", str(out)])
    assert rc == 0
    lines = _lines(out.read_bytes())
    assert lines[0] == "# direction = const:1.0"
    assert "# interp_mode = linear" in lines
    p = path_from_csv(str(out))
    # constant unit field on the zero-started ramp gives y(t) = t
    ts = np.linspace(0.0, 1.0, 17)
    assert np.allclose(p.eval(ts)[:, 0], ts, atol=1e-12)


def test_flow_euler_artifact_is_a_loadable_path(tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--path", "ramp:1.0", "--nodes", "65",
               "--direction", "const:1.0", "--substep", "0.015625",
               "--method", "euler", "--out", str(out)])
    assert rc == 0
    lines = _lines(out.read_bytes())
    assert "# method = euler" in lines
    assert "# iterations = 1" in lines
    comments = dict(ln[2:].split(" = ") for ln in lines if ln.startswith("#"))
    assert float(comments["sup_residual"]) <= float(comments["tol_residual"])
    p = path_from_csv(str(out))
    # euler is exact for a constant field: y(t) = t on the zero-started ramp
    ts = np.linspace(0.0, 1.0, 17)
    assert np.allclose(p.eval(ts)[:, 0], ts, atol=1e-12)


def test_flow_from_a_brownian_path_along_the_constraint_direction(tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--path", "brownian:3", "--n-exp", "8",
               "--direction", "constraint:0.25", "--start", "0.5",
               "--out", str(out)])
    assert rc == 0
    lines = _lines(out.read_bytes())
    first = lines[lines.index("t,v1") + 1].split(",")
    # the flow starts from the Brownian path's value at --start
    assert [float(v) for v in first] \
        == [0.5, brownian_path(0, 3, n_exp=8).eval(0.5)[0]]


def test_flow_from_a_brownian_path_with_a_subnormal_step(tmp_path):
    # 2**16 steps of a 1e-310 horizon are subnormal but still rise strictly
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--path", "brownian:0", "--horizon", "1e-310",
               "--out", str(out)])
    assert rc == 0


def test_csv_path_spec_round_trips(tmp_path):
    src = tmp_path / "ramp.csv"
    path_to_csv(ramp_path(1.0, 1.0, n=129), str(src))
    out = tmp_path / "deriv.csv"
    rc = main(["deriv", "--path", f"csv:{src}", "--kind", "space",
               "--functional", "square", "--t", "0.25", "--count", "8",
               "--out", str(out)])
    assert rc == 0
    lines = _lines(out.read_bytes())
    assert lines[-2] == "verdict,estimate,spread_tail"
    verdict, estimate, _ = lines[-1].split(",")
    assert verdict == "converged"
    assert abs(float(estimate) - 0.5) <= 1e-9


def test_deriv_of_running_max_at_zero_is_one(tmp_path):
    lines = _lines(_run(tmp_path, ["deriv", "--kind", "space",
                                   "--functional", "running_max",
                                   "--t", "0"]))
    assert lines[-1].split(",")[:2] == ["converged", "1.0"]


@pytest.mark.parametrize("scheme, verdict", [("central", "inconclusive"),
                                             ("forward", "converged")])
def test_deriv_of_running_max_at_a_kink(tmp_path, scheme, verdict):
    lines = _lines(_run(tmp_path, ["deriv", "--kind", "space",
                                   "--functional", "running_max",
                                   "--t", "0.5", "--scheme", scheme]))
    got, estimate, _ = lines[-1].split(",")
    assert got == verdict
    if verdict == "converged":
        assert abs(float(estimate) - 1.0) <= 1e-8
    else:
        assert estimate == "nan"


def test_deriv_artifact_schema(tmp_path):
    raw = _run(tmp_path, FAST_ARGV["deriv"])
    lines = _lines(raw)
    head = lines.index("eta,quotient")
    assert any(ln.startswith("# alternations = ") for ln in lines[:head])
    data = lines[head + 1:-2]
    assert len(data) == 8
    for ln in data:
        eta, quot = ln.split(",")
        float(eta), float(quot)
    assert lines[-2] == "verdict,estimate,spread_tail"
    assert lines[-1].split(",")[0] == "converged"


def test_relation_artifact_schema(tmp_path):
    raw = _run(tmp_path, FAST_ARGV["relation"])
    lines = _lines(raw)
    head = [ln for ln in lines if not ln.startswith("#")][0]
    assert head == "t,residual,d_gamma,d_horizontal,grad0,gamma0"
    row = lines[lines.index(head) + 1].split(",")
    assert abs(float(row[1])) <= 1e-4


def test_counterexample_artifact_schema(tmp_path):
    out = tmp_path / "ce.csv"
    ladders = tmp_path / "ladders.csv"
    rc = main(FAST_ARGV["counterexample"]
              + ["--ladders-out", str(ladders), "--out", str(out)])
    assert rc == 0
    lines = _lines(out.read_bytes())
    head = lines.index("t0,path_id,gamma_id,verdict,estimate")
    data = [ln for ln in lines[head + 1:]
            if not ln.startswith("path_id")][:7]
    assert len(data) == 7
    ids = [tuple(ln.split(",")[1:3]) for ln in data]
    assert ("ramp", "horizontal") in ids
    assert ("ramp+0.25", "gamma_star") in ids
    assert "# passed = true" in lines
    # ladder table trails the verdict table in the same file
    assert "path_id,gamma_id,eta,quotient" in lines
    llines = _lines(ladders.read_bytes())
    assert "path_id,gamma_id,eta,quotient" in llines


def test_qv_artifact_dim_two_columns(tmp_path):
    raw = _run(tmp_path, ["qv", "--dim", "2", "--level-min", "4",
                          "--level-max", "5", "--n-exp", "8"])
    lines = _lines(raw)
    assert "level,qv_T_00,qv_T_01,qv_T_10,qv_T_11" in lines


def test_feynman_kac_artifact_schema(tmp_path):
    raw = _run(tmp_path, FAST_ARGV["feynman-kac"])
    lines = _lines(raw)
    head = lines.index("t,f_mc,stderr,f_exact,residual")
    rows = [ln.split(",") for ln in lines[head + 1:]]
    assert [r[0] for r in rows] == ["0.25", "0.75"]
    for r in rows:
        assert float(r[4]) == 0.0  # coded benchmark solves its equation
        assert abs(float(r[1]) - float(r[3])) <= 4 * float(r[2]) + 1e-12


def test_probe_artifact_reports_all_probes(tmp_path):
    raw = _run(tmp_path, FAST_ARGV["probe"])
    lines = _lines(raw)
    head = lines.index("probe,passed,metric,samples")
    rows = [ln.split(",") for ln in lines[head + 1:]]
    assert len(rows) == 3
    assert all(r[1] == "true" for r in rows)


def test_stratonovich_artifact_schema(tmp_path):
    raw = _run(tmp_path, FAST_ARGV["stratonovich"])
    lines = _lines(raw)
    head = lines.index("level,mesh,ito,covariation,value")
    for ln in lines[head + 1:]:
        level, mesh, ito_v, cov, val = ln.split(",")
        assert float(val) == float(ito_v) + 0.5 * float(cov)


@pytest.mark.parametrize("argv", [
    ["feynman-kac", "--n-paths", "8", "--seed", "-1"],
    ["feynman-kac", "--n-paths", "8", "--n-steps", "0"],
    ["qv", "--n-exp", "8", "--level-max", "6", "--index", "-1"],
    ["feynman-kac", "--n-paths", "1"],
    ["feynman-kac", "--n-paths", "0"],
], ids=["fk_seed", "fk_n_steps", "qv_index", "fk_one_path", "fk_no_path"])
def test_bad_monte_carlo_input_is_one_line(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config-error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["deriv", "--functional", "eval:abc"],
    ["deriv", "--functional", "eval:5"],
    ["flow", "--path", "brownian:x"],
    ["flow", "--direction", "constraint:abc"],
    ["flow", "--direction", "gamma_star:nan"],
    ["flow", "--substep", "nan"],
    ["probe", "--samples", "0"],
    ["probe", "--dim", "0"],
    ["probe", "--box", "-1", "--samples", "4"],
    ["deriv", "--functional", "product"],
    ["deriv", "--path", "ramp:1,1", "--functional", "product:7"],
    ["deriv", "--kind", "space", "--functional", "square", "--count", "70"],
    ["deriv", "--kind", "horizontal", "--count", "70"],
    ["deriv", "--kind", "space", "--count", "1000000000"],
    ["relation", "--times", ","],
    ["feynman-kac", "--times", ","],
    ["qv", "--dim", "0"],
    ["flow", "--path", "const:,"],
    ["flow", "--substep", "1e-300"],
    ["probe", "--box", "1e308", "--samples", "4"],
    ["counterexample", "--nodes", "-1"],
    ["qv", "--config", str(DATA / "no-such.cfg")],
    ["qv", "--config", str(DATA / "unparseable.cfg")],
    ["relation", "--times", "a,b"],
    ["flow", "--path", "bogus:1"],
    ["probe", "--probe", "bogus"],
    ["flow", "--method", "bogus"],
    ["deriv", "--path", "csv:" + str(DATA / "bad_cell.csv")],
    ["deriv", "--path", "csv:" + str(DATA / "missing_column.csv")],
    ["probe", "--horizon", "-1"],
    ["probe", "--horizon", "0"],
    ["qv", "--horizon", "1e-320"],
    ["ito-check", "--horizon", "5e-324"],
], ids=["functional_axis_text", "functional_axis_range", "path_index_text",
        "direction_floor_text", "direction_floor_nan", "substep_nan",
        "probe_no_samples", "probe_no_dim", "probe_negative_box",
        "product_on_one_dim_path", "product_axis", "bump_below_resolution",
        "step_below_resolution", "ladder_underflow", "relation_no_times",
        "fk_no_times", "qv_no_dim", "path_no_values", "substep_too_fine",
        "probe_box_overflows", "negative_nodes", "config_missing",
        "config_value_unparseable", "times_not_numbers", "unknown_path",
        "unknown_probe", "unknown_flow_method", "csv_cell_not_a_number",
        "csv_row_missing_a_column", "probe_negative_horizon",
        "probe_zero_horizon", "qv_horizon_without_a_rising_grid",
        "ito_check_horizon_without_a_rising_grid"])
def test_bad_spec_or_probe_input_is_one_line(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("config-error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, named", [
    (["flow", "--window", "nan"], "window"),
    (["flow", "--picard-tol", "nan"], "picard_tol"),
    (["deriv", "--t", "nan"], "t=nan"),
    (["deriv", "--kind", "horizontal", "--t", "nan"], "t=nan"),
    (["deriv", "--kind", "space", "--t", "nan"], "time nan"),
    (["relation", "--times", "nan"], "t=nan"),
    (["flow", "--horizon", "0"], "horizon must be positive"),
    (["flow", "--horizon", "nan"], "horizon must be finite"),
    (["flow", "--horizon", "inf"], "horizon must be finite"),
    (["probe", "--horizon", "-1"], "horizon must be positive, not -1.0"),
    (["qv", "--horizon", "1e-320"], "horizon=1e-320 with n_exp=16"),
    (["deriv", "--kind", "space", "--path", "const:1e308", "--eta0", "1e308"],
     "held value must be finite"),
    (["flow", "--horizon", "1e308"], "span 1e+308 times 1024 steps"),
], ids=["flow_window", "flow_picard_tol", "deriv_gamma_t",
        "deriv_horizontal_t", "deriv_space_t", "relation_times",
        "flow_zero_horizon", "flow_nan_horizon", "flow_inf_horizon",
        "probe_negative_horizon", "qv_horizon_without_a_rising_grid",
        "deriv_space_held_overflows", "flow_grid_overflows"])
def test_nan_option_is_one_line_naming_it(argv, named, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("config-error:")
    assert captured.err.count("\n") == 1
    assert named in captured.err


# ---------------------------------------------------------------------------
# the exit-code contract over random option values

_FLOATS = ["-1", "0", "0.25", "0.5", "1", "2", "nan", "inf", "-inf", "1e308",
           "1e-300", "abc"]
# sizes stay small; the large counts are rejected before any work
_INTS = ["-1", "0", "1", "2", "3", "9", "abc"]
_LARGE = {"count": ["70", "1000000000"], "n_exp": ["25", "64"]}
_PATHS = ["const:1", "const:,", "const:1,2", "ramp:1,2", "ramp:",
          "brownian:0", "brownian:x", "csv:", "bogus"]
_DIRS = ["zero", "const:1", "const:,", "const:1,2", "eval", "running_avg",
         "constraint", "constraint:0", "gamma_star:-1", "bogus"]
_SPECS = {
    "path": _PATHS, "x0": _PATHS, "direction": _DIRS, "integrand": _DIRS,
    "directions": ["const:1.0", "", ";", "const:1;const:2", "bogus"],
    "functional": ["eval", "eval:1", "square", "integral", "running_max",
                   "running_avg", "exp_eval", "product", "product:3",
                   "counterexample", "eval:x", "bogus"],
    "kind": ["gamma", "horizontal", "space", "bogus"],
    "scheme": ["central", "forward", "bogus"],
    "method": ["picard", "euler", "bogus"],
    "probe": ["all", "lipschitz", "boundedness", "non-anticipative", "bogus"],
    "benchmark": ["gauss_square", "drifted_linear", "discount_const",
                  "bogus"],
    "times": ["0.5", ",", "0.25,0.75", "nan", "2", "-1"],
}


def _values(opt):
    if opt.type is float:
        return _FLOATS
    if opt.type is int:
        return _INTS + _LARGE.get(opt.name, [])
    return _SPECS[opt.name]


@st.composite
def _argvs(draw):
    """A fast command with one to three options set to random values."""
    name = draw(st.sampled_from(sorted(FAST_ARGV)))
    opts = [o for o in OPTS[name] if o.name != "ladders_out"]
    argv = list(FAST_ARGV[name])
    for o in draw(st.lists(st.sampled_from(opts), min_size=1, max_size=3,
                           unique_by=lambda o: o.name)):
        value = draw(st.sampled_from(_values(o)))
        # --opt=value, so that argparse does not read -1 as a flag
        argv.append(f"--{o.name.replace('_', '-')}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_any_option_values_keep_the_exit_code_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4), argv
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
