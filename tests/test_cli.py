import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from minkcurv.cli import (ConfigError, load_config, main, parse_flat_config,
                          read_solution_csv)
from minkcurv.mesh import build_interval_mesh, write_mesh
from minkcurv.solver import SolverOptions

NEG_SIGN_CFG = """\
# attracting discontinuous forcing
domain.kind = interval
domain.a = -1
domain.b = 1
domain.n = 128
nonlinearity.kind = neg_sign
output.dir = {out}
emit.svg = true
"""

PRESCRIBED_CFG = """\
domain.kind = interval
domain.a = -1
domain.b = 1
domain.n = 64
nonlinearity.kind = prescribed
nonlinearity.value = 1.0
output.dir = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg", out="out"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / out))
    return p


class TestConfigParsing:
    def test_flat_syntax(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a.b = 1  # trailing comment\n\n# full line\nc.d = x\n")
        cfg = parse_flat_config(p)
        assert cfg["a.b"] == ("1", 1)
        assert cfg["c.d"] == ("x", 4)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a.b = 1\na.b = 2\n")
        with pytest.raises(ConfigError, match=":2: duplicate"):
            parse_flat_config(p)

    def test_missing_equals_names_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind interval\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_flat_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG + "domain.bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(cfg)

    def test_bad_type_names_key_and_line(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128",
                                                       "domain.n = many"))
        with pytest.raises(ConfigError, match="domain.n"):
            load_config(cfg)

    def test_typed_errors_name_file_and_line(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128",
                                                       "domain.n = many"))
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert str(info.value).startswith(f"{cfg}:5: key 'domain.n' expects int")
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.kind = interval",
                                                       "domain.kind = circle"))
        with pytest.raises(ConfigError, match=f"^{cfg}:2: key 'domain.kind' must be one of"):
            load_config(cfg)
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128\n", ""))
        with pytest.raises(ConfigError, match=f"^{cfg}: missing required key 'domain.n'"):
            load_config(cfg)

    def test_certificate_trials_is_not_a_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG + "solver.certificate_trials = 64\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.cfg:9: key 'solver.certificate_trials'" in err

    def test_readme_sample_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sample = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        config = load_config(write_cfg(tmp_path, sample))
        assert config.nonlinearity_kind == "neg_sign" and config.emit_svg

    def test_missing_mesh_file_names_path(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind = file\ndomain.path = nowhere.txt\n"
                     "nonlinearity.kind = neg_sign\n")
        with pytest.raises(ConfigError, match="nowhere.txt"):
            load_config(p)

    def test_mesh_file_domain(self, tmp_path):
        mesh_path = tmp_path / "m.txt"
        write_mesh(build_interval_mesh(-1, 1, 8), mesh_path)
        p = tmp_path / "c.cfg"
        p.write_text(f"domain.kind = file\ndomain.path = {mesh_path.name}\n"
                     "nonlinearity.kind = neg_sign\n")
        mesh = load_config(p).build_mesh()
        assert len(mesh.nodes) == 9

    def test_prescribed_needs_exactly_one_source(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind = interval\ndomain.a = 0\ndomain.b = 1\n"
                     "domain.n = 4\nnonlinearity.kind = prescribed\n")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(p)

    def test_expression_forcing(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\n"
                     "domain.n = 8\nnonlinearity.kind = prescribed\n"
                     "nonlinearity.expression = 2*x + 1\n")
        config = load_config(p)
        mesh = config.build_mesh()
        spec = config.build_spec(mesh)
        assert spec.evaluate(np.array([[0.5]]), np.zeros(1)) == pytest.approx(2.0)

    def test_expression_rejects_unknown_names(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\n"
                     "domain.n = 8\nnonlinearity.kind = prescribed\n"
                     "nonlinearity.expression = __import__('os')\n")
        with pytest.raises(ConfigError):
            load_config(p)


class TestSolveCommand:
    def test_neg_sign_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG)
        code = main(["solve", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged true" in out
        outdir = tmp_path / "out"
        assert (outdir / "solution.csv").exists()
        assert (outdir / "report.txt").exists()
        assert (outdir / "solution.svg").exists()
        report = (outdir / "report.txt").read_text()
        energy = float(dict(line.split(" ", 1) for line in
                            report.splitlines())["energy"])
        assert energy == pytest.approx(2 - math.sqrt(2) - math.log(1 + math.sqrt(2)),
                                       abs=2e-3)

    def test_trivial_rule_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG.replace(
            "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
            "nonlinearity.kind = constant\nnonlinearity.a = 0.0"))
        code = main(["solve", "--config", str(cfg)])
        assert code == 0
        u, zeta = read_solution_csv(tmp_path / "out" / "solution.csv",
                                    build_interval_mesh(-1, 1, 64))
        assert np.all(u == 0.0)

    @pytest.mark.parametrize("after, key, lineno", [
        ("domain.n = 128\n", "domain.radius", 6),
        ("nonlinearity.kind = neg_sign\n", "nonlinearity.a", 7),
        ("emit.svg = true\n", "solver.damping", 9),
        ("emit.svg = true\n", "emit.csv", 9),
        ("emit.svg = true\n", "emit.report", 9),
    ], ids=["radius-on-interval", "a-with-neg_sign", "damping", "emit-csv", "emit-report"])
    def test_misplaced_key_exits_1(self, tmp_path, capsys, after, key, lineno):
        # a known key that the chosen kind does not use is an error, not ignored
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace(after, f"{after}{key} = 3\n"))
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"run.cfg:{lineno}: key {key!r}" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_nonconverged_exits_2_but_writes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG + "solver.max_outer = 1\n")
        code = main(["solve", "--config", str(cfg)])
        assert code == 2
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG)
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "solution.csv").read_bytes()
                == (tmp_path / "b" / "solution.csv").read_bytes())
        assert ((tmp_path / "a" / "report.txt").read_bytes()
                == (tmp_path / "b" / "report.txt").read_bytes())


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--param", "n", "--values", "16"],
                                     ["mesh-info"]], ids=["solve", "sweep", "mesh-info"])
def test_seed_is_a_verify_option_only(tmp_path, capsys, command):
    # the solver draws no random numbers; only verify's trial fields do
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
    with pytest.raises(SystemExit):
        main([*command, "--config", str(cfg), "--seed", "1"])
    assert "--seed" in capsys.readouterr().err
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["verify", "--config", str(cfg), "--seed", "1",
                 "--solution", str(tmp_path / "out" / "solution.csv")]) == 0


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG)
        assert main(["solve", "--config", str(cfg)]) == 0
        code = main(["verify", "--config", str(cfg),
                     "--solution", str(tmp_path / "out" / "solution.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "all_passed true" in out

    def test_round_trip_constant_with_analytic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        assert main(["solve", "--config", str(cfg)]) == 0
        code = main(["verify", "--config", str(cfg),
                     "--solution", str(tmp_path / "out" / "solution.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "analytic_linf_error" in out

    def test_zero_field_against_nonzero_rule_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        mesh = build_interval_mesh(-1, 1, 64)
        sol = tmp_path / "zero.csv"
        rows = ["index,x,u,zeta,residual"]
        for i in range(len(mesh.nodes)):
            rows.append(f"{i},{mesh.nodes[i,0]:.16e},0.0,1.0,0.0")
        sol.write_text("\n".join(rows) + "\n")
        code = main(["verify", "--config", str(cfg), "--solution", str(sol)])
        out = capsys.readouterr().out
        assert code == 2
        assert "passed.inclusion false" in out

    def test_truncated_csv_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        sol = tmp_path / "short.csv"
        sol.write_text("index,x,u,zeta,residual\n0,0.0,0.0,0.0,0.0\n")
        code = main(["verify", "--config", str(cfg), "--solution", str(sol)])
        assert code == 1
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("u", "nan"), ("zeta", "inf")])
    def test_non_finite_csv_value_exits_1(self, tmp_path, capsys, column, value):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        assert main(["solve", "--config", str(cfg)]) == 0
        sol = tmp_path / "out" / "solution.csv"
        rows = [line.split(",") for line in sol.read_text().splitlines()]
        rows[5][rows[0].index(column)] = value
        sol.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == 1
        assert f"{sol}: non-finite value in row 6" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["# a comment", "", "   ", "5,0.1"],
                             ids=["comment", "blank", "spaces", "short"])
    def test_malformed_csv_row_exits_1(self, tmp_path, capsys, row):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        assert main(["solve", "--config", str(cfg)]) == 0
        sol = tmp_path / "out" / "solution.csv"
        rows = sol.read_text().splitlines()
        rows[5] = row
        sol.write_text("\n".join(rows) + "\n")
        assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == 1
        assert f"{sol}: malformed row" in capsys.readouterr().err

    def test_wrong_mesh_shape_exits_1(self, tmp_path):
        cfg_small = write_cfg(tmp_path, PRESCRIBED_CFG, name="small.cfg")
        cfg_big = write_cfg(tmp_path,
                            PRESCRIBED_CFG.replace("domain.n = 64",
                                                   "domain.n = 128"),
                            name="big.cfg", out="out2")
        assert main(["solve", "--config", str(cfg_small)]) == 0
        code = main(["verify", "--config", str(cfg_big),
                     "--solution", str(tmp_path / "out" / "solution.csv")])
        assert code == 1


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_inner_solve_failure_exits_2(tmp_path, capsys, command):
    # one Newton step cannot solve the prescribed problem from zero
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG + "solver.max_inner = 1\n")
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--param", "n", "--values", "16,32"]
    assert main(argv) == 2
    assert "inner solve failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_escape_probes_exit_2(tmp_path, capsys, command):
    # every escape probe from the stall at u = 0 needs more than 3 Newton steps
    cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128", "domain.n = 32")
                    + "solver.max_inner = 3\n")
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--param", "n", "--values", "32"]
    assert main(argv) == 2
    assert "inner solve failed: no convergence in 3 Newton" in capsys.readouterr().err


NON_FINITE_CFG = """\
domain.kind = interval
domain.a = -1
domain.b = 1
domain.n = 8
nonlinearity.kind = prescribed
nonlinearity.expression = {expr}
output.dir = {{out}}
"""


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
@pytest.mark.parametrize("expr, detail", [("1/x", "node 4 [0.0]"),
                                          ("log(x+1)", "node 0 [-1.0]"),
                                          ("1/0", "cannot be evaluated"),
                                          ("1j*x", "is not real")])
def test_unusable_expression_exits_1(tmp_path, capsys, command, expr, detail):
    # x = 0 and x = -1 are mesh nodes, where 1/x and log(x+1) are infinite
    cfg = write_cfg(tmp_path, NON_FINITE_CFG.format(expr=expr))
    argv = [command, "--config", str(cfg)]
    if command == "verify":
        argv += ["--solution", str(tmp_path / "none.csv")]
    if command == "sweep":
        argv += ["--param", "n", "--values", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(expr) in err and detail in err


POWER_CFG = PRESCRIBED_CFG.replace(
    "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
    "nonlinearity.kind = power\nnonlinearity.c = 1\nnonlinearity.r = 0.5")
STEP_CFG = PRESCRIBED_CFG.replace(
    "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
    "nonlinearity.kind = step\nnonlinearity.a = nan\nnonlinearity.b = 1")


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
@pytest.mark.parametrize("text, detail", [
    (PRESCRIBED_CFG + "solver.max_inner = 0\n", ":8: iteration caps must be >= 1"),
    (POWER_CFG, ":7: power exponent must be > 1"),
    (PRESCRIBED_CFG + "nonlinearity.growth_q = 0.5\n", ":8: growth_q must be > 1"),
    (PRESCRIBED_CFG + "nonlinearity.growth_c = -1\n", ":8: growth_c must be >= 0"),
    (PRESCRIBED_CFG + "solver.inner_tol = nan\n", ":8: key 'solver.inner_tol' must be finite"),
    (PRESCRIBED_CFG + "solver.outer_tol = -inf\n", ":8: key 'solver.outer_tol' must be finite"),
    (STEP_CFG, ":6: key 'nonlinearity.a' must be finite"),
], ids=["max_inner", "power-r", "growth_q", "growth_c", "inner_tol-nan", "outer_tol-inf",
        "step-a-nan"])
def test_bad_value_exits_1_naming_the_file(tmp_path, capsys, command, text, detail):
    cfg = write_cfg(tmp_path, text)
    argv = [command, "--config", str(cfg)]
    if command == "verify":
        argv += ["--solution", str(tmp_path / "none.csv")]
    if command == "sweep":
        argv += ["--param", "n", "--values", "8"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and detail in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", [f for f in dataclasses.fields(SolverOptions)
                                   if f.name not in ("initial", "seed")],
                         ids=lambda f: f.name)
def test_solver_keys_are_the_option_fields(tmp_path, field):
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG + f"solver.{field.name} = {field.default}\n")
    assert load_config(cfg).solver_options() == SolverOptions()


class TestSweepCommand:
    @pytest.mark.parametrize("param, values, detail", [
        ("n", "8,abc", ":--values: key 'domain.n' expects int, got 'abc'"),
        ("outer_tol", "1e-8,-1", "tolerances must be positive and finite"),
        ("outer_tol", "nan", ":--values: key 'solver.outer_tol' must be finite"),
        ("selection_rule", "mid,top", "unknown selection rule 'top'"),
        ("refinement", "2", ":--values: key 'domain.refinement' is unknown or not used"),
    ], ids=["n-abc", "outer_tol-negative", "outer_tol-nan", "rule-top", "refinement-interval"])
    def test_bad_value_exits_1_before_any_run(self, tmp_path, capsys, param, values, detail):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        code = main(["sweep", "--config", str(cfg), "--param", param,
                     "--values", values, "--out", str(tmp_path / "sw")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}") and detail in err and "Traceback" not in err
        assert not (tmp_path / "sw").exists()

    def test_mesh_sweep_reports_convergence(self, tmp_path):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        code = main(["sweep", "--config", str(cfg), "--param", "n",
                     "--values", "16,32,64", "--out", str(tmp_path / "sw")])
        assert code == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("n,energy,linf_error_vs_analytic")
        errs = [float(line.split(",")[2]) for line in lines[1:]]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert (tmp_path / "sw" / "n_32" / "report.txt").exists()

    def test_selection_rule_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128",
                                                       "domain.n = 64"))
        code = main(["sweep", "--config", str(cfg), "--param", "selection_rule",
                     "--values", "lo,mid,hi", "--out", str(tmp_path / "sw")])
        assert code == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.endswith("true") for line in lines[1:])

    def test_unconverged_runs_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128", "domain.n = 64")
                        + "solver.max_outer = 1\n")
        code = main(["sweep", "--config", str(cfg), "--param", "n",
                     "--values", "16,32", "--out", str(tmp_path / "sw")])
        assert code == 2
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",false") for line in lines[1:])

    def test_inner_failure_keeps_the_other_rows(self, tmp_path, capsys):
        # 7 Newton steps solve n = 16 but not n = 64
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG + "solver.max_inner = 7\n")
        code = main(["sweep", "--config", str(cfg), "--param", "n",
                     "--values", "16,64", "--out", str(tmp_path / "sw")])
        assert code == 2
        assert "n=64: inner solve failed" in capsys.readouterr().err
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("16,") and lines[1].endswith(",true")
        assert lines[2] == "64,,,,,false"

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--param", "n",
                                                     "--values", "16"]],
                             ids=["solve", "sweep"])
    def test_threads_is_rejected(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        with pytest.raises(SystemExit):
            main([*command, "--config", str(cfg), "--threads", "2"])
        assert "--threads" in capsys.readouterr().err

    def test_empty_values_is_noop(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        code = main(["sweep", "--config", str(cfg), "--param", "n",
                     "--values", "", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_unknown_parameter_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        code = main(["sweep", "--config", str(cfg), "--param", "volume",
                     "--values", "1,2"])
        assert code == 1
        assert "volume" in capsys.readouterr().err


class TestMeshInfoCommand:
    def test_from_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "nodes 65" in out
        assert "volume 2" in out

    def test_from_mesh_file(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_mesh(build_interval_mesh(0, 1, 4), p)
        assert main(["mesh-info", "--mesh", str(p)]) == 0
        assert "nodes 5" in capsys.readouterr().out

    def test_needs_a_source(self, capsys):
        assert main(["mesh-info"]) == 1
