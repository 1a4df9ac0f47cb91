import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from minkcurv import cli, solver
from minkcurv.cli import (ConfigError, load_config, main, parse_flat_config,
                          read_solution_csv)
from minkcurv.mesh import Mesh, build_interval_mesh, build_rectangle_mesh, write_mesh
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

DISK_CONSTANT_CFG = """\
domain.kind = disk
domain.radius = 1
domain.refinement = {refinement}
nonlinearity.kind = constant
nonlinearity.a = 2
output.dir = {{out}}
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

    @pytest.mark.parametrize("value", ["false", "off", "No", "0"])
    def test_bool_key_spelled_false(self, tmp_path, value):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("emit.svg = true",
                                                       f"emit.svg = {value}"))
        assert load_config(cfg).emit_svg is False

    def test_invalid_bool_names_key_and_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("emit.svg = true", "emit.svg = maybe"))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"{cfg}:8: key 'emit.svg' expects bool, got 'maybe'" in capsys.readouterr().err

    def test_working_margin_is_not_a_key(self, tmp_path, capsys):
        # the feasibility margin is a constant of energy, not a setting
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG + "solver.working_margin = 1e-9\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.cfg:9: key 'solver.working_margin'" in err

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

    def test_readme_quickstart_runs(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sample = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        exec(compile(sample, "README.md", "exec"), {})
        converged, energy = capsys.readouterr().out.splitlines()[0].split()
        assert converged == "True" and float(energy) == pytest.approx(-0.29558, abs=1e-5)

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
        # a lambda of allowed names passes the name check of nested code
        for expr in ("2*x + 1", "(lambda q: q * 2)(x) + 1"):
            p = tmp_path / "c.cfg"
            p.write_text("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\n"
                         "domain.n = 8\nnonlinearity.kind = prescribed\n"
                         f"nonlinearity.expression = {expr}\n")
            config = load_config(p)
            mesh = config.build_mesh()
            spec = config.build_spec(mesh)
            assert spec.evaluate(np.array([[0.5]]), np.zeros(1)) == pytest.approx(2.0)

    @pytest.mark.parametrize("expr, name", [
        ("__import__('os')", "__import__"),
        ("(lambda: [c.__name__ for c in ().__class__.__base__.__subclasses__()][:3])()"
         " and 0 * x + 1", "__class__"),
        ("[c.__class__ for c in x] and 0 * x + 1", "__class__"),
        ("(c.__class__ for c in x) and 0 * x + 1", "__class__"),
    ], ids=["import", "lambda", "comprehension", "generator"])
    def test_expression_rejects_unknown_names(self, tmp_path, monkeypatch, expr, name):
        # lambdas and comprehensions compile to nested code objects, whose
        # names are checked too, before anything is evaluated
        def never(*args):
            raise AssertionError("the expression was evaluated")

        monkeypatch.setattr(cli, "eval", never, raising=False)
        p = tmp_path / "c.cfg"
        p.write_text("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\n"
                     "domain.n = 8\nnonlinearity.kind = prescribed\n"
                     f"nonlinearity.expression = {expr}\n")
        with pytest.raises(ConfigError, match=f":6: expression uses unknown name '{name}'"):
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

    def test_nonconverged_exits_2_but_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_OUTER", 1)
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG)
        code = main(["solve", "--config", str(cfg)])
        assert code == 2
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_svg_of_a_2d_run_has_two_panels(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DISK_CONSTANT_CFG.format(refinement=2) + "emit.svg = on\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        doc = (tmp_path / "out" / "solution.svg").read_text()
        elements = len(load_config(cfg).build_mesh().elements)
        assert doc.count("<polygon ") == 2 * elements  # one fill per element and panel
        assert ">u</text>" in doc and ">zeta</text>" in doc

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG)
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "solution.csv").read_bytes()
                == (tmp_path / "b" / "solution.csv").read_bytes())
        assert ((tmp_path / "a" / "report.txt").read_bytes()
                == (tmp_path / "b" / "report.txt").read_bytes())


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--param", "n", "--values", "16"],
                                     ["mesh-info"], ["verify", "--solution", "s.csv"]],
                         ids=["solve", "sweep", "mesh-info", "verify"])
def test_no_subcommand_takes_a_seed(tmp_path, capsys, command):
    # neither the solver nor verify draws random numbers
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
    with pytest.raises(SystemExit) as info:
        main([*command, "--config", str(cfg), "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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

    def test_disk_constant_with_analytic(self, tmp_path, capsys):
        # the disk branch of the radial oracle
        cfg = write_cfg(tmp_path, DISK_CONSTANT_CFG.format(refinement=4))
        assert main(["solve", "--config", str(cfg)]) == 0
        code = main(["verify", "--config", str(cfg),
                     "--solution", str(tmp_path / "out" / "solution.csv")])
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert float(out["analytic_linf_error"]) == pytest.approx(1.6125731860533454e-4,
                                                                  rel=1e-6)
        assert out["passed.analytic"] == "true"

    def test_rectangle_has_no_analytic_check(self, tmp_path, capsys):
        # constant forcing has a closed form on an interval or a disk only
        cfg = write_cfg(tmp_path, "domain.kind = rectangle\ndomain.lx = 1\ndomain.ly = 1\n"
                                  "domain.nx = 4\ndomain.ny = 4\nnonlinearity.kind = constant\n"
                                  "nonlinearity.a = 1\noutput.dir = {out}\n")
        config = load_config(cfg)
        assert config.analytic_oracle(config.build_mesh()) is None
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["verify", "--config", str(cfg),
                     "--solution", str(tmp_path / "out" / "solution.csv")])
        out = capsys.readouterr().out
        assert code == 0 and "all_passed true" in out and "analytic" not in out

    def test_nonzero_boundary_value_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG.replace("domain.n = 64", "domain.n = 2"))
        sol = tmp_path / "lifted.csv"
        sol.write_text("index,x,u,zeta,residual\n0,-1,0.5,1,0\n1,0,0,1,0\n2,1,0,1,0\n")
        assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {sol}: nonzero value at a boundary node\n"

    @pytest.mark.parametrize("gap, code", [(1e-10, 2), (1e-13, 1)])
    def test_field_at_the_margin(self, tmp_path, capsys, gap, code):
        # |grad| = 1 - gap: inside the solver's margin verify gives a verdict
        # (failed checks, exit 2); outside it the input is rejected
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG.replace("domain.n = 64", "domain.n = 2"))
        sol = tmp_path / "steep.csv"
        sol.write_text(f"index,x,u,zeta,residual\n0,-1,0,1,0\n1,0,{1 - gap!r},1,0\n"
                       "2,1,0,1,0\n")
        assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert "all_passed false" in captured.out
        else:
            assert "|grad|" in captured.err

    @pytest.mark.parametrize("text, detail", [
        (None, "solution file not found"), ("", "empty solution file"),
        ("index,x,u,residual\n", "header must contain 'u' and 'zeta' columns"),
        ("index,x,zeta\n", "header must contain 'u' and 'zeta' columns"),
    ], ids=["missing", "empty", "no-zeta", "no-u"])
    def test_unreadable_solution_exits_1(self, tmp_path, capsys, text, detail):
        cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
        sol = tmp_path / "solution.csv"
        if text is not None:
            sol.write_text(text)
        assert main(["verify", "--config", str(cfg), "--solution", str(sol)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(sol) in err and detail in err

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
def test_inner_solve_failure_exits_2(tmp_path, capsys, monkeypatch, command):
    # one Newton step cannot solve the disk problem from the flux start
    monkeypatch.setattr(solver, "_MAX_INNER", 1)
    cfg = write_cfg(tmp_path, DISK_CONSTANT_CFG.format(refinement=3))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--param", "refinement", "--values", "2,3"]
    assert main(argv) == 2
    assert "inner solve failed" in capsys.readouterr().err
    if command == "solve":
        # the last iterate's outputs are written, with its verdict
        report = (tmp_path / "out" / "report.txt").read_text()
        assert report.startswith("converged false\n") and "\ninner_iterations 1\n" in report
        assert (tmp_path / "out" / "solution.csv").exists()
    else:
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["false", "false"]
        assert all("" not in row.split(",") for row in rows)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_converged_run_names_its_inner_failure(tmp_path, capsys, command):
    # at a = 1000 Newton on n = 64 stops at its roundoff floor above the
    # inner stop, and the certificate accepts the last iterate
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG.replace(
        "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
        "nonlinearity.kind = constant\nnonlinearity.a = 1000"))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--param", "n", "--values", "64"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"note: {'n=64: ' if command == 'sweep' else ''}inner solve failed: "
                          "Newton left the objective unchanged to roundoff for 3 steps")
    assert err.endswith(" (the run converged)\n") and "error" not in err
    report = tmp_path / "out" / ("n_64/report.txt" if command == "sweep" else "report.txt")
    assert report.read_text().startswith("converged true\n")


def test_band_solve_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a 1D Hessian that banded Cholesky rejects (LAPACK's info 2: the
    # second minor) fails the inner solve
    lapack = solver.get_lapack_funcs

    def failing(names, arrays):
        return tuple(lambda *args, f=f: (*f(*args)[:-1], 2) for f in lapack(names, arrays))
    monkeypatch.setattr(solver, "get_lapack_funcs", failing)
    cfg = write_cfg(tmp_path, PRESCRIBED_CFG)
    assert main(["solve", "--config", str(cfg)]) == 2
    assert ("inner solve failed: Hessian factorization failed: 2-th"
            in capsys.readouterr().err)
    # the flux start's K0 solve failed: the zero field is the last iterate
    assert (tmp_path / "out" / "report.txt").read_text().startswith("converged false\n")
    u, _ = read_solution_csv(tmp_path / "out" / "solution.csv", build_interval_mesh(-1, 1, 64))
    assert not u.any()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_escape_probes_exit_2(tmp_path, capsys, monkeypatch, command):
    # every escape probe from the stall at u = 0 of the disk needs more than
    # one Newton step from the flux start
    monkeypatch.setattr(solver, "_MAX_INNER", 1)
    cfg = write_cfg(tmp_path, DISK_CONSTANT_CFG.format(refinement=3).replace(
        "nonlinearity.kind = constant\nnonlinearity.a = 2", "nonlinearity.kind = neg_sign"))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--param", "refinement", "--values", "3"]
    assert main(argv) == 2
    assert "inner solve failed: no convergence in 1 Newton" in capsys.readouterr().err


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
                                          ("log(abs(x+0.5))", "node 2 [-0.5]"),
                                          ("1/0", "cannot be evaluated"),
                                          ("1j*x", "is not real")])
def test_unusable_expression_exits_1(tmp_path, capsys, command, expr, detail):
    # x = 0 and x = -0.5 are interior nodes, where 1/x and log(abs(x+0.5))
    # are infinite
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


@pytest.mark.parametrize("domain, expr", [
    ("domain.kind = interval\ndomain.a = -1\ndomain.b = 1\ndomain.n = 8\n", "log(x+1)"),
    ("domain.kind = disk\ndomain.radius = 1\ndomain.refinement = 2\n", "1/(r < 0.9)"),
], ids=["interval-log", "disk2"])
def test_forcing_infinite_only_on_the_boundary_is_solved(tmp_path, capsys, domain, expr):
    # log(x+1) is -inf at the boundary node x = -1; 1/(r < 0.9) is 1 inside
    # the disk and inf on its rim.  The forcing there never enters the
    # problem: the run solves, its outputs are finite and verify passes
    text = domain + "nonlinearity.kind = prescribed\noutput.dir = {out}\n"
    cfg = write_cfg(tmp_path, text + f"nonlinearity.expression = {expr}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["verify", "--config", str(cfg), "--solution", str(out / "solution.csv")]) == 0
    capsys.readouterr()
    config = load_config(cfg)
    mesh = config.build_mesh()
    e = config.spec.evaluate(mesh.nodes, None)
    assert config.build_spec(mesh).growth_c == np.abs(e[mesh.interior_nodes]).max()
    table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table))
    if expr.startswith("1/"):  # the same u as the constant forcing 1
        ref = write_cfg(tmp_path, text + "nonlinearity.value = 1\n", name="ref.cfg", out="ref")
        assert main(["solve", "--config", str(ref)]) == 0
        u = np.loadtxt(tmp_path / "ref" / "solution.csv", delimiter=",", skiprows=1)[:, 3]
        assert np.array_equal(table[:, 3], u)


POWER_CFG = PRESCRIBED_CFG.replace(
    "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
    "nonlinearity.kind = power\nnonlinearity.c = 1\nnonlinearity.r = 0.5")
STEP_CFG = PRESCRIBED_CFG.replace(
    "nonlinearity.kind = prescribed\nnonlinearity.value = 1.0",
    "nonlinearity.kind = step\nnonlinearity.a = nan\nnonlinearity.b = 1")


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
@pytest.mark.parametrize("text, detail", [
    (PRESCRIBED_CFG + "solver.max_inner = 0\n", ":8: key 'solver.max_inner' is unknown"),
    (POWER_CFG, ":7: power exponent must be > 1"),
    (PRESCRIBED_CFG + "nonlinearity.growth_q = 0.5\n", ":8: growth_q must be > 1"),
    (PRESCRIBED_CFG + "nonlinearity.growth_c = -1\n", ":8: growth_c must be >= 0"),
    (PRESCRIBED_CFG + "solver.inner_tol = nan\n", ":8: key 'solver.inner_tol' is unknown"),
    (PRESCRIBED_CFG + "solver.outer_tol = -inf\n", ":8: key 'solver.outer_tol' must be finite"),
    (STEP_CFG, ":6: key 'nonlinearity.a' must be finite"),
    (PRESCRIBED_CFG + " = 1\n", ":8: empty key"),
    (PRESCRIBED_CFG.replace("value = 1.0", "expression = x +"),
     ":6: bad expression 'x +': invalid syntax"),
], ids=["max_inner", "power-r", "growth_q", "growth_c", "inner_tol-nan", "outer_tol-inf",
        "step-a-nan", "empty-key", "expression-syntax"])
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
        ("n", "16,0,32", ":--values: key 'domain.n': need at least one element, got n=0"),
    ], ids=["n-abc", "outer_tol-negative", "outer_tol-nan", "rule-top", "refinement-interval",
            "n-zero"])
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

    def test_unconverged_runs_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_OUTER", 1)
        cfg = write_cfg(tmp_path, NEG_SIGN_CFG.replace("domain.n = 128", "domain.n = 64"))
        code = main(["sweep", "--config", str(cfg), "--param", "n",
                     "--values", "16,32", "--out", str(tmp_path / "sw")])
        assert code == 2
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",false") for line in lines[1:])

    def test_inner_failure_keeps_the_other_rows(self, tmp_path, capsys, monkeypatch):
        # at a = 30, 8 Newton steps from the flux start solve refinement 3
        # (7 steps) but not refinement 2 (9)
        monkeypatch.setattr(solver, "_MAX_INNER", 8)
        cfg = write_cfg(tmp_path, DISK_CONSTANT_CFG.format(refinement=2).replace(
            "nonlinearity.a = 2", "nonlinearity.a = 30"))
        code = main(["sweep", "--config", str(cfg), "--param", "refinement",
                     "--values", "3,2", "--out", str(tmp_path / "sw")])
        assert code == 2
        assert "refinement=2: inner solve failed" in capsys.readouterr().err
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("3,") and lines[1].endswith(",true")
        # the failed run's row is full, its 8 Newton steps counted
        value, energy, error, outer, inner, converged = lines[2].split(",")
        assert (value, outer, inner, converged) == ("2", "1", "8", "false")
        assert math.isfinite(float(energy)) and math.isfinite(float(error))

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

    def test_interior_node_of_no_element_exits_1(self, tmp_path, capsys):
        # node 3 at x = 5 belongs to no element: mesh-info and solve name it
        mesh = tmp_path / "m.txt"
        mesh.write_text("dim 1\nnodes 4\n-1\n0\n1\n5\nelements 2\n0 1\n1 2\nboundary\n0 2\n")
        cfg = write_cfg(tmp_path, "domain.kind = file\ndomain.path = m.txt\n"
                                  "nonlinearity.kind = neg_sign\noutput.dir = {out}\n")
        for argv in (["mesh-info", "--mesh", str(mesh)], ["solve", "--config", str(cfg)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {mesh}: interior node 3 at [5.0] belongs to "
                                    "no element\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mesh_without_nodes_exits_1(self, tmp_path, capsys, dim):
        mesh = tmp_path / "m.txt"
        mesh.write_text(f"dim {dim}\nnodes 0\nelements 0\nboundary\n")
        cfg = write_cfg(tmp_path, "domain.kind = file\ndomain.path = m.txt\n"
                                  "nonlinearity.kind = neg_sign\noutput.dir = {out}\n")
        for argv in (["mesh-info", "--mesh", str(mesh)], ["mesh-info", "--config", str(cfg)],
                     ["solve", "--config", str(cfg)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {mesh}: the mesh has no nodes\n"
        assert not (tmp_path / "out").exists()

    def test_part_without_boundary_exits_1_in_solve_and_sweep(self, tmp_path, capsys):
        # two unit squares, the one at x = 3 with no node marked: the zero
        # boundary condition leaves it free and its energy has no minimum;
        # mesh-info still reads the mesh, with no uniform bound
        square = build_rectangle_mesh(1.0, 1.0, 4, 4)
        n = len(square.nodes)
        write_mesh(Mesh(np.vstack([square.nodes, square.nodes + [3.0, 0.0]]),
                        np.vstack([square.elements, square.elements + n]),
                        square.boundary_nodes), tmp_path / "m.txt")
        cfg = write_cfg(tmp_path, "domain.kind = file\ndomain.path = m.txt\n"
                                  "nonlinearity.kind = constant\nnonlinearity.a = 1\n"
                                  "output.dir = {out}\n")
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        info = capsys.readouterr().out
        assert f"nodes {2 * n}\n" in info and "inradius inf\n" in info
        message = (f"error: node {n} at [3.0, 0.0] is in a part of the mesh with no "
                   "boundary node\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "out").exists()
        assert main(["sweep", "--config", str(cfg), "--param", "selection_rule",
                     "--values", "mid"]) == 1
        assert capsys.readouterr() == ("", message)

    def test_mesh_without_elements_solves_to_zero(self, tmp_path, capsys):
        # every node is a boundary node: h is 0 and u = 0 is the solution
        mesh = tmp_path / "m.txt"
        mesh.write_text("dim 2\nnodes 3\n0 0\n1 0\n0 1\nelements 0\nboundary\n0 1 2\n")
        cfg = write_cfg(tmp_path, "domain.kind = file\ndomain.path = m.txt\n"
                                  "nonlinearity.kind = neg_sign\noutput.dir = {out}\n")
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        info = capsys.readouterr().out
        assert "elements 0\n" in info and "mesh_size 0\n" in info
        assert main(["solve", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        u, zeta = cli.read_solution_csv(tmp_path / "out" / "solution.csv",
                                        load_config(cfg).build_mesh())
        assert np.array_equal(u, np.zeros(3)) and np.array_equal(zeta, np.zeros(3))
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "converged true\n" in report and "mesh_size 0.0000000000000000e+00\n" in report
        assert main(["verify", "--config", str(cfg),
                     "--solution", str(tmp_path / "out" / "solution.csv")]) == 0
        assert "all_passed true" in capsys.readouterr().out

    @pytest.mark.parametrize("body, detail", [
        ("dim 1\nnodes -1\n", "2: bad count '-1'"),
        ("dim 4\n", "1: unsupported dim 4"),
        ("dim 1\nnodes 3\n-1\ninf\n1\n", "4: non-finite coordinate in 'inf'"),
        # its energy is unbounded below: solving it reported nonsense as converged
        ("dim 2\nnodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\nboundary\n",
         " the mesh has no boundary node"),
    ], ids=["negative_count", "dim", "non_finite", "no_boundary"])
    def test_mesh_file_errors_name_the_file_and_line(self, tmp_path, capsys, body, detail):
        mesh = tmp_path / "m.txt"
        mesh.write_text(body)
        cfg = write_cfg(tmp_path, "domain.kind = file\ndomain.path = m.txt\n"
                                  "nonlinearity.kind = neg_sign\noutput.dir = {out}\n")
        for argv in (["mesh-info", "--mesh", str(mesh)], ["mesh-info", "--config", str(cfg)],
                     ["solve", "--config", str(cfg)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {mesh}:{detail}\n"
        assert not (tmp_path / "out").exists()
