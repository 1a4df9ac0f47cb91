"""`minkcurv solve` outputs pinned by sha256.

A change that leaves the solver's behaviour as it is must leave these bytes
as they are: the solution CSV and the report carry every digit of `u`,
`zeta`, the residuals, the energies and the iteration counts.  The cases
cover the 1D band step (interval `step`), a kink-free 1D run (interval
`neg_sign`) and the 2D K0-preconditioned CG with a kinked stage's held
factor (disk `step`).  The hashes were taken with numpy 2.4 and scipy 1.17
on x86-64; other builds of the linear algebra may round differently.
"""

import hashlib

import pytest

from minkcurv.cli import main

INTERVAL = "domain.kind = interval\ndomain.a = -1\ndomain.b = 1\ndomain.n = {n}\n"
STEP = "nonlinearity.kind = step\nnonlinearity.a = -1\nnonlinearity.b = 1\nnonlinearity.s0 = {s0}\n"

GOLDEN = {
    "interval64-step": (
        INTERVAL.format(n=64) + STEP.format(s0=0.25),
        "03a5e9610d24afccf13df0f77b8a35afbc7c3530936126408215263892915022",
        "c0d860c294c35ceef808acb7adf458ab6f2bed46336cf137f1e1ee7083fff7b9"),
    "interval256-neg_sign": (
        INTERVAL.format(n=256) + "nonlinearity.kind = neg_sign\n",
        "83ebaf555d29f8919ebd61a770809fcc0486fc6894bcf679ceba42dd355d5b6e",
        "4f1fe9c4f0dc63898df022e48ffb97a5db7f0dea523301029e9d47e045846e27"),
    "disk3-step": (
        "domain.kind = disk\ndomain.radius = 1\ndomain.refinement = 3\n" + STEP.format(s0=0.1),
        "b8daa8861edc748c4454495d2b8efc1dcc0c58b6ddcc2b88ad8e8383fcd7c071",
        "04f3fa605d3c7f648038a7c4fc4e6a19b6c217a1798b648a6315eeb46d300bcb"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_solve_outputs_are_byte_identical(tmp_path, capsys, case):
    config, solution_sha, report_sha = GOLDEN[case]
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    digest = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
              for name in ("solution.csv", "report.txt")}
    assert digest == {"solution.csv": solution_sha, "report.txt": report_sha}
