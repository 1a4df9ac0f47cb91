"""`minkcurv solve` outputs pinned by sha256.

A change that leaves the solver's behaviour as it is must leave these bytes
as they are: the solution CSV and the report carry every digit of `u`,
`zeta`, the residuals, the energies and the iteration counts.  The cases
cover the 1D band step (interval `step`), a kink-free 1D run (interval
`neg_sign`), the 2D K0-preconditioned CG with a kinked stage's held
factor (disk `step`) and a kink-free 2D run, whose CG on K0 applies the
Hessian unassembled (disk `constant`).  A last hash pins the benchmark's
own path, `solve_prescribed` on a disk from the flux start.  The hashes were
taken with numpy 2.4 and scipy 1.17 on x86-64; other builds of the linear
algebra may round differently.
"""

import hashlib

import pytest

from minkcurv import build_disk_mesh, solve_prescribed
from minkcurv.cli import main

INTERVAL = "domain.kind = interval\ndomain.a = -1\ndomain.b = 1\ndomain.n = {n}\n"
STEP = "nonlinearity.kind = step\nnonlinearity.a = -1\nnonlinearity.b = 1\nnonlinearity.s0 = {s0}\n"

GOLDEN = {
    "interval64-step": (
        INTERVAL.format(n=64) + STEP.format(s0=0.25),
        "03a5e9610d24afccf13df0f77b8a35afbc7c3530936126408215263892915022",
        "da530bfe2228d0862acf87663a667b33dd8a9b0ab2895f6a164b70b533cf966a"),
    "interval256-neg_sign": (
        INTERVAL.format(n=256) + "nonlinearity.kind = neg_sign\n",
        "83ebaf555d29f8919ebd61a770809fcc0486fc6894bcf679ceba42dd355d5b6e",
        "4f1fe9c4f0dc63898df022e48ffb97a5db7f0dea523301029e9d47e045846e27"),
    "disk3-step": (
        "domain.kind = disk\ndomain.radius = 1\ndomain.refinement = 3\n" + STEP.format(s0=0.1),
        "73e2f4111874fda754770f0bd3b36784a08320e8f30401bb55e7c327092a5814",
        "ccfef8e1a680f6838e39477970edbe5ed3c924d4079f12aef61f2312324a138e"),
    "disk4-constant2": (
        "domain.kind = disk\ndomain.radius = 1\ndomain.refinement = 4\n"
        "nonlinearity.kind = constant\nnonlinearity.a = 2\n",
        "8cad5af89e4672c8a4361c973e7f089d587ee6dfb7e3d742ba314983bfc82a1d",
        "f6581f747b9586331edc27e4609e3b0053af2d9b42b61d140a4df41161c897e5"),
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


def test_prescribed_solution_is_bit_identical():
    # disk-5 at a = 2.4, inside the right-hand sides of the `newton_disk`
    # benchmark: the flux start's two K0 solves, then three Newton steps
    # whose CG applies the Hessian unassembled
    values = solve_prescribed(build_disk_mesh(1.0, 5), 2.4).values
    assert (hashlib.sha256(values.tobytes()).hexdigest()
            == "9b63857bfe1071c2fd0b67914a492db2dd66c9c7bd9c04b78b98e1f5ff233bf0")
