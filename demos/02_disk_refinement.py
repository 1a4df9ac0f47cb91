#!/usr/bin/env python3
"""Refinement study on the unit disk against the radial closed form.

Solves the prescribed problem with e = 2 on midpoint-refined disk meshes and
reports mesh statistics, the max-norm error at the nodes, and the error
ratio between consecutive levels.  Also writes `disk_solution.svg` showing
the solution as a flat-shaded triangle fill.
"""

import numpy as np

from minkcurv import analytic_radial, build_disk_mesh, inradius, solve_prescribed
from minkcurv.svg import field_svg_2d

A = 2.0
exact = analytic_radial(A, 1.0, 2)

print(f"disk refinement study, e = {A}, radius 1")
print(f"{'level':>5} {'nodes':>7} {'area':>9} {'inradius':>9} {'Linf error':>12} {'ratio':>7}")
prev = None
for level in range(2, 6):
    mesh = build_disk_mesh(1.0, level)
    u = solve_prescribed(mesh, A)
    err = float(np.abs(u.values - exact(mesh.nodes)).max())
    ratio = "" if prev is None else f"{err / prev:7.3f}"
    print(f"{level:5d} {len(mesh.nodes):7d} {mesh.volume():9.5f} "
          f"{inradius(mesh):9.5f} {err:12.3e} {ratio:>7}")
    prev = err

print()
print("areas approach pi = 3.14159 (inscribed polygon) and errors shrink by")
print("roughly 4x per level: boundary chords and interior interpolation both")
print("contribute at second order")

mesh = build_disk_mesh(1.0, 4)
u = solve_prescribed(mesh, A)
with open("disk_solution.svg", "w") as fh:
    fh.write(field_svg_2d(mesh, u.values))
print("wrote disk_solution.svg")
