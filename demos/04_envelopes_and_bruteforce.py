#!/usr/bin/env python3
"""Envelope brackets, growth checks, and the tiny-mesh brute-force oracle.

Walks through the pointwise machinery for discontinuous rules: exact
envelope brackets from declared jumps, the growth-bound check, and finally
an exhaustive grid search on a four-element mesh that confirms the solver's
energy is the global minimum.
"""

import numpy as np

from minkcurv import (NonlinearitySpec, bracket, brute_force_minimize,
                      build_interval_mesh, growth_check, heaviside, neg_sign,
                      primitive, solve_inclusion)

x = np.zeros(1)

print("exact envelope brackets (declared jumps):")
for spec, s in ((heaviside(), 0.0), (heaviside(), 0.3), (neg_sign(), 0.0),
                (neg_sign(), -0.4)):
    br = bracket(spec, x, s)
    print(f"  {spec.name:10s} at s={s:+.1f}: [{br.lo:+.1f}, {br.hi:+.1f}]")

print()
print("primitives F(s) = integral of f from 0 to s:")
print(f"  neg_sign : F(0.5) = {primitive(neg_sign(), x, 0.5):+.4f}  (= -|s|)")
print(f"  heaviside: F(1.0) = {primitive(heaviside(), x, 1.0):+.4f}  (= s+ part)")

print()
print("growth-bound check |f| <= C (1 + |s|^(q-1)):")
box = ((np.array([-1.0]), np.array([1.0])), (-2.0, 2.0))
rep = growth_check(neg_sign(), box, 200)
print(f"  neg_sign with C=1, q=2: max ratio {rep.max_ratio:.3f}, passed={rep.passed}")
cubic = NonlinearitySpec(evaluate=lambda xx, s: s ** 3, jumps=(),
                         growth_c=1.0, growth_q=2.0)
rep = growth_check(cubic, box, 500)
print(f"  s^3 with C=1, q=2:      max ratio {rep.max_ratio:.3f}, passed={rep.passed} "
      f"(fails beyond |s| = 1.325)")

print()
print("brute force on the four-element mesh (three interior nodes):")
mesh = build_interval_mesh(-1.0, 1.0, 4)
values, brute_energy = brute_force_minimize(mesh, neg_sign(), 0.01)
res = solve_inclusion(mesh, neg_sign())
print(f"  grid minimizer values : {values}")
print(f"  grid minimum energy   : {brute_energy:+.6f}")
print(f"  solver energy         : {res.energy:+.6f}")
print(f"  gap (solver - grid)   : {res.energy - brute_energy:+.2e}")
print("  the solver lands at (or slightly below) the 0.01-quantized minimum")
