"""The reference probes that benchmark times are scaled by.

The host's speed swings by tens of per cent from one minute to the next
(other tenants), so a raw time says as much about the host as about
minkcurv.  A fixed probe timed on the same core next to the measured work
reads how much slower than usual the host runs at that moment, and every
gated time is divided by that; see DESIGN.md.

Load from other tenants does not slow all work alike, so a probe is made of
the kinds of work the workload does itself:

- `_mixed`: an interpreter loop, a sparse LU factorization small enough for
  the caches, and a streaming array operation larger than them.  Between
  quiet and loaded moments these slow by about 1.5x, 1.65x and 2.1x, the
  numpy and SuperLU stages of `newton_disk` and `attracting_roundtrip` by
  1.8x; the mix follows them.
- `_quadrature`: Gauss quadrature of a Python lambda over many panels, the
  call-heavy interpreted work of the per-node primitives that take nearly
  all of `repelling_step`'s time.

No probe calls minkcurv, so a faster or slower package moves the scaled
times in proportion.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_GRID = 40  # five-point Laplacian on a 40 x 40 grid: 1600 unknowns
_LAPLACIAN = sp.diags(
    [4.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, _GRID, -_GRID],
    shape=(_GRID * _GRID, _GRID * _GRID), format="csc")
_STREAM = [np.linspace(0.0, 1.0, 1 << 20) for _ in range(3)]
STREAM_MB = sum(a.nbytes for a in _STREAM) / 2**20  # 24 MB, resident from import on

# 7-point Gauss-Legendre rule on [-1, 1]
_NODES = (-0.9491079123427585, -0.7415311855993945, -0.4058451513773972, 0.0,
          0.4058451513773972, 0.7415311855993945, 0.9491079123427585)
_WEIGHTS = (0.1294849661688697, 0.2797053914892766, 0.3818300505051189,
            0.4179591836734694, 0.3818300505051189, 0.2797053914892766,
            0.1294849661688697)


def _gauss(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(w * f(mid + half * t) for w, t in zip(_WEIGHTS, _NODES))


def _panels(f, a, b, depth):
    if depth == 0:
        return _gauss(f, a, b)
    mid = 0.5 * (a + b)
    return _panels(f, a, mid, depth - 1) + _panels(f, mid, b, depth - 1)


def _mixed():
    x = 0.0
    for i in range(20_000):
        x += i * 0.5
    splu(_LAPLACIAN)
    a, b, out = _STREAM
    np.add(a, b, out=out)
    np.multiply(out, a, out=out)


def _quadrature():
    _panels(lambda s: math.tanh(0.3 * s) + math.exp(-s * s), 0.0, 3.0, 9)  # 512 panels


class Probe:
    """A probe made of parts, each a (work, quiet time) pair: the time the
    work takes on the reference box in a quiet stretch.  `read()` returns
    how much slower than that the host runs it now, the geometric mean over
    the parts (1.0 = quiet reference box)."""

    def __init__(self, *parts):
        self.parts = parts

    def read(self) -> float:
        slowness = 1.0
        for work, quiet_s in self.parts:
            start = time.perf_counter()
            work()
            slowness *= (time.perf_counter() - start) / quiet_s
        return slowness ** (1.0 / len(self.parts))

    def reads(self, n: int = 3) -> list:
        return [self.read() for _ in range(n)]


def at_reference_speed(seconds: float, readings) -> float:
    """`seconds` measured while a probe read `readings`, scaled to the quiet
    reference box."""
    return seconds / statistics.median(readings)


# Quiet times on the reference box (2-vCPU Intel Xeon VM, Python 3.11).
MIXED = Probe((_mixed, 7.0e-3))
# Set-up (interpreter start, imports, input build) is scaled by MIXED on
# every workload.  repelling_step's stages lie between the two kinds: in a
# heavily loaded stretch they slowed 1.9x while _mixed slowed 1.46x, in a
# milder one _quadrature alone over-corrected them by about 8 %.
PROBES = {"newton_disk": MIXED,
          "repelling_step": Probe((_mixed, 7.0e-3), (_quadrature, 1.2e-3)),
          "attracting_roundtrip": MIXED}
