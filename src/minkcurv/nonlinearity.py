"""Pointwise forcing rules f(x, s), their envelopes, primitives, and selections.

A `NonlinearitySpec` bundles a pointwise evaluator with its declared jumps
(level, one-sided limits; an empty tuple for a rule continuous in s), the
growth constants (C, q) bounding |f(x,s)| <= C*(1 + |s|^(q-1)), and
optionally the primitive F in closed form (every catalog rule has one;
other rules are integrated by adaptive quadrature to the relative
tolerance `_REL_TOL`).  Rules are evaluated on whole node arrays.  The
lower/upper envelopes are exact from the declared jumps: a jump that is not
declared is not seen, so f is taken as continuous wherever none is
declared.  `_REL_TOL`, with the quadrature's bounds `_MAX_DEPTH` and
`_MAX_PANELS`, is fixed: no function takes a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(7)
_REL_TOL = 1e-10  # a quadrature panel's error bound, relative to its piece
_MAX_DEPTH, _MAX_PANELS = 40, 1 << 18  # halvings of a panel; open panels of a level


class QuadratureError(ArithmeticError):
    """Primitive quadrature failed to converge; carries the achieved tolerance."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class ParameterError(ValueError):
    """A rule parameter out of range; `key` is the parameter's name."""

    def __init__(self, message, key):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class Jump:
    """One declared discontinuity of f(x, .) at the level s = level(x).

    Each callable takes a node array of shape (K, d) and returns a (K,)
    array; a scalar return is broadcast to every node.  `left` and `right`
    are the one-sided limits of f(x, .) from below and above the level.
    The level rule must be continuous in x.
    """

    level: Callable[[np.ndarray], np.ndarray]
    left: Callable[[np.ndarray], np.ndarray]
    right: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Bracket:
    """Envelope pair [lo, hi] at a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"bracket lo={self.lo} exceeds hi={self.hi}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """A measurable forcing rule with growth constants and jump metadata.

    Fields
    ------
    evaluate : callable (nodes, values) -> array
        Pointwise value of f at K points at once: `nodes` has shape (K, d),
        `values` shape (K,), the result shape (K,); a scalar result is
        broadcast to every point.  Need not be meaningful exactly on a
        declared jump level.
    jumps : tuple of Jump
        Declared discontinuities in s; an empty tuple (the default)
        declares f continuous in s.  Anything else raises ParameterError.
    growth_c, growth_q : float
        Constants of the growth bound |f(x,s)| <= C*(1 + |s|^(q-1)).
    name : str
        Display name used by reports.
    exact_primitive : callable (nodes, values) -> array, or None
        Closed form of the primitive F for a whole node array: `nodes` has
        shape (K, d), `values` shape (K,), the result shape (K,).  None
        (the default) makes `primitive` integrate f numerically.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jumps: tuple = ()
    growth_c: float = 1.0
    growth_q: float = 2.0
    name: str = "custom"
    exact_primitive: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0 <= self.growth_c < np.inf:
            raise ParameterError(f"growth_c must be >= 0 and finite, got {self.growth_c}",
                                 "growth_c")
        if not 1 < self.growth_q < np.inf:
            raise ParameterError(f"growth_q must be > 1 and finite, got {self.growth_q}",
                                 "growth_q")
        if not (isinstance(self.jumps, (tuple, list))
                and all(isinstance(j, Jump) for j in self.jumps)):
            raise ParameterError(f"jumps must be a tuple of Jump, got {self.jumps!r}", "jumps")
        object.__setattr__(self, "jumps", tuple(self.jumps))


def _per_node(value, k: int) -> np.ndarray:
    """A rule's return value as a fresh (k,) float array; a scalar is broadcast."""
    return np.full(k, value, dtype=float)


def _one_row(x, s):
    """The point (x, s) as a (1, d) node array and a (1,) value array."""
    return np.asarray(x, dtype=float).reshape(1, -1), np.array([float(s)])


def jump_limits(spec: NonlinearitySpec, nodes):
    """(level, left, right) of the declared jumps at nodes (K, d), each (J, K);
    J = 0 for a continuous rule.  The only caller of the jump rules."""
    k = len(nodes)
    limits = np.array([[_per_node(rule(nodes), k) for rule in (j.level, j.left, j.right)]
                       for j in spec.jumps]).reshape(len(spec.jumps), 3, k)
    return limits.transpose(1, 0, 2)


def envelopes(spec: NonlinearitySpec, nodes, values, window: float):
    """Envelope arrays (lo, hi) at K points: nodes (K, d), values (K,).

    The only bracket code: `bracket` and `selection` are its one-row and
    zero-window cases.  The brackets are exact from the declared jumps: on
    a jump level the ordered pair of one-sided limits, elsewhere the
    pointwise value twice.  Where a value lies within `window` of a declared
    jump level the pair is widened to contain that jump's whole interval;
    `window=0.0` gives the plain brackets.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    f = _per_node(spec.evaluate(nodes, values), len(values))
    level, left, right = jump_limits(spec, nodes)
    # f itself unless s is exactly on a level, and the limits of each jump near s
    on = values == level
    use = np.vstack([~on.any(axis=0), on | (np.abs(values - level) <= window)])
    return (np.where(use, np.vstack([f, np.minimum(left, right)]), np.inf).min(axis=0),
            np.where(use, np.vstack([f, np.maximum(left, right)]), -np.inf).max(axis=0))


def bracket(spec: NonlinearitySpec, x, s: float) -> Bracket:
    """Envelope pair [f_lower, f_upper] at one point (x, s).

    The one-row case of `envelopes` with a zero window.
    """
    lo, hi = envelopes(spec, *_one_row(x, s), 0.0)
    return Bracket(float(lo[0]), float(hi[0]))


def selection(spec: NonlinearitySpec, nodes, values, rule: str = "mid"):
    """A value inside the envelope bracket at each point.

    `nodes` (K, d) and `values` (K,) give a (K,) array; a single point x
    and a real s give a float.  Off jump levels this is the pointwise
    value.  Exactly at a declared jump level the `rule` decides: "mid"
    (default) takes the bracket midpoint, "lo"/"hi" take the endpoints.
    """
    if rule not in ("lo", "mid", "hi"):
        raise ValueError(f"unknown selection rule {rule!r}")
    point = np.ndim(values) == 0
    if point:
        nodes, values = _one_row(nodes, values)
    lo, hi = envelopes(spec, nodes, values, 0.0)
    sel = lo if rule == "lo" else hi if rule == "hi" else 0.5 * (lo + hi)
    return float(sel[0]) if point else sel


def _gauss(spec: NonlinearitySpec, nodes, lo, hi):
    """7-point Gauss rule of f(x_p, .) on [lo, hi] for all panels in one
    `evaluate` call: nodes (P, d), lo and hi (P, n) for n panels a point."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = mid[..., None] + half[..., None] * _GAUSS_X
    f = _per_node(spec.evaluate(np.repeat(nodes, t[0].size, axis=0), t.ravel()), t.size)
    return half * (f.reshape(t.shape) * _GAUSS_W).sum(axis=-1)


def primitive_array(spec: NonlinearitySpec, nodes, values) -> np.ndarray:
    """F(x_k, s_k), the integral of f(x_k, .) from 0 to s_k, at nodes (K, d)
    and values (K,): the only primitive code, `primitive` is its one-row case.

    The spec's `exact_primitive` when it has one (every catalog rule does).
    Otherwise the pieces of (0, s) between declared jump levels, of all
    points at once, are integrated by adaptive 7-point Gauss panels: one
    `evaluate` call per level, halving each panel whose halves differ from
    it by more than `_REL_TOL` of its piece.  `QuadratureError` after
    `_MAX_DEPTH` halvings, beyond `_MAX_PANELS` open panels, or for a
    non-finite s or f.  For s < 0 the result is minus the integral over (s, 0).
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if spec.exact_primitive is not None:
        return np.asarray(spec.exact_primitive(nodes, values), dtype=float)
    a, b = np.minimum(values, 0.0), np.maximum(values, 0.0)
    cuts = np.sort(np.vstack([a, np.clip(jump_limits(spec, nodes)[0], a, b), b]), axis=0)
    row, piece = np.nonzero(~(cuts[1:] <= cuts[:-1]).T)  # a NaN s keeps its pieces
    lo, hi = cuts[piece, row], cuts[piece + 1, row]
    total = np.zeros(len(values))
    if not row.size:  # every s is 0
        return total
    whole = coarse = _gauss(spec, nodes[row], lo[:, None], hi[:, None])[:, 0]
    floor = 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack([lo, mid]), np.column_stack([mid, hi])
        halves = _gauss(spec, nodes[row], lo, hi)
        both = halves[:, 0] + halves[:, 1]
        err = np.abs(both - coarse)
        scale = np.maximum(np.maximum(np.abs(both), np.abs(whole)), 1e-300)
        done = (err <= _REL_TOL * scale) | (hi[:, 1] - lo[:, 0] < floor)
        total += np.bincount(row[done], both[done], len(values))
        split = ~done
        if not split.any():
            break
        if depth == _MAX_DEPTH or 2 * split.sum() > _MAX_PANELS or np.isnan(err).any():
            raise QuadratureError(f"quadrature stalled at depth {depth}, {2 * split.sum()} "
                                  "panels open", achieved=float((err / scale)[split].max()))
        row, whole, floor = (np.repeat(v[split], 2) for v in (row, whole, floor))
        lo, hi, coarse = lo[split].ravel(), hi[split].ravel(), halves[split].ravel()
    return np.where(values < 0.0, -total, total)


def primitive(spec: NonlinearitySpec, x, s: float) -> float:
    """F(x, s) at one point: the one-row case of `primitive_array` (to `_REL_TOL`)."""
    return float(primitive_array(spec, *_one_row(x, s))[0])


@dataclass(frozen=True)
class GrowthReport:
    """Result of sampling the growth bound |f| <= C*(1 + |s|^(q-1))."""

    max_ratio: float
    passed: bool
    worst_x: np.ndarray = field(default=None)
    worst_s: float = 0.0
    count: int = 0


def growth_check(spec: NonlinearitySpec, sample_box, count: int, seed: int = 0) -> GrowthReport:
    """Sample (x, s) pairs and report max |f| / (C*(1 + |s|^(q-1))).

    `sample_box` is ((x_lo, x_hi), (s_lo, s_hi)) with x_lo/x_hi arrays (or
    scalars in 1D).  Passing means the ratio never exceeded one.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    (x_lo, x_hi), (s_lo, s_hi) = sample_box
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
    rng = np.random.default_rng(seed)
    c, q = spec.growth_c, spec.growth_q
    s_fixed = ([s_lo, s_hi, 0.0] if s_lo <= 0.0 <= s_hi else [s_lo, s_hi])[:count]
    # the stream of a one-point-at-a-time loop: d uniforms for each x, then
    # one for s once the fixed values of s are used up
    d = np.broadcast_shapes(x_lo.shape, x_hi.shape)[0]
    head = rng.random((len(s_fixed), d))
    tail = rng.random((count - len(s_fixed), d + 1))
    x = x_lo + (x_hi - x_lo) * np.vstack([head, tail[:, :d]])
    s = np.concatenate([s_fixed, s_lo + (s_hi - s_lo) * tail[:, d]])
    denom = c * (1.0 + np.abs(s) ** (q - 1.0))
    f = np.abs(_per_node(spec.evaluate(x, s), count))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(f == 0.0, 0.0, f / denom)  # f > 0 over denom 0 is inf
    worst = int(np.argmax(ratio))
    return GrowthReport(max_ratio=float(ratio[worst]), passed=bool(ratio[worst] <= 1.0),
                        worst_x=x[worst], worst_s=float(s[worst]), count=count)


# -- catalog -------------------------------------------------------------------


def constant(a: float) -> NonlinearitySpec:
    """f(x, s) = a.  Continuous; trivial growth constants."""
    return NonlinearitySpec(evaluate=lambda x, s: a, jumps=(),
                            growth_c=abs(a), growth_q=2.0, name=f"constant({a:g})",
                            exact_primitive=lambda nodes, s: a * s)


def neg_sign() -> NonlinearitySpec:
    """f(s) = -sign(s): the attracting discontinuous forcing with jump at 0."""
    return NonlinearitySpec(
        evaluate=lambda x, s: -np.sign(s),
        jumps=(Jump(level=lambda x: 0.0, left=lambda x: 1.0, right=lambda x: -1.0),),
        growth_c=1.0, growth_q=2.0, name="neg_sign",
        exact_primitive=lambda nodes, s: -np.abs(s))


def step(a: float, b: float, s0: float = 0.0) -> NonlinearitySpec:
    """f(s) = a for s < s0 and b for s > s0, with exact jump metadata."""
    def ev(x, s):
        return np.where(s < s0, a, np.where(s > s0, b, 0.5 * (a + b)))

    def prim(nodes, s):
        # a over the part of (0, s) below s0, b over the part above it
        return (a * (np.minimum(s, s0) - min(0.0, s0))
                + b * (np.maximum(s, s0) - max(0.0, s0)))

    jumps = () if a == b else (
        Jump(level=lambda x: s0, left=lambda x: a, right=lambda x: b),)
    return NonlinearitySpec(evaluate=ev, jumps=jumps,
                            growth_c=max(abs(a), abs(b)), growth_q=2.0,
                            name=f"step({a:g},{b:g},{s0:g})", exact_primitive=prim)


def heaviside() -> NonlinearitySpec:
    """f(s) = 0 for s < 0 and 1 for s > 0."""
    spec = step(0.0, 1.0, 0.0)
    return replace(spec, growth_c=1.0, growth_q=2.0, name="heaviside")


def power(c: float, r: float) -> NonlinearitySpec:
    """f(s) = c * |s|^(r-1) * sign(s), continuous for r > 1."""
    if not r > 1:
        raise ParameterError(f"power exponent must be > 1, got {r}", "r")
    return NonlinearitySpec(
        evaluate=lambda x, s: c * np.abs(s) ** (r - 1.0) * np.sign(s),
        jumps=(), growth_c=abs(c), growth_q=r, name=f"power({c:g},{r:g})",
        exact_primitive=lambda nodes, s: c * np.abs(s) ** r / r)


CATALOG = {
    "constant": constant,
    "neg_sign": neg_sign,
    "step": step,
    "heaviside": heaviside,
    "power": power,
}


def from_catalog(name: str, *args, **kwargs) -> NonlinearitySpec:
    """Instantiate a catalog rule by name (used by config files)."""
    try:
        factory = CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown nonlinearity {name!r}; catalog: {sorted(CATALOG)}") from None
    return factory(*args, **kwargs)
