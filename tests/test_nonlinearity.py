import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from minkcurv.nonlinearity import (Bracket, Jump, NonlinearitySpec,
                                   QuadratureError, bracket, constant,
                                   from_catalog, growth_check, heaviside,
                                   envelopes, lower_envelope, neg_sign, power,
                                   primitive, primitive_array, selection, step,
                                   upper_envelope)

X = np.zeros(1)


class TestEnvelopes:
    def test_heaviside_bracket_at_jump(self):
        h = heaviside()
        assert lower_envelope(h, X, 0.0) == 0.0
        assert upper_envelope(h, X, 0.0) == 1.0

    def test_heaviside_collapses_off_jump(self):
        h = heaviside()
        assert bracket(h, X, -0.1) == Bracket(0.0, 0.0)
        assert bracket(h, X, 0.1) == Bracket(1.0, 1.0)

    def test_continuous_rule_collapses(self):
        sq = NonlinearitySpec(evaluate=lambda x, s: s * s, jumps=(),
                              growth_c=2.0, growth_q=3.0)
        br = bracket(sq, X, 3.0)
        assert br.lo == br.hi == 9.0

    def test_neg_sign(self):
        f = neg_sign()
        assert bracket(f, X, 0.0) == Bracket(-1.0, 1.0)
        assert bracket(f, X, 0.5) == Bracket(-1.0, -1.0)
        assert bracket(f, X, -2.0) == Bracket(1.0, 1.0)

    def test_ordering_and_collapse_at_continuity_points(self):
        rng = np.random.default_rng(5)
        f = step(-2.0, 3.0, 0.25)
        for s in rng.uniform(-2, 2, 50):
            lo, hi = lower_envelope(f, X, s), upper_envelope(f, X, s)
            sel = selection(f, X, s)
            assert lo <= sel <= hi
            if s != 0.25:
                assert lo == sel == hi


class TestEstimatorMode:
    def smooth_sides(self):
        # f(s) = s below the jump, s + 2 above it; metadata-free twin
        def ev(x, s):
            return np.where(s < 0, s, s + 2.0)
        with_meta = NonlinearitySpec(
            evaluate=ev,
            jumps=(Jump(level=lambda x: 0.0, left=lambda x: 0.0,
                        right=lambda x: 2.0),),
            growth_c=4.0, growth_q=2.0)
        blind = NonlinearitySpec(evaluate=ev, jumps=None, growth_c=4.0, growth_q=2.0)
        return with_meta, blind

    def test_flagged_approximate(self):
        _, blind = self.smooth_sides()
        assert bracket(blind, X, 0.0).approximate
        assert not bracket(self.smooth_sides()[0], X, 0.0).approximate

    def test_matches_exact_mode_within_window(self):
        with_meta, blind = self.smooth_sides()
        exact = bracket(with_meta, X, 0.0)
        est = bracket(blind, X, 0.0)
        assert est.lo == pytest.approx(exact.lo, abs=2e-4)
        assert est.hi == pytest.approx(exact.hi, abs=2e-4)

    def test_error_shrinks_along_delta_ladder(self):
        with_meta, blind = self.smooth_sides()
        exact = bracket(with_meta, X, 0.0)
        errs = []
        for deltas in [(1e-2,), (1e-2, 1e-3), (1e-2, 1e-3, 1e-4)]:
            est = bracket(blind, X, 0.0, deltas=deltas)
            errs.append(abs(est.lo - exact.lo) + abs(est.hi - exact.hi))
        assert errs[0] > errs[1] > errs[2]

    def test_sample_count_resolves_interior_extrema(self):
        # essential inf of sin(50 t) over |t| < 0.05 is exactly -1, attained
        # strictly inside the window
        f = NonlinearitySpec(evaluate=lambda x, s: np.sin(50 * s), jumps=None,
                             growth_c=1.0, growth_q=2.0)
        coarse = bracket(f, X, 0.0, deltas=(0.05,), samples=8)
        fine = bracket(f, X, 0.0, deltas=(0.05,), samples=512)
        assert abs(fine.lo + 1.0) < abs(coarse.lo + 1.0)
        assert abs(fine.lo + 1.0) <= 1e-3


class TestSelection:
    def test_neg_sign_midpoint(self):
        assert selection(neg_sign(), X, 0.0) == 0.0

    def test_neg_sign_off_jump(self):
        assert selection(neg_sign(), X, 0.3) == -1.0

    def test_continuous_passthrough(self):
        sq = NonlinearitySpec(evaluate=lambda x, s: s * s)
        assert selection(sq, X, 1.5) == pytest.approx(2.25)

    def test_endpoint_rules(self):
        f = neg_sign()
        assert selection(f, X, 0.0, rule="lo") == -1.0
        assert selection(f, X, 0.0, rule="hi") == 1.0
        with pytest.raises(ValueError):
            selection(f, X, 0.0, rule="median")


class TestPrimitive:
    def test_neg_sign_is_neg_abs(self):
        f = neg_sign()
        assert primitive(f, X, 0.5) == pytest.approx(-0.5, abs=1e-12)
        assert primitive(f, X, -0.75) == pytest.approx(-0.75, abs=1e-12)

    def test_zero_at_zero(self):
        for spec in (neg_sign(), constant(3.0), power(1.0, 2.5)):
            assert primitive(spec, X, 0.0) == 0.0

    def test_constant_rule(self):
        assert primitive(constant(1.0), X, -2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_power_closed_form(self):
        # f(s) = 2 s^2 sign(s) is odd, so F(s) = 2|s|^3/3 is even
        f = power(2.0, 3.0)
        assert primitive(f, X, 1.5) == pytest.approx(2 * 1.5 ** 3 / 3, rel=1e-10)
        assert primitive(f, X, -1.5) == pytest.approx(2 * 1.5 ** 3 / 3, rel=1e-10)

    def test_additive_against_quadrature(self):
        f = step(-1.0, 2.0, 0.3)
        rng = np.random.default_rng(9)
        for _ in range(20):
            s1, s2 = sorted(rng.uniform(-2, 2, 2))
            lhs = primitive(f, X, s2) - primitive(f, X, s1)
            rhs, _ = quad(lambda t: f.evaluate(X, t), s1, s2, points=[0.3])
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_lipschitz_on_bounded_interval(self):
        f = power(1.5, 2.5)
        rho = 2.0
        lip = f.growth_c * (1 + rho ** (f.growth_q - 1))
        rng = np.random.default_rng(2)
        for _ in range(40):
            s1, s2 = rng.uniform(-rho, rho, 2)
            if s1 == s2:
                continue
            quot = abs(primitive(f, X, s2) - primitive(f, X, s1)) / abs(s2 - s1)
            assert quot <= lip + 1e-9

    def test_nonconvergence_reported(self):
        # an undeclared jump off the dyadic grid cannot be resolved to an
        # impossible tolerance
        hidden = NonlinearitySpec(
            evaluate=lambda x, s: np.where(s < 1.0 / 3.0, 1.0, 0.0), jumps=None)
        with pytest.raises(QuadratureError) as info:
            primitive(hidden, X, 1.0, rel_tol=1e-300)
        assert info.value.achieved > 0


def quadrature_twin(spec):
    """The same rule without its closed form, so `primitive` integrates f."""
    return dataclasses.replace(spec, exact_primitive=None)


# s grid with negative values, zero, and every jump level used below
S_GRID = np.array([-1.7, -0.3, -0.1, -1e-9, 0.0, 1e-9, 0.1, 0.25, 0.3, 0.9, 2.4])


class TestExactPrimitive:
    CATALOG_RULES = [step(-1.0, 1.0, -0.3), step(2.0, -0.5, 0.0),
                     step(-1.0, 1.0, 0.25), step(0.7, 0.7, 0.25), heaviside(),
                     neg_sign(), constant(1.5), constant(-0.25)]

    @pytest.mark.parametrize("spec", CATALOG_RULES, ids=lambda s: s.name)
    def test_matches_quadrature(self, spec):
        assert spec.exact_primitive is not None
        twin = quadrature_twin(spec)
        for s in S_GRID:
            assert primitive(spec, X, s) == pytest.approx(
                primitive(twin, X, s), abs=1e-12)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_power_matches_quadrature(self, r):
        spec = power(1.3, r)
        twin = quadrature_twin(spec)
        for s in S_GRID:
            assert primitive(spec, X, s) == pytest.approx(
                primitive(twin, X, s), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("spec", CATALOG_RULES + [power(1.3, 2.5)],
                             ids=lambda s: s.name)
    def test_array_and_scalar_callers_agree(self, spec):
        nodes = np.linspace(-1.0, 1.0, S_GRID.size)[:, None]
        arr = primitive_array(spec, nodes, S_GRID)
        assert arr.shape == S_GRID.shape
        for x, s, v in zip(nodes, S_GRID, arr):
            assert v == primitive(spec, x, s)
        fallback = primitive_array(quadrature_twin(spec), nodes, S_GRID)
        np.testing.assert_allclose(arr, fallback, rtol=1e-10, atol=1e-12)


class TestEnvelopeArrays:
    def test_zero_window_is_the_plain_bracket(self):
        spec = step(-1.0, 2.0, 0.25)
        nodes = np.zeros((S_GRID.size, 1))
        lo, hi = envelopes(spec, nodes, S_GRID, window=0.0)
        for s, a, b in zip(S_GRID, lo, hi):
            br = bracket(spec, X, s)
            assert (a, b) == (br.lo, br.hi)


# -- per-node reference: the point-by-point bracket, selection and widening
# logic the array code replaced, calling the rule callables one row at a time


def at(fn, x):
    return float(np.full(1, fn(x[None, :]))[0])


def ev_at(spec, x, s):
    return float(np.full(1, spec.evaluate(x[None, :], np.array([s])))[0])


def ref_jump_at(spec, x, s):
    for j in spec.jumps or ():
        if s == at(j.level, x):
            return j
    return None


def ref_bracket(spec, x, s, delta=1e-4, samples=64):
    if spec.jumps is not None:
        j = ref_jump_at(spec, x, s)
        if j is not None:
            a, b = at(j.left, x), at(j.right, x)
            return min(a, b), max(a, b)
        v = ev_at(spec, x, s)
        return v, v
    vals = [ev_at(spec, x, t) for t in np.linspace(s - delta, s + delta, samples)]
    return min(vals), max(vals)


def ref_envelopes(spec, nodes, values, window):
    lo, hi = np.empty(len(values)), np.empty(len(values))
    for i, (x, s) in enumerate(zip(nodes, values)):
        lo[i], hi[i] = ref_bracket(spec, x, s)
        for j in spec.jumps or ():
            if abs(s - at(j.level, x)) <= window:
                a, b = at(j.left, x), at(j.right, x)
                lo[i] = min(lo[i], a, b)
                hi[i] = max(hi[i], a, b)
    return lo, hi


def ref_selection(spec, nodes, values, rule):
    out = np.empty(len(values))
    for i, (x, s) in enumerate(zip(nodes, values)):
        j = ref_jump_at(spec, x, s)
        if j is None:
            out[i] = ev_at(spec, x, s)
            continue
        a, b = at(j.left, x), at(j.right, x)
        out[i] = {"lo": min(a, b), "hi": max(a, b), "mid": 0.5 * (min(a, b) + max(a, b))}[rule]
    return out


def moving_level():
    """Jump from 0 to 1 at s = x + y / 2; the value 7 on the level is ignored."""
    def ev(x, s):
        level = x[:, 0] + 0.5 * x[:, 1]
        return np.where(s < level, 0.0, np.where(s > level, 1.0, 7.0))
    return NonlinearitySpec(
        evaluate=ev,
        jumps=(Jump(level=lambda x: x[:, 0] + 0.5 * x[:, 1],
                    left=lambda x: 0.0, right=lambda x: 1.0),),
        name="moving_level")


def two_close_jumps():
    """Steps -1 -> 1 at s = 0 and 1 -> -2 at s = 0.01, closer than WINDOW."""
    return NonlinearitySpec(
        evaluate=lambda x, s: np.where(s < 0.0, -1.0, np.where(s < 0.01, 1.0, -2.0)),
        jumps=(Jump(level=lambda x: 0.0, left=lambda x: -1.0, right=lambda x: 1.0),
               Jump(level=lambda x: 0.01, left=lambda x: 1.0, right=lambda x: -2.0)),
        name="two_close_jumps")


WINDOW = 0.05
NODES_2D = np.random.default_rng(11).uniform(-1.0, 1.0, (6, 2))
JUMP_RULES = [neg_sign(), step(-1.0, 1.0, 0.25), step(2.0, -0.5, 0.0), heaviside(),
              moving_level(), two_close_jumps()]
SMOOTH_RULES = [constant(1.5), step(0.7, 0.7, 0.25), power(1.3, 2.5)]
BLACK_BOX = [NonlinearitySpec(evaluate=heaviside().evaluate, jumps=None, name="blind"),
             NonlinearitySpec(evaluate=lambda x, s: np.sin(50 * s) + x[:, 1],
                              jumps=None, name="sine")]


def probe_points(spec):
    """Every node with values on each jump level, inside the window around
    it and outside it, plus a few generic values."""
    levels = [np.full(len(NODES_2D), j.level(NODES_2D), dtype=float)
              for j in spec.jumps or ()] or [np.zeros(len(NODES_2D))]
    offsets = [0.0, 0.4 * WINDOW, -0.9 * WINDOW, 3.0 * WINDOW, -1.7]
    values = np.concatenate([lv + d for lv in levels for d in offsets])
    nodes = np.tile(NODES_2D, (len(levels) * len(offsets), 1))
    return nodes, values


class TestArrayBracketsMatchPerNodeReference:
    @pytest.mark.parametrize("spec", JUMP_RULES + SMOOTH_RULES + BLACK_BOX,
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("window", [0.0, WINDOW])
    def test_envelopes(self, spec, window):
        nodes, values = probe_points(spec)
        lo, hi = envelopes(spec, nodes, values, window)
        ref_lo, ref_hi = ref_envelopes(spec, nodes, values, window)
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)

    @pytest.mark.parametrize("spec", JUMP_RULES + SMOOTH_RULES + BLACK_BOX,
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("rule", ["lo", "mid", "hi"])
    def test_selection(self, spec, rule):
        nodes, values = probe_points(spec)
        sel = selection(spec, nodes, values, rule)
        assert sel.shape == values.shape
        np.testing.assert_array_equal(sel, ref_selection(spec, nodes, values, rule))
        for x, s, v in zip(nodes, values, sel):
            assert selection(spec, x, s, rule) == v

    @pytest.mark.parametrize("spec", JUMP_RULES + BLACK_BOX, ids=lambda s: s.name)
    def test_point_bracket_is_one_row(self, spec):
        nodes, values = probe_points(spec)
        lo, hi = envelopes(spec, nodes, values, 0.0)
        for x, s, a, b in zip(nodes, values, lo, hi):
            assert bracket(spec, x, s) == Bracket(a, b, spec.jumps is None)

    def test_black_box_bracket_calls_evaluate_once(self):
        calls = []

        def ev(x, s):
            calls.append(len(s))
            return np.sin(50 * s)
        br = bracket(NonlinearitySpec(evaluate=ev, jumps=None), X, 0.0,
                     deltas=(1e-2, 1e-3, 1e-4), samples=64)
        assert calls == [64]
        assert br.approximate

    def test_scalar_rule_returns_are_broadcast(self):
        spec = NonlinearitySpec(
            evaluate=lambda x, s: 3.0,
            jumps=(Jump(level=lambda x: 0.5, left=lambda x: 0.0, right=lambda x: 2.0),))
        lo, hi = envelopes(spec, NODES_2D[:3], np.array([0.5, 0.52, 0.9]), WINDOW)
        np.testing.assert_array_equal(lo, [0.0, 0.0, 3.0])
        np.testing.assert_array_equal(hi, [2.0, 3.0, 3.0])


class TestGrowthCheck:
    BOX = ((np.array([-1.0]), np.array([1.0])), (-2.0, 2.0))

    def test_neg_sign_passes(self):
        rep = growth_check(neg_sign(), self.BOX, 200)
        assert rep.passed and rep.max_ratio <= 1.0

    def test_cubic_fails_beyond_crossover(self):
        # |s|^3 > 1 + |s| once |s| exceeds the real root of s^3 - s - 1,
        # about 1.3247
        cubic = NonlinearitySpec(evaluate=lambda x, s: s ** 3, jumps=(),
                                 growth_c=1.0, growth_q=2.0)
        rep = growth_check(cubic, self.BOX, 500)
        assert not rep.passed
        assert abs(rep.worst_s) > 1.32

    def test_zero_rule_passes_with_zero_ratio(self):
        rep = growth_check(constant(0.0), self.BOX, 50)
        assert rep.passed and rep.max_ratio == 0.0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            growth_check(neg_sign(), self.BOX, 0)

    @pytest.mark.parametrize("spec", [neg_sign(), power(1.3, 2.5), constant(0.0),
                                      BLACK_BOX[1]], ids=lambda s: s.name)
    def test_matches_per_draw_reference(self, spec):
        # the draws interleave x and s exactly as a one-point-at-a-time loop
        rng = np.random.default_rng(3)
        best, worst_x, worst_s = -np.inf, None, None
        for k in range(40):
            x = rng.uniform(-1.0, 1.0, 2)
            s = [-2.0, 2.0, 0.0][k] if k < 3 else float(rng.uniform(-2.0, 2.0))
            f = abs(ev_at(spec, x, s))
            ratio = 0.0 if f == 0.0 else f / (spec.growth_c * (1 + abs(s) ** (spec.growth_q - 1)))
            if ratio > best:
                best, worst_x, worst_s = ratio, x, s
        rep = growth_check(spec, ((-np.ones(2), np.ones(2)), (-2.0, 2.0)), 40, seed=3)
        assert (rep.max_ratio, rep.worst_s) == (best, worst_s)
        np.testing.assert_array_equal(rep.worst_x, worst_x)


class TestSpecValidation:
    def test_bracket_ordering_enforced(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 0.0)

    def test_growth_constants_validated(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(evaluate=lambda x, s: 0.0, growth_c=-1.0)
        with pytest.raises(ValueError):
            NonlinearitySpec(evaluate=lambda x, s: 0.0, growth_q=1.0)

    def test_power_requires_superlinear(self):
        with pytest.raises(ValueError):
            power(1.0, 1.0)


class TestCatalog:
    def test_names_resolve(self):
        assert from_catalog("neg_sign").name == "neg_sign"
        assert from_catalog("constant", 2.0).evaluate(X, 5.0) == 2.0
        assert from_catalog("step", -1.0, 1.0, 0.0).evaluate(X, 1.0) == 1.0
        assert from_catalog("power", 1.0, 2.0).evaluate(X, 2.0) == pytest.approx(2.0)
        assert from_catalog("heaviside").evaluate(X, 1.0) == 1.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            from_catalog("sawtooth")

    def test_step_without_jump_is_continuous(self):
        flat = step(2.0, 2.0, 0.0)
        assert flat.jumps == ()
        assert bracket(flat, X, 0.0) == Bracket(2.0, 2.0)

    def test_x_dependent_jump_level(self):
        # jump level moves with x; envelopes follow it exactly
        spec = NonlinearitySpec(
            evaluate=lambda x, s: np.where(s < x[:, 0], 0.0, 1.0),
            jumps=(Jump(level=lambda x: x[:, 0], left=lambda x: 0.0,
                        right=lambda x: 1.0),),
            growth_c=1.0, growth_q=2.0)
        assert bracket(spec, np.array([0.4]), 0.4) == Bracket(0.0, 1.0)
        assert bracket(spec, np.array([0.4]), 0.0) == Bracket(0.0, 0.0)
