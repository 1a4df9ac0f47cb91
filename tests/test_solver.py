import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import LinearOperator, splu

from minkcurv import solver
from minkcurv.energy import FEASIBILITY_MARGIN, StrictFeasibilityError, total_energy
from minkcurv.mesh import (Field, Mesh, MeshError, build_disk_mesh, build_interval_mesh,
                           build_rectangle_mesh, element_gradients, inradius,
                           max_gradient_norm)
from minkcurv.energy import psi, psi_gradient
from minkcurv.nonlinearity import (Jump, NonlinearitySpec, bracket, constant, envelopes,
                                   heaviside, neg_sign, power, step)
from minkcurv.solver import (InnerSolveError, SolverOptions, _area_hessian,
                             _newton_workspace, _solve_prescribed,
                             solve_inclusion, solve_prescribed,
                             stationarity_measure)
from minkcurv.verify import (analytic_radial, boundary_distance_cone, brute_force_minimize,
                             inclusion_residual, random_feasible_field,
                             verification_report)

SQRT2 = math.sqrt(2.0)
# closed-form energy of the attracting-sign problem on (-1, 1)
CAP_ENERGY = 2.0 - SQRT2 - math.log(1.0 + SQRT2)


class TestSolvePrescribed:
    def test_zero_rhs_gives_exact_zero(self):
        m = build_interval_mesh(-1, 1, 64)
        u = solve_prescribed(m, 0.0)
        assert np.all(u.values == 0.0)

    def test_1d_constant_rhs_matches_closed_form(self):
        m = build_interval_mesh(-1, 1, 256)
        u = solve_prescribed(m, 1.0)
        x = m.nodes[:, 0]
        exact = np.sqrt(1 + x * x) - SQRT2
        assert np.abs(u.values - exact).max() <= 5e-4
        assert u.values[128] == pytest.approx(1 - SQRT2, abs=5e-4)
        assert max_gradient_norm(m, u.values) <= 1 / SQRT2 + 1e-3

    def test_disk_constant_rhs_matches_closed_form(self):
        m = build_disk_mesh(1.0, 3)
        u = solve_prescribed(m, 2.0)
        r = np.sqrt((m.nodes ** 2).sum(axis=1))
        exact = np.sqrt(1 + r * r) - SQRT2
        assert np.abs(u.values - exact).max() <= 2e-2

    def test_objective_strictly_decreases(self):
        m = build_interval_mesh(-1, 1, 128)
        _, stats = _solve_prescribed(m, np.full(129, 1.0), SolverOptions())
        trace = stats.objectives
        diffs = np.diff(trace)
        # strict descent up to the roundoff resolution of the objective
        assert np.all(diffs < 1e-13 * (1.0 + np.abs(trace[:-1])))

    def test_unique_minimizer_from_different_starts(self):
        m = build_interval_mesh(-1, 1, 64)
        opts = SolverOptions()
        cold = solve_prescribed(m, 1.0, opts)
        bump = Field.from_function(m, lambda x: 0.5 * (1 - abs(x[:, 0])),
                                   dirichlet_zero=True)
        warm = solve_prescribed(m, 1.0, SolverOptions(initial=bump))
        assert np.abs(cold.values - warm.values).max() <= 10 * opts.inner_tol

    def test_iterates_stay_strictly_feasible(self):
        m = build_interval_mesh(-1, 1, 64)
        opts = SolverOptions()
        vals, stats = _solve_prescribed(m, np.full(65, 3.0), opts)
        assert stats.max_gradient <= 1.0 - opts.working_margin
        assert stats.max_value <= inradius(m) + m.mesh_size() + 1e-12

    def test_mirror_symmetry(self):
        # reflecting every coordinate leaves the discrete operator invariant
        m = build_interval_mesh(-1, 1, 32)
        mirrored = Mesh(-m.nodes, m.elements, m.boundary_nodes)
        e = m.nodes[:, 0] + 0.3  # asymmetric right-hand side
        u = solve_prescribed(m, e)
        u_m = solve_prescribed(mirrored, e)
        assert np.abs(u.values - u_m.values).max() <= 1e-10

    @pytest.mark.parametrize("a", [1.0, 2.0, -1.5])
    def test_sign_property_on_closed_form_cases(self, a):
        m = build_interval_mesh(-1, 1, 64)
        u = solve_prescribed(m, a)
        if a > 0:
            assert u.values.max() <= 1e-10
        else:
            assert u.values.min() >= -1e-10

    def test_infeasible_initial_rejected(self):
        m = build_interval_mesh(-1, 1, 8)
        steep = Field.from_function(m, lambda x: 2.0 * (1 - abs(x[:, 0])),
                                    dirichlet_zero=True)
        with pytest.raises(InnerSolveError, match="initial iterate violates"):
            solve_prescribed(m, 1.0, SolverOptions(initial=steep))

    def test_start_field_is_opts_initial(self):
        # one Newton step does not reach the solution from zero; from the
        # solution itself no step is needed
        m = build_interval_mesh(-1, 1, 64)
        cold = solve_prescribed(m, 1.0)
        warm = solve_prescribed(m, 1.0, SolverOptions(initial=cold, max_inner=1))
        assert np.array_equal(warm.values, cold.values)
        with pytest.raises(TypeError):
            solve_prescribed(m, 1.0, initial=cold)

    def test_nonconvergence_carries_last_iterate(self):
        # from zero one step is short of the stop (the flux start needs none)
        m = build_interval_mesh(-1, 1, 64)
        with pytest.raises(InnerSolveError) as info:
            solve_prescribed(m, 1.0, SolverOptions(initial=Field.zero(m), max_inner=1))
        err = info.value
        assert err.last_values is not None
        assert math.isfinite(err.residual) and err.residual > 0
        assert err.iterations == 1

    def test_unchanged_iterate_fails_at_once(self):
        # e = 100 saturates the interval: the accepted step stops moving the
        # iterate bit for bit with the residual above inner_tol, and the same
        # step would follow until max_inner
        m = build_interval_mesh(-1, 1, 64)
        with pytest.raises(InnerSolveError, match="unchanged") as info:
            _solve_prescribed(m, 100.0, SolverOptions())
        err = info.value
        assert err.iterations <= 20 and err.residual > SolverOptions().inner_tol
        assert f"{err.residual:.3e}" in str(err)

    def test_rejects_non_finite_rhs(self):
        m = build_interval_mesh(-1, 1, 8)
        e = np.zeros(9)
        e[3] = math.nan
        with pytest.raises(ValueError):
            solve_prescribed(m, e)

    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_options_reject_bad_tolerances(self, name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverOptions(**{name: value})


def newton_steps(monkeypatch):
    """The Newton step count of every `_solve_prescribed` call from here on."""
    steps = []
    inner = solver._solve_prescribed

    def recording(*args, **kwargs):
        values, stats = inner(*args, **kwargs)
        steps.append(stats.iterations)
        return values, stats
    monkeypatch.setattr(solver, "_solve_prescribed", recording)
    return steps


# (mesh, a): a symmetric interval, where the flux start is the solution; a
# radial disk problem; and one whose projected start leaves the working set
FLUX_START_CASES = {
    "interval64-a1": (lambda: build_interval_mesh(-1, 1, 64), 1.0),
    "disk4-a2": (lambda: build_disk_mesh(1.0, 4), 2.0),
    "disk4-a30": (lambda: build_disk_mesh(1.0, 4), 30.0),
}


class TestFluxStart:
    def test_symmetric_interval_needs_no_step(self, monkeypatch):
        steps = newton_steps(monkeypatch)
        solve_prescribed(build_interval_mesh(-1, 1, 64), 1.0)
        assert steps == [0]

    def test_disk_takes_at_most_three_steps(self, monkeypatch):
        # from zero the same solve takes 8
        steps = newton_steps(monkeypatch)
        solve_prescribed(build_disk_mesh(1.0, 4), 2.0)
        assert steps[0] <= 3

    def test_disk_grid_newton_steps(self, monkeypatch):
        # 32 steps over the grid from the flux start, 67 from zero
        steps = newton_steps(monkeypatch)
        mesh = build_disk_mesh(1.0, 4)
        for a in np.linspace(1.5, 2.5, 11):
            solve_prescribed(mesh, a)
        assert sum(steps) <= 33

    def test_projection_outside_the_working_set_is_scaled_inside(self):
        mesh = build_disk_mesh(1.0, 4)
        start = solver._flux_start(mesh, np.full(len(mesh.nodes), 30.0))
        largest = max_gradient_norm(mesh, start)
        assert largest < 1.0 - FEASIBILITY_MARGIN
        assert largest == pytest.approx(solver._START_SHRINK * (1.0 - FEASIBILITY_MARGIN),
                                        rel=1e-14)
        assert np.all(start[mesh.boundary_nodes] == 0.0)

    def test_overflowing_flux_gives_the_zero_start(self):
        # q = inf - inf is nan: Newton then starts from zero, as it did
        # before the flux start, and fails the way it did
        m = build_interval_mesh(-1, 1, 8)
        with np.errstate(all="ignore"):
            assert np.array_equal(solver._flux_start(m, np.full(9, 1.7e308)), np.zeros(9))

    @pytest.mark.parametrize("case", sorted(FLUX_START_CASES))
    def test_matches_the_zero_start(self, case):
        build, a = FLUX_START_CASES[case]
        mesh = build()
        flux = solve_prescribed(mesh, a)
        zero = solve_prescribed(mesh, a, SolverOptions(initial=Field.zero(mesh)))
        assert np.abs(flux.values - zero.values).max() <= 1e-10

    def test_ten_disk_solves_make_one_factor(self, monkeypatch):
        # the start's two K0 solves and every Newton step share one K0 factor
        factors = counting(monkeypatch, "splu")
        mesh = build_disk_mesh(1.0, 4)
        for a in np.linspace(1.5, 2.5, 10):
            solve_prescribed(mesh, a)
        solver._K0.clear()
        assert len(factors) == 1

    def test_k0_failure_is_a_factorization_failure(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(solver, "splu", failing)
        mesh = build_disk_mesh(1.0, 2)
        with pytest.raises(InnerSolveError, match="^Hessian factorization failed: Factor") as err:
            solve_prescribed(mesh, 1.0)
        assert err.value.iterations == 0 and not err.value.last_values.any()
        assert err.value.residual == np.abs(mesh.node_weight[mesh.interior_nodes]).max()

    def test_non_finite_rhs_fails_before_any_solve(self, monkeypatch):
        calls = counting(monkeypatch, "solveh_banded")
        m = build_interval_mesh(-1, 1, 8)
        with pytest.raises(ValueError, match="finite"):
            solve_prescribed(m, np.full(9, math.inf))
        assert calls == []


class TestSolveInclusion:
    def test_failed_escape_probes_raise(self):
        # u = 0 is a fixed point of the mid selection of neg_sign; the probes
        # that would leave it need more than three Newton steps each
        m = build_interval_mesh(-1, 1, 32)
        with pytest.raises(InnerSolveError, match="no convergence in 3 Newton"):
            solve_inclusion(m, neg_sign(), SolverOptions(max_inner=3))

    def test_zero_rule(self):
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, constant(0.0))
        assert res.converged
        assert res.outer_iterations == 1
        assert np.all(res.u.values == 0.0)
        assert res.energy == 0.0

    def test_continuous_constant_equals_prescribed(self):
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, constant(1.0))
        direct = solve_prescribed(m, 1.0)
        assert res.converged
        assert res.outer_iterations == 1
        assert np.abs(res.u.values - direct.values).max() <= 1e-9

    def test_attracting_sign_reaches_the_cap(self):
        m = build_interval_mesh(-1, 1, 256)
        res = solve_inclusion(m, neg_sign())
        x = m.nodes[:, 0]
        exact = SQRT2 - np.sqrt(1 + x * x)
        assert res.converged
        assert np.abs(res.u.values - exact).max() <= 5e-4
        assert res.u.values[128] == pytest.approx(SQRT2 - 1, abs=5e-4)
        assert res.energy == pytest.approx(CAP_ENERGY, abs=2e-3)
        assert res.residual <= 1e-2

    def test_energy_trace_nonincreasing(self):
        m = build_interval_mesh(-1, 1, 128)
        res = solve_inclusion(m, neg_sign())
        trace = np.asarray(res.energy_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_selection_rule_reaches_symmetric_caps(self):
        m = build_interval_mesh(-1, 1, 128)
        lo = solve_inclusion(m, neg_sign(), SolverOptions(selection_rule="lo"))
        hi = solve_inclusion(m, neg_sign(), SolverOptions(selection_rule="hi"))
        assert lo.converged and hi.converged
        assert lo.u.values[64] > 0 > hi.u.values[64]
        assert lo.energy == pytest.approx(hi.energy, abs=1e-10)
        assert np.abs(lo.u.values + hi.u.values).max() <= 1e-8

    def test_zeta_lies_in_the_envelope_bracket(self):
        # the reported selection uses the same near-level value window as
        # the residual check (a P1 iterate crosses jump levels between
        # nodes), so the bracket to check against is the windowed one
        from minkcurv.verify import windowed_envelopes

        m = build_interval_mesh(-1, 1, 64)
        spec = step(-1.0, 2.0, 0.1)
        res = solve_inclusion(m, spec)
        lo, hi = windowed_envelopes(m, spec, res.u.values)
        assert np.all(res.zeta >= lo - 1e-15)
        assert np.all(res.zeta <= hi + 1e-15)

    @pytest.mark.parametrize("spec, max_outer, min_residual",
                             [(neg_sign(), 100, 0.0), (power(1.0, 2.0), 1, 0.1)],
                             ids=["neg_sign-64", "power-64-one-step"])
    def test_residual_is_the_inclusion_residual(self, spec, max_outer, min_residual):
        # the solver's own certificate pass reports exactly what the
        # independent check computes; one outer step of f(s) = s from a
        # bump ends with a large residual, so this is not only 0 == 0
        m = build_interval_mesh(-1, 1, 64)
        x = m.nodes[:, 0]
        opts = SolverOptions(max_outer=max_outer,
                             initial=Field(m, 0.5 * (1 - np.abs(x)), dirichlet_zero=True))
        res = solve_inclusion(m, spec, opts)
        ref = inclusion_residual(m, res.u, spec, margin=opts.working_margin)
        assert np.array_equal(res.residuals, ref)
        assert res.residual == ref[m.interior_nodes].max()
        assert res.residual >= min_residual

    def test_converged_certificate_bound(self):
        m = build_interval_mesh(-1, 1, 128)
        opts = SolverOptions()
        res = solve_inclusion(m, neg_sign(), opts)
        assert res.converged
        assert res.stationarity <= opts.outer_tol * (1 + abs(res.energy))

    def test_iterate_containment_diagnostics(self):
        m = build_interval_mesh(-1, 1, 128)
        opts = SolverOptions()
        res = solve_inclusion(m, neg_sign(), opts)
        assert res.max_iterate_gradient <= 1 - opts.working_margin
        assert res.max_iterate_value <= inradius(m) + m.mesh_size() + 1e-12

    def test_closed_form_primitive_leaves_the_run_unchanged(self):
        # the energy trace of the repelling step is evaluated with both
        # primitives; the kinked inner solve does not depend on either
        m = build_interval_mesh(-1, 1, 16)
        spec = step(-1.0, 1.0, 0.25)
        exact = solve_inclusion(m, spec)
        fallback = solve_inclusion(m, dataclasses.replace(spec, exact_primitive=None))
        assert exact.outer_iterations == fallback.outer_iterations
        assert exact.inner_iterations == fallback.inner_iterations
        assert len(exact.energy_trace) == len(fallback.energy_trace)
        np.testing.assert_allclose(exact.energy_trace, fallback.energy_trace,
                                   rtol=0.0, atol=1e-12)

    def test_nonlinearity_calls_do_not_grow_with_the_mesh(self):
        # every evaluate call covers all nodes at once, so the count follows
        # the outer iterations only
        counts = []
        for refinement in (3, 4):
            mesh = build_disk_mesh(1.0, refinement)
            sizes = []

            def ev(x, s, base=neg_sign().evaluate):
                sizes.append(len(s))
                return base(x, s)
            res = solve_inclusion(mesh, dataclasses.replace(neg_sign(), evaluate=ev))
            assert set(sizes) == {len(mesh.nodes)}
            assert len(sizes) <= 4 * res.outer_iterations + 4
            counts.append((res.outer_iterations, len(sizes)))
        assert counts[0] == counts[1]

    def test_outer_cap_returns_unconverged(self):
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, neg_sign(), SolverOptions(max_outer=1))
        assert not res.converged
        assert res.outer_iterations == 1

    def test_field_of_another_mesh_rejected(self):
        # same node count, other domain: only a field of the solved mesh starts
        source = build_interval_mesh(-1, 1, 64)
        start = solve_inclusion(source, neg_sign()).u
        target = build_interval_mesh(0, 5, 64)
        opts = SolverOptions(initial=start)
        with pytest.raises(MeshError, match="another mesh"):
            solve_inclusion(target, neg_sign(), opts)
        with pytest.raises(MeshError, match="another mesh"):
            solve_prescribed(target, 1.0, opts)
        assert solve_inclusion(source, neg_sign(), opts).converged

    def test_boundary_node_of_no_element(self):
        # node weight 0 at (5, 5): its operator value is 0, not 0/0
        nodes = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [5, 5]]
        m = Mesh(nodes, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]], [0, 1, 2, 3, 5])
        res = solve_inclusion(m, neg_sign())
        assert res.converged and np.all(np.isfinite(res.zeta))
        report = verification_report(m, res.u, res.zeta, neg_sign())
        assert report.vi_min_slack == 0.0 and report.all_passed

    def test_initial_field_is_used(self):
        m = build_interval_mesh(-1, 1, 64)
        x = m.nodes[:, 0]
        start = Field(m, 0.9 * (SQRT2 - np.sqrt(1 + x * x)), dirichlet_zero=True)
        res = solve_inclusion(m, neg_sign(), SolverOptions(initial=start))
        assert res.converged
        assert res.u.values[32] > 0  # stays on the positive cap


class TestStationarityMeasure:
    @pytest.mark.parametrize("gap, verdict", [(1e-10, True), (1e-13, False)])
    def test_margin_is_the_checkers(self, gap, verdict):
        # |grad| = 1 - gap: inclusion_residual and verification_report
        # differentiate psi at the same margin (tests/test_verify.py)
        m = build_interval_mesh(-1, 1, 2)
        u = Field.from_function(m, lambda x: (1 - gap) * (1 - abs(x[:, 0])),
                                dirichlet_zero=True)
        assert FEASIBILITY_MARGIN == SolverOptions().working_margin == 1e-12
        if verdict:
            assert 0.0 < stationarity_measure(m, u, neg_sign()) < math.inf
        else:
            with pytest.raises(StrictFeasibilityError):
                stationarity_measure(m, u, neg_sign())

    @pytest.mark.parametrize("refinement", [4, 5])
    def test_disk_neg_sign_converges_with_margin(self, refinement):
        # the inner solve stops on a max-norm of the gradient, rho is an l1
        # of it: a loose final Newton step leaves rho near the gate
        opts = SolverOptions()
        res = solve_inclusion(build_disk_mesh(1.0, refinement), neg_sign(), opts)
        assert res.converged
        assert res.stationarity <= opts.outer_tol * (1.0 + abs(res.energy)) / 10.0

    def test_converged_run_certifies(self):
        m = build_interval_mesh(-1, 1, 128)
        res = solve_inclusion(m, neg_sign())
        eps = stationarity_measure(m, res.u, neg_sign())
        assert eps <= 1e-6
        assert eps == res.stationarity

    def test_non_critical_point_detected(self):
        m = build_interval_mesh(-1, 1, 128)
        eps = stationarity_measure(m, Field.zero(m), constant(1.0))
        assert eps > 0.1

    def test_trivial_critical_point(self):
        m = build_interval_mesh(-1, 1, 128)
        eps = stationarity_measure(m, Field.zero(m), constant(0.0))
        assert eps <= 1e-12

    def test_scaled_solution_is_not_certified(self):
        # every node of the scaled field lies within h of the level 0, so the
        # h-window residual is 0; the zero-window bound still rejects it
        m = build_disk_mesh(1.0, 4)
        res = solve_inclusion(m, neg_sign())
        scaled = Field(m, 0.1 * res.u.values, dirichlet_zero=True)
        assert inclusion_residual(m, scaled, neg_sign()).max() == 0.0
        assert stationarity_measure(m, scaled, neg_sign()) > 1.0

    @pytest.mark.parametrize("name", ["neg_sign-64", "neg_sign-disk3", "step-64"])
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1])
    def test_bound_holds_for_trial_fields(self, name, scale):
        # psi(v) - psi(u) + sum w max(lo d, hi d) >= -|d|_inf * rho with
        # d = v - u, for the trial fields of verify's sampled check
        mesh, spec = {"neg_sign-64": (build_interval_mesh(-1, 1, 64), neg_sign()),
                      "neg_sign-disk3": (build_disk_mesh(1.0, 3), neg_sign()),
                      "step-64": (build_interval_mesh(-1, 1, 64), step(-1.0, 1.0, 0.25))}[name]
        u = Field(mesh, scale * solve_inclusion(mesh, spec).u.values, dirichlet_zero=True)
        rho = stationarity_measure(mesh, u, spec)
        lo, hi = envelopes(spec, mesh.nodes, u.values, 0.0)
        rng = np.random.default_rng(11)
        trials = [boundary_distance_cone(mesh, max_gradient=a) for a in (0.9, 0.5, 0.1)]
        headroom = max(0.9 - max_gradient_norm(mesh, u.values), 0.0)
        for k in range(40):
            v = random_feasible_field(mesh, rng, headroom if k % 2 else 0.9)
            trials.append(Field(mesh, u.values + v.values, dirichlet_zero=True) if k % 2 else v)
        for v in trials:
            d = v.values - u.values
            lhs = psi(mesh, v) - psi(mesh, u) + float(
                np.dot(mesh.node_weight, np.maximum(lo * d, hi * d)))
            assert lhs >= -np.abs(d).max() * rho - 1e-12


REPELLING_CASES = {
    # name: (mesh, rule, energy of the selection loop this solve replaced)
    "interval-32": (lambda: build_interval_mesh(-1, 1, 32), -0.251814),
    "interval-64": (lambda: build_interval_mesh(-1, 1, 64), -0.255100),
    "interval-128": (lambda: build_interval_mesh(-1, 1, 128), -0.255410),
    "interval-256": (lambda: build_interval_mesh(-1, 1, 256), -0.255478),
    "disk-3": (lambda: build_disk_mesh(1.0, 3), -0.144512),
    "disk-4": (lambda: build_disk_mesh(1.0, 4), -0.147054),
}


def mixed_rule():
    """-sign(s) plus an upward jump by 1.5 at s = 0.1: one jump of each kind."""
    return NonlinearitySpec(
        evaluate=lambda x, s: -np.sign(s) + 1.5 * (s > 0.1),
        jumps=(Jump(level=lambda x: 0.0, left=lambda x: 1.0, right=lambda x: -1.0),
               Jump(level=lambda x: 0.1, left=lambda x: -1.0, right=lambda x: 0.5)),
        growth_c=2.5, name="mixed",
        exact_primitive=lambda x, s: -np.abs(s) + 1.5 * np.maximum(0.0, s - 0.1))


def x_level_rule():
    """-sign(s - x/10): an attracting jump whose level moves with x."""
    def level(x):
        return 0.1 * x[:, 0]
    return NonlinearitySpec(
        evaluate=lambda x, s: -np.sign(s - level(x)),
        jumps=(Jump(level=level, left=lambda x: 1.0, right=lambda x: -1.0),),
        growth_c=1.0, name="x-level",
        exact_primitive=lambda x, s: np.abs(level(x)) - np.abs(s - level(x)))


def two_jump_rule():
    """-sign(s) less 1 above s = 0.2: two decreasing jumps."""
    return NonlinearitySpec(
        evaluate=lambda x, s: -np.sign(s) - 1.0 * (s > 0.2),
        jumps=(Jump(level=lambda x: 0.0, left=lambda x: 1.0, right=lambda x: -1.0),
               Jump(level=lambda x: 0.2, left=lambda x: -1.0, right=lambda x: -2.0)),
        growth_c=2.0, name="two-jump")


class TestIncreasingJumps:
    @pytest.mark.parametrize("name", sorted(REPELLING_CASES))
    def test_converges_exactly_in_one_convex_solve(self, name):
        make_mesh, loop_energy = REPELLING_CASES[name]
        mesh = make_mesh()
        spec = step(-1.0, 1.0, 0.25 if name.startswith("interval") else 0.1)
        res = solve_inclusion(mesh, spec)
        lo, hi = envelopes(spec, mesh.nodes, res.u.values, 0.0)
        m_op = -psi_gradient(mesh, res.u, margin=1e-12) / mesh.node_weight
        zero_window = np.maximum(0.0, np.maximum(lo - m_op, m_op - hi))[mesh.interior_nodes]
        assert res.converged
        assert zero_window.max() <= 1e-8
        assert res.outer_iterations <= 3
        assert res.energy <= loop_energy

    @pytest.mark.parametrize("name, most", [("interval-64", 32), ("disk-4", 25)])
    def test_each_stage_starts_from_the_rejected_pinned_solution(self, name, most):
        # restarting each smoothing stage from the unpinned solution took 48
        # and 44 Newton steps here
        mesh = REPELLING_CASES[name][0]()
        res = solve_inclusion(mesh, step(-1.0, 1.0, 0.25 if name.startswith("interval") else 0.1))
        assert res.converged and res.inner_iterations <= most

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_the_grid_minimum(self, n):
        mesh = build_interval_mesh(-1, 1, n)
        spec = step(-1.0, 1.0, 0.25)
        _, brute = brute_force_minimize(mesh, spec, 0.01)
        res = solve_inclusion(mesh, spec)
        assert res.converged
        assert abs(res.energy - brute) <= 1e-3

    def test_nodes_are_pinned_on_the_level(self):
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), step(-1.0, 1.0, 0.25))
        assert np.count_nonzero(res.u.values == 0.25) >= 1

    def test_heaviside_minimum_is_zero(self):
        res = solve_inclusion(build_disk_mesh(1.0, 3), heaviside())
        assert res.converged and res.outer_iterations == 1
        assert np.all(res.u.values == 0.0) and res.energy == 0.0

    @pytest.mark.parametrize("n", [4, 64])
    def test_mixed_jumps(self, n):
        # the decreasing jump stays in the selection loop with its escape
        # probes, the increasing one is a kink of every inner solve
        mesh = build_interval_mesh(-1, 1, n)
        res = solve_inclusion(mesh, mixed_rule())
        assert res.converged
        assert res.stationarity <= 1e-9
        if n == 4:
            _, brute = brute_force_minimize(mesh, mixed_rule(), 0.01)
            assert abs(res.energy - brute) <= 1e-3


def counting(monkeypatch, name):
    """Count the calls the solver makes to its module attribute `name`."""
    calls = []
    original = getattr(solver, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(solver, name, wrapper)
    return calls


# energies at n = 64 of rules whose stalls run escape probes
PROBE_CASES = [
    (step(0.5, -3.0, 0.0), "lo", -1.7681948659985718),
    (step(0.5, -3.0, 0.0), "mid", -1.7681948659985722),
    (step(0.5, -3.0, 0.0), "hi", -0.08043944145251644),
    (mixed_rule(), "lo", -0.1394505495524596),
    # both probes decrease the energy at the zero field; the hi one is lower
    (mixed_rule(), "mid", -0.2955296036662277),
    (mixed_rule(), "hi", -0.2955296036662277),
    (two_jump_rule(), "lo", -0.6039423061401255),
    (two_jump_rule(), "mid", -0.6039423061401255),
    (two_jump_rule(), "hi", -0.2955296036662275),
    (x_level_rule(), "lo", -0.08060322076135588),
    (x_level_rule(), "mid", -0.08060322076135584),
    (x_level_rule(), "hi", -0.08060322076135587),
]


class TestSingleInnerPath:
    @pytest.mark.parametrize("spec, rows, rest_jumps", [
        (neg_sign(), 0, True), (constant(1.0), 0, False), (step(-1.0, 1.0, 0.25), 1, False),
        (step(1.0, -1.0, 0.1), 0, True),
        (NonlinearitySpec(evaluate=lambda x, s: -np.sign(s), jumps=None), 0, True),
    ], ids=["neg_sign", "constant", "step-up", "step-down", "black-box"])
    def test_kink_split(self, spec, rows, rest_jumps):
        mesh = build_interval_mesh(-1, 1, 16)
        kinks, rest = solver._Kinks.split(mesh, spec)
        assert kinks.level.shape[0] == kinks.jump.shape[0] == rows
        assert rest is rest_jumps
        # an empty kink set adds nothing at any field
        values = np.linspace(-0.5, 0.5, len(mesh.nodes))
        if rows == 0:
            value, slope, band = kinks.smoothed(values, 1.0)
            assert not value.any() and not slope.any() and not band.any()
            assert all(not part.any() for part in kinks.subdifferential(values))

    def test_one_certificate_pass_per_stall(self, monkeypatch):
        # two stalls (the first one's probe is accepted), no pass after the
        # loop; the zero-field stall solves the lo probe, and hi is its mirror
        envelope_calls = counting(monkeypatch, "envelopes")
        gradient_calls = counting(monkeypatch, "psi_gradient")
        inner_calls = counting(monkeypatch, "_inner_solve")
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), neg_sign())
        assert res.converged and res.outer_iterations == 2
        assert len(envelope_calls) == 4
        assert len(gradient_calls) == 2
        assert len(inner_calls) == 3 and res.inner_iterations == 9
        assert res.energy == -0.2955296036662277

    @pytest.mark.parametrize("mesh", [build_interval_mesh(-1, 1, 64), build_disk_mesh(1.0, 4),
                                      build_rectangle_mesh(2.0, 1.0, 16, 8)],
                             ids=["interval", "disk", "rectangle"])
    def test_mirror_probe_is_the_solved_hi_probe(self, mesh):
        # psi is even: Newton from 0 on -e takes the steps on e with signs flipped
        spec, zero = neg_sign(), np.zeros(len(mesh.nodes))
        kinks = solver._Kinks.split(mesh, spec)[0]
        lo, hi = envelopes(spec, mesh.nodes, zero, 0.0)
        lo_u, hi_u = (solver._inner_solve(mesh, e, SolverOptions(), zero, kinks, [])
                      for e in (lo, hi))
        assert (0.0 - lo_u).tobytes() == hi_u.tobytes()

    def test_stage_without_band_nodes_ends_the_solve(self, monkeypatch):
        calls = counting(monkeypatch, "_solve_prescribed")
        res = solve_inclusion(build_disk_mesh(1.0, 4), heaviside())
        assert res.converged and np.all(res.u.values == 0.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, rule, energy", PROBE_CASES,
                             ids=[f"{spec.name}-{rule}" for spec, rule, _ in PROBE_CASES])
    def test_escape_probe_energies(self, spec, rule, energy):
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), spec,
                              SolverOptions(selection_rule=rule))
        assert res.converged
        assert res.energy == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_probe_accepted_on_the_last_iteration(self):
        # max_outer ends the loop right after a probe moved u: the reported
        # certificate belongs to the returned u, not to the stall before it
        m = build_interval_mesh(-1, 1, 64)
        spec, opts = neg_sign(), SolverOptions(max_outer=1)
        res = solve_inclusion(m, spec, opts)
        assert not res.converged and len(res.energy_trace) == 3
        assert res.stationarity == stationarity_measure(m, res.u, spec)
        ref = inclusion_residual(m, res.u, spec, margin=opts.working_margin)
        assert np.array_equal(res.residuals, ref)


class TestConvergenceOrder:
    def test_interval_cap_energy_is_second_order(self):
        errs = [abs(solve_inclusion(build_interval_mesh(-1, 1, n), neg_sign()).energy
                    - CAP_ENERGY) for n in (256, 1024, 4096)]
        orders = [math.log(errs[k] / errs[k + 1], 4.0) for k in range(2)]
        assert all(1.95 <= p <= 2.05 for p in orders), orders

    def test_disk_prescribed_linf_order(self):
        errs = []
        for refinement in (2, 3, 4, 5):
            mesh = build_disk_mesh(1.0, refinement)
            exact = analytic_radial(2.0, 1.0, 2).on_mesh(mesh).values
            errs.append(float(np.abs(solve_prescribed(mesh, 2.0).values - exact).max()))
        orders = [math.log2(errs[k] / errs[k + 1]) for k in range(3)]
        assert all(p >= 1.75 for p in orders), orders


class TestSolverOptions:
    @pytest.mark.parametrize("kw", [
        dict(inner_tol=0.0), dict(outer_tol=-1.0), dict(inner_tol=math.inf),
        dict(max_outer=0), dict(outer_tol=math.nan), dict(max_outer=-3),
        dict(max_inner=0), dict(selection_rule="median"),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw)

    def test_margin_is_not_an_option(self):
        with pytest.raises(TypeError):
            SolverOptions(working_margin=1e-9)
        with pytest.raises(AttributeError):
            SolverOptions().working_margin = 1e-9


def cube_mesh(cells):
    """Unit cube, `cells` cubes per side, each split into the six Kuhn tetrahedra."""
    side = cells + 1
    grid = np.array(list(itertools.product(range(side), repeat=3)), dtype=float)
    nodes = grid / cells

    def idx(p):
        return (p[0] * side + p[1]) * side + p[2]

    elements = []
    for corner in itertools.product(range(cells), repeat=3):
        for axes in itertools.permutations(range(3)):
            p = list(corner)
            tet = [idx(p)]
            for a in axes:
                p[a] += 1
                tet.append(idx(p))
            elements.append(tet)
    boundary = [i for i, x in enumerate(grid) if np.any((x == 0) | (x == cells))]
    return Mesh(nodes, elements, boundary)


WORKSPACE_MESHES = {
    "interval": lambda: build_interval_mesh(-1, 1, 64),
    "rectangle": lambda: build_rectangle_mesh(2.0, 1.0, 12, 7),
    "disk": lambda: build_disk_mesh(1.0, 3),
    "cube": lambda: cube_mesh(6),
}


def reference_hessian(mesh, values, order):
    """COO assembly of m * B (I/r + g g^T/r^3) B^T, interior rows/columns in `order`."""
    g = element_gradients(mesh, values)
    root = np.sqrt(1.0 - (g * g).sum(axis=1))
    A = np.eye(mesh.dim)[None] / root[:, None, None] \
        + g[:, :, None] * g[:, None, :] / (root ** 3)[:, None, None]
    B = mesh.basis_gradients
    h_el = mesh.element_measure[:, None, None] * np.einsum("mvd,mde,mwe->mvw", B, A, B)
    nv = mesh.dim + 1
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    n = len(mesh.nodes)
    K = sp.coo_matrix((h_el.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K[order][:, order].toarray()


def element_first_hessian(mesh, ws, root, Bg):
    """Interior Hessian data from element blocks in (e, a, b) order and one
    bincount over `ws.scatter`: the sums `_area_hessian` must reproduce."""
    B = mesh.basis_gradients
    m = mesh.element_measure
    h_el = (m / root)[:, None, None] * np.einsum("evd,ewd->evw", B, B) \
        + (m / root ** 3)[:, None, None] * Bg[:, :, None] * Bg[:, None, :]
    nnz = len(ws.indices)
    return np.bincount(ws.scatter, weights=h_el.ravel(), minlength=nnz + 1)[:nnz]


class TestNewtonWorkspace:
    @pytest.mark.parametrize("name", sorted(WORKSPACE_MESHES))
    def test_assembly_is_bit_equal_to_element_first(self, monkeypatch, name):
        mesh = WORKSPACE_MESHES[name]()
        rng = np.random.default_rng(5)
        values = rng.standard_normal(len(mesh.nodes))
        values[mesh.boundary_nodes] = 0.0
        values *= 0.9 / max_gradient_norm(mesh, values)
        ws = _newton_workspace(mesh)
        g = element_gradients(mesh, values)
        root = np.sqrt(1.0 - (g * g).sum(axis=1))
        Bg = np.einsum("evd,ed->ev", mesh.basis_gradients, g)
        data = _area_hessian(mesh, ws, root, Bg)
        assert np.array_equal(data, element_first_hessian(mesh, ws, root, Bg))
        # the K0 matrix, as the preconditioner factors it
        matrices = []
        factor = solver._factor
        monkeypatch.setattr(solver, "_factor", lambda k: matrices.append(k) or factor(k))
        solver._k0_preconditioner(mesh, ws)
        solver._K0.clear()
        M = len(mesh.elements)
        assert len(matrices) == 1 and np.array_equal(
            matrices[0].data, element_first_hessian(mesh, ws, np.ones(M), np.zeros((M, mesh.dim + 1))))

    @pytest.mark.parametrize("name", sorted(WORKSPACE_MESHES))
    def test_assembly_matches_coo_reference(self, name):
        mesh = WORKSPACE_MESHES[name]()
        rng = np.random.default_rng(3)
        values = rng.standard_normal(len(mesh.nodes))
        values[mesh.boundary_nodes] = 0.0
        values *= 0.9 / max_gradient_norm(mesh, values)
        ws = _newton_workspace(mesh)
        g = element_gradients(mesh, values)
        root = np.sqrt(1.0 - (g * g).sum(axis=1))
        Bg = np.einsum("evd,ed->ev", mesh.basis_gradients, g)
        K = ws.matrix(_area_hessian(mesh, ws, root, Bg))
        assert K.has_canonical_format
        ref = reference_hessian(mesh, values, ws.order)
        assert np.abs(K.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("name", sorted(WORKSPACE_MESHES))
    def test_order_is_a_permutation_of_the_interior(self, name):
        mesh = WORKSPACE_MESHES[name]()
        order = _newton_workspace(mesh).order
        assert len(order) == len(mesh.interior_nodes)
        assert np.array_equal(np.sort(order), mesh.interior_nodes)

    def test_built_once_and_freed_with_the_mesh(self, monkeypatch):
        builds = []
        dissect = solver._nested_dissection
        monkeypatch.setattr(solver, "_nested_dissection",
                            lambda *args: builds.append(1) or dissect(*args))
        factors = counting(monkeypatch, "splu")
        mesh = build_disk_mesh(1.0, 2)
        solve_prescribed(mesh, 1.0)
        solve_prescribed(mesh, 2.0)
        for a in np.linspace(1.5, 2.5, 8):
            solve_prescribed(mesh, a)
        ws = _newton_workspace(mesh)
        assert len(builds) == 1
        # one K0 factor preconditions every kink-free 2D solve on the mesh
        assert len(factors) == 1 and list(solver._K0) == [mesh]
        # a 1D solve takes banded Cholesky steps, makes no SuperLU factor
        # and keeps the slot
        _, stats = _solve_prescribed(build_interval_mesh(-1, 1, 64), 1.0, SolverOptions())
        assert stats.iterations > 0 and len(factors) == 1
        assert list(solver._K0) == [mesh]
        # another mesh drops the first mesh's factor: at most one is alive
        k0 = weakref.ref(solver._K0[mesh])
        other = build_disk_mesh(1.0, 2)
        solve_prescribed(other, 1.0)
        assert k0() is None and list(solver._K0) == [other]
        # a kinked solve holds a Hessian factor across Newton steps, so it
        # factors fewer times than it steps; solve_inclusion empties the slot
        # when it returns
        k0 = weakref.ref(solver._K0[other])
        calls = len(factors)
        res = solve_inclusion(build_disk_mesh(1.0, 3), step(-1.0, 1.0, 0.1))
        assert 1 <= len(factors) - calls < res.inner_iterations
        assert k0() is None and len(solver._K0) == 0
        mesh_ref, ws_ref = weakref.ref(mesh), weakref.ref(ws)
        del mesh, ws
        gc.collect()
        assert mesh_ref() is None and ws_ref() is None
        # the factor dies with its mesh
        solve_prescribed(other, 1.0)
        k0 = weakref.ref(solver._K0[other])
        del other
        gc.collect()
        assert k0() is None and len(solver._K0) == 0

    def test_no_interior_node(self):
        m = build_interval_mesh(-1, 1, 1)
        assert np.all(solve_prescribed(m, 1.0).values == 0.0)

    def test_one_interior_node(self):
        # u(0) = c minimizes 2(1 - sqrt(1 - c^2)) + c, so c = -1/sqrt(5)
        m = build_interval_mesh(-1, 1, 2)
        u = solve_prescribed(m, 1.0)
        assert u.values[1] == pytest.approx(-1.0 / math.sqrt(5.0), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_intervals_take_banded_steps(self, monkeypatch, n):
        # the band width is read off the pattern: no band with no interior
        # node, a diagonal with one, one off-diagonal from two on
        factors = counting(monkeypatch, "splu")
        mesh = build_interval_mesh(-1, 1, n)
        values, _ = _solve_prescribed(mesh, 1.0, SolverOptions())
        gradient = psi_gradient(mesh, Field(mesh, values)) + mesh.node_weight
        assert np.abs(gradient[mesh.interior_nodes]).max(initial=0.0) <= 1e-10
        assert factors == []
        assert _newton_workspace(mesh).upper.shape == (1 + (n > 2), n - 1)

    @pytest.mark.parametrize("pinned", [(), (10, 11, 40)])
    def test_banded_direction_matches_superlu(self, monkeypatch, pinned):
        # the band holds the upper triangle only, so a pinned node must zero
        # its column as well as its row
        mesh = build_interval_mesh(-1, 1, 64)
        ws = _newton_workspace(mesh)
        hessians, errors = [], []
        assemble, band_solve = solver._area_hessian, solver.solveh_banded

        def recording(*args):
            hessians.append(assemble(*args))  # shifted and pinned in place
            return hessians[-1]

        def checked(band, rhs, **kwargs):
            reference = splu(ws.matrix(hessians[-1])).solve(rhs)
            direction = band_solve(band, rhs, **kwargs)
            errors.append(np.abs(direction - reference).max() / np.abs(reference).max())
            return direction
        monkeypatch.setattr(solver, "_area_hessian", recording)
        monkeypatch.setattr(solver, "solveh_banded", checked)
        mask = np.zeros(len(mesh.nodes), bool)
        mask[list(pinned)] = True
        values, stats = _solve_prescribed(mesh, 1.0, SolverOptions(),
                                          pinned=mask if pinned else None)
        assert stats.iterations == len(errors) > 0
        assert max(errors) <= 1e-14
        assert np.all(values[mask] == 0.0)

    def test_shuffled_node_ids_solve_alike(self, monkeypatch):
        # the 1D elimination order sorts the interior by coordinate, so the
        # Hessian is tridiagonal whatever the node ids
        factors = counting(monkeypatch, "splu")
        mesh = build_interval_mesh(-1, 1, 64)
        new_id = np.random.default_rng(7).permutation(len(mesh.nodes))
        shuffled = Mesh(mesh.nodes[np.argsort(new_id)], new_id[mesh.elements],
                        new_id[mesh.boundary_nodes])
        assert _newton_workspace(shuffled).upper.shape == (2, 63)
        for spec in (step(-1.0, 1.0, 0.25), neg_sign()):
            res, res_shuffled = solve_inclusion(mesh, spec), solve_inclusion(shuffled, spec)
            assert res_shuffled.converged
            assert res_shuffled.inner_iterations == res.inner_iterations
            assert np.array_equal(res_shuffled.u.values[new_id], res.u.values)
        assert factors == []

    def test_band_solve_failure_is_a_factorization_failure(self, monkeypatch):
        def failing(*args, **kwargs):
            raise LinAlgError("2-th leading minor not positive definite")
        monkeypatch.setattr(solver, "solveh_banded", failing)
        with pytest.raises(InnerSolveError, match="^Hessian factorization failed: 2-th") as err:
            solve_prescribed(build_interval_mesh(-1, 1, 64), 1.0)
        assert err.value.iterations == 0 and not err.value.last_values.any()

    def test_cg_stops_at_a_tenth_of_the_inner_stop(self, monkeypatch):
        # scipy's CG stops at max(atol, rtol * |b|_2); the Newton stop is a
        # max-norm, at most the 2-norm, so no step solves past a tenth of it
        stops = []
        original = solver.cg

        def recording(A, b, **kwargs):
            stops.append(max(kwargs["atol"], kwargs["rtol"] * np.linalg.norm(b)))
            return original(A, b, **kwargs)
        monkeypatch.setattr(solver, "cg", recording)
        opts = SolverOptions()
        mesh = build_disk_mesh(1.0, 4)
        for a in (1.5, 2.0, 2.4):
            solve_prescribed(mesh, a, opts)
        solve_inclusion(build_disk_mesh(1.0, 3), step(-1.0, 1.0, 0.1), opts)
        assert stops and min(stops) >= 0.1 * opts.inner_tol

    @pytest.mark.parametrize("a, steps", [(1.5, 5), (2.0, 8), (2.4, 6)])
    def test_disk_newton_step_counts(self, a, steps):
        _, stats = _solve_prescribed(build_disk_mesh(1.0, 4), a, SolverOptions())
        assert stats.iterations == steps

    def test_k0_applications_on_disk5(self, monkeypatch):
        # the dimensionless forcing needs fewer K0 solves than the absolute
        # forcing min(0.1, residual), which made 286 here, its floor at the
        # inner stop fewer than the forcing alone, which made 260, and the
        # flux start (94, its two solves included) fewer than a zero start,
        # which made 195
        applications = []
        preconditioner = solver._k0_preconditioner

        def counting_k0(mesh, ws):
            k0 = preconditioner(mesh, ws)
            return LinearOperator(
                k0.shape, matvec=lambda x: applications.append(1) or k0.matvec(x), dtype=float)
        monkeypatch.setattr(solver, "_k0_preconditioner", counting_k0)
        mesh = build_disk_mesh(1.0, 5)
        for a in np.linspace(1.5, 2.5, 8):
            solve_prescribed(mesh, a)
        solver._K0.clear()
        assert 0 < len(applications) < 195

    def test_kinked_stages_hold_their_factor(self, monkeypatch):
        # each kinked or pinned stage factors its first Hessian and
        # preconditions its later steps with it: fewer factors than steps
        factors = counting(monkeypatch, "splu")
        res = solve_inclusion(build_disk_mesh(1.0, 4), step(-1.0, 1.0, 0.1))
        assert res.converged and res.inner_iterations == 21
        assert len(factors) < res.inner_iterations

    @pytest.mark.parametrize("refinement, a, steps", [(4, 30.0, 9), (3, 100.0, 15)])
    def test_strong_fields_fall_back_to_the_direct_factor(self, monkeypatch, refinement,
                                                          a, steps):
        # K0-preconditioned CG misses its forcing this close to the constraint
        # surface; that step factors its Hessian, whose factor then
        # preconditions the solve's later steps until the next miss
        factors = counting(monkeypatch, "splu")
        mesh = build_disk_mesh(1.0, refinement)
        values, stats = _solve_prescribed(mesh, a, SolverOptions())
        gradient = psi_gradient(mesh, Field(mesh, values)) + mesh.node_weight * a
        assert np.abs(gradient[mesh.interior_nodes]).max() <= 1e-10
        assert stats.iterations == steps
        # K0, then a direct factor per step from the first CG miss on
        assert 2 <= len(factors) <= steps
