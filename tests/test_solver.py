import dataclasses
import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import splu

from minkcurv import solver
from minkcurv.energy import FEASIBILITY_MARGIN, StrictFeasibilityError, total_energy
from minkcurv.mesh import (Field, Mesh, MeshError, build_disk_mesh, build_interval_mesh,
                           build_rectangle_mesh, element_gradients, inradius,
                           max_gradient_norm)
from minkcurv.energy import psi, psi_gradient
from minkcurv.nonlinearity import (Jump, NonlinearitySpec, bracket, constant, envelopes,
                                   heaviside, neg_sign, power, step)
from minkcurv.solver import (InnerSolveError, SolverOptions, _newton_workspace,
                             _solve_prescribed, _step_hessian, solve_inclusion,
                             solve_prescribed, stationarity_measure)
from minkcurv.verify import (analytic_radial, boundary_distance_cone, brute_force_minimize,
                             inclusion_residual, random_feasible_field,
                             verification_report)

SQRT2 = math.sqrt(2.0)
# closed-form energy of the attracting-sign problem on (-1, 1)
CAP_ENERGY = 2.0 - SQRT2 - math.log(1.0 + SQRT2)


def refused(name, match):
    """What `SolverOptions(**{name: <a bad value>})` raises: a ValueError
    matching `match` for a field, a TypeError for the inner tolerance and the
    caps, which are the module constants `_INNER_TOL`, `_MAX_INNER` and
    `_MAX_OUTER` and no field."""
    if name in ("inner_tol", "max_inner", "max_outer"):
        return pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'")
    return pytest.raises(ValueError, match=match)


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
        _, stats = _solve_prescribed(m, np.full(129, 1.0))
        trace = stats.objectives
        diffs = np.diff(trace)
        # strict descent up to the roundoff resolution of the objective
        assert np.all(diffs < 1e-13 * (1.0 + np.abs(trace[:-1])))

    def test_unique_minimizer_from_different_starts(self):
        m = build_interval_mesh(-1, 1, 64)
        cold = solve_prescribed(m, 1.0)
        bump = Field.from_function(m, lambda x: 0.5 * (1 - abs(x[:, 0])),
                                   dirichlet_zero=True)
        warm = solve_prescribed(m, 1.0, SolverOptions(initial=bump))
        assert np.abs(cold.values - warm.values).max() <= 10 * solver._INNER_TOL

    def test_iterates_stay_strictly_feasible(self):
        m = build_interval_mesh(-1, 1, 64)
        vals, stats = _solve_prescribed(m, np.full(65, 3.0))
        assert stats.max_gradient <= 1.0 - SolverOptions().working_margin
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
        with pytest.raises(StrictFeasibilityError, match=r"^SolverOptions\.initial: element"):
            solve_prescribed(m, 1.0, SolverOptions(initial=steep))

    def test_start_field_is_opts_initial(self, monkeypatch):
        # one Newton step does not reach the solution from zero; from the
        # solution itself no step is needed
        m = build_interval_mesh(-1, 1, 64)
        cold = solve_prescribed(m, 1.0)
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        warm = solve_prescribed(m, 1.0, SolverOptions(initial=cold))
        assert np.array_equal(warm.values, cold.values)
        with pytest.raises(TypeError):
            solve_prescribed(m, 1.0, initial=cold)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        # from zero one step is short of the stop (the flux start needs none)
        m = build_interval_mesh(-1, 1, 64)
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        with pytest.raises(InnerSolveError) as info:
            _solve_prescribed(m, 1.0, initial=np.zeros(65))
        err = info.value
        assert err.last_values is not None
        assert math.isfinite(err.residual) and err.residual > 0
        assert err.iterations == 1

    def test_flat_steps_above_the_max_norm_stop_fail(self):
        # e = 100 saturates the interval: _FLAT_STEPS accepted steps in a row
        # leave the objective unchanged to roundoff with the residual above
        # _INNER_TOL, and the solve raises there instead of running to _MAX_INNER
        m = build_interval_mesh(-1, 1, 64)
        with pytest.raises(InnerSolveError, match="unchanged") as info:
            _solve_prescribed(m, 100.0)
        err = info.value
        assert err.iterations <= 20 and err.residual > solver._INNER_TOL
        assert f"{err.residual:.3e}" in str(err)

    def test_flat_steps_past_the_max_norm_stop_are_returned(self):
        # an l1 target below roundoff: once the max-norm stop holds, the
        # _FLAT_STEPS steps that leave the objective unchanged to roundoff end
        # the solve, which returns the iterate instead of failing
        m = build_disk_mesh(1.0, 3)
        values, stats = _solve_prescribed(m, 2.0, l1_tol=0.0)
        gradient = psi_gradient(m, Field(m, values)) + m.node_weight * 2.0
        assert np.abs(gradient[m.interior_nodes]).max() <= solver._INNER_TOL
        assert 0 < stats.iterations < solver._MAX_INNER

    def test_l1_target_below_roundoff_stops_at_the_floor(self):
        # in 1D the iterate never stalls bit for bit, but the objective stops
        # moving: the solve returns there, at the max-norm stop
        m = build_interval_mesh(-1, 1, 64)
        values, stats = _solve_prescribed(m, 1.0, l1_tol=0.0)
        gradient = psi_gradient(m, Field(m, values)) + m.node_weight * 1.0
        assert np.abs(gradient[m.interior_nodes]).max() <= solver._INNER_TOL
        assert 0 < stats.iterations <= 15

    def test_a_failed_solve_leaves_its_steps_in_the_sink(self, monkeypatch):
        m = build_interval_mesh(-1, 1, 64)
        sink = []
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        with pytest.raises(InnerSolveError):
            _solve_prescribed(m, 1.0, initial=np.zeros(65), stats_sink=sink)
        assert [stats.iterations for stats in sink] == [1] and sink[0].max_value > 0.0

    def test_rejects_non_finite_rhs(self):
        m = build_interval_mesh(-1, 1, 8)
        e = np.zeros(9)
        e[3] = math.nan
        with pytest.raises(ValueError):
            solve_prescribed(m, e)

    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_options_reject_bad_tolerances(self, name, value):
        with refused(name, "positive and finite"):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("name", ["max_inner", "max_outer"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, 0, -1])
    def test_options_reject_bad_caps(self, name, value):
        # the caps are the module constants _MAX_INNER and _MAX_OUTER, no field
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("max_inner", True), ("max_outer", True), ("max_outer", np.True_), ("inner_tol", True),
        ("outer_tol", True), ("inner_tol", "1e-10"), ("outer_tol", 1e-8j), ("inner_tol", None)])
    def test_options_reject_bools_and_non_real_values(self, name, value):
        # a bool tolerance used to run as 1.0, and a string tolerance raised
        # TypeError from the range comparison
        with refused(name, re.escape(f"{name}={value!r}")):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol"])
    @pytest.mark.parametrize("value", [10 ** 400, np.longdouble("1e400")], ids=["int", "long"])
    def test_options_reject_tolerances_past_the_floats(self, name, value):
        # float() of the int overflows, of the long double it is inf
        with refused(name, "positive and finite"):
            SolverOptions(**{name: value})

    def test_options_store_float_tolerances(self):
        assert type(SolverOptions(outer_tol=np.float32(1e-8)).outer_tol) is float
        opts = SolverOptions(outer_tol=10 ** 300)
        assert type(opts.outer_tol) is float and opts.outer_tol == 1e300

    def test_options_take_int_and_numpy_tolerances(self):
        for tol in (1, np.float64(1e-8)):
            opts = SolverOptions(outer_tol=tol)
            assert solve_inclusion(build_interval_mesh(-1, 1, 8), neg_sign(), opts).converged

    def test_options_take_numpy_integer_caps(self, monkeypatch):
        # neg_sign on n=8 converges within 7 Newton steps a solve and 2 outer iterations
        monkeypatch.setattr(solver, "_MAX_INNER", np.int64(7))
        monkeypatch.setattr(solver, "_MAX_OUTER", np.int32(2))
        assert solve_inclusion(build_interval_mesh(-1, 1, 8), neg_sign()).converged

    @pytest.mark.parametrize("initial", [np.zeros(9), [0.0] * 9, 0.0])
    def test_options_reject_an_initial_that_is_not_a_field(self, initial):
        with pytest.raises(ValueError, match=f"^initial must be a Field, got "
                                             f"{type(initial).__name__}$"):
            SolverOptions(initial=initial)

    @pytest.mark.parametrize("build", [lambda: build_interval_mesh(-1, 1, 16),
                                       lambda: build_disk_mesh(1.0, 2)], ids=["n16", "disk2"])
    def test_non_finite_forcing_fails_before_the_flux_start(self, monkeypatch, build):
        # the check precedes the flux start, which would divide by inf (a
        # warning, an error under this suite's filter) and factor K0
        mesh = build()
        node = mesh.interior_nodes[len(mesh.interior_nodes) // 2]
        spec = NonlinearitySpec(
            evaluate=lambda x, s: np.where((x == mesh.nodes[node]).all(axis=1), np.inf, 1.0),
            jumps=())
        factors = counting(monkeypatch, "_factor")
        message = f"^forcing must be finite at every interior node, got inf at node {node}$"
        with pytest.raises(ValueError, match=message):
            solve_inclusion(mesh, spec)
        assert factors == []


class TestBoundaryForcing:
    """A forcing that is infinite only at boundary nodes, whose values are
    fixed, is the forcing 0 there."""

    @staticmethod
    def infinite_on_the_boundary(mesh):
        # 1 inside, inf on the boundary; the primitive is nan there, so an
        # energy that took it at a boundary node would be nan
        def forcing(x, s):
            on_boundary = (x[:, None, :] == mesh.nodes[mesh.boundary_nodes]).all(axis=2)
            return np.where(on_boundary.any(axis=1), np.inf, 1.0)
        return NonlinearitySpec(evaluate=forcing, jumps=(),
                                exact_primitive=lambda x, s: np.where(
                                    np.isfinite(forcing(x, s)), s, np.nan))

    def test_right_hand_side_is_zero_on_the_boundary(self):
        m = build_disk_mesh(1.0, 2)
        e = np.full(len(m.nodes), 1.0)
        e[m.boundary_nodes] = np.inf
        rhs = solver._right_hand_side(m, e)
        assert np.all(rhs[m.boundary_nodes] == 0.0) and np.all(rhs[m.interior_nodes] == 1.0)
        finite = solver._right_hand_side(m, 2.0)
        assert np.all(finite[m.interior_nodes] == 2.0) and np.all(finite[m.boundary_nodes] == 0.0)

    def test_solves_as_the_constant_forcing(self):
        m = build_disk_mesh(1.0, 2)
        res = solve_inclusion(m, self.infinite_on_the_boundary(m))
        ref = solve_inclusion(m, constant(1.0))
        assert res.converged and res.breakdown is None
        assert np.array_equal(res.u.values, ref.u.values)
        assert res.energy_trace == ref.energy_trace
        assert res.stationarity == ref.stationarity
        interior = m.interior_nodes
        assert np.array_equal(res.zeta[interior], ref.zeta[interior])
        assert np.all(res.zeta[m.boundary_nodes] == 0.0)
        report = verification_report(m, res.u, res.zeta, self.infinite_on_the_boundary(m))
        assert report.all_passed

    def test_an_interior_node_is_still_checked(self):
        m = build_disk_mesh(1.0, 2)
        e = np.full(len(m.nodes), 1.0)
        e[m.interior_nodes[0]] = np.inf
        with pytest.raises(ValueError, match=f"at node {m.interior_nodes[0]}$"):
            solver._right_hand_side(m, e)


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
        # 32 steps over the disk-4 grid from the flux start, 67 from zero,
        # and 28 over the disk-5 grid; solve_prescribed keeps the max-norm
        # stop alone, with the l1 stop of solve_inclusion's kink-free solves
        # they would be 33 and 32
        steps = newton_steps(monkeypatch)
        for refinement, bound in ((4, 33), (5, 29)):
            mesh = build_disk_mesh(1.0, refinement)
            steps.clear()
            for a in np.linspace(1.5, 2.5, 11):
                solve_prescribed(mesh, a)
            assert sum(steps) <= bound
        solver._K0.clear()

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
        zero, _ = _solve_prescribed(mesh, a, initial=np.zeros(len(mesh.nodes)))
        assert np.abs(flux.values - zero).max() <= 1e-10

    def test_ten_disk_solves_make_one_factor(self, monkeypatch):
        # the start's two K0 solves and every Newton step share one K0 factor
        factors = counting(monkeypatch, "splu")
        mesh = build_disk_mesh(1.0, 4)
        for a in np.linspace(1.5, 2.5, 10):
            solve_prescribed(mesh, a)
        solver._K0.clear()
        assert len(factors) == 1

    def test_interval_start_makes_one_band_factor(self, monkeypatch):
        # the start's two K0 solves share one band factor, as in 2D
        calls = []
        band_routines(monkeypatch, lambda routine: lambda *args: (
            calls.append(routine) or routine(*args)))
        solver._flux_start(build_interval_mesh(-1, 1, 64), np.ones(65))
        solver._K0.clear()
        assert calls == [dpttrf, dpttrs, dpttrs]

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
        calls = counting(monkeypatch, "get_lapack_funcs")
        m = build_interval_mesh(-1, 1, 8)
        with pytest.raises(ValueError, match="finite"):
            solve_prescribed(m, np.full(9, math.inf))
        assert calls == []


class TestSolveInclusion:
    def test_failed_escape_probes_raise(self, monkeypatch):
        # u = 0 is a fixed point of the mid selection of neg_sign; on the
        # disk the probes that would leave it need more than one Newton step
        # each from the flux start.  The stall is no fixed point: rho = 0
        # there, yet the run has not converged
        m = build_disk_mesh(1.0, 3)
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        res = solve_inclusion(m, neg_sign())
        assert not res.converged and res.stationarity == 0.0
        assert res.breakdown.startswith("no convergence in 1 Newton")
        assert not res.u.values.any()
        # both probes' steps are counted, and so are their iterates
        assert res.inner_iterations == 2 and res.max_iterate_value > 0.0

    # strong constant forcing: Newton reaches its roundoff floor, and the
    # certificate decides; no primal iterate certifies the UNCERTIFIED runs
    STRONG = {"n2": lambda: build_interval_mesh(-1, 1, 2),
              "n64": lambda: build_interval_mesh(-1, 1, 64),
              "n1024": lambda: build_interval_mesh(-1, 1, 1024),
              "disk3": lambda: build_disk_mesh(1.0, 3), "disk4": lambda: build_disk_mesh(1.0, 4)}
    UNCERTIFIED = {("n1024", 300), ("n1024", 1000), ("n1024", 3000), ("n64", 3000),
                   ("disk4", 3000)}

    @pytest.mark.parametrize("a", [300, 1000, 3000])
    @pytest.mark.parametrize("name", sorted(STRONG))
    def test_strong_forcing_ends_in_a_verdict(self, name, a):
        res = solve_inclusion(self.STRONG[name](), constant(float(a)))
        assert res.breakdown.startswith("Newton left the objective unchanged to roundoff")
        assert res.inner_iterations < solver._MAX_INNER  # no solve ran to the cap
        assert res.converged == ((name, a) not in self.UNCERTIFIED)

    def test_infeasible_initial_is_a_value_error(self):
        m = build_interval_mesh(-1, 1, 8)
        steep = Field.from_function(m, lambda x: 2.0 * (1 - abs(x[:, 0])),
                                    dirichlet_zero=True)
        with pytest.raises(StrictFeasibilityError):
            solve_inclusion(m, neg_sign(), SolverOptions(initial=steep))

    def test_infeasible_initial_is_named_before_the_loop(self, monkeypatch):
        m = build_interval_mesh(-1, 1, 8)
        steep = Field.from_function(m, lambda x: 2.0 * (1 - abs(x[:, 0])),
                                    dirichlet_zero=True)
        inner, certificates = (counting(monkeypatch, "_inner_solve"),
                               counting(monkeypatch, "_certificate"))
        with pytest.raises(ValueError, match=r"^SolverOptions\.initial: element \d+ has "
                                             r"\|grad\| = 2 > 1 - 1e-12"):
            solve_inclusion(m, neg_sign(), SolverOptions(initial=steep))
        assert inner == certificates == []
        edge = Field.from_function(m, lambda x: (1 - 1e-10) * (1 - abs(x[:, 0])),
                                   dirichlet_zero=True)
        assert solve_inclusion(m, neg_sign(), SolverOptions(initial=edge)).converged

    def test_zero_rule(self):
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, constant(0.0))
        assert res.converged
        assert res.outer_iterations == 1
        assert np.all(res.u.values == 0.0)
        assert res.energy == 0.0

    def test_zero_start_is_the_flux_start(self, monkeypatch):
        # both entry points start a zero field from the flux start, which
        # solves the symmetric interval with no Newton step
        steps = newton_steps(monkeypatch)
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, constant(1.0))
        explicit = solve_inclusion(m, constant(1.0), SolverOptions(initial=Field.zero(m)))
        assert res.converged and res.inner_iterations == 0 and steps == [0, 0]
        assert np.array_equal(explicit.u.values, res.u.values)
        assert np.array_equal(solve_prescribed(m, 1.0).values, res.u.values)

    def test_strong_disk_forcing_converges(self):
        # the l1 stop scales with 1 + |objective|: a fixed target of
        # outer_tol / 10 runs this solve to _MAX_INNER
        res = solve_inclusion(build_disk_mesh(1.0, 4), constant(100.0))
        assert res.converged

    def test_fine_kinked_interval_converges(self):
        # the smoothing and pinned stages keep the max-norm stop alone; the
        # l1 stop there runs this solve to _MAX_INNER
        res = solve_inclusion(build_interval_mesh(-1, 1, 4096), step(-1.0, 1.0, 0.1))
        assert res.converged

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
    def test_residual_is_the_inclusion_residual(self, spec, max_outer, min_residual,
                                                monkeypatch):
        # the certificate pass and `inclusion_residual` are built from the
        # same pieces, not checked independently: this pins that the pass
        # composes them as `verify` does; one outer step of f(s) = s from a
        # bump ends with a large residual, so this is not only 0 == 0
        m = build_interval_mesh(-1, 1, 64)
        x = m.nodes[:, 0]
        monkeypatch.setattr(solver, "_MAX_OUTER", max_outer)
        opts = SolverOptions(initial=Field(m, 0.5 * (1 - np.abs(x)), dirichlet_zero=True))
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

    def test_outer_cap_returns_unconverged(self, monkeypatch):
        m = build_interval_mesh(-1, 1, 64)
        monkeypatch.setattr(solver, "_MAX_OUTER", 1)
        res = solve_inclusion(m, neg_sign())
        assert not res.converged
        assert res.outer_iterations == 1

    def test_contracting_fixed_point_runs_to_rhos_gate(self):
        # f(s) = s from a bump: each outer step shrinks |u| about 2.5-fold;
        # after 21 the step is below outer_tol but rho (1.01e-8) is not
        # within its gate (1.0e-8), and the 22nd step brings it there
        m = build_interval_mesh(-1, 1, 64)
        x = m.nodes[:, 0]
        opts = SolverOptions(initial=Field(m, 0.5 * (1 - np.abs(x)), dirichlet_zero=True))
        res = solve_inclusion(m, power(1.0, 2.0), opts)
        assert res.converged and res.outer_iterations == 22
        assert res.stationarity <= opts.outer_tol * (1 + abs(res.energy))

    @pytest.mark.parametrize("solve", [lambda m, opts: solve_inclusion(m, neg_sign(), opts).u,
                                       lambda m, opts: solve_prescribed(m, 1.0, opts)],
                             ids=["solve_inclusion", "solve_prescribed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_initial_is_named(self, solve, value):
        # the start is named before the forcing check or Newton can trip
        # over it; a boundary value is replaced by 0 and may be anything
        m = build_interval_mesh(-1, 1, 8)
        values = np.zeros(9)
        values[0] = values[4] = value
        with pytest.raises(ValueError, match=f"^SolverOptions\\.initial is {value} at node 4, "
                                             f"not finite$"):
            solve(m, SolverOptions(initial=Field(m, values)))
        values[4] = 0.0
        assert np.isfinite(solve(m, SolverOptions(initial=Field(m, values))).values).all()

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


# every kink-free case of the case matrix
MARGIN_MESHES = {
    **{f"disk{r}": (lambda r=r: build_disk_mesh(1.0, r)) for r in (3, 4, 5, 6)},
    **{f"interval{n}": (lambda n=n: build_interval_mesh(-1, 1, n)) for n in (256, 1024, 4096)},
}
MARGIN_RULES = {
    **{f"constant{a:g}": (lambda a=a: constant(a)) for a in (1.0, 2.0, 3.0)},
    "neg_sign": neg_sign,
}


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

    @pytest.mark.parametrize("rule", sorted(MARGIN_RULES))
    @pytest.mark.parametrize("mesh", sorted(MARGIN_MESHES))
    def test_kink_free_runs_clear_the_gate_tenfold(self, mesh, rule):
        # rho is an l1 of the gradient: a max-norm stop alone would leave it
        # at whatever the last Newton step overshoots to (disk-4/5 neg_sign
        # and disk-5 constant(2) were the close calls).  The kink-free inner
        # solves also stop on |g|_1 <= outer_tol / 10 * (1 + |objective|);
        # the largest rho today is interval n=4096 constant(3), at 0.083 of
        # the gate
        opts = SolverOptions()
        res = solve_inclusion(MARGIN_MESHES[mesh](), MARGIN_RULES[rule](), opts)
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
        # d = v - u, for distance cones and random feasible fields, each odd
        # one u plus a field within its gradient headroom below 0.9
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


def affine_jump_rule():
    """-2s - 1 below s = 0.1 and -2s + 1 above: an increasing jump by 2 on a
    decreasing line, whose outer loop warm-starts every kinked solve after
    the first from a plateau on the level."""
    return NonlinearitySpec(
        evaluate=lambda x, s: -2.0 * s + np.where(s > 0.1, 1.0, -1.0),
        jumps=(Jump(level=lambda x: 0.1, left=lambda x: -1.2, right=lambda x: 0.8),),
        growth_c=3.0, name="affine-jump",
        exact_primitive=lambda x, s: -s * s - s + 2.0 * np.maximum(0.0, s - 0.1))


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


def stage_gammas(monkeypatch):
    """The smoothing `gamma` of every `_solve_prescribed` call from here on."""
    gammas = []
    inner = solver._solve_prescribed

    def recording(*args, **kwargs):
        gammas.append(kwargs.get("gamma", 1.0))
        return inner(*args, **kwargs)
    monkeypatch.setattr(solver, "_solve_prescribed", recording)
    return gammas


# (energy, Newton steps) of the increasing-jump rules when every kinked inner
# solve started its ladder at gamma = 1
LADDER_FROM_ONE = {
    ("interval-64", 0.25): (-0.2555983500684893, 23),
    ("interval-64", 0.1): (-0.1394505495524596, 25),
    ("interval-256", 0.25): (-0.25564412879289006, 31),
    ("interval-256", 0.1): (-0.13948280177034664, 35),
    ("disk-3", 0.25): (-0.1871783693203045, 1),
    ("disk-3", 0.1): (-0.14629043609300377, 20),
    ("disk-4", 0.25): (-0.18843185845934596, 1),
    ("disk-4", 0.1): (-0.14744465354139563, 20),
}


class TestLadderEntry:
    def test_enters_at_the_first_band_that_leaves_out_a_node(self, monkeypatch):
        # the flux start peaks near 0.41: the band of the jump 2 holds every
        # node above 0.25 at gamma = 1 (t < 2), not at 0.01 (t < 0.02)
        mesh = build_interval_mesh(-1, 1, 64)
        t = solver._flux_start(mesh, np.full(len(mesh.nodes), -1.0)) - 0.25
        assert 0.02 <= t.max() < 2.0
        gammas = stage_gammas(monkeypatch)
        res = solve_inclusion(mesh, step(-1.0, 1.0, 0.25))
        assert res.converged and res.inner_iterations == 17
        assert gammas[0] == 0.01 and gammas == sorted(gammas, reverse=True)

    @pytest.mark.parametrize("spec", [step(-1.0, 1.0, 0.9), step(-1.0, -0.9, 0.25)],
                             ids=["no-node-above", "band-leaves-one-out"])
    def test_enters_at_gamma_0_01_with_no_node_in_its_band(self, monkeypatch, spec):
        # no node of the flux start lies above 0.9; with the jump 0.1 the
        # band at gamma = 1 (t < 0.1) would leave out its peak near 0.41.
        # Neither is a reason to run a stage at gamma = 1
        gammas = stage_gammas(monkeypatch)
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), spec)
        assert res.converged and gammas[0] == 0.01

    @pytest.mark.parametrize("offset", [1e-9, 1e-13])
    def test_a_start_just_above_the_level_enters_at_gamma_0_01(self, monkeypatch, offset):
        # an entry stage at the gamma whose band leaves out nodes this close
        # to the level (1e-10, or the ladder's floor) stalls Newton at the
        # roundoff floor; from gamma = 0.01 the ladder reaches the same
        # solution with no stage at gamma = 1
        mesh, spec = build_interval_mesh(-1, 1, 64), step(-1.0, 1.0, 0.25)
        u = solve_inclusion(mesh, spec).u.values
        start = Field(mesh, u + offset * (u > 0.0), dirichlet_zero=True)
        gammas = stage_gammas(monkeypatch)
        res = solve_inclusion(mesh, spec, SolverOptions(initial=start))
        assert gammas[0] == 0.01 and 1.0 not in gammas
        assert res.converged and res.breakdown is None
        assert res.energy == pytest.approx(LADDER_FROM_ONE["interval-64", 0.25][0],
                                           rel=0.0, abs=1e-12)

    def test_a_warm_start_on_the_level_runs_no_stage_at_gamma_one(self, monkeypatch):
        # every outer iteration after the first starts its kinked solve from
        # the last one, whose plateau sits exactly on the level, so no node
        # is above it; an entry rule keyed on such nodes adds a stage at
        # gamma = 1 to each of these solves (174 Newton steps in all)
        gammas = stage_gammas(monkeypatch)
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), affine_jump_rule())
        assert 1.0 not in gammas
        assert res.converged and res.outer_iterations == 6 and res.inner_iterations <= 95

    def test_no_accepted_stage_returns_the_last_pinned_solution(self, monkeypatch):
        # with tol = 0 no pinned solution is accepted; three stages (entry
        # at 0.01, then 1e-4) end the ladder, which returns the last pinned
        # solution: the one the default tolerance accepts.  With all seven
        # stages, the unpinned solve at 1e-10 fails at the roundoff floor
        mesh, spec = build_interval_mesh(-1, 1, 64), step(-1.0, 1.0, 0.25)
        kinks, _ = solver._Kinks.split(mesh, spec)
        zero = np.zeros(len(mesh.nodes))
        accepted = solver._inner_solve(mesh, -1.0, zero, kinks, [], SolverOptions().outer_tol)
        monkeypatch.setattr(solver, "_MAX_STAGES", 3)
        stages, inner = [], solver._solve_prescribed
        monkeypatch.setattr(solver, "_solve_prescribed", lambda *args, **kwargs: (
            stages.append((kwargs["gamma"], "pinned" in kwargs)) or inner(*args, **kwargs)))
        values = solver._inner_solve(mesh, -1.0, zero, kinks, [], 0.0)
        assert stages == [(0.01, False), (0.01, True), (1e-4, False), (1e-4, True)]
        assert np.array_equal(values, accepted)

    def test_a_fine_interval_stage_is_accepted_by_rhos_gate(self, monkeypatch):
        # interval n=32768: the pinned solution of the gamma = 1e-8 stage
        # misses rho's gate and the ladder goes on; the 1e-10 one passes it
        # with a per-node residual of 1.9e-8, which a per-node test at 1e-8
        # would reject, leaving the 1e-12 stage to stall at the roundoff floor
        gammas = stage_gammas(monkeypatch)
        res = solve_inclusion(build_interval_mesh(-1, 1, 32768), step(-1.0, 1.0, 0.25))
        assert res.converged and res.breakdown is None
        assert gammas == [0.01 ** stage for stage in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5)]

    @pytest.mark.parametrize("name, s0", sorted(LADDER_FROM_ONE))
    def test_same_energies_in_no_more_steps(self, name, s0):
        energy, steps = LADDER_FROM_ONE[name, s0]
        res = solve_inclusion(REPELLING_CASES[name][0](), step(-1.0, 1.0, s0))
        assert res.converged
        assert res.energy == pytest.approx(energy, rel=0.0, abs=1e-12)
        assert res.inner_iterations <= steps


def stage_log(monkeypatch):
    """(gamma, pinned, start, InnerSolveError or None, values) of every
    `_solve_prescribed` call from here on; the values of a failed call are
    its own last iterate."""
    log = []
    inner = solver._solve_prescribed

    def recording(*args, **kwargs):
        entry = [kwargs["gamma"], "pinned" in kwargs, np.array(kwargs["initial"]), None, None]
        log.append(entry)
        try:
            entry[4], stats = inner(*args, **kwargs)
        except InnerSolveError as err:
            entry[3], entry[4] = err, np.array(err.last_values)
            raise
        return entry[4], stats
    monkeypatch.setattr(solver, "_solve_prescribed", recording)
    return log


def steep_level_rule():
    """-10 below s = x / 2 and 10 above: an increasing jump whose level is
    steep enough that pinning the 0.01 band on n = 8 leaves the margin."""
    return NonlinearitySpec(
        evaluate=lambda x, s: np.where(s < 0.5 * x[:, 0], -10.0, 10.0),
        jumps=(Jump(level=lambda x: 0.5 * x[:, 0], left=lambda x: -10.0,
                    right=lambda x: 10.0),),
        growth_c=10.0, name="steep-level")


class TestStageFailures:
    def test_a_stage_at_its_roundoff_floor_hands_on_its_start(self, monkeypatch):
        # the gamma = 0.01 stage stops just above the inner stop; returning
        # its smoothed iterate ended the run at energy +29.42 with rho
        # 8.4e8 times its gate, above the zero field's 0
        log = stage_log(monkeypatch)
        mesh = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(mesh, step(-100.0, 100.0, 0.2))
        first = log[0][3]
        assert str(first).startswith("Newton left the objective unchanged to roundoff")
        assert [tuple(entry[:2]) for entry in log] == [(0.01, False), (1e-4, False), (1e-4, True)]
        assert np.array_equal(log[1][2], log[0][2])  # the next stage starts where it did
        assert res.converged and res.breakdown is None and res.outer_iterations == 1
        assert res.energy == pytest.approx(-35.61861691954762, rel=0.0, abs=1e-10)
        assert res.inner_iterations <= 33

    def test_a_last_stage_failure_keeps_the_last_values_solved(self, monkeypatch):
        # every stage of this strong jump fails from the flux start; the run
        # ends with a breakdown at that feasible start, not at the last
        # stage's own failed iterate
        log = stage_log(monkeypatch)
        mesh = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(mesh, step(-3000.0, 3000.0, 0.1))
        start = solver._flux_start(mesh, np.full(len(mesh.nodes), -3000.0))
        assert [tuple(entry[:2]) for entry in log] == [(0.01 ** k, False) for k in range(1, 7)]
        assert all(entry[3] is not None for entry in log)
        assert res.breakdown == str(log[-1][3])
        assert res.breakdown.startswith("no convergence in 200 Newton iterations")
        assert not res.converged and res.outer_iterations == 1
        assert np.array_equal(res.u.values, start)
        assert not np.array_equal(res.u.values, log[-1][4])
        assert max_gradient_norm(mesh, res.u.values) <= 1.0 - FEASIBILITY_MARGIN
        assert res.inner_iterations == sum(entry[3].iterations for entry in log) == 562

    def test_a_pinned_trial_past_the_margin_starts_the_next_stage(self, monkeypatch):
        # pinning the 0.01 band at its steep level leaves the working margin:
        # the trial fails before its first step, and the next stage starts
        # from the unpinned solution
        log = stage_log(monkeypatch)
        mesh = build_interval_mesh(-1, 1, 8)
        res = solve_inclusion(mesh, steep_level_rule())
        gamma, pinned, trial, err, _ = log[1]
        assert (gamma, pinned) == (0.01, True)
        assert str(err) == "initial iterate violates the working feasibility margin"
        assert err.iterations == 0 and err.residual == math.inf
        assert np.array_equal(err.last_values, trial)
        assert max_gradient_norm(mesh, trial) > 1.0 - FEASIBILITY_MARGIN
        assert tuple(log[2][:2]) == (1e-4, False) and np.array_equal(log[2][2], log[0][4])
        assert res.converged and res.breakdown is None


def band_routines(monkeypatch, wrap):
    """Hand every LAPACK routine the solver gets through `get_lapack_funcs`
    to it as `wrap(routine)`."""
    lapack = solver.get_lapack_funcs
    monkeypatch.setattr(solver, "get_lapack_funcs",
                        lambda names, arrays: tuple(wrap(f) for f in lapack(names, arrays)))


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
    def test_one_envelope_pass_per_objective(self, monkeypatch):
        # a kinked solve smooths its kinks once per objective evaluation: the
        # line search's accepted point hands its triple to the next step, and
        # each stage hands the band at its solution to the inner solve
        mesh = build_interval_mesh(-1, 1, 64)
        kinks, _ = solver._Kinks.split(mesh, step(-1.0, 1.0, 0.25))
        objectives, smoothings = counting(monkeypatch, "area_value"), []
        smoothed = solver._Kinks.smoothed
        monkeypatch.setattr(solver._Kinks, "smoothed",
                            lambda *args: smoothings.append(1) or smoothed(*args))
        _, stats = _solve_prescribed(mesh, -1.0, kinks=kinks, gamma=0.01)
        assert stats.iterations > 1 and len(smoothings) == len(objectives) > stats.iterations
        objectives.clear()
        smoothings.clear()
        sink = []
        solver._inner_solve(mesh, -1.0, np.zeros(len(mesh.nodes)), kinks, sink,
                            SolverOptions().outer_tol)
        assert len(sink) == 4  # two stages, each unpinned and pinned
        assert len(smoothings) == len(objectives) > sum(s.iterations for s in sink)

    @pytest.mark.parametrize("spec, rows, rest_jumps", [
        (neg_sign(), 0, True), (constant(1.0), 0, False), (step(-1.0, 1.0, 0.25), 1, False),
        (step(1.0, -1.0, 0.1), 0, True),
    ], ids=["neg_sign", "constant", "step-up", "step-down"])
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
        # loop; the zero-field stall solves the lo probe, and hi is its
        # mirror; the flux start solves the symmetric lo probe with no step
        envelope_calls = counting(monkeypatch, "envelopes")
        gradient_calls = counting(monkeypatch, "psi_gradient")
        inner_calls = counting(monkeypatch, "_inner_solve")
        res = solve_inclusion(build_interval_mesh(-1, 1, 64), neg_sign())
        assert res.converged and res.outer_iterations == 2
        assert len(envelope_calls) == 4
        assert len(gradient_calls) == 2
        assert len(inner_calls) == 3 and res.inner_iterations == 0
        assert res.energy == -0.29552960366622777

    @pytest.mark.parametrize("mesh", [build_interval_mesh(-1, 1, 64), build_disk_mesh(1.0, 4),
                                      build_rectangle_mesh(2.0, 1.0, 16, 8)],
                             ids=["interval", "disk", "rectangle"])
    def test_mirror_probe_is_the_solved_hi_probe(self, mesh):
        # psi is even: Newton from 0 on -e takes the steps on e with signs flipped
        spec, zero = neg_sign(), np.zeros(len(mesh.nodes))
        kinks = solver._Kinks.split(mesh, spec)[0]
        lo, hi = envelopes(spec, mesh.nodes, zero, 0.0)
        lo_u, hi_u = (solver._inner_solve(mesh, e, zero, kinks, [], math.inf) for e in (lo, hi))
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

    def test_probe_accepted_on_the_last_iteration(self, monkeypatch):
        # _MAX_OUTER ends the loop right after a probe moved u: the reported
        # certificate belongs to the returned u, not to the stall before it
        m = build_interval_mesh(-1, 1, 64)
        spec = neg_sign()
        monkeypatch.setattr(solver, "_MAX_OUTER", 1)
        res = solve_inclusion(m, spec)
        assert not res.converged and len(res.energy_trace) == 3
        assert res.stationarity == stationarity_measure(m, res.u, spec)
        ref = inclusion_residual(m, res.u, spec, margin=FEASIBILITY_MARGIN)
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
        dict(outer_tol=0.0), dict(outer_tol=-1.0), dict(outer_tol=math.inf),
        dict(selection_rule="Mid"), dict(outer_tol=math.nan), dict(outer_tol=-math.inf),
        dict(initial=np.zeros(3)), dict(selection_rule="median"),
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


def shuffled_ids(mesh, seed=7):
    """(the mesh with its node ids permuted, the new id of each old node)."""
    new_id = np.random.default_rng(seed).permutation(len(mesh.nodes))
    return (Mesh(mesh.nodes[np.argsort(new_id)], new_id[mesh.elements],
                 new_id[mesh.boundary_nodes]), new_id)


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
    bincount over `ws.scatter`, the dummy slot last and 0: the sums
    `_step_hessian` must reproduce."""
    B = mesh.basis_gradients
    m = mesh.element_measure
    h_el = (m / root)[:, None, None] * np.einsum("evd,ewd->evw", B, B) \
        + (m / root ** 3)[:, None, None] * Bg[:, :, None] * Bg[:, None, :]
    nnz = len(ws.indices)
    return np.append(np.bincount(ws.scatter, weights=h_el.ravel(), minlength=nnz + 1)[:nnz], 0.0)


class TestNewtonWorkspace:
    @pytest.mark.parametrize("solve", [lambda m: solve_inclusion(m, constant(1.0)),
                                       lambda m: solve_prescribed(m, 1.0)],
                             ids=["inclusion", "prescribed"])
    def test_a_part_without_boundary_is_rejected(self, solve):
        # two unit squares, the one at x = 3 with no node marked: the zero
        # boundary condition leaves it free, and the energy has no minimum
        # (solved, it used to report converged at energy -4.8e14)
        square = build_rectangle_mesh(1.0, 1.0, 4, 4)
        n = len(square.nodes)
        mesh = Mesh(np.vstack([square.nodes, square.nodes + [3.0, 0.0]]),
                    np.vstack([square.elements, square.elements + n]), square.boundary_nodes)
        with pytest.raises(MeshError, match=rf"^node {n} at \[3.0, 0.0\] is in a part of the "
                                            "mesh with no boundary node$"):
            solve(mesh)

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
        # B g as `area_hessian_blocks` forms it from g, summed over d left to right
        B = mesh.basis_gradients
        Bg = sum(B[:, :, d] * g[:, d, None] for d in range(mesh.dim))
        np.testing.assert_allclose(Bg, np.einsum("evd,ed->ev", B, g),
                                   rtol=0.0, atol=1e-15 * np.abs(B).max())
        data = _step_hessian(mesh, ws, g, root)
        assert np.array_equal(data, element_first_hessian(mesh, ws, root, Bg))
        M = len(mesh.elements)
        k0 = element_first_hessian(mesh, ws, np.ones(M), np.zeros((M, mesh.dim + 1)))
        # the K0 data, as the preconditioner factors it (on the band in 1D)
        factored = []
        factor = solver._factor
        monkeypatch.setattr(solver, "_factor",
                            lambda ws, data: factored.append(data.copy()) or factor(ws, data))
        solver._k0_preconditioner(mesh, ws)
        solver._K0.clear()
        assert len(factored) == 1 and np.array_equal(factored[0], k0)

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
        K = ws.matrix(_step_hessian(mesh, ws, g, root))
        assert K.has_canonical_format
        ref = reference_hessian(mesh, values, ws.order)
        assert np.abs(K.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("build", [lambda: build_disk_mesh(1.0, 4),
                                       lambda: build_rectangle_mesh(2.0, 1.0, 40, 20),
                                       lambda: cube_mesh(6)],
                             ids=["disk4", "rectangle40x20", "cube6"])
    def test_step_product_is_the_assembled_step_matrix(self, build):
        # K p by the gradient operator alone equals the assembled K times p
        mesh = build()
        rng = np.random.default_rng(8)
        values = rng.standard_normal(len(mesh.nodes))
        values[mesh.boundary_nodes] = 0.0
        values *= 0.9 / max_gradient_norm(mesh, values)
        ws = _newton_workspace(mesh)
        g = element_gradients(mesh, values)
        root = np.sqrt(1.0 - (g * g).sum(axis=1))
        K = ws.matrix(_step_hessian(mesh, ws, g, root))
        product = solver._step_product(mesh, ws, g, root)
        for p in rng.standard_normal((3, len(ws.order))):
            ref = K @ p
            assert np.abs(product(p) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_warm_kink_free_solve_assembles_nothing(self, monkeypatch):
        # with K0 factored, a kink-free solve applies its Hessians by the
        # gradient operator and never assembles one
        mesh = build_disk_mesh(1.0, 4)
        solve_prescribed(mesh, 2.0)
        assembled = []
        step_hessian = solver._step_hessian
        monkeypatch.setattr(solver, "_step_hessian",
                            lambda *args: assembled.append(1) or step_hessian(*args))
        _, stats = _solve_prescribed(mesh, 2.4)
        assert stats.iterations == 6 and assembled == []
        # a cold solve assembles K0 there, and nothing else
        solver._K0.clear()
        _, stats = _solve_prescribed(mesh, 2.4)
        solver._K0.clear()
        assert stats.iterations == 6 and assembled == [1]

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
        _, stats = _solve_prescribed(build_interval_mesh(-1, 1, 64), 1.0)
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
        values, _ = _solve_prescribed(mesh, 1.0)
        gradient = psi_gradient(mesh, Field(mesh, values)) + mesh.node_weight
        assert np.abs(gradient[mesh.interior_nodes]).max(initial=0.0) <= 1e-10
        assert factors == []
        assert _newton_workspace(mesh).upper.shape == (1 + (n > 2), n - 1)

    @pytest.mark.parametrize("pinned", [(), (10, 11, 40)])
    def test_banded_direction_matches_superlu(self, monkeypatch, pinned):
        # the band holds the upper triangle only, so a pinned node must zero
        # its column as well as its row
        mesh = build_interval_mesh(-1, 1, 64)
        errors, factor = [], solver._factor

        def checked(ws, data):  # the Hessian data, shifted and pinned
            solve, reference = factor(ws, data), splu(ws.matrix(data)).solve

            def compared(rhs):
                out, ref = solve(rhs), reference(rhs)
                errors.append(np.abs(out - ref).max() / np.abs(ref).max())
                return out
            return compared
        monkeypatch.setattr(solver, "_factor", checked)
        mask = np.zeros(len(mesh.nodes), bool)
        mask[list(pinned)] = True
        values, stats = _solve_prescribed(mesh, 1.0,
                                          pinned=mask if pinned else None)
        assert stats.iterations == len(errors) > 0
        assert max(errors) <= 1e-14
        assert np.all(values[mask] == 0.0)

    def test_shuffled_node_ids_solve_alike(self, monkeypatch):
        # the 1D elimination order sorts the interior by coordinate, so the
        # Hessian is tridiagonal whatever the node ids
        factors = counting(monkeypatch, "splu")
        mesh = build_interval_mesh(-1, 1, 64)
        shuffled, new_id = shuffled_ids(mesh)
        assert _newton_workspace(shuffled).upper.shape == (2, 63)
        for spec in (step(-1.0, 1.0, 0.25), neg_sign()):
            res, res_shuffled = solve_inclusion(mesh, spec), solve_inclusion(shuffled, spec)
            assert res_shuffled.converged
            assert res_shuffled.inner_iterations == res.inner_iterations
            assert np.array_equal(res_shuffled.u.values[new_id], res.u.values)
        assert factors == []

    @pytest.mark.parametrize("build, routine", [
        (lambda: build_interval_mesh(-1, 1, 64), ("pttrf", "pttrs")),
        (lambda: shuffled_ids(build_interval_mesh(-1, 1, 64))[0], ("pttrf", "pttrs")),
        (lambda: build_interval_mesh(-1, 1, 2), ("pbtrf", "pbtrs")),
    ], ids=["n64", "n64-shuffled", "one-interior-node"])
    def test_band_solve_is_bit_equal_to_solveh_banded(self, monkeypatch, build, routine):
        # the direct LAPACK calls are the factor and solve halves of the
        # routine solveh_banded picks for the band: ptsv for two rows, pbsv
        # for the one row of a single node
        mesh = build()
        ws = _newton_workspace(mesh)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(len(mesh.nodes))
        values[mesh.boundary_nodes] = 0.0
        values *= 0.9 / max_gradient_norm(mesh, values)
        g = element_gradients(mesh, values)
        data = _step_hessian(mesh, ws, g, np.sqrt(1.0 - (g * g).sum(axis=1)))
        asked, lapack = [], solver.get_lapack_funcs
        monkeypatch.setattr(solver, "get_lapack_funcs",
                            lambda names, arrays: asked.append(names) or lapack(names, arrays))
        solve = solver._factor(ws, data)
        assert asked == [routine] and len(ws.upper) == (2 if routine[0] == "pttrf" else 1)
        for rhs in (rng.standard_normal(len(ws.order)), rng.standard_normal(len(ws.order))):
            reference = solveh_banded(data[ws.upper], rhs)
            assert np.array_equal(solve(rhs), reference)  # the factor serves again

    def test_band_solve_failure_is_a_factorization_failure(self, monkeypatch):
        # LAPACK reports a failed band Cholesky by info > 0, here the second minor
        band_routines(monkeypatch, lambda routine: lambda *args: (*routine(*args)[:-1], 2))
        with pytest.raises(InnerSolveError, match="^Hessian factorization failed: 2-th") as err:
            solve_prescribed(build_interval_mesh(-1, 1, 64), 1.0)
        assert err.value.iterations == 0 and not err.value.last_values.any()

    def test_newton_step_factorization_failure(self, monkeypatch):
        # the third band Cholesky fails: the solve raises at its third step
        # with the iterate of two steps, the one a two-step cap stops at
        mesh = build_interval_mesh(-1, 1, 64)
        monkeypatch.setattr(solver, "_MAX_INNER", 2)
        with pytest.raises(InnerSolveError, match="^no convergence in 2 Newton") as capped:
            _solve_prescribed(mesh, 1.0)
        monkeypatch.undo()
        factors, lapack = [], solver.get_lapack_funcs

        def failing_third(names, arrays):
            factor, solve = lapack(names, arrays)

            def call(*args):
                factors.append(1)
                out = factor(*args)
                return (*out[:-1], 2) if len(factors) == 3 else out
            return call, solve
        monkeypatch.setattr(solver, "get_lapack_funcs", failing_third)
        with pytest.raises(InnerSolveError,
                           match=r"^Hessian factorization failed: 2-th leading minor") as err:
            _solve_prescribed(mesh, 1.0)
        assert err.value.iterations == 2 and len(factors) == 3
        assert np.array_equal(err.value.last_values, capped.value.last_values)
        assert err.value.residual == capped.value.residual

    def test_cg_stops_at_a_tenth_of_the_inner_stop(self, monkeypatch):
        # scipy's CG stops at max(atol, rtol * |b|_2); the Newton stop is a
        # max-norm, at most the 2-norm, so no step solves past a tenth of it
        stops = []
        original = solver.cg

        def recording(A, b, **kwargs):
            stops.append(max(kwargs["atol"], kwargs["rtol"] * np.linalg.norm(b)))
            return original(A, b, **kwargs)
        monkeypatch.setattr(solver, "cg", recording)
        mesh = build_disk_mesh(1.0, 4)
        for a in (1.5, 2.0, 2.4):
            solve_prescribed(mesh, a)
        solve_inclusion(build_disk_mesh(1.0, 3), step(-1.0, 1.0, 0.1))
        assert stops and min(stops) >= 0.1 * solver._INNER_TOL

    @pytest.mark.parametrize("a, steps", [(1.5, 5), (2.0, 8), (2.4, 6)])
    def test_disk_newton_step_counts(self, a, steps):
        _, stats = _solve_prescribed(build_disk_mesh(1.0, 4), a)
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
            return lambda x: applications.append(1) or k0(x)
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
        assert res.converged and res.inner_iterations == 15
        assert len(factors) < res.inner_iterations

    @pytest.mark.parametrize("refinement, a, steps", [(4, 30.0, 9), (3, 100.0, 15)])
    def test_strong_fields_fall_back_to_the_direct_factor(self, monkeypatch, refinement,
                                                          a, steps):
        # K0-preconditioned CG misses its forcing this close to the constraint
        # surface; that step factors its Hessian, whose factor then
        # preconditions the solve's later steps until the next miss
        factors = counting(monkeypatch, "splu")
        mesh = build_disk_mesh(1.0, refinement)
        values, stats = _solve_prescribed(mesh, a)
        gradient = psi_gradient(mesh, Field(mesh, values)) + mesh.node_weight * a
        assert np.abs(gradient[mesh.interior_nodes]).max() <= 1e-10
        assert stats.iterations == steps
        # K0, then a direct factor per step from the first CG miss on
        assert 2 <= len(factors) <= steps
