import dataclasses
import itertools
import math

import numpy as np
import pytest

from minkcurv.energy import total_energy
from minkcurv.mesh import Field, Mesh, build_disk_mesh, build_interval_mesh, inradius
from minkcurv.nonlinearity import constant, neg_sign, power, primitive_array, step
from minkcurv.solver import SolverOptions, solve_inclusion, solve_prescribed
from minkcurv.verify import (VerificationReport, analytic_radial,
                             boundary_distance_cone, brute_force_minimize,
                             format_report, inclusion_residual,
                             random_feasible_field,
                             variational_inequality_check,
                             verification_report)

SQRT2 = math.sqrt(2.0)


class TestInclusionResidual:
    def test_converged_constant_rhs(self):
        m = build_interval_mesh(-1, 1, 256)
        u = solve_prescribed(m, 1.0)
        res = inclusion_residual(m, u, constant(1.0))
        assert res[m.interior_nodes].max() <= 1e-2

    def test_zero_field_inside_bracket(self):
        # m = 0 lies in [-1, 1], the bracket of -sign at u = 0
        m = build_interval_mesh(-1, 1, 64)
        res = inclusion_residual(m, Field.zero(m), neg_sign())
        assert np.all(res == 0.0)

    def test_zero_field_off_bracket(self):
        m = build_interval_mesh(-1, 1, 64)
        res = inclusion_residual(m, Field.zero(m), constant(1.0))
        assert np.allclose(res[m.interior_nodes], 1.0)
        assert np.all(res[m.boundary_nodes] == 0.0)

    def test_jump_window_widens_near_levels(self):
        # a small positive cone sits just above the jump level everywhere:
        # the raw bracket {-1} misses the tiny operator values, the
        # level-widened one contains them
        m = build_interval_mesh(-1, 1, 64)
        h = m.mesh_size()
        u = Field.from_function(m, lambda x: 0.1 * h * (1 - abs(x[:, 0])),
                                dirichlet_zero=True)
        widened = inclusion_residual(m, u, neg_sign())
        assert np.all(widened == 0.0)
        raw = inclusion_residual(m, u, neg_sign(), jump_window=0.0)
        assert raw.max() > 0.5

    def test_interpolated_oracle_within_10h(self):
        for n in (32, 64, 128):
            m = build_interval_mesh(-1, 1, n)
            u = analytic_radial(1.0, 1.0, 1).on_mesh(m)
            res = inclusion_residual(m, u, constant(1.0))
            assert res.max() <= 10 * m.mesh_size()
        for lev in (2, 3, 4):
            m = build_disk_mesh(1.0, lev)
            u = analytic_radial(2.0, 1.0, 2).on_mesh(m)
            res = inclusion_residual(m, u, constant(2.0))
            assert res.max() <= 10 * m.mesh_size()


class TestVariationalInequality:
    def test_candidate_itself_has_zero_slack(self):
        m = build_interval_mesh(-1, 1, 64)
        u = solve_prescribed(m, 1.0)
        slack = variational_inequality_check(m, u, np.ones(len(m.nodes)), 0)
        assert slack <= 0.0 + 1e-15  # the suite contains u itself

    def test_converged_pair_certifies(self):
        m = build_interval_mesh(-1, 1, 256)
        res = solve_inclusion(m, neg_sign())
        slack = variational_inequality_check(m, res.u, res.zeta, 200)
        assert slack >= -1e-6

    def test_wrong_pair_fails(self):
        # u = 0 with zeta = 1: the scaled negative cone is a descent
        # competitor, 2(1 - sqrt(1 - t^2)) - t < 0 for small t
        m = build_interval_mesh(-1, 1, 64)
        slack = variational_inequality_check(
            m, Field.zero(m), np.ones(len(m.nodes)), 0)
        assert slack < -0.1

    def test_infeasible_candidate_rejected(self):
        m = build_interval_mesh(-1, 1, 16)
        bad = Field(m, 5.0 * boundary_distance_cone(m).values)
        with pytest.raises(ValueError):
            variational_inequality_check(m, bad, np.zeros(len(m.nodes)), 0)


class TestAnalyticRadial:
    def test_1d_reference_values(self):
        sol = analytic_radial(1.0, 1.0, 1)
        assert sol.radial(0.0) == pytest.approx(1 - SQRT2, rel=1e-14)
        assert sol.radial(1.0) == pytest.approx(0.0, abs=1e-15)
        assert abs(sol.radial_derivative(1.0)) == pytest.approx(1 / SQRT2, rel=1e-14)

    def test_satisfies_radial_ode(self):
        # flux derivative (r^{N-1} u' / sqrt(1 - u'^2))' must equal a r^{N-1};
        # checked by dense central differences of the closed-form flux
        for a, R, N in [(2.0, 1.0, 2), (1.0, 1.0, 1), (-1.5, 2.0, 3)]:
            sol = analytic_radial(a, R, N)
            r = np.linspace(1e-3, R - 1e-3, 1501)
            h = 1e-6

            def flux(rr):
                up = sol.radial_derivative(rr)
                return rr ** (N - 1) * up / np.sqrt(1 - up ** 2)

            lhs = (flux(r + h) - flux(r - h)) / (2 * h)
            assert np.abs(lhs - a * r ** (N - 1)).max() <= 1e-8

    def test_boundary_value_is_zero(self):
        for a, R, N in [(3.0, 0.5, 2), (-2.0, 1.5, 1)]:
            assert analytic_radial(a, R, N).radial(R) == pytest.approx(0.0, abs=1e-14)

    def test_zero_rhs_degenerates(self):
        sol = analytic_radial(0.0, 1.0, 2)
        assert np.all(sol.radial(np.linspace(0, 1, 11)) == 0.0)

    def test_gradient_stays_subunit(self):
        sol = analytic_radial(5.0, 1.0, 2)
        assert np.abs(sol.radial_derivative(np.linspace(0, 1, 101))).max() < 1.0

    def test_on_mesh_is_feasible(self):
        m = build_disk_mesh(1.0, 3)
        f = analytic_radial(2.0, 1.0, 2).on_mesh(m)
        assert np.all(f.values[m.boundary_nodes] == 0.0)

    def test_prescribed_solver_converges_to_oracle(self):
        errs = []
        for n in (32, 64, 128):
            m = build_interval_mesh(-1, 1, n)
            u = solve_prescribed(m, 1.0)
            exact = analytic_radial(1.0, 1.0, 1)(m.nodes)
            errs.append(np.abs(u.values - exact).max())
        # refinement reduces the error at least as fast as halving per step
        assert errs[1] <= 0.65 * errs[0]
        assert errs[2] <= 0.65 * errs[1]


def enumerated_grid_minimum(mesh, spec, grid_step):
    """Every grid configuration in interior-node order; the first least energy wins."""
    interior = mesh.interior_nodes
    half = int(math.floor(inradius(mesh) / grid_step + 1e-12))
    grid = np.arange(-half, half + 1) * grid_step
    best_energy, best = math.inf, None
    for combo in itertools.product(grid, repeat=len(interior)):
        vals = np.zeros(len(mesh.nodes))
        vals[interior] = combo
        g = np.abs(np.diff(vals[mesh.elements], axis=1)[:, 0]) / mesh.element_measure
        if np.any(g > 1.0 + 1e-12):
            continue
        area = np.sum(mesh.element_measure * (1.0 - np.sqrt(1.0 - np.minimum(g * g, 1.0))))
        energy = area + np.sum(mesh.node_weight * primitive_array(spec, mesh.nodes, vals))
        if energy < best_energy:
            best_energy, best = energy, vals
    return best, best_energy


class TestBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("spec", [neg_sign(), step(-1.0, 1.0, 0.25), constant(1.0),
                                      power(2.0, 2.0)], ids=lambda spec: spec.name)
    def test_matches_full_enumeration(self, n, spec):
        # the search along the node chain finds the minimum over every
        # configuration of the grid, the same one an enumeration finds
        m = build_interval_mesh(-1, 1, n)
        vals, energy = brute_force_minimize(m, spec, 0.2)
        ref_vals, ref_energy = enumerated_grid_minimum(m, spec, 0.2)
        assert energy == pytest.approx(ref_energy, abs=1e-12)
        np.testing.assert_array_equal(vals, ref_vals)

    @pytest.mark.parametrize("spec", [neg_sign(), step(-1.0, 1.0, 0.25)],
                             ids=lambda spec: spec.name)
    def test_node_terms_take_one_quadrature_pass(self, spec):
        # without a closed form the options of every node are integrated
        # together: one Gauss rule per panel and one halving, whatever the
        # number of nodes
        calls = []
        twin = dataclasses.replace(spec, exact_primitive=None,
                                   evaluate=lambda x, s: calls.append(1) or spec.evaluate(x, s))
        m = build_interval_mesh(-1, 1, 4)
        _, energy = brute_force_minimize(m, twin, 0.01)
        assert len(calls) == 2
        assert energy == pytest.approx(brute_force_minimize(m, spec, 0.01)[1], abs=1e-12)

    def test_zero_rule_minimizer_is_zero(self):
        m = build_interval_mesh(-1, 1, 4)
        vals, energy = brute_force_minimize(m, constant(0.0), 0.05)
        assert np.all(vals == 0.0)
        assert energy == 0.0

    def test_attracting_sign_matches_solver(self):
        m = build_interval_mesh(-1, 1, 4)  # three interior nodes
        vals, brute = brute_force_minimize(m, neg_sign(), 0.01)
        res = solve_inclusion(m, neg_sign())
        assert res.energy <= brute + 1e-3

    def test_positive_rhs_pushes_down(self):
        m = build_interval_mesh(-1, 1, 4)
        vals, _ = brute_force_minimize(m, constant(1.0), 0.02)
        assert np.all(vals <= 0.0)

    def test_grid_minimum_beats_sampled_fields(self):
        m = build_interval_mesh(-1, 1, 4)
        spec = neg_sign()
        _, brute = brute_force_minimize(m, spec, 0.01)
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = random_feasible_field(m, rng, max_gradient=0.8)
            assert brute <= total_energy(m, v, spec) + 10 * 0.01

    def test_rejects_large_meshes(self):
        m = build_interval_mesh(-1, 1, 8)  # seven interior nodes
        with pytest.raises(ValueError):
            brute_force_minimize(m, neg_sign(), 0.1)

    def test_rejects_elements_skipping_a_node(self):
        # (0, 2) spans node 1, so the energy is not a sum along one chain
        m = Mesh(np.array([0.0, 1.0, 2.0]), [[0, 2], [0, 1]], [0, 2])
        with pytest.raises(ValueError, match="neighbouring nodes"):
            brute_force_minimize(m, neg_sign(), 0.1)

    def test_rejects_2d_and_bad_step(self):
        with pytest.raises(ValueError):
            brute_force_minimize(build_disk_mesh(1.0, 0), neg_sign(), 0.1)
        with pytest.raises(ValueError):
            brute_force_minimize(build_interval_mesh(-1, 1, 4), neg_sign(), 0.0)

    def test_four_interior_nodes_supported(self):
        m = build_interval_mesh(-1, 1, 5)
        vals, energy = brute_force_minimize(m, neg_sign(), 0.1)
        assert math.isfinite(energy)
        res = solve_inclusion(m, neg_sign())
        assert res.energy <= energy + 1e-3


class TestTrialFields:
    def test_feasibility_and_boundary(self):
        m = build_disk_mesh(1.0, 2)
        rng = np.random.default_rng(0)
        from minkcurv.mesh import element_gradients
        for _ in range(20):
            v = random_feasible_field(m, rng)
            g = element_gradients(m, v.values)
            assert np.sqrt((g * g).sum(axis=1)).max() <= 0.9 + 1e-12
            assert np.all(v.values[m.boundary_nodes] == 0.0)

    def test_seeded_reproducibility(self):
        m = build_interval_mesh(-1, 1, 32)
        a = random_feasible_field(m, np.random.default_rng(5)).values
        b = random_feasible_field(m, np.random.default_rng(5)).values
        assert np.array_equal(a, b)

    def test_cone_scaling(self):
        m = build_interval_mesh(-1, 1, 32)
        from minkcurv.mesh import element_gradients
        cone = boundary_distance_cone(m, max_gradient=0.5)
        g = element_gradients(m, cone.values)
        assert np.abs(g).max() == pytest.approx(0.5, rel=1e-12)


class TestVerificationReport:
    def test_round_trip_on_converged_run(self):
        m = build_interval_mesh(-1, 1, 128)
        res = solve_inclusion(m, neg_sign())
        report = verification_report(m, res.u, res.zeta, neg_sign(),
                                     bruteforce_step=None)
        assert report.passed["inclusion"]
        assert report.passed["variational_inequality"]
        assert report.all_passed

    def test_failing_candidate_flagged(self):
        m = build_interval_mesh(-1, 1, 64)
        report = verification_report(m, Field.zero(m), np.zeros(len(m.nodes)),
                                     constant(1.0))
        assert not report.passed["inclusion"]
        assert not report.all_passed
        assert report.max_inclusion_residual == pytest.approx(1.0)

    def test_analytic_check_included(self):
        m = build_interval_mesh(-1, 1, 64)
        u = solve_prescribed(m, 1.0)
        zeta = np.ones(len(m.nodes))
        report = verification_report(m, u, zeta, constant(1.0),
                                     analytic=analytic_radial(1.0, 1.0, 1),
                                     analytic_tol=1e-3)
        assert report.analytic_linf_error <= 1e-3
        assert report.passed["analytic"]

    def test_bruteforce_gap_included(self):
        m = build_interval_mesh(-1, 1, 4)
        res = solve_inclusion(m, neg_sign())
        report = verification_report(m, res.u, res.zeta, neg_sign(),
                                     bruteforce_step=0.02)
        assert report.bruteforce_gap is not None
        assert report.passed["bruteforce"]

    def test_flat_serialization(self):
        rep = VerificationReport(max_inclusion_residual=0.5, vi_min_slack=-2e-7,
                                 passed={"inclusion": False,
                                         "variational_inequality": True})
        text = format_report(rep)
        assert "max_inclusion_residual 0.5" in text
        assert "passed.inclusion false" in text
        assert "all_passed false" in text
