import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import minkcurv.energy as energy_module
import minkcurv.mesh as mesh_module
import minkcurv.verify as verify_module
from minkcurv.energy import StrictFeasibilityError, psi, psi_gradient, total_energy
from minkcurv.mesh import Field, Mesh, build_disk_mesh, build_interval_mesh, inradius
from minkcurv.nonlinearity import (NonlinearitySpec, constant, envelopes, neg_sign, power,
                                   primitive_array, step)
from minkcurv.solver import SolverOptions, _operator_value, solve_inclusion, solve_prescribed
from minkcurv.verify import (VerificationReport, analytic_radial,
                             boundary_distance_cone, brute_force_minimize,
                             format_report, inclusion_residual,
                             random_feasible_field,
                             variational_inequality_check,
                             verification_report, vi_slack_bound)

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
        lo, hi = envelopes(neg_sign(), m.nodes, u.values, 0.0)
        op = -psi_gradient(m, u) / m.node_weight
        raw = np.maximum(0.0, np.maximum(lo - op, op - hi))[m.interior_nodes]
        assert raw.max() > 0.5

    @pytest.mark.parametrize("gap, verdict", [(1e-10, True), (1e-13, False)])
    def test_margin_is_the_solvers(self, gap, verdict):
        # |grad| = 1 - gap: a field the solver's rho can judge gets a verdict
        # here too, one it cannot judge raises in both (tests/test_solver.py)
        m = build_interval_mesh(-1, 1, 2)
        u = Field.from_function(m, lambda x: (1 - gap) * (1 - abs(x[:, 0])),
                                dirichlet_zero=True)
        zeta = np.zeros(len(m.nodes))
        if verdict:
            assert inclusion_residual(m, u, neg_sign())[1] > 1.0
            assert not verification_report(m, u, zeta, neg_sign()).all_passed
        else:
            with pytest.raises(StrictFeasibilityError):
                inclusion_residual(m, u, neg_sign())
            with pytest.raises(StrictFeasibilityError):
                verification_report(m, u, zeta, neg_sign())

    def test_jump_window_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            inclusion_residual(build_interval_mesh(-1, 1, 4), None, neg_sign(),
                               jump_window=0.0)

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
        slack = variational_inequality_check(m, u, np.ones(len(m.nodes)))
        assert slack <= 0.0 + 1e-15  # the suite contains u itself

    def test_converged_pair_certifies(self):
        m = build_interval_mesh(-1, 1, 256)
        res = solve_inclusion(m, neg_sign())
        slack = variational_inequality_check(m, res.u, res.zeta)
        assert slack >= -1e-6

    def test_wrong_pair_fails(self):
        # u = 0 with zeta = 1: the scaled negative cone is a descent
        # competitor, 2(1 - sqrt(1 - t^2)) - t < 0 for small t
        m = build_interval_mesh(-1, 1, 64)
        slack = variational_inequality_check(m, Field.zero(m), np.ones(len(m.nodes)))
        assert slack < -0.1

    def test_candidate_gradient_norm_is_taken_once(self, monkeypatch):
        # one product G u serves the feasibility test and the candidate's own
        # slack; with two for the unit cone (its scale and its gradient) the
        # check makes 3 products.  The cone is kept in the mesh, so a second
        # check on it makes 1
        m = build_disk_mesh(1.0, 3)
        res = solve_inclusion(m, neg_sign())
        original, on_candidate = mesh_module.element_gradients, []

        def counting(mesh, values):
            on_candidate.append(np.array_equal(values, res.u.values))
            return original(mesh, values)

        for module in (mesh_module, energy_module, verify_module):
            monkeypatch.setattr(module, "element_gradients", counting)
        first = variational_inequality_check(m, res.u, res.zeta)
        assert sum(on_candidate) == 1
        assert len(on_candidate) == 3
        on_candidate.clear()
        assert variational_inequality_check(m, res.u, res.zeta) == first
        assert on_candidate == [True]

    @pytest.mark.parametrize("build", [lambda: build_disk_mesh(1.0, 3),
                                       lambda: build_interval_mesh(-1, 1, 64)],
                             ids=["disk3", "n64"])
    def test_slacks_by_linearity_match_the_trial_fields(self, build):
        # the check, from gradients by linearity, against the least slack of
        # psi over the suite's trial Fields, for selections that make
        # different fields of the suite the least
        m = build()
        res = solve_inclusion(m, neg_sign())
        u = res.u
        fields = [Field.zero(m), u]
        for amp in (0.9, 0.5, 0.25, 0.1):
            cone = boundary_distance_cone(m, max_gradient=amp)
            fields += [cone, Field(m, -cone.values, dirichlet_zero=True)]
        least = set()
        for shift in (0.0, 0.5, -0.5, 1.5, -1.5, 3.0, -3.0):
            zeta = res.zeta + shift
            w = m.node_weight * zeta
            direct = [psi(m, f) - psi(m, u) + float(np.dot(w, f.values - u.values))
                      for f in fields]
            assert all(map(math.isfinite, direct))
            got = variational_inequality_check(m, u, zeta)
            assert abs(got - min(direct)) <= 1e-12 * (1.0 + max(psi(m, f) for f in fields))
            least.add(int(np.argmin(direct)))
        assert len(least) >= 3

    def test_infeasible_candidate_rejected(self):
        m = build_interval_mesh(-1, 1, 16)
        bad = Field(m, 5.0 * boundary_distance_cone(m).values)
        with pytest.raises(ValueError):
            variational_inequality_check(m, bad, np.zeros(len(m.nodes)))


def l_shape(k=4, marked=lambda x, y: True):
    """[0, 2]^2 less (1, 2] x (1, 2], square cells of side 1/k each split along
    the diagonal; the boundary nodes for which `marked(x, y)` holds are marked."""
    i, j = np.meshgrid(np.arange(2 * k + 1), np.arange(2 * k + 1))
    keep = (i <= k) | (j <= k)
    idx = np.full(i.shape, -1)
    idx[keep] = np.arange(keep.sum())
    a, b, c, d = idx[:-1, :-1], idx[:-1, 1:], idx[1:, :-1], idx[1:, 1:]
    cell = (i[:-1, :-1] < k) | (j[:-1, :-1] < k)
    elements = np.stack([a, b, d, a, d, c], axis=-1)[cell].reshape(-1, 3)
    x, y = i[keep] / k, j[keep] / k
    edge = (x == 0) | (y == 0) | (x == 2) | (y == 2) | ((x >= 1) & (y >= 1))
    return Mesh(np.column_stack([x, y]), elements, np.flatnonzero(edge & marked(x, y)))


def square_and_free_triangle():
    """A unit square fanned around its marked rim (nodes 0-4), and a triangle
    with no marked node (nodes 5-7), which no edge path joins to the rim."""
    return Mesh([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [3, 0], [4, 0], [3, 1]],
                [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [5, 6, 7]], [0, 1, 2, 3])


SLACK_MESHES = {"n64": lambda: build_interval_mesh(-1, 1, 64),
                "disk3": lambda: build_disk_mesh(1.0, 3), "L": l_shape}


class TestSlackBound:
    @pytest.mark.parametrize("name", sorted(SLACK_MESHES))
    def test_lies_below_the_sampled_slacks(self, name):
        # the bound holds for every feasible field, so for 200 drawn ones
        # too (each odd one the candidate plus a field within its gradient
        # headroom below 0.9) and for the deterministic suite, with the
        # converged selection and with a perturbed one
        m = SLACK_MESHES[name]()
        res = solve_inclusion(m, neg_sign())
        assert res.converged
        u = res.u
        rng = np.random.default_rng(0)
        headroom = max(0.9 - mesh_module.max_gradient_norm(m, u.values), 0.0)
        fields = []
        for k in range(200):
            t = random_feasible_field(m, rng, headroom if k % 2 else 0.9)
            fields.append(Field(m, u.values + t.values) if k % 2 else t)
        perturbed = res.zeta + 0.3 * np.sin(7.0 * m.nodes[:, 0])
        bounds = [vi_slack_bound(m, u, zeta) for zeta in (res.zeta, perturbed)]
        for zeta, bound in zip((res.zeta, perturbed), bounds):
            w = m.node_weight * zeta
            sampled = min(psi(m, v) - psi(m, u) + float(np.dot(w, v.values - u.values))
                          for v in fields)
            assert bound <= sampled
            assert bound <= variational_inequality_check(m, u, zeta)
        assert -1e-9 <= bounds[0] <= 0.0 and bounds[1] < -0.1

    def test_is_the_sum_over_the_interior(self):
        m = build_disk_mesh(1.0, 2)
        res = solve_inclusion(m, constant(1.5))
        zeta = res.zeta + np.linspace(-1.0, 1.0, len(m.nodes))
        idx = m.interior_nodes
        reach = mesh_module._boundary_path_length(m) + np.abs(res.u.values)
        excess = m.node_weight * np.abs(zeta - _operator_value(m, res.u))
        assert vi_slack_bound(m, res.u, zeta) == pytest.approx(-np.dot(excess[idx], reach[idx]),
                                                             rel=1e-14)

    @pytest.mark.parametrize("shift", [1.0, -1.0])
    def test_wrong_pair_fails_through_the_bound(self, shift):
        # zeta = m +- 1 is off by one everywhere; with m - 1 the deterministic
        # suite reads 0 and only the bound sees it
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, neg_sign())
        zeta = _operator_value(m, res.u) + shift
        report = verification_report(m, res.u, zeta, neg_sign())
        assert report.vi_slack_bound < -1.0
        assert not report.passed["variational_inequality"] and not report.all_passed
        if shift < 0:
            assert report.vi_min_slack == 0.0

    def test_report_draws_no_random_number(self, monkeypatch):
        m = build_disk_mesh(1.0, 3)
        res = solve_inclusion(m, neg_sign())

        def no_draws(*args, **kwargs):
            raise AssertionError("a random number was drawn")

        for owner in (mesh_module, verify_module):
            monkeypatch.setattr(owner, "random_feasible_field", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(np.random, "Generator", no_draws)
        texts = {format_report(verification_report(m, res.u, res.zeta, neg_sign(),
                                                   vi_trials=trials, seed=seed))
                 for trials, seed in ((200, 0), (0, 0), (7, 3), (1000, 99))}
        assert len(texts) == 1
        text = texts.pop()
        assert "vi_min_slack 0\n" in text and "all_passed true" in text

    def test_unreachable_nodes(self):
        # the triangle's path lengths are inf, which adds 0 where zeta = m
        m = square_and_free_triangle()
        u = Field.zero(m)
        dist = mesh_module._boundary_path_length(m)
        assert np.array_equal(dist[:5], [0, 0, 0, 0, math.sqrt(0.5)])
        assert np.all(np.isinf(dist[5:]))
        assert vi_slack_bound(m, u, np.zeros(8)) == 0.0
        square = np.repeat([1.0, 0.0], [5, 3])
        assert -math.inf < vi_slack_bound(m, u, square) < 0.0
        assert vi_slack_bound(m, u, np.ones(8)) == -math.inf

    def test_past_the_margin_raises(self):
        m = build_interval_mesh(-1, 1, 2)
        u = Field.from_function(m, lambda x: (1 - 1e-13) * (1 - abs(x[:, 0])),
                                dirichlet_zero=True)
        with pytest.raises(StrictFeasibilityError):
            vi_slack_bound(m, u, np.zeros(3))


def straight_distance(mesh):
    """Straight-line distance from each node to the nearest marked boundary node."""
    marked = mesh.nodes[mesh.boundary_nodes]
    return np.sqrt(((mesh.nodes[:, None, :] - marked[None, :, :]) ** 2).sum(axis=2)).min(axis=1)


class TestBoundaryPathLength:
    def test_interval_distance_is_exact(self):
        m = build_interval_mesh(-1, 1, 16)
        dist = mesh_module._boundary_path_length(m)
        assert np.allclose(dist, 1.0 - np.abs(m.nodes[:, 0]), rtol=0, atol=1e-15)

    def test_disk_path_is_no_shorter_than_the_segment(self):
        m = build_disk_mesh(1.0, 3)
        dist = mesh_module._boundary_path_length(m)
        assert np.all(dist[m.boundary_nodes] == 0.0)
        straight = straight_distance(m)
        assert np.all(dist >= straight - 1e-15)
        assert dist.max() <= 1.2 * straight.max()

    def test_bounds_every_feasible_field_of_a_partly_marked_mesh(self):
        # only the top of the left arm is marked: the corner (2, 0) lies 1 +
        # sqrt(2) from it inside the L, farther than the straight sqrt(5)
        m = l_shape(marked=lambda x, y: y == 2)
        dist = mesh_module._boundary_path_length(m)
        corner = np.flatnonzero((m.nodes == [2.0, 0.0]).all(axis=1))[0]
        assert straight_distance(m)[corner] == pytest.approx(math.sqrt(5.0))
        assert dist[corner] >= 1.0 + math.sqrt(2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = random_feasible_field(m, rng, max_gradient=1.0).values
            assert np.all(np.abs(v) <= dist + 1e-12)

    def test_partly_marked_solution_lies_inside_the_uniform_bound(self):
        # with constant(10) the converged solution reaches 2.2522 near the
        # corner (2, 0), past the straight distance sqrt(5) to the marked
        # nodes; inradius and c_omega are the largest path length, 3
        m = l_shape(marked=lambda x, y: y == 2)
        spec = constant(10.0)
        res = solve_inclusion(m, spec)
        assert res.converged
        peak = float(np.abs(res.u.values).max())
        assert peak > math.sqrt(5.0) and inradius(m) == pytest.approx(3.0, rel=1e-15)
        for cap in (inradius(m), energy_module.bounds(m, spec).c_omega):
            assert peak <= cap and res.max_iterate_value <= cap

    def test_a_part_without_boundary_has_no_bound_and_a_zero_cone(self):
        # the triangle leaves constants free: no uniform bound, and the
        # cone is 0 there, so the trial suite stays finite and feasible
        m = square_and_free_triangle()
        assert inradius(m) == math.inf
        for amp in (0.9, 0.5):
            cone = boundary_distance_cone(m, max_gradient=amp).values
            assert np.all(np.isfinite(cone)) and np.all(cone[5:] == 0.0)
            assert mesh_module.max_gradient_norm(m, cone) == pytest.approx(amp, rel=1e-15)
        report = verification_report(m, Field.zero(m), np.zeros(8), neg_sign())
        assert report.vi_min_slack == 0.0 and report.all_passed

    def test_built_once_read_only_and_freed_with_the_mesh(self, monkeypatch):
        builds = []
        build = mesh_module._boundary_path_length.__wrapped__
        monkeypatch.setattr(mesh_module, "_boundary_path_length",
                            mesh_module.per_mesh(lambda m: builds.append(1) or build(m)))
        monkeypatch.setattr(verify_module, "_boundary_path_length",
                            mesh_module._boundary_path_length)
        m = build_disk_mesh(1.0, 2)
        res = solve_inclusion(m, neg_sign())
        for _ in range(2):
            verification_report(m, res.u, res.zeta, neg_sign())
        dist = mesh_module._boundary_path_length(m)
        assert len(builds) == 1 and not dist.flags.writeable
        mesh_ref, dist_ref = weakref.ref(m), weakref.ref(dist)
        del m, res, dist
        gc.collect()
        assert mesh_ref() is None and dist_ref() is None


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

    def test_boundary_forcing_does_not_count(self):
        # a boundary node's value is fixed at 0, so its node term is 0 even
        # where the forcing, and with it the exact primitive, is not finite
        m = build_interval_mesh(-1, 1, 4)
        ends = m.nodes[m.boundary_nodes]

        def forcing(x, s):
            return np.where((x[:, None, :] == ends).all(axis=2).any(axis=1), np.inf, 1.0)
        spec = NonlinearitySpec(evaluate=forcing, jumps=(), exact_primitive=lambda x, s: np.where(
            np.isfinite(forcing(x, s)), s, np.nan))
        vals, energy = brute_force_minimize(m, spec, 0.01)
        ref_vals, ref_energy = brute_force_minimize(m, constant(1.0), 0.01)
        assert energy == ref_energy and np.array_equal(vals, ref_vals)

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

    def test_analytic_check_included(self, monkeypatch):
        m = build_interval_mesh(-1, 1, 64)
        u = solve_prescribed(m, 1.0)
        zeta = np.ones(len(m.nodes))
        monkeypatch.setattr(verify_module, "_ANALYTIC_TOL", 1e-3)
        report = verification_report(m, u, zeta, constant(1.0),
                                     analytic=analytic_radial(1.0, 1.0, 1))
        assert report.analytic_linf_error <= 1e-3
        assert report.passed["analytic"]

    def test_bruteforce_gap_included(self):
        m = build_interval_mesh(-1, 1, 4)
        res = solve_inclusion(m, neg_sign())
        report = verification_report(m, res.u, res.zeta, neg_sign(),
                                     bruteforce_step=0.02)
        assert report.bruteforce_gap is not None
        assert report.passed["bruteforce"]

    def test_slack_bound_follows_the_min_slack(self):
        m = build_interval_mesh(-1, 1, 64)
        res = solve_inclusion(m, neg_sign())
        report = verification_report(m, res.u, res.zeta, neg_sign())
        lines = format_report(report).splitlines()
        assert lines[1:3] == [f"vi_min_slack {report.vi_min_slack:.17g}",
                              f"vi_slack_bound {report.vi_slack_bound:.17g}"]
        assert -1e-9 <= report.vi_slack_bound <= 0.0 and report.all_passed

    def test_flat_serialization(self):
        rep = VerificationReport(max_inclusion_residual=0.5, vi_min_slack=-2e-7,
                                 passed={"inclusion": False,
                                         "variational_inequality": True})
        text = format_report(rep)
        assert "max_inclusion_residual 0.5" in text
        assert "passed.inclusion false" in text
        assert "all_passed false" in text
