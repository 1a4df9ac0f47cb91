import dataclasses
import math

import numpy as np
import pytest

from minkcurv.energy import (EnergyBounds, StrictFeasibilityError, area_gradient,
                             area_hessian_product, area_value, bounds, psi, psi_gradient,
                             script_f, total_energy)
from minkcurv.mesh import (Field, build_disk_mesh, build_interval_mesh,
                           build_rectangle_mesh, element_gradients, inradius)
from minkcurv.nonlinearity import constant, heaviside, neg_sign, power, step
from minkcurv.verify import random_feasible_field


def cone_field(mesh, scale=1.0):
    return Field.from_function(mesh, lambda x: scale * (1 - abs(x[:, 0])),
                               dirichlet_zero=True)


class TestAreaKernel:
    @pytest.mark.parametrize("mesh", [build_interval_mesh(-1, 1, 32),
                                      build_disk_mesh(1.0, 3),
                                      build_rectangle_mesh(2.0, 1.0, 6, 4)],
                             ids=["interval", "disk", "rectangle"])
    def test_matches_the_per_element_formula(self, mesh):
        # reference: measure * (1 - r) summed, and measure * B (g / r)
        # scattered node by node, with r = sqrt(1 - |g|^2)
        fld = random_feasible_field(mesh, np.random.default_rng(4), max_gradient=0.95)
        g = element_gradients(mesh, fld.values)
        g2 = (g * g).sum(axis=1)
        r = np.sqrt(1.0 - g2)
        B = mesh.basis_gradients
        assert area_value(mesh, g2) == pytest.approx(
            float((mesh.element_measure * (1.0 - r)).sum()), rel=1e-13)
        ref = np.zeros(len(mesh.nodes))
        np.add.at(ref, mesh.elements, mesh.element_measure[:, None]
                  * np.einsum("evd,ed->ev", B, g / r[:, None]))
        gradient, root = area_gradient(mesh, g, g2)
        assert np.abs(gradient - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(root, r)
        # the Hessian product: measure * B (q / r + g (g . q) / r^3), q = G p,
        # scattered node by node (B g itself is checked where the solver
        # assembles the Hessian, tests/test_solver.py)
        p = np.random.default_rng(5).standard_normal(len(mesh.nodes))
        q = element_gradients(mesh, p)
        a = q / r[:, None] + g * ((g * q).sum(axis=1) / r ** 3)[:, None]
        ref = np.zeros(len(mesh.nodes))
        np.add.at(ref, mesh.elements,
                  mesh.element_measure[:, None] * np.einsum("evd,ed->ev", B, a))
        hp = area_hessian_product(mesh, g, root)(p)
        assert np.abs(hp - ref).max() <= 1e-13 * np.abs(ref).max()


class TestPsi:
    def test_zero_field(self):
        m = build_interval_mesh(-1, 1, 16)
        assert psi(m, Field.zero(m)) == 0.0

    def test_unit_cone_saturates(self):
        # |v'| = 1 everywhere makes the integrand 1, so the value is vol
        m = build_interval_mesh(-1, 1, 64)
        assert psi(m, cone_field(m)) == pytest.approx(2.0, rel=1e-12)

    def test_infeasible_gradient_is_inf(self):
        m = build_interval_mesh(-1, 1, 64)
        assert psi(m, cone_field(m, scale=1.5)) == math.inf

    def test_nonzero_boundary_is_inf(self):
        m = build_interval_mesh(-1, 1, 8)
        vals = np.zeros(9)
        vals[0] = 0.05
        assert psi(m, Field(m, vals)) == math.inf

    def test_range_on_feasible_fields(self):
        m = build_rectangle_mesh(1, 1, 5, 5)
        rng = np.random.default_rng(21)
        vol = m.volume()
        for _ in range(30):
            v = random_feasible_field(m, rng)
            val = psi(m, v)
            assert 0.0 <= val <= vol + 1e-12

    def test_midpoint_convexity(self):
        m = build_rectangle_mesh(1, 1, 4, 4)
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = random_feasible_field(m, rng)
            v = random_feasible_field(m, rng)
            lam = rng.uniform(0.05, 0.95)
            mix = Field(m, lam * u.values + (1 - lam) * v.values,
                        dirichlet_zero=True)
            assert psi(m, mix) <= lam * psi(m, u) + (1 - lam) * psi(m, v) + 1e-12


class TestPsiGradient:
    def test_zero_field(self):
        m = build_rectangle_mesh(1, 1, 3, 3)
        assert np.allclose(psi_gradient(m, Field.zero(m)), 0.0)

    def test_matches_finite_differences(self):
        m = build_rectangle_mesh(1, 1, 4, 4)
        rng = np.random.default_rng(7)
        delta = 1e-6
        for _ in range(5):
            fld = random_feasible_field(m, rng, max_gradient=0.95)
            g = psi_gradient(m, fld)
            scale = max(np.abs(g).max(), 1e-8)
            for i in m.interior_nodes:
                up = fld.values.copy()
                up[i] += delta
                dn = fld.values.copy()
                dn[i] -= delta
                fd = (psi(m, Field(m, up, dirichlet_zero=True))
                      - psi(m, Field(m, dn, dirichlet_zero=True))) / (2 * delta)
                assert abs(fd - g[i]) / scale <= 1e-6

    def test_two_element_analytic_derivative(self):
        # two elements of measure 1/2, interior value t: the energy is
        # 1 - sqrt(1 - 4 t^2) with derivative 4 t / sqrt(1 - 4 t^2)
        m = build_interval_mesh(0.0, 1.0, 2)
        t = 0.1
        fld = Field(m, [0.0, t, 0.0], dirichlet_zero=True)
        g = psi_gradient(m, fld)
        assert g[1] == pytest.approx(4 * t / math.sqrt(1 - 4 * t * t), rel=1e-12)

    def test_margin_violation_raises_with_context(self):
        m = build_interval_mesh(-1, 1, 4)
        with pytest.raises(StrictFeasibilityError) as info:
            psi_gradient(m, cone_field(m))
        assert info.value.gradient_norm == pytest.approx(1.0)
        assert 0 <= info.value.element < 4

    def test_margin_parameter(self):
        m = build_interval_mesh(-1, 1, 4)
        fld = cone_field(m, scale=1 - 1e-6)
        with pytest.raises(StrictFeasibilityError):
            psi_gradient(m, fld, margin=1e-3)
        psi_gradient(m, fld, margin=1e-9)  # inside the relaxed margin


class TestScriptF:
    def test_zero_field(self):
        m = build_interval_mesh(-1, 1, 32)
        assert script_f(m, Field.zero(m), neg_sign()) == 0.0

    def test_constant_rule_integrates_field(self):
        m = build_rectangle_mesh(1, 1, 4, 4)
        rng = np.random.default_rng(13)
        fld = random_feasible_field(m, rng)
        expected = float(np.dot(m.node_weight, fld.values))
        assert script_f(m, fld, constant(1.0)) == pytest.approx(expected, abs=1e-12)

    def test_neg_sign_on_cone(self):
        # F(s) = -|s| and the lumped sum integrates the cone exactly
        m = build_interval_mesh(-1, 1, 256)
        val = script_f(m, cone_field(m), neg_sign())
        assert val == pytest.approx(-1.0, abs=1e-3)

    def test_lipschitz_via_growth_constant(self):
        m = build_interval_mesh(-1, 1, 32)
        spec = power(1.0, 2.0)  # f(s) = s
        b = bounds(m, spec)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_feasible_field(m, rng)
            w = random_feasible_field(m, rng)
            dist_l1 = float(np.dot(m.node_weight, np.abs(v.values - w.values)))
            diff = abs(script_f(m, v, spec) - script_f(m, w, spec))
            assert diff <= b.C1 * dist_l1 + 1e-9

    @pytest.mark.parametrize("spec", [step(-1.0, 1.0, 0.25), heaviside(),
                                      neg_sign(), constant(0.5), power(2.0, 3.0)],
                             ids=lambda s: s.name)
    def test_closed_form_matches_quadrature(self, spec):
        twin = dataclasses.replace(spec, exact_primitive=None)
        rng = np.random.default_rng(21)
        for m in (build_interval_mesh(-1, 1, 16), build_rectangle_mesh(1, 1, 3, 3)):
            for _ in range(4):
                v = random_feasible_field(m, rng)
                assert script_f(m, v, spec) == pytest.approx(
                    script_f(m, v, twin), abs=1e-12)


class TestTotalEnergy:
    def test_zero_field(self):
        m = build_interval_mesh(-1, 1, 32)
        assert total_energy(m, Field.zero(m), neg_sign()) == 0.0

    def test_one_parameter_family_minimum(self):
        # for v = t (1 - |x|) with f = -sign the energy is
        # 2 (1 - sqrt(1 - t^2)) - t, minimized at t = 1/sqrt(5) with
        # value 2 - sqrt(5)
        m = build_interval_mesh(-1, 1, 256)
        t = 1 / math.sqrt(5)
        val = total_energy(m, cone_field(m, scale=t), neg_sign())
        assert val == pytest.approx(2 - math.sqrt(5), abs=2e-3)

    def test_infeasible_is_inf(self):
        m = build_interval_mesh(-1, 1, 16)
        assert total_energy(m, cone_field(m, 2.0), neg_sign()) == math.inf

    def test_bounded_below_by_growth_floor(self):
        m = build_interval_mesh(-1, 1, 32)
        rng = np.random.default_rng(17)
        for spec in (neg_sign(), constant(1.0), step(-1, 2, 0.1), power(1.0, 2.0)):
            floor = bounds(m, spec).lower_bound
            for _ in range(10):
                v = random_feasible_field(m, rng)
                assert total_energy(m, v, spec) >= floor - 1e-12


class TestBounds:
    def test_interval_reference_values(self):
        m = build_interval_mesh(-1, 1, 256)
        b = bounds(m, neg_sign())  # C = 1, q = 2
        assert b.c_omega == pytest.approx(1.0)
        assert b.C1 == pytest.approx(2.0)
        assert b.C2 == pytest.approx(1.5)
        assert b.lower_bound == pytest.approx(-3.0)

    def test_zero_growth_constant(self):
        m = build_interval_mesh(-1, 1, 64)
        b = bounds(m, constant(0.0))
        assert b.C1 == 0.0 and b.C2 == 0.0 and b.lower_bound == 0.0

    def test_unit_square(self):
        m = build_rectangle_mesh(1, 1, 8, 8)
        b = bounds(m, constant(1.0))  # C = 1, q = 2
        assert b.c_omega == pytest.approx(0.5)
        assert b.C2 == pytest.approx(0.625)
        assert b.lower_bound == pytest.approx(-0.625)

    def test_invariant_formulas(self):
        m = build_disk_mesh(1.0, 2)
        spec = power(2.0, 3.0)
        b = bounds(m, spec)
        c = inradius(m)
        assert b.C1 == pytest.approx(spec.growth_c * (1 + c ** (spec.growth_q - 1)))
        assert b.C2 == pytest.approx(
            spec.growth_c * (c + c ** spec.growth_q / spec.growth_q))
        assert b.lower_bound == pytest.approx(-b.C2 * m.volume())
        assert b.C1 >= 0 and b.C2 >= 0
