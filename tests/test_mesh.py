import math

import numpy as np
import pytest

from minkcurv import verify
from minkcurv.mesh import (Field, Mesh, MeshError, MeshFormatError,
                           boundary_distance_cone, build_disk_mesh, build_interval_mesh,
                           build_rectangle_mesh, element_gradient,
                           element_gradients, inradius, max_gradient_norm,
                           random_feasible_field, read_mesh, write_mesh)


def brute_inradius(mesh):
    """Independent oracle: max over interior nodes of nearest-boundary distance."""
    best = 0.0
    bnodes = mesh.nodes[mesh.boundary_nodes]
    for i in mesh.interior_nodes:
        d = np.sqrt(((bnodes - mesh.nodes[i]) ** 2).sum(axis=1)).min()
        best = max(best, d)
    return best


class TestIntervalMesh:
    def test_uniform_partition(self):
        m = build_interval_mesh(-1.0, 1.0, 4)
        assert np.allclose(m.nodes.ravel(), [-1, -0.5, 0, 0.5, 1])
        assert np.allclose(m.element_measure, 0.5)
        assert set(m.boundary_nodes) == {0, 4}

    def test_degenerate_smallest(self):
        m = build_interval_mesh(0.0, 1.0, 1)
        assert len(m.nodes) == 2
        assert set(m.boundary_nodes) == {0, 1}
        assert m.element_measure[0] == pytest.approx(1.0)
        assert m.interior_nodes.size == 0

    def test_volume_telescopes(self):
        m = build_interval_mesh(-1.0, 1.0, 256)
        assert m.volume() == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("a,b,n", [(0, 1, 0), (1, 1, 4), (2, 1, 4)])
    def test_rejects_bad_arguments(self, a, b, n):
        with pytest.raises(MeshError):
            build_interval_mesh(a, b, n)


class TestRectangleMesh:
    def test_unit_cell(self):
        m = build_rectangle_mesh(1.0, 1.0, 1, 1)
        assert len(m.nodes) == 4
        assert len(m.elements) == 2
        assert m.volume() == pytest.approx(1.0, rel=1e-12)

    def test_two_by_one(self):
        m = build_rectangle_mesh(2.0, 1.0, 2, 1)
        assert m.volume() == pytest.approx(2.0, rel=1e-12)

    def test_counts_and_boundary(self):
        m = build_rectangle_mesh(1.0, 1.0, 8, 8)
        assert len(m.elements) == 128
        for i in m.boundary_nodes:
            x, y = m.nodes[i]
            assert min(x, y, 1 - x, 1 - y) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1)])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(MeshError):
            build_rectangle_mesh(*args)


class TestDiskMesh:
    def test_coarse_polygon_inscribed(self):
        m = build_disk_mesh(1.0, 0)
        assert m.volume() < math.pi
        for i in m.boundary_nodes:
            assert np.hypot(*m.nodes[i]) == pytest.approx(1.0, abs=1e-12)

    def test_area_converges_unit(self):
        m = build_disk_mesh(1.0, 4)
        assert abs(m.volume() - math.pi) / math.pi < 0.01

    def test_area_converges_scaled(self):
        m = build_disk_mesh(2.0, 4)
        assert abs(m.volume() - 4 * math.pi) / (4 * math.pi) < 0.01

    def test_boundary_on_circle_after_refinement(self):
        m = build_disk_mesh(1.5, 3)
        r = np.hypot(*m.nodes[m.boundary_nodes].T)
        assert np.allclose(r, 1.5, atol=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(MeshError):
            build_disk_mesh(0.0, 2)


class TestElementGradient:
    def test_1d_difference_quotient(self):
        m = build_interval_mesh(0.0, 1.0, 2)
        f = Field(m, [0.0, 0.5, 0.0])
        assert element_gradient(m, f, 0)[0] == pytest.approx(1.0)

    def test_zero_field(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        f = Field.zero(m)
        for e in range(len(m.elements)):
            assert np.allclose(element_gradient(m, f, e), 0.0)

    def test_reference_triangle(self):
        m = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [0, 1, 2])
        f = Field(m, [0.0, 1.0, 0.0])
        assert np.allclose(element_gradient(m, f, 0), [1.0, 0.0])

    def test_invalid_index(self):
        m = build_interval_mesh(0.0, 1.0, 2)
        with pytest.raises(MeshError):
            element_gradient(m, Field.zero(m), 5)

    def test_field_from_other_mesh_rejected(self):
        m1 = build_interval_mesh(0.0, 1.0, 2)
        m2 = build_interval_mesh(0.0, 1.0, 2)
        with pytest.raises(MeshError):
            element_gradient(m1, Field.zero(m2), 0)

    def test_linearity(self):
        m = build_rectangle_mesh(1.0, 2.0, 3, 4)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(len(m.nodes))
        v = rng.standard_normal(len(m.nodes))
        a, b = 0.7, -1.3
        combo = element_gradients(m, a * u + b * v)
        parts = a * element_gradients(m, u) + b * element_gradients(m, v)
        assert np.allclose(combo, parts, atol=1e-13)


class TestMaxGradientNorm:
    def test_matches_the_per_element_gradients(self):
        m = build_disk_mesh(1.0, 2)
        vals = np.random.default_rng(2).standard_normal(len(m.nodes))
        f = Field(m, vals)
        expected = max(float(np.linalg.norm(element_gradient(m, f, e)))
                       for e in range(len(m.elements)))
        assert max_gradient_norm(m, vals) == pytest.approx(expected, rel=1e-14)

    def test_zero_field_and_empty_mesh(self):
        m = build_interval_mesh(0.0, 1.0, 4)
        assert max_gradient_norm(m, np.zeros(5)) == 0.0
        empty = Mesh(np.array([0.0, 1.0]), np.zeros((0, 2)), [0, 1])
        assert max_gradient_norm(empty, np.zeros(2)) == 0.0


def test_verify_reexports_the_trial_fields():
    assert verify.random_feasible_field is random_feasible_field
    assert verify.boundary_distance_cone is boundary_distance_cone


class TestInradius:
    def test_interval(self):
        m = build_interval_mesh(-1.0, 1.0, 256)
        assert inradius(m) == pytest.approx(brute_inradius(m))
        assert abs(inradius(m) - 1.0) <= m.mesh_size()

    def test_unit_square(self):
        m = build_rectangle_mesh(1.0, 1.0, 8, 8)
        assert inradius(m) == pytest.approx(brute_inradius(m))
        assert abs(inradius(m) - 0.5) <= m.mesh_size()

    def test_unit_disk(self):
        m = build_disk_mesh(1.0, 3)
        assert inradius(m) == pytest.approx(brute_inradius(m))
        assert abs(inradius(m) - 1.0) <= m.mesh_size()

    def test_no_interior_nodes(self):
        m = build_interval_mesh(0.0, 1.0, 1)
        assert inradius(m) == 0.0


class TestMeshInvariants:
    @pytest.mark.parametrize("mesh", [
        build_interval_mesh(-1, 1, 17),
        build_rectangle_mesh(2.0, 1.0, 5, 3),
        build_disk_mesh(1.0, 2),
    ], ids=["interval", "rectangle", "disk"])
    def test_weights_match_measures(self, mesh):
        assert np.all(mesh.element_measure > 0)
        total_w = mesh.node_weight.sum()
        total_m = mesh.element_measure.sum()
        assert total_w == pytest.approx(total_m, rel=1e-12)

    def test_1d_has_two_boundary_nodes(self):
        with pytest.raises(MeshError):
            Mesh([0.0, 0.5, 1.0], [(0, 1), (1, 2)], [0])

    def test_element_index_out_of_range(self):
        with pytest.raises(MeshError):
            Mesh([0.0, 1.0], [(0, 5)], [0, 1])

    def test_degenerate_element_rejected(self):
        with pytest.raises(MeshError):
            Mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], [0, 2, 1])

    def test_measures_invariant_under_reordering(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        perm = np.random.default_rng(0).permutation(len(m.nodes))
        inv = np.argsort(perm)
        m2 = Mesh(m.nodes[perm], inv[m.elements], inv[m.boundary_nodes])
        assert np.allclose(sorted(m.element_measure), sorted(m2.element_measure))
        assert m2.volume() == pytest.approx(m.volume(), rel=1e-13)

    def test_uniform_bound_for_feasible_fields(self):
        # any zero-boundary field with element slopes <= 1 is bounded by
        # the inradius plus one mesh size
        m = build_rectangle_mesh(1.0, 1.0, 6, 6)
        rng = np.random.default_rng(11)
        cap = inradius(m) + m.mesh_size()
        for _ in range(25):
            v = rng.standard_normal(len(m.nodes))
            v[m.boundary_nodes] = 0.0
            g = element_gradients(m, v)
            gmax = np.sqrt((g * g).sum(axis=1)).max()
            v /= max(gmax, 1e-30)
            assert np.abs(v).max() <= cap + 1e-12


class TestField:
    def test_value_count_checked(self):
        m = build_interval_mesh(0, 1, 4)
        with pytest.raises(MeshError):
            Field(m, [1.0, 2.0])

    def test_dirichlet_zero_enforced(self):
        m = build_interval_mesh(0, 1, 4)
        with pytest.raises(MeshError):
            Field(m, [1.0, 0, 0, 0, 0], dirichlet_zero=True)

    def test_from_function(self):
        m = build_interval_mesh(-1, 1, 8)
        f = Field.from_function(m, lambda x: 1 - abs(x[:, 0]), dirichlet_zero=True)
        assert f.values[4] == pytest.approx(1.0)
        assert np.all(f.values[m.boundary_nodes] == 0.0)

    def test_from_function_result_shape(self):
        m = build_interval_mesh(-1, 1, 8)
        assert np.all(Field.from_function(m, lambda x: 0.25).values == 0.25)
        # the values are a copy: zeroing the boundary leaves the nodes alone
        Field.from_function(m, lambda x: x[:, 0], dirichlet_zero=True)
        assert m.nodes[0, 0] == -1.0
        # a per-node function sees the whole array: x[0] is node 0, not a coordinate
        with pytest.raises(MeshError, match=r"shape \(1,\) for 9 nodes"):
            Field.from_function(m, lambda x: 1 - abs(x[0]))
        with pytest.raises(MeshError, match=r"shape \(9, 1\)"):
            Field.from_function(m, lambda x: x)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        m = build_interval_mesh(0.0, 1.0, 4)
        p = tmp_path / "m.txt"
        write_mesh(m, p)
        m2 = read_mesh(p)
        assert np.array_equal(m.nodes, m2.nodes)
        assert np.array_equal(m.elements, m2.elements)
        assert np.array_equal(m.boundary_nodes, m2.boundary_nodes)

    def test_round_trip_disk(self, tmp_path):
        m = build_disk_mesh(1.0, 2)
        p = tmp_path / "d.txt"
        write_mesh(m, p)
        m2 = read_mesh(p)
        assert np.array_equal(m.nodes, m2.nodes)
        assert np.array_equal(m.elements, m2.elements)

    def test_bad_node_reference(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\nnodes 5\n0\n1\n2\n3\n4\nelements 1\n0 99\nboundary\n0 4\n")
        with pytest.raises(MeshFormatError, match="99"):
            read_mesh(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(MeshFormatError):
            read_mesh(p)

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("dim 1\nnodes 2\n0.0\noops oops\n")
        with pytest.raises(MeshFormatError, match="line 4"):
            read_mesh(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\ndim 1\n\nnodes 2  # two nodes\n0\n1\n"
                     "elements 1\n0 1\nboundary\n0 1\n")
        m = read_mesh(p)
        assert len(m.nodes) == 2
