import gc
import hashlib
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from scipy.spatial import Delaunay

from minkcurv import mesh as mesh_module, verify
from minkcurv.mesh import (Field, Mesh, MeshError, MeshFormatError,
                           boundary_distance_cone, build_disk_mesh, build_interval_mesh,
                           build_rectangle_mesh, element_gradients, inradius, max_gradient_norm,
                           random_feasible_field, read_mesh, squared_norms, write_mesh)
from minkcurv.nonlinearity import neg_sign
from minkcurv.solver import solve_inclusion


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


def fingerprint(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


# sha256 prefixes of nodes, elements and boundary_nodes: the rows of
# solution.csv follow the node order, so a generator may not change it
GENERATOR_FINGERPRINTS = [
    pytest.param(build_disk_mesh, (1, 0),
                 ("f0863b993a4fcb93", "798df5934a425a91", "5f544d51f4618ae3"), id="disk-0"),
    pytest.param(build_disk_mesh, (1, 1),
                 ("3497418a5bd11fc7", "e5277ccd41f833ee", "2eb11368ecd12381"), id="disk-1"),
    pytest.param(build_disk_mesh, (1, 2),
                 ("84b5e0ed5540e555", "b9f5ee8fab7851a6", "ba5588bc21c217c8"), id="disk-2"),
    pytest.param(build_disk_mesh, (1, 3),
                 ("cef795ec969403ab", "3762f012561a5a2d", "868eb50b6cd9f6e5"), id="disk-3"),
    pytest.param(build_disk_mesh, (1, 4),
                 ("2c7acaac641c9cec", "c078ed210cb1c051", "6366dea15de37cd1"), id="disk-4"),
    pytest.param(build_disk_mesh, (1, 5),
                 ("8e583d22fa10b864", "820f59d403845a85", "018955755783aa62"), id="disk-5"),
    pytest.param(build_disk_mesh, (1, 6),
                 ("da3265ce41352b03", "a52671d4e36e2155", "8399dc880fdac98e"), id="disk-6"),
    pytest.param(build_rectangle_mesh, (1, 1, 1, 1),
                 ("9133dda276e06d15", "a64b6e70563a20d6", "a1e03200f1f82ad2"), id="rect-1-1"),
    pytest.param(build_rectangle_mesh, (2, 3, 4, 7),
                 ("609c00cae4c1c9f0", "5811bb6f44341530", "72fd9a18cf73b41f"), id="rect-4-7"),
]


@pytest.mark.parametrize("builder, args, expected", GENERATOR_FINGERPRINTS)
def test_generators_are_pinned(builder, args, expected):
    mesh = builder(*args)
    assert mesh.nodes.dtype == np.float64 and mesh.elements.dtype == np.int64
    got = tuple(fingerprint(a) for a in (mesh.nodes, mesh.elements, mesh.boundary_nodes))
    assert got == expected


class TestElementGradient:
    def test_1d_difference_quotient(self):
        m = build_interval_mesh(0.0, 1.0, 2)
        assert element_gradients(m, [0.0, 0.5, 0.0])[0, 0] == pytest.approx(1.0)

    def test_zero_field(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        assert np.all(element_gradients(m, Field.zero(m).values) == 0.0)

    def test_reference_triangle(self):
        m = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [0, 1, 2])
        assert np.allclose(element_gradients(m, [0.0, 1.0, 0.0]), [[1.0, 0.0]])

    def test_linearity(self):
        m = build_rectangle_mesh(1.0, 2.0, 3, 4)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(len(m.nodes))
        v = rng.standard_normal(len(m.nodes))
        a, b = 0.7, -1.3
        combo = element_gradients(m, a * u + b * v)
        parts = a * element_gradients(m, u) + b * element_gradients(m, v)
        assert np.allclose(combo, parts, atol=1e-13)


def delaunay_mesh(dim, count, seed):
    """Delaunay mesh of random points in the unit cube; hull vertices are the boundary."""
    points = np.random.default_rng(seed).random((count, dim))
    tri = Delaunay(points)
    return Mesh(points, tri.simplices, np.unique(tri.convex_hull))


class TestMaxGradientNorm:
    def test_matches_the_per_element_gradients(self):
        meshes = [build_interval_mesh(-1.0, 2.0, 97), build_disk_mesh(1.0, 3),
                  build_rectangle_mesh(2.0, 1.0, 13, 7), delaunay_mesh(3, 80, 4)]
        rng = np.random.default_rng(2)
        for m, scale in itertools.product(meshes, (1e-9, 1.0, 1e7)):
            vals = rng.standard_normal(len(m.nodes)) * scale
            vals[::5], vals[1::7] = 0.0, -0.0
            # independent reference: B_0 v_0 + B_1 v_1 + ... per element, added
            # left to right from zero; the operator gives exactly these bits
            ref = sum(m.basis_gradients[:, v, :] * vals[m.elements[:, v], None]
                      for v in range(m.dim + 1))
            got = element_gradients(m, vals)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert max_gradient_norm(m, vals) == float(np.sqrt(squared_norms(ref).max()))

    def test_zero_field_and_empty_mesh(self):
        m = build_interval_mesh(0.0, 1.0, 4)
        assert max_gradient_norm(m, np.zeros(5)) == 0.0
        empty = Mesh(np.array([0.0, 1.0]), np.zeros((0, 2)), [0, 1])
        assert max_gradient_norm(empty, np.zeros(2)) == 0.0


class TestSquaredNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 24576])
    def test_bits_of_the_axis_sum(self, dim, rows):
        # the one |g|^2 kernel gives the same bits as numpy's reduce over axis 1,
        # across magnitudes and with zero and signed-zero rows
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-8, 8, (rows, 1))
        g[::7] = 0.0
        g[3::7] = -0.0
        got = squared_norms(g)
        assert got.shape == (rows,) and got.dtype == np.float64
        assert got.tobytes() == (g * g).sum(axis=1).tobytes()


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


class TestPerMeshCaches:
    def test_gradient_operator_is_read_only(self):
        m = build_disk_mesh(1.0, 2)
        G = m.gradient_operator
        assert G.format == "csr" and G.shape == (2 * len(m.elements), len(m.nodes))
        for arr in (G.data, G.indices, G.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            G.data[0] = 1.0

    def test_one_distance_query_per_mesh_freed_with_it(self, monkeypatch):
        queries = []
        build = mesh_module._boundary_distance.__wrapped__
        monkeypatch.setattr(mesh_module, "_boundary_distance",
                            mesh_module.per_mesh(lambda m: queries.append(1) or build(m)))
        m = build_disk_mesh(1.0, 3)
        radius = inradius(m)
        u = verify.analytic_radial(-1.0, 1.0, 2).on_mesh(m)
        verify.verification_report(m, u, np.full(len(m.nodes), -1.0), neg_sign(), vi_trials=4)
        assert inradius(m) == radius and len(queries) == 1
        dist = mesh_module._boundary_distance(m)
        assert not dist.flags.writeable and dist.max() == radius
        inradius(build_disk_mesh(1.0, 2))
        assert len(queries) == 2  # another mesh makes its own
        mesh_ref, dist_ref = weakref.ref(m), weakref.ref(dist)
        del m, u, dist
        gc.collect()
        assert mesh_ref() is None and dist_ref() is None


    def test_adjacency_is_read_only(self):
        A, deg = mesh_module._adjacency(build_disk_mesh(1.0, 2))
        with pytest.raises(ValueError):
            A.data[0] = 2.0
        with pytest.raises(ValueError):
            deg[0] = 2.0

    def test_smoother_is_one_read_only_averaging_step(self):
        # S v is the old step 0.5 v + 0.5 (A v) / deg with the boundary
        # reset, up to rounding in the largest entry
        rng = np.random.default_rng(7)
        for m in (build_disk_mesh(1.0, 3), build_interval_mesh(-1.0, 1.0, 64),
                  build_rectangle_mesh(2.0, 1.0, 8, 4)):
            S = mesh_module._smoother(m)
            assert S.format == "csr" and S is mesh_module._smoother(m)
            assert np.all(np.diff(S.indptr)[m.boundary_nodes] == 0)
            for arr in (S.data, S.indices, S.indptr):
                assert not arr.flags.writeable
            A, deg = mesh_module._adjacency(m)
            v = rng.standard_normal(len(m.nodes))
            for _ in range(4):
                old = 0.5 * v + 0.5 * (A @ v) / deg
                old[m.boundary_nodes] = 0.0
                new = S @ v
                assert np.all(new[m.boundary_nodes] == 0.0)
                assert np.abs(new - old).max() <= 1e-15 * np.abs(old).max()
                v = old

    def test_node_graph_built_once_per_mesh(self, monkeypatch):
        m = build_disk_mesh(1.0, 3)
        shapes = []
        csr = mesh_module.sp.csr_matrix
        monkeypatch.setattr(mesh_module.sp, "csr_matrix",
                            lambda *args, **kw: shapes.append(kw.get("shape")) or csr(*args, **kw))
        res = solve_inclusion(m, neg_sign())
        verify.verification_report(m, res.u, res.zeta, neg_sign(), vi_trials=4)
        verify.verification_report(m, res.u, res.zeta, neg_sign(), vi_trials=4)
        # the trial fields and the elimination order share one graph
        assert [s for s in shapes if s[0] == s[1]] == [(len(m.nodes), len(m.nodes))]

    def test_mesh_size_computed_once_per_mesh(self, monkeypatch):
        builds = []
        build = mesh_module._mesh_size.__wrapped__
        monkeypatch.setattr(mesh_module, "_mesh_size",
                            mesh_module.per_mesh(lambda m: builds.append(1) or build(m)))
        m = build_disk_mesh(1.0, 3)
        res = solve_inclusion(m, neg_sign())
        verify.verification_report(m, res.u, res.zeta, neg_sign(), vi_trials=4)
        # the certificate, the inclusion residual and the windowed envelopes
        # all read h, from one computation
        assert len(builds) == 1 and m.mesh_size() == build(m)

    def test_pickles_as_built_after_use(self):
        # derived data stays out of the pickle, which matches a fresh mesh's
        m = build_disk_mesh(1.0, 3)
        radius = inradius(m)
        res = solve_inclusion(m, neg_sign())
        verify.verification_report(m, res.u, res.zeta, neg_sign(), vi_trials=4)
        data = pickle.dumps(m)
        assert data == pickle.dumps(build_disk_mesh(1.0, 3))
        copy = pickle.loads(data)
        assert np.array_equal(copy.nodes, m.nodes) and inradius(copy) == radius
        assert np.array_equal(solve_inclusion(copy, neg_sign()).u.values, res.u.values)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected_before_geometry(self, bad):
        # at once, without the RuntimeWarning of a determinant of nan
        with pytest.raises(MeshError, match=rf"^node 1 has a non-finite coordinate \[{bad}\]$"):
            Mesh([0.0, bad, 1.0], [(0, 1), (1, 2)], [0, 2])

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

    def test_interior_node_of_no_element_is_named(self, tmp_path):
        # it would get node weight 0, and the operator value divides by it
        p = tmp_path / "orphan.txt"
        p.write_text("dim 1\nnodes 4\n-1\n0\n1\n5\nelements 2\n0 1\n1 2\nboundary\n0 2\n")
        with pytest.raises(MeshError, match=r"^interior node 3 at \[5.0\] belongs to no element$"):
            read_mesh(p)
        # a boundary node needs no element
        assert len(Mesh([-1.0, 0.0, 1.0, 5.0], [[0, 1], [1, 2]], [0, 3]).interior_nodes) == 2

    # a triangle whose lines carry their own numbers: a comment, a blank line
    TRIANGLE = ["# a triangle", "dim 2", "nodes 3", "0 0", "1 0", "", "0 1",
                "elements 1", "0 1 2", "boundary", "0 1 2"]

    @pytest.mark.parametrize("line,text,message", [
        (5, "1 zero", "line 5: bad coordinate in '1 zero'"),
        (5, "1", "line 5: expected 2 coordinates, got 1"),
        (9, "0 1 two", "line 9: bad node index in '0 1 two'"),
        (9, "0 1 3", "line 9: node index 3 out of range [0, 3)"),
        (9, "0 -1 2", "line 9: node index -1 out of range [0, 3)"),
        (9, "0 1", "line 9: expected 3 node indices, got 2"),
        (11, "0 1 b", "line 11: bad boundary index in '0 1 b'"),
        (11, "0 1 5", "line 11: boundary index 5 out of range [0, 3)"),
        (12, "extra stuff", "line 12: trailing content 'extra stuff'"),
        (3, "nodes three", "line 3: bad count 'three'"),
        (8, "elements 1.5", "line 8: bad count '1.5'"),
        (10, "boundary 0", "line 10: expected 'boundary', got 'boundary 0'"),
    ], ids=["coordinate", "coordinate_count", "node_index", "node_index_range",
            "negative_node_index", "node_index_count", "boundary_index",
            "boundary_index_range", "trailing", "node_count", "element_count",
            "boundary_keyword"])
    def test_format_errors_are_pinned(self, tmp_path, line, text, message):
        lines = self.TRIANGLE + [""]
        lines[line - 1] = text
        p = tmp_path / "bad.txt"
        p.write_text("\n".join(lines))
        with pytest.raises(MeshFormatError) as info:
            read_mesh(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("line,text", [(3, "nodes -1"), (8, "elements -2")])
    def test_negative_count_names_its_line(self, tmp_path, line, text):
        lines = list(self.TRIANGLE)
        lines[line - 1] = text
        p = tmp_path / "negative.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as info:
            read_mesh(p)
        assert str(info.value) == f"line {line}: bad count '{text.split()[1]}'"

    def test_non_finite_coordinate_is_named(self, tmp_path):
        lines = list(self.TRIANGLE)
        lines[4] = "nan 0"
        p = tmp_path / "nan.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=r"^node 1 has a non-finite coordinate \[nan, 0.0\]$"):
            read_mesh(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\ndim 1\n\nnodes 2  # two nodes\n0\n1\n"
                     "elements 1\n0 1\nboundary\n0 1\n")
        m = read_mesh(p)
        assert len(m.nodes) == 2
