"""What a fresh mesh costs, checked against the plain code it replaced.

The edge table (`mesh._edge_table`) feeds the node graph, the mesh size, the
path-length bound and the Newton workspace; the nested dissection runs level
by level; `write_solution_csv` formats blocks of rows and `read_solution_csv`
decodes the file's bytes without text mode's newline pass.  The references
below are the per-element, recursive, per-row and text-mode versions, and
every result must match them bit for bit, dtypes included.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from minkcurv import cli, mesh as mesh_module, solver
from minkcurv.mesh import Mesh, build_disk_mesh, build_interval_mesh, build_rectangle_mesh
from minkcurv.nonlinearity import neg_sign
from minkcurv.solver import solve_inclusion
from test_solver import cube_mesh, shuffled_ids


# -- references ------------------------------------------------------------------


def reference_node_weight(mesh):
    weight = np.zeros(len(mesh.nodes))
    np.add.at(weight, mesh.elements, (mesh.element_measure / (mesh.dim + 1))[:, None])
    return weight


def reference_adjacency(mesh):
    nv = mesh.dim + 1
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    edge = rows != cols
    n = len(mesh.nodes)
    A = sp.csr_matrix((np.ones(edge.sum()), (rows[edge], cols[edge])), shape=(n, n))
    A.data[:] = 1.0
    return A, np.maximum(A @ np.ones(n), 1.0)


def reference_smoother(mesh):
    A, deg = reference_adjacency(mesh)
    keep = 0.5 * ~mesh.is_boundary
    S = (sp.diags(keep / deg) @ A + sp.diags(keep)).tocsr()
    S.eliminate_zeros()
    return S


def reference_mesh_size(mesh):
    a, b = np.triu_indices(mesh.dim + 1, 1)
    e = mesh.nodes[mesh.elements[:, a]] - mesh.nodes[mesh.elements[:, b]]
    return float(np.sqrt((e * e).sum(axis=-1)).max())


def reference_path_length(mesh):
    A = reference_adjacency(mesh)[0]
    tail = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    lengths = A.copy()
    lengths.data = np.sqrt(mesh_module.squared_norms(mesh.nodes[A.indices] - mesh.nodes[tail]))
    return dijkstra(lengths, indices=mesh.boundary_nodes, min_only=True)


def reference_dissection(points, adjacency, nodes):
    indptr, indices = adjacency.indptr, adjacency.indices
    blocks = []

    def dissect(part):
        if len(part) <= solver._DISSECTION_LEAF:
            blocks.append(part)
            return
        coords = points[part]
        axis = int(np.argmax(np.ptp(coords, axis=0)))
        part = part[np.argsort(coords[:, axis], kind="stable")]
        low, high = np.split(part, [len(part) // 2])
        in_high = np.zeros(len(points), dtype=bool)
        in_high[high] = True
        start, degree = indptr[low], indptr[low + 1] - indptr[low]
        row = np.repeat(np.arange(len(low)), degree)
        slot = np.arange(len(row)) + np.repeat(start - (np.cumsum(degree) - degree), degree)
        touches = np.bincount(row, weights=in_high[indices[slot]], minlength=len(low)) > 0.0
        dissect(low[~touches])
        dissect(high)
        blocks.append(low[touches])

    dissect(nodes)
    return np.concatenate(blocks)


def reference_workspace(mesh):
    """The workspace's fields, from one np.unique over every element entry."""
    interior = mesh.interior_nodes
    n = len(interior)
    nv = mesh.dim + 1
    local = np.full(len(mesh.nodes), -1, dtype=np.int64)
    local[interior] = np.arange(n)
    el = local[mesh.elements]
    rows = np.repeat(el, nv, axis=1).ravel()
    cols = np.tile(el, (1, nv)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    if mesh.dim == 1:
        order = np.argsort(mesh.nodes[interior, 0], kind="stable")
    else:
        order = local[reference_dissection(mesh.nodes, reference_adjacency(mesh)[0], interior)]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    slots, slot_of = np.unique(rank[cols] * n + rank[rows], return_inverse=True)
    scatter = np.full(keep.size, len(slots), dtype=np.int32)
    scatter[keep] = slot_of
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots // n, minlength=n), out=indptr[1:])
    row, column = slots % n, slots // n
    upper = None
    if mesh.dim == 1:
        width = int((column - row).max(initial=0))
        upper = np.full((width + 1, n), len(slots))
        above = row <= column
        upper[(width + row - column)[above], column[above]] = np.flatnonzero(above)
    return dict(order=interior[order], indptr=indptr, indices=row.astype(np.int32),
                columns=column.astype(np.int32), scatter=scatter,
                diagonal=np.flatnonzero(row == column), upper=upper)


def reference_write_csv(path, mesh, result, residuals):
    coord_names = ["x", "y", "z"][: mesh.dim]
    table = np.column_stack([mesh.nodes, result.u.values, result.zeta, residuals])
    row = "{}," + ",".join(["{:.16e}"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["index", *coord_names, "u", "zeta", "residual"]) + "\r\n")
        fh.writelines(row.format(i, *values) for i, values in enumerate(table.tolist()))


def reference_read_csv(path, mesh):
    """(u, zeta), or the message of the ConfigError, as the text-mode reader gave them."""
    lines = path.read_text().splitlines()
    if not lines:
        return f"{path}: empty solution file"
    header, body = lines[0].split(","), lines[1:]
    if "u" not in header or "zeta" not in header:
        return f"{path}: header must contain 'u' and 'zeta' columns"
    if len(body) != len(mesh.nodes):
        return f"{path}: {len(body)} rows for a mesh with {len(mesh.nodes)} nodes"
    if "" in body:
        return f"{path}: malformed row {body.index('') + 2}"
    try:
        u, zeta = np.loadtxt(body, delimiter=",", usecols=(header.index("u"),
                                                           header.index("zeta")),
                             ndmin=2, unpack=True, comments=None)
    except ValueError as err:
        return f"{path}: malformed row ({err})"
    bad = np.flatnonzero(~(np.isfinite(u) & np.isfinite(zeta)))
    if bad.size:
        return f"{path}: non-finite value in row {bad[0] + 2}"
    return u, zeta


# -- meshes -------------------------------------------------------------------------


def tied_mesh():
    """A grid whose coordinates tie along both axes, node ids in random order."""
    return shuffled_ids(build_rectangle_mesh(1.0, 1.0, 23, 23))[0]


MESHES = {f"disk{r}": (lambda r=r: build_disk_mesh(1.0, r)) for r in range(2, 7)}
MESHES.update({
    "rectangle": lambda: build_rectangle_mesh(2.0, 1.0, 40, 17),
    "cube6": lambda: cube_mesh(6),
    "tied": tied_mesh,
    "interval": lambda: build_interval_mesh(-1.0, 1.0, 300),
})


def assert_same(new, ref):
    assert type(new) is type(ref)
    if isinstance(ref, float):
        assert new == ref
    else:
        assert new.dtype == ref.dtype and np.array_equal(new, ref)


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


class TestEdgeTable:
    def test_node_weights(self, mesh):
        assert_same(mesh.node_weight, reference_node_weight(mesh))

    def test_node_graph(self, mesh):
        # the edge table's pattern is the node graph, and the smoother built
        # on it is the one built on the reference graph
        edges = mesh_module._edge_table(mesh)
        A_ref = reference_adjacency(mesh)[0]
        assert_same(edges.indptr, A_ref.indptr)
        assert_same(edges.indices, A_ref.indices)
        S, S_ref = mesh_module._smoother(mesh), reference_smoother(mesh)
        assert S.format == "csr" and S.shape == S_ref.shape
        for name in ("indptr", "indices", "data"):
            assert_same(getattr(S, name), getattr(S_ref, name))

    def test_mesh_size(self, mesh):
        assert_same(mesh.mesh_size(), reference_mesh_size(mesh))

    def test_path_length(self, mesh):
        assert_same(mesh_module._boundary_path_length(mesh), reference_path_length(mesh))

    def test_newton_workspace(self, mesh):
        ws = solver._newton_workspace(mesh)
        for name, ref in reference_workspace(mesh).items():
            if ref is None:
                assert getattr(ws, name) is None
            else:
                assert_same(getattr(ws, name), ref)

    def test_is_read_only(self, mesh):
        for arr in mesh_module._edge_table(mesh):
            assert not arr.flags.writeable


def test_dissection_on_graphs_with_ties():
    # random graphs (self loops and repeated edges included) on points with
    # few distinct coordinates, and node subsets in any order
    rng = np.random.default_rng(0)
    for _ in range(30):
        K = int(rng.integers(1, 2000))
        points = rng.integers(0, rng.integers(1, 6), size=(K, int(rng.integers(2, 4))))
        r, c = rng.integers(0, K, (2, int(rng.integers(0, 4 * K))))
        A = sp.csr_matrix((np.ones(2 * len(r)), (np.r_[r, c], np.r_[c, r])), shape=(K, K))
        nodes = rng.permutation(K)[: int(rng.integers(0, K + 1))]
        assert_same(solver._nested_dissection(points.astype(float), A, nodes),
                    reference_dissection(points.astype(float), A, nodes))


def test_mesh_without_elements():
    m = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.zeros((0, 3), dtype=int), [0, 1, 2])
    assert_same(m.node_weight, np.zeros(3))
    assert m.mesh_size() == 0.0
    edges = mesh_module._edge_table(m)
    assert np.array_equal(edges.indptr, np.zeros(4)) and len(edges.indices) == 0
    assert mesh_module._smoother(m).nnz == 0
    assert np.array_equal(mesh_module._boundary_path_length(m), np.zeros(3))
    assert len(solver._newton_workspace(m).order) == 0


def test_fresh_disk_solve_builds_one_edge_table(monkeypatch):
    builds, uniques = [], []
    build = mesh_module._edge_table.__wrapped__
    counted = mesh_module.per_mesh(lambda m: builds.append(1) or build(m))
    monkeypatch.setattr(mesh_module, "_edge_table", counted)
    monkeypatch.setattr(solver, "_edge_table", counted)
    m = build_disk_mesh(1.0, 4)
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: uniques.append(1) or unique(*a, **kw))
    result = solve_inclusion(m, neg_sign())
    assert result.converged
    # the node graph, the workspace and h share one table: one np.unique
    assert len(builds) == 1 and len(uniques) == 1
    m.mesh_size()
    mesh_module._boundary_path_length(m)
    assert len(builds) == 1 and len(uniques) == 1


# -- solution.csv ------------------------------------------------------------------------


def fake_result(mesh, seed):
    rng = np.random.default_rng(seed)
    K = len(mesh.nodes)
    u = mesh_module.Field(mesh, rng.standard_normal(K) * 10.0 ** rng.integers(-20, 20, K))
    zeta = rng.standard_normal(K)
    zeta[:4] = [-0.0, np.inf, -np.inf, np.nan][: min(4, K)]
    residuals = np.abs(rng.standard_normal(K)) * 1e-300
    return SimpleNamespace(u=u, zeta=zeta), residuals


@pytest.mark.parametrize("make", [
    lambda: build_interval_mesh(-1.0, 1.0, 2 * cli._CSV_BLOCK + 400),
    lambda: build_interval_mesh(-1.0, 1.0, cli._CSV_BLOCK - 1),
    lambda: build_interval_mesh(-1.0, 1.0, 3),
    lambda: build_disk_mesh(1.0, 3),
    lambda: cube_mesh(3),
], ids=["two-blocks-and-a-part", "one-full-block", "short", "disk3", "cube3"])
def test_block_writer_matches_row_writer(tmp_path, make):
    mesh = make()
    result, residuals = fake_result(mesh, len(mesh.nodes))
    cli.write_solution_csv(tmp_path / "new.csv", mesh, result, residuals)
    reference_write_csv(tmp_path / "ref.csv", mesh, result, residuals)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


ROWS = ["0,-1.0,0.0,-1.0,0", "1,-0.5,0.1,-1.0,0", "2,0.0,0.2,-1.0,0",
        "3,0.5,0.3,-1.0,0", "4,1.0,0.0,-1.0,0"]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("edit", [
    lambda rows: rows, lambda rows: rows[:-1], lambda rows: rows + [""],
    lambda rows: rows[:2] + [""] + rows[3:], lambda rows: [""] + rows[1:],
    lambda rows: rows[:2] + ["2,0.0,0.2"] + rows[3:], lambda rows: rows[:3] + ["   "] + rows[4:],
    lambda rows: rows[:1] + ["1,-0.5,nan,-1.0,0"] + rows[2:],
    lambda rows: rows[:4] + ["4,1.0,0.0,x,0"], lambda rows: rows[:3] + ["3,0.5\x0c0.3,-1.0,0"],
], ids=["as-written", "short", "extra-blank", "blank", "first-blank", "few-columns",
        "spaces", "nan", "bad-number", "form-feed"])
def test_reader_matches_text_mode_reader(tmp_path, end, edit):
    mesh = build_interval_mesh(-1.0, 1.0, 4)
    path = tmp_path / "solution.csv"
    lines = ["index,x,u,zeta,residual"] + edit(list(ROWS))
    path.write_bytes((end.join(lines) + end).encode())
    expected = reference_read_csv(path, mesh)
    if isinstance(expected, str):
        with pytest.raises(cli.ConfigError) as err:
            cli.read_solution_csv(path, mesh)
        assert str(err.value) == expected
    else:
        for got, want in zip(cli.read_solution_csv(path, mesh), expected):
            assert_same(got, want)


@pytest.mark.parametrize("text", ["", "\n", "\r\n", "index,x,u,zeta,residual",
                                  "index,x,u\r\n0,0,0\r\n"], ids=["empty", "lf", "crlf",
                                                                 "header-only", "no-zeta"])
def test_reader_matches_text_mode_reader_on_headers(tmp_path, text):
    mesh = build_interval_mesh(-1.0, 1.0, 1)
    path = tmp_path / "solution.csv"
    path.write_bytes(text.encode())
    with pytest.raises(cli.ConfigError) as err:
        cli.read_solution_csv(path, mesh)
    assert str(err.value) == reference_read_csv(path, mesh)
