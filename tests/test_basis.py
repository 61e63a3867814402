"""Shape-adapted monomial bases and L2 projections on cells and edges, and cell diameters."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wgmixed.basis import (
    EdgeBasis,
    cell_basis,
    cell_diameter,
    graded_lex_exponents,
    poly_dim,
    project_cell,
    project_edge,
)
from wgmixed.mesh import generate_disk_mesh
from wgmixed.quadrature import polygon_rule

from reference import cell_diameter as all_pairs_diameter
from reference import cell_mass_matrix, indexed_derivatives, power_table_values

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def regular_polygon(m, radius=1.0, center=(0.0, 0.0)):
    ang = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def test_dimensions_and_ordering():
    assert [poly_dim(d) for d in range(5)] == [1, 3, 6, 10, 15]
    exps = graded_lex_exponents(2)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_basis_is_one_at_center():
    for m in (3, 4, 6):
        verts = regular_polygon(m, radius=0.8, center=(0.3, -0.2))
        bas = cell_basis(verts, 3)
        vals = bas.eval(np.array([bas.center[0]]), np.array([bas.center[1]]))[0]
        expect = np.zeros(bas.dim)
        expect[0] = 1.0
        assert np.allclose(vals, expect, atol=1e-15)


def test_derivatives_match_finite_differences():
    # row i of plane c holds d(function i)/dx_c in the basis, alone or in a group
    verts = regular_polygon(5) * [1.0, 0.4]
    group = cell_basis(np.stack([verts, verts @ [[0.6, 0.8], [-0.8, 0.6]] + [0.2, -0.1]]), 4)
    assert group.derivatives().shape == (2, 2, group.dim, group.dim)
    pts = np.array([[0.1, 0.2], [-0.3, 0.15], [0.0, 0.0]])
    eps = 1e-6
    for g in range(2):
        bas = group[g]
        D = bas.derivatives()
        assert np.array_equal(D, group.derivatives()[g])
        V = bas.eval(pts[:, 0], pts[:, 1])
        gx = (bas.eval(pts[:, 0] + eps, pts[:, 1]) - bas.eval(pts[:, 0] - eps, pts[:, 1])) / (2 * eps)
        gy = (bas.eval(pts[:, 0], pts[:, 1] + eps) - bas.eval(pts[:, 0], pts[:, 1] - eps)) / (2 * eps)
        assert np.allclose(V @ D[0].T, gx, atol=1e-8)
        assert np.allclose(V @ D[1].T, gy, atol=1e-8)


def test_project_reproduces_polynomials():
    verts = regular_polygon(6, radius=0.9)
    bas = cell_basis(verts, 2)
    truth = np.array([0.7, -1.3, 0.25, 2.0, -0.1, 0.4])

    def f(x, y):
        return bas.eval(x, y) @ truth

    coeffs = project_cell(verts, f, 2, basis=bas)
    assert np.allclose(coeffs, truth, atol=1e-12)


def test_project_mean_value():
    coeffs = project_cell(UNIT_SQUARE, lambda x, y: x, 0)
    assert coeffs[0] == pytest.approx(0.5, rel=1e-14)


def test_project_sine_against_normal_equations_oracle():
    # independent oracle: tensor Gauss-Legendre on the square (no fan split)
    from numpy.polynomial.legendre import leggauss

    f = lambda x, y: np.sin(np.pi * x)
    bas = cell_basis(UNIT_SQUARE, 1)
    xg, wg = leggauss(24)
    xg = (xg + 1) / 2
    wg = wg / 2
    X, Y = np.meshgrid(xg, xg, indexing="ij")
    W = np.outer(wg, wg).ravel()
    V = bas.eval(X.ravel(), Y.ravel())
    M = V.T @ (W[:, None] * V)
    rhs = V.T @ (W * f(X.ravel(), Y.ravel()))
    expect = np.linalg.solve(M, rhs)

    got = project_cell(UNIT_SQUARE, f, 1, order=30, basis=bas)
    assert np.allclose(got, expect, atol=1e-10)


def test_projection_idempotent_at_coefficient_level():
    verts = regular_polygon(7, radius=1.1)
    bas = cell_basis(verts, 3)
    f = lambda x, y: np.exp(x) * np.cos(y)
    c1 = project_cell(verts, f, 3, order=14, basis=bas)
    c2 = project_cell(verts, lambda x, y: bas.eval(x, y) @ c1, 3, order=14, basis=bas)
    assert np.allclose(c1, c2, atol=1e-13 * max(1.0, np.abs(c1).max()))


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(min_value=0, max_value=3), seed=st.integers(0, 2**31))
def test_projection_orthogonality(degree, seed):
    rng = np.random.default_rng(seed)
    verts = regular_polygon(int(rng.integers(3, 8)), radius=float(rng.uniform(0.5, 1.5)))
    bas = cell_basis(verts, degree)
    f = lambda x, y: np.sin(2 * x) + y**5
    c = project_cell(verts, f, degree, order=16, basis=bas)
    rule = polygon_rule(verts, 16)
    V = bas.eval(rule.points[:, 0], rule.points[:, 1])
    resid = f(rule.points[:, 0], rule.points[:, 1]) - V @ c
    moments = V.T @ (rule.weights * resid)
    fscale = float(np.sqrt(rule.weights @ resid**2)) + float(np.abs(c).max()) + 1.0
    assert np.abs(moments).max() <= 1e-11 * fscale


def test_mass_matrix_spd_and_conditioning():
    for m in (3, 4, 6, 10):
        for d in range(5):
            verts = regular_polygon(m, radius=0.01)  # small cell: scaling test
            M = cell_mass_matrix(verts, cell_basis(verts, d))
            assert np.allclose(M, M.T, atol=1e-18)
            ev = np.linalg.eigvalsh(M)
            assert ev.min() > 0
            assert ev.max() / ev.min() < 1e8


# elongated but legal cells: an elongated quad from the commutativity test's
# generator (diam^2/area = 6), a 10:1 rectangle and a thin sliver triangle
ELONGATED_CELLS = {
    "quad": [(-1.0001913274808791, 2.2785642451869204),
             (-0.744034551956489, 1.8132394750859175),
             (-0.5824850808480342, 1.812291078182597),
             (-0.4602286981630419, 1.865182233237346)],
    "rect_10_to_1": [(0.0, 0.0), (1.0, 0.0), (1.0, 0.1), (0.0, 0.1)],
    "sliver": [(0.0, 0.0), (1.0, 0.0), (0.3, 0.02)],
}


@pytest.mark.parametrize("name", sorted(ELONGATED_CELLS))
def test_mass_matrix_conditioning_on_elongated_cells(name):
    # diameter scaling gives cond 1.5e7 (quad, P_3) up to 4e18 (sliver, P_4)
    verts = ELONGATED_CELLS[name]
    for d in range(5):
        ev = np.linalg.eigvalsh(cell_mass_matrix(verts, cell_basis(verts, d)))
        assert ev.min() > 0
        assert ev.max() / ev.min() < 1e4, (name, d, ev.max() / ev.min())


def _split_boundary_cell():
    from wgmixed.mesh import generate_disk_mesh

    mesh = generate_disk_mesh(16, 5)
    return mesh.vertices[next(loop for loop in mesh.cells if loop.size == 7)]


@pytest.mark.parametrize("verts", [ELONGATED_CELLS["quad"], _split_boundary_cell()],
                         ids=["trial22_quad", "split_boundary_cell"])
def test_lower_degree_basis_is_leading_columns(verts):
    # graded-lex P_{j-1} on the same centre and axes is a prefix of P_j, so one
    # basis per cell gives the pressure values bit for bit
    rule = polygon_rule(verts, 8)
    x, y = rule.points[:, 0], rule.points[:, 1]
    f = lambda x, y: np.exp(x) * np.cos(3.0 * y)
    for j in range(1, 5):
        big, small = cell_basis(verts, j), cell_basis(verts, j - 1)
        k = poly_dim(j - 1)
        assert np.array_equal(small.eval(x, y), big.eval(x, y)[:, :k])
        # projecting onto P_{j-1} through the P_j basis uses its leading columns
        own = project_cell(verts, f, j - 1, rule=rule)
        prefix = project_cell(verts, f, j - 1, basis=big, rule=rule)
        assert np.allclose(prefix, own, rtol=1e-12, atol=1e-12 * np.abs(own).max())


def test_edge_projection_cases():
    # constants reproduced at any degree
    for d in range(4):
        c = project_edge((0, 0), (2, 1), lambda x, y: 3.0 * np.ones_like(x), d)
        expect = np.zeros(d + 1)
        expect[0] = 3.0
        assert np.allclose(c, expect, atol=1e-13)
    # mean of t over a unit edge
    c = project_edge((0, 0), (1, 0), lambda x, y: x, 0)
    assert c[0] == pytest.approx(0.5, rel=1e-14)


def test_edge_projection_t_squared_onto_linear():
    # best linear L2 fit of t^2 on [0,1] is t - 1/6; in (t-1/2)^k coordinates
    # that is 1/3 + 1.0 * (t - 1/2)
    c = project_edge((0, 0), (1, 0), lambda x, y: x**2, 1)
    assert np.allclose(c, [1.0 / 3.0, 1.0], atol=1e-14)
    t = np.linspace(0, 1, 7)
    vals = EdgeBasis(1).eval(t) @ c
    assert np.allclose(vals, t - 1.0 / 6.0, atol=1e-14)


def test_edge_basis_bounded_by_one():
    t = np.linspace(0, 1, 101)
    vals = EdgeBasis(4).eval(t)
    assert np.abs(vals).max() <= 1.0 + 1e-15


def test_group_basis_and_projections_equal_one_cell_ones():
    from wgmixed.mesh import generate_ring_mesh

    mesh = generate_ring_mesh(16, 3)
    ids = [c for c, loop in enumerate(mesh.cells) if loop.size == 5]
    stack = mesh.vertices[np.array([mesh.cells[c] for c in ids])]
    group = cell_basis(stack, 3)
    stored = cell_basis(stack, 3, mesh.cell_centroids[ids], mesh.cell_axes[ids])
    assert np.array_equal(group.center, stored.center) and np.array_equal(group.axes, stored.axes)
    rule = polygon_rule(stack, 10, mesh.cell_centroids[ids])
    x, y = rule.points[..., 0], rule.points[..., 1]
    f = lambda x, y: np.stack([np.exp(x) * np.cos(3.0 * y), x * y], axis=-1)
    coef = project_cell(stack, f, 3, basis=group, rule=rule)
    assert coef.shape == (len(ids), 10, 2)
    for g, c in enumerate(ids):
        one = cell_basis(stack[g], 3)
        assert np.array_equal(group[g].center, one.center)
        assert np.array_equal(group[g].axes, one.axes)
        assert np.array_equal(group.eval(x, y)[g], one.eval(x[g], y[g]))
        single = project_cell(stack[g], f, 3, basis=one,
                              rule=polygon_rule(stack[g], 10, mesh.cell_centroids[c]))
        assert np.allclose(coef[g], single, rtol=1e-13, atol=1e-13 * np.abs(single).max())
    ends = mesh.vertices[mesh.edges]
    fe = lambda x, y: np.sin(x) + y ** 3
    stacked = project_edge(ends[:, 0], ends[:, 1], fe, 2, 8)
    for e in range(0, mesh.n_edges, 5):
        single = project_edge(ends[e, 0], ends[e, 1], fe, 2, 8)
        assert np.allclose(stacked[e], single, rtol=1e-13, atol=1e-13 * np.abs(single).max())


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def _tabulation_cases():
    """One triangle, one pentagon and a stacked group of four hexagons, with points."""
    rng = np.random.default_rng(7)
    tri = np.array([(0.0, 0.0), (2.0, 0.3), (0.4, 0.9)])
    pent = regular_polygon(5, radius=0.6, center=(1.0, -2.0)) * [1.0, 0.4]
    stack = np.stack([regular_polygon(6, radius=0.5 + 0.2 * g, center=(g, -g)) * [1.0, 0.5]
                      for g in range(4)])
    cases = []
    for verts in (tri, pent, stack):
        lo, hi = verts.min(axis=-2), verts.max(axis=-2)
        pts = lo[..., None, :] + (hi - lo)[..., None, :] * rng.random(verts.shape[:-2] + (9, 2))
        cases.append((verts, pts[..., 0], pts[..., 1]))
    return cases


def _running_product_tabulation(basis, x, y):
    """The former tabulation: powers by a cumulative product, monomials by fancy indexing."""
    dx = np.asarray(x, dtype=float) - basis.center[..., 0, None]
    dy = np.asarray(y, dtype=float) - basis.center[..., 1, None]
    T = basis.axes[..., None]
    X = T[..., 0, 0, :] * dx + T[..., 0, 1, :] * dy
    Y = T[..., 1, 0, :] * dx + T[..., 1, 1, :] * dy
    XY = np.stack([X, Y])[..., None]
    px, py = np.cumprod(np.concatenate([np.ones_like(XY), np.repeat(XY, basis.degree, axis=-1)],
                                       axis=-1), axis=-1)
    a, b = basis.exponents[:, 0], basis.exponents[:, 1]
    return px[..., a] * py[..., b]


@pytest.mark.parametrize("degree", range(6))
def test_eval_and_grad_match_power_reference(degree):
    # xi**a * eta**b, to 1e-13 of the largest entry
    for verts, x, y in _tabulation_cases():
        bas = cell_basis(verts, degree)
        d = np.stack([x - bas.center[..., 0, None], y - bas.center[..., 1, None]], axis=-1)
        xi, eta = np.moveaxis(np.einsum("...ij,...qj->...qi", bas.axes, d), -1, 0)
        a, b = bas.exponents[:, 0], bas.exponents[:, 1]
        X, Y = xi[..., None], eta[..., None]
        ref = X ** a * Y ** b
        vals = bas.eval(x, y)
        assert vals.shape == x.shape + (bas.dim,)
        assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("degree", range(6))
def test_tabulation_bitwise_equals_running_product(degree):
    # same bits and the same memory layout (function axis outermost), so the
    # batched products that read these values sum in the same order as before
    for verts, x, y in _tabulation_cases():
        bas = cell_basis(verts, degree)
        got, want = bas.eval(x, y), _running_product_tabulation(bas, x, y)
        assert got.shape == want.shape
        assert [st for n, st in zip(got.shape, got.strides) if n > 1] == \
            [st for n, st in zip(want.shape, want.strides) if n > 1]
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 5),
       points=arrays(np.float64, st.tuples(st.just(4), st.integers(1, 12), st.just(2)),
                     elements=st.floats(-4.0, 4.0)))
def test_eval_and_derivatives_bitwise_equal_power_table(degree, points):
    # one cell on the points of the first cell, and the group of four on all of them
    for verts, _, _ in _tabulation_cases():
        bas = cell_basis(verts, degree)
        pts = points if verts.ndim == 3 else points[0]
        x, y = pts[..., 0], pts[..., 1]
        got, want = bas.eval(x, y), power_table_values(bas, x, y)
        assert got.strides == want.strides
        assert np.array_equal(got, want)
        assert np.array_equal(bas.derivatives(), indexed_derivatives(bas))


@pytest.mark.parametrize("degree", range(1, 6))
def test_eval_peak_memory_is_its_output_and_four_planes(degree):
    # the planes of xi, eta and the shifted coordinates, beside the dim output
    # planes, and no table of powers
    rng = np.random.default_rng(degree)
    stack = np.stack([regular_polygon(6, center=(g, -g)) for g in range(32)])
    bas = cell_basis(stack, degree)
    x, y = stack[:, 0, :].T[..., None] + rng.random((2, 32, 4096))
    tracemalloc.start()
    try:
        bas.eval(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (bas.dim + 4.5) * x.nbytes, peak / x.nbytes


def test_project_cell_takes_tabulated_values():
    verts = _split_boundary_cell()
    rule = polygon_rule(verts, 8)
    bas = cell_basis(verts, 3)
    values = bas.eval(rule.points[:, 0], rule.points[:, 1])
    f = lambda x, y: np.stack([np.exp(x) * np.cos(3.0 * y), x * y], axis=-1)
    for degree in (2, 3):
        want = project_cell(verts, f, degree, basis=bas, rule=rule)
        assert np.array_equal(project_cell(verts, f, degree, rule=rule, values=values), want)
    with pytest.raises(ValueError, match="rule"):
        project_cell(verts, f, 2, values=values)


def test_project_cell_takes_a_mass_matrix():
    # the exact Gram matrices of the P_3 basis stand in for the rule's, for
    # every leading P_degree block; a group's are used cell by cell
    mesh = generate_disk_mesh(16, 3)
    ids = [c for c, loop in enumerate(mesh.cells) if loop.size == 5]
    stack = mesh.vertices[np.array([mesh.cells[c] for c in ids])]
    bas = cell_basis(stack, 3, mesh.cell_centroids[ids], mesh.cell_axes[ids])
    rule = polygon_rule(stack, 10, mesh.cell_centroids[ids])
    values = bas.eval(rule.points[..., 0], rule.points[..., 1])
    mass = np.stack([cell_mass_matrix(v, bas[g], 12) for g, v in enumerate(stack)])
    f = lambda x, y: np.stack([np.exp(x) * np.cos(3.0 * y), x * y], axis=-1)
    for degree in (2, 3):
        want = project_cell(stack, f, degree, rule=rule, values=values)
        got = project_cell(stack, f, degree, rule=rule, values=values, mass=mass)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(4))
def test_cell_diameter_bitwise_equals_all_pairs(seed):
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3, 4, 5, 8, 19, 40):
        for shape in ((), (1,), (7,), (3, 2)):
            v = rng.standard_normal(shape + (m, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)
            got, want = cell_diameter(v), all_pairs_diameter(v)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


def test_cell_diameter_memory_is_linear_in_vertices():
    # all vertex pairs of a 2000-gon at once would be a 64 MB array
    v = regular_polygon(2000)
    tracemalloc.start()
    try:
        d = cell_diameter(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert d == all_pairs_diameter(v)
