"""Quadrature rules: exactness, weight sums, and degenerate-input handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgmixed.basis import project_cell
from wgmixed.quadrature import (
    MalformedCellError,
    MalformedEdgeError,
    edge_rule,
    gauss_jacobi,
    polygon_area,
    polygon_centroid,
    polygon_moments,
    polygon_rule,
    segment_rule,
    triangle_rule,
)
from wgmixed.solutions import registry_lookup

from reference import integrate_cell, integrate_edge, principal_axes

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def regular_polygon(m, radius=1.0):
    ang = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def monomial_integral_triangle(a, b, tri):
    """Exact integral of x^a y^b over a triangle via the affine map and the
    reference formula int r^p s^q = p! q! / (p+q+2)!  (independent oracle).

    Each float coordinate is converted to the rational number it represents
    exactly, so the expansion runs in exact arithmetic and the only rounding
    is the final conversion to float.
    """
    import sympy as sp

    r, s = sp.symbols("r s")
    A, B, C = [sp.Matrix([sp.Rational(float(p[0])), sp.Rational(float(p[1]))]) for p in tri]
    X = A + r * (B - A) + s * (C - A)
    det = (B - A)[0] * (C - A)[1] - (B - A)[1] * (C - A)[0]
    poly = sp.Poly(X[0], r, s, domain="QQ") ** a * sp.Poly(X[1], r, s, domain="QQ") ** b
    total = sp.Integer(0)
    for (p, q), coef in poly.terms():
        total += coef * sp.factorial(p) * sp.factorial(q) / sp.factorial(p + q + 2)
    return float(total * abs(det))


def test_segment_rule_weights_and_exactness():
    for order in range(0, 12):
        rule = segment_rule(order)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        for k in range(order + 1):
            exact = 1.0 / (k + 1)
            got = float(rule.weights @ rule.points ** k)
            assert got == pytest.approx(exact, rel=1e-13)


def test_triangle_rule_weights_and_exactness():
    for order in range(0, 10):
        rule = triangle_rule(order)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                assert got == pytest.approx(exact, rel=1e-12), (order, a, b)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_jacobi_exact_for_weighted_monomials(n):
    x, w = gauss_jacobi(n)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    for k in range(2 * n):
        # int_{-1}^{1} (1 - x) x^k dx: the x^k term for even k, the -x^(k+1) term for odd k
        exact = 2.0 / (k + 1) if k % 2 == 0 else -2.0 / (k + 2)
        assert abs(w @ x ** k - exact) <= 1e-14, (n, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_jacobi_matches_scipy(n):
    from scipy.special import roots_jacobi

    x, w = gauss_jacobi(n)
    xs, ws = roots_jacobi(n, 1, 0)
    assert np.abs(x - xs).max() <= 1e-15
    # the weights come from eigenvectors: they differ most at n = 9, by 3.5e-14
    # relative, where scipy's own are 3.5e-14 off a 40-digit Golub-Welsch solve
    np.testing.assert_allclose(w, ws, rtol=5e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_polygon_rule_exact_for_monomials(a, b, m, seed):
    # random convex polygon: jittered points on a circle, sorted by angle
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
    if np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 0.15:
        ang = 2.0 * np.pi * np.arange(m) / m
    rad = rng.uniform(0.6, 1.4)
    verts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]) + rng.uniform(-1, 1, 2)
    rule = polygon_rule(verts, a + b)
    got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
    # oracle: analytic monomial integrals over the fan triangles from the first vertex
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    exact = sum(
        monomial_integral_triangle(a, b, [verts[0], verts[i], verts[i + 1]])
        * np.sign(cross2(verts[i] - verts[0], verts[i + 1] - verts[0]))
        for i in range(1, len(verts) - 1)
    )
    scale = max(abs(exact), 1e-3)
    assert abs(got - exact) <= 1e-12 * scale


def test_integrate_cell_unit_square_cases():
    assert integrate_cell(UNIT_SQUARE, lambda x, y: np.ones_like(x), 0) == pytest.approx(1.0)
    assert integrate_cell(UNIT_SQUARE, lambda x, y: x * y, 2) == pytest.approx(0.25, rel=1e-14)


def test_integrate_cell_pentagon_vs_analytic_oracle():
    pent = regular_polygon(5)
    got = integrate_cell(pent, lambda x, y: x**2, 2)
    exact = sum(
        monomial_integral_triangle(2, 0, [pent[0], pent[i], pent[i + 1]])
        for i in range(1, 4)
    )
    assert got == pytest.approx(exact, abs=1e-12)


def test_polygon_rule_weights_sum_to_area():
    for m in (3, 4, 5, 8):
        verts = regular_polygon(m, radius=0.7)
        rule = polygon_rule(verts, 4)
        shoelace = 0.5 * abs(
            sum(
                verts[i][0] * verts[(i + 1) % m][1] - verts[(i + 1) % m][0] * verts[i][1]
                for i in range(m)
            )
        )
        assert rule.weights.sum() == pytest.approx(shoelace, rel=1e-14)


def test_polygon_rule_rejects_degenerate_and_bowtie():
    with pytest.raises(MalformedCellError):
        polygon_rule([(0, 0), (1, 0), (2, 0)], 2)  # collinear
    with pytest.raises(MalformedCellError):
        polygon_rule([(0, 0), (1, 1), (1, 0), (0, 1)], 2)  # self-intersecting
    with pytest.raises(MalformedCellError):
        polygon_rule([(0, 0), (0, 1), (1, 1), (1, 0)], 2)  # clockwise


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_default_fan_is_the_centroid_fan(degree):
    # a fan from one vertex spans a many-sided cell with sliver triangles and
    # projects a smooth field on a 512-gon to 5e-5 only (degree 2); the
    # default fan is each loop's centroid fan, one triangle per edge
    p = registry_lookup("ring").p
    verts = regular_polygon(512)
    centroid_fan = polygon_rule(verts, 12, polygon_centroid(verts))
    rule = polygon_rule(verts, 12)
    assert rule.weights.shape == (512 * len(triangle_rule(12).weights),)
    want = project_cell(verts, p, degree, rule=centroid_fan)
    assert np.abs(project_cell(verts, p, degree, order=12) - want).max() <= 1e-10
    stack = np.stack([verts[::8], 2.0 * verts[::8] + 1.0])
    one = polygon_rule(stack[1], 4)
    assert np.array_equal(polygon_rule(stack, 4).points[1], one.points)
    assert np.array_equal(one.points, polygon_rule(stack[1], 4, polygon_centroid(stack[1])).points)


def test_polygon_centroid_square():
    c = polygon_centroid(UNIT_SQUARE)
    assert np.allclose(c, [0.5, 0.5], atol=1e-15)
    assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)


def exact_moments(verts):
    """Area, centroid and central second moments of a polygon in exact
    rational arithmetic (Green's theorem about the origin), as floats."""
    import sympy as sp

    pts = [(sp.Rational(float(x)), sp.Rational(float(y))) for x, y in verts]
    area = ax = ay = ixx = iyy = ixy = sp.Integer(0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        c = x0 * y1 - x1 * y0
        area += c / 2
        ax += (x0 + x1) * c / 6
        ay += (y0 + y1) * c / 6
        ixx += c * (x0 * x0 + x0 * x1 + x1 * x1) / 12
        iyy += c * (y0 * y0 + y0 * y1 + y1 * y1) / 12
        ixy += c * (x0 * y1 + 2 * x0 * y0 + 2 * x1 * y1 + x1 * y0) / 24
    cx, cy = ax / area, ay / area
    moments = (ixx / area - cx * cx, iyy / area - cy * cy, ixy / area - cx * cy)
    return float(area), (float(cx), float(cy)), tuple(float(m) for m in moments)


def star_polygon(rng, m, size, center):
    """Random simple polygon: m vertices at jittered, increasing angles about
    `center` with random radii, so it is star-shaped and usually not convex."""
    ang = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.0, 0.8, m)) / m
    rad = size * rng.uniform(0.2, 1.0, m)
    return np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])


def assert_moments_exact(verts):
    area, centroid, moments = polygon_moments(verts)
    e_area, e_centroid, e_moments = exact_moments(verts)
    v = np.asarray(verts)
    diam = float(np.ptp(v, axis=0).max())
    # area and centroid of a thin loop are ill-conditioned: rounding of the
    # cross products is ~eps diam^2, against an area of diam^2 / kappa
    kappa = diam * diam / abs(e_area)
    assert abs(area - e_area) <= 1e-14 * kappa * abs(e_area)
    assert np.abs(np.subtract(centroid, e_centroid)).max() <= 1e-13 * kappa * diam
    # the moments about the centroid are ~diam^2 even where |centroid| ~ 1:
    # a parallel-axis shift from the origin loses ~|centroid|^2 / diam^2 of them
    assert np.abs(np.subtract(moments, e_moments)).max() <= 1e-12 * (e_moments[0] + e_moments[1])


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([3, 4, 5, 7, 12, 19]),
       size=st.sampled_from([1.0, 1e-2, 1e-3]),
       seed=st.integers(0, 2**31))
def test_polygon_moments_match_exact_oracle(m, size, seed):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    center = rng.uniform(0.0, 1.0) * np.array([np.cos(ang), np.sin(ang)])
    assert_moments_exact(star_polygon(rng, m, size, center))


def test_polygon_moments_on_19_vertex_boundary_cells():
    from wgmixed.mesh import generate_disk_mesh

    mesh = generate_disk_mesh(64, 17)  # the split-law level of the j=2 disk study
    loops = [loop for loop in mesh.cells if loop.size == 19]
    assert len(loops) == 64
    for loop in loops[::8]:
        assert_moments_exact(mesh.vertices[loop])


def test_degenerate_loops_raise_malformed_cell_error():
    from wgmixed.basis import cell_basis

    collinear = [(0, 0), (1, 0), (2, 0)]
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]  # lobes of opposite sign cancel
    clockwise = [(0, 0), (0, 1), (1, 1), (1, 0)]
    for loop in (collinear, bowtie):
        area, centroid, moments = polygon_moments(loop)
        assert area == 0.0 and np.isnan(centroid).all() and np.isnan(moments).all()
        for fn in (polygon_centroid, principal_axes, lambda v: cell_basis(v, 1),
                   lambda v: polygon_rule(v, 2)):
            with pytest.raises(MalformedCellError):
                fn(loop)
    assert polygon_moments(clockwise)[0] == -1.0
    with pytest.raises(MalformedCellError):
        polygon_rule(clockwise, 2)


def test_integrate_edge_cases():
    one = lambda x, y: np.ones_like(x)
    assert integrate_edge((0, 0), (1, 0), one, 0) == pytest.approx(1.0)
    assert integrate_edge((0, 0), (1, 0), lambda x, y: x, 1) == pytest.approx(0.5)
    assert integrate_edge((0, 0), (0, 1), lambda x, y: x**3, 3) == pytest.approx(0.0, abs=1e-15)


def test_edge_rule_point_count_and_zero_length():
    for order in (0, 1, 2, 5, 9):
        _, w, t = edge_rule((0, 0), (2, 1), order)
        assert t.size == math.ceil((order + 1) / 2)
        assert w.sum() == pytest.approx(np.hypot(2, 1), rel=1e-14)
    with pytest.raises(MalformedEdgeError):
        edge_rule((1.0, 1.0), (1.0, 1.0), 2)


def test_stacked_rules_equal_one_loop_rules():
    # a group of same-size loops, or a stack of edges, gets each entry's own numbers
    from wgmixed.mesh import generate_disk_mesh, generate_ring_mesh, generate_square_tri

    mesh = generate_disk_mesh(16, 5)
    ids = [c for c, loop in enumerate(mesh.cells) if loop.size == 7]
    stack = mesh.vertices[np.array([mesh.cells[c] for c in ids])]
    rule = polygon_rule(stack, 6, mesh.cell_centroids[ids])
    areas = polygon_area(stack)
    assert rule.points.shape == (len(ids), 7 * 16, 2) and areas.shape == (len(ids),)
    for g, c in enumerate(ids):
        one = polygon_rule(stack[g], 6, mesh.cell_centroids[c])
        assert np.array_equal(rule.points[g], one.points)
        assert np.array_equal(rule.weights[g], one.weights)
        assert areas[g] == polygon_moments(stack[g])[0] == mesh.cell_areas[c]
    # polygon_area is the area of polygon_moments, bit for bit, on every group
    for m in (mesh, generate_ring_mesh(16, 3), generate_square_tri(4)):
        for group in m.groups:
            loops = m.vertices[group.loops]
            assert np.array_equal(polygon_area(loops), polygon_moments(loops)[0])
            assert np.array_equal(polygon_area(loops), m.cell_areas[group.ids])
    ends = mesh.vertices[mesh.edges]
    pts, w, t = edge_rule(ends[:, 0], ends[:, 1], 5)
    for e in range(0, mesh.n_edges, 7):
        one = edge_rule(ends[e, 0], ends[e, 1], 5)
        assert np.array_equal(pts[e], one[0]) and np.array_equal(w[e], one[1])
    # one clockwise loop in a stack rejects the whole stack
    bad = stack.copy()
    bad[3] = bad[3][::-1]
    with pytest.raises(MalformedCellError):
        polygon_rule(bad, 2, mesh.cell_centroids[ids])
    collapsed = ends.copy()
    collapsed[5, 1] = collapsed[5, 0]
    with pytest.raises(MalformedEdgeError):
        edge_rule(collapsed[:, 0], collapsed[:, 1], 2)
