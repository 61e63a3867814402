"""Shape-adapted monomial bases on cells, shifted monomials on edges, L2 projections.

Cell bases are graded-lex monomials xi^a eta^b in principal coordinates
(xi, eta) = T (x - c_K): c_K is the cell centroid, and the rows of T are the
principal axes of the cell's second-moment tensor, each divided by the square
root of its eigenvalue, so the cell has identity covariance in (xi, eta).
This is the inertia-based scaling of Berrone & Borio (FEAD 129, 2017).
Every affine image of a cell maps to the same normalized cell up to a
rotation, so elongation, size and orientation are all scaled away.  For a
convex cell the image lies between the disks of radius sqrt(2) and 2*sqrt(2)
about the origin (the isotropic-position bounds of Kannan, Lovasz &
Simonovits), so the condition number of the P_k mass matrix is bounded by a
constant that depends on k alone; over thousands of random convex cells it
stays below 20, 2e2 and 2e3 for k = 2, 3, 4.  Dividing by the cell diameter
instead, as plain scaled monomials do, is uniform only on shape-regular
cells and loses digits on elongated ones (Mascotto, NMPDE 34, 2018).

The centroid and the second moments come from `polygon_moments`; a mesh
stores both per cell (`cell_centroids`, `cell_axes`).  Graded-lex order makes
P_{k-1} the leading poly_dim(k-1) functions of P_k with the same centre and
axes, so their values are the leading columns of the P_k values, bit for
bit, and one P_j basis per cell serves both the flux and the P_{j-1}
pressure.

A `CellBasis` holds one cell's centre and axes, or a group's stacked (G, 2)
and (G, 2, 2) arrays; a group's points carry the group axis first, and
`project_cell` and `project_edge` project onto a whole group of cells or a
stack of edges with one call of the function and one batched solve.  `eval`
writes each function into its own contiguous plane of a preallocated result
(the function axis is last in shape, first in memory; the batched products
downstream sum in an order that follows this layout), and the plane of (a, b)
is (a+b)(a+b+1)/2 + b.  The planes of (k, 0) and (0, k) are running products
of xi and eta, k factors taken left to right, and a mixed (a, b) is the
product of the planes of (a, 0) and (0, b), so no other table is filled.
`CellBasis.derivatives` maps each function to the coefficients of its x- and
y-derivatives in the basis.  `project_cell` accepts basis values already
tabulated on its rule, and the Gram matrices, so a group's values on one rule
are computed once and shared.

Edge bases are (t-1/2)^k in the arclength fraction t of the (globally
oriented) edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import MalformedCellError, edge_rule, polygon_moments, polygon_rule


def poly_dim(degree: int) -> int:
    """Dimension of P_degree in two variables."""
    return (degree + 1) * (degree + 2) // 2


def graded_lex_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b), a+b <= degree, graded and x-major within a grade."""
    return np.array(
        [(a, g - a) for g in range(degree + 1) for a in range(g, -1, -1)],
        dtype=np.int64,
    )


def cell_diameter(vertices):
    """Largest vertex distance of an (m, 2) loop, or of each loop in a (..., m, 2) stack.

    Every vertex pair is (i, i - k) for one cyclic shift k <= m // 2, so a
    running maximum over those shifts sees each pair in O(m) memory per loop.
    """
    v = np.asarray(vertices, dtype=float)
    d2 = np.zeros(v.shape[:-2])
    for k in range(1, v.shape[-2] // 2 + 1):
        np.maximum(d2, ((v - np.roll(v, k, axis=-2)) ** 2).sum(axis=-1).max(axis=-1), out=d2)
    return np.sqrt(d2)[()]


def moment_axes(moments) -> np.ndarray:
    """Map sending x - centroid to unit-covariance coordinates, from the
    second moments (sxx, syy, sxy) that `polygon_moments` returns.

    `moments` is (3,) for one cell or (..., 3) for a stack, giving (2, 2) or
    (..., 2, 2).  The rows are the principal axes of the second-moment
    (inertia) tensor, each divided by the square root of its eigenvalue; the
    2x2 eigenproblem is solved analytically.
    """
    sxx, syy, sxy = np.moveaxis(np.asarray(moments, dtype=float), -1, 0)
    big = 0.5 * (sxx + syy) + np.hypot(0.5 * (sxx - syy), sxy)
    small = (sxx * syy - sxy * sxy) / big
    if not np.all(small > 0.0):
        raise MalformedCellError("polygon has a degenerate second-moment tensor")
    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)
    cos, sin = np.cos(theta), np.sin(theta)
    rb, rs = 1.0 / np.sqrt(big), 1.0 / np.sqrt(small)
    return np.stack([np.stack([rb * cos, rb * sin], axis=-1),
                     np.stack([-rs * sin, rs * cos], axis=-1)], axis=-2)


def _plane(a, b):
    """Index of xi^a eta^b in graded-lex order."""
    return (a + b) * (a + b + 1) // 2 + b


@dataclass(frozen=True)
class CellBasis:
    """Shape-adapted monomial basis of P_degree on a cell, or on each cell of a group.

    Basis function (a, b) is xi^a eta^b with (xi, eta) = axes @ (x - center).
    `center` and `axes` are (2,) and (2, 2) for one cell, or (G, 2) and
    (G, 2, 2) for a group; a group's points then carry the group axis first,
    x and y of shape (G, npoints).
    """

    degree: int
    center: np.ndarray
    axes: np.ndarray
    exponents: np.ndarray

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def __getitem__(self, g) -> "CellBasis":
        """The basis of cell g of a group."""
        return CellBasis(self.degree, self.center[g], self.axes[g], self.exponents)

    def eval(self, x, y) -> np.ndarray:
        """Basis values at points; shape (..., npoints, dim), one function per memory plane."""
        dx = np.asarray(x, dtype=float) - self.center[..., 0, None]
        dy = np.asarray(y, dtype=float) - self.center[..., 1, None]
        T = self.axes[..., None]
        out = np.empty((self.dim,) + np.broadcast(dx, dy, T[..., 0, 0, :]).shape)
        out[0] = 1.0
        if self.degree:
            for r in (0, 1):   # the planes of (1, 0) and (0, 1): xi and eta
                np.add(T[..., r, 0, :] * dx, T[..., r, 1, :] * dy, out=out[1 + r])
        for k in range(2, self.degree + 1):
            np.multiply(out[_plane(k - 1, 0)], out[1], out=out[_plane(k, 0)])
            np.multiply(out[_plane(0, k - 1)], out[2], out=out[_plane(0, k)])
        for a, b in self.exponents.tolist():
            if a and b:
                np.multiply(out[_plane(a, 0)], out[_plane(0, b)], out=out[_plane(a, b)])
        return np.moveaxis(out, 0, -1)

    def derivatives(self) -> np.ndarray:
        """x- and y-derivatives of the functions in the basis: row i of plane c is
        d(function i)/dx_c, shape (..., 2, dim, dim).  d/dxi of xi^a eta^b is
        a xi^(a-1) eta^b, and the chain rule weights d/dxi and d/deta by `axes`.
        """
        a, b = self.exponents.T
        rows = np.arange(self.dim)
        shift = np.zeros((2, self.dim, self.dim))
        shift[0, rows, _plane(np.maximum(a - 1, 0), b)] = a   # a = 0 writes 0 on the diagonal
        shift[1, rows, _plane(a, np.maximum(b - 1, 0))] = b
        return np.einsum("...rc,rik->...cik", self.axes, shift)


def cell_basis(vertices, degree: int, center=None, axes=None) -> CellBasis:
    """Monomial basis of P_degree in the principal coordinates of a cell or a group.

    `vertices` is one (m, 2) loop or a (G, m, 2) group.  The centre and axes
    default to each loop's centroid and `moment_axes`; a mesh stores both
    (`cell_centroids`, `cell_axes`), equal bit for bit, and passes them.
    Basis function 0 is the constant 1; the others vanish at the centroid.
    The mass-matrix conditioning does not degrade with the cell's aspect ratio
    (see the module docstring).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if center is None or axes is None:
        _, center, moments = polygon_moments(vertices)
        axes = moment_axes(moments)
    return CellBasis(degree=degree, center=np.asarray(center, dtype=float),
                     axes=np.asarray(axes, dtype=float), exponents=graded_lex_exponents(degree))


@dataclass(frozen=True)
class EdgeBasis:
    """Shifted monomials (t - 1/2)^k, k = 0..degree, t = arclength fraction."""

    degree: int

    def eval(self, t) -> np.ndarray:
        tt = np.asarray(t, dtype=float) - 0.5
        return tt[:, None] ** np.arange(self.degree + 1)[None, :]


def project_cell(vertices, f, degree: int, order: int | None = None,
                 basis: CellBasis | None = None, rule=None, values=None,
                 mass=None) -> np.ndarray:
    """Coefficients of the L2(K)-orthogonal projection of f onto P_degree.

    `vertices` is one cell's loop, or a (G, m, 2) group with a group `basis` and
    `rule`; f is then called once, on (G, npoints) coordinates.  f(x, y) returns
    one value per point, or k values per point along a last axis; the result has
    shape (..., dim) or (..., dim, k).  The default rule (order 2*degree, fanned
    from each loop's centroid) is exact when f is itself a polynomial of degree
    <= degree; pass a higher order for general fields, or a prebuilt cell
    `rule`.  A prebuilt `basis` may have a higher degree: graded-lex P_degree is
    the span of its leading poly_dim(degree) functions.  `values`, the basis
    already evaluated on the points of `rule` (shape (..., npoints, dim), dim >=
    poly_dim(degree)), stands in for `basis`, and `mass`, its Gram matrices
    (..., dim, dim), for those on the rule.
    """
    if rule is None:
        if values is not None:
            raise ValueError("basis values need the rule they were evaluated on")
        order = 2 * degree if order is None else max(order, 2 * degree)
        rule = polygon_rule(vertices, order)
    x, y = rule.points[..., 0], rule.points[..., 1]
    if values is None:
        basis = cell_basis(vertices, degree) if basis is None else basis
        values = basis.eval(x, y)
    d = poly_dim(degree)
    V = values[..., :d]
    Vt = np.swapaxes(V, -1, -2)
    fv = np.asarray(f(x, y), dtype=float)
    rhs = Vt @ (rule.weights[..., None] * fv.reshape(x.shape + (-1,)))
    mass = Vt @ (rule.weights[..., None] * V) if mass is None else mass[..., :d, :d]
    try:
        coef = np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise MalformedCellError(f"singular cell mass matrix: {exc}") from exc
    return coef if fv.ndim > x.ndim else coef[..., 0]


def project_edge(p0, p1, f, degree: int, order: int | None = None) -> np.ndarray:
    """Coefficients of the L2(e) projection of f onto P_degree on edge p0 -> p1.

    p0 and p1 may be (..., 2) stacks of edges; f is then called once, on
    (..., npoints) coordinates, and the result has shape (..., degree + 1).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    order = 2 * degree if order is None else max(order, 2 * degree)
    pts, w, t = edge_rule(p0, p1, order)
    E = EdgeBasis(degree).eval(t)
    WE = w[..., None] * E
    rhs = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)[..., None, :] @ WE
    return np.linalg.solve(E.T @ WE, np.swapaxes(rhs, -1, -2))[..., 0]
