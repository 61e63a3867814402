"""Test-side oracles and global views of the assembled operators.

The program holds a system only as cell blocks (`SaddleSystem.blocks`) plus
the scattered A, B and pressure rows.  The global matrices a test compares
against, the weak divergence itself, the plain per-cell integrals, bases,
gradients and diameters the quadrature, basis and mesh tests use as
references, the cell kernels on a cell rule, and the former power-table basis
tabulation and dict-indexed derivative maps, are built here, from those
blocks and matrices or from the quadrature rules; so is the wrapped cell, a
mesh on which every edge of one polygon is interior and carries a trace.
Nothing in `src` imports this module.
"""

import math

import numpy as np
import scipy.sparse as sp

from wgmixed.assembly import _divergence_pairings, _to_csr
from wgmixed.basis import moment_axes, poly_dim
from wgmixed.mesh import build_mesh
from wgmixed.quadrature import edge_rule, polygon_moments, polygon_rule


def local_weak_divergence(cells) -> np.ndarray:
    """Matrices sending a cell group's local (interior + trace) dofs to P_beta coefficients.

    beta = alpha, so the weak divergence lives in the span of the cell basis.
    """
    return np.linalg.solve(cells.mass, _divergence_pairings(cells, cells.layout.alpha))


def wrapped_cell(vertices, scale: float = 3.0):
    """A mesh whose cell 0 is the CCW loop `vertices`, ringed by one quad per edge
    out to the loop scaled by `scale` about its centroid.

    Every edge of cell 0 is interior and owned by it, so a `CellGroup` of
    cell 0 has a trace slot, with sign +1, on each of its edges in loop order.
    """
    v = np.asarray(vertices, dtype=float)
    m = v.shape[0]
    center = polygon_moments(v)[1]
    k = np.arange(m)
    quads = np.column_stack([m + k, m + (k + 1) % m, (k + 1) % m, k])
    return build_mesh(np.concatenate([v, center + scale * (v - center)]),
                      [list(range(m))] + quads.tolist())


def cell_diameter(vertices):
    """Largest vertex distance of each loop in a (..., m, 2) stack, over all vertex pairs at once."""
    v = np.asarray(vertices, dtype=float)
    d2 = ((v[..., :, None, :] - v[..., None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(d2.max(axis=(-2, -1)))[()]


def a_delta(system) -> sp.csr_matrix:
    """The other normal mode's flux-norm matrix minus A, from the boundary groups' `delta`
    on their interior flux dofs."""
    nv = system.layout.n_velocity
    return _to_csr(((b.vdofs[:, :b.delta.shape[1]], b.vdofs[:, :b.delta.shape[1]], b.delta)
                    for b in system.blocks if b.delta is not None), (nv, nv))


def vh_matrix(system, mode: str) -> sp.csr_matrix:
    """Flux-norm matrix (mass + stabilization) in normal mode `mode`."""
    return system.A if mode == system.normal_mode else (system.A + a_delta(system)).tocsr()


def full_matrix(system) -> sp.csr_matrix:
    """The saddle operator [[A, B^T], [pressure_rows, 0]]."""
    return sp.bmat([[system.A, system.B.T], [system.pressure_rows, None]], format="csr")


def constant_pressure_vector(layout) -> np.ndarray:
    """Coefficients of the function p = 1 (velocity block zero); coefficient 0 is the constant."""
    z = np.zeros(layout.n_dofs)
    z[layout.n_velocity + layout.pressure_offsets] = 1.0
    return z


def quadratic_norm(matrix, x) -> float:
    """sqrt(x . matrix x), clipped at zero against rounding."""
    return math.sqrt(max(float(x @ (matrix @ x)), 0.0))


def integrate_cell(vertices, f, order: int) -> float:
    """Integrate the scalar field f(x, y) over a simple polygon."""
    rule = polygon_rule(vertices, order)
    return float(rule.weights @ np.asarray(f(rule.points[:, 0], rule.points[:, 1]), dtype=float))


def integrate_edge(p0, p1, f, order: int) -> float:
    """Integrate the scalar field f(x, y) along the segment p0 -> p1."""
    pts, w, _ = edge_rule(p0, p1, order)
    return float(w @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


def cell_mass_matrix(vertices, basis, order: int | None = None) -> np.ndarray:
    """Gram matrix of a cell basis in L2(K)."""
    order = 2 * basis.degree if order is None else max(order, 2 * basis.degree)
    rule = polygon_rule(vertices, order)
    V = basis.eval(rule.points[:, 0], rule.points[:, 1])
    return V.T @ (rule.weights[:, None] * V)


def principal_axes(vertices) -> np.ndarray:
    """`moment_axes` of a polygon given as its vertex loop."""
    return moment_axes(polygon_moments(vertices)[2])


def power_table_values(basis, x, y) -> np.ndarray:
    """Basis values at points, (..., npoints, dim), from a table of the powers
    xi^k and eta^k, k = 0..degree, filled by repeated multiplication."""
    dx = np.asarray(x, dtype=float) - basis.center[..., 0, None]
    dy = np.asarray(y, dtype=float) - basis.center[..., 1, None]
    T = basis.axes[..., None]
    X = T[..., 0, 0, :] * dx + T[..., 0, 1, :] * dy
    table = np.empty((2, basis.degree + 1) + X.shape)
    table[:, 0] = 1.0
    if basis.degree:
        table[0, 1] = X
        table[1, 1] = T[..., 1, 0, :] * dx + T[..., 1, 1, :] * dy
    for k in range(2, basis.degree + 1):
        np.multiply(table[:, k - 1], table[:, 1], out=table[:, k])
    px, py = table
    out = np.empty((basis.dim,) + px.shape[1:])
    for i, (a, b) in enumerate(basis.exponents):
        np.multiply(px[a], py[b], out=out[i])
    return np.moveaxis(out, 0, -1)


def indexed_derivatives(basis) -> np.ndarray:
    """`CellBasis.derivatives` with each shifted exponent looked up in a dict."""
    index = {(a, b): k for k, (a, b) in enumerate(basis.exponents.tolist())}
    shift = np.zeros((2, basis.dim, basis.dim))
    for i, (a, b) in enumerate(basis.exponents.tolist()):   # a zero factor adds nothing
        shift[0, i, index.get((a - 1, b), 0)] += a
        shift[1, i, index.get((a, b - 1), 0)] += b
    return np.einsum("...rc,rik->...cik", basis.axes, shift)


def basis_gradients(basis, x, y) -> np.ndarray:
    """Gradients of a cell basis at points, (..., npoints, dim, 2), by the chain rule.

    d/dxi of xi^a eta^b is a xi^(a-1) eta^b, and d(xi, eta)/d(x, y) is the
    basis's axes.
    """
    d = np.stack([x - basis.center[..., 0, None], y - basis.center[..., 1, None]], axis=-1)
    xi, eta = np.moveaxis(np.einsum("...ij,...qj->...qi", basis.axes, d), -1, 0)
    a, b = basis.exponents[:, 0], basis.exponents[:, 1]
    X, Y = xi[..., None], eta[..., None]
    dxi = a * X ** np.maximum(a - 1, 0) * Y ** b
    deta = b * X ** a * Y ** np.maximum(b - 1, 0)
    T = basis.axes[..., None, None, :, :]
    return np.stack([T[..., 0, 0] * dxi + T[..., 1, 0] * deta,
                     T[..., 0, 1] * dxi + T[..., 1, 1] * deta], axis=-1)


def cell_rule_kernels(cells) -> dict:
    """A cell group's mass, pressure means and interior divergence pairings on a cell rule.

    The rule is the centroid fan of exactness 2 alpha, the degree of every
    integrand: phi_i phi_j, phi_i, and phi_j d(phi_i)/dx_c.  `pairings`
    maps each degree (alpha and sigma) to -(v_0, grad q)_K on the interior
    columns of `_divergence_pairings`.
    """
    lay = cells.layout
    rule = polygon_rule(cells.vertices, 2 * lay.alpha, cells.center)
    x, y = rule.points[..., 0], rule.points[..., 1]
    V = cells.basis.eval(x, y)
    WV = rule.weights[..., None] * V
    G = basis_gradients(cells.basis, x, y)
    pairings = {}
    for degree in (lay.alpha, lay.sigma):
        dim = poly_dim(degree)
        pairings[degree] = np.concatenate(
            [-np.swapaxes(G[..., :dim, c], -1, -2) @ WV for c in (0, 1)], axis=-1)
    return {"mass": np.swapaxes(V, -1, -2) @ WV,
            "pressure_mean": WV[..., :lay.dim_sigma].sum(axis=-2),
            "pairings": pairings}
