"""Local and global assembly of the weak Galerkin mixed-form operators.

A discrete flux pairs an interior [P_alpha]^2 polynomial per cell with one
scalar normal-trace polynomial of degree beta per edge (the trace represents
v_b * n_e and vanishes on boundary edges); pressures are piecewise P_sigma.
The degree triple must satisfy beta - 1 <= sigma <= beta = alpha.

The element-wise weak divergence of v = {v_0, v_b} is the P_beta(K)
polynomial defined by

    (div_w v, q)_K = -(v_0, grad q)_K + <v_b * n_e . n_K, q>_{boundary of K}

and the flux bilinear form is the interior L2 product plus the stabilization

    rho * sum_K h_K^{-1} <(v_0 - v_b).m, (w_0 - w_b).m>_{boundary of K}

with m the straight cell normal ("straight" mode) or the analytic-boundary
normal pulled back to boundary chords ("curved" mode; interior edges keep the
straight normal).

A level is one pass over its cells.  `level_cells` builds each cell's one
basis (P_alpha; the P_sigma pressure basis is its leading functions), its
assembly and projection rules and its edge rules once, reading the
centroid, diameter and edge lengths the mesh stores; `assemble_system`,
`assemble_rhs` and the exact-solution projection all read them.  The two
normal modes differ only in the boundary-edge terms, so `assemble_system`
stabilizes the cells that have a boundary edge in both modes and returns
both flux-norm matrices (the second as a difference on those cells),
together with the diagonal blocks of the L2 mass matrices of the interior
flux and of the pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import EdgeBasis, cell_basis, poly_dim
from .mesh import PolygonalMesh
from .quadrature import edge_rule, polygon_rule


class ConfigurationError(RuntimeError):
    """Assembly request inconsistent with the mesh data (e.g. missing curves)."""


def default_order(alpha: int, beta: int) -> int:
    """Quadrature exactness used for all bilinear forms."""
    return 2 * max(alpha, beta) + 2


def projection_order(alpha: int) -> int:
    """Quadrature exactness for sources and for projections of exact solutions."""
    return 2 * alpha + 4


class DofLayout:
    """Global indexing of flux and pressure unknowns.

    Velocity dofs: per-cell interior blocks (component-major: all x-component
    basis functions, then all y-component), followed by per-edge trace blocks.
    Boundary-edge traces are eliminated unless `include_boundary_traces` is
    set (which models the larger space used only in tests).  Pressure dofs are
    indexed separately from zero.
    """

    def __init__(self, mesh: PolygonalMesh, alpha: int, beta: int, sigma: int,
                 include_boundary_traces: bool = False):
        if min(alpha, beta, sigma) < 0:
            raise ValueError("polynomial degrees must be nonnegative")
        if not (beta - 1 <= sigma <= beta == alpha):
            raise ValueError(
                f"degrees (alpha={alpha}, beta={beta}, sigma={sigma}) must satisfy "
                "beta-1 <= sigma <= beta = alpha"
            )
        self.mesh = mesh
        self.alpha = alpha
        self.beta = beta
        self.sigma = sigma
        self.include_boundary_traces = include_boundary_traces
        self.dim_alpha = poly_dim(alpha)
        self.dim_sigma = poly_dim(sigma)
        self.dim_beta = poly_dim(beta)
        self.trace_dim = beta + 1

        nc, ne = mesh.n_cells, mesh.n_edges
        self.interior_offsets = 2 * self.dim_alpha * np.arange(nc, dtype=np.int64)
        self.n_interior = 2 * self.dim_alpha * nc
        self.trace_offsets = np.full(ne, -1, dtype=np.int64)
        pos = self.n_interior
        for e in range(ne):
            if include_boundary_traces or not mesh.is_boundary_edge(e):
                self.trace_offsets[e] = pos
                pos += self.trace_dim
        self.n_velocity = pos
        self.pressure_offsets = self.dim_sigma * np.arange(nc, dtype=np.int64)
        self.n_pressure = self.dim_sigma * nc

    @property
    def n_dofs(self) -> int:
        return self.n_velocity + self.n_pressure

    def cell_slice(self, c: int) -> slice:
        off = self.interior_offsets[c]
        return slice(off, off + 2 * self.dim_alpha)

    def edge_slice(self, e: int):
        off = self.trace_offsets[e]
        if off < 0:
            return None
        return slice(off, off + self.trace_dim)

    def pressure_slice(self, c: int) -> slice:
        off = self.pressure_offsets[c]
        return slice(off, off + self.dim_sigma)

    def local_dofs(self, c: int) -> np.ndarray:
        """Global velocity indices for the local dof order of cell c (-1 = dropped)."""
        idx = [np.arange(self.cell_slice(c).start, self.cell_slice(c).stop)]
        for e in self.mesh.cell_edges[c]:
            off = self.trace_offsets[e]
            if off < 0:
                idx.append(np.full(self.trace_dim, -1, dtype=np.int64))
            else:
                idx.append(np.arange(off, off + self.trace_dim))
        return np.concatenate(idx)


@dataclass
class WgFunction:
    """A discrete flux: coefficients over interior and edge-trace dofs."""

    layout: DofLayout
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, layout: DofLayout) -> "WgFunction":
        return cls(layout, np.zeros(layout.n_velocity))

    def interior(self, c: int) -> np.ndarray:
        """Interior coefficients of cell c, shape (2, dim P_alpha)."""
        return self.coeffs[self.layout.cell_slice(c)].reshape(2, self.layout.dim_alpha)

    def trace(self, e: int) -> np.ndarray:
        """Trace coefficients of edge e (zeros for eliminated boundary edges)."""
        sl = self.layout.edge_slice(e)
        if sl is None:
            return np.zeros(self.layout.trace_dim)
        return self.coeffs[sl]


class _EdgeQuad:
    """Quadrature and orientation data for one edge of a cell."""

    __slots__ = ("edge", "sign", "boundary", "n_cell", "n_edge", "pts", "w", "t", "length",
                 "segment")

    def __init__(self, mesh, e, sign, order):
        p0, p1 = mesh.edge_points(e)
        self.edge = e
        self.sign = sign
        self.boundary = bool(mesh.is_boundary_edge(e))
        self.n_edge = mesh.edge_normals[e]
        self.n_cell = sign * self.n_edge
        self.pts, self.w, self.t = edge_rule(p0, p1, order)
        self.length = mesh.edge_lengths[e]
        self.segment = mesh.boundary_segments.get(int(e))


class _CellOps:
    """One cell's basis, quadrature rules and edge rules, built once per level.

    `basis_a` is the cell's one basis, of P_alpha; the P_sigma pressure basis
    is its leading `dim_sigma` functions, so pressure values are leading
    columns of its values.  `rule` is the assembly rule (exactness `order`)
    and `proj_rule` the `projection_order` rule for sources and exact
    solutions; both are fanned from the stored centroid.  The assembly rule, the edge rules and the basis values and
    mass matrix at the assembly points are built on first use and dropped by
    `release` once the cell is assembled, so between the assembly and the
    solve a level's list of cells holds only the basis and `proj_rule`.
    """

    def __init__(self, mesh: PolygonalMesh, c: int, layout: DofLayout, order: int | None = None):
        self.mesh = mesh
        self.c = c
        self.layout = layout
        self.order = default_order(layout.alpha, layout.beta) if order is None else order
        self.vertices = mesh.vertices[mesh.cells[c]]
        self.center = mesh.cell_centroids[c]
        self.basis_a = cell_basis(self.vertices, layout.alpha)
        self.proj_rule = polygon_rule(self.vertices, projection_order(layout.alpha), self.center)
        self.hk = float(mesh.cell_diameters[c])
        self.edge_basis = EdgeBasis(layout.beta)
        self.n_int = 2 * layout.dim_alpha
        self.n_loc = self.n_int + layout.trace_dim * len(mesh.cell_edges[c])

    @cached_property
    def rule(self):
        return polygon_rule(self.vertices, self.order, self.center)

    @cached_property
    def edges(self) -> list:
        return [_EdgeQuad(self.mesh, int(e), int(sgn), self.order)
                for e, sgn in zip(self.mesh.cell_edges[self.c], self.mesh.cell_edge_signs[self.c])]

    @cached_property
    def Va(self) -> np.ndarray:
        return self.basis_a.eval(self.rule.points[:, 0], self.rule.points[:, 1])

    @cached_property
    def Ga(self) -> np.ndarray:
        return self.basis_a.grad(self.rule.points[:, 0], self.rule.points[:, 1])

    @cached_property
    def mass(self) -> np.ndarray:
        """Gram matrix of `basis_a`; its leading dim_sigma block is the pressure's."""
        return self.Va.T @ (self.rule.weights[:, None] * self.Va)

    def release(self) -> None:
        """Drop the assembly and edge rules and the basis values and mass at its points."""
        for name in ("rule", "edges", "Va", "Ga", "mass"):
            self.__dict__.pop(name, None)

    def trace_block(self, k: int) -> slice:
        off = self.n_int + k * self.layout.trace_dim
        return slice(off, off + self.layout.trace_dim)


def level_cells(mesh: PolygonalMesh, layout: DofLayout, order: int | None = None) -> list:
    """Every cell's bases and rules, for the assembly at exactness `order`."""
    return [_CellOps(mesh, c, layout, order) for c in range(mesh.n_cells)]


def local_mass(ops: _CellOps) -> np.ndarray:
    """Block-diagonal two-component L2 mass matrix on the interior dofs."""
    na = ops.layout.dim_alpha
    out = np.zeros((2 * na, 2 * na))
    out[:na, :na] = ops.mass
    out[na:, na:] = ops.mass
    return out


def local_weak_divergence(ops: _CellOps) -> np.ndarray:
    """Matrix sending local (interior + trace) dofs to P_beta coefficients.

    beta = alpha, so the weak divergence lives in the span of `basis_a`.
    """
    na = ops.layout.dim_alpha
    N = np.zeros((na, ops.n_loc))
    w = ops.rule.weights
    # -(v_0, grad q)_K
    N[:, :na] = -(ops.Ga[:, :, 0] * w[:, None]).T @ ops.Va
    N[:, na:2 * na] = -(ops.Ga[:, :, 1] * w[:, None]).T @ ops.Va
    # <v_b n_e . n_K, q>_e with n_e . n_K = +-1
    for k, eq in enumerate(ops.edges):
        Vq = ops.basis_a.eval(eq.pts[:, 0], eq.pts[:, 1])
        E = ops.edge_basis.eval(eq.t)
        N[:, ops.trace_block(k)] = eq.sign * (Vq.T @ (eq.w[:, None] * E))
    return np.linalg.solve(ops.mass, N)


def local_stabilization(ops: _CellOps, mode: str = "straight", rho: float = 1.0) -> np.ndarray:
    """Quadratic form rho/h_K sum_e int_e ((u_0-u_b).m)((v_0-v_b).m) ds.

    mode="straight" uses the cell outward normal on every edge; mode="curved"
    replaces it on boundary edges by the analytic-curve normal pulled back to
    the chord (interior edges keep the straight normal).
    """
    if mode not in ("straight", "curved"):
        raise ValueError(f"unknown normal mode '{mode}'")
    na = ops.layout.dim_alpha
    S = np.zeros((ops.n_loc, ops.n_loc))
    for k, eq in enumerate(ops.edges):
        if mode == "curved" and eq.boundary:
            if eq.segment is None:
                raise ConfigurationError(
                    f"edge {eq.edge}: curved stabilization requires a CurvedSegment"
                )
            m_vec = eq.segment.geometry(eq.t * eq.length)[2]
            ne_dot_m = m_vec @ eq.n_edge
        else:
            m_vec = np.broadcast_to(eq.n_cell, (eq.t.size, 2))
            ne_dot_m = np.full(eq.t.size, float(eq.sign))
        Vae = ops.basis_a.eval(eq.pts[:, 0], eq.pts[:, 1])
        R = np.zeros((eq.t.size, ops.n_loc))
        R[:, :na] = Vae * m_vec[:, 0:1]
        R[:, na:2 * na] = Vae * m_vec[:, 1:2]
        R[:, ops.trace_block(k)] = -ops.edge_basis.eval(eq.t) * ne_dot_m[:, None]
        S += R.T @ (eq.w[:, None] * R)
    return (rho / ops.hk) * S


def local_pressure_coupling(ops: _CellOps) -> np.ndarray:
    """Rows of b_h on the cell: entries -(div_w v, q)_K for q in the P_sigma basis."""
    return -ops.mass[:ops.layout.dim_sigma] @ local_weak_divergence(ops)


def local_boundary_correction(ops: _CellOps, eq: _EdgeQuad) -> np.ndarray:
    """Pairings <phi.n - mean_e(phi.n), q>_e on the cell's boundary edge `eq`.

    Rows run over the cell's pressure basis, columns over its interior dofs.
    """
    Va = ops.basis_a.eval(eq.pts[:, 0], eq.pts[:, 1])
    n = eq.n_edge
    F = np.hstack([Va * n[0], Va * n[1]])              # phi . n
    mean = (eq.w @ F) / float(eq.w.sum())
    Vs = Va[:, :ops.layout.dim_sigma]
    return Vs.T @ (eq.w[:, None] * (F - mean[None, :]))


def boundary_correction_entries(mesh: PolygonalMesh, e: int, layout: DofLayout,
                                order: int | None = None) -> np.ndarray:
    """Correction pairings of boundary edge e against its cell's bases.

    The assembled mass-conservation rows of the modified scheme subtract these.
    """
    if not mesh.is_boundary_edge(e):
        raise ValueError(f"edge {e} is interior; the correction lives on the boundary")
    ops = _CellOps(mesh, int(mesh.edge_cells[e, 0]), layout, order)
    return local_boundary_correction(ops, next(eq for eq in ops.edges if eq.edge == e))


@dataclass
class SaddleSystem:
    """Assembled saddle-point blocks for one scheme on one mesh.

    The flux equation always couples pressures through B^T (the plain weak
    divergence); the mass-conservation rows are B for the original scheme and
    B1 = B - corrections for the boundary-corrected one, making the full
    matrix non-symmetric exactly when a correction row is nonzero.  A is the
    flux-norm matrix in the scheme's normal mode; A + A_delta is the one in
    the other mode, A_delta being nonzero only on cells with a boundary edge.
    flux_mass and pressure_mass hold the diagonal blocks of the L2 mass
    matrices of the interior flux and of the pressure.
    """

    layout: DofLayout
    scheme: str                  # "original" | "modified"
    normal_mode: str             # "straight" | "curved"
    rho: float
    A: sp.csr_matrix
    B: sp.csr_matrix
    B1: sp.csr_matrix | None
    pressure_mean: np.ndarray    # entries (q_i, 1)_{Omega_h}
    area: float
    A_delta: sp.csr_matrix
    flux_mass: np.ndarray        # (cells, dim P_alpha, dim P_alpha), per flux component
    pressure_mass: np.ndarray    # (cells, dim P_sigma, dim P_sigma)
    rhs: np.ndarray | None = None

    @property
    def pressure_rows(self) -> sp.csr_matrix:
        return self.B1 if self.scheme == "modified" else self.B

    def vh_matrix(self, mode: str) -> sp.csr_matrix:
        """Flux-norm matrix (mass + stabilization) in normal mode `mode`."""
        if mode not in ("straight", "curved"):
            raise ValueError(f"unknown normal mode '{mode}'")
        return self.A if mode == self.normal_mode else (self.A + self.A_delta).tocsr()

    def full_matrix(self) -> sp.csr_matrix:
        return sp.bmat([[self.A, self.B.T], [self.pressure_rows, None]], format="csr")

    def constant_pressure_vector(self) -> np.ndarray:
        """Coefficients of the function p = 1 (velocity block zero)."""
        lay = self.layout
        z = np.zeros(lay.n_velocity + lay.n_pressure)
        z[lay.n_velocity + lay.pressure_offsets] = 1.0
        return z


class _CooBuilder:
    """Dense local blocks with their global row and column indices.

    The triplets are expanded only in `to_csr`, so the blocks are held once.
    """

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, rows, cols, block):
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        rmask = rows >= 0
        cmask = cols >= 0
        if not (rmask.all() and cmask.all()):
            block = block[rmask][:, cmask]
            rows, cols = rows[rmask], cols[cmask]
        self.rows.append(rows)
        self.cols.append(cols)
        self.vals.append(np.asarray(block, dtype=float).ravel())

    def to_csr(self, shape) -> sp.csr_matrix:
        if not self.rows:
            return sp.csr_matrix(shape)
        blocks = list(zip(self.rows, self.cols))
        r = np.concatenate([np.repeat(rows, cols.size) for rows, cols in blocks])
        c = np.concatenate([np.tile(cols, rows.size) for rows, cols in blocks])
        v = np.concatenate(self.vals)
        return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


def assemble_vh_matrix(mesh: PolygonalMesh, layout: DofLayout, mode: str = "straight",
                       rho: float = 1.0, order: int | None = None) -> sp.csr_matrix:
    """Mass + stabilization on the flux space (the a_h / a_{h,1} block)."""
    return assemble_system(mesh, layout, rho=rho, order=order).vh_matrix(mode)


def assemble_system(mesh: PolygonalMesh, degrees, scheme: str = "original",
                    rho: float = 1.0, order: int | None = None,
                    include_boundary_traces: bool = False,
                    cells: list | None = None) -> SaddleSystem:
    """Assemble the saddle-point system for one scheme.

    degrees is (alpha, beta, sigma) or an existing DofLayout; `cells` is the
    level's `level_cells` list, built here when not given.  The original
    scheme stabilizes with straight normals and keeps the symmetric block
    structure; the modified scheme stabilizes with curved normals and
    subtracts the boundary-correction pairings from the mass-conservation
    rows only.  Cells with a boundary edge are stabilized in the other normal
    mode too; the difference is A_delta, so both flux-norm matrices come from
    one pass and share every entry no boundary cell touches.
    """
    if scheme not in ("original", "modified"):
        raise ValueError(f"unknown scheme '{scheme}'")
    if isinstance(degrees, DofLayout):
        layout = degrees
    else:
        alpha, beta, sigma = degrees
        layout = DofLayout(mesh, alpha, beta, sigma,
                           include_boundary_traces=include_boundary_traces)
    if rho <= 0.0:
        raise ValueError("stabilization parameter rho must be positive")
    mode, other = ("curved", "straight") if scheme == "modified" else ("straight", "curved")
    if cells is None:
        cells = level_cells(mesh, layout, order)

    a_build = _CooBuilder()
    delta_build = _CooBuilder()
    b_build = _CooBuilder()
    corr_build = _CooBuilder()
    na, ns = layout.dim_alpha, layout.dim_sigma
    flux_mass = np.empty((mesh.n_cells, na, na))
    pressure_mass = np.empty((mesh.n_cells, ns, ns))
    pmean = np.zeros(layout.n_pressure)
    for ops in cells:
        c = ops.c
        idx = layout.local_dofs(c)
        vidx = idx[:ops.n_int]
        pidx = np.arange(layout.pressure_slice(c).start, layout.pressure_slice(c).stop)

        A_loc = local_stabilization(ops, mode=mode, rho=rho)
        boundary = [eq for eq in ops.edges if eq.boundary]
        if boundary:
            delta_build.add(idx, idx, local_stabilization(ops, mode=other, rho=rho) - A_loc)
        A_loc[:ops.n_int, :ops.n_int] += local_mass(ops)
        a_build.add(idx, idx, A_loc)
        flux_mass[c] = ops.mass

        b_build.add(pidx, idx, local_pressure_coupling(ops))
        pressure_mass[c] = ops.mass[:ns, :ns]
        pmean[layout.pressure_slice(c)] = ops.rule.weights @ ops.Va[:, :ns]
        if scheme == "modified":
            for eq in boundary:
                corr_build.add(pidx, vidx, local_boundary_correction(ops, eq))
        ops.release()

    nv, npr = layout.n_velocity, layout.n_pressure
    A = a_build.to_csr((nv, nv))
    B = b_build.to_csr((npr, nv))
    B1 = (B - corr_build.to_csr(B.shape)).tocsr() if scheme == "modified" else None
    return SaddleSystem(layout=layout, scheme=scheme, normal_mode=mode, rho=rho,
                        A=A, B=B, B1=B1, pressure_mean=pmean,
                        area=float(mesh.cell_areas.sum()),
                        A_delta=delta_build.to_csr((nv, nv)),
                        flux_mass=flux_mass, pressure_mass=pressure_mass)


def assemble_rhs(mesh: PolygonalMesh, layout: DofLayout, g,
                 cells: list | None = None) -> np.ndarray:
    """Right-hand side: zero flux block, pressure entries -(g, q)_{Omega_h}.

    The source is integrated with each cell's projection rule (`cells`, the
    level's `level_cells` list, is built here when not given).  The source is
    replaced by its mean-free part on the computational domain, which makes
    the vector orthogonal to the constant pressure direction (the kernel of
    the transposed operator).
    """
    if cells is None:
        cells = level_cells(mesh, layout)
    rhs = np.zeros(layout.n_velocity + layout.n_pressure)
    moments = np.zeros(layout.n_pressure)
    wconst = np.zeros(layout.n_pressure)
    total = 0.0
    area = 0.0
    for ops in cells:
        rule = ops.proj_rule
        Vs = ops.basis_a.eval(rule.points[:, 0], rule.points[:, 1])[:, :layout.dim_sigma]
        gv = np.asarray(g(rule.points[:, 0], rule.points[:, 1]), dtype=float)
        sl = layout.pressure_slice(ops.c)
        moments[sl] = Vs.T @ (rule.weights * gv)
        wconst[sl] = rule.weights @ Vs
        total += float(rule.weights @ gv)
        area += float(rule.weights.sum())
    moments -= (total / area) * wconst
    rhs[layout.n_velocity:] = -moments
    return rhs
