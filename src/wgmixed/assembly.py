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

A level's cells are handled in groups of one vertex count (a disk or ring
mesh holds triangles and, with split boundary chords, one kind of boundary
polygon).  `level_cells` builds each group once: its cells' P_alpha basis
(the P_sigma pressure basis is its leading functions) in the centroids and
principal axes the mesh stores, as stacked arrays with the group axis first.
The projection rule and the basis values on it are built on first use and
kept for the level's lifetime, so the right-hand side and both exact
projections read one tabulation; the assembly rule, the edge rules and the
basis values on them are built on first use and released once the group is
assembled.  The kernels `local_mass`, `local_stabilization`,
`local_pressure_coupling` and `local_boundary_correction` compute every
cell's block of a group at once with batched products and return them
stacked, group axis first; a single cell is a group of one.  The pressure
rows are the defining pairings -(div_w v, q)_K with the P_sigma basis, so no
kernel solves against the mass matrix; `local_weak_divergence`, the P_beta
coefficients of div_w v, is only a reference.  The two normal modes differ
only in the boundary-edge terms, so `assemble_system` stabilizes the cells
that have a boundary edge in both modes and keeps the second as a difference
on those cells, together with the diagonal blocks of the L2 mass matrix of
the interior flux (whose leading blocks are the pressure's).

The assembled system is a list of cell blocks, one per group: each cell's
saddle block restricted to its kept dofs (boundary traces dropped).  Each
cell's interior flux couples only to its own traces and pressures, so
`assemble_system` condenses it out of the group's blocks with one batched
solve and scatters the Schur blocks, bordered by the pressure-mean
functional, into the one sparse matrix the solve factorizes.  Products with
the full operator and the flux norms are computed cell by cell from the
blocks; the global A, B, B1 and A_delta are built from them only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import EdgeBasis, cell_basis, poly_dim
from .mesh import PolygonalMesh, segment_geometry
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
        self.dim_alpha = poly_dim(alpha)
        self.dim_sigma = poly_dim(sigma)
        self.trace_dim = beta + 1

        nc = mesh.n_cells
        self.interior_offsets = 2 * self.dim_alpha * np.arange(nc, dtype=np.int64)
        self.n_interior = 2 * self.dim_alpha * nc
        kept = (mesh.edge_cells[:, 1] >= 0) | include_boundary_traces
        offsets = self.n_interior + self.trace_dim * (np.cumsum(kept) - 1)
        self.trace_offsets = np.where(kept, offsets, -1)
        self.n_velocity = self.n_interior + self.trace_dim * int(kept.sum())
        self.pressure_offsets = self.dim_sigma * np.arange(nc, dtype=np.int64)
        self.n_pressure = self.dim_sigma * nc

    @property
    def n_dofs(self) -> int:
        return self.n_velocity + self.n_pressure

    def local_dofs(self, cells) -> np.ndarray:
        """Global velocity indices in the local dof order of cell `cells` (-1 = dropped).

        An array of cells with one vertex count gives one row per cell.
        """
        c = np.asarray(cells)
        edges = self.mesh.cell_arrays(c)[1]
        off = self.trace_offsets[edges][..., None]
        traces = np.where(off >= 0, off + np.arange(self.trace_dim), -1)
        inner = self.interior_offsets[c][..., None] + np.arange(2 * self.dim_alpha)
        return np.concatenate([inner, traces.reshape(c.shape + (-1,))], axis=-1)

    def pressure_dofs(self, cells) -> np.ndarray:
        """Global pressure indices of cell `cells`, or one row per cell of an array."""
        return self.pressure_offsets[cells][..., None] + np.arange(self.dim_sigma)


@dataclass
class WgFunction:
    """A discrete flux: coefficients over interior and edge-trace dofs."""

    layout: DofLayout
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, layout: DofLayout) -> "WgFunction":
        return cls(layout, np.zeros(layout.n_velocity))


class CellGroup:
    """Cells of one vertex count with their stacked basis and rules, built once per level.

    Arrays carry the group axis first.  `basis` is the cells' P_alpha basis in
    the centroids and axes the mesh stores; the P_sigma pressure basis is its
    leading `dim_sigma` functions, so pressure values are leading columns of
    its values.  `proj_rule` is the `projection_order` rule for sources and
    exact solutions, fanned from the stored centroids, and `proj_values` the
    basis values on it; both are built on first use and kept for the level's
    lifetime (the right-hand side and the exact projections of flux and
    pressure all read them).  The assembly rule (exactness `order`), the edge
    rules (along each edge's stored owner orientation, so t runs backwards on
    a cell's non-owned edges) and the basis values and mass matrices on them
    are built on first use and dropped by `release` once the group is
    assembled.
    """

    def __init__(self, mesh: PolygonalMesh, ids, layout: DofLayout, order: int | None = None):
        self.mesh = mesh
        self.layout = layout
        self.ids = np.asarray(ids, dtype=np.int64)
        self.order = default_order(layout.alpha, layout.beta) if order is None else order
        loops, self.edges, self.signs = mesh.cell_arrays(self.ids)
        self.vertices = mesh.vertices[loops]
        self.boundary = mesh.edge_cells[self.edges, 1] < 0
        self.center = mesh.cell_centroids[self.ids]
        self.basis = cell_basis(self.vertices, layout.alpha, self.center, mesh.cell_axes[self.ids])
        self.edge_basis = EdgeBasis(layout.beta)
        self.n_int = 2 * layout.dim_alpha
        self.n_loc = self.n_int + layout.trace_dim * self.edges.shape[1]

    @cached_property
    def proj_rule(self):
        return polygon_rule(self.vertices, projection_order(self.layout.alpha), self.center)

    @cached_property
    def proj_values(self) -> np.ndarray:
        """Basis values on the projection rule's points, (G, q, dim P_alpha)."""
        return self.basis.eval(self.proj_rule.points[..., 0], self.proj_rule.points[..., 1])

    @cached_property
    def rule(self):
        return polygon_rule(self.vertices, self.order, self.center)

    @cached_property
    def edge_quad(self):
        """Points (G, m, q, 2), weights (G, m, q) and parameters t (q,) on each cell's edges."""
        ends = self.mesh.vertices[self.mesh.edges[self.edges]]
        return edge_rule(ends[..., 0, :], ends[..., 1, :], self.order)

    @cached_property
    def Va(self) -> np.ndarray:
        return self.basis.eval(self.rule.points[..., 0], self.rule.points[..., 1])

    @cached_property
    def Ve(self) -> np.ndarray:
        """Basis values on the edge points, (G, m, q, dim P_alpha)."""
        pts = self.edge_quad[0]
        flat = pts.reshape(pts.shape[0], -1, 2)
        return self.basis.eval(flat[..., 0], flat[..., 1]).reshape(pts.shape[:3] + (-1,))

    @cached_property
    def mass(self) -> np.ndarray:
        """Gram matrices of `basis`; the leading dim_sigma block is the pressure's."""
        return np.swapaxes(self.Va, 1, 2) @ (self.rule.weights[..., None] * self.Va)

    def release(self) -> None:
        """Drop the assembly and edge rules and the basis values and mass on them."""
        for name in ("rule", "edge_quad", "Va", "Ve", "mass"):
            self.__dict__.pop(name, None)

    def trace_block(self, k: int) -> slice:
        off = self.n_int + k * self.layout.trace_dim
        return slice(off, off + self.layout.trace_dim)

    def normals(self, mode: str, rows=slice(None)):
        """Stabilization normal m (G, m, q, 2) and n_e . m (G, m, q) on each edge point.

        `rows` selects cells of the group (all by default).  Straight mode uses
        the cell outward normal; curved mode replaces it on boundary edges by
        the analytic-curve normal pulled back to the chord.
        """
        edges, signs, boundary = self.edges[rows], self.signs[rows], self.boundary[rows]
        n_edge = self.mesh.edge_normals[edges]
        t = self.edge_quad[2]
        m_vec = np.repeat((signs[..., None] * n_edge)[:, :, None, :], t.size, axis=2)
        ne_dot_m = np.repeat(signs[..., None].astype(float), t.size, axis=2)
        if mode == "curved" and boundary.any():
            bedges = edges[boundary]
            curves = self.mesh.boundary_segments
            k = curves.rows(bedges)
            if np.any(k < 0):
                raise ConfigurationError(
                    f"edge {bedges[np.argmin(k)]}: curved stabilization requires its curve")
            ntilde = segment_geometry(curves.take(k),
                                      self.mesh.edge_lengths[bedges][:, None] * t)[2]
            m_vec[boundary] = ntilde
            ne_dot_m[boundary] = np.einsum("sqc,sc->sq", ntilde, n_edge[boundary])
        return m_vec, ne_dot_m


def level_cells(mesh: PolygonalMesh, layout: DofLayout, order: int | None = None) -> list:
    """The level's cell groups, one per vertex count, for the assembly at exactness `order`."""
    return [CellGroup(mesh, ids, layout, order) for ids in mesh.cell_groups()]


def local_mass(cells: CellGroup) -> np.ndarray:
    """Block-diagonal two-component L2 mass matrices on the interior dofs."""
    return np.kron(np.eye(2), cells.mass)


def _divergence_pairings(cells: CellGroup, degree: int) -> np.ndarray:
    """(div_w v, q)_K of each local dof v and leading P_degree function q, (G, dim, n_loc)."""
    dim = poly_dim(degree)   # only these functions' gradients are tabulated
    basis = replace(cells.basis, degree=degree, exponents=cells.basis.exponents[:dim])
    WG = cells.rule.weights[..., None, None] * basis.grad(cells.rule.points[..., 0],
                                                          cells.rule.points[..., 1])
    _, w, t = cells.edge_quad
    # -(v_0, grad q)_K, then <v_b n_e . n_K, q>_e with n_e . n_K = +-1
    traces = np.einsum("gkqi,gkq,qr->gikr", cells.Ve[..., :dim], cells.signs[..., None] * w,
                       cells.edge_basis.eval(t))
    return np.concatenate([-np.swapaxes(WG[..., 0], 1, 2) @ cells.Va,
                           -np.swapaxes(WG[..., 1], 1, 2) @ cells.Va,
                           traces.reshape(traces.shape[:2] + (-1,))], axis=2)


def local_weak_divergence(cells: CellGroup) -> np.ndarray:
    """Matrices sending local (interior + trace) dofs to P_beta coefficients.

    beta = alpha, so the weak divergence lives in the span of the cell basis.
    """
    return np.linalg.solve(cells.mass, _divergence_pairings(cells, cells.layout.alpha))


def local_stabilization(cells: CellGroup, mode: str = "straight", rho: float = 1.0,
                        rows=slice(None)) -> np.ndarray:
    """Quadratic forms rho/h_K sum_e int_e ((u_0-u_b).m)((v_0-v_b).m) ds.

    mode="straight" uses the cell outward normal on every edge; mode="curved"
    replaces it on boundary edges by the analytic-curve normal pulled back to
    the chord (interior edges keep the straight normal).  `rows` (a mask or
    indices) stabilizes only those cells of the group.
    """
    if mode not in ("straight", "curved"):
        raise ValueError(f"unknown normal mode '{mode}'")
    m_vec, ne_dot_m = cells.normals(mode, rows)
    _, w, t = cells.edge_quad
    w, Ve = w[rows], cells.Ve[rows]
    G, m, q = w.shape
    traces = np.zeros((G, m, q, m, cells.layout.trace_dim))
    own = -cells.edge_basis.eval(t) * ne_dot_m[..., None]   # each edge's own trace block
    traces[:, np.arange(m), :, np.arange(m)] = np.swapaxes(own, 0, 1)
    R = np.concatenate([Ve * m_vec[..., 0:1], Ve * m_vec[..., 1:2],
                        traces.reshape(G, m, q, -1)], axis=-1).reshape(G, m * q, -1)
    S = np.swapaxes(R, 1, 2) @ (w.reshape(G, -1, 1) * R)
    return (rho / cells.mesh.cell_diameters[cells.ids[rows]])[:, None, None] * S


def local_pressure_coupling(cells: CellGroup) -> np.ndarray:
    """Rows of b_h on the cell: entries -(div_w v, q)_K for q in the P_sigma basis."""
    return -_divergence_pairings(cells, cells.layout.sigma)


def local_boundary_correction(cells: CellGroup) -> np.ndarray:
    """Pairings <phi.n - mean_e(phi.n), q>_e on each edge, (G, m, dim P_sigma, 2 dim P_alpha).

    Rows run over the cell's pressure basis, columns over its interior dofs;
    the pairings of interior edges are zero.
    """
    _, w, _ = cells.edge_quad
    n = cells.mesh.edge_normals[cells.edges][:, :, None, None, :]
    F = np.concatenate([cells.Ve * n[..., 0], cells.Ve * n[..., 1]], axis=-1)   # phi . n
    mean = np.einsum("gkq,gkqi->gki", w, F) / w.sum(axis=-1)[..., None]
    C = np.einsum("gkqs,gkq,gkqi->gksi", cells.Ve[..., :cells.layout.dim_sigma], w,
                  F - mean[:, :, None, :])
    return C * cells.boundary[..., None, None]


class SingularSystemError(RuntimeError):
    """System singular beyond the expected rank-1 pressure kernel."""


def _to_csr(triplets, shape) -> sp.csr_matrix:
    """CSR matrix from stacked dense blocks (G, r, c) with global rows (G, r) and columns (G, c).

    `triplets` yields (rows, cols, blocks); negative indices (dropped dofs)
    are skipped.
    """
    r, c, v = [], [], []
    for rows, cols, blocks in triplets:
        R, C = np.broadcast_arrays(rows[:, :, None], cols[:, None, :])
        keep = (R >= 0) & (C >= 0)
        r.append(R[keep])
        c.append(C[keep])
        v.append(blocks[keep])
    if not v:
        return sp.csr_matrix(shape)
    return sp.coo_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                         shape=shape).tocsr()


def _gather(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """v[idx], reading 0 where idx is -1 (a dropped slot)."""
    return np.concatenate([[0.0], v])[idx + 1]


def _scatter(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Length-n sums of `values` by index `idx`; entries at -1 (dropped slots) are skipped."""
    return np.bincount(idx.ravel() + 1, values.ravel(), minlength=n + 1)[1:]


@dataclass
class CellBlocks:
    """One cell group's saddle blocks on its cells' kept dofs, with their condensation.

    Each cell's flux dofs are restricted to the kept ones (the interior flux,
    then the traces of its edges that are not dropped boundary edges, in
    local order), as many per cell as the group's widest cell keeps; a cell
    that keeps fewer also holds dropped slots, whose index is -1.  `local`
    holds each cell's saddle block [[A_K, B_K^T], [P_K, 0]] on its kept flux
    dofs and its pressures, A_K being the flux-norm block in the scheme's
    normal mode and P_K the scheme's pressure rows (B_K minus the boundary
    corrections in the modified scheme).  `coupling` is A_00^{-1} [A_0y, B_0^T], the interior
    block solved against the cell's trace and pressure columns.  `cdofs`
    index the trace and pressure rows in the condensed system.  On the cells
    `boundary` of the group, `delta` is the other normal mode's flux-norm
    block minus A_K and `corr` the boundary-correction pairings on the
    interior columns (modified scheme only).
    """

    ids: np.ndarray            # (G,) cells
    vdofs: np.ndarray          # (G, K) global flux dofs, -1 = dropped
    pdofs: np.ndarray          # (G, ns) global pressure dofs
    cdofs: np.ndarray          # (G, K - n_int + ns) condensed dofs, -1 = dropped
    local: np.ndarray          # (G, K + ns, K + ns)
    coupling: np.ndarray       # (G, n_int, K - n_int + ns)
    boundary: np.ndarray       # (Gb,) rows of the cells with a boundary edge
    delta: np.ndarray          # (Gb, K, K)
    corr: np.ndarray | None    # (Gb, ns, n_int)

    @property
    def A(self) -> np.ndarray:
        k = self.vdofs.shape[1]
        return self.local[:, :k, :k]

    @property
    def B(self) -> np.ndarray:
        k = self.vdofs.shape[1]
        return np.swapaxes(self.local[:, :k, k:], 1, 2)


def _restrict(blocks: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Local blocks (G, n, n) with rows and columns taken in `order` (G, K)."""
    rows = np.take_along_axis(blocks, order[:, :, None], axis=1)
    return np.take_along_axis(rows, order[:, None, :], axis=2)


def _cell_blocks(group: CellGroup, scheme: str, mode: str, other: str, rho: float):
    """The group's `CellBlocks`, with its Schur blocks (G, r, r) on the condensed dofs."""
    layout, ni, ns = group.layout, group.n_int, group.layout.dim_sigma
    idx = layout.local_dofs(group.ids)
    pdofs = layout.pressure_dofs(group.ids)
    bd = np.flatnonzero(group.boundary.any(axis=1))

    A = local_stabilization(group, mode=mode, rho=rho)
    delta = local_stabilization(group, mode=other, rho=rho, rows=bd) - A[bd] if bd.size else A[:0]
    A[:, :ni, :ni] += local_mass(group)
    B = local_pressure_coupling(group)
    corr = local_boundary_correction(group)[bd].sum(axis=1) if scheme == "modified" else None

    kept = idx >= 0
    k = int(kept.sum(axis=1).max())
    if k < idx.shape[1]:
        # kept slots first in local order; short rows end in dropped (-1) slots
        order = np.argsort(~kept, axis=1, kind="stable")[:, :k]
        idx = np.take_along_axis(idx, order, axis=1)
        A, delta = _restrict(A, order), _restrict(delta, order[bd])
        B = np.take_along_axis(B, order[:, None, :], axis=2)

    G = group.ids.size
    local = np.zeros((G, k + ns, k + ns))
    local[:, :k, :k] = A
    local[:, :k, k:] = np.swapaxes(B, 1, 2)
    local[:, k:, :k] = B
    if corr is not None:
        local[bd, k:, :ni] -= corr
    try:
        coupling = np.linalg.solve(local[:, :ni, :ni], local[:, :ni, ni:])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"an interior flux block of A is singular ({exc})") from exc
    schur = local[:, ni:, ni:] - local[:, ni:, :ni] @ coupling

    traces = idx[:, ni:]
    cdofs = np.concatenate([np.where(traces >= 0, traces - layout.n_interior, -1),
                            pdofs + (layout.n_velocity - layout.n_interior)], axis=1)
    blocks = CellBlocks(ids=group.ids, vdofs=idx, pdofs=pdofs, cdofs=cdofs, local=local,
                        coupling=coupling, boundary=bd, delta=delta, corr=corr)
    return blocks, schur


@dataclass
class SaddleSystem:
    """Assembled saddle-point system for one scheme on one mesh, held as cell blocks.

    The flux equation always couples pressures through B^T (the plain weak
    divergence); the mass-conservation rows are B for the original scheme and
    B1 = B - corrections for the boundary-corrected one, making the full
    matrix non-symmetric exactly when a correction row is nonzero.  A is the
    flux-norm matrix in the scheme's normal mode; A + A_delta is the one in
    the other mode, A_delta being nonzero only on cells with a boundary edge.
    flux_mass holds the diagonal blocks of the L2 mass matrix of the interior
    flux; their leading dim P_sigma blocks are the pressure's.

    `blocks` holds each cell group's `CellBlocks`, and `condensed` the only
    sparse matrix the solve needs: the Schur complement of the interior
    fluxes on the trace and pressure unknowns, bordered by the pressure-mean
    row and column (CSC).  The global A, B, B1 and A_delta are built from the
    blocks on first access, for callers that want them as matrices.
    """

    layout: DofLayout
    scheme: str                  # "original" | "modified"
    normal_mode: str             # "straight" | "curved"
    rho: float
    blocks: list
    condensed: sp.csc_matrix
    pressure_mean: np.ndarray    # entries (q_i, 1)_{Omega_h}
    flux_mass: np.ndarray        # (cells, dim P_alpha, dim P_alpha), per flux component

    @cached_property
    def A(self) -> sp.csr_matrix:
        nv = self.layout.n_velocity
        return _to_csr(((b.vdofs, b.vdofs, b.A) for b in self.blocks), (nv, nv))

    @cached_property
    def A_delta(self) -> sp.csr_matrix:
        nv = self.layout.n_velocity
        return _to_csr(((b.vdofs[b.boundary], b.vdofs[b.boundary], b.delta)
                        for b in self.blocks), (nv, nv))

    @cached_property
    def B(self) -> sp.csr_matrix:
        shape = (self.layout.n_pressure, self.layout.n_velocity)
        return _to_csr(((b.pdofs, b.vdofs, b.B) for b in self.blocks), shape)

    @cached_property
    def B1(self) -> sp.csr_matrix | None:
        if self.scheme != "modified":
            return None
        ni = 2 * self.layout.dim_alpha
        corr = _to_csr(((b.pdofs[b.boundary], b.vdofs[b.boundary, :ni], b.corr)
                        for b in self.blocks), self.B.shape)
        return (self.B - corr).tocsr()

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

    def flux_norm(self, v: np.ndarray, mode: str) -> float:
        """sqrt(v . M v) for the flux-norm matrix M in normal mode `mode`, cell by cell."""
        if mode not in ("straight", "curved"):
            raise ValueError(f"unknown normal mode '{mode}'")
        total = 0.0
        for b in self.blocks:
            x = _gather(v, b.vdofs)
            total += float(np.sum(x * (b.A @ x[..., None])[..., 0]))
            if mode != self.normal_mode and b.boundary.size:
                xb = x[b.boundary]
                total += float(np.sum(xb * (b.delta @ xb[..., None])[..., 0]))
        return math.sqrt(max(total, 0.0))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """full_matrix() @ x, cell by cell."""
        nv, n = self.layout.n_velocity, self.layout.n_dofs
        out = np.zeros(n)
        for b in self.blocks:
            idx = np.concatenate([b.vdofs, nv + b.pdofs], axis=1)
            out += _scatter(idx, b.local @ _gather(x, idx)[..., None], n)
        return out

    def condense(self, f: np.ndarray) -> tuple[np.ndarray, list]:
        """Condensed right-hand side of `f`, and each group's interior solves A_00^{-1} f_0.

        The condensed vector runs over the trace and pressure unknowns.
        """
        lay = self.layout
        ni = 2 * lay.dim_alpha
        f0 = f[:lay.n_interior].reshape(-1, ni)
        g = f[lay.n_interior:].copy()
        interiors = []
        for b in self.blocks:
            fb = f0[b.ids]
            if fb.any():    # the study's first solve has no interior right-hand side
                z = np.linalg.solve(b.local[:, :ni, :ni], fb[..., None])[..., 0]
                g -= _scatter(b.cdofs, b.local[:, ni:, :ni] @ z[..., None], g.size)
            else:
                z = fb
            interiors.append(z)
        return g, interiors

    def expand(self, interiors: list, y: np.ndarray) -> np.ndarray:
        """The full solution vector from the condensed solution y and `condense`'s interiors."""
        lay = self.layout
        x0 = np.empty((lay.mesh.n_cells, 2 * lay.dim_alpha))
        for b, z in zip(self.blocks, interiors):
            x0[b.ids] = z - (b.coupling @ _gather(y, b.cdofs)[..., None])[..., 0]
        return np.concatenate([x0.ravel(), y])


def assemble_vh_matrix(mesh: PolygonalMesh, layout: DofLayout, mode: str = "straight",
                       rho: float = 1.0, order: int | None = None) -> sp.csr_matrix:
    """Mass + stabilization on the flux space (the a_h / a_{h,1} block)."""
    return assemble_system(mesh, layout, rho=rho, order=order).vh_matrix(mode)


def assemble_system(mesh: PolygonalMesh, degrees, scheme: str = "original",
                    rho: float = 1.0, order: int | None = None,
                    cells: list | None = None) -> SaddleSystem:
    """Assemble the saddle-point system for one scheme as condensed cell blocks.

    degrees is (alpha, beta, sigma) or an existing DofLayout; `cells` is the
    level's `level_cells` list, built here when not given.  The original
    scheme stabilizes with straight normals and keeps the symmetric block
    structure; the modified scheme stabilizes with curved normals and
    subtracts the boundary-correction pairings from the mass-conservation
    rows only.  Cells with a boundary edge are stabilized in the other normal
    mode too; the difference is A_delta, so both flux-norm matrices come from
    one pass and share every entry no boundary cell touches.  Each group's
    blocks are restricted to its cells' kept dofs and condensed with one
    batched solve against the interior blocks; the Schur blocks and the
    pressure-mean border are scattered into `SaddleSystem.condensed`.
    """
    if scheme not in ("original", "modified"):
        raise ValueError(f"unknown scheme '{scheme}'")
    layout = degrees if isinstance(degrees, DofLayout) else DofLayout(mesh, *degrees)
    if rho <= 0.0:
        raise ValueError("stabilization parameter rho must be positive")
    mode, other = ("curved", "straight") if scheme == "modified" else ("straight", "curved")
    if cells is None:
        cells = level_cells(mesh, layout, order)

    ns = layout.dim_sigma
    blocks, schur = [], []
    flux_mass = np.empty((mesh.n_cells, layout.dim_alpha, layout.dim_alpha))
    pmean = np.zeros(layout.n_pressure)
    for group in cells:
        block, S = _cell_blocks(group, scheme, mode, other, rho)
        blocks.append(block)
        schur.append((block.cdofs, block.cdofs, S))
        flux_mass[group.ids] = group.mass
        pmean[block.pdofs] = np.einsum("gq,gqi->gi", group.rule.weights, group.Va[..., :ns])
        group.release()

    # the condensed unknowns: traces, pressures, then the multiplier of (p, 1) = 0
    n = layout.n_dofs - layout.n_interior
    pressures = np.arange(n - layout.n_pressure, n)[None, :]
    last = np.array([[n]])
    schur += [(pressures, last, pmean[None, :, None]), (last, pressures, pmean[None, None, :])]
    return SaddleSystem(layout=layout, scheme=scheme, normal_mode=mode, rho=rho,
                        blocks=blocks, condensed=_to_csr(schur, (n + 1, n + 1)).tocsc(),
                        pressure_mean=pmean, flux_mass=flux_mass)


def assemble_rhs(mesh: PolygonalMesh, layout: DofLayout, g,
                 cells: list | None = None) -> np.ndarray:
    """Right-hand side: zero flux block, pressure entries -(g, q)_{Omega_h}.

    The source is integrated with each cell's projection rule and the basis
    values on it (`cells`, the level's `level_cells` list, is built here when
    not given).  The source is replaced by its mean-free part on the
    computational domain, which makes the vector orthogonal to the constant
    pressure direction (the kernel of the transposed operator).
    """
    if cells is None:
        cells = level_cells(mesh, layout)
    rhs = np.zeros(layout.n_velocity + layout.n_pressure)
    moments = np.zeros(layout.n_pressure)
    wconst = np.zeros(layout.n_pressure)
    total = area = 0.0
    for group in cells:
        rule = group.proj_rule
        x, y = rule.points[..., 0], rule.points[..., 1]
        WVs = rule.weights[..., None] * group.proj_values[..., :layout.dim_sigma]
        gv = np.asarray(g(x, y), dtype=float)
        pidx = layout.pressure_dofs(group.ids)
        moments[pidx] = np.einsum("gqi,gq->gi", WVs, gv)
        wconst[pidx] = WVs.sum(axis=1)
        total += float(np.sum(rule.weights * gv))
        area += float(rule.weights.sum())
    moments -= (total / area) * wconst
    rhs[layout.n_velocity:] = -moments
    return rhs
