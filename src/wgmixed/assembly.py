"""Cell-block assembly of the weak Galerkin mixed-form operators.

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

A level's cells are handled in the mesh's groups (`mesh.groups`, one per
vertex count and boundary-edge count), so a group's cells keep the same
number of traces, and either all of them touch the boundary or none does.
`level_cells` builds one `CellGroup` per mesh group: its cells' P_alpha
basis (the P_sigma pressure basis is its leading functions) in the
centroids and principal axes the mesh stores, as stacked arrays with the
group axis first.
The assembly has no cell rule.  Its edge rules (exactness `default_order`,
or the study's quadrature order, at least 2 alpha) serve the stabilization
and the mass matrix, summed on the edges (`CellGroup.mass`); the interior
weak-divergence pairings and the pressure means are read from the mass.
The projection rule (exactness `projection_order`, fanned from the stored
centroids) serves the source and the exact solutions, which are not
polynomials.  Each rule is built on first use and dropped by
`CellGroup.release`, which keeps the mass: `assemble_system` releases a
group once it is assembled, and `project_level` computes the right-hand
side moments and both exact cell projections in one pass per group and
releases the group before the next one starts.  The group also fixes its
cells' flux dofs (`CellGroup.dofs`): the interior flux, then the traces of
the cell's interior edges; boundary edges carry no trace unknowns.
The kernels `local_mass`, `local_stabilization`, `local_pressure_coupling`
and `local_boundary_correction` compute every cell's block of a group at
once with batched products, on the cell's flux dofs only, and return them
stacked, group axis first; a single cell is a group of one.  The pressure
rows are the defining pairings -(div_w v, q)_K with the P_sigma basis, so no
kernel solves against the mass matrix.  The two normal modes differ
only in the boundary-edge terms, which hold no trace: one
`local_stabilization` pass forms the slots' terms, and the boundary edges'
interior-flux Gram matrices once in each normal, so it yields both modes.
`assemble_system` keeps the other mode as a difference on the boundary
groups' interior-flux blocks, together with the diagonal blocks of the L2
mass matrix of the interior flux (whose leading blocks are the pressure's).

The assembled system is a list of cell blocks, one per group: each cell's
saddle block on its group's flux dofs, with the scheme's pressure rows
(boundary corrections subtracted in the modified scheme) stored in it.
`assemble_system` inverts and factorizes nothing; the hybridized solve
(`solver.solve_saddle`) eliminates the blocks.  The cell blocks are the
only operator: products with it, and the flux norms in both normal modes
(`convergence.vh_norm`), are computed cell by cell from them.  The global
A, B and pressure rows are scattered from them only on request, on the
blocks' pattern (stored zeros kept); neither the solve nor the norms read
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import EdgeBasis, cell_basis, poly_dim, project_cell, project_edge
from .mesh import PolygonalMesh, segment_geometry
from .quadrature import edge_rule, polygon_rule


class ConfigurationError(RuntimeError):
    """Assembly request inconsistent with the mesh data (e.g. missing curves)."""


def default_order(alpha: int, beta: int) -> int:
    """Edge-rule exactness of the bilinear forms (the curved normals are not polynomials)."""
    return 2 * max(alpha, beta) + 2


def projection_order(alpha: int) -> int:
    """Quadrature exactness for sources and for projections of exact solutions."""
    return 2 * alpha + 4


class DofLayout:
    """Global indexing of flux and pressure unknowns.

    Velocity dofs: per-cell interior blocks (component-major: all x-component
    basis functions, then all y-component), followed by one trace block per
    interior edge.  Boundary-edge traces are zero (v_b . n_e = 0 is the
    essential condition) and not unknowns: their `trace_offsets` are -1, and
    trace dof d is multiplier d - n_interior of the hybridized solve.
    Pressure dofs are indexed separately from zero.
    """

    def __init__(self, mesh: PolygonalMesh, alpha: int, beta: int, sigma: int):
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
        inner = mesh.edge_cells[:, 1] >= 0
        offsets = self.n_interior + self.trace_dim * (np.cumsum(inner) - 1)
        self.trace_offsets = np.where(inner, offsets, -1)
        self.n_velocity = self.n_interior + self.trace_dim * int(inner.sum())
        self.pressure_offsets = self.dim_sigma * np.arange(nc, dtype=np.int64)
        self.n_pressure = self.dim_sigma * nc

    @property
    def n_dofs(self) -> int:
        return self.n_velocity + self.n_pressure

    def pressure_dofs(self, cells) -> np.ndarray:
        """Global pressure indices of cell `cells`, or one row per cell of an array."""
        return self.pressure_offsets[cells][..., None] + np.arange(self.dim_sigma)


class CellGroup:
    """Cells of one mesh group's kind with their stacked basis, rules and mass,
    built once per level.

    Arrays carry the group axis first; `mesh.cell_arrays` refuses cells of
    different kinds.  `slots` lists each cell's interior edges in local
    order, the same number for every cell, and `dofs` each cell's `n_loc`
    global flux dofs: the interior flux, then each slot's trace.  `basis` is
    the cells' P_alpha basis in the centroids and axes the mesh stores; the
    P_sigma pressure basis is its leading `dim_sigma` functions.

    Every rule and the basis values on it are built on first use and dropped
    by `release`.  `edge_quad` holds the edge rules of exactness
    `edge_order`, at least 2 alpha (along each edge's stored owner
    orientation, so t runs backwards on a cell's non-owned edges), and `Ve`
    the basis values on them; `mass`, the Gram matrices summed on them, is
    kept.  `proj_rule` is the `projection_order` rule for sources and exact
    solutions, fanned from the stored centroids, and `proj_values` the basis
    values on it.
    """

    def __init__(self, mesh: PolygonalMesh, ids, layout: DofLayout,
                 edge_order: int | None = None):
        self.mesh = mesh
        self.layout = layout
        self.ids = np.asarray(ids, dtype=np.int64)
        self.edge_order = (default_order(layout.alpha, layout.beta) if edge_order is None
                           else edge_order)
        loops, self.edges, self.signs = mesh.cell_arrays(self.ids)
        self.vertices = mesh.vertices[loops]
        self.boundary = mesh.edge_cells[self.edges, 1] < 0
        self.center = mesh.cell_centroids[self.ids]
        self.basis = cell_basis(self.vertices, layout.alpha, self.center, mesh.cell_axes[self.ids])
        self.edge_basis = EdgeBasis(layout.beta)
        self.n_int = 2 * layout.dim_alpha
        self.slots = np.nonzero(~self.boundary)[1].reshape(self.ids.size, -1)
        off = layout.trace_offsets[np.take_along_axis(self.edges, self.slots, axis=1)][..., None]
        traces = off + np.arange(layout.trace_dim)
        inner = layout.interior_offsets[self.ids][:, None] + np.arange(self.n_int)
        self.dofs = np.concatenate([inner, traces.reshape(self.ids.size, -1)], axis=1)
        self.n_loc = self.dofs.shape[1]

    @cached_property
    def proj_rule(self):
        return polygon_rule(self.vertices, projection_order(self.layout.alpha), self.center)

    @cached_property
    def proj_values(self) -> np.ndarray:
        """Basis values on the projection rule's points, (G, q, dim P_alpha)."""
        return self.basis.eval(self.proj_rule.points[..., 0], self.proj_rule.points[..., 1])

    @cached_property
    def edge_quad(self):
        """Points (G, m, q, 2), weights (G, m, q) and parameters t (q,) on each cell's edges."""
        ends = self.mesh.vertices[self.mesh.edges[self.edges]]
        return edge_rule(ends[..., 0, :], ends[..., 1, :], self.edge_order)

    @cached_property
    def Ve(self) -> np.ndarray:
        """Basis values on the edge points, (G, m, q, dim P_alpha)."""
        pts = self.edge_quad[0]
        flat = pts.reshape(pts.shape[0], -1, 2)
        return self.basis.eval(flat[..., 0], flat[..., 1]).reshape(pts.shape[:3] + (-1,))

    @cached_property
    def mass(self) -> np.ndarray:
        """Gram matrices of `basis`; the leading dim_sigma block is the pressure's.

        phi_i phi_j is homogeneous of degree d_i + d_j in x - c_K, so by the
        divergence theorem and Euler's identity its integral over K is
        sum_e ((v_e - c_K) . n_K,e) int_e phi_i phi_j ds / (d_i + d_j + 2),
        v_e any point of e (Chin, Lasserre & Sukumar, Comput. Mech. 56, 2015).
        """
        _, w, _ = self.edge_quad
        v_e = self.mesh.vertices[self.mesh.edges[self.edges, 0]] - self.center[:, None, :]
        reach = self.signs * np.einsum("gkc,gkc->gk", v_e, self.mesh.edge_normals[self.edges])
        R = self.Ve.reshape(w.shape[0], -1, self.Ve.shape[-1])
        S = np.swapaxes(R, 1, 2) @ ((reach[..., None] * w).reshape(w.shape[0], -1, 1) * R)
        d = self.basis.exponents.sum(axis=1)
        return S / (d[:, None] + d[None, :] + 2)

    def release(self) -> None:
        """Drop every rule the group has built and the basis values on them; keep `mass`."""
        for name in ("edge_quad", "Ve", "proj_rule", "proj_values"):
            self.__dict__.pop(name, None)

    def edge_rows(self, a: np.ndarray, boundary: bool) -> np.ndarray:
        """The rows (G, k, ...) of an edge array (G, m, ...) on each cell's k boundary edges, or
        on its k slots if not `boundary`; `a` itself, not a copy, when they are all m edges."""
        mask = self.boundary if boundary else ~self.boundary
        k = int(mask[0].sum())
        return a if k == a.shape[1] else a[mask].reshape((self.ids.size, k) + a.shape[2:])

    def curve_normals(self) -> np.ndarray:
        """The analytic-curve normal pulled back to the boundary edges' points, (G, nb, q, 2)."""
        edges = self.edge_rows(self.edges, True)
        curves = self.mesh.boundary_segments
        k = curves.rows(edges)
        if np.any(k < 0):
            raise ConfigurationError(
                f"edge {edges.flat[np.argmin(k)]}: curved stabilization requires its curve")
        # the stack as stored, then this group's rows: no copy of the curves
        xhat = self.mesh.edge_lengths[curves.edges][:, None] * self.edge_quad[2]
        return segment_geometry(curves, xhat)[2][k]


def level_cells(mesh: PolygonalMesh, layout: DofLayout, edge_order: int | None = None) -> list:
    """The level's cell groups, one per mesh group, with edge rules of exactness `edge_order`."""
    return [CellGroup(mesh, group.ids, layout, edge_order) for group in mesh.groups]


def local_mass(cells: CellGroup) -> np.ndarray:
    """Block-diagonal two-component L2 mass matrices on the interior dofs."""
    return np.kron(np.eye(2), cells.mass)


def _divergence_pairings(cells: CellGroup, degree: int) -> np.ndarray:
    """(div_w v, q)_K of each local dof v and leading P_degree function q, (G, dim, n_loc)."""
    dim = poly_dim(degree)
    D = cells.basis.derivatives()[..., :dim, :]   # grad q in the P_alpha basis
    _, w, t = cells.edge_quad
    g = np.arange(cells.ids.size)[:, None]
    # -(v_0, grad q)_K, then <v_b n_e . n_K, q>_e with n_e . n_K = +-1 on each slot's edge
    traces = np.einsum("gkqi,gkq,qr->gikr", cells.Ve[g, cells.slots, :, :dim],
                       (cells.signs[..., None] * w)[g, cells.slots], cells.edge_basis.eval(t))
    return np.concatenate([-D[:, 0] @ cells.mass, -D[:, 1] @ cells.mass,
                           traces.reshape(traces.shape[:2] + (-1,))], axis=2)


def local_stabilization(cells: CellGroup, rho: float = 1.0) -> tuple:
    """Quadratic forms rho/h_K sum_e int_e ((u_0-u_b).m)((v_0-v_b).m) ds in both normal modes.

    Returns the straight-mode form on the flux dofs (m the cell outward
    normal) and, on a boundary group, the curved-mode form minus it on the
    interior flux (G, n_int, n_int), None on an interior group: the curved
    mode puts the curve normal on the boundary edges, which hold no trace.
    """
    _, w, t = cells.edge_quad
    G, s, q, ni = cells.ids.size, cells.slots.shape[1], t.size, cells.n_int
    g, slots, td = np.arange(G)[:, None], cells.slots, cells.layout.trace_dim
    normal = (cells.signs[..., None] * cells.mesh.edge_normals[cells.edges])[:, :, None]

    def gram(V, m_vec, w, *columns):   # F^T w F, F the rows [v_0 . m, columns] on the points
        F = np.concatenate([V * m_vec[..., 0:1], V * m_vec[..., 1:2], *columns], axis=-1)
        F = F.reshape(G, w[0].size, F.shape[-1])
        return np.swapaxes(F, 1, 2) @ (w.reshape(G, w[0].size, 1) * F)

    traces = np.zeros((G, s, q, s, td))   # a slot's edge is interior: n_e . m is its sign
    own = -cells.edge_basis.eval(t) * cells.signs[g, slots][..., None, None]   # each slot's block
    traces[g, np.arange(s), :, np.arange(s)] = own                            # in its columns
    S = gram(cells.edge_rows(cells.Ve, False), cells.edge_rows(normal, False),
             cells.edge_rows(w, False), traces.reshape(G, s, q, s * td))
    scale = (rho / cells.mesh.cell_diameters[cells.ids])[:, None, None]
    if not cells.boundary.any():
        return scale * S, None
    Vb, wb = cells.edge_rows(cells.Ve, True), cells.edge_rows(w, True)
    straight = gram(Vb, cells.edge_rows(normal, True), wb)
    S[:, :ni, :ni] += straight
    return scale * S, scale * (gram(Vb, cells.curve_normals(), wb) - straight)


def local_pressure_coupling(cells: CellGroup) -> np.ndarray:
    """Rows of b_h on the cell: entries -(div_w v, q)_K for q in the P_sigma basis."""
    return -_divergence_pairings(cells, cells.layout.sigma)


def local_boundary_correction(cells: CellGroup) -> np.ndarray:
    """Pairings <phi.n - mean_e(phi.n), q>_e on the boundary edges, (G, nb, dim P_sigma, n_int).

    Rows run over the cell's pressure basis, columns over its interior dofs.
    """
    w, Ve = cells.edge_rows(cells.edge_quad[1], True), cells.edge_rows(cells.Ve, True)
    n = cells.edge_rows(cells.mesh.edge_normals[cells.edges], True)[:, :, None, None, :]
    F = np.concatenate([Ve * n[..., 0], Ve * n[..., 1]], axis=-1)   # phi . n
    mean = np.einsum("gkq,gkqi->gki", w, F) / w.sum(axis=-1)[..., None]
    return np.einsum("gkqs,gkq,gkqi->gksi", Ve[..., :cells.layout.dim_sigma], w,
                     F - mean[:, :, None, :])


def _to_csr(triplets, shape) -> sp.csr_matrix:
    """CSR matrix from stacked dense blocks (G, r, c) with global rows (G, r) and columns (G, c).

    `triplets` yields (rows, cols, blocks).
    """
    r, c, v = [], [], []
    for rows, cols, blocks in triplets:
        R, C = np.broadcast_arrays(rows[:, :, None], cols[:, None, :])
        r.append(R.ravel())
        c.append(C.ravel())
        v.append(blocks.ravel())
    return sp.coo_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                         shape=shape).tocsr()


def _scatter(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Length-n sums of `values` by index `idx`; entries at -1 are skipped."""
    return np.bincount(idx.ravel() + 1, values.ravel(), minlength=n + 1)[1:]


@dataclass
class CellBlocks:
    """One cell group's saddle blocks on its cells' flux dofs.

    The flux dofs are the group's (`CellGroup.dofs`): each cell's interior
    flux, then its slots' traces.  `local` holds each cell's saddle block
    [[A_K, B_K^T], [P_K, 0]] on these flux dofs and its pressures, A_K being
    the flux-norm block in the scheme's normal mode and P_K the scheme's
    pressure rows (B_K minus the boundary corrections in the modified
    scheme).  On a boundary group `delta` is the other normal mode's
    flux-norm block minus A_K on the interior flux, the leading n_int dofs:
    the modes differ only on boundary edges, which hold no trace.  On an
    interior group, where the modes agree, it is None.
    """

    ids: np.ndarray            # (G,) cells
    vdofs: np.ndarray          # (G, K) global flux dofs
    pdofs: np.ndarray          # (G, ns) global pressure dofs
    local: np.ndarray          # (G, K + ns, K + ns)
    delta: np.ndarray | None   # (G, n_int, n_int) on a boundary group, else None

    @property
    def A(self) -> np.ndarray:
        k = self.vdofs.shape[1]
        return self.local[:, :k, :k]

    @property
    def B(self) -> np.ndarray:
        k = self.vdofs.shape[1]
        return np.swapaxes(self.local[:, :k, k:], 1, 2)

    @property
    def P(self) -> np.ndarray:
        k = self.vdofs.shape[1]
        return self.local[:, k:, :k]


def _cell_blocks(group: CellGroup, scheme: str, mode: str, rho: float) -> CellBlocks:
    """The group's `CellBlocks`: its kernels' blocks, no linear algebra."""
    layout, ni, ns, k = group.layout, group.n_int, group.layout.dim_sigma, group.n_loc
    pdofs = layout.pressure_dofs(group.ids)
    boundary = group.boundary.any()

    A, delta = local_stabilization(group, rho)
    if boundary and mode == "curved":
        A[:, :ni, :ni] += delta
        delta = -delta
    A[:, :ni, :ni] += local_mass(group)
    B = local_pressure_coupling(group)

    local = np.zeros((group.ids.size, k + ns, k + ns))
    local[:, :k, :k] = A
    local[:, :k, k:] = np.swapaxes(B, 1, 2)
    local[:, k:, :k] = B
    if scheme == "modified" and boundary:
        local[:, k:, :ni] -= local_boundary_correction(group).sum(axis=1)
    return CellBlocks(ids=group.ids, vdofs=group.dofs, pdofs=pdofs, local=local, delta=delta)


@dataclass
class SaddleSystem:
    """Assembled saddle-point system for one scheme on one mesh, held as cell blocks.

    The flux equation always couples pressures through B^T (the plain weak
    divergence); the mass-conservation rows (`pressure_rows`) are B for the
    original scheme and B minus the boundary corrections for the
    boundary-corrected one, making the operator non-symmetric exactly when a
    correction row is nonzero.  A is the flux-norm matrix in the scheme's
    normal mode; the other mode's differs by the boundary groups' `delta`
    blocks on the interior flux.  flux_mass holds the diagonal blocks of the
    L2 mass matrix of the interior flux; their leading dim P_sigma blocks are
    the pressure's.

    `blocks` holds each cell group's `CellBlocks`, the system's one
    representation: products, the error norms and the solve are computed
    from them cell by cell.  A, B and `pressure_rows` (on the pattern of B)
    are scattered from the blocks on request only.
    """

    layout: DofLayout
    scheme: str                  # "original" | "modified"
    normal_mode: str             # "straight" | "curved"
    blocks: list
    flux_mass: np.ndarray        # (cells, dim P_alpha, dim P_alpha), per flux component

    @property
    def pressure_mean(self) -> np.ndarray:
        """Entries (q_i, 1)_{Omega_h}, cell-major: each cell's mass row of phi_0 = 1."""
        return self.flux_mass[:, 0, :self.layout.dim_sigma].ravel()

    @cached_property
    def A(self) -> sp.csr_matrix:
        nv = self.layout.n_velocity
        return _to_csr(((b.vdofs, b.vdofs, b.A) for b in self.blocks), (nv, nv))

    @cached_property
    def B(self) -> sp.csr_matrix:
        shape = (self.layout.n_pressure, self.layout.n_velocity)
        return _to_csr(((b.pdofs, b.vdofs, b.B) for b in self.blocks), shape)

    @cached_property
    def pressure_rows(self) -> sp.csr_matrix:
        """The mass-conservation rows: B, or the cells' P_K scattered on B's pattern."""
        if self.scheme != "modified":
            return self.B
        shape = (self.layout.n_pressure, self.layout.n_velocity)
        return _to_csr(((b.pdofs, b.vdofs, b.P) for b in self.blocks), shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """[[A, B^T], [pressure_rows, 0]] @ x, cell by cell."""
        nv, n = self.layout.n_velocity, self.layout.n_dofs
        out = np.zeros(n)
        for b in self.blocks:
            idx = np.concatenate([b.vdofs, nv + b.pdofs], axis=1)
            out += _scatter(idx, b.local @ x[idx][..., None], n)
        return out


def assemble_vh_matrix(mesh: PolygonalMesh, layout: DofLayout, mode: str = "straight",
                       rho: float = 1.0) -> sp.csr_matrix:
    """Mass + stabilization on the flux space (the a_h / a_{h,1} block): the A
    of the scheme whose normal mode is `mode` (straight: original, curved: modified)."""
    scheme = {"straight": "original", "curved": "modified"}.get(mode)
    if scheme is None:
        raise ValueError(f"unknown normal mode '{mode}'")
    return assemble_system(mesh, layout, scheme=scheme, rho=rho).A


def assemble_system(mesh: PolygonalMesh, degrees, scheme: str = "original",
                    rho: float = 1.0, cells: list | None = None) -> SaddleSystem:
    """Assemble the saddle-point system for one scheme as cell blocks.

    degrees is (alpha, beta, sigma) or an existing DofLayout; `cells` is the
    level's `level_cells` list, built here when not given.  The original
    scheme stabilizes with straight normals and keeps the symmetric block
    structure; the modified scheme stabilizes with curved normals and
    subtracts the boundary-correction pairings from the mass-conservation
    rows only.  One stabilization pass per group yields both normal modes;
    the other mode is kept as the boundary groups' interior-flux `delta`
    blocks.  Each group's blocks are built on its cells' flux dofs; nothing
    is inverted or factorized here (see `solver.solve_saddle`).
    """
    if scheme not in ("original", "modified"):
        raise ValueError(f"unknown scheme '{scheme}'")
    layout = degrees if isinstance(degrees, DofLayout) else DofLayout(mesh, *degrees)
    if rho <= 0.0:
        raise ValueError("stabilization parameter rho must be positive")
    mode = "curved" if scheme == "modified" else "straight"
    if cells is None:
        cells = level_cells(mesh, layout)

    blocks = []
    flux_mass = np.empty((mesh.n_cells, layout.dim_alpha, layout.dim_alpha))
    for group in cells:
        blocks.append(_cell_blocks(group, scheme, mode, rho))
        flux_mass[group.ids] = group.mass
        group.release()
    return SaddleSystem(layout=layout, scheme=scheme, normal_mode=mode, blocks=blocks,
                        flux_mass=flux_mass)


def project_level(mesh: PolygonalMesh, layout: DofLayout, cells: list | None = None,
                  g=None, u=None, p=None) -> tuple:
    """The right-hand side of source g and the projections of an exact flux u and pressure p.

    Returns (rhs, w, pex), None in place of what was not asked for.  One
    pass over the level's cell groups (`cells`, the `level_cells` list,
    built here when not given): each group's projection rule and the basis
    values on it serve the source moments and both cell projections, and
    the group is released before the next one starts.

    The source is replaced by its mean-free part on the computational
    domain, which makes the right-hand side orthogonal to the constant
    pressure direction (the kernel of the transposed operator); its flux
    block is zero and its pressure entries are -(g, q)_{Omega_h}.  Moments
    all within 64 eps of the largest sum of |w g q| behind them are
    rounding: they are zeroed, so the solve returns zero.

    Interior flux coefficients are cellwise L2 projections of each component
    of u and pressures cellwise L2 projections of p; interior-edge traces
    are L2 projections of u . n_e, all in one call; boundary-edge traces are
    zero by definition of the constrained flux space.
    """
    if cells is None:
        cells = level_cells(mesh, layout)
    ns = layout.dim_sigma
    moments = np.zeros(layout.n_pressure)
    wconst = np.zeros(layout.n_pressure)
    total = area = scale = 0.0
    w = None if u is None else np.zeros(layout.n_velocity)
    pex = None if p is None else np.zeros(layout.n_pressure)
    for group in cells:
        rule, values = group.proj_rule, group.proj_values
        pidx = layout.pressure_dofs(group.ids)
        if g is not None:
            WVs = rule.weights[..., None] * values[..., :ns]
            gv = np.asarray(g(rule.points[..., 0], rule.points[..., 1]), dtype=float)
            moments[pidx] = np.einsum("gqi,gq->gi", WVs, gv)
            wconst[pidx] = WVs.sum(axis=1)
            np.abs(WVs, out=WVs)   # in place: a second copy would set the level's peak
            scale = max(scale, float(np.einsum("gqi,gq->gi", WVs, np.abs(gv)).max()))
            total += float(np.sum(rule.weights * gv))
            area += float(rule.weights.sum())
            del WVs, gv
        if u is not None:
            coef = project_cell(group.vertices, u, layout.alpha, rule=rule, values=values,
                                mass=group.mass)
            w[group.dofs[:, :group.n_int]] = np.swapaxes(coef, 1, 2).reshape(group.ids.size, -1)
        if p is not None:
            pex[pidx] = project_cell(group.vertices, p, layout.sigma, rule=rule, values=values,
                                     mass=group.mass)
        del rule, values
        group.release()

    rhs = None
    if g is not None:
        rhs = np.zeros(layout.n_dofs)
        moments -= (total / area) * wconst
        if np.abs(moments).max() > 64 * np.finfo(float).eps * scale:
            rhs[layout.n_velocity:] = -moments
    if u is not None:
        inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
        n_e = mesh.edge_normals[inner]
        ends = mesh.vertices[mesh.edges[inner]]
        w[layout.trace_offsets[inner][:, None] + np.arange(layout.trace_dim)] = project_edge(
            ends[:, 0], ends[:, 1], lambda x, y: np.einsum("eqc,ec->eq", u(x, y), n_e),
            layout.beta, projection_order(layout.alpha))
    return rhs, w, pex


def assemble_rhs(mesh: PolygonalMesh, layout: DofLayout, g,
                 cells: list | None = None) -> np.ndarray:
    """Right-hand side of source g: zero flux block, pressure entries -(g - mean g, q)_{Omega_h}.

    `project_level` with the source alone (see there).
    """
    return project_level(mesh, layout, cells, g=g)[0]
