"""Direct solution of the assembled saddle-point systems by static condensation.

Each cell's interior flux couples only to its own edge traces and pressure,
and the interior block of A (mass plus stabilization) is symmetric positive
definite and diagonal by cells.  The solve inverts those per-cell blocks at
once, eliminates the interior fluxes, and factorizes by sparse LU only the
Schur complement on the trace and pressure unknowns; the interiors are then
recovered cell by cell.

The pressure space is assembled without the mean-zero constraint, so the
operator has a one-dimensional kernel spanned by the constant pressure.  The
condensed system is bordered with a scalar Lagrange multiplier enforcing
(p, 1)_{Omega_h} = 0: the pressure-mean functional is not orthogonal to the
kernel on either side, so the bordered system is nonsingular and returns the
mean-zero pressure directly.  One step of iterative refinement against the
full matrix follows every solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, WgFunction


class SolverFailure(RuntimeError):
    """Factorization succeeded but the residual is above tolerance."""


class SingularSystemError(RuntimeError):
    """System singular beyond the expected rank-1 pressure kernel."""


class InteriorCouplingError(ValueError):
    """The flux matrix couples interior dofs of two cells, so they cannot be condensed."""


@dataclass
class Solution:
    """Discrete flux and mean-zero pressure with solver diagnostics."""

    u: WgFunction
    p: np.ndarray
    residual: float
    multiplier: float
    diagnostics: dict = field(default_factory=dict)


def _interior_inverse(system: SaddleSystem) -> sp.csr_matrix:
    """Block-diagonal inverse of A's interior-flux block, one inverse per cell."""
    lay = system.layout
    ni, bs = lay.n_interior, 2 * lay.dim_alpha
    A00 = system.A[:ni, :ni].tocoo()
    A00.sum_duplicates()
    cell = A00.row // bs
    off = np.flatnonzero(cell != A00.col // bs)
    if off.size:
        r, c = int(A00.row[off[0]]), int(A00.col[off[0]])
        raise InteriorCouplingError(
            f"A couples interior flux dof {r} of cell {r // bs} with dof {c} of cell "
            f"{c // bs}; static condensation needs A's interior block diagonal by cells"
        )
    nc = lay.mesh.n_cells
    blocks = np.zeros((nc, bs, bs))
    blocks[cell, A00.row % bs, A00.col % bs] = A00.data
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"an interior flux block of A is singular ({exc})") from exc
    return sp.bsr_matrix((inv, np.arange(nc), np.arange(nc + 1)), shape=(ni, ni)).tocsr()


def _factorize(schur: sp.csr_matrix, border: np.ndarray):
    """Sparse LU of the Schur complement bordered with `border` (row and column)."""
    matrix = sp.bmat([[schur, border[:, None]], [border[None, :], None]], format="csc")
    # COLAMD with small supernodes, measured on a 2-core machine: on the ring
    # j=1 n=384 condensed system (125,185 unknowns) SuperLU's default relax and
    # panel size took 17.6-22.4 s and these 4.0-5.2 s for the same fill; on the
    # split disk j=2 n=128 one, MMD_AT_PLUS_A (symmetric ordering, upset by the
    # dense border row) took 98 s with 40x the fill against 0.21 s.
    try:
        return splu(matrix, permc_spec="COLAMD", relax=2, panel_size=4)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed ({exc}); the system is singular beyond "
            "the constant-pressure kernel (check the degree condition)"
        ) from exc


def solve_saddle(system: SaddleSystem, rhs: np.ndarray | None = None,
                 tol: float = 1e-9) -> Solution:
    """Solve the saddle system, returning flux and mean-zero pressure.

    The interior fluxes are condensed out, the bordered Schur complement is
    factorized by sparse LU, and one refinement step against the full matrix
    follows.  Identical inputs produce bitwise-identical solutions.
    """
    lay = system.layout
    b = system.rhs if rhs is None else rhs
    if b is None:
        raise ValueError("no right-hand side: pass rhs or set system.rhs")
    if b.shape != (lay.n_dofs,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({lay.n_dofs},)")
    M = system.full_matrix()
    ni = lay.n_interior
    Ainv = _interior_inverse(system)
    K0y, Ky0 = M[:ni, ni:], M[ni:, :ni]
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    lu = _factorize(M[ni:, ni:] - Ky0 @ (Ainv @ K0y), border[ni:])

    def bordered_solve(f: np.ndarray, f_mean: float):
        z = Ainv @ f[:ni]
        ext = lu.solve(np.append(f[ni:] - Ky0 @ z, f_mean))
        y = ext[:-1]
        return np.concatenate([z - Ainv @ (K0y @ y), y]), float(ext[-1])

    bnorm = float(np.linalg.norm(b))
    x, lam = bordered_solve(b, 0.0)
    r = b - M @ x
    unrefined = float(np.linalg.norm(r))
    dx, dlam = bordered_solve(r - lam * border, -float(border @ x))
    x, lam = x + dx, lam + dlam
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")

    rnorm = float(np.linalg.norm(M @ x - b))
    residual = rnorm / bnorm if bnorm > 0.0 else rnorm
    diagnostics = {
        "n_velocity": lay.n_velocity,
        "n_pressure": lay.n_pressure,
        "n_condensed": lu.shape[0],
        "matrix_nnz": M.nnz,
        "lu_fill": lu.nnz,   # SuperLU's stored count; reading lu.L or lu.U would copy the factors
        "rhs_norm": bnorm,
        "absolute_residual": rnorm,
        "residual_unrefined": unrefined / bnorm if bnorm > 0.0 else unrefined,
    }
    if residual > tol:
        raise SolverFailure(
            f"relative residual {residual:.3e} above tolerance {tol:.1e} "
            f"(scheme={system.scheme}, dofs={lay.n_dofs})"
        )
    return Solution(u=WgFunction(lay, x[:lay.n_velocity].copy()), p=x[lay.n_velocity:].copy(),
                    residual=residual, multiplier=lam, diagnostics=diagnostics)
