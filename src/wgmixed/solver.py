"""Direct solution of the assembled saddle-point systems by static condensation.

Each cell's interior flux couples only to its own edge traces and pressure,
and the interior block of A (mass plus stabilization) is symmetric positive
definite and diagonal by cells.  `assemble_system` eliminates the interior
fluxes cell group by cell group and scatters the Schur complement on the
trace and pressure unknowns into `SaddleSystem.condensed`; the solve
factorizes only that matrix by sparse LU, condenses the right-hand side and
recovers the interiors with the groups' blocks, and forms every residual as a
cellwise product.  No global saddle matrix is built.

The pressure space is assembled without the mean-zero constraint, so the
operator has a one-dimensional kernel spanned by the constant pressure.  The
condensed system is bordered with a scalar Lagrange multiplier enforcing
(p, 1)_{Omega_h} = 0: the pressure-mean functional is not orthogonal to the
kernel on either side, so the bordered system is nonsingular and returns the
mean-zero pressure directly.  One step of iterative refinement against the
full operator follows every solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, SingularSystemError, WgFunction


class SolverFailure(RuntimeError):
    """Factorization succeeded but the residual is above tolerance."""


@dataclass
class Solution:
    """Discrete flux and mean-zero pressure with solver diagnostics."""

    u: WgFunction
    p: np.ndarray
    residual: float
    multiplier: float
    diagnostics: dict = field(default_factory=dict)


def _factorize(matrix):
    """Sparse LU of the bordered condensed matrix (CSC)."""
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

    The bordered condensed matrix is factorized by sparse LU, and one
    refinement step against the full operator, applied cell by cell,
    follows.  Identical inputs produce bitwise-identical solutions.
    """
    lay = system.layout
    b = system.rhs if rhs is None else rhs
    if b is None:
        raise ValueError("no right-hand side: pass rhs or set system.rhs")
    if b.shape != (lay.n_dofs,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({lay.n_dofs},)")
    lu = _factorize(system.condensed)
    nv = lay.n_velocity

    def bordered_solve(f: np.ndarray, f_mean: float):
        g, interiors = system.condense(f)
        ext = lu.solve(np.append(g, f_mean))
        return system.expand(interiors, ext[:-1]), float(ext[-1])

    bnorm = float(np.linalg.norm(b))
    x, lam = bordered_solve(b, 0.0)
    r = b - system.matvec(x)
    unrefined = float(np.linalg.norm(r))
    r[nv:] -= lam * system.pressure_mean
    dx, dlam = bordered_solve(r, -float(system.pressure_mean @ x[nv:]))
    x, lam = x + dx, lam + dlam
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")

    rnorm = float(np.linalg.norm(system.matvec(x) - b))
    residual = rnorm / bnorm if bnorm > 0.0 else rnorm
    diagnostics = {
        "n_velocity": lay.n_velocity,
        "n_pressure": lay.n_pressure,
        "n_condensed": lu.shape[0],
        "condensed_nnz": system.condensed.nnz,
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
