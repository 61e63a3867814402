"""Direct solution of the assembled saddle-point systems by hybridization.

Each cell keeps its own copy of its edge traces, and the two copies on an
edge shared by two cells are tied by a P_beta multiplier on the edge.
Boundary traces are zero and are not unknowns, so every trace dof has a
multiplier: trace dof d is multiplier d - n_interior.  A cell's saddle
block on its own interior flux, traces and pressure is nonsingular, so
every cell unknown is eliminated with its block's inverse,
and the solve factorizes only the multiplier system
H = sum_K E_K local_K^{-1} E_K^T (`SaddleSystem.condensed`) by sparse LU.  H
couples only edges of one cell, so its pattern is symmetric; it is symmetric
for the original scheme and nearly so for the boundary-corrected one.  The
cells' unknowns are recovered from the multipliers with the same inverses,
and every residual is formed as a cellwise product.  No global saddle matrix
is built.

The pressure space is assembled without the mean-zero constraint, so the
operator has a one-dimensional kernel spanned by the constant pressure; H
inherits it, and it is pinned by dropping multiplier 0.  One step of
iterative refinement against the full operator follows every solve, and the
pressure mean is then taken out on each cell's constant coefficient.  H is
factorized once, pivot-free; a failed or inaccurate factorization raises at
once, with no retry.  A mesh of one cell has no trace, so no multiplier,
and its block is singular (no trace pairs with the constant pressure):
`SaddleSystem.inverses` raises before anything is factorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, SingularSystemError

RESIDUAL_TOL = 1e-9    # relative residual every solve must reach


class SolverFailure(RuntimeError):
    """Factorization succeeded but the residual is above tolerance."""


@dataclass
class Solution:
    """Discrete flux and mean-zero pressure coefficients with solver diagnostics."""

    u: np.ndarray    # (n_velocity,) interior flux, then edge traces
    p: np.ndarray
    residual: float
    diagnostics: dict = field(default_factory=dict)


def _factorize(matrix):
    """Sparse LU of H (CSC), pivot-free in a minimum-degree ordering of H + H^T."""
    # H's pattern is symmetric, and H is positive definite (its symmetric part
    # in the boundary-corrected scheme), so LU without pivoting exists and its
    # fill depends on the pattern alone.  Measured on a 2-core machine, the
    # ring j=1 n=384 H (93,695 unknowns) factors in 0.33 s with 7.6M entries;
    # a column ordering with partial pivoting gives 1.8-2.6x that fill on H.
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def solve_saddle(system: SaddleSystem, rhs: np.ndarray) -> Solution:
    """Solve the saddle system, returning flux and mean-zero pressure.

    H is factorized once, without pivoting, and one refinement step against
    the full operator, applied cell by cell, follows.  A factorization that
    fails or gives non-finite values raises `SingularSystemError` (or
    `MemoryError` when SuperLU cannot allocate it), and a refined residual
    above `RESIDUAL_TOL` raises `SolverFailure`.  Identical inputs give
    bitwise-identical solutions.
    """
    lay, b = system.layout, rhs
    if b.shape != (lay.n_dofs,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({lay.n_dofs},)")
    H = system.condensed
    try:
        lu = _factorize(H)
    except RuntimeError as exc:
        if "MALLOC" in str(exc):    # SuperLU's "SUPERLU_MALLOC fails for ..."
            raise MemoryError(f"sparse factorization ran out of memory ({exc})") from exc
        raise SingularSystemError(
            f"sparse factorization failed ({exc}); the system is singular beyond "
            "the constant-pressure kernel (check the degree condition)") from exc

    def solve(f):
        g, solves = system.condense(f)
        return system.expand(solves, lu.solve(g))

    nv = lay.n_velocity
    constants = nv + lay.pressure_offsets    # each cell's constant pressure
    area = system.pressure_mean[lay.pressure_offsets].sum()
    bnorm = float(np.linalg.norm(b))
    x = solve(b)
    r = b - system.matvec(x)
    unrefined = float(np.linalg.norm(r))
    x += solve(r)
    x[constants] -= (system.pressure_mean @ x[nv:]) / area
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    rnorm = float(np.linalg.norm(system.matvec(x) - b))
    residual = rnorm / bnorm if bnorm > 0.0 else rnorm
    if residual > RESIDUAL_TOL:
        raise SolverFailure(
            f"relative residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e} "
            f"(scheme={system.scheme}, dofs={lay.n_dofs})")
    diagnostics = {
        "n_velocity": lay.n_velocity,
        "n_pressure": lay.n_pressure,
        "n_condensed": H.shape[0],
        "condensed_nnz": H.nnz,
        # SuperLU's stored count; reading lu.L or lu.U would copy the factors
        "lu_fill": lu.nnz,
        "rhs_norm": bnorm,
        "absolute_residual": rnorm,
        "residual_unrefined": unrefined / bnorm if bnorm > 0.0 else unrefined,
    }
    return Solution(u=x[:nv].copy(), p=x[nv:].copy(),
                    residual=residual, diagnostics=diagnostics)
