"""Direct solution of the assembled saddle-point systems.

The pressure space is assembled without the mean-zero constraint, so the
operator has a one-dimensional kernel spanned by the constant pressure.  The
solve appends a scalar Lagrange multiplier enforcing (p, 1)_{Omega_h} = 0:
bordering with the pressure-mean functional, which is not orthogonal to the
kernel on either side, makes the system nonsingular and returns the
mean-zero pressure directly.
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


@dataclass
class Solution:
    """Discrete flux and mean-zero pressure with solver diagnostics."""

    u: WgFunction
    p: np.ndarray
    residual: float
    multiplier: float
    diagnostics: dict = field(default_factory=dict)


def _factorize(matrix: sp.csr_matrix):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed ({exc}); the system is singular beyond "
            "the constant-pressure kernel (check the degree condition)"
        ) from exc


def solve_saddle(system: SaddleSystem, rhs: np.ndarray | None = None,
                 tol: float = 1e-9) -> Solution:
    """Solve the saddle system, returning flux and mean-zero pressure.

    The matrix is bordered with the pressure-mean functional and factorized
    by sparse LU.  Identical inputs produce bitwise-identical solutions.
    """
    lay = system.layout
    b = system.rhs if rhs is None else rhs
    if b is None:
        raise ValueError("no right-hand side: pass rhs or set system.rhs")
    if b.shape != (lay.n_dofs,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({lay.n_dofs},)")
    M = system.full_matrix()
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    K = sp.bmat([[M, border[:, None]], [border[None, :], None]], format="csc")
    lu = _factorize(K)
    ext = lu.solve(np.concatenate([b, [0.0]]))
    x, lam = ext[:-1], float(ext[-1])
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")

    bnorm = float(np.linalg.norm(b))
    rnorm = float(np.linalg.norm(M @ x - b))
    residual = rnorm / bnorm if bnorm > 0.0 else rnorm
    diagnostics = {
        "n_velocity": lay.n_velocity,
        "n_pressure": lay.n_pressure,
        "rhs_norm": bnorm,
        "absolute_residual": rnorm,
    }
    if residual > tol:
        raise SolverFailure(
            f"relative residual {residual:.3e} above tolerance {tol:.1e} "
            f"(scheme={system.scheme}, dofs={lay.n_dofs})"
        )
    return Solution(u=WgFunction(lay, x[:lay.n_velocity].copy()), p=x[lay.n_velocity:].copy(),
                    residual=residual, multiplier=lam, diagnostics=diagnostics)
