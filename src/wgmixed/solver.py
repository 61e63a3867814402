"""Direct solution of the assembled saddle-point systems by hybridization.

Each cell keeps its own copy of its edge traces, and the two copies on an
edge shared by two cells are tied by a P_beta multiplier on the edge (+1 on
the copy of the edge's owner `mesh.edge_cells[e, 0]`, -1 on the other).
Boundary traces are zero and are not unknowns, so trace dof d is multiplier
d - n_interior.  A cell's saddle block on its own interior flux, traces and
pressure is nonsingular, so every cell unknown is eliminated with its
block's inverse, and the solve factorizes only the multiplier system
H = sum_K E_K local_K^{-1} E_K^T (E_K the signed map of the cell's traces to
its multipliers) by sparse LU.  H couples only edges of one cell, so its
pattern is symmetric; it is symmetric for the original scheme and nearly so
for the boundary-corrected one.  The cells' unknowns are recovered from the
multipliers with the same inverses, and every residual is formed as a
cellwise product.  The inverses, the multiplier maps and H (`_eliminate`)
live only inside `solve_saddle`, and no global saddle matrix is built.

The pressure space is assembled without the mean-zero constraint, so the
operator has a one-dimensional kernel spanned by the constant pressure; H
inherits it, and it is pinned by dropping multiplier 0.  One step of
iterative refinement against the full operator follows every solve, and the
pressure mean is then taken out on each cell's constant coefficient.  H is
factorized once, pivot-free; a failed or inaccurate factorization raises at
once, with no retry.  A mesh of one cell has no trace, so no multiplier,
and its block is singular (no trace pairs with the constant pressure): its
inversion raises before anything is factorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, _scatter

RESIDUAL_TOL = 1e-9    # relative residual every solve must reach


class SingularSystemError(RuntimeError):
    """System singular beyond the expected rank-1 pressure kernel."""


class SolverFailure(RuntimeError):
    """Factorization succeeded but the residual is above tolerance."""


@dataclass
class Solution:
    """Discrete flux and mean-zero pressure coefficients with solver diagnostics."""

    u: np.ndarray    # (n_velocity,) interior flux, then edge traces
    p: np.ndarray
    residual: float
    diagnostics: dict = field(default_factory=dict)


class _Eliminated(NamedTuple):
    """One cell group's blocks inverted, and the maps of its unknowns to the multipliers.

    The trace columns of `inverse` times `sides` are local_K^{-1} E_K^T.
    """

    inverse: np.ndarray   # (G, K + ns, K + ns) local_K^{-1}
    hdofs: np.ndarray     # (G, K - n_int) H rows of the trace dofs, -1 = pinned multiplier 0
    sides: np.ndarray     # (G, K - n_int) +1 on the edge owner's copy, -1 on the other one
    owned: np.ndarray     # (G, K + ns) global dofs, -1 on the non-owner copy of a trace


def _eliminate(system: SaddleSystem) -> tuple[list, sp.csc_matrix]:
    """Each group's `_Eliminated`, and H without multiplier 0's row and column (CSC).

    H's only kernel, the constant pressure's, is pinned so.  A singular cell
    block raises `SingularSystemError`.
    """
    lay = system.layout
    ni = 2 * lay.dim_alpha
    owner = lay.mesh.edge_cells[lay.trace_offsets >= 0, 0]   # of each edge's trace block
    groups, r, c, v = [], [], [], []
    for b in system.blocks:
        try:
            inverse = np.linalg.inv(b.local)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"a cell's saddle block is singular ({exc})") from exc
        traces = slice(ni, b.vdofs.shape[1])
        multiplier = b.vdofs[:, traces] - lay.n_interior
        sides = np.where(owner[multiplier // lay.trace_dim] == b.ids[:, None], 1.0, -1.0)
        owned = np.concatenate([b.vdofs, lay.n_velocity + b.pdofs], axis=1)
        owned[:, traces][sides < 0] = -1
        hdofs = multiplier - 1
        groups.append(_Eliminated(inverse, hdofs, sides, owned))
        R, C = np.broadcast_arrays(hdofs[:, :, None], hdofs[:, None, :])
        keep = (R >= 0) & (C >= 0)
        r.append(R[keep])
        c.append(C[keep])
        v.append((sides[:, :, None] * inverse[:, traces, traces] * sides[:, None, :])[keep])
    n = lay.n_velocity - lay.n_interior - 1
    H = sp.coo_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))), shape=(n, n))
    return groups, H.tocsc()


def _gather(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """v[idx], reading 0 where idx is -1 (the pinned multiplier, or a non-owner copy)."""
    return np.concatenate([[0.0], v])[idx + 1]


def _norm(v: np.ndarray) -> float:
    """2-norm of v, inf if an entry is not finite; v is scaled by a power of two,
    so no square overflows and a finite norm keeps the unscaled one's digits."""
    top = float(np.abs(v).max(initial=0.0))
    if not np.isfinite(top):
        return np.inf
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)   # 2^1024 would overflow
    return scale * float(np.linalg.norm(v / scale))


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
    the full operator, applied cell by cell, follows.  A singular cell block,
    or a factorization that fails or gives non-finite values, raises
    `SingularSystemError` (or `MemoryError` when SuperLU cannot allocate it),
    and a refined residual above `RESIDUAL_TOL` (inf when it is not finite)
    raises `SolverFailure`.  Identical inputs give bitwise-identical
    solutions.
    """
    lay, b = system.layout, rhs
    if b.shape != (lay.n_dofs,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({lay.n_dofs},)")
    groups, H = _eliminate(system)
    try:
        lu = _factorize(H)
    except RuntimeError as exc:
        if "MALLOC" in str(exc):    # SuperLU's "SUPERLU_MALLOC fails for ..."
            raise MemoryError(f"sparse factorization ran out of memory ({exc})") from exc
        raise SingularSystemError(
            f"sparse factorization failed ({exc}); the system is singular beyond "
            "the constant-pressure kernel (check the degree condition)") from exc

    ni = 2 * lay.dim_alpha

    def solve(f):
        # H's right-hand side sum_K E_K local_K^{-1} f_K, f_K being f on the
        # cell's own dofs (a shared trace's entry on its owner's copy only)
        g, solves = np.zeros(H.shape[0]), []
        for e in groups:
            z = (e.inverse @ _gather(f, e.owned)[..., None])[..., 0]
            g += _scatter(e.hdofs, e.sides * z[:, ni:ni + e.sides.shape[1]], g.size)
            solves.append(z)
        y = lu.solve(g)
        x = np.zeros(lay.n_dofs)
        for e, z in zip(groups, solves):
            ey = e.sides * _gather(y, e.hdofs)     # E_K^T y on the cell's traces
            x += _scatter(e.owned, z - (e.inverse[:, :, ni:ni + e.sides.shape[1]]
                                        @ ey[..., None])[..., 0], x.size)
        return x

    nv = lay.n_velocity
    constants = nv + lay.pressure_offsets    # each cell's constant pressure
    area = system.pressure_mean[lay.pressure_offsets].sum()
    bnorm = _norm(b)
    x = solve(b)
    r = b - system.matvec(x)
    unrefined = _norm(r)
    x += solve(r)
    x[constants] -= (system.pressure_mean @ x[nv:]) / area
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    rnorm = _norm(system.matvec(x) - b)
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
