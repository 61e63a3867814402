"""The study benchmark's workloads and the properties every run checks.

Each check is a property the method must have on the workload's levels: the
solver residual, the mesh validator, finite positive errors, the unknown count
derived here from the mesh, the boundary split law, and the convergence-rate
property that the paper and the acceptance suite state for the study.  None
compares against numbers stored from an earlier run.

The functions read only attributes of the study table (`rows`, `quality`,
`pairwise_u`, `slope_u`) and of the mesh, so this module does not import wgmixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

RESIDUAL_TOL = 1e-9


def poly_dim(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def derived_unknowns(n_cells: int, n_interior_edges: int, degree: int) -> int:
    """Unknowns of the (j, j, j-1) element: two P_j flux components and one
    P_{j-1} pressure per cell, plus a P_j normal trace per interior edge."""
    per_cell = 2 * poly_dim(degree) + poly_dim(degree - 1)
    return n_cells * per_cell + n_interior_edges * (degree + 1)


def mesh_unknowns(mesh, degree: int) -> int:
    interior = int(np.count_nonzero(np.asarray(mesh.edge_cells)[:, 1] >= 0))
    return derived_unknowns(len(mesh.cells), interior, degree)


def split_law(h: float, degree: int, rule: str) -> int:
    """Sub-chords per boundary side: ceil(h^(1/2-j)) under the plain scheme's
    law, ceil(h^((3-2j)/4)) under the boundary-corrected scheme's law."""
    expo = {"original": 0.5 - degree, "modified": (3.0 - 2.0 * degree) / 4.0}[rule]
    return max(1, math.ceil(h ** expo))


def half_order_term(table) -> list:
    """Criterion 2 at j=1: the h^(1/2) term is present.

    A least-squares fit err = a h + b h^(1/2) reproduces every level within
    5%, the b h^(1/2) term carries at least 25% of the finest-level error, and
    the table's pairwise slopes strictly decrease.
    """
    h = np.asarray([r.h for r in table.rows], dtype=float)
    e = np.asarray([r.err_u_vh for r in table.rows], dtype=float)
    A = np.column_stack([h, np.sqrt(h)])
    (a, b), *_ = np.linalg.lstsq(A, e, rcond=None)
    misfit = float(np.abs((a * h + b * np.sqrt(h)) / e - 1.0).max())
    share = float(b * math.sqrt(h[-1]) / e[-1])
    pw = list(table.pairwise_u)
    failures = []
    if misfit > 0.05:
        failures.append(f"two-term law misses a level by {misfit:.1%} (> 5%)")
    if share < 0.25:
        failures.append(f"h^(1/2) term carries {share:.1%} of the finest error (< 25%)")
    if not all(later < earlier for earlier, later in zip(pw, pw[1:])):
        failures.append(f"pairwise slopes {[round(s, 3) for s in pw]} do not strictly fall")
    return failures


def fitted_slope_in_band(table, target: float, tol: float) -> list:
    if not abs(table.slope_u - target) <= tol:
        return [f"fitted slope {table.slope_u:.3f} outside {target} +/- {tol}"]
    return []


@dataclass(frozen=True)
class Workload:
    """One convergence study on the unit disk and the rate it must show."""

    name: str
    scheme: str
    degree: int
    levels: tuple
    split_rule: str
    rate: Callable  # study table -> list of failures


WORKLOADS = {w.name: w for w in (
    Workload("disk-j1-original", "original", 1, (8, 16, 32, 64), "none",
             half_order_term),
    Workload("disk-j2-split", "original", 2, (16, 32, 64), "original",
             partial(fitted_slope_in_band, target=2.0, tol=0.25)),
    Workload("disk-j2-modified-split", "modified", 2, (16, 32, 64), "modified",
             partial(fitted_slope_in_band, target=2.0, tol=0.25)),
)}


def check_table(workload: Workload, table, expected_dofs) -> list:
    """Every property a correct study table has; returns the failures found."""
    rows = list(table.rows)
    failures = []
    if tuple(r.n for r in rows) != tuple(workload.levels):
        return [f"levels {[r.n for r in rows]} differ from {list(workload.levels)}"]
    if len(table.quality) != len(rows):
        failures.append(f"{len(table.quality)} mesh reports for {len(rows)} levels")
    for r, rep in zip(rows, table.quality):
        if not rep.passed:
            failures.append(f"n={r.n}: validate_mesh flags {rep.violations}")
    for r, dofs in zip(rows, expected_dofs):
        if not r.residual <= RESIDUAL_TOL:
            failures.append(f"n={r.n}: residual {r.residual:.3e} above {RESIDUAL_TOL:g}")
        errs = (r.err_u_vh, r.err_u_vh1, r.err_p, r.err_u_l2)
        if not all(math.isfinite(e) and e > 0.0 for e in errs):
            failures.append(f"n={r.n}: errors {errs} not all finite and positive")
        if r.dofs != dofs:
            failures.append(f"n={r.n}: {r.dofs} unknowns, the mesh gives {dofs}")
        want = (1 if workload.split_rule == "none"
                else split_law(r.h, workload.degree, workload.split_rule))
        if r.split != want:
            failures.append(f"n={r.n}: split {r.split}, the law gives {want}")
    if all(math.isfinite(r.err_u_vh) and r.err_u_vh > 0.0 for r in rows):
        failures.extend(workload.rate(table))
    return failures
