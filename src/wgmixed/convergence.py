"""Discrete errors, projected exact solutions, and convergence studies.

Errors are measured in the projected metric the method is judged by: the flux
error is the difference between the discrete solution and the projection of
the exact flux (interior L2 projections per cell, edge projections of the
normal component on interior edges, zero on boundary edges), measured in the
flux norm; the pressure error is measured cellwise in L2 against the
piecewise-polynomial projection of the exact pressure.

A level builds one mesh (its generator applies a split law to the mesh size
of its corner loops; a `none` or `fixed:<k>` study passes the count), then
works on the level's cell groups, then solves, then measures: `level_cells`
stacks the basis of each of the mesh's groups (one per vertex count and
boundary-edge count) once; the assembly tabulates it on the group's edge
rules, sums each cell's mass matrix there and releases the rules, and then
`project_level` tabulates it on the group's projection rule once, for the
right-hand side and both exact projections (flux and pressure, solved with
that mass) in one pass, and releases that rule before the next group.  No
rule is kept past its group, and the cell groups go before the solve.  The
four error norms are quadratic forms in what the assembly already returned,
read by `vh_norm`, `l2_flux_interior_error` and `l2_pressure_error` from the
level's `SaddleSystem`: the two flux norms are summed cell by cell over the
system's cell blocks in each normal mode, the L2 norms over the diagonal
blocks of the interior-flux and pressure mass matrices; none of them
assembles anything, and no global matrix is built.  `run_level` records the
seconds of each stage in `StudyRow.stages` and the solve's diagnostics
(condensed size, LU fill, residuals) in `StudyRow.diagnostics`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    DofLayout,
    SaddleSystem,
    assemble_system,
    level_cells,
    project_level,
)
from .mesh import (
    PolygonalMesh,
    boundary_split_count,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
    validate_mesh,
)
from .solutions import registry_lookup
from .solver import solve_saddle

CSV_HEADER = "n,h,s,dofs,err_u_Vh,err_u_Vh1,err_p_L2,seconds"
DOMAINS = ("square", "disk", "ring")
SCHEMES = ("original", "modified")


def fit_rate(pairs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
        raise ValueError("need at least two (h, err) pairs")
    if np.any(arr <= 0.0):
        raise ValueError("h and err values must be positive")
    return float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])


def project_exact(mesh: PolygonalMesh, u, p, layout: DofLayout,
                  cells: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flux and pressure coefficients of the projection of an exact pair.

    `project_level` with u and p alone: interior flux coefficients and
    pressures are cellwise L2 projections on each group's projection rule
    (`cells`, the level's `level_cells` list, is built here when not
    given); interior-edge traces are L2 projections of u . n_e; boundary-edge
    traces are zero by definition of the constrained flux space.
    """
    return project_level(mesh, layout, cells, u=u, p=p)[1:]


def block_norm(blocks: np.ndarray, x) -> float:
    """Quadratic norm for a block-diagonal matrix given by its (cells, b, b) blocks.

    x holds each cell's coefficients in turn: one or more length-b groups per
    cell (the two flux components, or one pressure), each paired with the
    cell's block.
    """
    xb = np.reshape(x, (blocks.shape[0], -1, blocks.shape[1]))
    return math.sqrt(max(float(np.einsum("cki,cij,ckj->", xb, blocks, xb)), 0.0))


def vh_norm(system: SaddleSystem, w: np.ndarray, mode: str = "straight") -> float:
    """Flux norm sqrt(mass + stabilization) of coefficients w in mode `mode`, cell by cell."""
    if mode not in ("straight", "curved"):
        raise ValueError(f"unknown normal mode '{mode}'")
    total = 0.0
    for b in system.blocks:
        x = w[b.vdofs]
        total += float(np.sum(x * (b.A @ x[..., None])[..., 0]))
        if mode != system.normal_mode and b.delta is not None:
            xi = x[:, :b.delta.shape[1]]   # the interior flux; the modes agree on the traces
            total += float(np.sum(xi * (b.delta @ xi[..., None])[..., 0]))
    return math.sqrt(max(total, 0.0))


def l2_flux_interior_error(system: SaddleSystem, w: np.ndarray) -> float:
    """Interior L2 norm of flux coefficients w (trace dofs ignored).

    This is the metric in which the discrete flux error superconverges one
    order past the stabilized flux norm on polygon-exact domains; it is
    recorded as a diagnostic alongside the flux-norm errors.
    """
    return block_norm(system.flux_mass, w[:system.layout.n_interior])


def l2_pressure_error(system: SaddleSystem, p, p_exact) -> float:
    """Cellwise L2 norm of the pressure coefficient difference p_exact - p."""
    ns = system.layout.dim_sigma
    return block_norm(system.flux_mass[:, :ns, :ns], p_exact - p)


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a domain, a scheme, a degree, and refinements."""

    domain: str
    scheme: str
    degree: int
    levels: tuple
    split_rule: str = "none"      # none | original | modified | fixed:<k>
    rho: float = 1.0
    quadrature_order: int | None = None
    threads: int | None = None    # None or 1: the levels run one after another

    def __post_init__(self):
        """Reject a study that cannot run before any of its levels does."""
        if self.domain not in DOMAINS:
            raise ValueError(f"domain '{self.domain}' is not one of {', '.join(DOMAINS)}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme '{self.scheme}' is not one of {', '.join(SCHEMES)}")
        if self.degree < 1:
            raise ValueError(f"degree {self.degree} must be >= 1: the pressures are "
                             "P_(degree-1)")
        if self.threads not in (None, 1):
            raise ValueError(f"threads {self.threads} must be None or 1: the levels run "
                             "one after another")
        levels = list(self.levels)
        if not levels:
            raise ValueError("study needs at least one refinement level")
        if min(levels) < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels {','.join(map(str, levels))} must be positive "
                             "and strictly increasing")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho {self.rho} must be finite and positive")
        q = self.quadrature_order
        if q is not None and q < 2 * self.degree:
            raise ValueError(f"quadrature order {q} is below 2j = {2 * self.degree}, "
                             "the exactness the edge integrals need")
        parse_split_rule(self.split_rule)
        if self.domain == "square" and self.split_rule != "none":
            raise ValueError(f"split_rule '{self.split_rule}' needs a curved boundary; "
                             "the square domain takes none")


@dataclass(frozen=True)
class StudyRow:
    n: int
    split: int
    h: float
    s: float
    dofs: int
    err_u_vh: float
    err_u_vh1: float
    err_p: float
    seconds: float
    residual: float
    err_u_l2: float = float("nan")  # diagnostic, not part of the CSV format
    stages: dict = field(default_factory=dict, compare=False)  # seconds per step, not in the CSV
    diagnostics: dict = field(default_factory=dict, compare=False)  # the solve's, not in the CSV


@dataclass
class ConvergenceTable:
    """Per-level study records with fitted slopes."""

    config: StudyConfig
    rows: list
    slope_u: float
    slope_u1: float
    slope_p: float
    pairwise_u: tuple
    quality: list = field(default_factory=list)

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("mesh sizes must be strictly decreasing down the rows")

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.h:.12g},{r.s:.12g},{r.dofs},"
                f"{r.err_u_vh:.12g},{r.err_u_vh1:.12g},{r.err_p:.12g},{r.seconds:.12g}"
            )
        lines.append(f"# slope_u={self.slope_u:.12g} slope_p={self.slope_p:.12g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def generate_domain_mesh(domain: str, n: int, split=1) -> PolygonalMesh:
    """The domain's mesh at n; `split` is a count or a law h -> count (see the disk mesh)."""
    if domain == "square":
        return generate_square_tri(n)
    if domain == "disk":
        return generate_disk_mesh(n, split)
    if domain == "ring":
        return generate_ring_mesh(n, split)
    raise ValueError(f"unknown domain '{domain}'")


def parse_split_rule(rule: str):
    """The count k of 'fixed:<k>', or the name of the law 'none', 'original', 'modified'."""
    if rule in ("none", "original", "modified"):
        return rule
    count = rule[len("fixed:"):] if rule.startswith("fixed:") else ""
    if not (count.isdecimal() and int(count) >= 1):
        raise ValueError(f"split rule '{rule}' is not none, original, modified "
                         "or fixed:<k> with k >= 1")
    return int(count)


def run_level(config: StudyConfig, n: int, coarser_h: float | None = None):
    """Build, assemble, solve, and measure one refinement level.

    A mesh whose size is not below `coarser_h` (the previous level's) raises
    `ValueError` before anything is assembled.  The row's `stages` holds the
    seconds of each step: mesh, validate, cells, assemble, project (the
    right-hand side and the exact projections, one pass), solve and norms;
    its `diagnostics` are the solve's `Solution.diagnostics`.
    """
    marks = [time.perf_counter()]
    stages = {}

    def lap(stage):
        marks.append(time.perf_counter())
        stages[stage] = marks[-1] - marks[-2]

    law = parse_split_rule(config.split_rule)
    split = 1 if law == "none" else law

    def split_law(base_h):
        nonlocal split
        split = boundary_split_count(base_h, config.degree, law)
        return split

    mesh = generate_domain_mesh(config.domain, n, split_law if isinstance(split, str) else split)
    if coarser_h is not None and mesh.h >= coarser_h:
        raise ValueError(f"level n={n} does not refine: h={mesh.h:.4g} >= {coarser_h:.4g}")
    lap("mesh")
    report = validate_mesh(mesh)
    lap("validate")
    layout = DofLayout(mesh, config.degree, config.degree, config.degree - 1)
    case = registry_lookup(config.domain)
    cells = level_cells(mesh, layout, config.quadrature_order)
    lap("cells")
    system = assemble_system(mesh, layout, scheme=config.scheme, rho=config.rho, cells=cells)
    lap("assemble")
    rhs, uex, pex = project_level(mesh, layout, cells, g=case.g, u=case.u, p=case.p)
    del cells  # the solve and the norms need no per-cell data
    lap("project")
    sol = solve_saddle(system, rhs)
    lap("solve")

    err = uex - sol.u
    err_vh = vh_norm(system, err, "straight")
    err_vh1 = vh_norm(system, err, "curved")
    err_p = l2_pressure_error(system, sol.p, pex)
    err_l2 = l2_flux_interior_error(system, err)
    lap("norms")
    row = StudyRow(n=n, split=split, h=mesh.h, s=mesh.s, dofs=layout.n_dofs,
                   err_u_vh=err_vh, err_u_vh1=err_vh1, err_p=err_p,
                   seconds=marks[-1] - marks[0], residual=sol.residual, err_u_l2=err_l2,
                   stages=stages, diagnostics=sol.diagnostics)
    return row, report


def run_convergence_study(config: StudyConfig) -> ConvergenceTable:
    """Run the refinement levels of a study in order and fit convergence slopes.

    The table rows and quality reports follow the order of `config.levels`.
    A level whose mesh does not refine the previous level's mesh size raises
    `ValueError` before it is assembled.
    """
    rows, quality = [], []
    for n in config.levels:
        row, report = run_level(config, n, rows[-1].h if rows else None)
        rows.append(row)
        quality.append(report)
    slope_u = fit_rate([(r.h, r.err_u_vh) for r in rows]) if len(rows) > 1 else float("nan")
    slope_u1 = fit_rate([(r.h, r.err_u_vh1) for r in rows]) if len(rows) > 1 else float("nan")
    slope_p = fit_rate([(r.h, r.err_p) for r in rows]) if len(rows) > 1 else float("nan")
    pairwise = tuple(math.log(a.err_u_vh / b.err_u_vh) / math.log(a.h / b.h)
                     for a, b in zip(rows, rows[1:]))
    return ConvergenceTable(config=config, rows=rows, slope_u=slope_u,
                            slope_u1=slope_u1, slope_p=slope_p,
                            pairwise_u=pairwise, quality=quality)
