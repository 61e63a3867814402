"""Discrete errors, projected exact solutions, and convergence studies.

Errors are measured in the projected metric the method is judged by: the flux
error is the difference between the discrete solution and the projection of
the exact flux (interior L2 projections per cell, edge projections of the
normal component on interior edges, zero on boundary edges), measured in the
flux norm; the pressure error is measured cellwise in L2 against the
piecewise-polynomial projection of the exact pressure.

A level builds one mesh (its generator applies a split law to the mesh
size of its corner loops; a `none` or `fixed:<k>` study passes the count),
then works on the level's cell groups, then solves, then measures:
`level_cells` stacks the basis and rules of each group of cells with one
vertex count once, the assembly, the right-hand side and the exact
projection read them a group at a time, and they are released before the
solve.  The basis is tabulated on a group's projection rule once: the
right-hand side and `project_exact` (flux and pressure) read the same
values.  The four error norms are quadratic forms in what the assembly
already returned: the two flux norms are summed cell by cell over the
system's cell blocks in each normal mode (`SaddleSystem.flux_norm`), the L2
norms over the diagonal blocks of the interior-flux and pressure mass
matrices; no global matrix is built.  `run_level` records
the seconds of each stage in `StudyRow.stages` and the solve's diagnostics
(condensed size, LU fill, residuals) in `StudyRow.diagnostics`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    DofLayout,
    WgFunction,
    assemble_rhs,
    assemble_system,
    assemble_vh_matrix,
    level_cells,
    projection_order,
)
from .basis import project_cell, project_edge
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
                  cells: list | None = None) -> tuple[WgFunction, np.ndarray]:
    """Projection of an exact pair onto the discrete spaces.

    Interior flux coefficients are cellwise L2 projections of each component
    and pressures cellwise L2 projections, both with each cell's projection
    rule and the basis values the group keeps on it, which the right-hand
    side reads too (`cells`, the level's `level_cells` list, is built here
    when not given); interior-edge traces are L2 projections of u . n_e;
    boundary-edge traces are zero by definition of the constrained flux
    space.
    """
    if cells is None:
        cells = level_cells(mesh, layout)
    w = WgFunction.zeros(layout)
    pex = np.zeros(layout.n_pressure)
    for group in cells:
        coef = project_cell(group.vertices, u, layout.alpha, rule=group.proj_rule,
                            values=group.proj_values)
        w.coeffs[layout.local_dofs(group.ids)[:, :group.n_int]] = np.swapaxes(coef, 1, 2).reshape(
            group.ids.size, -1)
        pex[layout.pressure_dofs(group.ids)] = project_cell(
            group.vertices, p, layout.sigma, rule=group.proj_rule, values=group.proj_values)
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    n_e = mesh.edge_normals[inner]
    ends = mesh.vertices[mesh.edges[inner]]
    w.coeffs[layout.trace_offsets[inner][:, None] + np.arange(layout.trace_dim)] = project_edge(
        ends[:, 0], ends[:, 1], lambda x, y: np.einsum("eqc,ec->eq", u(x, y), n_e),
        layout.beta, projection_order(layout.alpha))
    return w, pex


def quadratic_norm(matrix, x) -> float:
    """sqrt(x . matrix x), clipped at zero against rounding."""
    return math.sqrt(max(float(x @ (matrix @ x)), 0.0))


def block_norm(blocks: np.ndarray, x) -> float:
    """Quadratic norm for a block-diagonal matrix given by its (cells, b, b) blocks.

    x holds each cell's coefficients in turn: one or more length-b groups per
    cell (the two flux components, or one pressure), each paired with the
    cell's block.
    """
    xb = np.reshape(x, (blocks.shape[0], -1, blocks.shape[1]))
    return math.sqrt(max(float(np.einsum("cki,cij,ckj->", xb, blocks, xb)), 0.0))


def vh_norm(mesh: PolygonalMesh, w: WgFunction, mode: str = "straight",
            rho: float = 1.0, order: int | None = None, matrix=None) -> float:
    """Flux norm sqrt(mass + stabilization) with the requested normal mode."""
    if matrix is None:
        matrix = assemble_vh_matrix(mesh, w.layout, mode=mode, rho=rho, order=order)
    return quadratic_norm(matrix, w.coeffs)


def _cell_mass_blocks(mesh: PolygonalMesh, layout: DofLayout, dim: int) -> np.ndarray:
    """(cells, dim, dim) Gram matrices of each cell's leading `dim` basis functions.

    These are the `flux_mass` blocks `assemble_system` returns (dim P_alpha),
    or their leading dim P_sigma blocks, bit for bit, read from the level's
    cell groups without assembling the system.
    """
    blocks = np.empty((mesh.n_cells, dim, dim))
    for group in level_cells(mesh, layout):
        blocks[group.ids] = group.mass[:, :dim, :dim]
    return blocks


def l2_flux_interior_error(mesh: PolygonalMesh, w: WgFunction) -> float:
    """Interior L2 norm of a discrete flux (trace dofs ignored).

    This is the metric in which the discrete flux error superconverges one
    order past the stabilized flux norm on polygon-exact domains; it is
    recorded as a diagnostic alongside the flux-norm errors.
    """
    layout = w.layout
    return block_norm(_cell_mass_blocks(mesh, layout, layout.dim_alpha),
                      w.coeffs[:layout.n_interior])


def l2_pressure_error(mesh: PolygonalMesh, layout: DofLayout, p_coeffs,
                      p_exact_coeffs) -> float:
    """Cellwise L2 norm of the pressure coefficient difference."""
    diff = np.asarray(p_exact_coeffs, dtype=float) - np.asarray(p_coeffs, dtype=float)
    return block_norm(_cell_mass_blocks(mesh, layout, layout.dim_sigma), diff)


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
                             "the exactness the mass matrices need")
        parse_split_rule(self.split_rule)


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

    @property
    def quality_ok(self) -> bool:
        return all(rep.passed for rep in self.quality)

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


def run_level(config: StudyConfig, n: int):
    """Build, assemble, solve, and measure one refinement level.

    The row's `stages` holds the seconds of each step: mesh, validate, cells,
    assemble, rhs, project, solve and norms; its `diagnostics` are the
    solve's `Solution.diagnostics`.
    """
    marks = [time.perf_counter()]
    stages = {}

    def lap(stage):
        marks.append(time.perf_counter())
        stages[stage] = marks[-1] - marks[-2]

    law = parse_split_rule(config.split_rule)
    split = 1 if law == "none" or config.domain == "square" else law

    def split_law(base_h):
        nonlocal split
        split = boundary_split_count(base_h, config.degree, law)
        return split

    mesh = generate_domain_mesh(config.domain, n, split_law if isinstance(split, str) else split)
    lap("mesh")
    report = validate_mesh(mesh)
    lap("validate")
    layout = DofLayout(mesh, config.degree, config.degree, config.degree - 1)
    case = registry_lookup(config.domain)
    cells = level_cells(mesh, layout, config.quadrature_order)
    lap("cells")
    system = assemble_system(mesh, layout, scheme=config.scheme, rho=config.rho,
                             order=config.quadrature_order, cells=cells)
    lap("assemble")
    rhs = assemble_rhs(mesh, layout, case.g, cells=cells)
    lap("rhs")
    uex, pex = project_exact(mesh, case.u, case.p, layout, cells=cells)
    del cells  # the solve and the norms need no per-cell data
    lap("project")
    sol = solve_saddle(system, rhs)
    lap("solve")

    err = uex.coeffs - sol.u.coeffs
    err_vh = system.flux_norm(err, "straight")
    err_vh1 = system.flux_norm(err, "curved")
    ns = layout.dim_sigma
    err_p = block_norm(system.flux_mass[:, :ns, :ns], pex - sol.p)
    err_l2 = block_norm(system.flux_mass, err[:layout.n_interior])
    lap("norms")
    row = StudyRow(n=n, split=split, h=mesh.h, s=mesh.s, dofs=layout.n_dofs,
                   err_u_vh=err_vh, err_u_vh1=err_vh1, err_p=err_p,
                   seconds=marks[-1] - marks[0], residual=sol.residual, err_u_l2=err_l2,
                   stages=stages, diagnostics=sol.diagnostics)
    return row, report


def run_convergence_study(config: StudyConfig) -> ConvergenceTable:
    """Run the refinement levels of a study in order and fit convergence slopes.

    The table rows and quality reports follow the order of `config.levels`.
    """
    results = [run_level(config, n) for n in config.levels]

    rows = [r for r, _ in results]
    quality = [rep for _, rep in results]
    hu = [(r.h, r.err_u_vh) for r in rows]
    slope_u = fit_rate(hu) if len(rows) > 1 else float("nan")
    slope_u1 = fit_rate([(r.h, r.err_u_vh1) for r in rows]) if len(rows) > 1 else float("nan")
    slope_p = fit_rate([(r.h, r.err_p) for r in rows]) if len(rows) > 1 else float("nan")
    pairwise = tuple(
        math.log(rows[i].err_u_vh / rows[i + 1].err_u_vh)
        / math.log(rows[i].h / rows[i + 1].h)
        for i in range(len(rows) - 1)
    )
    return ConvergenceTable(config=config, rows=rows, slope_u=slope_u,
                            slope_u1=slope_u1, slope_p=slope_p,
                            pairwise_u=pairwise, quality=quality)
