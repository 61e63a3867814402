"""Weak Galerkin mixed finite elements for the Neumann Poisson problem on
2D domains with curved boundary, plus a convergence-study harness."""

from .assembly import (
    ConfigurationError,
    DofLayout,
    SaddleSystem,
    assemble_rhs,
    assemble_system,
)
from .convergence import (
    ConvergenceTable,
    StudyConfig,
    fit_rate,
    l2_pressure_error,
    project_exact,
    run_convergence_study,
)
from .mesh import (
    BoundaryCurves,
    MeshError,
    MeshQualityReport,
    PolygonalMesh,
    boundary_split_count,
    build_mesh,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
    validate_mesh,
    write_mesh,
)
from .quadrature import MalformedCellError, MalformedEdgeError, QuadratureRule
from .basis import CellBasis, EdgeBasis, project_cell, project_edge
from .solutions import ExactSolutionCase, registry_lookup
from .solver import (
    SingularSystemError,
    Solution,
    SolverFailure,
    solve_saddle,
)

__version__ = "0.1.0"
