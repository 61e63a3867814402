"""Saddle-point solves: kernel handling, residuals, determinism, energy identity,
the one pivot-free factorization and why it exists, the hybridized solve
against a dense solve of the full bordered matrix, a dense multiplier system
and the global matrices' products, and the singular one-cell mesh."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wgmixed.assembly import DofLayout, assemble_rhs, assemble_system
from wgmixed.convergence import vh_norm
from wgmixed.mesh import (
    boundary_split_count,
    build_mesh,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
)
from wgmixed.solutions import registry_lookup
from wgmixed import assembly, solver
from wgmixed.solver import SingularSystemError, SolverFailure, solve_saddle

from reference import full_matrix, quadratic_norm, vh_matrix


def make_problem(mesh, degrees, scheme, domain):
    case = registry_lookup(domain)
    lay = DofLayout(mesh, *degrees)
    system = assemble_system(mesh, lay, scheme=scheme)
    rhs = assemble_rhs(mesh, lay, case.g)
    return system, rhs


def test_zero_source_gives_zero_solution():
    mesh = generate_square_tri(2)
    lay = DofLayout(mesh, 1, 1, 0)
    system = assemble_system(mesh, lay, scheme="original")
    rhs = np.zeros(lay.n_dofs)
    sol = solve_saddle(system, rhs)
    assert np.abs(sol.u).max() <= 1e-12
    assert np.abs(sol.p).max() <= 1e-12


def test_square_residual_below_tolerance():
    mesh = generate_square_tri(2)
    system, rhs = make_problem(mesh, (1, 1, 0), "original", "square")
    sol = solve_saddle(system, rhs)
    assert sol.residual <= 1e-9


def test_modified_scheme_residual_and_transpose_kernel():
    mesh = generate_disk_mesh(8, 1)
    system, rhs = make_problem(mesh, (2, 2, 1), "modified", "disk")
    sol = solve_saddle(system, rhs)
    assert sol.residual <= 1e-9


def test_pressure_mean_zero():
    for scheme in ("original", "modified"):
        mesh = generate_disk_mesh(8, 2)
        system, rhs = make_problem(mesh, (1, 1, 0), scheme, "disk")
        sol = solve_saddle(system, rhs)
        mean = system.pressure_mean @ sol.p / mesh.cell_areas.sum()
        assert abs(mean) <= 1e-10 * max(np.linalg.norm(sol.p), 1.0)


def test_bitwise_deterministic():
    mesh = generate_square_tri(3)
    system, rhs = make_problem(mesh, (1, 1, 0), "original", "square")
    a = solve_saddle(system, rhs)
    b = solve_saddle(system, rhs)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_energy_identity():
    # flux equation tested with v = u_h: a_h(u,u) = -b_h(u, p) = (g~, p)
    mesh = generate_square_tri(3)
    case = registry_lookup("square")
    lay = DofLayout(mesh, 1, 1, 0)
    system = assemble_system(mesh, lay, scheme="original")
    rhs = assemble_rhs(mesh, lay, case.g)
    sol = solve_saddle(system, rhs)
    a_uu = float(sol.u @ (system.A @ sol.u))
    b_up = float(sol.p @ (system.B @ sol.u))
    g_p = float(-rhs[lay.n_velocity:] @ sol.p)
    assert a_uu == pytest.approx(-b_up, rel=1e-9)
    assert a_uu == pytest.approx(g_p, rel=1e-9)


def test_singular_beyond_rank_one_detected(monkeypatch):
    # one cell's two pressure rows made equal: rank-deficient beyond the kernel
    coupling = assembly.local_pressure_coupling

    def duplicated_row(cells):
        rows = coupling(cells)
        rows[0, 1] = rows[0, 0]
        return rows

    monkeypatch.setattr(assembly, "local_pressure_coupling", duplicated_row)
    mesh = generate_square_tri(2)
    system, rhs = make_problem(mesh, (2, 2, 1), "original", "square")
    with pytest.raises((SingularSystemError, SolverFailure)):
        solve_saddle(system, rhs)


def split_disk(n, j, law):
    return generate_disk_mesh(n, lambda h: boundary_split_count(h, j, law))


def quad_strip():
    """Three unit squares in a row: the end cells keep one trace, the middle one two."""
    vertices = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (1, 1), (0, 1)]
    return build_mesh(vertices, [[0, 1, 6, 7], [1, 2, 5, 6], [2, 3, 4, 5]])


# mesh, degree, scheme, domain (whose source term the right-hand side takes).
# Cells of one vertex count keep different numbers of traces on the square
# (1, 2 or 3 of 3), the ring (2 or 3 of 3) and the strip (1 or 2 of 4), so
# each of these splits into groups by boundary-edge count.
CONDENSED_CASES = pytest.mark.parametrize("mesh_fn, degree, scheme, domain", [
    (lambda: generate_square_tri(4), 1, "original", "square"),
    (lambda: generate_square_tri(4), 2, "original", "square"),
    (lambda: generate_square_tri(4), 3, "original", "square"),
    (lambda: split_disk(8, 2, "modified"), 2, "modified", "disk"),
    (lambda: split_disk(16, 2, "modified"), 2, "modified", "disk"),
    (lambda: generate_ring_mesh(16, 1), 1, "original", "ring"),
    (quad_strip, 2, "modified", "disk"),
], ids=["square-j1", "square-j2", "square-j3", "disk-modified-j2", "disk-modified-j2-n16",
        "ring-original-j1", "strip-modified-j2"])


@CONDENSED_CASES
def test_condensed_solve_matches_dense_bordered_solve(mesh_fn, degree, scheme, domain):
    system, rhs = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    lay = system.layout
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    dense = np.zeros((lay.n_dofs + 1, lay.n_dofs + 1))
    dense[:-1, :-1] = full_matrix(system).toarray()
    dense[:-1, -1] = dense[-1, :-1] = border
    ref = np.linalg.solve(dense, np.append(rhs, 0.0))
    sol = solve_saddle(system, rhs)
    x = np.concatenate([sol.u, sol.p])
    assert np.linalg.norm(x - ref[:-1]) <= 1e-10 * np.linalg.norm(ref[:-1])


def dense_multiplier_system(system):
    """H = sum_K E_K local_K^{-1} E_K^T of the hybridized system [[L, E^T], [E, 0]], dense.

    L is block diagonal in the cells' `local` blocks; E ties each copy of a
    trace on an edge of two cells to the edge's multipliers, +1 on the
    owner's side (`edge_cells[:, 0]`) and -1 on the other.  Multiplier 0's
    row and column are dropped.
    """
    lay = system.layout
    mesh, ni, td = lay.mesh, 2 * lay.dim_alpha, lay.trace_dim
    shared = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    first = {e: td * i for i, e in enumerate(shared)}
    edge_of = {lay.trace_offsets[e]: e for e in range(mesh.n_edges)}
    H = np.zeros((td * shared.size, td * shared.size))
    for b in system.blocks:
        for g, cell in enumerate(b.ids):
            E = np.zeros((H.shape[0], b.local.shape[1]))
            for j in range(ni, b.vdofs.shape[1], td):
                e = edge_of.get(b.vdofs[g, j])
                if e in first:
                    sign = 1.0 if mesh.edge_cells[e, 0] == cell else -1.0
                    E[first[e]:first[e] + td, j:j + td] = sign * np.eye(td)
            H += E @ np.linalg.solve(b.local[g], E.T)
    return H[1:, 1:]


@CONDENSED_CASES
def test_condensed_matrix_is_the_dense_bordered_schur_complement(mesh_fn, degree, scheme,
                                                                 domain):
    # H is minus the Schur complement of the cell blocks L in the system L
    # bordered by the multiplier constraints E
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    ref = dense_multiplier_system(system)
    got = solver._eliminate(system)[1]
    assert got.format == "csc"
    assert np.abs(got.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
    if scheme == "original":
        H = got.toarray()
        assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()


@CONDENSED_CASES
def test_block_products_match_the_global_matrices(mesh_fn, degree, scheme, domain):
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    lay = system.layout
    x = np.random.default_rng(5).standard_normal(lay.n_dofs)
    want = full_matrix(system) @ x
    assert np.linalg.norm(system.matvec(x) - want) <= 1e-13 * np.linalg.norm(want)
    v = x[:lay.n_velocity]
    for mode in ("straight", "curved"):
        ref = quadratic_norm(vh_matrix(system, mode), v)
        assert vh_norm(system, v, mode) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("n, j", [(64, 2), (24, 4)])
def test_refinement_step_reaches_round_off(n, j):
    mesh = split_disk(n, j, "modified")
    system, rhs = make_problem(mesh, (j, j, j - 1), "modified", "disk")
    sol = solve_saddle(system, rhs)
    assert sol.residual <= 1e-12


def test_diagnostics_report_condensed_size_fill_and_unrefined_residual():
    mesh = generate_disk_mesh(32, 1)
    system, rhs = make_problem(mesh, (2, 2, 1), "original", "disk")
    lay = system.layout
    d = solve_saddle(system, rhs).diagnostics
    n_traces = lay.n_velocity - lay.n_interior
    assert d["n_condensed"] == n_traces - 1
    assert d["condensed_nnz"] == solver._eliminate(system)[1].nnz
    # the condensed factor holds well under half the entries of the full one
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    full = sp.bmat([[full_matrix(system), border[:, None]], [border[None, :], None]],
                   format="csc")
    lu = splu(full)
    assert d["n_condensed"] <= d["lu_fill"] < (lu.L.nnz + lu.U.nnz) / 2
    assert 0.0 < d["residual_unrefined"] <= 1e-9


@pytest.mark.parametrize("mesh_fn, degree, scheme, domain", [
    (lambda: split_disk(16, 2, "modified"), 2, "modified", "disk"),
    (lambda: generate_ring_mesh(16, 1), 1, "original", "ring"),
], ids=["disk-modified-j2-split", "ring-original-j1"])
def test_lu_fill_depends_on_the_pattern_alone(mesh_fn, degree, scheme, domain):
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    H = solver._eliminate(system)[1]
    fill = solver._factorize(H).nnz
    rng = np.random.default_rng(7)
    for _ in range(5):
        moved = H.copy()
        step = rng.choice([-np.inf, np.inf], size=moved.nnz)
        moved.data = np.nextafter(moved.data, step)
        assert np.count_nonzero(moved.data != H.data) == H.nnz
        assert solver._factorize(moved).nnz == fill


@pytest.mark.parametrize("mesh_fn, degree, domain", [
    (lambda: split_disk(16, 2, "original"), 2, "disk"),
    (lambda: split_disk(16, 2, "modified"), 2, "disk"),
    (lambda: split_disk(16, 3, "original"), 3, "disk"),
    (lambda: split_disk(16, 3, "modified"), 3, "disk"),
    (lambda: generate_ring_mesh(16, 1), 1, "ring"),
], ids=["disk-j2-original-law", "disk-j2-modified-law", "disk-j3-original-law",
        "disk-j3-modified-law", "ring-j1"])
def test_multiplier_system_has_a_positive_definite_symmetric_part(mesh_fn, degree, domain):
    # the boundary corrections make H nonsymmetric at j >= 2; a positive
    # definite symmetric part is what makes its LU without pivoting exist
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), "modified", domain)
    H = solver._eliminate(system)[1].toarray()
    assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0.0


def test_solve_leaves_the_system_as_assembled():
    # the block inverses, the multiplier maps and H live only inside the solve
    system, rhs = make_problem(split_disk(16, 2, "modified"), (2, 2, 1), "modified", "disk")
    before = dict(vars(system))
    solve_saddle(system, rhs)
    after = vars(system)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


@pytest.mark.filterwarnings("error")
def test_residual_norm_neither_overflows_nor_changes_digits():
    rng = np.random.default_rng(3)
    for v in (rng.standard_normal(1001) * 1e-7, rng.standard_normal(64) * 1e5):
        assert solver._norm(v) == np.linalg.norm(v)
    assert solver._norm(np.full(3, 1e200)) == pytest.approx(np.sqrt(3.0) * 1e200, rel=1e-15)
    assert solver._norm(np.array([1.7e308, 0.0])) == 1.7e308
    assert solver._norm(np.array([1.7e308, 1.7e308])) == np.inf
    assert solver._norm(np.array([1.0, np.nan])) == np.inf
    assert solver._norm(np.zeros(4)) == 0.0


def test_inaccurate_factorization_raises_after_one_factorization(monkeypatch):
    system, rhs = make_problem(generate_square_tri(3), (1, 1, 0), "original", "square")
    calls, factor = [], solver.splu

    def perturbed(matrix, **kwargs):
        calls.append(kwargs.get("diag_pivot_thresh"))
        return factor(matrix * 1.01, **kwargs)

    monkeypatch.setattr(solver, "splu", perturbed)
    with pytest.raises(SolverFailure):
        solve_saddle(system, rhs)
    assert calls == [0.0]


@pytest.mark.parametrize("message, error", [
    ("SUPERLU_MALLOC fails for buf in intMalloc()", MemoryError),
    ("Factor is exactly singular", SingularSystemError),
], ids=["malloc", "singular"])
def test_failed_factorization_is_not_retried(monkeypatch, message, error):
    system, rhs = make_problem(generate_square_tri(3), (1, 1, 0), "original", "square")
    calls = []

    def fails(matrix, **kwargs):
        calls.append(kwargs.get("diag_pivot_thresh"))
        raise RuntimeError(message)

    monkeypatch.setattr(solver, "splu", fails)
    with pytest.raises(error) as info:
        solve_saddle(system, rhs)
    assert calls == [0.0]
    assert isinstance(info.value.__cause__, RuntimeError)


def test_one_cell_mesh_is_singular_before_any_factorization(monkeypatch):
    # no edge of two cells, so no trace: the constant pressure's column of the
    # cell's block is zero, and the solver's block inversion fails before splu
    # is called
    mesh = build_mesh([(0, 0), (1, 0), (1.2, 0.8), (0.4, 1.1), (-0.1, 0.6)], [[0, 1, 2, 3, 4]])
    system, rhs = make_problem(mesh, (2, 2, 1), "original", "square")
    assert system.layout.n_velocity == system.layout.n_interior
    calls = []
    monkeypatch.setattr(solver, "splu", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SingularSystemError, match="singular"):
        solve_saddle(system, rhs)
    assert calls == []
