"""Saddle-point solves: kernel handling, residuals, determinism, energy identity,
and the static condensation against a dense solve of the full bordered matrix,
a dense Schur complement and the global matrices' products."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wgmixed.assembly import DofLayout, assemble_rhs, assemble_system
from wgmixed.convergence import quadratic_norm
from wgmixed.mesh import (
    boundary_split_count,
    build_mesh,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
)
from wgmixed.solutions import registry_lookup
from wgmixed import assembly
from wgmixed.solver import SingularSystemError, SolverFailure, solve_saddle


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
    assert np.abs(sol.u.coeffs).max() <= 1e-12
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
    assert np.array_equal(a.u.coeffs, b.u.coeffs)
    assert np.array_equal(a.p, b.p)


def test_energy_identity():
    # flux equation tested with v = u_h: a_h(u,u) = -b_h(u, p) = (g~, p)
    mesh = generate_square_tri(3)
    case = registry_lookup("square")
    lay = DofLayout(mesh, 1, 1, 0)
    system = assemble_system(mesh, lay, scheme="original")
    rhs = assemble_rhs(mesh, lay, case.g)
    sol = solve_saddle(system, rhs)
    a_uu = float(sol.u.coeffs @ (system.A @ sol.u.coeffs))
    b_up = float(sol.p @ (system.B @ sol.u.coeffs))
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
# The cells of a group keep different numbers of traces on the ring (2 or 3
# of 3) and the strip (1 or 2 of 4); the split disks' boundary cells all keep
# two, so their blocks are restricted without dropped slots.
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
    dense[:-1, :-1] = system.full_matrix().toarray()
    dense[:-1, -1] = dense[-1, :-1] = border
    ref = np.linalg.solve(dense, np.append(rhs, 0.0))
    sol = solve_saddle(system, rhs)
    x = np.concatenate([sol.u.coeffs, sol.p])
    assert np.linalg.norm(x - ref[:-1]) <= 1e-10 * np.linalg.norm(ref[:-1])
    assert abs(sol.multiplier - ref[-1]) <= 1e-10 * np.linalg.norm(ref[:-1])


@CONDENSED_CASES
def test_condensed_matrix_is_the_dense_bordered_schur_complement(mesh_fn, degree, scheme,
                                                                 domain):
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    lay = system.layout
    ni = lay.n_interior
    M = system.full_matrix().toarray()
    schur = M[ni:, ni:] - M[ni:, :ni] @ np.linalg.solve(M[:ni, :ni], M[:ni, ni:])
    border = np.concatenate([np.zeros(lay.n_velocity - ni), system.pressure_mean])
    ref = np.block([[schur, border[:, None]], [border[None, :], np.zeros((1, 1))]])
    got = system.condensed
    assert got.format == "csc"
    assert np.abs(got.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()


@CONDENSED_CASES
def test_block_products_match_the_global_matrices(mesh_fn, degree, scheme, domain):
    system, _ = make_problem(mesh_fn(), (degree, degree, degree - 1), scheme, domain)
    lay = system.layout
    x = np.random.default_rng(5).standard_normal(lay.n_dofs)
    want = system.full_matrix() @ x
    assert np.linalg.norm(system.matvec(x) - want) <= 1e-13 * np.linalg.norm(want)
    v = x[:lay.n_velocity]
    for mode in ("straight", "curved"):
        ref = quadratic_norm(system.vh_matrix(mode), v)
        assert system.flux_norm(v, mode) == pytest.approx(ref, rel=1e-13)


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
    assert d["n_condensed"] == n_traces + lay.n_pressure + 1
    assert d["condensed_nnz"] == system.condensed.nnz
    # the condensed factor holds well under half the entries of the full one
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    full = sp.bmat([[system.full_matrix(), border[:, None]], [border[None, :], None]],
                   format="csc")
    lu = splu(full)
    assert d["n_condensed"] <= d["lu_fill"] < (lu.L.nnz + lu.U.nnz) / 2
    assert 0.0 < d["residual_unrefined"] <= 1e-9
