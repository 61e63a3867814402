"""Saddle-point solves: kernel handling, residuals, determinism, energy identity,
and the static condensation against a dense solve of the full bordered matrix."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wgmixed.assembly import DofLayout, assemble_rhs, assemble_system
from wgmixed.mesh import boundary_split_count, generate_disk_mesh, generate_square_tri
from wgmixed.solutions import registry_lookup
from wgmixed.solver import (
    InteriorCouplingError,
    SingularSystemError,
    SolverFailure,
    solve_saddle,
)


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
        mean = system.pressure_mean @ sol.p / system.area
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


def test_missing_rhs_raises():
    mesh = generate_square_tri(1)
    system = assemble_system(mesh, (1, 1, 0), scheme="original")
    with pytest.raises(ValueError):
        solve_saddle(system)


def test_singular_beyond_rank_one_detected():
    # duplicating a pressure row block makes the system rank-deficient by more
    mesh = generate_square_tri(2)
    system, rhs = make_problem(mesh, (1, 1, 0), "original", "square")
    bad = system.B.tolil()
    bad[1] = bad[0]
    system.B = bad.tocsr()
    with pytest.raises((SingularSystemError, SolverFailure)):
        solve_saddle(system, rhs)


def split_disk(n, j, law):
    return generate_disk_mesh(n, lambda h: boundary_split_count(h, j, law))


@pytest.mark.parametrize("mesh_fn, degree, scheme, domain", [
    (lambda: generate_square_tri(4), 1, "original", "square"),
    (lambda: generate_square_tri(4), 2, "original", "square"),
    (lambda: generate_square_tri(4), 3, "original", "square"),
    (lambda: split_disk(8, 2, "modified"), 2, "modified", "disk"),
], ids=["square-j1", "square-j2", "square-j3", "disk-modified-j2"])
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


def test_interior_coupling_between_cells_is_rejected():
    mesh = generate_square_tri(2)
    system, rhs = make_problem(mesh, (1, 1, 0), "original", "square")
    bs = 2 * system.layout.dim_alpha
    coupled = system.A.tolil()
    coupled[0, bs] = coupled[bs, 0] = 1e-3      # interior dofs of cells 0 and 1
    system.A = coupled.tocsr()
    with pytest.raises(InteriorCouplingError, match="cell 0 with dof .* of cell 1"):
        solve_saddle(system, rhs)


def test_refinement_step_reaches_round_off():
    mesh = split_disk(64, 2, "modified")
    system, rhs = make_problem(mesh, (2, 2, 1), "modified", "disk")
    sol = solve_saddle(system, rhs)
    assert sol.residual <= 1e-12


def test_diagnostics_report_condensed_size_fill_and_unrefined_residual():
    mesh = generate_disk_mesh(32, 1)
    system, rhs = make_problem(mesh, (2, 2, 1), "original", "disk")
    lay = system.layout
    d = solve_saddle(system, rhs).diagnostics
    n_traces = lay.n_velocity - lay.n_interior
    assert d["n_condensed"] == n_traces + lay.n_pressure + 1
    assert d["matrix_nnz"] == system.full_matrix().nnz
    # the condensed factor holds well under half the entries of the full one
    border = np.zeros(lay.n_dofs)
    border[lay.n_velocity:] = system.pressure_mean
    full = sp.bmat([[system.full_matrix(), border[:, None]], [border[None, :], None]],
                   format="csc")
    lu = splu(full)
    assert d["n_condensed"] <= d["lu_fill"] < (lu.L.nnz + lu.U.nnz) / 2
    assert 0.0 < d["residual_unrefined"] <= 1e-9
