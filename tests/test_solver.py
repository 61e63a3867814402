"""Saddle-point solves: kernel handling, residuals, determinism, energy identity."""

import numpy as np
import pytest

from wgmixed.assembly import DofLayout, assemble_rhs, assemble_system
from wgmixed.mesh import generate_disk_mesh, generate_square_tri
from wgmixed.solutions import registry_lookup
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
