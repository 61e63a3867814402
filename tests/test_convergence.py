"""Error norms, exact-solution projection, rate fitting, and small studies."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgmixed import convergence
from wgmixed.assembly import DofLayout, assemble_system, assemble_vh_matrix
from wgmixed.cli import run_cli
from wgmixed.convergence import (
    ConvergenceTable,
    StudyConfig,
    StudyRow,
    fit_rate,
    l2_pressure_error,
    project_exact,
    run_convergence_study,
    vh_norm,
)
from wgmixed.mesh import (
    boundary_split_count,
    build_mesh,
    generate_disk_mesh,
    generate_square_tri,
)
from wgmixed.solutions import registry_lookup

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------

def test_fit_rate_linear_and_quadratic():
    hs = [0.5, 0.25, 0.125, 0.0625]
    assert fit_rate([(h, h) for h in hs]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rate([(h, h * h) for h in hs]) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_half_power():
    pairs = [(h, 3.0 * math.sqrt(h)) for h in (1 / 4, 1 / 16, 1 / 64)]
    assert fit_rate(pairs) == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, -1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.0, 0.5)])


@settings(max_examples=30, deadline=None)
@given(
    slope=st.floats(min_value=-3, max_value=4),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_fit_rate_recovers_exact_power_laws(slope, scale):
    hs = [2.0 ** (-k) for k in range(1, 6)]
    pairs = [(h, scale * h**slope) for h in hs]
    assert fit_rate(pairs) == pytest.approx(slope, abs=1e-9)


# ---------------------------------------------------------------------------
# projection of exact solutions
# ---------------------------------------------------------------------------

def test_project_exact_reproduces_polynomial_flux():
    mesh = generate_square_tri(2)
    lay = DofLayout(mesh, 1, 1, 0)
    u = lambda x, y: np.stack([1.0 + x - 2 * y, 3.0 * y], axis=-1)
    p = lambda x, y: np.full_like(x, 4.0)
    w, pex = project_exact(mesh, u, p, lay)
    for c in range(mesh.n_cells):
        verts = mesh.vertices[mesh.cells[c]]
        from wgmixed.basis import cell_basis
        ba = cell_basis(verts, 1)
        pts = mesh.cell_centroids[c][None, :] + 0.01
        V = ba.eval(pts[:, 0], pts[:, 1])
        interior = w[lay.interior_offsets[c] + np.arange(2 * lay.dim_alpha)].reshape(2, lay.dim_alpha)
        got = np.stack([V @ interior[0], V @ interior[1]], axis=-1)
        assert np.allclose(got, u(pts[:, 0], pts[:, 1]), atol=1e-12)
        assert pex[lay.pressure_dofs(c)][0] == pytest.approx(4.0, rel=1e-13)


def test_error_of_projection_against_itself_is_zero():
    mesh = generate_disk_mesh(8, 2)
    lay = DofLayout(mesh, 2, 2, 1)
    case = registry_lookup("disk")
    w, pex = project_exact(mesh, case.u, case.p, lay)
    zero = w - w
    system = assemble_system(mesh, lay)
    assert vh_norm(system, zero) == 0.0
    assert l2_pressure_error(system, pex, pex) == 0.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_vh_norm_single_cell_hand_value():
    mesh = build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]])
    lay = DofLayout(mesh, 1, 1, 0)
    w = np.zeros(lay.n_velocity)
    w[0] = 1.0  # v_0 = (1, 0), traces zero
    system = assemble_system(mesh, lay, rho=1.0)
    assert vh_norm(system, w, "straight") == pytest.approx(
        math.sqrt(1.0 + math.sqrt(2.0)), rel=1e-13)
    assert vh_norm(system, np.zeros(lay.n_velocity)) == 0.0


def test_vh_norm_modes_agree_on_flat_mesh():
    mesh = generate_square_tri(3)
    lay = DofLayout(mesh, 1, 1, 0)
    rng = np.random.default_rng(1)
    w = rng.normal(size=lay.n_velocity)
    system = assemble_system(mesh, lay)
    a = vh_norm(system, w, "straight")
    b = vh_norm(system, w, "curved")
    assert a == pytest.approx(b, rel=1e-14)


def test_vh_norm_modes_comparable_on_curved_mesh():
    mesh = generate_disk_mesh(12, 1)
    lay = DofLayout(mesh, 1, 1, 0)
    system = assemble_system(mesh, lay)
    rng = np.random.default_rng(2)
    for _ in range(25):
        w = rng.normal(size=lay.n_velocity)
        a = vh_norm(system, w, "straight")
        b = vh_norm(system, w, "curved")
        assert 0.5 <= a / b <= 2.0


def test_vh_norm_definiteness():
    mesh = generate_disk_mesh(8, 1)
    lay = DofLayout(mesh, 1, 1, 0)
    M = assemble_vh_matrix(mesh, lay, "straight").toarray()
    ev = np.linalg.eigvalsh(M)
    assert ev.min() > 0  # norm vanishes only for the zero function


def test_pressure_error_scaling_and_oracle():
    mesh = build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]])
    lay = DofLayout(mesh, 1, 1, 1)
    a = np.array([0.3, -0.7, 1.1])
    b = np.zeros(3)
    system = assemble_system(mesh, lay)
    err = l2_pressure_error(system, b, a)
    # oracle: dense quadrature of the represented polynomial
    from wgmixed.basis import cell_basis
    from wgmixed.quadrature import polygon_rule
    ba = cell_basis(np.asarray(UNIT_SQUARE), 1)
    rule = polygon_rule(UNIT_SQUARE, 8)
    vals = ba.eval(rule.points[:, 0], rule.points[:, 1]) @ a
    expect = math.sqrt(float(rule.weights @ vals**2))
    assert err == pytest.approx(expect, rel=1e-12)
    assert l2_pressure_error(system, b, 2 * a) == pytest.approx(2 * err, rel=1e-12)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def test_small_square_study_pipeline():
    cfg = StudyConfig(domain="square", scheme="original", degree=1, levels=(2, 4, 8))
    table = run_convergence_study(cfg)
    assert [r.n for r in table.rows] == [2, 4, 8]
    assert all(r.passed for r in table.quality)
    assert all(r.residual <= 1e-9 for r in table.rows)
    assert 0.8 <= table.slope_u <= 1.2
    assert table.slope_p > 1.3  # coarse-level smoke value; acceptance pins the real bands
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,h,s,dofs,err_u_Vh,err_u_Vh1,err_p_L2,seconds"
    assert lines[-1].startswith("# slope_u=")
    assert len(lines) == 5


def test_study_with_threads_one_runs_its_levels_in_order():
    # threads=1 is what the study benchmark passes; it is the default behaviour
    cfg1 = StudyConfig(domain="disk", scheme="original", degree=1, levels=(8, 16),
                       threads=1)
    cfg = StudyConfig(domain="disk", scheme="original", degree=1, levels=(8, 16))
    t1 = run_convergence_study(cfg1)
    t = run_convergence_study(cfg)
    assert [r.n for r in t1.rows] == [8, 16]
    for a, b in zip(t1.rows, t.rows):
        assert a.err_u_vh == b.err_u_vh
        assert a.err_p == b.err_p


@pytest.mark.parametrize("bad, named", [
    ({"domain": "cube"}, "domain 'cube'"),
    ({"scheme": "foo"}, "scheme 'foo'"),
    ({"degree": 0}, "degree 0"),
    ({"degree": -2}, "degree -2"),
    ({"threads": -3}, "threads -3"),
    ({"threads": 0}, "threads 0"),
    ({"threads": 2}, "threads 2"),
    ({"domain": "square", "split_rule": "fixed:3"}, "split_rule 'fixed:3'"),
])
def test_study_config_names_a_bad_field_before_any_level(bad, named, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(convergence, "run_level", lambda config, n: ran.append(n))
    fields = {"domain": "disk", "scheme": "original", "degree": 1, "levels": (8,), **bad}
    with pytest.raises(ValueError, match=re.escape(named)):
        StudyConfig(**fields)
    if "degree" in bad:
        # the CLI passes the degree through and prints the same one line
        argv = ["--domain", "disk", "--degree", str(bad["degree"]), "--levels", "8"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert "nonnegative" not in err[0]
    assert ran == []


def test_split_rule_fixed_and_formula():
    cfg = StudyConfig(domain="disk", scheme="original", degree=1, levels=(8, 16),
                      split_rule="fixed:3")
    table = run_convergence_study(cfg)
    assert all(r.split == 3 for r in table.rows)
    cfg2 = StudyConfig(domain="disk", scheme="original", degree=2, levels=(8,),
                       split_rule="original")
    table2 = run_convergence_study(cfg2)
    assert table2.rows[0].split >= 1


@pytest.mark.parametrize("domain", ["disk", "ring"])
def test_split_law_level_builds_one_mesh(monkeypatch, domain):
    import wgmixed.mesh as mesh_mod
    from wgmixed.convergence import generate_domain_mesh, run_level

    built = []
    build = mesh_mod.build_mesh
    monkeypatch.setattr(mesh_mod, "build_mesh",
                        lambda *args, **kw: built.append(kw["domain"]) or build(*args, **kw))
    cfg = StudyConfig(domain=domain, scheme="original", degree=1, levels=(16,),
                      split_rule="original")
    row, _ = run_level(cfg, 16)
    assert built == [domain]
    # the count follows the law at the unsplit mesh's h, as before
    unsplit = generate_domain_mesh(domain, 16)
    assert row.split == boundary_split_count(unsplit.h, 1, "original") > 1
    assert row.h == generate_domain_mesh(domain, 16, row.split).h


def test_level_that_does_not_refine_stops_before_its_assembly(monkeypatch):
    # disk n=17 is prime: one ring, h = 1.0 against 0.571 at n=16
    assembled, assemble = [], convergence.assemble_system
    monkeypatch.setattr(convergence, "assemble_system",
                        lambda mesh, *a, **kw: assembled.append(mesh.h) or
                        assemble(mesh, *a, **kw))
    cfg = StudyConfig(domain="disk", scheme="original", degree=1, levels=(16, 17, 32))
    with pytest.raises(ValueError, match="level n=17 does not refine"):
        run_convergence_study(cfg)
    assert assembled == [generate_disk_mesh(16).h]


def test_table_requires_decreasing_h():
    cfg = StudyConfig(domain="square", scheme="original", degree=1, levels=(2, 4))
    rows = [
        StudyRow(n=2, split=1, h=0.5, s=0.5, dofs=10, err_u_vh=1.0, err_u_vh1=1.0,
                 err_p=1.0, seconds=0.0, residual=0.0),
        StudyRow(n=4, split=1, h=0.5, s=0.5, dofs=20, err_u_vh=0.5, err_u_vh1=0.5,
                 err_p=0.5, seconds=0.0, residual=0.0),
    ]
    with pytest.raises(ValueError):
        ConvergenceTable(config=cfg, rows=rows, slope_u=1.0, slope_u1=1.0,
                         slope_p=1.0, pairwise_u=())


def test_modified_study_records_both_norms():
    cfg = StudyConfig(domain="disk", scheme="modified", degree=1, levels=(8, 16))
    table = run_convergence_study(cfg)
    for r in table.rows:
        assert r.err_u_vh1 > 0
        assert r.err_u_vh > 0
        assert 0.5 <= r.err_u_vh / r.err_u_vh1 <= 2.0
