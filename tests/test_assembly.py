"""Local operators, global assembly, and the structural algebraic properties
of the saddle systems (symmetry, kernels, orientation invariance)."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp

from wgmixed import assembly, basis, convergence, solver
from wgmixed.assembly import (
    CellGroup,
    ConfigurationError,
    DofLayout,
    assemble_rhs,
    assemble_system,
    assemble_vh_matrix,
    default_order,
    level_cells,
    local_boundary_correction,
    local_mass,
    local_pressure_coupling,
    local_stabilization,
    projection_order,
)
from wgmixed.basis import graded_lex_exponents, project_cell, project_edge
from wgmixed.convergence import (
    StudyConfig,
    block_norm,
    l2_flux_interior_error,
    l2_pressure_error,
    project_exact,
    run_level,
    vh_norm,
)
from wgmixed.mesh import (
    BoundaryCurves,
    PolygonalMesh,
    boundary_split_count,
    build_mesh,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
    segment_geometry,
)
from wgmixed.quadrature import polygon_rule
from wgmixed.solutions import registry_lookup

from reference import (
    a_delta,
    cell_rule_kernels,
    constant_pressure_vector,
    full_matrix,
    local_weak_divergence,
    vh_matrix,
    wrapped_cell,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def one_cell_square():
    return build_mesh(UNIT_SQUARE, [[0, 1, 2, 3]])


def one_cell(mesh, c, layout):
    """Cell c as a group of one; its blocks are row 0 of each kernel's result."""
    return CellGroup(mesh, [c], layout)


def consistent_trace_dofs(mesh, ops, u):
    """Local dof vector for interior field u with traces Q_b(u . n_e) on the slots' edges."""
    lay = ops.layout
    c = int(ops.ids[0])
    dof = np.zeros(ops.n_loc)
    verts = mesh.vertices[mesh.cells[c]]
    dof[:lay.dim_alpha] = project_cell(verts, lambda x, y: u(x, y)[:, 0],
                                       lay.alpha, order=2 * lay.alpha + 4, basis=ops.basis[0])
    dof[lay.dim_alpha:2 * lay.dim_alpha] = project_cell(
        verts, lambda x, y: u(x, y)[:, 1], lay.alpha, order=2 * lay.alpha + 4, basis=ops.basis[0])
    for k, e in enumerate(ops.edges[0, ops.slots[0]]):
        p0, p1 = mesh.vertices[mesh.edges[e]]
        n_e = mesh.edge_normals[e]
        dof[ops.n_int + lay.trace_dim * k + np.arange(lay.trace_dim)] = project_edge(
            p0, p1, lambda x, y: u(x, y) @ n_e, lay.beta, order=2 * lay.beta + 4)
    return dof


# ---------------------------------------------------------------------------
# weak divergence
# ---------------------------------------------------------------------------

def test_weak_divergence_of_constants_with_consistent_traces():
    mesh = wrapped_cell(UNIT_SQUARE)
    ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
    assert ops.slots.tolist() == [[0, 1, 2, 3]] and np.all(ops.signs == 1)
    u = lambda x, y: np.stack([2.0 * np.ones_like(x), -0.5 * np.ones_like(x)], axis=-1)
    dof = consistent_trace_dofs(mesh, ops, u)
    div = local_weak_divergence(ops)[0] @ dof
    assert np.abs(div).max() <= 1e-13


def test_weak_divergence_of_identity_field_is_two():
    square = generate_square_tri(2)
    u = lambda x, y: np.stack([x, y], axis=-1)
    for c in range(square.n_cells):
        mesh = wrapped_cell(square.vertices[square.cells[c]])
        ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
        dof = consistent_trace_dofs(mesh, ops, u)
        div = local_weak_divergence(ops)[0] @ dof
        pts = mesh.cell_centroids[0][None, :]
        val = ops.basis[0].eval(pts[:, 0], pts[:, 1]) @ div
        assert val[0] == pytest.approx(2.0, abs=1e-12)
        # nonconstant coefficients vanish
        assert np.abs(div[1:]).max() <= 1e-12


def test_weak_divergence_interior_only_hand_value():
    # v_0 = (1, 0), all traces zero, on the unit square: div_w v = -12 (x - 1/2)
    mesh = one_cell_square()
    ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
    dof = np.zeros(ops.n_loc)
    dof[0] = 1.0
    div = local_weak_divergence(ops)[0] @ dof
    xs = np.array([0.0, 0.25, 0.5, 0.9])
    vals = ops.basis[0].eval(xs, np.full_like(xs, 0.3)) @ div
    assert np.allclose(vals, -12.0 * (xs - 0.5), atol=1e-12)


def test_commutativity_with_divergence_projection():
    # weak divergence of the projected field equals the projected divergence,
    # for random polynomial fields of degree <= alpha on random polygonal cells
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(50):
        alpha = int(rng.integers(1, 4))
        m = int(rng.integers(3, 8))
        ang = np.sort(rng.uniform(0, 2 * np.pi, m))
        if np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 0.2:
            ang = 2 * np.pi * np.arange(m) / m
        verts = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.3, 2.0)
        verts = verts + rng.uniform(-3, 3, 2)
        mesh = wrapped_cell(verts)
        lay = DofLayout(mesh, alpha, alpha, alpha - 1)
        ops = one_cell(mesh, 0, lay)

        exps = graded_lex_exponents(alpha)
        cu = rng.normal(size=(2, exps.shape[0]))

        def u(x, y, cu=cu, exps=exps):
            V = x[:, None] ** exps[None, :, 0] * y[:, None] ** exps[None, :, 1]
            return np.stack([V @ cu[0], V @ cu[1]], axis=-1)

        def div_u(x, y, cu=cu, exps=exps):
            a, b = exps[:, 0], exps[:, 1]
            am, bm = np.maximum(a - 1, 0), np.maximum(b - 1, 0)
            dx = a[None, :] * x[:, None] ** am[None, :] * y[:, None] ** b[None, :]
            dy = b[None, :] * x[:, None] ** a[None, :] * y[:, None] ** bm[None, :]
            return dx @ cu[0] + dy @ cu[1]

        dof = consistent_trace_dofs(mesh, ops, u)
        got = local_weak_divergence(ops)[0] @ dof
        expect = project_cell(verts, div_u, lay.beta, order=2 * alpha + 4, basis=ops.basis[0])
        scale = max(1.0, np.abs(expect).max())
        assert np.abs(got - expect).max() <= 1e-10 * scale, trial
        checked += 1
    assert checked == 50


PAIRING_MESHES = {
    "square-j1": (lambda: generate_square_tri(4), 1),
    "square-j3": (lambda: generate_square_tri(3), 3),
    "disk-original-law-j2": (lambda: generate_disk_mesh(
        16, lambda h: boundary_split_count(h, 2, "original")), 2),
    "disk-modified-law-j4": (lambda: generate_disk_mesh(
        24, lambda h: boundary_split_count(h, 4, "modified")), 4),
    "ring-j1": (lambda: generate_ring_mesh(16, 3), 1),
}


@pytest.mark.parametrize("mesh_name", list(PAIRING_MESHES))
def test_pressure_rows_are_the_mass_rows_times_the_weak_divergence(mesh_name):
    # the pressure basis is the leading P_sigma part of the P_alpha basis, so
    # M[:ns] M^{-1} = [I 0] and the pairings are -M[:ns] @ div_w
    make, j = PAIRING_MESHES[mesh_name]
    mesh = make()
    layout = DofLayout(mesh, j, j, j - 1)
    for group in level_cells(mesh, layout):
        got = local_pressure_coupling(group)
        want = -group.mass[:, :layout.dim_sigma] @ local_weak_divergence(group)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# stabilization and mass
# ---------------------------------------------------------------------------

def test_stabilization_hand_value_unit_square():
    mesh = one_cell_square()
    ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
    S = local_stabilization(ops, "straight", 1.0)[0]
    dof = np.zeros(ops.n_loc)
    dof[0] = 1.0  # v_0 = (1, 0), v_b = 0
    assert dof @ S @ dof == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_stabilization_vanishes_on_consistent_polynomials():
    square = generate_square_tri(2)
    u = lambda x, y: np.stack([1.0 + 2 * x - y, 3.0 * y], axis=-1)
    for c in range(square.n_cells):
        mesh = wrapped_cell(square.vertices[square.cells[c]])
        ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
        dof = consistent_trace_dofs(mesh, ops, u)
        S = local_stabilization(ops, "straight", 1.0)[0]
        assert dof @ S @ dof <= 1e-13


def test_stabilization_curved_equals_straight_on_flat_mesh():
    mesh = generate_square_tri(3)
    for c in range(mesh.n_cells):
        ops = one_cell(mesh, c, DofLayout(mesh, 1, 1, 0))
        Ss = local_stabilization(ops, "straight", 1.0)[0]
        Sc = local_stabilization(ops, "curved", 1.0)[0]
        assert np.abs(Ss - Sc).max() <= 1e-14


def test_stabilization_psd_and_symmetric():
    mesh = generate_disk_mesh(8, 2)
    for c in range(mesh.n_cells):
        for mode in ("straight", "curved"):
            ops = one_cell(mesh, c, DofLayout(mesh, 2, 2, 1))
            S = local_stabilization(ops, mode, 1.0)[0]
            assert np.abs(S - S.T).max() <= 1e-13 * max(1.0, np.abs(S).max())
            ev = np.linalg.eigvalsh(S)
            assert ev.min() >= -1e-12 * max(1.0, ev.max())


def test_stabilization_curved_requires_segment():
    full = generate_disk_mesh(8, 1)
    e = int(full.boundary_edge_indices[0])
    curves = full.boundary_segments
    mesh = PolygonalMesh(**{**full.__dict__,
                            "boundary_segments": curves.take(curves.edges != e)})
    ops = one_cell(mesh, int(mesh.edge_cells[e, 0]), DofLayout(mesh, 1, 1, 0))
    local_stabilization(ops, "straight", 1.0)
    with pytest.raises(ConfigurationError):
        local_stabilization(ops, "curved", 1.0)


def test_local_mass_spd_and_hand_value():
    mesh = one_cell_square()
    ops = one_cell(mesh, 0, DofLayout(mesh, 1, 1, 0))
    M = local_mass(ops)[0]
    dof = np.zeros(ops.n_int)
    dof[0] = 1.0
    assert dof @ M @ dof == pytest.approx(1.0, rel=1e-14)
    ev = np.linalg.eigvalsh(M)
    assert ev.min() > 0
    # off-diagonal zero between components
    na = ops.layout.dim_alpha
    assert np.abs(M[:na, na:]).max() == 0.0


def test_local_mass_orthogonality_vs_quadrature_oracle():
    verts = np.array([(0.2, 0.1), (1.1, 0.0), (1.3, 0.9), (0.5, 1.2), (0.0, 0.7)])
    mesh = build_mesh(verts, [list(range(5))])
    ops = one_cell(mesh, 0, DofLayout(mesh, 2, 2, 1))
    M = local_mass(ops)[0]
    rule = polygon_rule(verts, 12)
    V = ops.basis[0].eval(rule.points[:, 0], rule.points[:, 1])
    Mref = V.T @ (rule.weights[:, None] * V)
    na = ops.layout.dim_alpha
    assert np.allclose(M[:na, :na], Mref, atol=1e-13)


# ---------------------------------------------------------------------------
# boundary correction
# ---------------------------------------------------------------------------

def owner_corrections(mesh, e, layout):
    """The owner cell's correction pairings (m, dim P_sigma, 2 dim P_alpha) and e's position."""
    c = int(mesh.edge_cells[e, 0])
    pairings = local_boundary_correction(one_cell(mesh, c, layout))[0]
    return pairings, mesh.cell_arrays(c)[1].tolist().index(e)


def test_boundary_correction_entries_structure():
    mesh = generate_disk_mesh(8, 1)
    lay = DofLayout(mesh, 1, 1, 1)
    e = int(mesh.boundary_edge_indices[0])
    pairings, k = owner_corrections(mesh, e, lay)
    C = pairings[k]
    assert C.shape == (lay.dim_sigma, 2 * lay.dim_alpha)
    # q = constant row vanishes (mean deviation is mean-free)
    assert np.abs(C[0]).max() <= 1e-14
    # the cell's interior edges carry no correction
    interior = mesh.edge_cells[mesh.cell_arrays(int(mesh.edge_cells[e, 0]))[1], 1] >= 0
    assert interior.any() and np.all(pairings[interior] == 0.0)


def test_boundary_correction_annihilates_constant_normal_component():
    mesh = generate_disk_mesh(8, 1)
    lay = DofLayout(mesh, 1, 1, 0)
    e = int(mesh.boundary_edge_indices[0])
    pairings, k = owner_corrections(mesh, e, lay)
    C = pairings[k]
    n = mesh.edge_normals[e]
    # interior field u_0 = n (constant): u_0 . n = 1 on the edge
    dof = np.zeros(2 * lay.dim_alpha)
    dof[0] = n[0]
    dof[lay.dim_alpha] = n[1]
    assert np.abs(C @ dof).max() <= 1e-14


GROUPED_MESHES = {
    "square-tri4": lambda: generate_square_tri(4),     # corner cells have two boundary edges
    "disk-unsplit": lambda: generate_disk_mesh(16, 1),
    "disk-split": lambda: generate_disk_mesh(16, lambda h: boundary_split_count(h, 2, "modified")),
    "ring-fixed3": lambda: generate_ring_mesh(16, 3),
}


@pytest.mark.parametrize("mesh_name", list(GROUPED_MESHES))
def test_each_group_holds_one_vertex_count_and_one_boundary_edge_count(mesh_name, monkeypatch):
    mesh = GROUPED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    kind = {c: (mesh.cells[c].size, int((mesh.edge_cells[mesh.cell_arrays(c)[1], 1] < 0).sum()))
            for c in range(mesh.n_cells)}
    groups = level_cells(mesh, layout)
    assert np.array_equal(np.sort(np.concatenate([g.ids for g in groups])),
                          np.arange(mesh.n_cells))
    kinds = []
    for group in groups:
        (m, nb), = {kind[c] for c in group.ids}
        kinds.append((m, nb))
        assert np.array_equal(group.boundary.sum(axis=1), np.full(group.ids.size, nb))
        assert np.all(group.dofs >= 0)
        assert group.n_loc == group.n_int + layout.trace_dim * (m - nb)
    assert sorted(kinds) == kinds == sorted(set(kind.values()))
    # the mesh groups its cells by kind once, and each cell group is one mesh group
    assert [kind[int(g.ids[0])] for g in mesh.groups] == kinds
    assert len(groups) == len(mesh.groups)
    assert all(np.array_equal(g.ids, loops.ids) for g, loops in zip(groups, mesh.groups))

    # cells of one vertex count but different boundary-edge counts do not stack
    mixed = [[next(c for c in kind if kind[c] == a), next(c for c in kind if kind[c] == b)]
             for a, b in zip(kinds, kinds[1:]) if a[0] == b[0]]
    assert bool(mixed) == (mesh_name in ("square-tri4", "disk-unsplit"))
    for ids in mixed:
        with pytest.raises(ValueError, match="boundary-edge"):
            CellGroup(mesh, ids, layout)

    # the modified scheme pairs the boundary groups alone
    pairs, kernel = [], assembly.local_boundary_correction

    def counted(cells):
        pairs.append(cells.ids)
        return kernel(cells)

    monkeypatch.setattr(assembly, "local_boundary_correction", counted)
    system = assemble_system(mesh, layout, scheme="modified")
    boundary = [g.ids for g in groups if g.boundary.any()]
    assert len(pairs) == len(boundary) and all(map(np.array_equal, pairs, boundary))
    assert all(kind[c][1] > 0 for ids in pairs for c in ids)
    # the other normal mode differs on the interior flux of the boundary groups alone
    ni = 2 * layout.dim_alpha
    assert [b.delta is not None for b in system.blocks] == [g.boundary.any() for g in groups]
    for b in system.blocks:
        if b.delta is not None:
            assert b.delta.shape == (b.ids.size, ni, ni)


@pytest.mark.parametrize("mesh_name", list(GROUPED_MESHES))
def test_each_trace_dof_is_one_multiplier_held_by_the_two_cells_of_its_edge(mesh_name):
    # trace dof d is multiplier d - n_interior: the owner's copy enters with +1,
    # the other cell's with -1, and each global dof has exactly one owned copy
    mesh = GROUPED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    system = assemble_system(mesh, layout)
    ni, td = 2 * layout.dim_alpha, layout.trace_dim
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    edge_of = np.full(layout.n_velocity, -1)
    edge_of[layout.trace_offsets[inner][:, None] + np.arange(td)] = inner[:, None]
    cells, traces, sides, owned = [], [], [], []
    for b, e in zip(system.blocks, solver._eliminate(system)[0]):
        assert np.array_equal(e.hdofs, b.vdofs[:, ni:] - layout.n_interior - 1)
        cells.append(np.repeat(b.ids, e.sides.shape[1]))
        traces.append(b.vdofs[:, ni:].ravel())
        sides.append(e.sides.ravel())
        owned.append(e.owned[e.owned >= 0])
    cells, traces, sides = map(np.concatenate, (cells, traces, sides))
    n_traces = layout.n_velocity - layout.n_interior
    assert n_traces == td * inner.size
    assert np.array_equal(np.bincount(traces - layout.n_interior, minlength=n_traces),
                          np.full(n_traces, 2))
    assert np.all(edge_of[traces] >= 0)
    pair = mesh.edge_cells[edge_of[traces]]
    assert np.all((cells == pair[:, 0]) | (cells == pair[:, 1]))
    assert np.array_equal(sides, np.where(cells == pair[:, 0], 1.0, -1.0))
    assert np.array_equal(np.sort(np.concatenate(owned)), np.arange(layout.n_dofs))


def test_curved_normals_read_the_stored_curves_without_a_copy(monkeypatch):
    # the curve stack is evaluated as stored and each group gathers its edges'
    # rows from it, which is what evaluating each edge's row alone gives
    taken, take = [], BoundaryCurves.take

    def counted(self, rows):
        taken.append(rows)
        return take(self, rows)

    mesh = GROUPED_MESHES["disk-split"]()
    monkeypatch.setattr(BoundaryCurves, "take", counted)
    assemble_system(mesh, (2, 2, 1), scheme="modified")
    assert taken == []
    monkeypatch.undo()
    for make in GROUPED_MESHES.values():
        mesh = make()
        curves = mesh.boundary_segments
        for group in level_cells(mesh, DofLayout(mesh, 2, 2, 1)):
            m_vec = group.normals("curved")
            t = group.edge_quad[2]
            for g, k in zip(*np.nonzero(group.boundary)):
                e = group.edges[g, k]
                row = curves.take(curves.rows([e]))
                want = segment_geometry(row, mesh.edge_lengths[e] * t[None])[2][0]
                assert np.array_equal(m_vec[g, k], want)


# ---------------------------------------------------------------------------
# global systems
# ---------------------------------------------------------------------------

def test_degree_condition_enforced():
    mesh = generate_square_tri(2)
    DofLayout(mesh, 2, 2, 1)
    DofLayout(mesh, 2, 2, 2)
    with pytest.raises(ValueError):
        DofLayout(mesh, 2, 2, 0)   # sigma < beta - 1
    with pytest.raises(ValueError):
        DofLayout(mesh, 2, 1, 1)   # beta != alpha
    with pytest.raises(ValueError):
        DofLayout(mesh, 1, 1, -1)
    with pytest.raises(ValueError):
        assemble_system(mesh, (2, 2, 0))


def test_dof_counts():
    mesh = generate_square_tri(2)
    lay = DofLayout(mesh, 1, 1, 0)
    n_int_edges = sum(1 for e in range(mesh.n_edges) if mesh.edge_cells[e, 1] >= 0)
    assert lay.n_velocity == mesh.n_cells * 2 * 3 + n_int_edges * 2
    assert lay.n_pressure == mesh.n_cells


@pytest.mark.parametrize("mesh_name", ["square-tri4", "disk-split", "ring-fixed3"])
def test_no_layout_numbers_a_boundary_trace(mesh_name):
    # v_b . n_e = 0 on every boundary chord: the layout takes no option that
    # would number a boundary trace, and only interior edges carry trace dofs
    assert list(inspect.signature(DofLayout).parameters) == ["mesh", "alpha", "beta", "sigma"]
    mesh = GROUPED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    assert np.all(layout.trace_offsets[mesh.boundary_edge_indices] == -1)
    n_inner = int(np.sum(mesh.edge_cells[:, 1] >= 0))
    assert layout.n_velocity == layout.n_interior + layout.trace_dim * n_inner


def test_a_block_symmetric_spd():
    for scheme in ("original", "modified"):
        mesh = generate_disk_mesh(8, 2)
        sys_ = assemble_system(mesh, (1, 1, 0), scheme=scheme)
        A = sys_.A.toarray()
        assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
        ev = np.linalg.eigvalsh(A)
        assert ev.min() > 0


def test_full_matrix_symmetry_by_scheme():
    mesh = generate_disk_mesh(8, 1)
    orig = assemble_system(mesh, (1, 1, 0), scheme="original")
    M = full_matrix(orig).toarray()
    assert np.abs(M - M.T).max() <= 1e-13 * np.abs(M).max()
    # with piecewise-constant pressures the mean-subtracted correction pairing
    # vanishes identically, so sigma >= 1 is needed for a non-symmetric system
    mod0 = assemble_system(mesh, (1, 1, 0), scheme="modified")
    assert np.abs(mod0.pressure_rows - mod0.B).max() <= 1e-14
    mod = assemble_system(mesh, (1, 1, 1), scheme="modified")
    M1 = full_matrix(mod).toarray()
    assert np.abs(M1 - M1.T).max() > 1e-6 * np.abs(M1).max()
    assert np.abs(mod.pressure_rows - mod.B).max() > 1e-6


def test_modified_on_square_differs_only_in_correction_rows():
    mesh = generate_square_tri(2)
    orig = assemble_system(mesh, (1, 1, 1), scheme="original")
    mod = assemble_system(mesh, (1, 1, 1), scheme="modified")
    assert np.abs((orig.A - mod.A)).max() <= 1e-14 * np.abs(orig.A.toarray()).max()
    assert np.abs((orig.B - mod.B)).max() == 0.0
    assert np.abs(mod.pressure_rows - mod.B).max() > 1e-6  # corrections live on a flat mesh too


def test_bh_of_constant_pressure_vanishes():
    rng = np.random.default_rng(3)
    for mesh in (generate_square_tri(3), generate_disk_mesh(8, 2)):
        sys_ = assemble_system(mesh, (1, 1, 0), scheme="original")
        lay = sys_.layout
        const = np.ones(lay.n_pressure)  # sigma = 0: constant mode per cell
        Bt_c = sys_.B.T @ const
        scale = np.abs(sys_.B.toarray()).max()
        for _ in range(20):
            v = rng.normal(size=lay.n_velocity)
            assert abs(Bt_c @ v) <= 1e-12 * scale * np.linalg.norm(v) * math.sqrt(lay.n_velocity)


def test_modified_correction_rows_annihilate_constants_too():
    mesh = generate_disk_mesh(8, 1)
    sys_ = assemble_system(mesh, (1, 1, 0), scheme="modified")
    const = np.ones(sys_.layout.n_pressure)
    resid = np.abs(sys_.pressure_rows.T @ const).max()
    assert resid <= 1e-12 * np.abs(sys_.pressure_rows.toarray()).max()


def test_rank_one_deficiency_and_constant_pressure_kernel():
    # dense SVD oracle on a small disk system
    mesh = generate_disk_mesh(8, 1)
    sys_ = assemble_system(mesh, (1, 1, 0), scheme="original")
    M = full_matrix(sys_).toarray()
    assert M.shape[0] <= 2000
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[-1] <= 1e-12 * sv[0]
    assert sv[-2] > 1e-8 * sv[0]
    # kernel vector aligns with the constant-pressure direction
    _, _, Vt = np.linalg.svd(M)
    kern = Vt[-1]
    cvec = constant_pressure_vector(sys_.layout)
    cvec = cvec / np.linalg.norm(cvec)
    assert abs(abs(kern @ cvec) - 1.0) <= 1e-8


def test_edge_orientation_flip_invariance():
    mesh = generate_square_tri(2)
    lay = DofLayout(mesh, 2, 2, 1)
    sys_ = assemble_system(mesh, lay, scheme="original")

    e = [k for k in range(mesh.n_edges) if mesh.edge_cells[k, 1] >= 0][1]
    edges = mesh.edges.copy()
    edges[e] = edges[e][::-1]
    normals = mesh.edge_normals.copy()
    normals[e] = -normals[e]
    cells_of_e = mesh.edge_cells.copy()
    cells_of_e[e] = cells_of_e[e][::-1]
    groups = [dataclasses.replace(g, signs=g.signs * np.where(g.edges == e, -1, 1))
              for g in mesh.groups]
    flipped = PolygonalMesh(**{**mesh.__dict__, "edges": edges,
                               "edge_normals": normals, "edge_cells": cells_of_e,
                               "groups": tuple(groups)})
    sys_f = assemble_system(flipped, DofLayout(flipped, 2, 2, 1), scheme="original")

    # dof transform on the flipped edge: t -> 1-t and n_e -> -n_e means
    # coefficient k picks up a factor (-1)^(k+1)
    T = np.eye(lay.n_velocity)
    off = lay.trace_offsets[e]
    for k in range(lay.trace_dim):
        T[off + k, off + k] = (-1.0) ** (k + 1)
    A = sys_.A.toarray()
    Af = sys_f.A.toarray()
    assert np.abs(T @ Af @ T - A).max() <= 1e-12 * np.abs(A).max()
    B = sys_.B.toarray()
    Bf = sys_f.B.toarray()
    assert np.abs(Bf @ T - B).max() <= 1e-12 * max(np.abs(B).max(), 1.0)


def test_vh_matrix_matches_system_block():
    mesh = generate_disk_mesh(8, 1)
    lay = DofLayout(mesh, 1, 1, 0)
    sys_ = assemble_system(mesh, lay, scheme="original", rho=2.5)
    M = assemble_vh_matrix(mesh, lay, mode="straight", rho=2.5)
    assert np.abs((sys_.A - M)).max() <= 1e-14 * np.abs(M.toarray()).max()


def test_other_mode_matrix_matches_other_scheme():
    # the boundary-cell difference reproduces the other scheme's own A block
    mesh = generate_disk_mesh(8, 2)
    lay = DofLayout(mesh, 2, 2, 1)
    orig = assemble_system(mesh, lay, scheme="original", rho=2.5)
    mod = assemble_system(mesh, lay, scheme="modified", rho=2.5)
    scale = np.abs(orig.A.toarray()).max()
    assert np.abs((vh_matrix(orig, "curved") - mod.A)).max() <= 1e-14 * scale
    assert np.abs((vh_matrix(mod, "straight") - orig.A)).max() <= 1e-14 * scale
    assert np.abs((vh_matrix(orig, "curved") - orig.A)).max() > 1e-6 * scale
    # the standalone builder is the A of the scheme that stabilizes in that mode
    curved = assemble_vh_matrix(mesh, lay, "curved", rho=2.5)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(curved, part), getattr(mod.A, part))
    with pytest.raises(ValueError):
        assemble_vh_matrix(mesh, lay, "tilted")
    with pytest.raises(ValueError):
        vh_norm(orig, np.zeros(lay.n_velocity), "tilted")


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_zero_source():
    mesh = generate_square_tri(2)
    lay = DofLayout(mesh, 1, 1, 0)
    rhs = assemble_rhs(mesh, lay, lambda x, y: np.zeros_like(x))
    assert np.abs(rhs).max() == 0.0


def test_rhs_constant_source_compat_annihilates():
    mesh = generate_disk_mesh(8, 2)
    lay = DofLayout(mesh, 1, 1, 0)
    rhs = assemble_rhs(mesh, lay, lambda x, y: np.ones_like(x))
    assert np.abs(rhs).max() <= 1e-14


def test_rhs_disk_source_matches_quadrature_oracle():
    mesh = generate_disk_mesh(8, 1)
    lay = DofLayout(mesh, 1, 1, 0)
    case = registry_lookup("disk")
    rhs = assemble_rhs(mesh, lay, case.g)

    # oracle: independent very-high-order fan quadrature from the first vertex
    from wgmixed.quadrature import polygon_rule as prule
    cell_int = np.zeros(mesh.n_cells)
    areas = np.zeros(mesh.n_cells)
    for c in range(mesh.n_cells):
        verts = mesh.vertices[mesh.cells[c]]
        rule = prule(verts, 20, fan_point=verts[0])
        cell_int[c] = rule.weights @ case.g(rule.points[:, 0], rule.points[:, 1])
        areas[c] = rule.weights.sum()
    gbar = cell_int.sum() / areas.sum()
    expect = -(cell_int - gbar * areas)  # sigma = 0: one constant mode per cell
    got = rhs[lay.n_velocity:]
    assert np.abs(got - expect).max() <= 1e-11 * max(1.0, np.abs(expect).max())


def test_rhs_compat_orthogonal_to_constant_pressure():
    mesh = generate_disk_mesh(12, 1)
    lay = DofLayout(mesh, 2, 2, 1)
    case = registry_lookup("disk")
    rhs = assemble_rhs(mesh, lay, case.g)
    sys_ = assemble_system(mesh, lay, scheme="original")
    cvec = constant_pressure_vector(lay)
    assert abs(cvec @ rhs) <= 1e-12 * np.linalg.norm(rhs)


def plain_rhs(mesh, layout, g):
    """-(g - mean g, q) on the projection rules, summed as the assembly sums them, never zeroed."""
    moments, wconst = np.zeros(layout.n_pressure), np.zeros(layout.n_pressure)
    total = area = 0.0
    for group in level_cells(mesh, layout):
        rule = group.proj_rule
        WVs = rule.weights[..., None] * group.proj_values[..., :layout.dim_sigma]
        gv = g(rule.points[..., 0], rule.points[..., 1])
        pidx = layout.pressure_dofs(group.ids)
        moments[pidx] = np.einsum("gqi,gq->gi", WVs, gv)
        wconst[pidx] = WVs.sum(axis=1)
        total += float(np.sum(rule.weights * gv))
        area += float(rule.weights.sum())
    moments -= (total / area) * wconst
    return np.concatenate([np.zeros(layout.n_velocity), -moments])


def test_rhs_of_a_source_with_no_discrete_part_is_zero():
    # on the two triangles of the unit square the square case's source has
    # the same integral, so its mean-free P0 moments are rounding only
    mesh = generate_square_tri(1)
    lay = DofLayout(mesh, 1, 1, 0)
    g = registry_lookup("square").g
    assert 0.0 < np.abs(plain_rhs(mesh, lay, g)).max() <= 1e-15
    rhs = assemble_rhs(mesh, lay, g)
    assert np.all(rhs == 0.0)


@pytest.mark.parametrize("n, j", [(2, 1), (4, 2)])
def test_rhs_above_the_rounding_floor_keeps_every_bit(n, j):
    mesh = generate_square_tri(n)
    lay = DofLayout(mesh, j, j, j - 1)
    g = registry_lookup("square").g
    assert np.array_equal(assemble_rhs(mesh, lay, g), plain_rhs(mesh, lay, g))


# ---------------------------------------------------------------------------
# cell groups against a plain per-cell loop
# ---------------------------------------------------------------------------

MIXED_MESHES = {
    "square-tri4": lambda j: generate_square_tri(4),     # 0, 1 or 2 boundary edges
    "disk-unsplit": lambda j: generate_disk_mesh(16, 1),  # interior and boundary triangles
    "disk-fixed3": lambda j: generate_disk_mesh(16, 3),
    "disk-original-law": lambda j: generate_disk_mesh(
        16, lambda h: boundary_split_count(h, j, "original")),
    "ring-fixed3": lambda j: generate_ring_mesh(16, 3),
}


def per_cell_reference(mesh, layout, scheme, rho, case):
    """Every assembled quantity from one-cell groups' blocks, scattered densely."""
    mode, other = ("curved", "straight") if scheme == "modified" else ("straight", "curved")
    nv, npr = layout.n_velocity, layout.n_pressure
    na, ns = layout.dim_alpha, layout.dim_sigma
    ref = dict(A=np.zeros((nv, nv)), A_delta=np.zeros((nv, nv)), B=np.zeros((npr, nv)),
               corr=np.zeros((npr, nv)), pressure_mean=np.zeros(npr),
               flux_mass=np.zeros((mesh.n_cells, na, na)),
               pressure_mass=np.zeros((mesh.n_cells, ns, ns)),
               uex=np.zeros(nv), pex=np.zeros(npr))
    moments, wconst, total, area = np.zeros(npr), np.zeros(npr), 0.0, 0.0
    for c in range(mesh.n_cells):
        ops = one_cell(mesh, c, layout)
        idx = ops.dofs[0]
        pidx = layout.pressure_dofs(c)
        S = local_stabilization(ops, mode, rho)[0]
        S_mass = S.copy()
        S_mass[:ops.n_int, :ops.n_int] += local_mass(ops)[0]
        ref["A"][np.ix_(idx, idx)] += S_mass
        if mesh.edge_cells[mesh.cell_arrays(c)[1], 1].min() < 0:
            delta = local_stabilization(ops, other, rho)[0] - S
            ref["A_delta"][np.ix_(idx, idx)] += delta
            corr = local_boundary_correction(ops)[0].sum(axis=0)
            ref["corr"][np.ix_(pidx, idx[:ops.n_int])] += corr
        ref["B"][np.ix_(pidx, idx)] += local_pressure_coupling(ops)[0]
        ref["flux_mass"][c] = local_mass(ops)[0][:na, :na]
        ref["pressure_mass"][c] = ref["flux_mass"][c][:ns, :ns]

        verts = mesh.vertices[mesh.cells[c]]
        rule = polygon_rule(verts, default_order(layout.alpha, layout.beta), mesh.cell_centroids[c])
        V = ops.basis[0].eval(rule.points[:, 0], rule.points[:, 1])
        ref["pressure_mean"][pidx] = rule.weights @ V[:, :ns]
        rule = polygon_rule(verts, projection_order(layout.alpha), mesh.cell_centroids[c])
        x, y = rule.points[:, 0], rule.points[:, 1]
        V = ops.basis[0].eval(x, y)
        gv = case.g(x, y)
        moments[pidx] = V[:, :ns].T @ (rule.weights * gv)
        wconst[pidx] = rule.weights @ V[:, :ns]
        total += rule.weights @ gv
        area += rule.weights.sum()
        coef = project_cell(verts, case.u, layout.alpha, basis=ops.basis[0], rule=rule)
        ref["uex"][idx[:ops.n_int]] = coef.T.ravel()
        ref["pex"][pidx] = project_cell(verts, case.p, layout.sigma, basis=ops.basis[0], rule=rule)
    for e in range(mesh.n_edges):
        if mesh.edge_cells[e, 1] >= 0:
            n_e = mesh.edge_normals[e]
            ref["uex"][layout.trace_offsets[e] + np.arange(layout.trace_dim)] = project_edge(
                *mesh.vertices[mesh.edges[e]], lambda x, y: case.u(x, y) @ n_e, layout.beta,
                projection_order(layout.alpha))
    ref["rhs"] = np.concatenate([np.zeros(nv), -(moments - (total / area) * wconst)])
    return ref


@pytest.mark.parametrize("scheme", ["original", "modified"])
@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", list(MIXED_MESHES))
def test_grouped_assembly_matches_per_cell_loop(mesh_name, j, scheme):
    # interior triangles and boundary cells of one or more kinds: groups scattered together
    mesh = MIXED_MESHES[mesh_name](j)
    layout = DofLayout(mesh, j, j, j - 1)
    groups = level_cells(mesh, layout)
    assert len(groups) >= 2 and not groups[0].boundary.any()
    assert groups[0].vertices.shape[1] == 3 and all(g.boundary.any() for g in groups[1:])
    assert np.array_equal(np.sort(np.concatenate([g.ids for g in groups])),
                          np.arange(mesh.n_cells))
    for g in groups:
        assert all(mesh.cells[c].size == g.vertices.shape[1] for c in g.ids)

    case = registry_lookup(mesh.domain)
    system = assemble_system(mesh, layout, scheme=scheme, rho=2.5, cells=groups)
    rhs = assemble_rhs(mesh, layout, case.g, cells=groups)
    uex, pex = project_exact(mesh, case.u, case.p, layout, cells=groups)
    ref = per_cell_reference(mesh, layout, scheme, 2.5, case)

    def close(got, want):
        got = got.toarray() if sp.issparse(got) else np.asarray(got)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(system.A, ref["A"])
    close(a_delta(system), ref["A_delta"])
    close(system.B, ref["B"])
    if scheme == "modified":
        close(system.pressure_rows, ref["B"] - ref["corr"])
    else:
        assert system.pressure_rows is system.B
    for name in ("pressure_mean", "flux_mass"):
        close(getattr(system, name), ref[name])
    ns = layout.dim_sigma
    close(system.flux_mass[:, :ns, :ns], ref["pressure_mass"])
    close(rhs, ref["rhs"])
    close(uex, ref["uex"])
    close(pex, ref["pex"])


# ---------------------------------------------------------------------------
# the mass summed on the edges, and the kernels read from it
# ---------------------------------------------------------------------------

RULE_GROUPS = {
    "square-triangles": lambda j: generate_square_tri(4),
    "disk-original-law-polygons": lambda j: generate_disk_mesh(
        16, lambda h: boundary_split_count(h, j, "original")),
}


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh_name", list(RULE_GROUPS))
def test_edge_mass_matches_a_cell_rule_oracle(mesh_name, j):
    # every cell integrand of the assembly has degree <= 2j, so a 2j-exact
    # centroid fan gives what the edge sums and the derivative map give
    mesh = RULE_GROUPS[mesh_name](j)
    layout = DofLayout(mesh, j, j, j - 1)
    cells = level_cells(mesh, layout)
    system = assemble_system(mesh, layout, cells=cells)
    group = cells[-1]
    assert (group.vertices.shape[1] == 3) == (mesh_name == "square-triangles")
    assert "mass" in vars(group) and "Ve" not in vars(group)   # released, mass kept
    want = cell_rule_kernels(group)
    pairs = {
        "mass": (group.mass, want["mass"]),
        "local_mass": (local_mass(group), np.kron(np.eye(2), want["mass"])),
        "pressure_mean": (system.pressure_mean[layout.pressure_dofs(group.ids)],
                          want["pressure_mean"]),
    }
    for degree in (j, j - 1):
        pairs[f"pairings{degree}"] = (
            assembly._divergence_pairings(group, degree)[..., :group.n_int],
            want["pairings"][degree])
    for name, (got, ref) in pairs.items():
        assert got.shape == ref.shape, name
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name


# ---------------------------------------------------------------------------
# projection-rule values shared by the right-hand side and the projections
# ---------------------------------------------------------------------------

SHARED_MESHES = {
    "disk-original-law": lambda: generate_disk_mesh(
        16, lambda h: boundary_split_count(h, 2, "original")),
    "ring-fixed3": lambda: generate_ring_mesh(16, 3),
}


@pytest.mark.parametrize("mesh_name", list(SHARED_MESHES))
def test_shared_cells_give_the_same_bits_as_fresh_ones(mesh_name):
    mesh = SHARED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    case = registry_lookup(mesh.domain)
    shared = level_cells(mesh, layout)
    assemble_system(mesh, layout, scheme="modified", cells=shared)   # releases what it built
    rhs = assemble_rhs(mesh, layout, case.g, cells=shared)
    uex, pex = project_exact(mesh, case.u, case.p, layout, cells=shared)
    assert np.array_equal(rhs, assemble_rhs(mesh, layout, case.g))
    fresh_u, fresh_p = project_exact(mesh, case.u, case.p, layout)
    assert np.array_equal(uex, fresh_u)
    assert np.array_equal(pex, fresh_p)


def test_run_level_tabulates_each_projection_rule_once(monkeypatch):
    groups, points, proj_rules = [], [], []
    build, tabulate = convergence.level_cells, basis.CellBasis.eval
    make_rule = assembly.polygon_rule

    def kept_cells(*args):
        groups.extend(build(*args))
        return list(groups)

    def counted_eval(self, x, y):
        points.append(x)
        return tabulate(self, x, y)

    def recorded_rule(vertices, order, *args):
        rule = make_rule(vertices, order, *args)
        if order == projection_order(2):
            proj_rules.append((vertices, rule))
        return rule

    monkeypatch.setattr(convergence, "level_cells", kept_cells)
    monkeypatch.setattr(basis.CellBasis, "eval", counted_eval)
    monkeypatch.setattr(assembly, "polygon_rule", recorded_rule)
    run_level(StudyConfig("disk", "modified", 2, (16,), split_rule="original"), 16)
    assert len(groups) == 2 and len(proj_rules) == 2
    for group in groups:
        rules = [rule for vertices, rule in proj_rules if vertices is group.vertices]
        assert len(rules) == 1
        on_rule = [x for x in points if np.shares_memory(x, rules[0].points)]
        assert len(on_rule) == 1
        # the pass drops each group's projection tabulation once the group is done
        assert "proj_rule" not in vars(group) and "proj_values" not in vars(group)


def test_run_level_builds_one_sparse_matrix_and_no_full_matrix(monkeypatch):
    calls = []
    build, eliminate = assembly._to_csr, solver._eliminate

    def counted(*args):
        calls.append(args[1])
        return build(*args)

    def eliminated(system):
        calls.append("H")
        return eliminate(system)

    monkeypatch.setattr(assembly, "_to_csr", counted)
    monkeypatch.setattr(solver, "_eliminate", eliminated)
    run_level(StudyConfig("disk", "modified", 2, (16,), split_rule="modified"), 16)
    assert calls == ["H"]    # the multiplier system H, and no scattered global matrix


def four_builder_matrices(mesh, layout, scheme, rho):
    """A, A_delta, B and B1 scattered by one global builder each, block by kernel block.

    This is how the assembly built them before it kept cell blocks; the
    lazily built matrices must equal these bit for bit.
    """
    mode, other = ("curved", "straight") if scheme == "modified" else ("straight", "curved")
    parts = {"A": [], "A_delta": [], "B": [], "B1": []}
    for group in level_cells(mesh, layout):
        idx = group.dofs
        pidx = layout.pressure_dofs(group.ids)
        A_loc = local_stabilization(group, mode=mode, rho=rho)
        B_loc = local_pressure_coupling(group)
        parts["B"].append((pidx, idx, B_loc.copy()))
        if group.boundary.any():
            S_other = local_stabilization(group, mode=other, rho=rho)
            ni = group.n_int   # the modes differ on boundary edges, which hold no trace
            parts["A_delta"].append((idx[:, :ni], idx[:, :ni], (S_other - A_loc)[:, :ni, :ni]))
            B_loc[:, :, :group.n_int] -= local_boundary_correction(group).sum(axis=1)
        A_loc[:, :group.n_int, :group.n_int] += local_mass(group)
        parts["A"].append((idx, idx, A_loc))
        parts["B1"].append((pidx, idx, B_loc))

    nv, npr = layout.n_velocity, layout.n_pressure
    out = {name: assembly._to_csr(parts[name], (nv, nv)) for name in ("A", "A_delta")}
    out.update({name: assembly._to_csr(parts[name], (npr, nv)) for name in ("B", "B1")})
    return out


@pytest.mark.parametrize("scheme", ["original", "modified"])
@pytest.mark.parametrize("mesh_name", list(SHARED_MESHES))
def test_lazy_global_matrices_equal_the_four_builder_ones(mesh_name, scheme):
    mesh = SHARED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    system = assemble_system(mesh, layout, scheme=scheme, rho=2.5)
    ref = four_builder_matrices(mesh, layout, scheme, 2.5)
    lazy = {"A": system.A, "A_delta": a_delta(system), "B": system.B, "B1": system.pressure_rows}
    names = ("A", "A_delta", "B", "B1") if scheme == "modified" else ("A", "A_delta", "B")
    for name in names:
        got, want = lazy[name], ref[name]
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)
    if scheme == "original":
        assert system.pressure_rows is system.B


@pytest.mark.parametrize("mesh_name", list(SHARED_MESHES))
def test_modified_pressure_rows_keep_the_pattern_of_b(mesh_name):
    # the stored zeros of B (the constant pressure's interior entries) stay stored in the
    # modified scheme's pressure rows
    mesh = SHARED_MESHES[mesh_name]()
    system = assemble_system(mesh, DofLayout(mesh, 2, 2, 1), scheme="modified")
    assert np.any(system.B.data == 0.0)
    for part in ("indptr", "indices"):
        assert np.array_equal(getattr(system.pressure_rows, part), getattr(system.B, part))


def test_boundary_nineteen_gons_keep_two_traces():
    # j=2, n=64 under the original split law: 17 chords per side, so each
    # boundary cell keeps its two radial edges' traces of its 19
    mesh = generate_disk_mesh(64, lambda h: boundary_split_count(h, 2, "original"))
    layout = DofLayout(mesh, 2, 2, 1)
    polygons = [g for g in level_cells(mesh, layout) if g.vertices.shape[1] == 19]
    assert len(polygons) == 1 and polygons[0].ids.size == 64
    assert polygons[0].n_loc == 18
    assert np.all(polygons[0].dofs >= 0)


@pytest.mark.parametrize("mesh_name", list(SHARED_MESHES))
def test_l2_norms_read_the_assembled_mass_blocks(mesh_name):
    mesh = SHARED_MESHES[mesh_name]()
    layout = DofLayout(mesh, 2, 2, 1)
    system = assemble_system(mesh, layout)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(layout.n_velocity)
    p, q = rng.standard_normal((2, layout.n_pressure))
    assert l2_flux_interior_error(system, w) == block_norm(system.flux_mass,
                                                           w[:layout.n_interior])
    ns = layout.dim_sigma
    assert l2_pressure_error(system, p, q) == block_norm(system.flux_mass[:, :ns, :ns], q - p)
