"""Properties of the grouped cell kernels and of the mesh file on randomly perturbed disk meshes.

The interior vertices of a disk mesh (split boundary chords included) move by
up to 20% of the smallest diameter of the cells around them; the boundary
vertices stay on the circle.  On every such mesh the WG interpolant of a
[P_j]^2 field (cell projections, and edge projections of u . n_e on the
interior edges) has zero straight-mode stabilization on the interior cells,
and the weak divergence commutes there with the L2 projection onto P_j; a
boundary cell, whose boundary edges carry no trace, is checked wrapped by a
ring of quads, which makes each of its edges interior.  The cell bases of
degrees 0-5 on every cell group equal the power-table reference bit for bit,
and the standard JSON reader gets the mesh's vertices, loops and boundary curves back from
the written text bit for bit.
"""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgmixed.assembly import (
    CellGroup,
    DofLayout,
    level_cells,
    local_stabilization,
)
from wgmixed.basis import cell_basis, graded_lex_exponents, project_cell
from wgmixed.convergence import project_exact
from wgmixed.mesh import (
    build_mesh,
    circle_curves,
    generate_disk_mesh,
    mesh_to_text,
    validate_mesh,
)

from reference import (
    indexed_derivatives,
    local_weak_divergence,
    power_table_values,
    wrapped_cell,
)


def perturbed_disk(n, split, rng, fraction=0.2):
    base = generate_disk_mesh(n, split)
    on_boundary = np.zeros(len(base.vertices), dtype=bool)
    on_boundary[base.edges[base.boundary_edge_indices].ravel()] = True
    local_h = np.full(len(base.vertices), np.inf)
    for c, loop in enumerate(base.cells):
        local_h[loop] = np.minimum(local_h[loop], base.cell_diameters[c])
    radius = fraction * local_h * np.sqrt(rng.uniform(size=len(base.vertices)))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=len(base.vertices))
    shift = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    verts = base.vertices + np.where(on_boundary[:, None], 0.0, shift)
    return build_mesh(verts, base.cells,
                      lambda ends, chords: circle_curves(chords, (0.0, 0.0), 1.0), domain="disk")


def polynomial_field(j, rng):
    exps = graded_lex_exponents(j)
    cu = rng.normal(size=(2, exps.shape[0]))
    a, b = exps[:, 0], exps[:, 1]

    def monomials(x, y, a=a, b=b):
        return x[..., None] ** a * y[..., None] ** b

    def u(x, y):
        V = monomials(x, y)
        return np.stack([V @ cu[0], V @ cu[1]], axis=-1)

    def div_u(x, y):
        dx = a * monomials(x, y, np.maximum(a - 1, 0), b)
        dy = b * monomials(x, y, a, np.maximum(b - 1, 0))
        return dx @ cu[0] + dy @ cu[1]

    return u, div_u


def assert_interpolant_is_consistent(group, coeffs, div_u):
    """Zero stabilization and a commuting weak divergence for the WG interpolant
    `coeffs` on a group whose cells' edges are all interior."""
    x = coeffs[group.dofs]
    S, diff = local_stabilization(group)
    assert diff is None
    energy = np.einsum("gi,gij,gj->", x, S, x)
    assert energy <= 1e-12 * np.einsum("gi,gij,gj->", np.abs(x), np.abs(S), np.abs(x))

    got = np.einsum("gij,gj->gi", local_weak_divergence(group), x)
    expect = project_cell(group.vertices, div_u, group.layout.beta, basis=group.basis,
                          rule=group.proj_rule)
    assert np.abs(got - expect).max() <= 1e-10 * max(1.0, np.abs(expect).max())


def wg_interpolant(mesh, layout, u):
    """Projections of u on the cells and of u . n_e on the interior edges."""
    return project_exact(mesh, u, lambda x, y: np.zeros_like(x), layout)[0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 3), n=st.sampled_from([8, 12, 16]),
       split=st.sampled_from([1, 3]))
def test_grouped_kernels_on_perturbed_disks(seed, j, n, split):
    rng = np.random.default_rng(seed)
    mesh = perturbed_disk(n, split, rng)
    assume(not any(v.startswith("A1:") for v in validate_mesh(mesh).violations))
    layout = DofLayout(mesh, j, j, j - 1)
    u, div_u = polynomial_field(j, rng)
    coeffs = wg_interpolant(mesh, layout, u)
    for group in level_cells(mesh, layout):
        if not group.boundary.any():
            assert_interpolant_is_consistent(group, coeffs, div_u)
            continue
        for loop in group.vertices:
            wrapped = wrapped_cell(loop)
            lay = DofLayout(wrapped, j, j, j - 1)
            assert_interpolant_is_consistent(CellGroup(wrapped, [0], lay),
                                             wg_interpolant(wrapped, lay, u), div_u)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 12, 16]),
       split=st.sampled_from([1, 3]))
def test_group_bases_bitwise_equal_power_table_on_perturbed_disks(seed, n, split):
    mesh = perturbed_disk(n, split, np.random.default_rng(seed))
    for group in level_cells(mesh, DofLayout(mesh, 1, 1, 0)):
        x, y = group.proj_rule.points[..., 0], group.proj_rule.points[..., 1]
        for degree in range(6):
            bas = cell_basis(group.vertices, degree, group.basis.center, group.basis.axes)
            assert np.array_equal(bas.eval(x, y), power_table_values(bas, x, y))
            assert np.array_equal(bas.derivatives(), indexed_derivatives(bas))


def assert_document_gives_the_mesh(mesh):
    """json.loads of the mesh's text gives its vertices bit for bit, its loops
    and its boundary rows (edge ends, curve kind, center and radius)."""
    doc = json.loads(mesh_to_text(mesh))
    assert (doc["format"], doc["version"], doc["domain"]) == ("wgmixed-mesh", 1, mesh.domain)
    rows = np.array(doc["vertices"], dtype=float)
    assert np.array_equal(rows[:, 0], np.arange(len(mesh.vertices)))
    assert rows[:, 1:].tobytes() == mesh.vertices.tobytes()     # signed zeros included
    assert doc["cells"] == [mesh.cell_arrays(c)[0].tolist() for c in range(mesh.n_cells)]
    curves = mesh.boundary_segments
    boundary = doc["boundary"]
    assert [row[:2] for row in boundary] == mesh.edges[curves.edges].tolist()
    assert [(row[2], len(row)) for row in boundary] == [
        ("circle", 6) if a else ("flat", 3) for a in curves.arc]
    circles = np.array([row[3:] or [0.0] * 3 for row in boundary], dtype=float)
    assert circles.tobytes() == np.column_stack([curves.center, curves.radius]).tobytes()


def test_negative_zeros_read_back_negative():
    # ".17g" alone writes -0.0 as "-0", which json reads as the integer 0
    square = build_mesh([(-0.0, -0.0), (1.0, -0.0), (1.0, 1.0), (-0.0, 1.0)], [[0, 1, 2, 3]])
    disk = generate_disk_mesh(8, 1)
    centered = build_mesh(disk.vertices, disk.cells,
                          lambda ends, chords: circle_curves(chords, (-0.0, -0.0), 1.0),
                          domain="disk")
    assert np.signbit(square.vertices).sum() == 4
    assert np.signbit(centered.boundary_segments.center).all()
    for mesh in (square, centered):
        assert_document_gives_the_mesh(mesh)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 12, 16]),
       split=st.sampled_from([1, 3]))
def test_perturbed_disk_text_round_trip(seed, n, split):
    assert_document_gives_the_mesh(perturbed_disk(n, split, np.random.default_rng(seed)))
