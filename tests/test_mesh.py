"""Mesh generators, curved-boundary geometry, validators, and the mesh file writer."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgmixed.mesh as mesh_module
from wgmixed.mesh import (
    MeshError,
    PolygonalMesh,
    boundary_split_count,
    build_mesh,
    circle_curves,
    flat_curves,
    generate_disk_mesh,
    generate_ring_mesh,
    generate_square_tri,
    mesh_to_text,
    segment_geometry,
    validate_mesh,
    write_mesh,
)
# imported here, not inside a @given test: importing the module there would
# apply its @given decorators inside a running one
from test_properties import assert_document_gives_the_mesh, perturbed_disk


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# square
# ---------------------------------------------------------------------------

def test_square_smallest():
    m = generate_square_tri(1)
    assert m.n_cells == 2
    assert len(m.vertices) == 4
    assert m.n_edges == 5
    assert m.h == pytest.approx(math.sqrt(2.0))
    assert not m.boundary_segments.arc.any()


def test_square_counts_n2():
    m = generate_square_tri(2)
    assert m.n_cells == 8
    assert len(m.vertices) == 9


def test_square_areas_n8():
    m = generate_square_tri(8)
    areas = np.array([shoelace(m.vertices[loop]) for loop in m.cells])
    assert np.allclose(areas, 1.0 / 128.0, atol=1e-15)
    assert areas.sum() == pytest.approx(1.0, abs=1e-14)


def test_square_rejects_zero():
    with pytest.raises(ValueError):
        generate_square_tri(0)


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def test_disk_boundary_vertices_on_circle():
    m = generate_disk_mesh(6, 1)
    for e in m.boundary_edge_indices:
        for v in m.edges[e]:
            assert abs(np.hypot(*m.vertices[v]) - 1.0) <= 1e-12


def test_disk_split_counts():
    m1 = generate_disk_mesh(6, 1)
    m4 = generate_disk_mesh(6, 4)
    assert len(m4.boundary_edge_indices) == 24
    # every boundary cell gains split-1 = 3 edges
    b1 = {int(m1.edge_cells[e, 0]): len(m1.cells[int(m1.edge_cells[e, 0])])
          for e in m1.boundary_edge_indices}
    b4 = {int(m4.edge_cells[e, 0]): len(m4.cells[int(m4.edge_cells[e, 0])])
          for e in m4.boundary_edge_indices}
    assert sorted(b4.values()) == sorted(v + 3 for v in b1.values())


def test_disk_polygon_area_inscribed():
    m = generate_disk_mesh(16, 1)
    area = sum(shoelace(m.vertices[loop]) for loop in m.cells)
    assert area == pytest.approx(0.5 * 16 * math.sin(2 * math.pi / 16), rel=1e-13)
    assert area < math.pi


def test_disk_area_monotone_in_split():
    areas = []
    for split in (1, 2, 4, 8):
        m = generate_disk_mesh(12, split)
        areas.append(sum(shoelace(m.vertices[loop]) for loop in m.cells))
    assert all(a < b for a, b in zip(areas, areas[1:]))
    assert areas[-1] < math.pi


def test_disk_rejects_small_n():
    with pytest.raises(ValueError):
        generate_disk_mesh(2, 1)


def test_disk_doubling_levels_stay_in_one_ring_family():
    # the ring count is the divisor of n nearest n/6, so n / rings (the cells
    # per ring sector) depends on n; every power of two keeps 8, so a doubling
    # study compares meshes of one family, while n = 72 falls in another
    for n in 2 ** np.arange(3, 12):
        assert n // mesh_module._disk_layers(int(n)) == 8, n
    assert 72 // mesh_module._disk_layers(72) == 6


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

def test_ring_boundary_radii():
    m = generate_ring_mesh(16, 1)
    for e in m.boundary_edge_indices:
        for v in m.edges[e]:
            r = np.hypot(*m.vertices[v])
            assert min(abs(r - 0.5), abs(r - 1.0)) <= 1e-12


def test_ring_area_below_annulus():
    m = generate_ring_mesh(16, 1)
    area = sum(shoelace(m.vertices[loop]) for loop in m.cells)
    assert area < 3.0 * math.pi / 4.0


def test_ring_inner_split_count():
    m = generate_ring_mesh(16, 3)
    inner = [e for e in m.boundary_edge_indices
             if abs(np.hypot(*m.vertices[m.edges[e, 0]]) - 0.5) < 1e-9]
    assert len(inner) == 48


def test_ring_inner_gap_points_into_annulus():
    # the gap on inner-circle chords is measured toward the domain interior
    m = generate_ring_mesh(16, 1)
    curves = m.boundary_segments
    inner = curves.take(np.flatnonzero(np.abs(curves.radius - 0.5) <= 1e-12))
    assert inner.edges.size == 16
    foot, gamma, ntilde = segment_geometry(inner, m.edge_lengths[inner.edges][:, None] / 2)
    assert np.all(gamma[:, 0] > 0)
    assert np.abs(np.hypot(foot[:, 0, 0], foot[:, 0, 1]) - 0.5).max() <= 1e-13
    # curve normal is outward for the annulus: toward the center
    assert np.all(np.einsum("bc,bc->b", ntilde[:, 0], foot[:, 0]) < 0)


def test_ring_rejects_small_n():
    with pytest.raises(ValueError):
        generate_ring_mesh(7, 1)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_square_tri(4),
    lambda: generate_disk_mesh(16, 1),
    lambda: generate_disk_mesh(16, 3),
    lambda: generate_ring_mesh(16, 2),
])
def test_cells_ccw_and_adjacency(mesh_fn):
    m = mesh_fn()
    for loop in m.cells:
        assert shoelace(m.vertices[loop]) > 0
    counts = np.zeros(m.n_edges, dtype=int)
    for c in range(m.n_cells):
        counts[m.cell_arrays(c)[1]] += 1
    boundary = m.edge_cells[:, 1] < 0
    assert np.all(counts[boundary] == 1)
    assert np.all(counts[~boundary] == 2)
    assert m.s <= m.h + 1e-12


@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_square_tri(3),
    lambda: generate_disk_mesh(12, 2),
    lambda: generate_ring_mesh(16, 1),
])
def test_edge_normals_unit_and_outward_of_owner(mesh_fn):
    m = mesh_fn()
    assert np.allclose(np.hypot(m.edge_normals[:, 0], m.edge_normals[:, 1]), 1.0, atol=1e-14)
    for e in range(m.n_edges):
        owner = int(m.edge_cells[e, 0])
        p0, p1 = m.vertices[m.edges[e]]
        mid = 0.5 * (p0 + p1)
        c = m.cell_centroids[owner]
        assert float((mid - c) @ m.edge_normals[e]) > 0  # points away from the owner


def test_disk_sagitta_formula():
    m = generate_disk_mesh(16, 4)
    curves = m.boundary_segments
    he = m.edge_lengths[curves.edges]
    gamma = segment_geometry(curves, he[:, None] / 2)[1][:, 0]
    exact = 1.0 - np.sqrt(1.0 - (he / 2) ** 2)
    assert np.abs(gamma - exact).max() <= 1e-12


def test_gap_vanishes_at_chord_endpoints():
    m = generate_ring_mesh(24, 2)
    curves = m.boundary_segments
    L = m.edge_lengths[curves.edges][:, None]
    _, gamma, _ = segment_geometry(curves, np.hstack([0.0 * L, L]))
    assert gamma.max() <= 1e-12


def test_curved_geometry_quarter_chord_example():
    seg = circle_curves([[(1.0, 0.0), (0.0, 1.0)]], (0.0, 0.0), 1.0)
    chord = math.hypot(1.0, 1.0)
    foot, gamma, nt = segment_geometry(seg, [[chord / 2]])
    assert np.allclose(foot[0, 0], [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-14)
    assert gamma[0, 0] == pytest.approx(1.0 - math.sqrt(2) / 2, abs=1e-14)
    assert np.allclose(nt[0, 0], [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-14)
    with pytest.raises(ValueError):
        segment_geometry(seg, [[-0.1]])
    with pytest.raises(ValueError):
        segment_geometry(seg, [[chord * 1.01]])


def test_flat_segment_geometry():
    seg = flat_curves([[(0.0, 0.0), (2.0, 0.0)]])
    foot, gamma, nt = segment_geometry(seg, np.linspace(0, 2, 5)[None, :])
    assert np.allclose(gamma, 0.0)
    assert np.allclose(nt, [0.0, -1.0])  # right-hand normal of +x direction
    assert np.allclose(foot[..., 1], 0.0)


def test_normal_deviation_bounded_by_edge_length():
    for m in (generate_disk_mesh(16, 1), generate_disk_mesh(32, 3),
              generate_ring_mesh(16, 1), generate_ring_mesh(32, 2)):
        curves = m.boundary_segments
        L = m.edge_lengths[curves.edges][:, None]
        nt = segment_geometry(curves, L * (np.arange(16) + 0.5) / 16.0)[2]
        dev = np.linalg.norm(nt - m.edge_normals[curves.edges][:, None, :], axis=2).max(axis=1)
        assert np.all(dev <= L[:, 0])


# ---------------------------------------------------------------------------
# split-count law
# ---------------------------------------------------------------------------

def test_boundary_split_count_examples():
    assert boundary_split_count(1 / 8, 2, "original") == 23
    assert boundary_split_count(1 / 8, 2, "modified") == 2
    assert boundary_split_count(1 / 4, 1, "original") == 2


def test_boundary_split_count_errors():
    with pytest.raises(ValueError):
        boundary_split_count(0.0, 1, "original")
    with pytest.raises(ValueError):
        boundary_split_count(0.5, 0, "original")
    with pytest.raises(ValueError):
        boundary_split_count(0.5, 1, "quartic")


@settings(max_examples=50, deadline=None)
@given(
    h=st.floats(min_value=1e-3, max_value=1.0),
    j=st.integers(min_value=1, max_value=4),
    rule=st.sampled_from(["original", "modified"]),
)
def test_boundary_split_count_positive_and_monotone(h, j, rule):
    k = boundary_split_count(h, j, rule)
    assert k >= 1
    assert boundary_split_count(h / 2, j, rule) >= k


# ---------------------------------------------------------------------------
# validation and builder errors
# ---------------------------------------------------------------------------

def test_validate_square_passes_with_unit_edge_ratio():
    rep = validate_mesh(generate_square_tri(5))
    assert rep.passed
    assert rep.min_edge_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.quasi_uniformity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_disk_mesh(16, 1),
    lambda: generate_disk_mesh(32, 4),
    lambda: generate_ring_mesh(16, 1),
    lambda: generate_ring_mesh(32, 3),
])
def test_validate_generated_meshes_pass(mesh_fn):
    rep = validate_mesh(mesh_fn())
    assert rep.passed, rep.violations


def test_gap_ratio_stable_under_refinement():
    ratios = [validate_mesh(generate_disk_mesh(n, 4)).max_gap_ratio for n in (16, 32, 64)]
    # unit-circle sagitta of a chord of length s is about s^2/8
    for r in ratios:
        assert r == pytest.approx(0.125, rel=0.05)


def test_builder_rejects_degenerate_and_inconsistent():
    with pytest.raises(MeshError):
        build_mesh([(0, 0), (1, 0), (2, 0)], [[0, 1, 2]])  # zero area
    with pytest.raises(MeshError):
        build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2], [0, 2, 1]])  # same direction twice
    with pytest.raises(MeshError):
        # clockwise loop
        build_mesh([(0, 0), (1, 0), (1, 1)], [[0, 2, 1]])


# ---------------------------------------------------------------------------
# the array-built mesh against the per-cell and per-edge code it replaced
# ---------------------------------------------------------------------------

def reference_numbering(cells):
    """Dict-based edge numbering: edges by first appearance in cell order, each
    stored in its first (owning) cell's direction; signs -1 on the second cell."""
    index, ends, owners, neighbors, cell_edges, cell_signs = {}, [], [], [], [], []
    for ci, loop in enumerate(cells):
        loop = [int(v) for v in loop]
        edges, signs = [], []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(ends)
                ends.append((a, b))
                owners.append(ci)
                neighbors.append(-1)
                signs.append(1)
            else:
                neighbors[index[key]] = ci
                signs.append(-1)
            edges.append(index[key])
        cell_edges.append(edges)
        cell_signs.append(signs)
    return np.array(ends), np.column_stack([owners, neighbors]), cell_edges, cell_signs


def reference_area_centroid(pts):
    """First shoelace pass, one vertex at a time in plain Python."""
    pts = np.asarray(pts, dtype=float).tolist()
    x0, y0 = pts[0]
    a2 = sx = sy = 0.0
    px, py = pts[-1][0] - x0, pts[-1][1] - y0
    for x, y in pts:
        qx, qy = x - x0, y - y0
        c = px * qy - qx * py
        a2 += c
        sx += (px + qx) * c
        sy += (py + qy) * c
        px, py = qx, qy
    return 0.5 * a2, (x0 + sx / (3.0 * a2), y0 + sy / (3.0 * a2))


def reference_diameter(pts):
    v = np.asarray(pts, dtype=float)
    return float(np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2).max()))


def reference_circle_side(p0, p1, center, radius):
    """Per-edge circle lookup: endpoint check, then the side of the chord midpoint."""
    p0, p1, center = (np.asarray(p, dtype=float) for p in (p0, p1, center))
    for p in (p0, p1):
        if abs(np.hypot(*(p - center)) - radius) > 1e-9 * max(radius, 1.0):
            raise MeshError(f"chord endpoint {p} not on circle (r={radius})")
    t = (p1 - p0) / float(np.hypot(*(p1 - p0)))
    return 1 if float((0.5 * (p0 + p1) - center) @ np.array([t[1], -t[0]])) >= 0.0 else -1


def disk_radius(p0):
    return 1.0


def ring_radius(p0):
    return 1.0 if abs(np.hypot(*p0) - 1.0) < 0.25 else 0.5


def assert_builder_matches_references(mesh, radius_of):
    """Numbering, adjacency, signs, cell geometry and curve sides equal the
    per-cell and per-edge references bit for bit; radius_of(p0) gives the
    circle of a boundary chord (None: flat)."""
    ends, edge_cells, cell_edges, cell_signs = reference_numbering(mesh.cells)
    assert np.array_equal(mesh.edges, ends)
    assert np.array_equal(mesh.edge_cells, edge_cells)
    views = [mesh.cell_arrays(c) for c in range(mesh.n_cells)]
    assert [e.tolist() for _, e, _ in views] == cell_edges
    assert [sg.tolist() for _, _, sg in views] == cell_signs
    for c, loop in enumerate(mesh.cells):
        pts = mesh.vertices[loop]
        area, centroid = reference_area_centroid(pts)
        assert mesh.cell_areas[c] == area
        assert tuple(mesh.cell_centroids[c]) == centroid
        assert mesh.cell_diameters[c] == reference_diameter(pts)
    assert mesh.h == max(mesh.cell_diameters)
    bidx = mesh.boundary_edge_indices
    curves = mesh.boundary_segments
    assert np.array_equal(curves.edges, bidx)
    assert np.array_equal(curves.rows(bidx), np.arange(bidx.size))
    assert mesh.s == max(float(np.hypot(*(mesh.vertices[b] - mesh.vertices[a])))
                         for a, b in mesh.edges[bidx])
    for k, e in enumerate(bidx):
        p0, p1 = mesh.vertices[mesh.edges[e]]
        assert np.array_equal(curves.start[k], p0) and np.array_equal(curves.end[k], p1)
        rad = radius_of(p0)
        if rad is None:
            assert not curves.arc[k] and curves.side[k] == 1
        else:
            assert curves.arc[k] and curves.radius[k] == rad
            assert curves.side[k] == reference_circle_side(p0, p1, (0.0, 0.0), rad)
    # the generators' padded loop arrays and a list of loops build the same mesh
    again = build_mesh(mesh.vertices, [list(loop) for loop in mesh.cells])
    for name in ("edges", "edge_cells", "cell_areas", "cell_centroids", "cell_diameters",
                 "cell_axes", "cell_slots"):
        assert np.array_equal(getattr(again, name), getattr(mesh, name))


EQUIVALENCE_MESHES = {
    "disk-split1": (lambda: generate_disk_mesh(16, 1), disk_radius),
    "disk-original-law": (lambda: generate_disk_mesh(
        32, lambda h: boundary_split_count(h, 2, "original")), disk_radius),
    "disk-modified-law": (lambda: generate_disk_mesh(
        32, lambda h: boundary_split_count(h, 2, "modified")), disk_radius),
    "ring-split1": (lambda: generate_ring_mesh(16, 1), ring_radius),
    "ring-split3": (lambda: generate_ring_mesh(24, 3), ring_radius),
    "square": (lambda: generate_square_tri(5), lambda p0: None),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_MESHES))
def test_builder_matches_per_cell_and_per_edge_references(name):
    mesh_fn, radius_of = EQUIVALENCE_MESHES[name]
    assert_builder_matches_references(mesh_fn(), radius_of)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 12, 16]),
       split=st.sampled_from([1, 3]))
def test_builder_matches_references_on_perturbed_disks(seed, n, split):
    assert_builder_matches_references(perturbed_disk(n, split, np.random.default_rng(seed)),
                                      disk_radius)


TRIANGLE_PAIR = [(0, 0), (1, 0), (1, 1), (0, 1)]


def _shift_corner_curves(ends, chords):
    moved = chords.copy()
    moved[:, 1] += 1e-6
    return flat_curves(moved)


@pytest.mark.parametrize("vertices, cells, lookup, message", [
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2]], None, "cell 1: fewer than 3 vertices"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2, 2]], None, "cell 1: repeated vertex"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2, 7]], None, "cell 1: vertex index out of range"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2, -1]], None, "cell 1: vertex index out of range"),
    (TRIANGLE_PAIR, np.array([[0, 1, 2, -1], [0, -1, 2, 3]]), None,
     "cell 1: vertex index out of range"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 3, 2]], None, "cell 1: area .* not positive"),
    ([(0, 0), (1, 0), (1, 1)], [[0, 2, 1]], None, "cell 0: area .* not positive"),
    ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)], [[0, 1, 2], [1, 0, 3], [0, 1, 4]], None,
     r"edge \(0, 1\) shared by more than two cells"),
    ([(0, 0), (1, 0), (0.5, 1), (0.5, 0.5)], [[0, 1, 2], [0, 1, 3]], None,
     r"edge \(0, 1\) traversed twice in the same direction"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2, 3]],
     lambda ends, chords: circle_curves(chords, (0.0, 0.0), 1.0), "not on circle"),
    (TRIANGLE_PAIR, [[0, 1, 2], [0, 2, 3]], _shift_corner_curves,
     "segment for edge 0 does not match chord"),
], ids=["short", "repeated", "index-high", "index-negative", "padding-gap", "clockwise",
        "clockwise-alone", "three-cells", "same-direction", "off-circle", "off-chord"])
def test_every_builder_fault_is_named(vertices, cells, lookup, message):
    with pytest.raises(MeshError, match=message):
        build_mesh(vertices, cells, curve_lookup=lookup)


def test_boundary_edge_longer_than_h_is_named(monkeypatch):
    # no loop has an edge longer than its diameter, so the guard needs diameters shrunk
    diameter = mesh_module.cell_diameter
    monkeypatch.setattr(mesh_module, "cell_diameter", lambda v: 0.5 * diameter(v))
    with pytest.raises(MeshError, match=r"boundary edge 0: length s=1.0 exceeds mesh size"):
        build_mesh(TRIANGLE_PAIR, [[0, 1, 2], [0, 2, 3]])


def test_builder_rejects_segment_off_its_chord():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cells = [[0, 1, 2], [0, 2, 3]]
    plain = build_mesh(verts, cells)
    index = {tuple(sorted(map(int, plain.edges[e]))): int(e) for e in plain.boundary_edge_indices}

    def lookup_moving(dy):
        # the segments of the two boundary edges at corner (1, 1) end dy above their chords
        def lookup(ends, chords):
            moved = chords.copy()
            moved[(chords == (1.0, 1.0)).all(axis=2).any(axis=1), 1, 1] += dy
            return flat_curves(moved)
        return lookup

    first = min(index[(1, 2)], index[(2, 3)])   # the first offending edge is named
    with pytest.raises(MeshError, match=rf"segment for edge {first} does not match chord"):
        build_mesh(verts, cells, curve_lookup=lookup_moving(1e-9))
    ok = build_mesh(verts, cells, curve_lookup=lookup_moving(0.5e-12))
    assert sorted(ok.boundary_segments.edges.tolist()) == sorted(index.values())


def test_validate_rejects_hacked_zero_area_cell():
    m = generate_square_tri(2)
    verts = m.vertices.copy()
    verts[4] = verts[0]  # collapse one interior vertex onto another
    hacked = PolygonalMesh(**{**m.__dict__, "vertices": verts})
    with pytest.raises(MeshError):
        validate_mesh(hacked)


@pytest.mark.parametrize("fault", ["missing", "interior", "reversed"])
def test_validate_rejects_curves_that_are_not_one_per_boundary_edge(fault):
    m = generate_disk_mesh(8, 1)
    curves, bidx = m.boundary_segments, m.boundary_edge_indices
    inner = int(np.flatnonzero(m.edge_cells[:, 1] >= 0)[0])
    rows = {"missing": curves.take(curves.edges != bidx[0]),
            "interior": dataclasses.replace(curves, edges=np.where(curves.edges == bidx[0],
                                                                   inner, curves.edges)),
            "reversed": curves.take(np.arange(bidx.size)[::-1])}[fault]
    hacked = PolygonalMesh(**{**m.__dict__, "boundary_segments": rows})
    with pytest.raises(MeshError, match="not one per boundary edge, in order"):
        validate_mesh(hacked)
    assert validate_mesh(m).passed


def test_circle_segment_rejects_off_circle_endpoints():
    with pytest.raises(MeshError):
        circle_curves([[(1.1, 0.0), (0.0, 1.0)]], (0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# file format: written only, read back by any JSON reader
# ---------------------------------------------------------------------------

SQUARE_N1_TEXT = """{
"format": "wgmixed-mesh",
"version": 1,
"domain": "square",
"vertices": [
[0,0,0],
[1,0,1],
[2,1,0],
[3,1,1]
],
"cells": [
[0,2,3],
[0,3,1]
],
"boundary": [
[0,2,"flat"],
[2,3,"flat"],
[3,1,"flat"],
[1,0,"flat"]
]
}
"""

DISK_N3_TEXT = """{
"format": "wgmixed-mesh",
"version": 1,
"domain": "disk",
"vertices": [
[0,0,0],
[1,1,0],
[2,-0.49999999999999978,0.86602540378443871],
[3,-0.50000000000000044,-0.86602540378443837]
],
"cells": [
[0,1,2],
[0,2,3],
[0,3,1]
],
"boundary": [
[1,2,"circle",0,0,1],
[2,3,"circle",0,0,1],
[3,1,"circle",0,0,1]
]
}
"""


@pytest.mark.parametrize("mesh_fn, text", [
    (lambda: generate_square_tri(1), SQUARE_N1_TEXT),
    (lambda: generate_disk_mesh(3), DISK_N3_TEXT),
], ids=["square_n1", "disk_n3"])
def test_mesh_text_layout_is_pinned(mesh_fn, text, tmp_path):
    mesh = mesh_fn()
    assert mesh_to_text(mesh) == text
    write_mesh(mesh, tmp_path / "mesh.json")
    assert (tmp_path / "mesh.json").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_square_tri(3),
    lambda: generate_disk_mesh(12, 2),
    lambda: generate_ring_mesh(16, 1),
    lambda: generate_disk_mesh(12, 1),
])
def test_mesh_text_roundtrip_bit_identical(mesh_fn):
    # the round trip is through the standard JSON reader: the package reads no mesh
    assert_document_gives_the_mesh(mesh_fn())


@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_disk_mesh(16, 5),
    lambda: generate_ring_mesh(16, 3),
], ids=["disk_split", "ring_split"])
def test_stored_geometry_equals_standalone_functions(mesh_fn):
    from wgmixed.basis import cell_diameter
    from reference import principal_axes
    from wgmixed.quadrature import edge_rule, polygon_area, polygon_centroid

    mesh = mesh_fn()
    for c, loop in enumerate(mesh.cells):
        pts = mesh.vertices[loop]
        assert mesh.cell_areas[c] == polygon_area(pts)
        assert np.array_equal(mesh.cell_centroids[c], polygon_centroid(pts))
        assert mesh.cell_diameters[c] == cell_diameter(pts)
        assert np.array_equal(mesh.cell_axes[c], principal_axes(pts))
    for e in range(mesh.n_edges):
        p0, p1 = mesh.vertices[mesh.edges[e]]
        # the one-point rule's weight is the edge length times 1.0
        assert mesh.edge_lengths[e] == edge_rule(p0, p1, 0)[1][0]


@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_disk_mesh(16, 3),
    lambda: generate_disk_mesh(64, 17),
    lambda: generate_ring_mesh(16, 3),
], ids=["disk_fixed3", "disk_split17", "ring_fixed3"])
def test_quality_ratios_match_a_per_cell_loop(mesh_fn):
    # the validator measures a group of same-size cells at a time
    mesh = mesh_fn()
    star, ratio = [], []
    for c, loop in enumerate(mesh.cells):
        pts, cen, hk = mesh.vertices[loop], mesh.cell_centroids[c], mesh.cell_diameters[c]
        dist = []
        for a, b in zip(pts, np.roll(pts, -1, axis=0)):
            assert (a[0] - cen[0]) * (b[1] - cen[1]) - (a[1] - cen[1]) * (b[0] - cen[0]) > 0.0
            t = min(max(float((cen - a) @ (b - a)) / float((b - a) @ (b - a)), 0.0), 1.0)
            dist.append(math.hypot(*(cen - a - t * (b - a))))
        star.append(min(dist) / hk)
        ratio.append(mesh.edge_lengths[mesh.cell_arrays(c)[1]].max() / hk)
    rep = validate_mesh(mesh)
    assert rep.min_star_ratio == pytest.approx(min(star), rel=1e-14)
    assert rep.min_edge_ratio == pytest.approx(min(ratio), rel=1e-14)
    assert rep.passed and not rep.violations


def test_validator_flags_cell_not_star_shaped():
    # a chevron whose centroid (7/3, 2) lies outside it, beside a triangle
    mesh = build_mesh([(0, 0), (4, 2), (0, 4), (3, 2), (2, -2)], [[1, 0, 4], [0, 1, 2, 3]])
    rep = validate_mesh(mesh)
    assert rep.min_star_ratio == 0.0 and not rep.checks["A1_star_shaped"]
    assert [v for v in rep.violations if v.startswith("A1:")] == [
        "A1: cell 1 is not star-shaped from its centroid"]
