"""Polygonal meshes: body-fitted generators for square/disk/ring domains,
curved-boundary geometry (chord-to-arc map, gap function, curve normals),
mesh-quality validation, and a plain-text mesh file format.

Conventions: cells are CCW vertex loops.  Each edge stores its endpoints in
the CCW traversal order of the *owning* cell (the lower-indexed adjacent
cell); the prescribed edge normal n_e is that cell's outward unit normal.
Boundary edges have exactly one adjacent cell and carry a CurvedSegment
(possibly flat).  Meshes are immutable after construction.

The mesh owns its geometry: `build_mesh` makes one `polygon_moments` pass per
cell and stores each cell's area, centroid, diameter and principal axes
(`basis.moment_axes`, equal bit for bit to what `cell_basis` computes), and
it stores every edge's length and normal.  The assembly and `validate_mesh`
read these arrays, a group of cells with one vertex count at a time
(`cell_groups`), and `segment_geometry` evaluates many boundary segments at
once.  The disk and ring generators place the corner vertices before they
subdivide the boundary chords, so a split law that depends on the mesh size
is decided from the corner loops, inside one generator call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import polygon_area, polygon_moments
from .basis import cell_diameter, moment_axes

ON_CURVE_TOL = 1e-9


class MeshError(ValueError):
    """Structurally inconsistent or degenerate mesh input."""


# ---------------------------------------------------------------------------
# curved boundary segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvedSegment:
    """Map from a straight boundary chord onto the analytic boundary curve.

    The local frame has its origin at `start` and abscissa along the chord;
    the gap is measured on the side of the chord where the curve lies
    (`side` = +1 for the +n_e side, -1 for the -n_e side, with n_e the
    right-hand normal of start -> end).
    """

    curve_id: str              # "flat" or "circle"
    start: np.ndarray
    end: np.ndarray
    center: np.ndarray | None = None
    radius: float = 0.0
    side: int = 1

    @property
    def chord_length(self) -> float:
        d = self.end - self.start
        return float(np.hypot(d[0], d[1]))

    @property
    def tangent(self) -> np.ndarray:
        return (self.end - self.start) / self.chord_length

    @property
    def chord_normal(self) -> np.ndarray:
        t = self.tangent
        return np.array([t[1], -t[0]])

    def geometry(self, xhat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (foot points, gaps, curve normals) at chord abscissae."""
        xh = np.atleast_1d(np.asarray(xhat, dtype=float))
        foot, gamma, ntilde = segment_geometry([self], xh[None, :])
        return foot[0], gamma[0], ntilde[0]


def segment_geometry(segments, xhat):
    """Foot points (S, q, 2), gaps (S, q) and curve normals (S, q, 2) on S segments.

    Row s of `xhat` (S, q) holds chord abscissae on segment s, which must lie
    in [0, its chord length].
    """
    xh = np.asarray(xhat, dtype=float)
    d = np.array([seg.end - seg.start for seg in segments])
    L = np.hypot(d[:, 0], d[:, 1])[:, None]
    outside = np.flatnonzero(((xh < -1e-12 * L) | (xh > L * (1.0 + 1e-12))).any(axis=1))
    if outside.size:
        raise ValueError(f"abscissa outside [0, {L[outside[0], 0]}]")
    tangent = d / L
    n_e = np.column_stack([tangent[:, 1], -tangent[:, 0]])[:, None, :]
    start = np.array([seg.start for seg in segments])
    foot = start[:, None, :] + xh[..., None] * tangent[:, None, :]
    gamma = np.zeros_like(xh)
    ntilde = np.repeat(n_e, xh.shape[1], axis=1)
    arcs = np.flatnonzero([seg.curve_id != "flat" for seg in segments])
    if arcs.size:
        center = np.array([segments[i].center for i in arcs])[:, None, :]
        radius = np.array([segments[i].radius for i in arcs])[:, None]
        side = np.array([segments[i].side for i in arcs])[:, None, None]
        yhat = side * n_e[arcs]
        w = foot[arcs] - center
        wy = (w * yhat).sum(axis=-1)
        disc = wy * wy + radius * radius - (w * w).sum(axis=-1)
        gamma[arcs] = np.maximum(-wy + np.sqrt(np.maximum(disc, 0.0)), 0.0)
        foot[arcs] += gamma[arcs][..., None] * yhat
        ntilde[arcs] = side * (foot[arcs] - center) / radius[..., None]
    return foot, gamma, ntilde


def flat_segment(start, end) -> CurvedSegment:
    return CurvedSegment("flat", np.asarray(start, float), np.asarray(end, float))


def circle_segment(start, end, center, radius: float) -> CurvedSegment:
    """Chord of a circle; the arc side is inferred from the chord midpoint."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    center = np.asarray(center, dtype=float)
    for p in (start, end):
        if abs(np.hypot(*(p - center)) - radius) > ON_CURVE_TOL * max(radius, 1.0):
            raise MeshError(f"chord endpoint {p} not on circle (r={radius})")
    seg = CurvedSegment("circle", start, end, center, radius, side=1)
    mid = 0.5 * (start + end)
    side = 1 if float((mid - center) @ seg.chord_normal) >= 0.0 else -1
    return CurvedSegment("circle", start, end, center, radius, side=side)


def curved_geometry(segment: CurvedSegment, xhat):
    """Foot point on the curve, gap, and outward curve normal at abscissa xhat.

    Scalar xhat gives scalar results; array xhat gives arrays.
    """
    foot, gamma, ntilde = segment.geometry(xhat)
    if np.isscalar(xhat) or np.asarray(xhat).ndim == 0:
        return foot[0], float(gamma[0]), ntilde[0]
    return foot, gamma, ntilde


# ---------------------------------------------------------------------------
# mesh container and builder
# ---------------------------------------------------------------------------

@dataclass
class PolygonalMesh:
    """Immutable polygonal mesh with adjacency, edge normals and curve data."""

    vertices: np.ndarray          # (nv, 2)
    cells: list                   # CCW vertex loops, int arrays
    edges: np.ndarray             # (ne, 2), endpoints in owner's CCW order
    edge_cells: np.ndarray        # (ne, 2), [owner, neighbor or -1]
    edge_normals: np.ndarray      # (ne, 2), owner's outward normal n_e
    edge_lengths: np.ndarray      # (ne,)
    cell_edges: list              # per cell: edge ids in traversal order
    cell_edge_signs: list         # per cell: +1 if owner else -1
    boundary_segments: dict       # boundary edge id -> CurvedSegment
    cell_areas: np.ndarray
    cell_centroids: np.ndarray
    cell_diameters: np.ndarray
    cell_axes: np.ndarray         # (nc, 2, 2), basis.moment_axes of each cell
    h: float                      # max cell diameter
    s: float                      # max boundary edge length
    domain: str = "custom"

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def boundary_edge_indices(self) -> np.ndarray:
        return np.where(self.edge_cells[:, 1] < 0)[0]

    def is_boundary_edge(self, e: int) -> bool:
        return self.edge_cells[e, 1] < 0

    def edge_points(self, e: int):
        return self.vertices[self.edges[e, 0]], self.vertices[self.edges[e, 1]]

    def edge_length(self, e: int) -> float:
        return float(self.edge_lengths[e])

    def cell_groups(self) -> list:
        """Cell ids grouped by vertex count, fewest vertices first."""
        sizes = np.array([loop.size for loop in self.cells])
        return [np.flatnonzero(sizes == m) for m in np.unique(sizes)]


def build_mesh(vertices, cells, curve_lookup=None, domain: str = "custom") -> PolygonalMesh:
    """Derive edges, adjacency, and normals from CCW cell loops.

    curve_lookup(p0, p1) -> CurvedSegment is consulted for each boundary edge
    with the stored (owner-CCW) endpoints; default is a flat segment.
    """
    verts = np.array(vertices, dtype=float)
    loops = [np.asarray(c, dtype=np.int64) for c in cells]
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    scale = max(float(np.ptp(verts[:, 0])), float(np.ptp(verts[:, 1])), 1e-300)

    areas = np.empty(len(loops))
    cents = np.empty((len(loops), 2))
    diams = np.empty(len(loops))
    axes = np.empty((len(loops), 2, 2))
    for ci, loop in enumerate(loops):
        if loop.size < 3:
            raise MeshError(f"cell {ci}: fewer than 3 vertices")
        if len(set(loop.tolist())) != loop.size:
            raise MeshError(f"cell {ci}: repeated vertex in loop")
        if loop.min() < 0 or loop.max() >= verts.shape[0]:
            raise MeshError(f"cell {ci}: vertex index out of range")
        pts = verts[loop]
        a, cents[ci], moments = polygon_moments(pts)
        if a <= 1e-14 * scale * scale:
            raise MeshError(f"cell {ci}: area {a:.3e} not positive (CCW simple loop required)")
        areas[ci] = a
        axes[ci] = moment_axes(moments)
        diams[ci] = cell_diameter(pts)

    edge_index: dict[tuple[int, int], int] = {}
    edge_list: list[tuple[int, int]] = []
    owners: list[int] = []
    neighbors: list[int] = []
    cell_edges = [[] for _ in loops]
    cell_signs = [[] for _ in loops]
    for ci, loop in enumerate(loops):
        m = loop.size
        for j in range(m):
            a, b = int(loop[j]), int(loop[(j + 1) % m])
            key = (a, b) if a < b else (b, a)
            if key not in edge_index:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append((a, b))
                owners.append(ci)
                neighbors.append(-1)
                sign = 1
            else:
                e = edge_index[key]
                if neighbors[e] >= 0:
                    raise MeshError(f"edge {key} shared by more than two cells")
                if (a, b) == edge_list[e]:
                    raise MeshError(f"edge {key} traversed twice in the same direction")
                neighbors[e] = ci
                sign = -1
            cell_edges[ci].append(e)
            cell_signs[ci].append(sign)

    edges = np.array(edge_list, dtype=np.int64)
    edge_cells = np.column_stack([np.array(owners, dtype=np.int64),
                                  np.array(neighbors, dtype=np.int64)])
    d = verts[edges[:, 1]] - verts[edges[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 1e-15 * scale):
        raise MeshError("mesh contains a zero-length edge")
    edge_normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]

    bidx = np.flatnonzero(edge_cells[:, 1] < 0)
    chords = verts[edges[bidx]]                       # (boundary edges, 2 endpoints, 2)
    lookup = flat_segment if curve_lookup is None else curve_lookup
    segments = [lookup(p0, p1) for p0, p1 in chords]
    if segments:
        ends = np.array([(seg.start, seg.end) for seg in segments])
        off = ~np.isclose(ends, chords, rtol=0.0, atol=1e-12 * scale).all(axis=(1, 2))
        if off.any():
            e = bidx[np.argmax(off)]
            raise MeshError(f"curved segment for edge {e} does not match chord endpoints")
    boundary_segments = dict(zip(bidx.tolist(), segments))
    s = float(lengths[bidx].max(initial=0.0))

    h = float(diams.max())
    if s > h * (1.0 + 1e-12):
        raise MeshError(f"boundary edge length s={s} exceeds mesh size h={h}")

    for arr in (verts, edges, edge_cells, edge_normals, lengths, areas, cents, diams, axes):
        arr.setflags(write=False)
    return PolygonalMesh(
        vertices=verts,
        cells=loops,
        edges=edges,
        edge_cells=edge_cells,
        edge_normals=edge_normals,
        edge_lengths=lengths,
        cell_edges=[np.array(e, dtype=np.int64) for e in cell_edges],
        cell_edge_signs=[np.array(sg, dtype=np.int64) for sg in cell_signs],
        boundary_segments=boundary_segments,
        cell_areas=areas,
        cell_centroids=cents,
        cell_diameters=diams,
        cell_axes=axes,
        h=h,
        s=s,
        domain=domain,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_square_tri(n: int) -> PolygonalMesh:
    """Uniform triangulation of (0,1)^2 with 2 n^2 cells; h = sqrt(2)/n."""
    if n < 1:
        raise ValueError(f"need n >= 1 cells per side, got {n}")
    def vid(i, j):
        return i * (n + 1) + j
    verts = [(i / n, j / n) for i in range(n + 1) for j in range(n + 1)]
    cells = []
    for i in range(n):
        for j in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return build_mesh(verts, cells, curve_lookup=None, domain="square")


def _disk_layers(n: int) -> int:
    """Number of concentric rings: the divisor of n closest to n/6."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return min(divisors, key=lambda d: (abs(d - n / 6.0), d))


def _split_chords(coords, cells, chords, n: int, split):
    """Subdivide boundary chords into `split` sub-chords with ends on their circles.

    `chords` holds (radius, k, cell, position, reverse) for chord k of the n
    chords on the circle of that radius about the origin; its split-1 interior
    points go into the cell's loop at `position`, in reverse angular order
    when `reverse`.  The loops hold corner vertices only on entry, so a
    callable `split` is called with their mesh size h (the largest cell
    diameter) and returns the count; the corners do not depend on it.  New
    points are numbered circle by circle, inner first, then by chord.
    """
    if callable(split):
        corners = np.array(coords, dtype=float)
        split = split(max(cell_diameter(corners[loop]) for loop in cells))
    if split < 1:
        raise ValueError(f"need split >= 1, got {split}")
    for rad, k, ci, pos, reverse in sorted(chords):
        ids = list(range(len(coords), len(coords) + split - 1))
        for i in range(1, split):
            ang = 2.0 * math.pi * (k + i / split) / n
            coords.append((rad * math.cos(ang), rad * math.sin(ang)))
        cells[ci][pos:pos] = ids[::-1] if reverse else ids


def generate_disk_mesh(n: int, split=1) -> PolygonalMesh:
    """Body-fitted mesh of the unit disk with n boundary sides.

    Concentric rings at radii l/L (L a divisor of n near n/6) carry q*l
    vertices each (q = n/L), woven into triangles whose tangential and radial
    sizes both scale like 1/n.  Each of the n boundary chords is subdivided
    into `split` sub-chords with endpoints exactly on the unit circle, so
    boundary cells become polygons with `split` short boundary edges.  A
    callable `split` maps the mesh size of the unsplit mesh to the count.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 boundary sides, got {n}")
    L = _disk_layers(n)
    q = n // L

    coords: list[tuple[float, float]] = [(0.0, 0.0)]
    ring_start = [0] * (L + 1)
    for l in range(1, L + 1):
        ring_start[l] = len(coords)
        rad = l / L
        count = q * l
        for k in range(count):
            ang = 2.0 * math.pi * k / count
            coords.append((rad * math.cos(ang), rad * math.sin(ang)))

    def ring_vertex(l, k):
        if l == 0:
            return 0
        return ring_start[l] + (k % (q * l))

    cells = []
    chords = []
    for l in range(L):
        for sct in range(q):
            for j in range(l + 1):  # triangles with an outer base
                o0 = (l + 1) * sct + j
                if l + 1 == L:
                    chords.append((1.0, o0 % n, len(cells), 2, False))
                cells.append([ring_vertex(l, l * sct + j), ring_vertex(l + 1, o0),
                              ring_vertex(l + 1, o0 + 1)])
            for j in range(l):      # triangles with an inner base
                cells.append([
                    ring_vertex(l, l * sct + j),
                    ring_vertex(l + 1, (l + 1) * sct + j + 1),
                    ring_vertex(l, l * sct + j + 1),
                ])
    _split_chords(coords, cells, chords, n, split)

    center = np.zeros(2)
    def lookup(p0, p1):
        return circle_segment(p0, p1, center, 1.0)
    return build_mesh(coords, cells, curve_lookup=lookup, domain="disk")


def generate_ring_mesh(n: int, split=1) -> PolygonalMesh:
    """Body-fitted mesh of the annulus 1/2 < r < 1 with n sides per circle.

    Structured layers of quads (split into triangles) between the circles;
    both inner and outer boundary chords are subdivided into `split`
    sub-chords with endpoints exactly on their circles (a callable `split`
    maps the mesh size of the unsplit mesh to the count).  The segments on
    the inner circle have the domain on the outside, so their gap is measured
    toward the annulus interior.
    """
    if n < 8:
        raise ValueError(f"need n >= 8 boundary sides, got {n}")
    L = max(1, round(n / (3.0 * math.pi)))

    coords: list[tuple[float, float]] = []
    def grid(l, k):
        return l * n + (k % n)
    for l in range(L + 1):
        rad = 0.5 + 0.5 * l / L
        for k in range(n):
            ang = 2.0 * math.pi * k / n
            coords.append((rad * math.cos(ang), rad * math.sin(ang)))

    cells = []
    chords = []
    for l in range(L):
        for k in range(n):
            A, B = grid(l, k), grid(l, k + 1)
            C, D = grid(l + 1, k + 1), grid(l + 1, k)
            # outward triangle (A, D, C): owns the outer chord D -> C
            if l + 1 == L:
                chords.append((1.0, k, len(cells), 2, False))
            cells.append([A, D, C])
            # inward triangle (A, C, B): owns the inner chord B -> A
            if l == 0:
                chords.append((0.5, k, len(cells), 3, True))
            cells.append([A, C, B])
    _split_chords(coords, cells, chords, n, split)

    center = np.zeros(2)
    def lookup(p0, p1):
        rad = 1.0 if abs(np.hypot(*p0) - 1.0) < 0.25 else 0.5
        return circle_segment(p0, p1, center, rad)
    return build_mesh(coords, cells, curve_lookup=lookup, domain="ring")


def boundary_split_count(h: float, j: int, rule: str) -> int:
    """Sub-chords per boundary side: ceil(h^(1/2-j)) or ceil(h^((3-2j)/4)).

    The first law gives s = O(h^(j+1/2)) (optimal for the plain scheme), the
    second s = O(sqrt(h^(j+1/2))) (optimal for the boundary-corrected one).
    """
    if h <= 0.0:
        raise ValueError(f"mesh size must be positive, got {h}")
    if j < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {j}")
    if rule == "original":
        expo = 0.5 - j
    elif rule == "modified":
        expo = (3.0 - 2.0 * j) / 4.0
    else:
        raise ValueError(f"unknown split rule '{rule}'")
    val = h ** expo
    if abs(val - round(val)) < 1e-9:
        val = round(val)
    return max(1, int(math.ceil(val)))


# ---------------------------------------------------------------------------
# quality validation (testable parts of the mesh regularity assumptions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityThresholds:
    min_star_ratio: float = 0.03        # inscribed-ball radius / h_K
    min_edge_ratio: float = 0.10        # longest cell edge / h_K
    max_quasi_uniformity: float = 10.0  # h / min h_K
    max_boundary_uniformity: float = 5.0  # s / min boundary h_e
    max_gap_ratio: float = 0.5          # gap / s^2
    max_normal_deviation: float = 1.5   # |curve normal - chord normal| / s
    samples_per_edge: int = 8


@dataclass
class MeshQualityReport:
    """Measured regularity ratios with pass/fail per assumption."""

    min_star_ratio: float
    min_edge_ratio: float
    quasi_uniformity: float
    boundary_uniformity: float
    max_gap_ratio: float
    max_normal_deviation: float
    max_normal_deviation_per_edge: float  # max over edges of |ntilde - n_e| / h_e
    checks: dict
    violations: list

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def validate_mesh(mesh: PolygonalMesh,
                  thresholds: QualityThresholds = QualityThresholds()) -> MeshQualityReport:
    """Measure the testable mesh-regularity quantities and flag violations.

    Star-shapedness is checked with respect to the cell centroid (sufficient
    for the generated mesh families); curve gaps and normals are sampled at
    interior points of each boundary chord.  Cells are measured a group of
    one vertex count at a time.
    """
    verts = mesh.vertices
    violations: list[str] = []
    star = np.empty(mesh.n_cells)
    edge_ratio = np.empty(mesh.n_cells)
    not_star = []
    for ids in mesh.cell_groups():
        # structural re-checks from the vertices (covers hand-built meshes that
        # bypass build_mesh); the measurements below read the stored geometry
        pts = verts[np.array([mesh.cells[c] for c in ids])]
        area = polygon_area(pts)
        if not np.all(area > 0.0):
            k = np.flatnonzero(~(area > 0.0))[0]
            raise MeshError(f"cell {ids[k]}: nonpositive area {area[k]:.3e}")
        for c in ids:
            if len(mesh.cell_edges[c]) != pts.shape[1]:
                raise MeshError(f"cell {c}: edge list does not close the loop")
        cen = mesh.cell_centroids[ids][:, None, :]
        a, b = pts - cen, np.roll(pts, -1, axis=1) - cen   # each edge's ends about the centroid
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        d = b - a
        t = np.clip(-(a * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
        q = a + t[..., None] * d
        rho = np.hypot(q[..., 0], q[..., 1]).min(axis=1)
        hk = mesh.cell_diameters[ids]
        star_ok = (cross > 0.0).all(axis=1)
        star[ids] = np.where(star_ok, rho / hk, 0.0)
        not_star.extend(ids[~star_ok])
        edges = np.array([mesh.cell_edges[c] for c in ids])
        edge_ratio[ids] = mesh.edge_lengths[edges].max(axis=1) / hk
    counts = np.bincount(np.concatenate(mesh.cell_edges), minlength=mesh.n_edges)
    expected = np.where(mesh.edge_cells[:, 1] < 0, 1, 2)
    if not np.array_equal(counts, expected):
        raise MeshError("edge-cell adjacency is inconsistent")
    violations += [f"A1: cell {ci} is not star-shaped from its centroid"
                   for ci in sorted(not_star)]

    min_star = float(star.min())
    min_edge = float(edge_ratio.min())
    quasi = float(mesh.h / mesh.cell_diameters.min())

    bidx = mesh.boundary_edge_indices
    buni = float(mesh.s / mesh.edge_lengths[bidx].min()) if bidx.size else 1.0

    max_gap = max_dev = max_dev_edge = 0.0
    if bidx.size:
        segments = [mesh.boundary_segments.get(int(e)) for e in bidx]
        if None in segments:
            raise MeshError(f"boundary edge {bidx[segments.index(None)]} lacks a curved segment")
        L = mesh.edge_lengths[bidx][:, None]
        msmp = thresholds.samples_per_edge
        xh = np.hstack([L * (np.arange(msmp) + 0.5) / msmp, 0.0 * L, L])
        _, gamma, ntilde = segment_geometry(segments, xh)
        dev = np.linalg.norm(ntilde[:, :msmp] - mesh.edge_normals[bidx][:, None, :],
                             axis=2).max(axis=1)
        gap = gamma[:, :msmp].max(axis=1)
        if mesh.s > 0.0:
            max_gap = float(gap.max()) / mesh.s ** 2
            max_dev = float(dev.max()) / mesh.s
        max_dev_edge = float((dev / L[:, 0]).max())
        g0 = gamma[:, msmp:].max(axis=1)
        violations += [f"A4: edge {e} endpoints off the curve (gap {g:.2e})"
                       for e, g in zip(bidx, g0) if g > 1e-12 * max(1.0, mesh.h)]

    checks = {
        "A1_star_shaped": min_star >= thresholds.min_star_ratio,
        "A2_edge_ratio": min_edge >= thresholds.min_edge_ratio,
        "A3_quasi_uniform": quasi <= thresholds.max_quasi_uniformity,
        "A4_gap": max_gap <= thresholds.max_gap_ratio,
        "A4_normal": max_dev <= thresholds.max_normal_deviation,
        "A5_boundary_uniform": buni <= thresholds.max_boundary_uniformity,
    }
    labels = {
        "A1_star_shaped": f"min star ratio {min_star:.4f}",
        "A2_edge_ratio": f"min longest-edge ratio {min_edge:.4f}",
        "A3_quasi_uniform": f"h/min h_K = {quasi:.3f}",
        "A4_gap": f"max gap/s^2 = {max_gap:.3f}",
        "A4_normal": f"max |ntilde-n|/s = {max_dev:.3f}",
        "A5_boundary_uniform": f"s/min boundary edge = {buni:.3f}",
    }
    for key, ok in checks.items():
        if not ok:
            violations.append(f"{key} failed: {labels[key]}")

    return MeshQualityReport(
        min_star_ratio=min_star,
        min_edge_ratio=min_edge,
        quasi_uniformity=quasi,
        boundary_uniformity=buni,
        max_gap_ratio=max_gap,
        max_normal_deviation=max_dev,
        max_normal_deviation_per_edge=max_dev_edge,
        checks=checks,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# mesh file format (plain JSON text, 17 significant digits, round-trip exact)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def mesh_to_text(mesh: PolygonalMesh) -> str:
    """Serialize to the documented JSON layout with 17-digit coordinates."""
    lines = ["{"]
    lines.append('"format": "wgmixed-mesh",')
    lines.append('"version": 1,')
    lines.append(f'"domain": {json.dumps(mesh.domain)},')
    vrows = ",\n".join(
        f"[{i},{_fmt(x)},{_fmt(y)}]" for i, (x, y) in enumerate(mesh.vertices)
    )
    lines.append(f'"vertices": [\n{vrows}\n],')
    crows = ",\n".join("[" + ",".join(str(int(v)) for v in loop) + "]" for loop in mesh.cells)
    lines.append(f'"cells": [\n{crows}\n],')
    brows = []
    for e in mesh.boundary_edge_indices:
        va, vb = int(mesh.edges[e, 0]), int(mesh.edges[e, 1])
        seg = mesh.boundary_segments[int(e)]
        if seg.curve_id == "circle":
            brows.append(
                f'[{va},{vb},"circle",{_fmt(seg.center[0])},{_fmt(seg.center[1])},{_fmt(seg.radius)}]'
            )
        else:
            brows.append(f'[{va},{vb},"flat"]')
    bjoined = ",\n".join(brows)
    lines.append(f'"boundary": [\n{bjoined}\n]')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mesh_from_text(text: str) -> PolygonalMesh:
    """Parse the documented JSON layout; malformed documents raise MeshError.

    The vertex rows must number 0..nv-1 with distinct coordinates, and every
    boundary edge needs exactly one curve entry, which names no other edge.
    """
    data = json.loads(text)
    if data.get("format") != "wgmixed-mesh":
        raise MeshError("not a wgmixed mesh document")
    nv = len(data["vertices"])
    if sorted(int(row[0]) for row in data["vertices"]) != list(range(nv)):
        raise MeshError(f"vertex rows must be numbered 0..{nv - 1}, each once")
    verts = np.empty((nv, 2))
    for row in data["vertices"]:
        verts[int(row[0])] = (float(row[1]), float(row[2]))
    vin = {(float(v[0]), float(v[1])): i for i, v in enumerate(verts)}
    if len(vin) != nv:
        raise MeshError(f"{nv - len(vin)} vertex rows repeat another row's coordinates")
    curve_by_pair = {}
    for row in data["boundary"]:
        key = frozenset((int(row[0]), int(row[1])))
        if key in curve_by_pair:
            raise MeshError(f"boundary edge {row[0]}-{row[1]} has two curve entries")
        curve_by_pair[key] = row[2:]

    def lookup(p0, p1):
        i0 = vin[(float(p0[0]), float(p0[1]))]
        i1 = vin[(float(p1[0]), float(p1[1]))]
        entry = curve_by_pair.pop(frozenset((i0, i1)), None)
        if entry is None:
            raise MeshError(f"boundary edge {i0}-{i1} has no curve entry")
        if entry[0] == "flat":
            return flat_segment(p0, p1)
        _, cx, cy, rad = entry
        return circle_segment(p0, p1, (float(cx), float(cy)), float(rad))

    mesh = build_mesh(verts, data["cells"], curve_lookup=lookup,
                      domain=data.get("domain", "custom"))
    if curve_by_pair:
        pairs = ", ".join("-".join(map(str, sorted(k))) for k in curve_by_pair)
        raise MeshError(f"curve entries name no boundary edge: {pairs}")
    return mesh


def write_mesh(mesh: PolygonalMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mesh_to_text(mesh))


def read_mesh(path) -> PolygonalMesh:
    with open(path, "r", encoding="utf-8") as fh:
        return mesh_from_text(fh.read())
