"""Polygonal meshes: body-fitted generators for square/disk/ring domains,
curved-boundary geometry (chord-to-arc map, gap function, curve normals),
mesh-quality validation, and a plain-text mesh file writer.

Conventions: cells are CCW vertex loops.  Each edge stores its endpoints in
the CCW traversal order of the *owning* cell (the lower-indexed adjacent
cell); the prescribed edge normal n_e is that cell's outward unit normal.
Boundary edges have exactly one adjacent cell and carry curve data
(possibly flat).  Meshes are immutable after construction.

A mesh is built in stacked numpy passes, never one cell or one boundary edge
at a time.  `build_mesh` first numbers the edges in order of first
appearance, by one `np.unique` over the vertex-pair keys of all half-edges.
It then groups the cells once by kind, vertex count and then boundary-edge
count, and stores each group's loops, edge ids and edge signs as (G, m)
arrays (`CellLoops`, in `groups`): the cells of a group have the same
number of interior edges, and either all of them touch the boundary or none
does.  It makes one `polygon_moments` and `cell_diameter` pass per group and
one `moment_axes` pass over all cells, and stores each cell's area,
centroid, diameter and principal axes (equal bit for bit to what
`cell_basis` computes for the cell alone), and every edge's length and
normal.  The curve lookup is called once with every boundary chord and
returns `BoundaryCurves`, arrays of centers, radii and sides that
`segment_geometry` evaluates on many chords at once; it is the only curve
representation, and one chord is a one-row stack.  The assembly and
`validate_mesh` read the stored arrays, a group at a time.  The disk and
ring generators place the corner vertices before they subdivide the
boundary chords, so a split law that depends on the mesh size is decided
from the corner loops, inside one generator call.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections.abc import Sequence
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

@dataclass(frozen=True, eq=False)
class BoundaryCurves:
    """Curve data of a stack of B boundary chords, one row per chord.

    Row k maps the chord start[k] -> end[k] of edge edges[k] onto the arc of
    the circle about center[k] with radius[k] where arc[k] holds, and onto
    itself (a flat segment) elsewhere.  The gap is measured on the side of
    the chord where the curve lies: side[k] = +1 for the +n_e side, -1 for
    the -n_e side, with n_e the right-hand normal of start -> end.
    """

    edges: np.ndarray      # (B,) edge ids, ascending
    start: np.ndarray      # (B, 2)
    end: np.ndarray        # (B, 2)
    arc: np.ndarray        # (B,) bool
    center: np.ndarray     # (B, 2), zero on flat rows
    radius: np.ndarray     # (B,), zero on flat rows
    side: np.ndarray       # (B,) +1 or -1

    def rows(self, edges) -> np.ndarray:
        """Row of each edge id in `edges`, -1 where the edge has no curve."""
        e = np.asarray(edges, dtype=np.int64)
        if self.edges.size == 0:
            return np.full(e.shape, -1, dtype=np.int64)
        k = np.minimum(np.searchsorted(self.edges, e), self.edges.size - 1)
        return np.where(self.edges[k] == e, k, -1)

    def take(self, rows) -> "BoundaryCurves":
        """The curves of rows `rows`, in that order."""
        return BoundaryCurves(*(getattr(self, f.name)[rows] for f in dataclasses.fields(self)))


def segment_geometry(curves: BoundaryCurves, xhat):
    """Foot points (B, q, 2), gaps (B, q) and curve normals (B, q, 2) on B chords.

    Row k of `xhat` (B, q) holds abscissae on the chord of row k of `curves`,
    which must lie in [0, its length].
    """
    xh = np.asarray(xhat, dtype=float)
    d = curves.end - curves.start
    L = np.hypot(d[:, 0], d[:, 1])[:, None]
    outside = np.flatnonzero(((xh < -1e-12 * L) | (xh > L * (1.0 + 1e-12))).any(axis=1))
    if outside.size:
        raise ValueError(f"abscissa outside [0, {L[outside[0], 0]}]")
    tangent = d / L
    n_e = np.column_stack([tangent[:, 1], -tangent[:, 0]])[:, None, :]
    foot = curves.start[:, None, :] + xh[..., None] * tangent[:, None, :]
    gamma = np.zeros_like(xh)
    ntilde = np.repeat(n_e, xh.shape[1], axis=1)
    arcs = np.flatnonzero(curves.arc)
    if arcs.size:
        center = curves.center[arcs][:, None, :]
        radius = curves.radius[arcs][:, None]
        side = curves.side[arcs][:, None, None]
        yhat = side * n_e[arcs]
        w = foot[arcs] - center
        wy = (w * yhat).sum(axis=-1)
        disc = wy * wy + radius * radius - (w * w).sum(axis=-1)
        gamma[arcs] = np.maximum(-wy + np.sqrt(np.maximum(disc, 0.0)), 0.0)
        foot[arcs] += gamma[arcs][..., None] * yhat
        ntilde[arcs] = side * (foot[arcs] - center) / radius[..., None]
    return foot, gamma, ntilde


def circle_curves(chords, center, radius) -> BoundaryCurves:
    """Curves of B chords (B, 2, 2) on circles about one `center` (2,).

    `radius` (a scalar or (B,)) gives each chord's circle.  Both ends of a
    chord must lie on its circle; the arc side is inferred from the chord
    midpoint.  Row k is edge k.
    """
    ch = np.asarray(chords, dtype=float).reshape(-1, 2, 2)
    B = ch.shape[0]
    center = np.full((B, 2), center, dtype=float)
    radius = np.full(B, radius, dtype=float)
    r = ch - center[:, None, :]
    off = (np.abs(np.hypot(r[..., 0], r[..., 1]) - radius[:, None])
           > ON_CURVE_TOL * np.maximum(radius, 1.0)[:, None])
    if off.any():
        k, i = np.argwhere(off)[0]
        raise MeshError(f"chord endpoint {ch[k, i]} not on circle (r={radius[k]})")
    d = ch[:, 1] - ch[:, 0]
    t = d / np.hypot(d[:, 0], d[:, 1])[:, None]
    w = 0.5 * (ch[:, 0] + ch[:, 1]) - center
    side = np.where(w[:, 0] * t[:, 1] - w[:, 1] * t[:, 0] >= 0.0, 1, -1)
    return BoundaryCurves(np.arange(B), ch[:, 0], ch[:, 1], np.ones(B, dtype=bool), center,
                          radius, side)


def flat_curves(chords) -> BoundaryCurves:
    """Flat curves of B chords (B, 2, 2); row k is edge k."""
    ch = np.asarray(chords, dtype=float).reshape(-1, 2, 2)
    B = ch.shape[0]
    return BoundaryCurves(np.arange(B), ch[:, 0], ch[:, 1], np.zeros(B, dtype=bool),
                          np.zeros((B, 2)), np.zeros(B), np.ones(B, dtype=np.int64))


# ---------------------------------------------------------------------------
# mesh container and builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CellLoops:
    """The cells of one kind (vertex count m and boundary-edge count), stacked
    with the group axis first."""

    ids: np.ndarray        # (G,) cell ids, ascending
    loops: np.ndarray      # (G, m) CCW vertex loops
    edges: np.ndarray      # (G, m) edge ids in traversal order
    signs: np.ndarray      # (G, m) +1 where the cell owns the edge, else -1


class _CellRows(Sequence):
    """Per-cell view of a mesh's group loops: item c is cell c's CCW vertex loop."""

    def __init__(self, mesh: "PolygonalMesh"):
        self._loops = [g.loops for g in mesh.groups]
        self._slots = mesh.cell_slots

    def __len__(self) -> int:
        return self._slots.shape[0]

    def __getitem__(self, c):
        g, r = self._slots[c]
        return self._loops[g][r]


@dataclass
class PolygonalMesh:
    """Immutable polygonal mesh with adjacency, edge normals and curve data."""

    vertices: np.ndarray          # (nv, 2)
    groups: tuple                 # CellLoops per kind: by vertex count, then boundary edges
    cell_slots: np.ndarray        # (nc, 2): each cell's group and row in it
    edges: np.ndarray             # (ne, 2), endpoints in owner's CCW order
    edge_cells: np.ndarray        # (ne, 2), [owner, neighbor or -1]
    edge_normals: np.ndarray      # (ne, 2), owner's outward normal n_e
    edge_lengths: np.ndarray      # (ne,)
    boundary_segments: BoundaryCurves   # rows for the boundary edges
    cell_areas: np.ndarray
    cell_centroids: np.ndarray
    cell_diameters: np.ndarray
    cell_axes: np.ndarray         # (nc, 2, 2), basis.moment_axes of each cell
    h: float                      # max cell diameter
    s: float                      # max boundary edge length
    domain: str = "custom"

    @property
    def cells(self) -> Sequence:
        """CCW vertex loop of each cell."""
        return _CellRows(self)

    @property
    def n_cells(self) -> int:
        return self.cell_slots.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def boundary_edge_indices(self) -> np.ndarray:
        return np.where(self.edge_cells[:, 1] < 0)[0]

    def cell_arrays(self, cells):
        """Loops, edge ids and edge signs of `cells`, all of one group's kind.

        One cell id gives (m,) rows; an array of ids gives one row per id.
        """
        slots = self.cell_slots[np.asarray(cells)]
        g = np.unique(slots[..., 0])
        if g.size != 1:
            kinds = [self.groups[k].edges[0] for k in g]
            raise ValueError(
                "cells of different kinds do not stack: vertex counts "
                f"{[e.size for e in kinds]}, boundary-edge counts "
                f"{[int(np.sum(self.edge_cells[e, 1] < 0)) for e in kinds]}")
        group, r = self.groups[g[0]], slots[..., 1]
        return group.loops[r], group.edges[r], group.signs[r]


def build_mesh(vertices, cells, curve_lookup=None, domain: str = "custom") -> PolygonalMesh:
    """Derive edges, adjacency, normals and cell geometry from CCW cell loops.

    `cells` is a sequence of vertex loops, or an (nc, m) integer array of
    loops padded at the end of each row with -1 where a loop has fewer than
    m vertices.  curve_lookup(ends, chords) -> BoundaryCurves is called once
    with all boundary edges, by ascending edge id: their vertex ids (B, 2)
    and end points (B, 2, 2), both in the owner's CCW order.  The default
    makes every boundary edge flat.

    Faults are reported by kind, in this order, each naming the first cell
    or edge that has it: short loops, repeated vertices, indices out of
    range, nonpositive areas, edges of three cells, edges traversed twice in
    one direction, zero-length edges, curves off their chords, s > h.
    """
    if isinstance(cells, np.ndarray) and cells.ndim == 2:
        given = cells >= 0
        gap = np.flatnonzero((given[:, 1:] & ~given[:, :-1]).any(axis=1))
        if gap.size:
            raise MeshError(f"cell {gap[0]}: vertex index out of range")
        flat, sizes = cells[given].astype(np.int64), given.sum(axis=1)
    else:
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        flat = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int64,
                           count=int(sizes.sum()))
    verts = np.array(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    scale = max(float(np.ptp(verts[:, 0])), float(np.ptp(verts[:, 1])), 1e-300)
    nv, nc = verts.shape[0], sizes.size

    few = np.flatnonzero(sizes < 3)
    if few.size:
        raise MeshError(f"cell {few[0]}: fewer than 3 vertices")
    starts = np.cumsum(sizes) - sizes
    cell_of = np.repeat(np.arange(nc), sizes)

    # half-edge i runs from flat[i] to the next vertex of its loop
    succ = np.arange(1, flat.size + 1)
    succ[starts + sizes - 1] = starts
    head, tail = flat, flat[succ]
    lo, hi = np.minimum(head, tail), np.maximum(head, tail)
    _, first, inverse, counts = np.unique(lo * nv + hi, return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)            # edges numbered by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    edge_of = rank[inverse]
    first, counts = first[order], counts[order]

    # one group per kind of cell, ordered by vertex count, then boundary-edge count
    n_boundary = np.bincount(cell_of[counts[edge_of] == 1], minlength=nc)
    kind = sizes * (sizes.max(initial=0) + 1) + n_boundary
    groups = []   # each group's cell ids and the positions of its loops in `flat`
    for k in np.unique(kind):
        ids = np.flatnonzero(kind == k)
        groups.append((ids, starts[ids][:, None] + np.arange(sizes[ids[0]])))
    repeated = np.zeros(nc, dtype=bool)
    for ids, pos in groups:
        ordered = np.sort(flat[pos], axis=1)
        repeated[ids] = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        raise MeshError(f"cell {np.argmax(repeated)}: repeated vertex in loop")
    outside = np.flatnonzero((flat < 0) | (flat >= nv))
    if outside.size:
        raise MeshError(f"cell {cell_of[outside[0]]}: vertex index out of range")

    areas = np.empty(nc)
    cents = np.empty((nc, 2))
    moments = np.empty((nc, 3))
    diams = np.empty(nc)
    for ids, pos in groups:
        pts = verts[flat[pos]]
        areas[ids], cents[ids], moments[ids] = polygon_moments(pts)
        diams[ids] = cell_diameter(pts)
    small = np.flatnonzero(areas <= 1e-14 * scale * scale)
    if small.size:
        c = small[0]
        raise MeshError(f"cell {c}: area {areas[c]:.3e} not positive (CCW simple loop required)")
    axes = moment_axes(moments)

    crowded = np.flatnonzero(counts > 2)
    if crowded.size:
        i = first[crowded[0]]
        raise MeshError(f"edge ({lo[i]}, {hi[i]}) shared by more than two cells")
    owned = np.zeros(flat.size, dtype=bool)
    owned[first] = True
    second = np.flatnonzero(~owned)
    same = second[head[second] == head[first[edge_of[second]]]]
    if same.size:
        i = same[0]
        raise MeshError(f"edge ({lo[i]}, {hi[i]}) traversed twice in the same direction")
    edges = np.column_stack([head[first], tail[first]])
    neighbors = np.full(first.size, -1, dtype=np.int64)
    neighbors[edge_of[second]] = cell_of[second]
    edge_cells = np.column_stack([cell_of[first], neighbors])
    signs = np.where(owned, 1, -1)
    cell_groups = tuple(CellLoops(ids, flat[pos], edge_of[pos], signs[pos]) for ids, pos in groups)
    slots = np.empty((nc, 2), dtype=np.int64)
    for gi, (ids, _) in enumerate(groups):
        slots[ids, 0] = gi
        slots[ids, 1] = np.arange(ids.size)

    d = verts[edges[:, 1]] - verts[edges[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 1e-15 * scale):
        raise MeshError("mesh contains a zero-length edge")
    edge_normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]

    bidx = np.flatnonzero(neighbors < 0)
    ends = edges[bidx]
    chords = verts[ends]                              # (boundary edges, 2 endpoints, 2)
    curves = flat_curves(chords) if curve_lookup is None else curve_lookup(ends, chords)
    if curves.edges.size != bidx.size:
        raise MeshError(f"curve lookup gave {curves.edges.size} curves for {bidx.size} "
                        "boundary edges")
    off = ~np.isclose(np.stack([curves.start, curves.end], axis=1), chords,
                      rtol=0.0, atol=1e-12 * scale).all(axis=(1, 2))
    if off.any():
        raise MeshError(f"curved segment for edge {bidx[np.argmax(off)]} does not match "
                        "chord endpoints")
    curves = dataclasses.replace(curves, edges=bidx)
    s = float(lengths[bidx].max(initial=0.0))

    h = float(diams.max())
    if s > h * (1.0 + 1e-12):
        e = bidx[np.argmax(lengths[bidx])]
        raise MeshError(f"boundary edge {e}: length s={s} exceeds mesh size h={h}")

    arrays = [verts, slots, edges, edge_cells, edge_normals, lengths, areas, cents, diams, axes]
    arrays += [a for g in cell_groups for a in vars(g).values()]
    arrays += vars(curves).values()
    for arr in arrays:
        arr.setflags(write=False)
    return PolygonalMesh(
        vertices=verts,
        groups=cell_groups,
        cell_slots=slots,
        edges=edges,
        edge_cells=edge_cells,
        edge_normals=edge_normals,
        edge_lengths=lengths,
        boundary_segments=curves,
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

def _circle_points(rad: float, ang) -> np.ndarray:
    """Points rad * (cos, sin) at angles `ang` about the origin.

    cos and sin are libm's (`math`), as for one angle at a time, so the
    coordinates do not depend on how numpy vectorizes them on a machine.
    """
    ang = np.ravel(ang).tolist()
    cos = np.fromiter(map(math.cos, ang), dtype=float, count=len(ang))
    sin = np.fromiter(map(math.sin, ang), dtype=float, count=len(ang))
    return np.column_stack([rad * cos, rad * sin])


def generate_square_tri(n: int) -> PolygonalMesh:
    """Uniform triangulation of (0,1)^2 with 2 n^2 cells; h = sqrt(2)/n."""
    if n < 1:
        raise ValueError(f"need n >= 1 cells per side, got {n}")
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    verts = np.column_stack([i.ravel() / n, j.ravel() / n])
    v = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()   # vertex (i, j) of square (i, j)
    tri = np.stack([np.column_stack([v, v + n + 1, v + n + 2]),
                    np.column_stack([v, v + n + 2, v + 1])], axis=1)
    return build_mesh(verts, tri.reshape(-1, 3), domain="square")


def _disk_layers(n: int) -> int:
    """Number of concentric rings: the divisor of n closest to n/6."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return min(divisors, key=lambda d: (abs(d - n / 6.0), d))


def _split_chords(coords, tri, circles, n: int, split):
    """Subdivide boundary chords into `split` sub-chords with ends on their circles.

    `tri` (cells, 3) holds the corner loops.  Each entry (radius, owners,
    position, reverse) of `circles` stands for the n chords on the circle of
    that radius about the origin: chord k spans the angles 2 pi k/n to
    2 pi (k+1)/n, and its split-1 interior points go into the loop of cell
    owners[k] at `position`, in reverse angular order when `reverse`.  A
    callable `split` is called with the corner mesh size h (the largest cell
    diameter, one batched call) and returns the count; the corners do not
    depend on it.  New points are numbered circle by circle, in the order
    given, then by chord.  Returns the vertices and the loops, padded with
    -1 as `build_mesh` takes them.
    """
    if callable(split):
        split = split(float(cell_diameter(coords[tri]).max()))
    if split < 1:
        raise ValueError(f"need split >= 1, got {split}")
    loops = np.full((tri.shape[0], split + 2), -1, dtype=np.int64)
    loops[:, :3] = tri
    frac = np.arange(1, split) / split
    points = [coords]
    nv = coords.shape[0]
    for rad, owners, pos, reverse in circles:
        points.append(_circle_points(rad, 2.0 * math.pi * (np.arange(n)[:, None] + frac) / n))
        ids = nv + np.arange(n * (split - 1)).reshape(n, split - 1)
        nv += ids.size
        corner = tri[owners]
        loops[owners] = np.concatenate([corner[:, :pos], ids[:, ::-1] if reverse else ids,
                                        corner[:, pos:]], axis=1)
    return np.concatenate(points), loops


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

    coords = [np.zeros((1, 2))]
    for l in range(1, L + 1):
        count = q * l
        coords.append(_circle_points(l / L, 2.0 * math.pi * np.arange(count) / count))

    def ring_vertex(l, k):
        if l == 0:
            return np.zeros_like(k)
        return 1 + q * l * (l - 1) // 2 + k % (q * l)

    # ring l holds, sector by sector, l+1 triangles with an outer base and l
    # with an inner base: q (2l+1) cells after the q l^2 of the rings inside it
    sct = np.arange(q)[:, None]
    tri = []
    for l in range(L):
        j = np.arange(l + 1)
        outer = [ring_vertex(l, l * sct + j), ring_vertex(l + 1, (l + 1) * sct + j),
                 ring_vertex(l + 1, (l + 1) * sct + j + 1)]
        j = np.arange(l)
        inner = [ring_vertex(l, l * sct + j), ring_vertex(l + 1, (l + 1) * sct + j + 1),
                 ring_vertex(l, l * sct + j + 1)]
        tri.append(np.concatenate([np.stack(outer, axis=-1), np.stack(inner, axis=-1)],
                                  axis=1).reshape(-1, 3))
    k = np.arange(n)   # boundary chord k: outer base of triangle k % L of sector k // L
    owners = q * (L - 1) ** 2 + (k // L) * (2 * L - 1) + k % L
    verts, loops = _split_chords(np.concatenate(coords), np.concatenate(tri),
                                 [(1.0, owners, 2, False)], n, split)

    def lookup(ends, chords):
        return circle_curves(chords, (0.0, 0.0), 1.0)
    return build_mesh(verts, loops, curve_lookup=lookup, domain="disk")


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

    ang = 2.0 * math.pi * np.arange(n) / n
    coords = np.concatenate([_circle_points(0.5 + 0.5 * l / L, ang) for l in range(L + 1)])
    l, k = np.arange(L)[:, None], np.arange(n)
    A, B = l * n + k, l * n + (k + 1) % n
    C, D = B + n, A + n
    # per quad: the outward triangle (A, D, C), which owns the outer chord
    # D -> C on the last layer, then the inward one (A, C, B), which owns the
    # inner chord B -> A on the first
    tri = np.stack([np.stack([A, D, C], axis=-1), np.stack([A, C, B], axis=-1)], axis=2)
    verts, loops = _split_chords(
        coords, tri.reshape(-1, 3),
        [(0.5, 2 * k + 1, 3, True), (1.0, 2 * ((L - 1) * n + k), 2, False)], n, split)

    def lookup(ends, chords):
        r0 = np.hypot(chords[:, 0, 0], chords[:, 0, 1])
        return circle_curves(chords, (0.0, 0.0), np.where(np.abs(r0 - 1.0) < 0.25, 1.0, 0.5))
    return build_mesh(verts, loops, curve_lookup=lookup, domain="ring")


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

MIN_STAR_RATIO = 0.03           # inscribed-ball radius / h_K
MIN_EDGE_RATIO = 0.10           # longest cell edge / h_K
MAX_QUASI_UNIFORMITY = 10.0     # h / min h_K
MAX_BOUNDARY_UNIFORMITY = 5.0   # s / min boundary h_e
MAX_GAP_RATIO = 0.5             # gap / s^2
MAX_NORMAL_DEVIATION = 1.5      # |curve normal - chord normal| / s
SAMPLES_PER_EDGE = 8            # interior sample points of each boundary chord


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


def validate_mesh(mesh: PolygonalMesh) -> MeshQualityReport:
    """Measure the testable mesh-regularity quantities and flag violations.

    Each quantity is checked against its module bound (`MIN_STAR_RATIO` ..
    `MAX_NORMAL_DEVIATION`).  Star-shapedness is checked with respect to the
    cell centroid (sufficient for the generated mesh families); curve gaps
    and normals are sampled at `SAMPLES_PER_EDGE` interior points of each
    boundary chord.  Cells are measured a group of one kind at a time.
    """
    verts = mesh.vertices
    violations: list[str] = []
    star = np.empty(mesh.n_cells)
    edge_ratio = np.empty(mesh.n_cells)
    not_star = []
    for group in mesh.groups:
        ids = group.ids
        # structural re-checks from the vertices (covers hand-built meshes that
        # bypass build_mesh); the measurements below read the stored geometry
        pts = verts[group.loops]
        area = polygon_area(pts)
        if not np.all(area > 0.0):
            k = np.flatnonzero(~(area > 0.0))[0]
            raise MeshError(f"cell {ids[k]}: nonpositive area {area[k]:.3e}")
        if group.edges.shape != group.loops.shape:
            raise MeshError(f"cell {ids[0]}: edge list does not close the loop")
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
        edge_ratio[ids] = mesh.edge_lengths[group.edges].max(axis=1) / hk
    counts = np.bincount(np.concatenate([g.edges.ravel() for g in mesh.groups]),
                         minlength=mesh.n_edges)
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
        curves = mesh.boundary_segments   # one row per boundary edge, ascending
        if not np.array_equal(curves.edges, bidx):
            raise MeshError("curved segments are not one per boundary edge, in order")
        L = mesh.edge_lengths[bidx][:, None]
        msmp = SAMPLES_PER_EDGE
        xh = np.hstack([L * (np.arange(msmp) + 0.5) / msmp, 0.0 * L, L])
        _, gamma, ntilde = segment_geometry(curves, xh)
        dev = np.linalg.norm(ntilde[:, :msmp] - mesh.edge_normals[bidx][:, None, :],
                             axis=2).max(axis=1)
        gap = gamma[:, :msmp].max(axis=1)
        if mesh.s > 0.0:
            max_gap = float(gap.max()) / mesh.s ** 2
            max_dev = float(dev.max()) / mesh.s
        max_dev_edge = float((dev / L[:, 0]).max())
        g0 = gamma[:, msmp:].max(axis=1)
        off = np.flatnonzero(g0 > 1e-12 * max(1.0, mesh.h))
        violations += [f"A4: edge {bidx[k]} endpoints off the curve (gap {g0[k]:.2e})"
                       for k in off]

    checks = {
        "A1_star_shaped": min_star >= MIN_STAR_RATIO,
        "A2_edge_ratio": min_edge >= MIN_EDGE_RATIO,
        "A3_quasi_uniform": quasi <= MAX_QUASI_UNIFORMITY,
        "A4_gap": max_gap <= MAX_GAP_RATIO,
        "A4_normal": max_dev <= MAX_NORMAL_DEVIATION,
        "A5_boundary_uniform": buni <= MAX_BOUNDARY_UNIFORMITY,
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
# mesh file output (plain JSON text, 17 significant digits: exact under any JSON reader)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text   # JSON reads "-0" as the integer 0


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
    curves = mesh.boundary_segments
    brows = [
        f'[{va},{vb},"circle",{_fmt(cx)},{_fmt(cy)},{_fmt(rad)}]' if arc else f'[{va},{vb},"flat"]'
        for (va, vb), arc, (cx, cy), rad in zip(mesh.edges[curves.edges].tolist(),
                                                 curves.arc.tolist(), curves.center.tolist(),
                                                 curves.radius.tolist())
    ]
    bjoined = ",\n".join(brows)
    lines.append(f'"boundary": [\n{bjoined}\n]')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_mesh(mesh: PolygonalMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mesh_to_text(mesh))

