"""Gauss quadrature on segments, triangles, and polygons.

Polygons are integrated by a signed fan split: the fan triangles carry
signed Jacobians, so the rule is exact for polynomials on any simple
polygon, not just convex ones.  The fan has one triangle per edge, rooted
at each loop's centroid or at a given point such as the stored centroid.

`polygon_rule`, `polygon_area` and `edge_rule` take one polygon or edge, or
a stack of them with the stack axes first (a group of cells with one vertex
count, or a level's edges); each entry of a stack gets the same numbers it
would get alone.  `polygon_moments` takes a stack too: the mesh calls it
once per group of same-size cells and stores the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class MalformedCellError(ValueError):
    """Polygon unusable for integration (degenerate or self-cancelling area)."""


class MalformedEdgeError(ValueError):
    """Edge of (numerically) zero length."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights; integrates polynomials up to `exactness` exactly.

    The weights sum to the measure of the domain the rule was built for.
    """

    points: np.ndarray   # (m,) parameters on [0,1], or (m, 2) planar points
    weights: np.ndarray  # (m,)
    exactness: int


@lru_cache(maxsize=64)
def segment_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= order."""
    if order < 0:
        raise ValueError(f"quadrature order must be nonnegative, got {order}")
    n = max(1, math.ceil((order + 1) / 2))
    x, w = leggauss(n)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0, 2 * n - 1)


def gauss_jacobi(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi nodes (ascending) and weights on [-1, 1] for the weight (1-x).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi(1, 0) recurrence, and each weight is
    the weight function's total mass, 2, times the squared first component
    of its unit eigenvector.  Exact for (1-x) p(x) with deg p <= 2n - 1.
    """
    k = np.arange(n)
    diagonal = -1.0 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=64)
def triangle_rule(order: int) -> QuadratureRule:
    """Conical-product Gauss rule on the reference triangle (0,0),(1,0),(0,1).

    Gauss-Jacobi nodes with weight (1-x) in the collapsed direction make the
    rule exact for total degree <= order using ceil((order+1)/2)^2 points.
    """
    if order < 0:
        raise ValueError(f"quadrature order must be nonnegative, got {order}")
    n = max(1, math.ceil((order + 1) / 2))
    xj, wj = gauss_jacobi(n)
    xi = (xj + 1.0) / 2.0
    wi = wj / 4.0
    xe, we = leggauss(n)
    eta = (xe + 1.0) / 2.0
    we = we / 2.0
    R, S = np.meshgrid(xi, eta, indexing="ij")
    pts = np.column_stack([R.ravel(), (S * (1.0 - R)).ravel()])
    wts = (wi[:, None] * we[None, :]).ravel()
    return QuadratureRule(pts, wts, 2 * n - 1)


def polygon_moments(vertices):
    """Signed area, centroid and second moments of a vertex loop, or of each loop in a stack.

    `vertices` is one (m, 2) loop or a (..., m, 2) stack; the results are the
    area (...), the centroid (..., 2) and the moments (..., 3): the means of
    (x-cx)^2, (y-cy)^2 and (x-cx)(y-cy) over the polygon.  Two shoelace
    passes: the first, about the first vertex, gives the area and centroid;
    the second gives the moments about the centroid, which keeps the digits
    that a parallel-axis shift loses on a small cell far from the origin.
    Each pass sums vertex by vertex (a cumulative sum), so every loop of a
    stack gets the numbers it gets alone.  A loop whose area is zero to
    rounding (1e-14 of its bounding box squared) has area 0.0 and NaN
    centroid and moments.
    """
    v = np.asarray(vertices, dtype=float)
    d = v - v[..., :1, :]
    p = np.roll(d, 1, axis=-2)
    px, py, qx, qy = p[..., 0], p[..., 1], d[..., 0], d[..., 1]
    c = px * qy - qx * py
    a2 = np.cumsum(c, axis=-1)[..., -1]
    sx = np.cumsum((px + qx) * c, axis=-1)[..., -1]
    sy = np.cumsum((py + qy) * c, axis=-1)[..., -1]
    scale = np.maximum(np.ptp(v, axis=-2).max(axis=-1), 1e-300)
    flat = np.abs(a2) <= 2e-14 * scale * scale
    a2 = np.where(flat, np.nan, a2)
    cen = v[..., 0, :] + np.stack([sx, sy], axis=-1) / (3.0 * a2[..., None])
    d = v - cen[..., None, :]
    p = np.roll(d, 1, axis=-2)
    px, py, qx, qy = p[..., 0], p[..., 1], d[..., 0], d[..., 1]
    c = px * qy - qx * py
    sxx = np.cumsum(c * (px * px + px * qx + qx * qx), axis=-1)[..., -1]
    syy = np.cumsum(c * (py * py + py * qy + qy * qy), axis=-1)[..., -1]
    sxy = np.cumsum(c * (px * qy + 2.0 * (px * py + qx * qy) + qx * py), axis=-1)[..., -1]
    moments = np.stack([sxx / (6.0 * a2), syy / (6.0 * a2), sxy / (12.0 * a2)], axis=-1)
    return np.where(flat, 0.0, 0.5 * a2)[()], cen, moments


def polygon_area(vertices):
    """Signed (shoelace) area of an (m, 2) vertex loop, or of each loop in a (..., m, 2) stack.

    The area `polygon_moments` returns; a loop whose area is zero to rounding
    has area 0.0.
    """
    return polygon_moments(vertices)[0]


def polygon_centroid(vertices) -> np.ndarray:
    """Area centroid of a simple polygon."""
    area, centroid, _ = polygon_moments(vertices)
    if np.any(area == 0.0):
        raise MalformedCellError("polygon has (numerically) zero area")
    return centroid


def polygon_rule(vertices, order: int, fan_point=None) -> QuadratureRule:
    """Signed fan rule over a simple polygon, or over each of a stack.

    `vertices` is one (m, 2) loop or a (G, m, 2) group of loops; the points
    and weights then have shapes (q, 2) and (q,), or (G, q, 2) and (G, q).
    The fan has one triangle (c, v_i, v_i+1) per edge, rooted at
    `fan_point` (one per loop, e.g. the stored centroids) or, by default, at
    each loop's centroid.  A nonpositive total signed area of any loop
    (wrong orientation, or a self-intersecting loop whose lobes cancel)
    raises MalformedCellError.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-2] < 3 or v.shape[-1] != 2:
        raise MalformedCellError("polygon needs at least 3 planar vertices")
    if fan_point is None:
        fan_point = polygon_moments(v)[1]
    c = np.reshape(np.asarray(fan_point, dtype=float), v.shape[:-2] + (1, 1, 2))
    a = v[..., None, :] - c
    b = np.roll(v, -1, axis=-2)[..., None, :] - c
    det = a[..., 0, 0] * b[..., 0, 1] - a[..., 0, 1] * b[..., 0, 0]
    # the fan's signed determinants sum to twice the area; zero to rounding
    # (1e-14 of the bounding box squared, as in `polygon_moments`) reads 0
    areas = 0.5 * det.sum(axis=-1)
    scale = np.ptp(v, axis=-2).max(axis=-1)
    area = np.min(np.where(np.abs(areas) > 1e-14 * scale * scale, areas, 0.0))
    if not area > 0.0:
        raise MalformedCellError(f"polygon area {area:.3e} is not positive "
                                 "(CCW simple loop required)")
    ref = triangle_rule(order)
    r0, r1 = ref.points[:, 0, None], ref.points[:, 1, None]
    pts = c + r0 * a + r1 * b
    wts = det[..., None] * ref.weights
    return QuadratureRule(pts.reshape(v.shape[:-2] + (-1, 2)),
                          wts.reshape(v.shape[:-2] + (-1,)), ref.exactness)


def edge_rule(p0, p1, order: int):
    """Gauss points along the segment p0 -> p1, or along each of a stack of segments.

    Returns (points (..., m, 2), weights (..., m) carrying arclength, params
    t (m,)); p0 and p1 are (2,) or (..., 2).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    length = np.hypot(d[..., 0], d[..., 1])
    scale = np.abs(p0).max(axis=-1) + np.abs(p1).max(axis=-1) + 1.0
    if np.any(length <= 1e-15 * scale):
        raise MalformedEdgeError("edge has zero length")
    base = segment_rule(order)
    pts = p0[..., None, :] + base.points[:, None] * d[..., None, :]
    return pts, base.weights * length[..., None], base.points
