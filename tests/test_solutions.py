"""Exact-solution registry: boundary conditions, divergences, mean-zero potentials."""

import numpy as np
import pytest

from wgmixed.quadrature import polygon_rule
from wgmixed.solutions import registry_lookup


def test_lookup_known_and_unknown():
    for name in ("square", "disk", "ring"):
        assert registry_lookup(name).name == name
    with pytest.raises(ValueError):
        registry_lookup("torus")


def test_disk_point_values():
    case = registry_lookup("disk")
    u = case.u(np.array([1.0]), np.array([0.0]))[0]
    assert np.allclose(u, [0.0, 0.0], atol=1e-15)
    assert case.g(np.array([0.25]), np.array([-1.0]))[0] == pytest.approx(2.0)


def test_square_point_values():
    case = registry_lookup("square")
    assert case.p(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)
    g = case.g(np.array([0.0]), np.array([0.0]))[0]
    assert g == pytest.approx(2.0 * np.pi**2, rel=1e-15)


def boundary_points(name, m):
    """About m points on the domain's analytic boundary and the outward normals there."""
    if name == "square":
        t = (np.arange(m // 4) + 0.5) / (m // 4)
        zeros, ones = np.zeros_like(t), np.ones_like(t)
        pts = np.concatenate([np.column_stack([t, zeros]), np.column_stack([ones, t]),
                              np.column_stack([1 - t, ones]), np.column_stack([zeros, 1 - t])])
        nrm = np.concatenate([np.column_stack([zeros, -ones]), np.column_stack([ones, zeros]),
                              np.column_stack([zeros, ones]), np.column_stack([-ones, zeros])])
        return pts, nrm
    k = m if name == "disk" else m // 2
    ang = 2.0 * np.pi * (np.arange(k) + 0.5) / k
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    if name == "disk":
        return circle, circle
    # the ring's inner circle r = 1/2: the outward normal points to the center
    return np.vstack([circle, 0.5 * circle]), np.vstack([circle, -circle])


def test_boundary_normal_component_vanishes():
    for name in ("square", "disk", "ring"):
        pts, nrm = boundary_points(name, 1000)
        u = registry_lookup(name).u(pts[:, 0], pts[:, 1])
        assert np.abs(np.sum(u * nrm, axis=1)).max() <= 1e-10


@pytest.mark.parametrize("name", ["square", "disk", "ring"])
def test_source_is_divergence_of_flux(name):
    # central finite differences as an independent oracle for g = div u
    case = registry_lookup(name)
    rng = np.random.default_rng(11)
    if name == "square":
        x = rng.uniform(0.1, 0.9, 200)
        y = rng.uniform(0.1, 0.9, 200)
    elif name == "disk":
        r = np.sqrt(rng.uniform(0.0, 0.8, 200))
        t = rng.uniform(0, 2 * np.pi, 200)
        x, y = r * np.cos(t), r * np.sin(t)
    else:
        r = rng.uniform(0.55, 0.95, 200)
        t = rng.uniform(0, 2 * np.pi, 200)
        x, y = r * np.cos(t), r * np.sin(t)
    eps = 1e-6
    dux = (case.u(x + eps, y)[:, 0] - case.u(x - eps, y)[:, 0]) / (2 * eps)
    duy = (case.u(x, y + eps)[:, 1] - case.u(x, y - eps)[:, 1]) / (2 * eps)
    assert np.abs(dux + duy - case.g(x, y)).max() <= 1e-6


@pytest.mark.parametrize("name", ["square", "disk", "ring"])
def test_flux_is_negative_gradient_of_potential(name):
    case = registry_lookup(name)
    x = np.array([0.61, 0.7, -0.55 if name != "square" else 0.3])
    y = np.array([0.11, -0.33 if name != "square" else 0.4, 0.52])
    eps = 1e-6
    px = (case.p(x + eps, y) - case.p(x - eps, y)) / (2 * eps)
    py = (case.p(x, y + eps) - case.p(x, y - eps)) / (2 * eps)
    u = case.u(x, y)
    assert np.abs(u[:, 0] + px).max() <= 1e-7
    assert np.abs(u[:, 1] + py).max() <= 1e-7


def test_ring_cartesian_matches_polar_form():
    # the polar statement of the ring solution, sampled and compared
    case = registry_lookup("ring")
    rng = np.random.default_rng(5)
    r = rng.uniform(0.5, 1.0, 100)
    th = rng.uniform(0, 2 * np.pi, 100)
    x, y = r * np.cos(th), r * np.sin(th)
    ux_polar = -r * np.sin(2 * th) * (8 * r - 9) / 2
    uy_polar = 9 * r + 9 * r * np.sin(th) ** 2 - 8 * r**2 * np.sin(th) ** 2 - 4 * r**2 - 6
    p_polar = (4 * r**3 + 6 * r - 9 * r**2) * np.sin(th)
    u = case.u(x, y)
    assert np.abs(u[:, 0] - ux_polar).max() <= 1e-12
    assert np.abs(u[:, 1] - uy_polar).max() <= 1e-12
    assert np.abs(case.p(x, y) - p_polar).max() <= 1e-12


@pytest.mark.parametrize("name", ["square", "disk", "ring"])
def test_potential_mean_zero_and_source_compatible(name):
    # quadrature oracle for the analytic statements int p = 0 and int g = 0
    case = registry_lookup(name)
    if name == "square":
        polys = [np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)]
    else:
        ang = 2 * np.pi * np.arange(512) / 512
        outer = np.column_stack([np.cos(ang), np.sin(ang)])
        polys = [outer]
        if name == "ring":
            polys = [outer, 0.5 * outer[::-1]]  # hole with reversed orientation
    ip = ig = 0.0
    for k, poly in enumerate(polys):
        sign = 1.0 if k == 0 else -1.0
        pts = poly if sign > 0 else poly[::-1]
        rule = polygon_rule(pts, 12)
        ip += sign * float(rule.weights @ case.p(rule.points[:, 0], rule.points[:, 1]))
        ig += sign * float(rule.weights @ case.g(rule.points[:, 0], rule.points[:, 1]))
    assert abs(ip) <= 1e-10
    assert abs(ig) <= 1e-10
