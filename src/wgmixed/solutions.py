"""Manufactured exact solutions with homogeneous Neumann data.

Each case provides the flux u = -grad p, the potential p (mean-zero over its
domain), and the source g = div u in closed Cartesian form; u . n = 0 on
the analytic boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ExactSolutionCase:
    """Exact (u, p, g) triple on one of the study domains."""

    name: str
    u: Callable    # u(x, y) -> (npoints, 2)
    p: Callable    # p(x, y) -> (npoints,)
    g: Callable    # g(x, y) -> (npoints,)
    notes: str = ""


def _square_case() -> ExactSolutionCase:
    pi = math.pi

    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([pi * np.sin(pi * x) * np.cos(pi * y),
                         pi * np.cos(pi * x) * np.sin(pi * y)], axis=-1)

    def p(x, y):
        return np.cos(pi * np.asarray(x, dtype=float)) * np.cos(pi * np.asarray(y, dtype=float))

    def g(x, y):
        return 2.0 * pi * pi * np.cos(pi * np.asarray(x, dtype=float)) * np.cos(pi * np.asarray(y, dtype=float))

    return ExactSolutionCase(
        name="square", u=u, p=p, g=g,
        notes="smooth trigonometric pair on the unit square; flat boundary",
    )


def _disk_case() -> ExactSolutionCase:
    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([3.0 * x * x + y * y - 3.0, 2.0 * x * y], axis=-1)

    def p(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 3.0 * x - x * (x * x + y * y)

    def g(x, y):
        return 8.0 * np.asarray(x, dtype=float)

    return ExactSolutionCase(
        name="disk", u=u, p=p, g=g,
        notes="cubic potential on the unit disk; u . n vanishes on r = 1",
    )


def _ring_case() -> ExactSolutionCase:
    # p = (4 r^2 - 9 r + 6) y in Cartesian form; dp/dr = 6 (2r-1)(r-1) sin(theta)
    # vanishes on both circles, so u . n = 0 there.
    def _r(x, y):
        return np.sqrt(np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2)

    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = _r(x, y)
        ux = x * y * (9.0 / r - 8.0)
        uy = 9.0 * y * y / r - 8.0 * y * y - 4.0 * r * r + 9.0 * r - 6.0
        return np.stack([ux, uy], axis=-1)

    def p(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = _r(x, y)
        return (4.0 * r * r - 9.0 * r + 6.0) * y

    def g(x, y):
        y = np.asarray(y, dtype=float)
        return 27.0 * y / _r(x, y) - 32.0 * y

    return ExactSolutionCase(
        name="ring", u=u, p=p, g=g,
        notes="polar solution on the annulus 1/2 < r < 1 in Cartesian closed form",
    )


_REGISTRY = {
    "square": _square_case(),
    "disk": _disk_case(),
    "ring": _ring_case(),
}


def registry_lookup(case_id: str) -> ExactSolutionCase:
    """Exact solution for one of the study domains: square, disk, or ring."""
    try:
        return _REGISTRY[case_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown exact-solution case '{case_id}' (known: {known})") from None
