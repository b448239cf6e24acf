"""The 2-D zone grid, the test oracle for the infinite-lattice quadrature
away from criticality.

A uniform product rule over the Brillouin zone converges spectrally while
the integrand is smooth and periodic, but stops converging as the softness
min v / on-site falls towards 1e-7, so the package integrates by the 1-D
Legendre route everywhere and the grid only checks it.
"""

from __future__ import annotations

import numpy as np

from spinwave.groundstate import (QUAD_MAX_REFINEMENTS, QUAD_REL_TOL, _guard_softness,
                                  _level_error)
from spinwave.model import CouplingParams
from spinwave.spectrum import dispersion_value

QUAD_BASE_POINTS = 64


def _zone_tables(params: CouplingParams, dmax: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # cos(k.r) factorizes as cos(kx dx) cos(ky dy) on the sign-symmetric grid
    # (the odd sin terms cancel), so each table is two small matmuls.  v is
    # even in kx and in ky, so only the quadrant i >= n // 2 of the grid is
    # summed: weight 2 per row and column, except the k = 0 row and column
    # that odd n puts on the grid, which have no mirror and keep weight 1.
    k = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    k = k[n // 2:]
    w = np.full(k.size, 2.0)
    if n % 2:
        w[0] = 1.0
    d = np.arange(dmax + 1)
    # cos(kx+ky) + cos(kx-ky) = 2 cos kx cos ky makes v affine in cos ky at
    # fixed kx: v = a + b cos ky, with a and b read off the ky = 0 and ky = pi
    # values of each column, so dispersion_value stays the one formula for v.
    ends = dispersion_value(params, k[:, None], np.array([[0.0, np.pi]]))
    a = 0.5 * (ends[:, 0] + ends[:, 1])
    b = 0.5 * (ends[:, 0] - ends[:, 1])
    cx = w * np.cos(np.outer(d, k))
    qq = np.zeros((dmax + 1, dmax + 1))
    pp = np.zeros_like(qq)
    chunk = max(16, (2 ** 22) // k.size)
    for s in range(0, k.size, chunk):
        ky = k[s:s + chunk]
        v = a[:, None] + b[:, None] * np.cos(ky)[None, :]
        if refused := _guard_softness(np.min(v).reshape(1), params.on_site):
            raise refused[0]
        cy = w[s:s + chunk] * np.cos(np.outer(d, ky))
        qq += (cx @ (v ** -0.5)) @ cy.T
        pp += (cx @ (v ** 0.5)) @ cy.T
    return qq / (2.0 * n * n), pp / (2.0 * n * n)


def _grid_tables(params: CouplingParams, dmax: int):
    """The 2-D route, level by level: uniform product rules of
    QUAD_BASE_POINTS * 2^j points per dimension, offset by half a spacing so
    that no node lands on the dispersion minimum.  The integrand is smooth
    and periodic at the softness this route runs at, so the levels converge
    spectrally."""
    n = QUAD_BASE_POINTS
    while True:
        yield _zone_tables(params, dmax, n), f"zone grid n = {n}"
        n *= 2


def grid_oracle(params: CouplingParams, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(qq, pp) from the grid levels, doubled until two in a row agree to
    QUAD_REL_TOL per entry under the package's own level test."""
    levels = _grid_tables(params, dmax)
    prev, _ = next(levels)
    for _ in range(QUAD_MAX_REFINEMENTS):
        cur, resolution = next(levels)
        if _level_error(np.stack(cur), np.stack(prev)) < QUAD_REL_TOL:
            return cur
        prev = cur
    raise AssertionError(f"{resolution}: the grid oracle did not converge")
