"""Area-law regression and two-site derivative analysis.

Everything here is deterministic: repeated runs with the same inputs
produce identical bytes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .entanglement import two_site_params
from .groundstate import covariances_for
from .model import CouplingParams, LatticeSpec, StabilityError


def _at_coupling(params: CouplingParams, g: float) -> CouplingParams:
    return replace(params, g1=g, g2=g)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_rel_residual: float
    n_samples: int


def area_law_fit(curve) -> FitResult:
    """Least-squares line E = a L + b with residuals relative to each E."""
    Ls = np.array([p[0] for p in curve], dtype=float)
    Es = np.array([p[1] for p in curve], dtype=float)
    if len(Ls) < 3:
        raise ValueError("area-law fit needs at least 3 points")
    if len(np.unique(Ls)) != len(Ls):
        raise ValueError("degenerate L values in the curve")
    slope, intercept = np.polyfit(Ls, Es, 1)
    residual = float(np.max(np.abs(slope * Ls + intercept - Es) / np.abs(Es)))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     max_rel_residual=residual, n_samples=len(Ls))


def _zeta1(params: CouplingParams, spec: LatticeSpec) -> float:
    cov = covariances_for(params, spec, max_displacement=1)
    # the horizontally adjacent pair at the lattice center; for periodic and
    # infinite lattices any pair is equivalent by translation invariance
    x, y = spec.center
    return two_site_params(cov, (x, y), (x + 1, y)).zeta


@dataclass(frozen=True)
class DerivativeEstimate:
    g: float
    h: float
    raw: float         # central difference at step h
    richardson: float  # one extrapolation step from h and h/2


def derivative_zeta(params: CouplingParams, spec: LatticeSpec, g: float,
                    h: float = 1e-4) -> DerivativeEstimate:
    """d zeta_1 / d g by central differences with one Richardson step.

    All four stencil points must be stable; instability propagates as an
    error naming the offending coupling.
    """
    if h <= 0:
        raise ValueError("step h must be positive")

    def z(gv):
        try:
            return _zeta1(_at_coupling(params, gv), spec)
        except StabilityError as exc:
            raise StabilityError(f"stencil point g = {gv!r} unstable: {exc}") from exc

    d_h = (z(g + h) - z(g - h)) / (2.0 * h)
    d_h2 = (z(g + h / 2) - z(g - h / 2)) / h
    return DerivativeEstimate(g=float(g), h=float(h), raw=float(d_h),
                              richardson=float((4.0 * d_h2 - d_h) / 3.0))


@dataclass(frozen=True)
class PeakResult:
    side: int
    peak_abs_derivative: float
    g_at_peak: float


def finite_size_peak(params: CouplingParams, M_list, g_grid,
                     h: float = 1e-4) -> list[PeakResult]:
    """Peak |d zeta_1 / d g| over the grid for each odd lattice size.

    The pair is the horizontally adjacent one at the lattice center; odd
    sizes keep a unique center site.
    """
    M_list = [int(M) for M in M_list]
    for M in M_list:
        if M < 5 or M % 2 == 0:
            raise ValueError(f"lattice sizes must be odd and >= 5, got {M}")
    g_grid = [float(g) for g in g_grid]
    peaks = []
    for M in M_list:
        spec = LatticeSpec.periodic(M)
        best_val, best_g = -1.0, g_grid[0]
        for g in g_grid:
            est = derivative_zeta(params, spec, g, h=h)
            if abs(est.richardson) > best_val:
                best_val, best_g = abs(est.richardson), g
        peaks.append(PeakResult(side=M, peak_abs_derivative=best_val, g_at_peak=best_g))
    return peaks
