"""Area-law regression and two-site derivative analysis.

A derivative sweep reads zeta_1 in one array pass: ``two_site_sweep`` streams
the stencil tables from the engine, reads every stable pair in one
``two_site_params`` call and hands the values back in stencil order.
Everything here is deterministic: repeated runs with the same inputs produce
identical bytes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import _entropy_terms, two_site_sweep
from .model import CouplingParams, LatticeSpec, StabilityError

# the derivative stencil's default step h, the config's derivative_step
DEFAULT_STEP = 1e-4
# zeta_1's pair: the lattice center and its horizontal neighbour this far away
ZETA1_OFFSET = (1, 0)
# a symplectic eigenvalue is resolved to a few ulps; one at 1 + 4 eps adds this
# many bits (2.3e-14), so an L x L block's entropy within L^2 of it is roundoff
ROUNDOFF_BITS = float(_entropy_terms(np.array([1.0 + 4.0 * np.finfo(float).eps]))[0])


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_rel_residual: float


def area_law_fit(curve) -> FitResult:
    """Least-squares line E = a L + b with residuals relative to each E."""
    Ls = np.array([p[0] for p in curve], dtype=float)
    Es = np.array([p[1] for p in curve], dtype=float)
    if len(Ls) < 3:
        raise ValueError("area-law fit needs at least 3 points")
    if len(np.unique(Ls)) != len(Ls):
        raise ValueError("degenerate L values in the curve")
    if (zero := Es == 0).any():
        raise ValueError(f"zero entropy at L = {Ls[zero][0]:g}: residuals are relative to E")
    if (low := Es <= Ls ** 2 * ROUNDOFF_BITS).any():
        raise ValueError(f"entropy {Es[low][0]:.3g} bits at L = {Ls[low][0]:g} is roundoff "
                         f"(at most L^2 x {ROUNDOFF_BITS:.2g}): residuals are relative to E")
    slope, intercept = np.polyfit(Ls, Es, 1)
    residual = float(np.max(np.abs(slope * Ls + intercept - Es) / np.abs(Es)))
    return FitResult(slope=float(slope), intercept=float(intercept), max_rel_residual=residual)


@dataclass(frozen=True)
class DerivativeEstimate:
    raw: float         # central difference at step h
    richardson: float  # one extrapolation step from h and h/2


def stencil(gs, h: float) -> np.ndarray:
    """The couplings g + h, g - h, g + h/2, g - h/2 for each g of ``gs``, in
    order; a step that is not positive, that reaches a negative coupling g - h,
    or that is below the float resolution at some g (a stencil point that
    rounds to g), is refused."""
    if h <= 0:
        raise ValueError("step h must be positive")
    for g in gs:
        if g - h < 0:
            raise ValueError(f"step h = {h!r} exceeds g = {g!r}: the stencil point g - h "
                             "would be a negative coupling")
        if g + h / 2 == g or g - h / 2 == g:
            raise ValueError(f"step h = {h!r} is below the float resolution at g = {g!r}: "
                             "a stencil point rounds to g")
    return np.array([g + s for g in gs for s in (h, -h, h / 2, -h / 2)])


def derivative_sweep(params: CouplingParams, spec: LatticeSpec, gs,
                     h: float = DEFAULT_STEP) -> list:
    """``derivative_zeta`` at each g of the sequence ``gs``, or the StabilityError,
    QuadratureConvergenceError or pair refusal (``two_site_params``) of its
    first refused stencil point.  All 4 len(gs) stencil couplings go through
    one ``two_site_sweep`` as one strength array, refined as one batch on an
    infinite lattice, which reads zeta_1 of the pair (center, center + ZETA1_OFFSET)
    at every stencil point, bit for bit what each gives alone."""
    points = stencil(gs, h)
    (x, y), (dx, dy) = spec.center, ZETA1_OFFSET
    pair = two_site_sweep(params, points, points, spec, [[(x, y), (x + dx, y + dy)]])
    zp, zm, zp2, zm2 = pair.zeta[:, 0].reshape(-1, 4).T
    raw = (zp - zm) / (2.0 * h)
    richardson = (4.0 * ((zp2 - zm2) / h) - raw) / 3.0
    out = [DerivativeEstimate(raw=float(d), richardson=float(r)) for d, r in zip(raw, richardson)]
    for (k, _), exc in sorted(pair.refusals.items(), reverse=True):  # a g's first refusal last
        if isinstance(exc, StabilityError):
            cause, exc = exc, StabilityError(
                f"stencil point g = {float(points[k])!r} unstable: {exc}")
            exc.__cause__ = cause
        out[k // 4] = exc
    return out


def derivative_zeta(params: CouplingParams, spec: LatticeSpec, g: float,
                    h: float = DEFAULT_STEP) -> DerivativeEstimate:
    """d zeta_1 / d g by central differences with one Richardson step; all
    four stencil points must be stable, and an error names the one that is not."""
    (est,) = derivative_sweep(params, spec, [g], h)
    if isinstance(est, Exception):
        raise est
    return est


@dataclass(frozen=True)
class PeakResult:
    side: int
    peak_abs_derivative: float
    g_at_peak: float


def finite_sizes(M_list) -> list[int]:
    """The lattice sizes of ``finite_size_peak`` as ints; a size that is not odd
    and >= 5 is refused."""
    M_list = [int(M) for M in M_list]
    for M in M_list:
        if M < 5 or M % 2 == 0:
            raise ValueError(f"lattice sizes must be odd and >= 5, got {M}")
    return M_list


def finite_size_peak(params: CouplingParams, M_list, g_grid,
                     h: float = DEFAULT_STEP) -> list[PeakResult]:
    """Peak |d zeta_1 / d g| over the grid for each odd lattice size (a unique
    center site), by one ``derivative_sweep`` per size; the first failing g's
    error is raised."""
    M_list = finite_sizes(M_list)
    g_grid = [float(g) for g in g_grid]
    peaks = []
    for M in M_list:
        best_val, best_g = -1.0, g_grid[0]
        for g, est in zip(g_grid, derivative_sweep(params, LatticeSpec.periodic(M), g_grid, h)):
            if isinstance(est, Exception):
                raise est
            if abs(est.richardson) > best_val:
                best_val, best_g = abs(est.richardson), g
        peaks.append(PeakResult(side=M, peak_abs_derivative=best_val, g_at_peak=best_g))
    return peaks
