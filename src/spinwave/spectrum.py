"""Dispersion relation, energy gap and the phase boundary of the transition.

Fourier transforming the translation-invariant potential gives the symbol

    v(k) = omega(omega + 4 kappa N)
         + 2 N omega [ g1 cos kx + g2 cos ky
                       + 2^(-3/2) g2 (cos(kx+ky) + cos(kx-ky)) ]

whose square root is the normal-mode frequency.  The gap closes where
min_k v(k) = 0, at k = (pi, pi) or (0, pi) depending on the ratio g2 / g1.
That corner value Delta comes from ``zone_branch`` in 40-digit arithmetic, for
the stability guard, the gap and the zone quadrature alike;
``critical_g2_numeric`` stays float, as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DIAGONAL_FACTOR, CouplingParams, LatticeSpec, StabilityError

SQRT2 = np.sqrt(2.0)
# absolute bisection tolerance of the numerical phase boundary, in units of kappa
BISECTION_TOL = 1e-10


def dispersion_value(params: CouplingParams, kx, ky, g1=None, g2=None):
    """Fourier symbol v(k) of the potential matrix at the dipolar strengths
    g1, g2 (by default those of ``params``; any sign); broadcasts over arrays."""
    g1, g2 = params.g1 if g1 is None else g1, params.g2 if g2 is None else g2
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    bracket = (g1 * np.cos(kx) + g2 * np.cos(ky)
               + DIAGONAL_FACTOR * g2 * (np.cos(kx + ky) + np.cos(kx - ky)))
    return params.on_site + 2.0 * params.coupling_scale * bracket


def dispersion_grid(params: CouplingParams, spec: LatticeSpec, g1=None, g2=None) -> np.ndarray:
    """v(k) on a finite lattice's normal modes k = 2 pi m / P, P its period, indexed
    [kx, ky] (``LatticeSpec.period`` and ``modes``: the DFT modes folded onto the
    quadrant).  Strength arrays g1, g2 of shape (n, 1, 1) give a sweep's grids
    [coupling, kx, ky] from one symbol call."""
    period = spec.period
    k = (2.0 * np.pi * np.arange(period // 2 + 1) / period)[spec.modes]
    return dispersion_value(params, k[:, None], k[None, :], g1, g2)


def zone_branch(params: CouplingParams, g1, g2) -> np.ndarray:
    """Rows (Delta, slope, pipi, bscale), one per coupling of ``params`` with
    dipolar strengths (g1[i], g2[i]) (1-D arrays): v(kx, pi) = Delta + slope X
    with X = 2 sin^2((pi - kx) / 2) and Delta = v(pi, pi) if g1 >= g2 / sqrt 2
    (pipi = 1), else X = 2 sin^2(kx / 2) and Delta = v(0, pi); Delta and the
    slope come from the float inputs in 40-digit decimal arithmetic, the
    coupling-independent terms once, and bscale = 2 N omega g2."""
    # imported here, not at module level: importing decimal costs every CLI
    # start a few milliseconds, and only the infinite lattice needs it
    from decimal import Decimal, localcontext

    rows = []
    with localcontext() as ctx:
        ctx.prec = 40
        omega, kappa, n_atoms = (Decimal(x) for x in (params.omega, params.kappa, params.n_atoms))
        on_site, scale = omega * (omega + 4 * kappa * n_atoms), 2 * n_atoms * omega
        root2 = Decimal(2).sqrt()
        for a, b in zip(map(Decimal, np.ravel(g1).tolist()), map(Decimal, np.ravel(g2).tolist())):
            tilt = a - b / root2
            corner = -a - b + b / root2 if tilt >= 0 else a - b - b / root2
            rows.append((float(on_site + scale * corner), float(scale * abs(tilt)), tilt >= 0))
    return np.column_stack([np.reshape(rows, (-1, 3)), 2.0 * params.coupling_scale * np.ravel(g2)])


def zone_minimum(params: CouplingParams) -> tuple[float, tuple[float, float]]:
    """Minimum of v(k) over the full continuous zone and the corner where it
    sits: v is bilinear in (cos kx, cos ky), and for g1, g2 >= 0 its minimum is
    ``zone_branch``'s Delta, at (pi, pi) if g1 >= g2 / sqrt 2, else at (0, pi)."""
    delta, _, pipi, _ = zone_branch(params, params.g1, params.g2)[0].tolist()
    return delta, (np.pi, np.pi) if pipi else (0.0, np.pi)


def energy_gap(params: CouplingParams, spec: LatticeSpec) -> float:
    """Lowest excitation energy sqrt(min v).

    Infinite mode takes the zone minimum (``zone_minimum``), a finite lattice
    the minimum over its normal-mode grid (``dispersion_grid``), whose values
    are the eigenvalues of V.
    """
    vmin = zone_minimum(params)[0] if spec.infinite else float(np.min(dispersion_grid(params, spec)))
    if vmin < 0:
        raise StabilityError(f"instability: beyond critical coupling (min v = {vmin:.6g})")
    return float(np.sqrt(vmin))


def critical_g_equal(params: CouplingParams) -> float:
    """Critical coupling on the equal-strength line g1 = g2 = g."""
    return float((params.omega + 4.0 * params.kappa * params.n_atoms)
                 / (params.n_atoms * (4.0 - SQRT2)))


def phase_boundary_cases(params: CouplingParams, g1: float) -> tuple[float, float, float]:
    """The three closed-form expressions for the critical g2 at given g1.

    Returns (below, degenerate, above) where "below"/"above" refer to the
    critical point lying below or above the line g2 = sqrt(2) g1.  Only the
    self-consistent case is physical; see :func:`critical_g2`.
    """
    w_over_n = params.omega / params.n_atoms
    below = (4.0 * params.kappa - 2.0 * g1 + w_over_n) / (2.0 - SQRT2)
    degenerate = (4.0 * params.kappa + w_over_n) / 2.0
    above = (4.0 * params.kappa + 2.0 * g1 + w_over_n) / (2.0 + SQRT2)
    return below, degenerate, above


@dataclass(frozen=True)
class PhasePoint:
    g1: float
    g2_closed_form: float
    g2_numeric: float
    branch: str  # below | degenerate | above, relative to g2 = sqrt(2) g1


def critical_g2_numeric(params: CouplingParams, g1: float) -> float:
    """g2 closing the gap, by bisection on the corner values of v(k).

    The gap only ever closes at (pi, pi) or (0, pi), and the minimum of v
    over those two corners equals min_k v(k) for non-negative couplings (the
    (pi, 0) corner never undercuts (pi, pi) there).  That corner minimum is
    strictly decreasing in g2, so the root is unique.  Where g1 alone
    already closes the gap (g1 above the pure-horizontal critical value) the
    boundary continues at negative g2, marking the closing of the same
    corner mode.  The root is bisected to BISECTION_TOL, or to adjacent floats
    where their spacing exceeds it (large g1).  Per 2 N omega the
    corners are a -+ g1 - (1 -+ 2^(-1/2)) g2 with a = (omega/N + 4 kappa)/2 > 0,
    so the root lies in (-g1 / (1 - 2^(-1/2)), a + g1), inside the bracket.
    """
    if g1 < 0:
        raise ValueError("g1 must be >= 0")
    lo = -10.0 * params.kappa - 4.0 * g1
    hi = 10.0 * params.kappa + params.omega / params.n_atoms + g1

    def corner_min(g2):
        with np.errstate(over="ignore"):  # a corner value that overflows keeps its sign
            return min(float(dispersion_value(params, kx, ky, g1, g2))
                       for kx, ky in ((np.pi, np.pi), (0.0, np.pi)))

    if corner_min(lo) <= 0 or corner_min(hi) > 0:
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle the boundary")
    while hi - lo > BISECTION_TOL * params.kappa and lo < (mid := 0.5 * (lo + hi)) < hi:
        if corner_min(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_g2(params: CouplingParams, g1: float) -> PhasePoint:
    """Phase boundary point above a given g1: closed form, branch and the
    independently bisected numerical root; g1 < 0 is refused (``critical_g2_numeric``)."""
    below, degenerate, above = phase_boundary_cases(params, g1)
    # Self-consistency picks the case: the "below" form is valid only where
    # it lands below sqrt(2) g1, the "above" form only above it.
    if below < SQRT2 * g1:
        g2c, branch = below, "below"
    elif above > SQRT2 * g1:
        g2c, branch = above, "above"
    else:
        g2c, branch = degenerate, "degenerate"
    numeric = critical_g2_numeric(params, g1)
    return PhasePoint(g1=float(g1), g2_closed_form=float(g2c), g2_numeric=float(numeric),
                      branch=branch)


@dataclass(frozen=True)
class GapScalingFit:
    exponent: float
    prefactor: float
    n_samples: int


def gap_scaling_exponent(params: CouplingParams, g_window: tuple[float, float],
                         n_samples: int) -> GapScalingFit:
    """Least-squares fit of log(gap) vs log(g_c - g) on the equal-coupling line.

    The window must lie strictly below g_c; two samples are the minimum for
    a line.  Returns the fitted exponent and the prefactor exp(intercept).
    """
    gc = critical_g_equal(params)
    lo, hi = g_window
    if not (0 <= lo < hi):
        raise ValueError("need 0 <= g_lo < g_hi")
    if hi >= gc:
        raise ValueError(f"window touches or crosses the critical coupling g_c = {gc:.6g}")
    if n_samples < 2:
        raise ValueError("fit needs at least 2 samples")
    gs = np.linspace(lo, hi, n_samples)
    x = np.log(gc - gs)
    y = np.log(np.sqrt(zone_branch(params, gs, gs)[:, 0]))  # the gap sqrt(min v), min v > 0
    slope, intercept = np.polyfit(x, y, 1)
    return GapScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                         n_samples=n_samples)
