"""Dispersion relation, energy gap and the phase boundary of the transition.

Fourier transforming the translation-invariant potential gives the symbol

    v(k) = omega(omega + 4 kappa N)
         + 2 N omega [ g1 cos kx + g2 cos ky
                       + 2^(-3/2) g2 (cos(kx+ky) + cos(kx-ky)) ]

whose square root is the normal-mode frequency.  The gap closes where
min_k v(k) = 0, at k = (pi, pi) or (0, pi) depending on the ratio g2 / g1.
That corner value Delta comes from ``zone_branch``, bit for bit what 40-digit
decimal arithmetic gives from the float inputs, for the gap and the zone
quadrature alike, and for the stability guard wherever it does not refuse;
``critical_g2_numeric`` stays float, as an independent check.

``zone_branch`` works in double-double arithmetic, a float pair hi + lo
carrying about 106 bits: Knuth's TwoSum and Dekker's product on Veltkamp's
split (Dekker, Numer. Math. 18, 224 (1971)) give each sum and product with
its rounding error.  Tallying the roundings bounds the error of the tilt
g1 - g2 / sqrt 2, the slope and Delta by 18 u^2 (u = 2^-53) of the sum of
their terms' magnitudes.  DD_ERROR = 2^-98 = 256 u^2 of that sum bounds both
the double-double value's distance from the exact one and the 40-digit
route's (about 1e-39 of it).  Where every value within that bound has one
sign (the branch) and rounds to one float, the row is certified: both routes
give that float.  Other rows (|Delta| below about 2^-45 of the on-site term,
the coupling at g_c itself) are recomputed in decimal, as in Ziv's correctly
rounded functions (ACM TOMS 17, 410 (1991)), unless the bound already fixes
the guard's refusal text, which is monotone in Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DIAGONAL_FACTOR, CouplingParams, LatticeSpec, StabilityError

SQRT2 = np.sqrt(2.0)
# 2^(-1/2) as a double-double: SQRT_HALF + SQRT_HALF_LO is within 3e-33 relative
SQRT_HALF, SQRT_HALF_LO = 2.0 ** -0.5, -4.833646656726457e-17
# error bound of the double-double corner per unit of its terms' magnitude (module notes)
DD_ERROR = 2.0 ** -98
# inputs of magnitude 0 or within [1 / DD_RANGE, DD_RANGE] keep every product of
# three of them, and its rounding error, clear of overflow and underflow
DD_RANGE = 2.0 ** 300
# absolute bisection tolerance of the numerical phase boundary, in units of kappa
BISECTION_TOL = 1e-10


def symbol_cosines(kx, ky) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos kx, cos ky and cos(kx + ky) + cos(kx - ky): all ``dispersion_value`` reads of k."""
    kx, ky = np.asarray(kx, dtype=float), np.asarray(ky, dtype=float)
    return np.cos(kx), np.cos(ky), np.cos(kx + ky) + np.cos(kx - ky)


def dispersion_value(params: CouplingParams, kx, ky, g1=None, g2=None, cosines=None, out=None):
    """Fourier symbol v(k) of the potential matrix at the dipolar strengths g1, g2 (by
    default those of ``params``; any sign); broadcasts over arrays, into ``out`` if given,
    from ``cosines = symbol_cosines(kx, ky)`` if the caller holds them."""
    g1, g2 = params.g1 if g1 is None else g1, params.g2 if g2 is None else g2
    cx, cy, diagonal = symbol_cosines(kx, ky) if cosines is None else cosines
    v = np.add(g1 * cx, g2 * cy, out=out)
    v += DIAGONAL_FACTOR * g2 * diagonal
    v *= 2.0 * params.coupling_scale
    v += params.on_site
    return v


@lru_cache(maxsize=64)
def _mode_grid(spec: LatticeSpec) -> tuple:
    """A finite lattice's modes k (``dispersion_grid``) and their read-only grid cosines."""
    k = (2.0 * np.pi * np.arange(spec.period // 2 + 1) / spec.period)[spec.modes]
    grid = (k, *symbol_cosines(k[:, None], k[None, :]))
    for a in grid:
        a.flags.writeable = False
    return grid


def dispersion_grid(params: CouplingParams, spec: LatticeSpec, g1=None, g2=None,
                    out=None) -> np.ndarray:
    """v(k) on a finite lattice's normal modes k = 2 pi m / P, P its period, indexed
    [kx, ky] (``LatticeSpec.period`` and ``modes``: the DFT modes folded onto the
    quadrant), from the lattice's cached grid cosines.  Strength arrays g1, g2 of shape
    (n, 1, 1) give a sweep's grids [coupling, kx, ky] from one symbol call, into ``out``
    if given."""
    k, *cosines = _mode_grid(spec)
    return dispersion_value(params, k[:, None], k[None, :], g1, g2, cosines, out)


def veltkamp_split(x):
    """Veltkamp's split of x into two 26-bit halves (hi, lo), hi + lo == x, whose
    products with one another and with integers below 2^26 are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_sum(a, b):
    """Knuth's TwoSum: (s, e) with s = fl(a + b) and s + e == a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """Dekker's product: (p, e) with p = fl(a b) and p + e == a b exactly."""
    p = a * b
    (ah, al), (bh, bl) = veltkamp_split(a), veltkamp_split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    """Sum of double-doubles x = (hi, lo) and y, renormalised so hi = fl(hi + lo)."""
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    """Product of double-doubles x = (hi, lo) and y, renormalised as ``_dd_add``'s."""
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _rounds_to_hi(x, err):
    """Whether every value within err of the double-double x = (hi, lo) rounds to hi,
    strictly inside hi's rounding interval (ties excluded), or x is an exact zero."""
    hi, lo = x
    up, down = np.nextafter(hi, np.inf) - hi, hi - np.nextafter(hi, -np.inf)
    return (lo + err < 0.5 * up) & (err - lo < 0.5 * down) | (hi == 0) & (lo == 0) & (err == 0)


def _in_range(x):
    """Whether each x is 0 or of magnitude within [1 / DD_RANGE, DD_RANGE]."""
    return (x == 0) | (1.0 / DD_RANGE <= np.abs(x)) & (np.abs(x) <= DD_RANGE)


def _decimal_corners(params: CouplingParams, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Rows (Delta, slope, pipi) of ``zone_branch`` in 40-digit decimal arithmetic,
    for the rows whose double-double bound does not certify them."""
    # imported here, not at module level: importing decimal costs a CLI start a
    # millisecond, and a run whose corners are all certified never needs it
    from decimal import Decimal, localcontext

    rows = []
    with localcontext() as ctx:
        ctx.prec = 40
        omega, kappa, n_atoms = (Decimal(x) for x in (params.omega, params.kappa, params.n_atoms))
        on_site, scale = omega * (omega + 4 * kappa * n_atoms), 2 * n_atoms * omega
        root2 = Decimal(2).sqrt()
        for a, b in zip(map(Decimal, g1.tolist()), map(Decimal, g2.tolist())):
            tilt = a - b / root2
            corner = -a - b + b / root2 if tilt >= 0 else a - b - b / root2
            rows.append((float(on_site + scale * corner), float(scale * abs(tilt)), tilt >= 0))
    return np.reshape(rows, (-1, 3))


def zone_branch(params: CouplingParams, g1, g2, refusal=None) -> np.ndarray:
    """Rows (Delta, slope, pipi, bscale), one per coupling of ``params`` with
    dipolar strengths (g1[i], g2[i]) (1-D float arrays): v(kx, pi) = Delta + slope X
    with X = 2 sin^2((pi - kx) / 2) and Delta = v(pi, pi) if g1 >= g2 / sqrt 2
    (pipi = 1), else X = 2 sin^2(kx / 2) and Delta = v(0, pi); bscale = 2 N omega g2.
    Delta and the slope are, bit for bit, what 40-digit decimal arithmetic gives from
    the float inputs: computed in double-double where its error bound certifies the
    branch sign and both roundings, and in decimal elsewhere (module notes), except a
    row kept in double-double because ``refusal``, the caller's text for a Delta it
    refuses (None else; monotone in Delta), gives one text at both ends of its bound.

    With the tilt t = g1 - g2 / sqrt 2, the slope is 2 N omega |t| and
    Delta = omega (omega + 4 kappa N) - 2 N omega (|t| + g2) on either branch."""
    a, b = (np.ravel(np.asarray(g, dtype=float)) for g in (g1, g2))
    constants = (params.omega, params.kappa, params.n_atoms)
    omega, kappa, n_atoms = (float(x) for x in constants)
    with np.errstate(over="ignore", invalid="ignore"):  # an out-of-range row is not certified
        b_root = _dd_mul((b, 0.0), (SQRT_HALF, SQRT_HALF_LO))
        tilt = _dd_add((a, 0.0), (-b_root[0], -b_root[1]))
        pipi = tilt[0] >= 0
        sign = np.where(pipi, 1.0, -1.0)
        abs_tilt = (sign * tilt[0], sign * tilt[1])
        scale = _two_prod(2.0 * n_atoms, omega)
        on_site = _dd_mul((omega, 0.0), _dd_add((omega, 0.0), _two_prod(4.0 * kappa, n_atoms)))
        slope = _dd_mul(scale, abs_tilt)
        width = _dd_mul(scale, _dd_add(abs_tilt, (b, 0.0)))
        delta = _dd_add(on_site, (-width[0], -width[1]))
        # the sums of the terms' magnitudes that DD_ERROR scales
        size = a + SQRT_HALF * b
        error = DD_ERROR * (on_site[0] + scale[0] * (size + b))  # Delta's
        bounded = (_in_range(a) & _in_range(b) & _in_range(np.array(constants)).all()
                   & all(float(x) == x for x in constants))
        certified = (bounded & ((np.abs(tilt[0]) > 2.0 * DD_ERROR * size) | (size == 0))
                     & _rounds_to_hi(slope, DD_ERROR * scale[0] * size)
                     & _rounds_to_hi(delta, error))
    rows = np.column_stack([delta[0], slope[0], pipi, 2.0 * params.coupling_scale * b])
    if refusal is not None and (open_ := np.flatnonzero(bounded & ~certified)).size:
        # both routes' floats lie within |lo| + error + an ulp of hi; twice that, and a
        # step out, covers this arithmetic's roundings
        hi = delta[0][open_]
        pad = 2.0 * (np.abs(delta[1][open_]) + error[open_] + np.spacing(np.abs(hi)))
        lower, upper = (np.nextafter(hi + s * pad, s * np.inf).tolist() for s in (-1.0, 1.0))
        certified[open_] = [(text := refusal(x)) is not None and text == refusal(y)
                            for x, y in zip(lower, upper)]
    if not certified.all():
        rows[~certified, :3] = _decimal_corners(params, a[~certified], b[~certified])
    return rows


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
    return GapScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)))
