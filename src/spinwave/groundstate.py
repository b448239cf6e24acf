"""Ground-state second moments <q_i q_j> and <p_i p_j>.

The ground state of H = (1/2) p.p + (1/2) q.V.q is Gaussian with

    Q = V^(-1/2) / 2      P = V^(1/2) / 2

and vanishing first moments.  Every lattice is a transform plus the symbol
v(k) of ``dispersion_value`` (Audenaert, Eisert, Plenio & Werner, PRA 66,
042327 (2002)), and the lattice picks the engine that evaluates it
(``LatticeSpec.engine``):

* ``covariance_dst``       -- the DST-I normal modes, for open lattices
                              (engine name ``dense``)
* ``covariance_pbc_fft``   -- circulant diagonalisation by FFT, for periodic ones
* ``covariance_infinite``  -- Brillouin-zone quadrature in the M -> oo limit

The periodic/infinite engines return correlations as a function of the
displacement only (translation invariance); the open engine returns the
transform and the symbol, from which a block takes only its own rows.  Each
container answers ``block(sites)`` with the principal submatrices
(Q_L, P_L) on a list of sites, and ``covariances_for`` is the one place
that runs a lattice's engine.  ``covariance_dense``, the symmetric
eigendecomposition of the full V on any finite lattice, is the oracle the
tests hold the engines to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import CRITICAL_GUARD, CouplingParams, LatticeSpec, StabilityError, build_potential
from .spectrum import dispersion_grid, dispersion_value, zone_minimum


def _site_indices(spec: LatticeSpec, sites) -> list[int]:
    """Row-major indices of the sites (x, y): periodic lattices wrap, open
    ones refuse sites off the lattice, and no lattice site may be named twice."""
    idx = [spec.site_index(x, y) for x, y in sites]
    if len(set(idx)) < len(idx):
        raise ValueError("block names one lattice site twice")
    return idx


@dataclass(frozen=True)
class CovariancePair:
    """Full position/momentum covariance matrices of the Gaussian ground state."""

    Q: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    spec: LatticeSpec

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on the sites (x, y): periodic
        lattices wrap, open ones refuse sites off the lattice, and no lattice
        site may be named twice."""
        idx = _site_indices(self.spec, sites)
        return self.Q[np.ix_(idx, idx)], self.P[np.ix_(idx, idx)]


@dataclass(frozen=True)
class SineModes:
    """Normal modes of an open lattice: V = (S x S) diag(v) (S x S) in
    row-major site order, with S the DST-I matrix and v[kx, ky] the symbol on
    its grid."""

    S: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    spec: LatticeSpec

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices Q_L = A diag(v^(-1/2)) A^T / 2 and
        P_L = A diag(v^(1/2)) A^T / 2, A the sites' rows S[y] x S[x] of
        S x S; sites off the lattice and a site named twice are refused.

        The two axes are contracted one at a time, so the cost is
        O(R^2 M^2 + n^2 M) for n sites in R lattice rows and A is never formed."""
        y, x = np.divmod(_site_indices(self.spec, sites), self.spec.side)
        rows, row_of = np.unique(y, return_inverse=True)
        Sx = self.S[x]
        row_pairs = (self.S[rows, None, :] * self.S[None, rows, :]).reshape(rows.size ** 2, -1)
        out = []
        for power in (-0.5, 0.5):
            # C[a, b, kx] = sum_ky S[rows[a], ky] S[rows[b], ky] v[kx, ky]^power / 2
            C = (row_pairs @ (self.v ** power).T).reshape(rows.size, rows.size, -1) / 2.0
            # X[i, j] = sum_kx S[x_i, kx] C[row_i, row_j, kx] S[x_j, kx], one lattice row at a time
            X = np.empty((x.size, x.size))
            for a in range(rows.size):
                mine = row_of == a
                X[mine] = Sx[mine] @ (C[a, row_of] * Sx).T
            out.append(0.5 * (X + X.T))
        return out[0], out[1]


@dataclass(frozen=True)
class CorrelationTable:
    """Translation-invariant correlations keyed by displacement.

    ``kind == "periodic"``: qq/pp are M x M arrays indexed by the displacement
    modulo M.  ``kind == "infinite"``: qq/pp are (D+1) x (D+1) quadrant arrays
    indexed by (|dx|, |dy|) -- the dispersion is even in each wavevector
    component separately, so correlations are too.
    """

    qq: np.ndarray = field(repr=False)
    pp: np.ndarray = field(repr=False)
    kind: str

    def displacement_index(self, dx, dy) -> tuple[np.ndarray, np.ndarray]:
        """Table indices of the displacements (dx, dy), integers or integer
        arrays of one shape: modulo M for periodic tables, (|dx|, |dy|) for
        infinite ones, which refuse displacements beyond their extent."""
        extent = self.qq.shape[0]
        if self.kind == "periodic":
            return np.mod(dx, extent), np.mod(dy, extent)
        dx, dy = np.abs(dx), np.abs(dy)
        outside = np.ravel((dx >= extent) | (dy >= extent))
        if outside.any():
            first = int(np.argmax(outside))
            raise ValueError(f"displacement ({np.ravel(dx)[first]}, {np.ravel(dy)[first]}) "
                             f"not in table (extent {extent - 1})")
        return dx, dy

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on the sites (x, y), read from the
        table by pairwise displacement; no lattice site may be named twice."""
        xy = np.asarray(sites, dtype=int)
        index = self.displacement_index(xy[:, None, 0] - xy[None, :, 0],
                                        xy[:, None, 1] - xy[None, :, 1])
        # only a site named twice puts displacement index (0, 0) off the diagonal
        if np.count_nonzero(index[0] | index[1]) < len(xy) * (len(xy) - 1):
            raise ValueError("block names one lattice site twice")
        return self.qq[index], self.pp[index]


def _guard_softness(vmin: float, on_site: float) -> None:
    if vmin <= 0:
        raise StabilityError(f"beyond critical coupling (min v = {vmin:.6g})")
    if vmin < CRITICAL_GUARD * on_site:
        raise StabilityError(
            f"within {CRITICAL_GUARD:g} of criticality (min v / on-site = "
            f"{vmin / on_site:.3g}); matrix square roots are unreliable here")


def covariance_dense(spec: LatticeSpec, params: CouplingParams) -> CovariancePair:
    """Q = V^(-1/2)/2 and P = V^(1/2)/2 by symmetric eigendecomposition."""
    w, U = np.linalg.eigh(build_potential(spec, params))
    _guard_softness(float(w[0]), params.on_site)
    Q = (U * (w ** -0.5)) @ U.T / 2.0
    P = (U * (w ** 0.5)) @ U.T / 2.0
    Q = 0.5 * (Q + Q.T)
    P = 0.5 * (P + P.T)
    Q.flags.writeable = False
    P.flags.writeable = False
    return CovariancePair(Q=Q, P=P, spec=spec)


def covariance_dst(spec: LatticeSpec, params: CouplingParams) -> SineModes:
    """Open-lattice normal modes in closed form.  With T the adjacency matrix
    of the M-site path, the open lattice's bonds are exactly

        V = on_site I + N omega (g2 T x I + g1 I x T + 2^(-3/2) g2 T x T)

    in row-major site order (the diagonal bonds are T x T).  The orthogonal,
    symmetric DST-I matrix S_jk = sqrt(2 / (M+1)) sin(pi j k / (M+1)),
    j, k = 1..M, diagonalises T with eigenvalues 2 cos(pi k / (M+1)) (Strang,
    SIAM Rev. 41, 135 (1999)), so V = (S x S) diag(v) (S x S) with v the
    symbol on the grid k = pi j / (M + 1), and min v is the smallest
    eigenvalue of V.
    """
    if spec.engine != "dense":
        raise ValueError("DST-I engine requires a finite open lattice")
    M = spec.side
    v = dispersion_grid(params, spec)
    _guard_softness(float(np.min(v)), params.on_site)
    j = np.arange(1, M + 1)
    # j k reduced modulo the sine's period 2 (M + 1) in integers, so every
    # angle is below 2 pi and carries one rounding
    S = np.sqrt(2.0 / (M + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (M + 1))) / (M + 1))
    S.flags.writeable = False
    v.flags.writeable = False
    return SineModes(S=S, v=v, spec=spec)


def covariance_pbc_fft(spec: LatticeSpec, params: CouplingParams) -> CorrelationTable:
    """Periodic-lattice correlations via the circulant eigenvalue grid:

        <q_0 q_r> = (1 / 2 M^2) sum_k v(k)^(-1/2) cos(k.r)

    and the same with v^(+1/2) for momenta, evaluated with a fast transform.
    """
    if spec.engine != "fft":
        raise ValueError("FFT engine requires a finite periodic lattice")
    v = dispersion_grid(params, spec)
    _guard_softness(float(np.min(v)), params.on_site)
    qq = 0.5 * np.real(np.fft.ifft2(v ** -0.5))
    pp = 0.5 * np.real(np.fft.ifft2(v ** 0.5))
    qq.flags.writeable = False
    pp.flags.writeable = False
    return CorrelationTable(qq=qq, pp=pp, kind="periodic")


# The infinite-lattice quadrature: each route refines level by level until
# successive levels agree to QUAD_REL_TOL per entry, at most
# QUAD_MAX_REFINEMENTS times; the 2-D grid starts at QUAD_BASE_POINTS per
# dimension.  Entries below LEVEL_FLOOR of the largest one are held to
# QUAD_REL_TOL * LEVEL_FLOOR = 64 eps (1.4e-14) of the largest entry instead:
# level-to-level roundoff plateaus at 5e-15 to 7e-15 of it, so a lower floor
# asks for agreement that roundoff alone can deny.
QUAD_REL_TOL = 1e-10
QUAD_MAX_REFINEMENTS = 8
QUAD_BASE_POINTS = 64
LEVEL_FLOOR = 64 * np.finfo(float).eps / QUAD_REL_TOL


class QuadratureConvergenceError(RuntimeError):
    """Successive quadrature levels did not agree to QUAD_REL_TOL within
    QUAD_MAX_REFINEMENTS refinements.

    Carries the last two estimates.  Neither route is expected to raise:
    the 2-D grid runs only where the softness is at least LEGENDRE_SOFTNESS,
    and the 1-D route took at most seven of its eight halvings at every
    softness tried down to the CRITICAL_GUARD (tables up to dmax = 160).
    """

    def __init__(self, message, last, previous):
        super().__init__(message)
        self.last = last
        self.previous = previous


def _level_error(cur, prev) -> float:
    """Largest per-entry relative change between two quadrature levels.

    Entries below LEVEL_FLOOR of the largest one (the on-site value) are
    measured against that floor; among them is exact-cancellation residue,
    e.g. every off-site correlation of the decoupled lattice."""
    return max(float(np.max(np.abs(c - p) / np.maximum(np.abs(c), LEVEL_FLOOR * np.max(np.abs(c)))))
               for c, p in zip(cur, prev))


def _refine(levels) -> tuple[np.ndarray, np.ndarray]:
    """Draw (tables, resolution) estimates from a route's level generator
    until two in a row agree to QUAD_REL_TOL per entry."""
    prev, _ = next(levels)
    for _ in range(QUAD_MAX_REFINEMENTS):
        cur, resolution = next(levels)
        err = _level_error(cur, prev)
        if err < QUAD_REL_TOL:
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"{resolution}: quadrature did not converge to {QUAD_REL_TOL:g} within "
        f"{QUAD_MAX_REFINEMENTS} refinements; last level error {err:.3g}",
        last=cur, previous=prev)


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
        vmin = float(np.min(v))
        _guard_softness(vmin, params.on_site)
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


# Softness vmin / on_site below which covariance_infinite takes the 1-D
# Legendre route.  Best-of-5 per-call times on the equal-coupling line, 1-D
# route against 2-D grid at dmax 1 | dmax 19 (2-vCPU Xeon, numpy 2.4):
#   softness 1e-2     1.5 vs 0.5 ms |  4.2 vs 1.0 ms
#   softness 2.1e-3   2.9 vs 2.1 ms |  6.4 vs 2.4 ms   (fig3's softest point)
#   softness 1e-3     1.7 vs 1.5 ms |  5.5 vs 9.2 ms
#   softness 5e-4     1.8 vs 8.4 ms |  5.7 vs 8.5 ms
#   softness 1e-4     1.8 vs 25 ms  |  8.3 vs 36 ms
#   softness 1e-6     1.7 ms vs 1.9 s | 10 ms vs 2.2 s; below ~1e-7 the
#                     grid stops converging
# so the routes cross between 2e-3 and 5e-4.  The threshold takes the lower
# end, which leaves every point where the grid measured faster on the grid.
LEGENDRE_SOFTNESS = 5e-4
# tanh-sinh nodes t = j h with |t| <= TANH_SINH_T (the truncated tail weighs
# below pi exp(-pi sinh 3.5) ~ 1e-22); the first level has step 1/2
TANH_SINH_T = 3.5
TANH_SINH_H0 = 0.5
# the forward Legendre recurrence amplifies roundoff by about exp(2 m eta);
# it runs where 2 max(m_top, 4) eta stays below log(100) (the floor of 4
# also keeps z k K - 2 E / k, the start Q_{1/2}, clear of cancellation)
FORWARD_GROWTH = np.log(100.0)


def _legendre_q(zm1: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Toroidal functions Q_{m-1/2}(z) for m = 0..top (top >= 1) at z = 1 + zm1 > 1, as
    rows of a (top + 1, len(zm1)) array, plus the modulus k = sqrt(2 / (z + 1))
    and the complete elliptic integral E(k) of each z.

    Q_{-1/2} = k K(k) and Q_{1/2} = z k K(k) - (2 / k) E(k), with K and E from
    the AGM on the complementary modulus sqrt(zm1 / (z + 1)) (DLMF 19.8), so
    nothing is lost to 1 - k near z = 1.  Higher orders follow the three-term
    recurrence (m + 1/2) Q_{m+1/2} = 2 m z Q_{m-1/2} - (m - 1/2) Q_{m-3/2}:
    forward where eta = arccosh z is small, elsewhere as backward ratios for
    the minimal solution (Gil, Segura & Temme, J. Comput. Phys. 161, 204
    (2000)), normalised by Q_{-1/2}.
    """
    z = 1.0 + zm1
    k = np.sqrt(2.0 / (z + 1.0))
    a, g = np.ones_like(zm1), np.sqrt(zm1 / (z + 1.0))
    csum, weight = 0.5 * k * k, 1.0  # sum of 2^(n-1) c_n^2 (DLMF 19.8.6)
    while np.any(a - g > 1e-15 * a):
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), np.sqrt(a * g)
        csum = csum + weight * c * c
        weight *= 2.0
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    q = np.empty((top + 1, zm1.size))
    q[0] = k * K
    eta = np.log1p(zm1 + np.sqrt(zm1 * (zm1 + 2.0)))
    forward = 2.0 * max(top, 4) * eta <= FORWARD_GROWTH
    zf = z[forward]
    qf = np.empty((top + 1, zf.size))
    qf[0] = q[0, forward]
    qf[1] = zf * qf[0] - 2.0 * E[forward] / k[forward]
    for m in range(1, top):
        qf[m + 1] = (2.0 * m * zf * qf[m] - (m - 0.5) * qf[m - 1]) / (m + 0.5)
    q[:, forward] = qf
    back = ~forward
    if back.any():
        zb, eb = z[back], eta[back]
        # ratios r_m = Q_{m-1/2} / Q_{m-3/2}, started from their limit exp(-eta)
        # far enough above top that the start error has decayed below 1e-17
        start = top + int(np.ceil(39.0 / (2.0 * np.min(eb))))
        r = np.exp(-eb)
        ratios = np.empty((top, zb.size))
        for m in range(start, 0, -1):
            r = (m - 0.5) / (2.0 * m * zb - (m + 0.5) * r)
            if m <= top:
                ratios[m - 1] = r
        q[1:, back] = q[0, back] * np.cumprod(ratios, axis=0)
    return q, k, E


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of tanh-sinh level ``level`` on [0, pi]: kx, pi - kx (each
    computed directly, so neither end loses digits) and the weights.  Level
    0 has step TANH_SINH_H0; each later level holds only the new odd nodes
    of the halved step, so the levels nest."""
    h = TANH_SINH_H0 / 2 ** level
    j = np.arange(-int(TANH_SINH_T / h), int(TANH_SINH_T / h) + 1)
    if level:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    kx = np.pi / (1.0 + np.exp(-2.0 * u))
    rest = np.pi / (1.0 + np.exp(2.0 * u))
    w = 0.25 * np.pi ** 2 * np.cosh(t) / np.cosh(u) ** 2
    return kx, rest, w


def _cos_multiples(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(d x) for every integer d and node x, without the d-fold growth of
    the rounding error of the product d * x: x splits into two 26-bit
    halves (Veltkamp), whose products with d are exact, and the angle sum
    is expanded."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    a, b = np.outer(d, hi), np.outer(d, x - hi)
    return np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b)


def _legendre_tables(params: CouplingParams, dmax: int):
    """The 1-D route, level by level: at fixed kx, v = a + b cos ky with
    b = 2 N omega g2 (1 + cos kx / sqrt 2) and z = a / b >= 1, and Heine's
    integral (DLMF 14.19) gives the ky integrals in closed form,

        J-_m = (1/2pi) int cos(m ky) v^(-1/2) dky = (-1)^m sqrt 2 / (pi sqrt b) Q_{m-1/2}(z)
        J+_m = (1/2pi) int cos(m ky) v^(+1/2) dky = a J-_m + b (J-_{m+1} + J-_{|m-1|}) / 2,

    the latter rewritten through the recurrence as (-1)^m sqrt 2 sqrt b
    (Q_{m+1/2} - Q_{m-3/2}) / (4 pi m) for m >= 1 and sqrt 2 sqrt b (2 / k)
    E(k) / pi for m = 0, free of the cancellation in a J-_m.  The kx integral
    on [0, pi] is tanh-sinh (Takahashi & Mori, Publ. RIMS 9, 721 (1974)),
    whose step halves from level to level:

        qq[dx, dy] = (1/2pi) int_0^pi cos(dx kx) J-_dy(kx) dkx.

    z - 1 = v(kx, pi) / b comes without cancellation from v(kx, pi) =
    Delta + 2 N omega |g1 - g2 / sqrt 2| X, with X = 2 sin^2((pi - kx) / 2)
    and Delta = v(pi, pi) if g1 >= g2 / sqrt 2, else X = 2 sin^2(kx / 2) and
    Delta = v(0, pi); Delta and the slope come from the float inputs in
    40-digit decimal arithmetic.
    """
    # imported here, not at module level: only this route needs decimal,
    # and importing it costs every CLI start a few milliseconds
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        omega, kappa, n_atoms, g1, g2 = (Decimal(x) for x in (
            params.omega, params.kappa, params.n_atoms, params.g1, params.g2))
        scale, root2 = 2 * n_atoms * omega, Decimal(2).sqrt()
        tilt = g1 - g2 / root2
        pipi = tilt >= 0
        # v(pi, pi) on the first branch, v(0, pi) on the other
        corner = -g1 - g2 + g2 / root2 if pipi else g1 - g2 - g2 / root2
        delta = float(omega * (omega + 4 * kappa * n_atoms) + scale * corner)
        slope = float(scale * abs(tilt))
    bscale = 2.0 * params.coupling_scale * params.g2
    d = np.arange(dmax + 1)
    sums = [np.zeros((dmax + 1, dmax + 1)), np.zeros((dmax + 1, dmax + 1))]
    for level in itertools.count():
        kx, rest, w = _tanh_sinh_level(level)
        v_pi = delta + slope * 2.0 * np.sin(0.5 * (rest if pipi else kx)) ** 2
        jm = np.zeros((dmax + 1, kx.size))
        jp = np.zeros_like(jm)
        if bscale <= 1e-17 * delta:
            # b / a below 2e-17 (g2 = 0 makes it exact): v = a = v(kx, pi)
            jm[0], jp[0] = v_pi ** -0.5, v_pi ** 0.5
        else:
            b = bscale * (1.0 + np.cos(kx) / np.sqrt(2.0))
            q, k, E = _legendre_q(v_pi / b, dmax + 1)
            sign = np.where(d % 2, -1.0, 1.0)[:, None]
            c = np.sqrt(2.0) / (np.pi * np.sqrt(b))
            jm[:] = sign * c * q[:-1]
            jp[0] = c * b * 2.0 * E / k
            jp[1:] = sign[1:] * c * b * (q[2:] - q[:-2]) / (4.0 * d[1:, None])
        cx = w * _cos_multiples(d, kx)
        sums[0] += cx @ jm.T
        sums[1] += cx @ jp.T
        h = TANH_SINH_H0 / 2 ** level
        yield ((sums[0] * (h / (2.0 * np.pi)), sums[1] * (h / (2.0 * np.pi))),
               f"Legendre tanh-sinh step {h:g}")


def covariance_infinite(params: CouplingParams, dmax: int) -> CorrelationTable:
    """Infinite-lattice correlations by zone quadrature:

        <q_0 q_r> = (1 / 2 (2 pi)^2) int v(k)^(-1/2) cos(k.r) d^2k

    The returned table covers the quadrant 0 <= |dx|, |dy| <= ``dmax``.
    Couplings whose softness min v / on-site is below LEGENDRE_SOFTNESS take
    the 1-D Legendre route, the others the 2-D grid; either refines until
    successive levels agree to QUAD_REL_TOL per entry.
    """
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    vmin, _ = zone_minimum(params)
    _guard_softness(vmin, params.on_site)
    near = vmin < LEGENDRE_SOFTNESS * params.on_site
    qq, pp = _refine((_legendre_tables if near else _grid_tables)(params, dmax))
    qq.flags.writeable = False
    pp.flags.writeable = False
    return CorrelationTable(qq=qq, pp=pp, kind="infinite")


def covariances_for(params: CouplingParams, spec: LatticeSpec, max_displacement: int = 0):
    """Ground-state covariances of ``spec`` on its own engine, ``spec.engine``.

    Returns SineModes (dense, the open lattice) or a CorrelationTable (fft,
    infinite); an infinite table covers displacements up to
    ``max_displacement`` in each component.
    """
    if spec.engine == "dense":
        return covariance_dst(spec, params)
    if spec.engine == "fft":
        return covariance_pbc_fft(spec, params)
    return covariance_infinite(params, max_displacement)


def excitation_density(params: CouplingParams, spec: LatticeSpec) -> float:
    """Mean excitation number per atom, (omega <q^2> + <p^2>/omega - 1) / (2N).

    Small values validate the low-excitation reduction.  Open lattices use
    the center site's moments (they vary with position there).
    """
    Q, P = covariances_for(params, spec).block([spec.center])
    n_exc = (params.omega * float(Q[0, 0]) + float(P[0, 0]) / params.omega - 1.0) / 2.0
    return n_exc / params.n_atoms
