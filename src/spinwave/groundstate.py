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
* ``covariance_infinite``  -- zone quadrature in the M -> oo limit, ky in
                              closed form and kx by tanh-sinh

The periodic/infinite engines return correlations as a function of the
displacement only (translation invariance); the open engine returns the
transform and the symbol, from which a block takes only its own rows.  Each
container answers ``block(sites)`` with the principal submatrices (Q_L, P_L)
on a list of sites.  ``covariances_for`` runs a lattice's engine at one
coupling, ``covariances_for_each`` at a sweep's (one quadrature batch on the
infinite lattice).  ``covariance_dense``, the symmetric eigendecomposition of
the full V on any finite lattice, is the tests' oracle for the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import CRITICAL_GUARD, CouplingParams, LatticeSpec, StabilityError, build_potential
from .spectrum import dispersion_grid, zone_minimum


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


# The infinite-lattice quadrature refines level by level until successive
# levels agree to QUAD_REL_TOL per entry, at most QUAD_MAX_REFINEMENTS times.
# Entries below LEVEL_FLOOR of the largest one are held to QUAD_REL_TOL *
# LEVEL_FLOOR = 64 eps (1.4e-14) of the largest entry instead: level-to-level
# roundoff plateaus at 5e-15 to 7e-15 of it, so a lower floor asks for
# agreement that roundoff alone can deny.
QUAD_REL_TOL = 1e-10
QUAD_MAX_REFINEMENTS = 8
LEVEL_FLOOR = 64 * np.finfo(float).eps / QUAD_REL_TOL


class QuadratureConvergenceError(RuntimeError):
    """Successive quadrature levels did not agree to QUAD_REL_TOL within
    QUAD_MAX_REFINEMENTS refinements; carries the last two estimates.  None is
    expected: the quadrature took at most seven of its eight halvings at every
    softness tried down to the CRITICAL_GUARD (tables up to dmax = 160)."""

    def __init__(self, message, last, previous):
        super().__init__(message)
        self.last = last
        self.previous = previous


def _level_error(cur, prev) -> np.ndarray:
    """Largest per-entry relative change between two quadrature levels of
    tables stacked as (..., 2, D + 1, D + 1), qq and pp: one per leading index.
    Entries below LEVEL_FLOOR of a table's largest one (the on-site value)
    are measured against that floor; among them is exact-cancellation
    residue, e.g. every off-site correlation of the decoupled lattice."""
    big = np.max(np.abs(cur), axis=(-2, -1), keepdims=True)
    rel = np.abs(cur - prev) / np.maximum(np.abs(cur), LEVEL_FLOOR * big)
    return np.max(rel, axis=(-3, -2, -1))


# tanh-sinh nodes t = j h with |t| <= TANH_SINH_T (the truncated tail weighs
# below pi exp(-pi sinh 3.5) ~ 1e-22); the first level has step 1/2
TANH_SINH_T = 3.5
TANH_SINH_H0 = 0.5
# couplings x nodes per block of a batch's level: a working set near one coupling's
LEVEL_BLOCK_POINTS = 2 ** 12
# the forward Legendre recurrence amplifies roundoff by about exp(2 m eta);
# it runs where 2 max(m_top, 4) eta stays below log(100) (the floor of 4
# also keeps z k K - 2 E / k, the start Q_{1/2}, clear of cancellation)
FORWARD_GROWTH = np.log(100.0)


def _legendre_q(zm1: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Toroidal functions Q_{m-1/2}(z) for m = 0..top (top >= 1) at z = 1 + zm1 > 1, as
    a (top + 1, *zm1.shape) array, plus the modulus k = sqrt(2 / (z + 1))
    and the complete elliptic integral E(k) of each z.  A row of 2-D zm1 is
    computed as if alone: AGM and backward-ratio start depend on its nodes only.

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
    while (running := np.any(a - g > 1e-15 * a, axis=-1, keepdims=True)).any():
        c = 0.5 * (a - g)
        a, g, csum = (np.where(running, 0.5 * (a + g), a), np.where(running, np.sqrt(a * g), g),
                      np.where(running, csum + weight * c * c, csum))
        weight *= 2.0
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    q = np.empty((top + 1,) + zm1.shape)
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
        eta_min = np.min(np.where(back, eta, np.inf), axis=-1, keepdims=True)
        start = np.broadcast_to(top + np.ceil(39.0 / (2.0 * eta_min)), eta.shape)[back]
        r = np.exp(-eb)
        ratios = np.empty((top, zb.size))
        for m in range(int(np.max(start)), 0, -1):
            r = np.where(m <= start, (m - 0.5) / (2.0 * m * zb - (m + 0.5) * r), r)
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


def _branch(params: CouplingParams) -> tuple[float, float, bool, float]:
    """(Delta, slope, pipi, bscale) of a coupling: v(kx, pi) = Delta + slope X
    with X = 2 sin^2((pi - kx) / 2) and Delta = v(pi, pi) if g1 >= g2 / sqrt 2
    (pipi), else X = 2 sin^2(kx / 2) and Delta = v(0, pi); Delta and the
    slope come from the float inputs in 40-digit decimal arithmetic, and
    bscale = 2 N omega g2."""
    # imported here, not at module level: only the quadrature needs decimal,
    # and importing it costs every CLI start a few milliseconds
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        omega, kappa, n_atoms, g1, g2 = (Decimal(x) for x in (
            params.omega, params.kappa, params.n_atoms, params.g1, params.g2))
        scale, root2 = 2 * n_atoms * omega, Decimal(2).sqrt()
        tilt = g1 - g2 / root2
        corner = -g1 - g2 + g2 / root2 if tilt >= 0 else g1 - g2 - g2 / root2
        return (float(omega * (omega + 4 * kappa * n_atoms) + scale * corner),
                float(scale * abs(tilt)), tilt >= 0, 2.0 * params.coupling_scale * params.g2)


def _legendre_block(branches: np.ndarray, kx, rest, cx, dmax: int) -> np.ndarray:
    """Unscaled tanh-sinh sums, shape (block, 2, dmax + 1, dmax + 1) with qq then pp,
    for couplings given by ``_branch`` rows, at nodes kx, rest = pi - kx and cx = w cos(d kx).

    At fixed kx, v = a + b cos ky with b = bscale (1 + cos kx / sqrt 2) and
    z = a / b >= 1, and Heine's integral (DLMF 14.19) gives the ky integrals
    in closed form,

        J-_m = (1/2pi) int cos(m ky) v^(-1/2) dky = (-1)^m sqrt 2 / (pi sqrt b) Q_{m-1/2}(z)
        J+_m = (1/2pi) int cos(m ky) v^(+1/2) dky = a J-_m + b (J-_{m+1} + J-_{|m-1|}) / 2,

    the latter rewritten through the recurrence as (-1)^m sqrt 2 sqrt b
    (Q_{m+1/2} - Q_{m-3/2}) / (4 pi m) for m >= 1 and sqrt 2 sqrt b (2 / k)
    E(k) / pi for m = 0, free of the cancellation in a J-_m.  The kx integral
    on [0, pi] is tanh-sinh (Takahashi & Mori, Publ. RIMS 9, 721 (1974)):

        qq[dx, dy] = (1/2pi) int_0^pi cos(dx kx) J-_dy(kx) dkx.

    z - 1 = v(kx, pi) / b comes without cancellation from the branch form of
    v(kx, pi).  Every operation is elementwise or one matmul per coupling,
    so a coupling's sums do not depend on the rest of the block.
    """
    delta, slope, pipi, bscale = branches.T
    x = np.where(pipi[:, None], rest, kx)
    v_pi = delta[:, None] + slope[:, None] * 2.0 * np.sin(0.5 * x) ** 2
    d = np.arange(dmax + 1)
    jm = np.zeros((dmax + 1,) + v_pi.shape)
    jp = np.zeros_like(jm)
    # b / a below 2e-17 (g2 = 0 makes it exact): v = a = v(kx, pi)
    flat = bscale <= 1e-17 * delta
    jm[0, flat], jp[0, flat] = v_pi[flat] ** -0.5, v_pi[flat] ** 0.5
    curved = ~flat
    if curved.any():
        b = bscale[curved, None] * (1.0 + np.cos(kx) / np.sqrt(2.0))
        q, k, E = _legendre_q(v_pi[curved] / b, dmax + 1)
        sign = np.where(d % 2, -1.0, 1.0)[:, None, None]
        c = np.sqrt(2.0) / (np.pi * np.sqrt(b))
        jm[:, curved] = sign * c * q[:-1]
        jp[0, curved] = c * b * 2.0 * E / k
        jp[1:, curved] = sign[1:] * c * b * (q[2:] - q[:-2]) / (4.0 * d[1:, None, None])
    return np.stack([cx @ np.ascontiguousarray(np.moveaxis(j, 0, 1)).transpose(0, 2, 1)
                     for j in (jm, jp)], axis=1)


def _refine(branches: np.ndarray, dmax: int) -> tuple[np.ndarray, dict]:
    """Read-only (batch, 2, dmax + 1, dmax + 1) tables, qq then pp, of couplings
    given by ``_branch`` rows, and a QuadratureConvergenceError by batch index
    for each that does not converge.  The tanh-sinh step halves from level to
    level; each coupling leaves the batch at its own first pair of levels that
    agree to QUAD_REL_TOL per entry, so its tables are what it gets alone."""
    sums = np.zeros((len(branches), 2, dmax + 1, dmax + 1))
    tables, failed = np.zeros_like(sums), {}
    live = np.arange(len(branches))
    for level in range(QUAD_MAX_REFINEMENTS + 1):
        kx, rest, w = _tanh_sinh_level(level)
        cx = w * _cos_multiples(np.arange(dmax + 1), kx)
        step = max(1, LEVEL_BLOCK_POINTS // kx.size)
        for block in np.split(live, range(step, live.size, step)):
            sums[block] += _legendre_block(branches[block], kx, rest, cx, dmax)
        h = TANH_SINH_H0 / 2 ** level
        cur = sums[live] * (h / (2.0 * np.pi))
        if level:
            err = _level_error(cur, prev)
            done = err < QUAD_REL_TOL
            tables[live[done]] = cur[done]
            live, cur, prev, err = live[~done], cur[~done], prev[~done], err[~done]
        if not live.size:
            break
        if level == QUAD_MAX_REFINEMENTS:
            failed = {j: QuadratureConvergenceError(
                f"Legendre tanh-sinh step {h:g}: quadrature did not converge to "
                f"{QUAD_REL_TOL:g} within {QUAD_MAX_REFINEMENTS} refinements; last level "
                f"error {err[i]:.3g}", last=tuple(cur[i]), previous=tuple(prev[i]))
                for i, j in enumerate(live)}
        prev = cur
    tables.flags.writeable = False
    return tables, failed


def covariance_infinite(params: CouplingParams, dmax: int) -> CorrelationTable:
    """Infinite-lattice correlations by zone quadrature:

        <q_0 q_r> = (1 / 2 (2 pi)^2) int v(k)^(-1/2) cos(k.r) d^2k

    over the quadrant 0 <= |dx|, |dy| <= ``dmax``, by ``_refine`` as a batch
    of one; ``covariances_for_each`` runs many couplings as one batch.
    """
    table = next(covariances_for_each([params], LatticeSpec.infinite_lattice(), dmax))
    if isinstance(table, Exception):
        raise table
    return table


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


def covariances_for_each(couplings, spec: LatticeSpec, max_displacement: int = 0):
    """``covariances_for`` at each of the couplings (any iterable), yielded in
    order, or the StabilityError or QuadratureConvergenceError it raises.  A
    finite lattice runs ``covariances_for`` as each is drawn, so it holds one
    container at a time; an infinite one refines all as one batch (``_refine``)."""
    if spec.engine != "infinite":
        for p in couplings:
            try:
                cov = covariances_for(p, spec, max_displacement)
            except StabilityError as exc:
                cov = exc
            yield cov
        return
    if max_displacement < 0:
        raise ValueError(f"dmax must be >= 0, got {max_displacement}")
    slots, branches = [], []  # per coupling its refusal or its batch row
    for p in couplings:
        try:
            _guard_softness(zone_minimum(p)[0], p.on_site)
        except StabilityError as exc:
            slots.append(exc.with_traceback(None))  # a traceback pins the batch's frame
        else:
            slots.append(len(branches))
            branches.append(_branch(p))
    tables, failed = _refine(np.array(branches).reshape(-1, 4), max_displacement)
    for s in slots:
        yield s if isinstance(s, Exception) else failed.get(s) or CorrelationTable(
            qq=tables[s, 0], pp=tables[s, 1], kind="infinite")


def excitation_density(params: CouplingParams, spec: LatticeSpec) -> float:
    """Mean excitation number per atom, (omega <q^2> + <p^2>/omega - 1) / (2N).

    Small values validate the low-excitation reduction.  Open lattices use
    the center site's moments (they vary with position there).
    """
    Q, P = covariances_for(params, spec).block([spec.center])
    n_exc = (params.omega * float(Q[0, 0]) + float(P[0, 0]) / params.omega - 1.0) / 2.0
    return n_exc / params.n_atoms
