"""Ground-state second moments <q_i q_j> and <p_i p_j>.

The ground state of H = (1/2) p.p + (1/2) q.V.q is Gaussian with

    Q = V^(-1/2) / 2      P = V^(1/2) / 2

and vanishing first moments.  Every lattice is a transform plus the symbol
v(k) of ``dispersion_value`` (Audenaert, Eisert, Plenio & Werner, PRA 66,
042327 (2002)), and the lattice picks the engine that evaluates it
(``LatticeSpec.engine``):

* ``covariance_pbc_fft``   -- the circulant modes by a folded cosine transform, for periodic ones,
                              and the open ones' modes alike (engine name ``dense``)
* ``covariance_infinite``  -- zone quadrature in the M -> oo limit, ky in
                              closed form and kx by tanh-sinh

Each returns a ``CorrelationTable`` on its lattice, correlations by displacement
in one (|dx|, |dy|) quadrant layout, whose ``block(sites)`` gives the principal
submatrices (Q_L, P_L) on a list of sites.  An open M x M lattice's DST-I modes
are interior modes of its period 2 (M + 1) (``LatticeSpec.period``), and v is
evaluated on them alone: the period's others, (pi, pi) among them, may be unstable
where the open lattice is not.  As sin a sin b is a difference of cosines (Strang,
SIAM Rev. 41, 135 (1999)), with T the period's table and s = a + b + 2 per axis,

    Q(a, b) = T(a - b) - T(sx, dy) - T(dx, sy) + T(sx, sy),  P alike.

``covariances_for_each`` is the one dispatch point: it runs a lattice's engine
over a sweep, one set of constants with arrays of strengths g1 and g2, block by
block, each block's couplings stacked in one table.  ``covariances_for`` is its
sweep of one, as are ``covariance_pbc_fft`` and ``covariance_infinite`` on their
lattices.  ``covariance_dense``, the symmetric eigendecomposition of the full V
on any finite lattice, is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .model import CRITICAL_GUARD, CouplingParams, LatticeSpec, StabilityError, build_potential
from .spectrum import dispersion_grid, veltkamp_split, zone_branch


@dataclass(frozen=True)
class CovariancePair:
    """Full position/momentum covariance matrices of the Gaussian ground state."""

    Q: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    spec: LatticeSpec

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on the sites (x, y): periodic lattices wrap,
        open ones refuse sites off the lattice, and no site may be named twice."""
        idx = [self.spec.site_index(x, y) for x, y in sites]
        if len(set(idx)) < len(idx):
            raise ValueError("block names one lattice site twice")
        return self.Q[np.ix_(idx, idx)], self.P[np.ix_(idx, idx)]


def _displacement(a, b, mirrored):
    """Per axis, a term's displacement a - b, or an open table's mirror term (module notes)."""
    return a + b + 2 if mirrored else a - b


# an open table's mirror terms after the direct one: (join, x mirrored, y mirrored)
MIRROR_TERMS = ((np.subtract, True, False), (np.subtract, False, True), (np.add, True, True))


@dataclass(frozen=True)
class CorrelationTable:
    """Translation-invariant correlations on the lattice ``spec``, keyed by displacement:
    qq/pp are (Dx+1) x (Dy+1) quadrant arrays indexed by (|dx|, |dy|), the dispersion
    being even in each wavevector component.  A finite table folds each component
    modulo the lattice's ``period`` P onto 0..P//2.  (Dx, Dy) is the reader's reach per
    axis; a finite table is square, cut at the larger of the two and at most P//2 (the
    whole table, always when open: its mirror images reach far).  A displacement
    beyond either axis's extent is refused.  A sweep's block stacks its couplings'
    tables along leading axes, read alike."""

    qq: np.ndarray = field(repr=False)
    pp: np.ndarray = field(repr=False)
    spec: LatticeSpec

    def displacement_index(self, dx, dy) -> tuple[np.ndarray, np.ndarray]:
        """Table indices of the displacements (dx, dy), integers or integer arrays of one
        shape: min(d mod P, P - d mod P) for a finite table of period P, (|dx|, |dy|)
        for an infinite one; an index beyond the table's extent on either axis is refused."""
        (ex, ey), M = self.qq.shape[-2:], self.spec.period
        if M is None:
            dx, dy = np.abs(dx), np.abs(dy)
        else:
            dx, dy = np.mod(dx, M), np.mod(dy, M)
            dx, dy = np.minimum(dx, M - dx), np.minimum(dy, M - dy)
        outside = np.ravel((dx >= ex) | (dy >= ey))
        if outside.any():
            first = int(np.argmax(outside))
            extent = f"{ex - 1}" if ex == ey else f"{ex - 1} x {ey - 1}"
            raise ValueError(f"displacement ({np.ravel(dx)[first]}, {np.ravel(dy)[first]}) "
                             f"not in table (extent {extent})")
        return dx, dy

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on each list of sites (x, y), batches of
        lists (..., n, 2) in one gather after the table's stack axes; no list may
        name one lattice site twice, and an open table refuses a site off its
        lattice and adds the mirror terms (module notes)."""
        sites = np.asarray(sites, dtype=int)
        if sites.ndim < 2 or sites.shape[-1] != 2:
            raise ValueError(f"sites must be (x, y) pairs, shape (..., n, 2), not {sites.shape}")
        is_open = self.spec.boundary == "open"
        if is_open:
            self.spec.site_index(sites[..., 0], sites[..., 1])  # refuses a site off the lattice
        a, b = sites[..., :, None, :], sites[..., None, :, :]
        dx, dy = self.displacement_index(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])
        Q, P = self.qq[..., dx, dy], self.pp[..., dx, dy]
        if dx.size - (dx.size and dx.size // dx.shape[-1]) - np.count_nonzero(dx | dy):
            raise ValueError("block names one lattice site twice")
        del dx, dy  # a batch holds one set of index arrays at a time
        for add, mx, my in MIRROR_TERMS if is_open else ():
            ix, iy = self.displacement_index(_displacement(a[..., 0], b[..., 0], mx),
                                             _displacement(a[..., 1], b[..., 1], my))
            add(Q, self.qq[..., ix, iy], out=Q)
            add(P, self.pp[..., ix, iy], out=P)
            del ix, iy
        return Q, P

    def sectors(self, x0: int, y0: int, L: int,
                diagonal: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Parity sectors (Q, P) of the L x L block anchored at (x0, y0) of a table of
        one coupling, each (4, h^2, h^2) with h = ceil(L/2): sector (sy, sx), in the
        order (+, +), (+, -), (-, +), (-, -), is G0 + sx Gx + sy (Gy + sx Gxy) over the
        block's lower-left quadrant (sites y-major), the cross-blocks of the quadrant
        against itself and its mirror images in x, y and both.  They are gathered one
        axis at a time: per axis, the quadrant's (h, h) folded displacements to its
        direct and its mirrored image (an open table subtracts the mirror terms),
        first along x, then along y.  The block's sectors when it commutes with both
        reflections (entanglement module notes); refusals as ``block``'s, an open
        table's naming a corner of the block.  ``diagonal`` says the table is also
        even under dx <-> dy, so (-, +) is (+, -)'s mirror: it is not folded, and
        the three others come as (3, h^2, h^2) in the order (+, +), (+, -), (-, -)."""
        is_open = self.spec.boundary == "open"
        if is_open:  # refuses a corner off the lattice
            self.spec.site_index(np.array([x0, x0 + L - 1]), np.array([y0, y0 + L - 1]))
        i = np.arange((L + 1) // 2)

        def axis(c):
            # rows a = c + i against the columns b = c + i' and their mirror c + L - 1 - i'
            a, b = c + i[:, None], c + np.stack([i, L - 1 - i])[:, None, :]
            return np.stack([_displacement(a, b, m) for m in (False, True)[:1 + is_open]])

        ix, iy = self.displacement_index(axis(x0), axis(y0))  # (term, image, h, h)

        def fold(G, plus, minus, sx=slice(None)):
            # G (term, image, ...) into plus and minus: the direct image plus, then
            # minus, the mirrored one, an open table's terms d - s first.  In the y
            # pass minus may fold only the x signs sx of G's trailing (sx, i, i')
            G = G[0] - G[1] if is_open else G[0]
            np.add(G[0], G[1], out=plus)
            np.subtract(G[0][..., sx, :, :], G[1][..., sx, :, :], out=minus)

        h, out = i.size, []
        for T in (self.qq, self.pp):
            U = np.empty((T.shape[1], 2, h, h))  # (dy, sx, i, i')
            U_ = U.transpose(1, 2, 3, 0)
            fold(T[ix], U_[0], U_[1])
            S = np.empty((3 if diagonal else 4, h, h, h, h))  # (sector, j, i, j', i')
            S_ = S.transpose(1, 3, 0, 2, 4)  # (j, j', sector, i, i')
            # with diagonal, sy = - folds sx = - alone: (-, +) is skipped
            fold(U[iy], S_[..., :2, :, :], S_[..., 2:, :, :], slice(1 if diagonal else 0, None))
            out.append(S.reshape(-1, h * h, h * h))
        return tuple(out)


def _refusal(vmin: float, on_site: float) -> str | None:
    """The guard's message for a min v that is not positive or lies within CRITICAL_GUARD
    of zero relative to on_site, else None; its tests and digits are monotone in min v."""
    return (None if vmin > 0 and vmin >= CRITICAL_GUARD * on_site else
            f"beyond critical coupling (min v = {vmin:.6g})" if vmin <= 0 else
            f"within {CRITICAL_GUARD:g} of criticality (min v / on-site = "
            f"{vmin / on_site:.3g}); matrix square roots are unreliable here")


def _guard_softness(vmins: np.ndarray, on_site: float) -> dict:
    """A StabilityError by index for each min v among ``vmins`` (1-D) that ``_refusal`` refuses."""
    soft = (vmins <= 0) | (vmins < CRITICAL_GUARD * on_site)
    return {i: StabilityError(_refusal(vmin, on_site))
            for i, vmin in zip(np.flatnonzero(soft).tolist(), vmins[soft].tolist())}


def covariance_dense(spec: LatticeSpec, params: CouplingParams) -> CovariancePair:
    """Q = V^(-1/2)/2 and P = V^(1/2)/2 by symmetric eigendecomposition."""
    w, U = np.linalg.eigh(build_potential(spec, params))
    if refused := _guard_softness(w[:1], params.on_site):
        raise refused[0]
    Q = (U * (w ** -0.5)) @ U.T / 2.0
    P = (U * (w ** 0.5)) @ U.T / 2.0
    Q = 0.5 * (Q + Q.T)
    P = 0.5 * (P + P.T)
    Q.flags.writeable = False
    P.flags.writeable = False
    return CovariancePair(Q=Q, P=P, spec=spec)


def covariance_pbc_fft(spec: LatticeSpec, params: CouplingParams) -> CorrelationTable:
    """Periodic-lattice correlations <q_0 q_r> = (1 / 2 M^2) sum_k v(k)^(-1/2) cos(k.r)
    on the circulant eigenvalue grid, and the same with v^(+1/2) for momenta: the whole
    table, ``covariances_for``'s batch of one, by a real cosine transform per axis."""
    if spec.boundary != "periodic":
        raise ValueError("FFT engine requires a finite periodic lattice")
    return covariances_for(params, spec, spec.side // 2)


@lru_cache(maxsize=64)
def _cosine_matrix(M: int) -> np.ndarray:
    """C[d, m] = w_m cos(2 pi r / M) for d, m = 0..M//2, r = min(d m mod M, M - d m mod M)
    reduced in integers; w_m = 2 counts the modes m and M - m, except at m = 0 and M / 2."""
    d = np.arange(M // 2 + 1)
    dm = np.outer(d, d) % M
    w = np.where((d == 0) | (2 * d == M), 1.0, 2.0)
    return w * np.cos(2.0 * np.pi * np.minimum(dm, M - dm) / M)


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
# couplings x grid points per block of a finite sweep: its fixed numpy calls
# per block, not its arithmetic, dominated blocks of 2^12
FINITE_BLOCK_POINTS = 2 ** 14
# the forward Legendre recurrence amplifies roundoff by about exp(2 m eta);
# it runs where 2 max(m_top, 4) eta stays below log(100) (the floor of 4
# also keeps z k K - 2 E / k, the start Q_{1/2}, clear of cancellation)
FORWARD_GROWTH = np.log(100.0)


def _legendre_q(zm1: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Toroidal functions Q_{m-1/2}(z) for m = 0..top (top >= 0) at z = 1 + zm1 > 1, as
    a (top + 1, *zm1.shape) array, plus the modulus k = sqrt(2 / (z + 1))
    and the complete elliptic integral E(k) of each z.  The AGM iterates per row
    of 2-D zm1, and each backward node starts from its own eta.

    Q_{-1/2} = k K(k) and Q_{1/2} = z k K(k) - (2 / k) E(k), with K and E from
    the AGM on the complementary modulus sqrt(zm1 / (z + 1)) (DLMF 19.8), so
    nothing is lost to 1 - k near z = 1; top = 0 stops there.  Higher orders
    follow the three-term recurrence
    (m + 1/2) Q_{m+1/2} = 2 m z Q_{m-1/2} - (m - 1/2) Q_{m-3/2}:
    forward where eta = arccosh z is small, elsewhere as backward ratios for
    the minimal solution (Gil, Segura & Temme, J. Comput. Phys. 161, 204
    (2000)), normalised by Q_{-1/2}.  Each node's float operations do not depend
    on the others': the nodes of each kind run gathered, and the updates run in place.
    """
    z = 1.0 + zm1
    k = np.sqrt(2.0 / (zp1 := z + 1.0))
    a, g = np.ones_like(zm1), np.sqrt(zm1 / zp1)
    csum, weight = 0.5 * k * k, 1.0  # sum of 2^(n-1) c_n^2 (DLMF 19.8.6)
    c, t = np.empty_like(zm1), np.empty_like(zm1)  # c = a - g, halved, and a temporary
    while (running := np.any(np.subtract(a, g, out=c) > 1e-15 * a, axis=-1, keepdims=True)).any():
        c *= 0.5
        if running.all():
            np.multiply(a, g, out=t)
            a += g
            a *= 0.5
            np.sqrt(t, out=g)
            csum += np.multiply(weight, c, out=t) * c
        else:
            a, g, csum = (np.where(running, 0.5 * (a + g), a), np.where(running, np.sqrt(a * g), g),
                          np.where(running, csum + weight * c * c, csum))
        weight *= 2.0
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    q = np.empty((top + 1,) + zm1.shape)
    q[0] = k * K
    if not top:
        return q, k, E
    eta = np.log1p(zm1 + np.sqrt(zm1 * (zm1 + 2.0)))
    forward = 2.0 * max(top, 4) * eta <= FORWARD_GROWTH
    if forward.any():
        zf = z[forward]
        qf = np.empty((top + 1, zf.size))
        qf[0] = q[0, forward]
        qf[1] = zf * qf[0] - 2.0 * E[forward] / k[forward]
        for m in range(1, top):
            qf[m + 1] = (2.0 * m * zf * qf[m] - (m - 0.5) * qf[m - 1]) / (m + 0.5)
        q[:, forward] = qf
    if not forward.all():
        back = ~forward
        zb, eb = z[back], eta[back]
        # ratios r_m = Q_{m-1/2} / Q_{m-3/2}, started from their limit exp(-eta)
        # far enough above top that the start error has decayed below 1e-17
        start = top + np.ceil(39.0 / (2.0 * eb))
        ratios = np.empty((top, zb.size))
        r, t, u = np.exp(-eb), np.empty_like(zb), np.empty_like(zb)
        # every start lies above top: steps above it update the nodes started
        # so far, those from top down every node, straight into its ratio row
        for m in range(int(np.max(start)), 0, -1):
            step = ratios[m - 1] if m <= top else t
            np.multiply(2.0 * m, zb, out=step)
            np.multiply(m + 0.5, r, out=u)
            np.subtract(step, u, out=step)
            np.divide(m - 0.5, step, out=step)
            if m <= top:
                r = step
            else:
                np.copyto(r, step, where=m <= start)
        np.cumprod(ratios, axis=0, out=ratios)
        ratios *= q[0, back]
        q[1:, back] = ratios
    return q, k, E


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Nodes of tanh-sinh level ``level`` on [0, pi]: kx, the weights and the terms
    ``_legendre_block`` reads of each node, sin^2(kx / 2), sin^2((pi - kx) / 2) (pi - kx
    computed directly, so neither end loses digits) and 1 + cos kx / sqrt 2.  Level
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
    return kx, w, (np.sin(0.5 * kx) ** 2, np.sin(0.5 * rest) ** 2, 1.0 + np.cos(kx) / np.sqrt(2.0))


def _cos_multiples(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(d x) for every integer d and node x, without the d-fold growth of
    the rounding error of the product d * x: x splits into two 26-bit
    halves (Veltkamp), whose products with d are exact, and the angle sum
    is expanded."""
    hi, lo = veltkamp_split(x)
    a, b = np.outer(d, hi), np.outer(d, lo)
    return np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b)


def _legendre_block(branches: np.ndarray, nodes, cx, ry: int) -> np.ndarray:
    """Unscaled tanh-sinh sums, shape (block, 2, rx + 1, ry + 1) with qq then pp, for
    couplings given by ``zone_branch`` rows, at nodes kx given by their ``_tanh_sinh_level``
    terms ``nodes`` and the rows cx = w cos(dx kx), dx = 0..rx.  The orders dy = 0..ry need
    Q_{m-1/2} up to m = ry + 1, and Q_{-1/2} alone when ry = 0 (J+_0 reads E).

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
    half_kx, half_rest, tilt = nodes  # each coupling gathers its branch's X / 2 per node
    v_pi = delta[:, None] + slope[:, None] * 2.0 * np.where(pipi[:, None], half_rest, half_kx)
    d = np.arange(ry + 1)
    # b / a below 2e-17 (g2 = 0 makes it exact): v = a = v(kx, pi)
    flat = bscale <= 1e-17 * delta
    # every coupling curved: the curved sums are the block's, with no scatter
    curved = ...
    if flat.any():
        jm = np.zeros((ry + 1,) + v_pi.shape)
        jp = np.zeros_like(jm)
        jm[0, flat], jp[0, flat] = v_pi[flat] ** -0.5, v_pi[flat] ** 0.5
        curved = ~flat
    if curved is ... or curved.any():
        b = bscale[curved, None] * tilt
        q, k, E = _legendre_q(v_pi[curved] / b, ry + 1 if ry else 0)
        sign = np.where(d % 2, -1.0, 1.0)[:, None, None]
        c = np.sqrt(2.0) / (np.pi * np.sqrt(b))
        jm_c = sign * c * q[:ry + 1]
        jp_c = np.empty_like(jm_c)
        jp_c[0] = c * b * 2.0 * E / k
        jp_c[1:] = sign[1:] * c * b * (q[2:] - q[:ry]) / (4.0 * d[1:, None, None])
        if curved is ...:
            jm, jp = jm_c, jp_c
        else:
            jm[:, curved], jp[:, curved] = jm_c, jp_c
    return np.stack([cx @ np.ascontiguousarray(np.moveaxis(j, 0, 1)).transpose(0, 2, 1)
                     for j in (jm, jp)], axis=1)


def _refine(branches: np.ndarray, rx: int, ry: int) -> tuple[np.ndarray, dict]:
    """(batch, 2, rx + 1, ry + 1) tables, qq then pp, of couplings
    given by ``zone_branch`` rows, and a QuadratureConvergenceError by batch index
    for each that does not converge.  The tanh-sinh step halves from level to
    level; each coupling leaves the batch at its own first pair of levels that
    agree to QUAD_REL_TOL per entry, so its tables are what it gets alone."""
    if 16 * max(1, len(branches)) * (rx + 1) * (ry + 1) > np.iinfo(np.intp).max:
        raise MemoryError(f"infinite-lattice tables of extent {rx} x {ry} are too large to "
                          f"represent: {(rx + 1) * (ry + 1)} entries each")
    sums = np.zeros((len(branches), 2, rx + 1, ry + 1))
    tables, failed = np.zeros_like(sums), {}
    live = np.arange(len(branches))
    for level in range(QUAD_MAX_REFINEMENTS + 1):
        kx, w, nodes = _tanh_sinh_level(level)
        cx = w * _cos_multiples(np.arange(rx + 1), kx)
        step = max(1, LEVEL_BLOCK_POINTS // kx.size)
        for block in np.split(live, range(step, live.size, step)):
            sums[block] += _legendre_block(branches[block], nodes, cx, ry)
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
    return tables, failed


def covariance_infinite(params: CouplingParams, dmax: int) -> CorrelationTable:
    """Infinite-lattice correlations by zone quadrature,

        <q_0 q_r> = (1 / 2 (2 pi)^2) int v(k)^(-1/2) cos(k.r) d^2k,

    for 0 <= |dx|, |dy| <= ``dmax``."""
    return covariances_for(params, LatticeSpec.infinite_lattice(), dmax)


def covariances_for(params: CouplingParams, spec: LatticeSpec, max_displacement=0):
    """The CorrelationTable of ``spec`` up to ``max_displacement``, an int d or a pair
    (rx, ry) as ``covariances_for_each`` reads it: that function's sweep of one."""
    ((_, cov, refused),) = covariances_for_each(params, [params.g1], [params.g2], spec,
                                                max_displacement)
    if refused:
        raise refused[0]
    return replace(cov, qq=cov.qq[0], pp=cov.pp[0])


def covariances_for_each(params: CouplingParams, g1, g2, spec: LatticeSpec,
                         max_displacement=0):
    """``spec``'s engine (``spec.engine``, picked here only) over the couplings ``params``
    with dipolar strengths (g1[i], g2[i]), whose refusal by CouplingParams raises its
    ValueError.  Each block yields (index, cov, refused): its stable couplings' sweep
    indices, one CorrelationTable stacking their tables along a leading axis (an empty
    stack when all are refused) and each refused coupling's StabilityError or
    QuadratureConvergenceError by sweep index.  Tables hold the displacements up to
    ``max_displacement``: a pair (rx, ry) bounds |dx| and |dy| apart, an int d means
    (d, d).  The infinite table is (rx + 1) x (ry + 1); a finite one is square, at most
    the whole table of the lattice's modes (``LatticeSpec.period``), which an open one
    always is.  A finite lattice runs blocks of at most FINITE_BLOCK_POINTS grid points,
    the infinite one a single batch, each guarded on its min v at once."""
    g1, g2 = params.strength_arrays(g1, g2)
    rx, ry = (max_displacement,) * 2 if np.ndim(max_displacement) == 0 else max_displacement
    if min(rx, ry) < 0:
        raise ValueError(f"dmax must be >= 0, got {max_displacement}")
    period = spec.period
    size = max(1, g1.size if spec.infinite else FINITE_BLOCK_POINTS // (period // 2 + 1) ** 2)
    if not spec.infinite:
        # a periodic table's rows end at the reach; an open one's mirror images reach
        # far.  The cut stays square, which keeps fig3's finite tables' bits.  At one
        # BLAS thread a cut of r + 1 >= 2 rows was bitwise the whole table's for
        # M <= 60, and mostly not at M = 80 (last bit); reach 0's one-row cut runs a
        # matrix-vector product that moved entries by up to 3e-16 of the largest
        reach = period // 2 if spec.boundary == "open" else min(max(rx, ry), period // 2)
        C = _cosine_matrix(period)[:reach + 1, spec.modes]
        # a block's symbol and its powers, reused from block to block
        v_all = np.empty((min(size, g1.size), C.shape[1], C.shape[1]))
        x_all = np.empty((v_all.shape[0], 2) + v_all.shape[1:])
    for start in range(0, g1.size, size):
        block = slice(start, start + size)
        v = (zone_branch(params, g1[block], g2[block], lambda d: _refusal(d, params.on_site))
             if spec.infinite else dispersion_grid(params, spec, g1[block, None, None],
                                                   g2[block, None, None], v_all[:g1[block].size]))
        vmins = v[:, 0] if spec.infinite else np.min(v, axis=(1, 2))
        refused = _guard_softness(vmins, params.on_site)
        stable = np.delete(np.arange(vmins.size), list(refused))
        if spec.infinite:
            tables, failed = _refine(v[stable], rx, ry)
            refused.update((int(stable[j]), exc) for j, exc in failed.items())
            stable, tables = np.delete(stable, list(failed)), np.delete(tables, list(failed), 0)
        else:
            x, v = x_all[:stable.size], v if stable.size == len(v) else v[stable]
            np.power(v, -0.5, out=x[:, 0])
            np.sqrt(v, out=x[:, 1])
            # x's first mode goes in exactly: a constant v (g = 0) gets exact
            # off-site zeros (on an open lattice once its images cancel)
            x -= (first := x[..., :1, :1].copy())
            tables = C @ x @ C.T * (0.5 / period ** 2)
            tables[..., 0, 0] += 0.5 * first[..., 0, 0]
        tables.flags.writeable = False
        yield (start + stable, CorrelationTable(tables[:, 0], tables[:, 1], spec),
               {start + i: exc for i, exc in refused.items()})


def excitation_density(params: CouplingParams, spec: LatticeSpec) -> float:
    """Mean excitation number per atom, (omega <q^2> + <p^2>/omega - 1) / (2N).

    Small values validate the low-excitation reduction.  Open lattices use
    the center site's moments (they vary with position there).
    """
    Q, P = covariances_for(params, spec).block([spec.center])
    n_exc = (params.omega * float(Q[0, 0]) + float(P[0, 0]) / params.omega - 1.0) / 2.0
    return n_exc / params.n_atoms
