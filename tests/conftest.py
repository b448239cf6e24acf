from dataclasses import replace

import numpy as np
import pytest

from spinwave import CouplingParams, covariances_for_each, dispersion_value, two_site_params
from spinwave import entanglement, groundstate


@pytest.fixture
def paper_params():
    """omega = 500 kappa, N = 1000, equal couplings g1 = g2 = 1.5 kappa."""
    return CouplingParams(omega=500.0, kappa=1.0, n_atoms=1000, g1=1.5, g2=1.5)


def params_at(g, g2=None, omega=500.0, n_atoms=1000):
    return CouplingParams(omega=omega, kappa=1.0, n_atoms=n_atoms,
                          g1=g, g2=g if g2 is None else g2)


def full_symbol(params, side):
    """v(k) on the full side x side grid of periodic modes k = 2 pi m / side, [kx, ky]."""
    k = 2.0 * np.pi * np.arange(side) / side
    return dispersion_value(params, k[:, None], k[None, :])


def full_matrices(table, side):
    """Assemble full (Q, P) from a periodic correlation table, row-major sites."""
    return table.block([(x, y) for y in range(side) for x in range(side)])


def pair_params(cov, site_i, site_j):
    """``two_site_params`` of the one pair (site_i, site_j) of ``cov``, its refusal raised."""
    two = two_site_params(*cov.block([site_i, site_j]))
    if two.refusals:
        raise two.refusals[()]
    return two


def sweep_each(couplings, spec, dmax=0):
    """Each coupling's result in one ``covariances_for_each`` sweep over the
    strengths of ``couplings`` (one set of constants), in order: its
    CorrelationTable or its refusal."""
    out = {}
    for index, cov, refused in covariances_for_each(
            couplings[0], [p.g1 for p in couplings], [p.g2 for p in couplings], spec, dmax):
        out.update(refused)
        for j, i in enumerate(index):
            out[int(i)] = replace(cov, qq=cov.qq[j], pp=cov.pp[j])
    assert sorted(out) == list(range(len(couplings)))
    return [out[i] for i in range(len(couplings))]


def four_image_sectors(Q, P, L):
    """Parity sectors of an L x L block's (Q, P), sites y-major, by the four-image
    route: the cross-blocks (G0, Gy, Gx, Gxy) of the block's lower-left quadrant,
    sides ceil(L/2), against itself and its mirror images in y, in x and in both,
    summed G0 + sx Gx + sy (Gy + sx Gxy) per sector (sy, sx), in the order (+, +),
    (+, -), (-, +), (-, -).  The tests' oracle for ``CorrelationTable.sectors``."""
    h = (L + 1) // 2
    y, x = np.divmod(np.arange(h * h), h)
    images = [b * L + a for a, b in ((x, y), (x, L - 1 - y), (L - 1 - x, y), (L - 1 - x, L - 1 - y))]
    out = []
    for A in (Q, P):
        g0, gy, gx, gxy = (A[np.ix_(images[0], cols)] for cols in images)
        out.append(np.stack([g0 + sx * gx + sy * (gy + sx * gxy)
                             for sy in (1, -1) for sx in (1, -1)]))
    return tuple(out)


def masked_legendre_q(zm1, top):
    """``groundstate._legendre_q`` as written with masked copies: the AGM and the
    backward ratios step through ``np.where`` over every node, and the forward and
    backward nodes are gathered and scattered back by boolean masks.  The tests'
    oracle for the in-place kernel, which must match it bit for bit."""
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
    forward = 2.0 * max(top, 4) * eta <= groundstate.FORWARD_GROWTH
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
        start = top + np.ceil(39.0 / (2.0 * eb))
        r = np.exp(-eb)
        ratios = np.empty((top, zb.size))
        for m in range(int(np.max(start)), 0, -1):
            r = np.where(m <= start, (m - 0.5) / (2.0 * m * zb - (m + 0.5) * r), r)
            if m <= top:
                ratios[m - 1] = r
        q[1:, back] = q[0, back] * np.cumprod(ratios, axis=0)
    return q, k, E


def expression_symbol(params, kx, ky, g1, g2):
    """``spectrum.dispersion_value`` as written with a fresh temporary for every term and
    its cosines taken per call.  The tests' oracle for the symbol on cached cosines
    written in place, which must match it bit for bit."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    bracket = (g1 * np.cos(kx) + g2 * np.cos(ky)
               + 2.0 ** -1.5 * g2 * (np.cos(kx + ky) + np.cos(kx - ky)))
    return params.on_site + 2.0 * params.coupling_scale * bracket


def expression_finite_sweep(params, g1, g2, spec, reach, block_points):
    """A finite lattice's sweep in ``covariances_for_each`` as written with the symbol
    and its grid cosines evaluated per block, the powers stacked by ``np.stack`` and
    the k = 0 mode taken out of a copy: (sweep indices, tables (stable, 2, r, r),
    refusal text by sweep index) per block of ``block_points`` grid points.  The
    tests' oracle for the engine that reuses its buffers, which must match it bit
    for bit."""
    period = spec.period
    k = (2.0 * np.pi * np.arange(period // 2 + 1) / period)[spec.modes]
    reach = period // 2 if spec.boundary == "open" else min(reach, period // 2)
    C = groundstate._cosine_matrix(period)[:reach + 1, spec.modes]
    size = max(1, block_points // (period // 2 + 1) ** 2)
    for start in range(0, len(g1), size):
        v = expression_symbol(params, k[:, None], k[None, :], g1[start:start + size, None, None],
                              g2[start:start + size, None, None])
        refused = {}
        for i, vmin in enumerate(np.min(v, axis=(1, 2)).tolist()):
            if vmin <= 0:
                refused[start + i] = f"beyond critical coupling (min v = {vmin:.6g})"
            elif vmin < 1e-12 * params.on_site:
                refused[start + i] = (f"within 1e-12 of criticality (min v / on-site = "
                                      f"{vmin / params.on_site:.3g}); matrix square roots "
                                      "are unreliable here")
        stable = np.array([i for i in range(len(v)) if start + i not in refused], dtype=int)
        x = np.stack([v[stable] ** -0.5, v[stable] ** 0.5], axis=1)
        tables = C @ (x - x[..., :1, :1]) @ C.T * (0.5 / period ** 2)
        tables[..., 0, 0] += 0.5 * x[..., 0, 0]
        yield start + stable, tables, refused


def expression_tanh_sinh_level(level):
    """Nodes kx, pi - kx and weights of ``groundstate._tanh_sinh_level`` as written
    before it returned each node's kernel terms."""
    h = groundstate.TANH_SINH_H0 / 2 ** level
    j = np.arange(-int(groundstate.TANH_SINH_T / h), int(groundstate.TANH_SINH_T / h) + 1)
    if level:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    kx = np.pi / (1.0 + np.exp(-2.0 * u))
    rest = np.pi / (1.0 + np.exp(2.0 * u))
    w = 0.25 * np.pi ** 2 * np.cosh(t) / np.cosh(u) ** 2
    return kx, rest, w


def expression_legendre_block(branches, kx, rest, cx, ry):
    """``groundstate._legendre_block`` as written with sin^2 and cos kx taken over each
    block's (coupling, node) array and the masked Legendre kernel.  The tests' oracle
    for the block that reads each node's terms once, which must match it bit for bit."""
    delta, slope, pipi, bscale = branches.T
    x = np.where(pipi[:, None], rest, kx)
    v_pi = delta[:, None] + slope[:, None] * 2.0 * np.sin(0.5 * x) ** 2
    d = np.arange(ry + 1)
    flat = bscale <= 1e-17 * delta
    jm = np.zeros((ry + 1,) + v_pi.shape)
    jp = np.zeros_like(jm)
    jm[0, flat], jp[0, flat] = v_pi[flat] ** -0.5, v_pi[flat] ** 0.5
    curved = ~flat
    if curved.any():
        b = bscale[curved, None] * (1.0 + np.cos(kx) / np.sqrt(2.0))
        top = ry + 1 if ry else 0
        q, k, E = masked_legendre_q(v_pi[curved] / b, max(top, 1))
        sign = np.where(d % 2, -1.0, 1.0)[:, None, None]
        c = np.sqrt(2.0) / (np.pi * np.sqrt(b))
        jm_c = sign * c * q[:ry + 1]
        jp_c = np.empty_like(jm_c)
        jp_c[0] = c * b * 2.0 * E / k
        jp_c[1:] = sign[1:] * c * b * (q[2:top + 1] - q[:ry]) / (4.0 * d[1:, None, None])
        jm[:, curved], jp[:, curved] = jm_c, jp_c
    return np.stack([cx @ np.ascontiguousarray(np.moveaxis(j, 0, 1)).transpose(0, 2, 1)
                     for j in (jm, jp)], axis=1)


def decimal_zone_branch(params, g1, g2):
    """``spectrum.zone_branch`` as written in 40-digit decimal arithmetic for every
    row.  The tests' oracle for the double-double route, which must match it bit
    for bit."""
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


def expression_symplectic_spectrum(Q_L, P_L):
    """``entanglement.symplectic_spectrum`` as written with a fresh temporary for
    every step of the symmetry check and the congruence.  The tests' oracle for
    the buffer-reusing routine, which must match it bit for bit."""
    Q_L = np.atleast_2d(np.asarray(Q_L, dtype=float))
    P_L = np.atleast_2d(np.asarray(P_L, dtype=float))
    for name, A in (("Q", Q_L), ("P", P_L)):
        if not np.all(np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-2, -1))
                      <= 1e-12 * np.max(np.abs(A), axis=(-2, -1))):
            raise ValueError(f"{name} block is not symmetric")
    try:
        C = np.linalg.cholesky(P_L)
    except np.linalg.LinAlgError:
        raise ValueError("P block is not positive-definite") from None
    prod = 4.0 * np.swapaxes(C, -1, -2) @ Q_L @ C
    ev = np.linalg.eigvalsh(0.5 * (prod + np.swapaxes(prod, -1, -2)))
    if np.any(ev[..., 0] <= 0):
        raise ValueError("Q block is not positive-definite")
    return entanglement.SymplecticSpectrum.from_values(np.sqrt(ev).ravel())
