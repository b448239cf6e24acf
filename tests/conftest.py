from dataclasses import replace

import numpy as np
import pytest

from spinwave import CouplingParams, covariances_for_each, dispersion_value, two_site_params


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
