import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinwave import (BlockRegion, LatticeSpec, QuadratureConvergenceError,
                      StabilityError, build_potential, covariance_dense,
                      covariance_infinite, covariance_pbc_fft, covariances_for,
                      covariances_for_each, critical_g_equal,
                      dispersion_value, excitation_density, two_site_params,
                      two_site_sweep, zone_minimum)
from spinwave import groundstate
from spinwave.groundstate import _legendre_q

from spinwave.spectrum import zone_branch

from conftest import (expression_finite_sweep, expression_legendre_block, expression_symbol,
                      expression_tanh_sinh_level, four_image_sectors, full_matrices,
                      full_symbol, masked_legendre_q, params_at, sweep_each)
from zone_grid import _zone_tables, grid_oracle


def test_dense_decoupled_closed_form():
    cov = covariance_dense(LatticeSpec.open_boundary(3), params_at(0.0))
    assert np.allclose(cov.Q, np.eye(9) / 3000.0, rtol=1e-13, atol=0)
    assert np.allclose(cov.P, 750.0 * np.eye(9), rtol=1e-13, atol=0)


def test_dense_purity_identity():
    cov = covariance_dense(LatticeSpec.periodic(4), params_at(1.25))
    eigs = np.linalg.eigvals(4.0 * cov.Q @ cov.P)
    assert np.max(np.abs(eigs - 1.0)) < 1e-10


def test_dense_matches_fft_periodic(paper_params):
    spec = LatticeSpec.periodic(6)
    cov = covariance_dense(spec, paper_params)
    table = covariance_pbc_fft(spec, paper_params)
    Qf, Pf = full_matrices(table, 6)
    assert np.max(np.abs(cov.Q - Qf)) < 1e-10
    assert np.max(np.abs(cov.P - Pf)) < 1e-10


def test_fft_onsite_equals_dense_diagonal(paper_params):
    spec = LatticeSpec.periodic(6)
    cov = covariance_dense(spec, paper_params)
    table = covariance_pbc_fft(spec, paper_params)
    assert table.qq[0, 0] == pytest.approx(cov.Q[0, 0], rel=1e-12)
    assert table.pp[0, 0] == pytest.approx(cov.P[0, 0], rel=1e-12)


def _critical_scale(g1, g2, spec=None) -> float:
    """Factor that puts the couplings (g1, g2) at criticality: V = on_site I + t C is
    linear in the scale t, so t_c = on_site / -min eig C on a finite lattice
    (eigvalsh of the dense V, the oracle) and on_site / (on_site - min v) on
    the infinite one."""
    p = params_at(g1, g2=g2)
    if spec is None:
        return p.on_site / (p.on_site - zone_minimum(p)[0])
    return p.on_site / -np.linalg.eigvalsh(build_potential(spec, p) - p.on_site * np.eye(spec.side ** 2))[0]


UNIT = st.floats(0.05, 1.0)


@st.composite
def open_lattice_cases(draw):
    """An open M x M lattice, M = 2..12; stable couplings on the equal-coupling
    line, at g2 = 0, in the g2 > sqrt(2) g1 branch or anywhere, scaled to a
    fraction of the infinite lattice's critical scale (which no finite grid
    reaches) or from that scale to just below the open lattice's own, where
    the zone corner of the period 2 (M + 1) table is unstable; and distinct
    sites in random order with a corner among them."""
    M = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["equal", "g2 = 0", "g2 > sqrt(2) g1", "any"]))
    g1 = draw(st.floats(0.0, 1.0) if shape == "any" else UNIT)
    if shape == "equal":
        g2 = g1
    elif shape == "g2 = 0":
        g2 = 0.0
    elif shape == "g2 > sqrt(2) g1":
        g2 = np.sqrt(2.0) * g1 / draw(st.floats(0.05, 0.95))
    else:
        g2 = draw(UNIT)
    spec, t_inf = LatticeSpec.open_boundary(M), _critical_scale(g1, g2)
    # the second range stops 0.8 of the way: beyond about 0.9, dense eigh (the
    # oracle) strays up to 1.5e-13 of the largest entry from 40-digit sums,
    # while the engine stays within 3e-14 of them
    low, high, top = ((0.0, t_inf, 0.98) if draw(st.booleans())
                      else (t_inf, _critical_scale(g1, g2, spec), 0.8))
    t = low + draw(st.floats(0.0, top)) * (high - low)
    corner = draw(st.sampled_from([(0, 0), (M - 1, 0), (0, M - 1), (M - 1, M - 1)]))
    others = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=2 * M))
    sites = list(dict.fromkeys(others[:len(others) // 2] + [corner] + others[len(others) // 2:]))
    return spec, params_at(t * g1, g2=t * g2), sites


@settings(max_examples=150, deadline=None)
@given(open_lattice_cases())
def test_dst_engine_matches_dense_oracle(case):
    spec, p, sites = case
    for want, got in zip(covariance_dense(spec, p).block(sites), covariances_for(p, spec).block(sites)):
        assert got.shape == want.shape
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _open_block_mpmath(mp, p, M, sites):
    """(Q, P) on the sites of the open M x M lattice as 40-digit DST-I sums over
    its modes k = pi j / (M + 1): Q = sum_k phi_k(a) phi_k(b) v(k)^(-1/2) / 2 with
    phi_k(x, y) = S[x, jx] S[y, jy], S[x, j] = sqrt(2 / (M + 1)) sin(pi j (x + 1) / (M + 1))."""
    with mp.workdps(40):
        omega, kappa, N, g1, g2 = (mp.mpf(x) for x in (p.omega, p.kappa, p.n_atoms, p.g1, p.g2))
        k = [mp.pi * j / (M + 1) for j in range(1, M + 1)]
        S = [[mp.sqrt(mp.mpf(2) / (M + 1)) * mp.sin(kj * (x + 1)) for kj in k] for x in range(M)]
        v = [omega * (omega + 4 * kappa * N) + 2 * N * omega * (
            g1 * mp.cos(kx) + g2 * mp.cos(ky) + g2 / mp.sqrt(8) * (mp.cos(kx + ky) + mp.cos(kx - ky)))
            for kx in k for ky in k]
        phi = [[S[x][jx] * S[y][jy] for jx in range(M) for jy in range(M)] for x, y in sites]
        return [np.array([[float(mp.fsum(a * b * w ** power for a, b, w in zip(pa, pb, v)) / 2)
                           for pb in phi] for pa in phi]) for power in (-0.5, 0.5)]


# Between 0.8 and 0.98 of the way from the infinite lattice's critical scale to
# the open lattice's own, beyond what the dense oracle resolves to 1e-13
@pytest.mark.parametrize("fraction", [0.8, 0.9, 0.98])
@pytest.mark.parametrize("g1, g2", [(1.0, 1.0), (1.0, 0.0), (0.3, 1.0)],
                         ids=["equal", "g2 = 0", "g2 > sqrt(2) g1"])
@pytest.mark.parametrize("M", range(2, 7))
def test_open_tables_match_mpmath_near_the_open_criticality(M, g1, g2, fraction):
    mp = pytest.importorskip("mpmath")
    spec, t_inf = LatticeSpec.open_boundary(M), _critical_scale(g1, g2)
    t = t_inf + fraction * (_critical_scale(g1, g2, spec) - t_inf)
    p = params_at(t * g1, g2=t * g2)
    sites = list(dict.fromkeys([(0, 0), (M - 1, 0), (0, M - 1), (M - 1, M - 1),
                                (M // 2, M // 2), (1, M // 2)]))
    for want, got in zip(_open_block_mpmath(mp, p, M, sites), covariances_for(p, spec).block(sites)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(open_lattice_cases(), st.data())
def test_cross_blocks_match_dense_oracle(case, data):
    # the parity sectors of an L x L block, signed sums of its quadrant's cross-blocks
    # against its mirror images, anywhere on the lattice.  A periodic lattice runs the
    # cases below 0.98 of the infinite lattice's critical scale, which keep v above
    # 0.02 of the on-site term on the zone.
    spec, p, _ = case
    L = data.draw(st.integers(1, spec.side))
    stable = zone_minimum(p)[0] > 0.01 * p.on_site
    lattices = [spec] + [LatticeSpec.periodic(max(spec.side, 3))] * stable
    for lattice in lattices:
        cov = covariances_for(p, lattice, L - 1)  # the block's reach
        dense = covariance_dense(lattice, p)
        top = lattice.side - L if lattice.boundary == "open" else lattice.side - 1
        x0, y0 = data.draw(st.integers(0, top)), data.draw(st.integers(0, top))
        idx = [lattice.site_index(x, y) for x, y in BlockRegion(x0, y0, L).sites()]
        wants = four_image_sectors(dense.Q[np.ix_(idx, idx)], dense.P[np.ix_(idx, idx)], L)
        for want, got in zip(wants, cov.sectors(x0, y0, L)):
            assert got.shape == want.shape == (4, ((L + 1) // 2) ** 2, ((L + 1) // 2) ** 2)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", [LatticeSpec.periodic(5), LatticeSpec.open_boundary(5),
                                  LatticeSpec.infinite_lattice()], ids=lambda spec: spec.engine)
def test_block_refuses_sites_that_are_not_xy_pairs(spec):
    cov = covariances_for(params_at(1.2), spec, 3)
    for sites in ([], [1, 2], 7, [(1, 2, 3)], [[(0, 0, 0)]]):
        with pytest.raises(ValueError, match=r"sites must be \(x, y\) pairs"):
            cov.block(sites)
    # an empty list of pairs is well formed: empty blocks
    for Q in cov.block(np.empty((0, 2), dtype=int)):
        assert Q.shape == (0, 0)


@pytest.mark.parametrize("sites", [[(0, 0), (0, 0)], [(1, 2), (3, 1), (1, 2)], [(4, 0)],
                                   [(-1, 0)], [(2, 2), (0, 4)]])
def test_dst_block_refuses_what_dense_refuses(sites):
    spec, p = LatticeSpec.open_boundary(4), params_at(1.2)
    messages = []
    for cov in (covariance_dense(spec, p), covariances_for(p, spec)):
        with pytest.raises(ValueError) as err:
            cov.block(sites)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("spec, region, message", [
    (LatticeSpec.infinite_lattice(), BlockRegion(0, 0, 5), r"not in table \(extent 3\)"),
    (LatticeSpec.open_boundary(4), BlockRegion(-1, 0, 2), r"site \(-1, 0\) outside open 4x4"),
    (LatticeSpec.open_boundary(4), BlockRegion(1, 1, 4), "outside open 4x4 lattice"),
])
def test_sectors_refuse_what_block_refuses(spec, region, message):
    cov = covariances_for(params_at(1.2, g2=0.8), spec, 3)
    for read in (lambda: cov.block(region.sites()),
                 lambda: cov.sectors(region.x0, region.y0, region.side_length)):
        with pytest.raises(ValueError, match=message):
            read()


@pytest.mark.parametrize("M", [2, 3, 7, 12])
@pytest.mark.parametrize("g1, g2", [(1.0, 1.0), (1.0, 0.0), (0.3, 1.0), (1.0, 0.6)])
def test_dst_engine_refuses_beyond_criticality_as_dense_does(M, g1, g2):
    spec = LatticeSpec.open_boundary(M)
    t = _critical_scale(g1, g2, spec)
    covariances_for(params_at(0.99 * t * g1, g2=0.99 * t * g2), spec)
    hot = params_at(1.01 * t * g1, g2=1.01 * t * g2)
    for engine in (covariance_dense, lambda spec, p: covariances_for(p, spec)):
        with pytest.raises(StabilityError, match="beyond critical"):
            engine(spec, hot)


def test_fft_decoupled_no_correlations():
    table = covariance_pbc_fft(LatticeSpec.periodic(8), params_at(0.0))
    assert table.qq[0, 0] == pytest.approx(1.0 / 3000.0, rel=1e-13)
    assert abs(table.qq[1, 0]) < 1e-18
    assert abs(table.pp[3, 2]) < 1e-9  # pp scale is 750


def test_fft_sum_rule(paper_params):
    # summing <q_0 q_r> over the torus leaves only the k = 0 mode
    M = 8
    table = covariance_pbc_fft(LatticeSpec.periodic(M), paper_params)
    d = np.arange(M)
    total = float(np.sum(table.qq[table.displacement_index(d[:, None], d[None, :])]))
    v0 = float(dispersion_value(paper_params, 0.0, 0.0))
    assert total == pytest.approx(0.5 * v0 ** -0.5, rel=1e-10)


def test_infinite_matches_fft_at_large_m():
    p = params_at(1.25)
    table_inf = covariance_infinite(p, 3)
    table_fft = covariance_pbc_fft(LatticeSpec.periodic(160), p)
    for dx in range(4):
        for dy in range(4):
            a, b = table_inf.qq[dx, dy], table_fft.qq[dx, dy]
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))
            a, b = table_inf.pp[dx, dy], table_fft.pp[dx, dy]
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


@pytest.mark.parametrize("n", [16, 17, 33, 64])
@pytest.mark.parametrize("g1, g2", [(0.0, 0.0), (1.25, 1.25), (1.7, 0.2), (0.0, 1.0)])
def test_zone_tables_match_full_grid_sum(n, g1, g2):
    # brute force: every point of the half-shifted n x n grid, v straight
    # from dispersion_value; odd n puts k = 0 on the grid (unmirrored)
    p = params_at(g1, g2=g2)
    k = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    v = dispersion_value(p, k[:, None], k[None, :])
    c = np.cos(np.outer(np.arange(6), k))
    want_q = c @ (v ** -0.5) @ c.T / (2.0 * n * n)
    want_p = c @ (v ** 0.5) @ c.T / (2.0 * n * n)
    qq, pp = _zone_tables(p, 5, n)
    assert qq.shape == pp.shape == (6, 6)
    assert np.max(np.abs(qq - want_q)) <= 1e-13 * want_q[0, 0]
    assert np.max(np.abs(pp - want_p)) <= 1e-13 * want_p[0, 0]


def test_infinite_decoupled_closed_form():
    table = covariance_infinite(params_at(0.0), 1)
    assert table.qq[0, 0] == pytest.approx(1.0 / 3000.0, rel=1e-12)
    assert abs(table.qq[1, 0]) < 1e-18


def test_infinite_near_critical_converges_at_default_tol():
    gc = critical_g_equal(params_at(0.0))
    table = covariance_infinite(params_at(gc * (1.0 - 1e-4)), 1)
    assert table.qq[0, 0] == pytest.approx(5.257723859600e-4, rel=1e-9)


def test_infinite_nonconvergence_error_carries_estimates(monkeypatch):
    # on the equal-coupling line the softness min v / on-site is 1 - g / g_c;
    # one halving is too few far from criticality and near it
    gc = critical_g_equal(params_at(0.0))
    monkeypatch.setattr(groundstate, "QUAD_MAX_REFINEMENTS", 1)
    for softness in (0.5, 1e-9):
        with pytest.raises(QuadratureConvergenceError, match="Legendre tanh-sinh step 0.25") as err:
            covariance_infinite(params_at(gc * (1.0 - softness)), 0)
        assert err.value.last[0].shape == (1, 1)
        assert err.value.previous[0].shape == (1, 1)


def test_legendre_q_matches_mpmath():
    # z - 1 from 1e-14 to 1e3 spans both AGM extremes, the forward recurrence
    # (first three) and the backward ratios (last three) at top order 21
    mp = pytest.importorskip("mpmath")
    zm1 = np.array([1e-14, 1e-8, 1e-3, 0.5, 3.0, 1e3])
    q, _, _ = _legendre_q(zm1, 21)
    with mp.workdps(30):
        for i, x in enumerate(zm1):
            for m in range(22):
                ref = mp.re(mp.legenq(m - mp.mpf(1) / 2, 0, 1 + mp.mpf(x), type=3))
                assert abs(q[m, i] / ref - 1) < 2e-13, (x, m)


@st.composite
def legendre_kernel_cases(draw):
    """(zm1, top): rows whose nodes all run forward, all run backward or mix both
    (each row's kind drawn), as a 2-D array or its first row alone; top 0 stops
    after the AGM."""
    top = draw(st.integers(0, 40))
    edge = np.cosh(groundstate.FORWARD_GROWTH / (2.0 * max(top, 4))) - 1.0  # forward at or below
    ranges = {"forward": (-12.0, np.log10(0.9 * edge)), "backward": (np.log10(1.1 * edge), 3.0),
              "mixed": (-12.0, 3.0)}
    kinds = draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    zm1 = np.array([[10.0 ** draw(st.floats(*ranges[kind])) for _ in range(n)] for kind in kinds])
    return (zm1[0] if draw(st.booleans()) else zm1), top


@pytest.mark.one_thread
@settings(max_examples=200, deadline=None)
@given(legendre_kernel_cases())
@example((np.array([1e-10, 1e-6, 1e-4]), 21))  # every node forward, 1-D
@example((np.array([[1e-10, 1e-6, 1e-4], [1e-8, 1e-5, 1e-3]]), 21))  # every node forward, 2-D
# every node backward, the rows' ratios started at m = 42 and 33: steps 42..34 run
# with the second row not yet started, 33..22 with both started
@example((np.array([[0.5, 3.0, 1e3], [2.0, 7.0, 40.0]]), 21))
# mixed, the rows' backward nodes started at m = 42 and 160
@example((np.array([[1e-14, 1e-8, 1e-3, 0.5, 3.0, 1e3], [1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1e-1]]), 21))
@example((np.array([[1e-14, 1e-8, 1e-3, 0.5, 3.0, 1e3], [1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1e-1]]), 0))
def test_legendre_q_matches_the_masked_kernel_bit_for_bit(case):
    # the in-place kernel does each node's float operations in the masked one's
    # order, so q, k and E agree in every bit; at top 0 it returns q[0] = k K, k
    # and E from the AGM, which the masked kernel computes before any recurrence
    zm1, top = case
    q, k, E = masked_legendre_q(zm1, max(top, 1))
    for got, want in zip(_legendre_q(zm1, top), (q[:top + 1], k, E)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_matches_heine(p, table, entries):
    # the oracle does the same Heine reduction with mpmath's own legenq and
    # tanh-sinh quad at 30 digits, and forms a = on-site + 2 N omega g1 cos kx
    # and b at 50 digits, so z - 1 keeps ample digits without the branch
    # forms the code uses; pp entries are checked at dy = 0 only
    mp = pytest.importorskip("mpmath")
    cache = {}

    def j_minus(kx, m):
        if (kx, m) not in cache:
            with mp.workdps(50):
                s = 2 * mp.mpf(p.coupling_scale)
                b = s * p.g2 * (1 + mp.cos(kx) / mp.sqrt(2))
                a = mp.mpf(p.on_site) + s * p.g1 * mp.cos(kx)
            q = mp.re(mp.legenq(m - mp.mpf(1) / 2, 0, a / b, type=3))
            cache[kx, m] = (a, b, (-1) ** m * mp.sqrt(2) / (mp.pi * mp.sqrt(b)) * q)
        return cache[kx, m]

    def j_plus0(kx):
        a, b, j0 = j_minus(kx, 0)
        return a * j0 + b * j_minus(kx, 1)[2]

    with mp.workdps(30):
        for name, dx, dy in entries:
            f = j_plus0 if name == "pp" else lambda k: j_minus(k, dy)[2]
            ref = mp.quad(lambda k: mp.cos(dx * k) * f(k), [0, mp.pi]) / (2 * mp.pi)
            assert abs(getattr(table, name)[dx, dy] / ref - 1) < 1e-12, (name, dx, dy)


def test_legendre_tables_match_mpmath_near_critical():
    # fig2's near-critical coupling
    gc = critical_g_equal(params_at(0.0))
    p = params_at(gc * (1.0 - 1e-11))
    _assert_matches_heine(p, covariance_infinite(p, 19), [
        ("qq", 0, 0), ("qq", 1, 0), ("qq", 19, 19), ("pp", 0, 0), ("pp", 1, 0)])


def test_large_legendre_table_converges_and_matches_mpmath():
    # at dmax = 160 the far entries are ~1e-5 of the on-site one; the level
    # test must not ask them for accuracy below the roundoff plateau
    gc = critical_g_equal(params_at(0.0))
    p = params_at(gc * (1.0 - 4e-4))
    _assert_matches_heine(p, covariance_infinite(p, 160), [
        ("qq", 0, 0), ("qq", 1, 0), ("pp", 0, 0), ("pp", 1, 0)])


@st.composite
def stable_infinite_cases(draw):
    """A coupling direction (equal, g1 = 0, g2 = 0, g2 from 1e-12 g1 up, the
    (0, pi) branch g2 > sqrt(2) g1, or anywhere), scaled to a softness
    min v / on-site from 0.9 down to 5e-4, and a table extent 0..24."""
    shape = draw(st.sampled_from(["equal", "g1 = 0", "g2 = 0", "small g2", "(0, pi)", "any"]))
    g1 = 0.0 if shape == "g1 = 0" else draw(UNIT)
    if shape == "equal":
        g2 = g1
    elif shape == "g2 = 0":
        g2 = 0.0
    elif shape == "small g2":
        g2 = g1 * 10.0 ** draw(st.floats(-12.0, -1.0))
    elif shape == "(0, pi)":
        g2 = np.sqrt(2.0) * g1 / draw(st.floats(0.05, 0.95))
    else:
        g2 = draw(UNIT)
    softness = 10.0 ** draw(st.floats(np.log10(5e-4), np.log10(0.9)))
    t = (1.0 - softness) * _critical_scale(g1, g2)
    return params_at(t * g1, g2=t * g2), draw(st.integers(0, 24))


@settings(max_examples=60, deadline=None)
@given(stable_infinite_cases())
def test_legendre_route_matches_grid_oracle(case):
    p, dmax = case
    table = covariance_infinite(p, dmax)
    for got, want in zip((table.qq, table.pp), grid_oracle(p, dmax)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


@st.composite
def legendre_block_cases(draw):
    """(rows, level, rx, ry): ``zone_branch`` rows of stable couplings mixing the
    (pi, pi) branch, the (0, pi) one and flat rows (g2 = 0), at softness min v /
    on-site from 0.9 down to 1e-11, a tanh-sinh level and a reach with ry = 0 or not."""
    strengths = []
    for shape in draw(st.lists(st.sampled_from(["equal", "g2 = 0", "(0, pi)", "any"]),
                               min_size=1, max_size=6)):
        g1 = draw(UNIT)
        g2 = {"equal": g1, "g2 = 0": 0.0,
              "(0, pi)": np.sqrt(2.0) * g1 / draw(st.floats(0.05, 0.95))}.get(shape)
        g2 = draw(UNIT) if g2 is None else g2
        t = (1.0 - 10.0 ** draw(st.floats(-11.0, np.log10(0.9)))) * _critical_scale(g1, g2)
        strengths.append((t * g1, t * g2))
    g1, g2 = np.array(strengths).T
    rows = zone_branch(params_at(0.0), g1, g2)
    return rows, draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 4))


@pytest.mark.one_thread
@settings(max_examples=60, deadline=None)
@given(legendre_block_cases())
@example((zone_branch(params_at(0.0), np.array([1.5, 1.2, 0.3]), np.array([1.5, 0.0, 1.2])),
          0, 1, 0))  # fig3's reach (1, 0): a (pi, pi) row, a flat row and a (0, pi) row
@example((zone_branch(params_at(0.0), np.array([1.2, 0.5]), np.array([0.0, 0.0])), 2, 2, 3))
def test_legendre_block_matches_the_expression_oracle_bit_for_bit(case):
    # each node's sin^2 terms and 1 + cos kx / sqrt 2, taken once per level and
    # gathered per coupling, and the AGM's reused temporaries give the sums the
    # per-block expression gives, in every bit
    rows, level, rx, ry = case
    kx, w, nodes = groundstate._tanh_sinh_level(level)
    kx_, rest, w_ = expression_tanh_sinh_level(level)
    assert kx.tobytes() == kx_.tobytes() and w.tobytes() == w_.tobytes()
    cx = w * groundstate._cos_multiples(np.arange(rx + 1), kx)
    got = groundstate._legendre_block(rows, nodes, cx, ry)
    want = expression_legendre_block(rows, kx, rest, cx, ry)
    assert got.shape == want.shape and np.array_equal(got, want)


# (g1, g2) drawn equal or apart, across the critical couplings of small lattices (a
# periodic side 4's g_c is 1.73 on the diagonal) so refusals land mid-block
FINITE_STRENGTHS = st.lists(st.one_of(st.floats(0.0, 2.6).map(lambda g: (g, g)),
                                      st.tuples(st.floats(0.0, 2.6), st.floats(0.0, 2.6))),
                            min_size=1, max_size=12)


@pytest.mark.one_thread
@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(st.integers(3, 24).map(LatticeSpec.periodic),
                      st.integers(2, 20).map(LatticeSpec.open_boundary)),
       strengths=FINITE_STRENGTHS, reach=st.integers(0, 3),
       block_points=st.sampled_from([50, 200, 1000, 2 ** 14]))
# periodic side 8 at 200 points, blocks of eight: one coupling beyond g_c and one
# within the guard of it in mid-block, the last block short
@example(spec=LatticeSpec.periodic(8), strengths=[(1.0, 1.0), (2.0, 2.0), (0.5, 1.2), (1.2, 0.5),
                                                  (critical_g_equal(params_at(0.0)) * (1 - 1e-13),) * 2,
                                                  (1.5, 1.5), (0.0, 0.0), (1.7, 0.2), (0.3, 0.3)],
         reach=1, block_points=200)
@example(spec=LatticeSpec.open_boundary(5), strengths=[(1.0, 1.2), (2.0, 2.0), (0.3, 0.0), (2.6, 2.6)],
         reach=0, block_points=100)
def test_finite_sweep_matches_the_expression_oracle_bit_for_bit(spec, strengths, reach,
                                                                block_points):
    # the symbol on the lattice's cached cosines in one buffer, the powers written
    # into the reused stack and the k = 0 mode taken out in place give every table
    # and refusal the per-block expressions give, in every bit
    p, (g1, g2) = params_at(0.0), np.array(strengths).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundstate, "FINITE_BLOCK_POINTS", block_points)
        got = list(covariances_for_each(p, g1, g2, spec, reach))
    want = list(expression_finite_sweep(p, g1, g2, spec, reach, block_points))
    assert len(got) == len(want)
    for (index, cov, refused), (index_, tables, refused_) in zip(got, want):
        assert index.tolist() == index_.tolist()
        assert {i: str(exc) for i, exc in refused.items()} == refused_
        assert np.array_equal(cov.qq, tables[:, 0]) and np.array_equal(cov.pp, tables[:, 1])


@pytest.mark.one_thread
@settings(max_examples=60, deadline=None)
@given(g1=st.one_of(st.floats(0.0, 3.0), st.just(np.linspace(0.0, 2.0, 3)[:, None, None])),
       g2=st.floats(0.0, 3.0), n=st.integers(1, 9),
       shape=st.sampled_from(["grid", "line", "scalar"]))
def test_symbol_matches_the_expression_oracle_bit_for_bit(g1, g2, n, shape):
    # the symbol on its cosines, in place, is the per-term expression bit for bit,
    # from a scalar k to a sweep's [coupling, kx, ky] grids
    p = params_at(0.0)
    k = np.linspace(-np.pi, np.pi, n)
    kx, ky = {"grid": (k[:, None], k[None, :]), "line": (k, 0.3), "scalar": (k[0], np.pi)}[shape]
    got, want = dispersion_value(p, kx, ky, g1, g2), expression_symbol(p, kx, ky, g1, g2)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def _softness_cases(softness):
    p0 = params_at(0.0)
    scale, gc = 2.0 * p0.coupling_scale, critical_g_equal(p0)
    top = p0.on_site * (1.0 - softness)
    return {
        "(pi, pi)": params_at(gc * (1.0 - softness)),
        "(0, pi)": params_at(0.2, (top + scale * 0.2) / (scale * (1.0 + 2 ** -0.5))),
        "g2 = 0": params_at(top / scale, 0.0),
    }


def _batch_cases():
    gc = critical_g_equal(params_at(0.0))
    return [*_softness_cases(0.3).values(), params_at(gc * (1.0 - 5e-10)),
            params_at(1.01 * gc), params_at(1.25)]


@pytest.mark.one_thread
@pytest.mark.parametrize("dmax", [0, 3, (1, 0), (0, 2)])
def test_batch_equals_each_coupling_alone(monkeypatch, dmax):
    # the near-critical coupling needs levels the others do not, and the
    # unstable one is refused in place without touching the rest
    sizes = []
    block = groundstate._legendre_block
    monkeypatch.setattr(groundstate, "_legendre_block",
                        lambda rows, *args: sizes.append(len(rows)) or block(rows, *args))
    couplings = _batch_cases()
    batch = sweep_each(couplings, LatticeSpec.infinite_lattice(), dmax)
    assert sizes[0] == 5 and sizes[-1] == 1
    for p, got in zip(couplings, batch):
        try:
            want = covariance_infinite(p, dmax)
        except StabilityError as exc:
            assert type(got) is StabilityError and str(got) == str(exc)
            continue
        assert np.array_equal(got.qq, want.qq) and np.array_equal(got.pp, want.pp)
        assert not got.qq.flags.writeable and not got.pp.flags.writeable


@pytest.mark.one_thread
def test_batch_keeps_each_nonconvergence_to_its_coupling(monkeypatch):
    # with three halvings the near-critical coupling fails alone, the others converge
    monkeypatch.setattr(groundstate, "QUAD_MAX_REFINEMENTS", 3)
    couplings = _batch_cases()
    batch = sweep_each(couplings, LatticeSpec.infinite_lattice(), 2)
    assert [type(t).__name__ for t in batch] == ["CorrelationTable"] * 3 + [
        "QuadratureConvergenceError", "StabilityError", "CorrelationTable"]
    with pytest.raises(QuadratureConvergenceError) as err:
        covariance_infinite(couplings[3], 2)
    assert str(batch[3]) == str(err.value)
    for got, want in zip(batch[3].last + batch[3].previous, err.value.last + err.value.previous):
        assert np.array_equal(got, want)
    for p, got in zip(couplings[:3], batch[:3]):
        assert np.array_equal(got.qq, covariance_infinite(p, 2).qq)


@pytest.mark.one_thread
def test_finite_batch_runs_each_coupling(monkeypatch):
    # M = 80 blocks hold 2^14 // 41^2 = 9 couplings, one 41 x 41 quadrant grid
    # each: the sweep spans three blocks, and each of the first two refuses a
    # coupling in mid-block, one beyond criticality and one within the guard
    # of it at k = (pi, pi); the tables are whole, as covariance_pbc_fft's
    sizes = []
    grid = groundstate.dispersion_grid
    monkeypatch.setattr(groundstate, "dispersion_grid",
                        lambda params, spec, g1, g2, out: sizes.append(len(g1))
                        or grid(params, spec, g1, g2, out))
    assert groundstate.FINITE_BLOCK_POINTS // 41 ** 2 == 9
    spec, gc = LatticeSpec.periodic(80), critical_g_equal(params_at(0.0))
    couplings = [params_at(g) for g in np.linspace(0.0, 1.7, 23)]
    couplings[4], couplings[13] = params_at(2.0), params_at(gc * (1.0 - 1e-13))
    couplings[7] = params_at(gc * (1.0 - 1e-11))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = sweep_each(couplings, spec, 40)
    assert sizes == [9, 9, 5]
    assert [i for i, got in enumerate(batch) if isinstance(got, StabilityError)] == [4, 13]
    assert "beyond" in str(batch[4]) and "within" in str(batch[13])
    for p, got in zip(couplings, batch):
        try:
            want = covariance_pbc_fft(spec, p)
        except StabilityError as exc:
            assert type(got) is StabilityError and str(got) == str(exc)
            continue
        assert np.array_equal(got.qq, want.qq) and np.array_equal(got.pp, want.pp)
        assert not got.qq.flags.writeable and not got.pp.flags.writeable


# g1 and g2 drawn apart across both corners' critical couplings (g_c = 1.74
# on the diagonal, 2.25 at g2 = 0), so refusals land anywhere in a block
STRENGTHS = st.lists(st.tuples(st.floats(0.0, 2.6), st.floats(0.0, 2.6)), min_size=1, max_size=8)
# pairs on the smallest open lattice (side 2) and within the infinite table at dmax = 1
PAIRS = [[(0, 0), (1, 0)], [(1, 1), (0, 0)], [(0, 1), (1, 0)]]
REFUSED = [(2.6, 2.6), (2.6, 0.0), (2.0, 2.0), (2.6, 1.0)]  # beyond g_c on open side >= 5


@pytest.mark.one_thread
@settings(max_examples=30, deadline=None)
@given(spec=st.one_of(st.integers(3, 15).map(LatticeSpec.periodic),
                      st.integers(2, 15).map(LatticeSpec.open_boundary),
                      st.just(LatticeSpec.infinite_lattice())),
       strengths=STRENGTHS, dmax=st.integers(0, 2), block_points=st.sampled_from([4096, 100]))
@example(spec=LatticeSpec.periodic(15), strengths=[(1.0, 1.2), (2.5, 0.1), (0.3, 0.0), (1.5, 1.6)],
         dmax=0, block_points=100)
@example(spec=LatticeSpec.infinite_lattice(), strengths=[(1.0, 1.2), (2.5, 0.1), (0.3, 0.0)],
         dmax=1, block_points=4096)
# open side 5 at 100 points: blocks of two (a 7 x 7 table each), the first
# refusing its second coupling and the last two refusing both
@example(spec=LatticeSpec.open_boundary(5), strengths=[(1.0, 1.2), (2.0, 2.0), (0.3, 0.0),
                                                       (1.5, 1.6)] + REFUSED, dmax=0, block_points=100)
# every coupling refused: open and periodic sweeps of several one-coupling blocks
@example(spec=LatticeSpec.open_boundary(9), strengths=REFUSED, dmax=0, block_points=100)
@example(spec=LatticeSpec.periodic(15), strengths=REFUSED, dmax=0, block_points=100)
@example(spec=LatticeSpec.infinite_lattice(), strengths=REFUSED, dmax=2, block_points=4096)
def test_heterogeneous_batch_matches_each_sweep_of_one(spec, strengths, dmax, block_points):
    # block_points = 100 splits a side-15 sweep into blocks of one coupling
    # and a side-3 sweep into blocks of 25, and an infinite one's levels into
    # blocks of one coupling
    couplings = [params_at(a, b) for a, b in strengths]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundstate, "FINITE_BLOCK_POINTS", block_points)
        mp.setattr(groundstate, "LEVEL_BLOCK_POINTS", block_points)
        batch = sweep_each(couplings, spec, dmax)
        two = two_site_sweep(couplings[0], *zip(*strengths), spec, PAIRS)
    for p, got in zip(couplings, batch):
        try:
            want = covariances_for(p, spec, dmax)
        except StabilityError as exc:
            assert type(got) is StabilityError and str(got) == str(exc)
            continue
        assert np.array_equal(got.qq, want.qq) and np.array_equal(got.pp, want.pp)
        assert not got.qq.flags.writeable and not got.pp.flags.writeable
    # the pair read: every coupling's pairs in sweep order, a refused coupling's
    # refusal on each of its pairs and a stable one's pair refusals (open
    # lattices refuse the asymmetric pairs) as each pair gives them alone
    assert two.zeta.shape == (len(batch), len(PAIRS))
    want_refusals = {}
    for i, got in enumerate(batch):
        for k, pair in enumerate(PAIRS):
            if isinstance(got, StabilityError):
                want_refusals[i, k] = str(got)
                assert np.isnan(two.zeta[i, k]) and not two.separable[i, k]
                continue
            want = two_site_params(*covariances_for(couplings[i], spec, 1).block(pair))
            want_refusals.update({(i, k): str(exc) for exc in want.refusals.values()})
            assert repr([float(a[i, k]) for a in (two.n, two.c, two.zeta)]) == \
                repr([float(want.n), float(want.c), float(want.zeta)])
    assert {key: str(exc) for key, exc in two.refusals.items()} == want_refusals


BASE = params_at(0.0, omega=1e150, n_atoms=1)  # v(0) overflows from g near 1e158
STRENGTH = st.one_of(st.floats(0.0, 10.0), st.floats(), st.sampled_from([5.2e157, 5.3e157]))


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from([LatticeSpec.periodic(3), LatticeSpec.infinite_lattice(),
                             LatticeSpec.open_boundary(3)]),
       strengths=st.lists(st.tuples(STRENGTH, STRENGTH), min_size=1, max_size=6))
def test_sweep_strengths_refused_as_coupling_params_refuses_them(spec, strengths):
    # NaN, inf, negative and overflowing strengths: the first coupling that
    # CouplingParams refuses refuses the sweep, with its message
    refusal = None
    for a, b in strengths:
        try:
            replace(BASE, g1=a, g2=b)
        except ValueError as exc:
            refusal = str(exc)
            break
    g1, g2 = zip(*strengths)
    if refusal is None:
        assert [np.array_equal(got, want) for got, want in
                zip(BASE.strength_arrays(g1, g2), (g1, g2))] == [True, True]
        return
    with pytest.raises(ValueError) as err:
        list(covariances_for_each(BASE, g1, g2, spec))
    assert str(err.value) == refusal


def test_sweep_strengths_broadcast_to_one_length():
    # one g2 serves every g1; two lengths that do not broadcast are refused
    # instead of the shorter silently cutting the sweep
    spec = LatticeSpec.infinite_lattice()
    got = sweep_each([params_at(g, 1.0) for g in (1.0, 1.2)], spec, 1)
    blocks = list(covariances_for_each(params_at(0.0), [1.0, 1.2], [1.0], spec, 1))
    assert [list(index) for index, _, _ in blocks] == [[0, 1]]
    assert np.array_equal(blocks[0][1].qq[1], got[1].qq)
    with pytest.raises(ValueError, match="broadcast"):
        list(covariances_for_each(params_at(0.0), [1.0, 1.2, 1.4], [1.0, 1.2], spec, 1))


@pytest.mark.parametrize("M", [16, 31])
@pytest.mark.parametrize("softness", [0.3, 1e-11])
def test_periodic_tables_match_exact_cosine_sums(M, softness):
    # the oracle sums v^(-1/2) cos(k.r) / 2 M^2 at 40 digits over the full
    # M x M grid of float v, with the angle's multiple reduced modulo M
    # exactly, and reads the table at every displacement through its fold
    mp = pytest.importorskip("mpmath")
    p = params_at(critical_g_equal(params_at(0.0)) * (1.0 - softness))
    table = covariance_pbc_fft(LatticeSpec.periodic(M), p)
    v = full_symbol(p, M)
    d = np.arange(M)
    index = table.displacement_index(d[:, None], d[None, :])
    with mp.workdps(40):
        C = [[mp.cos(2 * mp.pi * (d * m % M) / M) for m in range(M)] for d in range(M)]
        for name, power in (("qq", -0.5), ("pp", 0.5)):
            x = [[mp.mpf(float(v[m, n])) ** power for n in range(M)] for m in range(M)]
            xc = [[mp.fsum(x[m][n] * C[n][b] for n in range(M)) for b in range(M)]
                  for m in range(M)]
            ref = np.array([[float(mp.fsum(C[a][m] * xc[m][b] for m in range(M)) / (2 * M * M))
                             for b in range(M)] for a in range(M)])
            got = getattr(table, name)[index]
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def test_guard_text_is_monotone_in_min_v():
    # zone_branch keeps a row whose bounds get one refusal text: the guard's text
    # is None at and above the guard, "beyond" with six digits of a min v <= 0 and
    # "within" with three digits of min v / on-site between
    on_site = params_at(0.0).on_site
    values = [-3.0, -2.0000001, -2.0, -1.99, -1e-30, 0.0, 1e-30, 1.234e-18 * on_site,
              1.2341e-18 * on_site, 1.236e-18 * on_site, 0.9999e-12 * on_site, 1e-12 * on_site]
    texts = [groundstate._refusal(v, on_site) for v in values]
    assert texts[-1] is None and all(t is not None for t in texts[:-1])
    assert [t.split(" (")[1].split(")")[0] for t in texts[:-1]] == [
        "min v = -3", "min v = -2", "min v = -2", "min v = -1.99", "min v = -1e-30", "min v = 0",
        "min v / on-site = 4.44e-37", "min v / on-site = 1.23e-18", "min v / on-site = 1.23e-18",
        "min v / on-site = 1.24e-18", "min v / on-site = 1e-12"]


def test_near_critical_guard_refuses():
    gc = critical_g_equal(params_at(0.0))
    with pytest.raises(StabilityError, match="criticality"):
        covariance_infinite(params_at(gc * (1.0 - 1e-13)), 0)


def test_beyond_critical_raises_everywhere():
    gc = critical_g_equal(params_at(0.0))
    hot = params_at(1.05 * gc)
    with pytest.raises(StabilityError):
        covariance_pbc_fft(LatticeSpec.periodic(40), hot)
    with pytest.raises(StabilityError):
        covariance_dense(LatticeSpec.periodic(40), hot)
    with pytest.raises(StabilityError):
        covariance_infinite(hot, 0)


def test_engine_agreement_grid():
    worst = 0.0
    for M in (4, 5, 6, 8):
        for g in (0.5, 1.25, 1.7):
            spec = LatticeSpec.periodic(M)
            p = params_at(g)
            cov = covariance_dense(spec, p)
            Qf, Pf = full_matrices(covariance_pbc_fft(spec, p), M)
            worst = max(worst, float(np.max(np.abs(cov.Q - Qf))),
                        float(np.max(np.abs(cov.P - Pf))))
    assert worst < 1e-10


def test_positivity_cholesky():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g1, g2 = rng.uniform(0.0, 1.2, size=2)
        p = params_at(float(g1), g2=float(g2))
        cov = covariance_dense(LatticeSpec.periodic(4), p)
        np.linalg.cholesky(cov.Q)
        np.linalg.cholesky(cov.P)


def test_pure_state_via_fft_table(paper_params):
    Q, P = full_matrices(covariance_pbc_fft(LatticeSpec.periodic(5), paper_params), 5)
    eigs = np.linalg.eigvals(4.0 * Q @ P)
    assert np.max(np.abs(eigs - 1.0)) < 1e-9


def test_nearest_correlation_grows_toward_critical():
    vals = []
    for g in (0.5, 1.0, 1.4, 1.7):
        table = covariance_infinite(params_at(g), 1)
        vals.append(abs(table.qq[1, 0]))
    assert np.all(np.diff(vals) > 0)


def test_finite_size_error_shrinks_with_m():
    # at g = 1.72 the correlation length is a few sites, so halving is visible
    p = params_at(1.72)
    ref = covariance_infinite(p, 1).qq[1, 0]
    diffs = [abs(covariance_pbc_fft(LatticeSpec.periodic(M), p).qq[1, 0] - ref)
             for M in (10, 20, 40)]
    assert diffs[1] < 0.5 * diffs[0]
    assert diffs[2] < 0.5 * diffs[1]
    # at g = 1.25 the correlation length is under a site: M = 40 is converged
    p = params_at(1.25)
    ref = covariance_infinite(p, 1).qq[1, 0]
    assert abs(covariance_pbc_fft(LatticeSpec.periodic(40), p).qq[1, 0] - ref) < 1e-12


@pytest.mark.one_thread
@settings(max_examples=60, deadline=None)
@given(rx=st.integers(0, 5), ry=st.integers(0, 5), g1=UNIT, g2=st.just(0.0) | UNIT,
       t=st.floats(0.0, 0.95) | st.floats(3.0, 10.0).map(lambda u: 1.0 - 10.0 ** -u))
@example(rx=1, ry=0, g1=1.0, g2=1.0, t=0.9)  # zeta_1's pair
@example(rx=0, ry=3, g1=1.0, g2=0.0, t=1.0 - 1e-9)  # flat (g2 = 0), near-critical
def test_rectangular_reach_infinite_table_is_the_square_tables_leading_block(rx, ry, g1, g2, t):
    # an (rx, ry) infinite table is the leading block of the square table at
    # max(rx, ry): the same nodes and Legendre orders up to ry + 1 (none past the
    # AGM when ry = 0), summed by a narrower matmul, within 1e-15 of the largest
    # entry; a read beyond either axis's extent is refused with the one message
    scale = t * _critical_scale(g1, g2)
    p = params_at(scale * g1, g2=scale * g2)
    spec = LatticeSpec.infinite_lattice()
    square, cut = covariances_for(p, spec, max(rx, ry)), covariances_for(p, spec, (rx, ry))
    assert cut.qq.shape == cut.pp.shape == (rx + 1, ry + 1)
    for got, want in ((cut.qq, square.qq), (cut.pp, square.pp)):
        assert np.max(np.abs(got - want[:rx + 1, :ry + 1])) <= 1e-15 * np.max(np.abs(want))
    extent = f"{rx}" if rx == ry else f"{rx} x {ry}"
    for far in ((rx + 1, 0), (0, ry + 1), (-rx - 1, -ry - 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"displacement ({abs(far[0])}, {abs(far[1])}) not in table (extent {extent})")):
            cut.block([(0, 0), far])


def test_table_missing_displacement_named():
    table = covariance_infinite(params_at(1.0), 2)
    with pytest.raises(ValueError, match=r"\(5, 0\)"):
        table.displacement_index(5, 0)


@pytest.mark.one_thread
@settings(max_examples=60, deadline=None)
@given(M=st.integers(3, 40), reach=st.integers(0, 25), t=st.floats(0.0, 0.95),
       g2=st.floats(0.0, 2.0))
def test_periodic_reach_table_is_the_leading_block_of_the_whole(M, reach, t, g2):
    # a periodic table cut at r = min(reach, M // 2) is the whole table's leading
    # (r + 1)^2 block: bit for bit unless BLAS sums the shorter transform in
    # another order, and then within 1e-15 of the largest entry
    scale = t * _critical_scale(1.0, g2)
    p = params_at(scale, g2=scale * g2)
    spec = LatticeSpec.periodic(M)
    whole, cut = covariance_pbc_fft(spec, p), covariances_for(p, spec, reach)
    r = min(reach, M // 2)
    assert cut.qq.shape == cut.pp.shape == (r + 1, r + 1)
    for got, want in ((cut.qq, whole.qq), (cut.pp, whole.pp)):
        lead = want[:r + 1, :r + 1]
        assert np.max(np.abs(got - lead)) <= 1e-15 * np.max(np.abs(want))
        if r == M // 2:
            assert np.array_equal(got, want)


@pytest.mark.one_thread
@pytest.mark.parametrize("sites", [[(0, 0), (3, 0)], [(1, 1), (1, 4)], [(3, 1), (0, 0)]])
def test_periodic_read_beyond_the_reach_is_refused_as_infinite_tables_refuse(sites):
    # M = 9 at reach 2: folded displacements 3 and 4 are not in the table; the
    # infinite table of the same reach refuses the same pair with the same words
    p = params_at(1.2, g2=0.8)
    periodic = covariances_for(p, LatticeSpec.periodic(9), 2)
    infinite = covariances_for(p, LatticeSpec.infinite_lattice(), 2)
    messages = []
    for table in (periodic, infinite):
        with pytest.raises(ValueError, match=r"not in table \(extent 2\)") as err:
            table.block(sites)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    with pytest.raises(ValueError, match=r"not in table \(extent 2\)"):
        periodic.sectors(0, 0, 4)
    # a periodic table names the displacement as folded onto the quadrant: 5 is -4
    with pytest.raises(ValueError, match=r"displacement \(4, 0\) not in table"):
        periodic.block([(0, 0), (5, 0)])
    # a displacement that wraps to one within the reach is read
    Q, _ = periodic.block([(0, 0), (8, 7)])
    assert Q[0, 1] == periodic.qq[1, 2]


def test_infinite_refuses_negative_extent():
    with pytest.raises(ValueError, match="dmax"):
        covariance_infinite(params_at(1.0), -1)


@pytest.mark.parametrize("spec", [LatticeSpec.periodic(6), LatticeSpec.open_boundary(6),
                                  LatticeSpec.infinite_lattice()],
                         ids=["periodic-6", "open-6", "infinite"])
@pytest.mark.parametrize("reach", [-1, (0, -1)], ids=["d", "rx-ry"])
def test_every_lattice_refuses_a_negative_reach(spec, reach):
    # one rule on every lattice: an open table, though always whole, refuses it too
    message = re.escape(f"dmax must be >= 0, got {reach}")
    p = params_at(1.0)
    with pytest.raises(ValueError, match=message):
        covariances_for(p, spec, reach)
    with pytest.raises(ValueError, match=message):
        next(covariances_for_each(p, [1.0], [1.0], spec, reach))


def test_excitation_density_values(paper_params):
    spec = LatticeSpec.periodic(12)
    assert excitation_density(params_at(0.0), spec) == pytest.approx(1.0 / 3000.0, rel=1e-12)
    assert excitation_density(paper_params, spec) < 1e-2
    assert excitation_density(paper_params, LatticeSpec.infinite_lattice()) < 1e-2


def test_excitation_density_bounded_at_criticality_but_grows_on_finite_lattice():
    gc = critical_g_equal(params_at(0.0))
    near = params_at(gc * (1.0 - 1e-6))
    # integrable 2D cone: the infinite-lattice density stays small even here
    assert excitation_density(near, LatticeSpec.infinite_lattice()) < 1e-2
    # an even-sided finite lattice has a discrete soft mode that dominates
    spec = LatticeSpec.periodic(80)
    nearer = params_at(gc * (1.0 - 1e-11))
    assert excitation_density(nearer, spec) > excitation_density(params_at(1.5), spec)

