import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinwave import (LatticeSpec, QuadratureConvergenceError,
                      StabilityError, build_potential, covariance_dense, covariance_dst,
                      covariance_infinite, covariance_pbc_fft, critical_g_equal,
                      dispersion_value, excitation_density, zone_minimum)
from spinwave import groundstate
from spinwave.groundstate import _legendre_q, covariances_for_each

from conftest import full_matrices, params_at
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
    reaches); and distinct sites in random order with a corner among them."""
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
    t = draw(st.floats(0.0, 0.98)) * _critical_scale(g1, g2)
    corner = draw(st.sampled_from([(0, 0), (M - 1, 0), (0, M - 1), (M - 1, M - 1)]))
    others = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=2 * M))
    sites = list(dict.fromkeys(others[:len(others) // 2] + [corner] + others[len(others) // 2:]))
    return LatticeSpec.open_boundary(M), params_at(t * g1, g2=t * g2), sites


@settings(max_examples=150, deadline=None)
@given(open_lattice_cases())
def test_dst_engine_matches_dense_oracle(case):
    spec, p, sites = case
    for want, got in zip(covariance_dense(spec, p).block(sites), covariance_dst(spec, p).block(sites)):
        assert got.shape == want.shape
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sites", [[(0, 0), (0, 0)], [(1, 2), (3, 1), (1, 2)], [(4, 0)],
                                   [(-1, 0)], [(2, 2), (0, 4)]])
def test_dst_block_refuses_what_dense_refuses(sites):
    spec, p = LatticeSpec.open_boundary(4), params_at(1.2)
    messages = []
    for cov in (covariance_dense(spec, p), covariance_dst(spec, p)):
        with pytest.raises(ValueError) as err:
            cov.block(sites)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("M", [2, 3, 7, 12])
@pytest.mark.parametrize("g1, g2", [(1.0, 1.0), (1.0, 0.0), (0.3, 1.0), (1.0, 0.6)])
def test_dst_engine_refuses_beyond_criticality_as_dense_does(M, g1, g2):
    spec = LatticeSpec.open_boundary(M)
    t = _critical_scale(g1, g2, spec)
    covariance_dst(spec, params_at(0.99 * t * g1, g2=0.99 * t * g2))
    hot = params_at(1.01 * t * g1, g2=1.01 * t * g2)
    for engine in (covariance_dense, covariance_dst):
        with pytest.raises(StabilityError, match="beyond critical"):
            engine(spec, hot)


def test_dst_engine_only_runs_open_lattices(paper_params):
    for spec in (LatticeSpec.periodic(6), LatticeSpec.infinite_lattice()):
        with pytest.raises(ValueError, match="open lattice"):
            covariance_dst(spec, paper_params)


def test_fft_decoupled_no_correlations():
    table = covariance_pbc_fft(LatticeSpec.periodic(8), params_at(0.0))
    assert table.qq[0, 0] == pytest.approx(1.0 / 3000.0, rel=1e-13)
    assert abs(table.qq[1, 0]) < 1e-18
    assert abs(table.pp[3, 2]) < 1e-9  # pp scale is 750


def test_fft_sum_rule(paper_params):
    # summing <q_0 q_r> over the torus leaves only the k = 0 mode
    M = 8
    table = covariance_pbc_fft(LatticeSpec.periodic(M), paper_params)
    total = float(np.sum(table.qq))
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


@pytest.mark.parametrize("dmax", [0, 3])
def test_batch_equals_each_coupling_alone(monkeypatch, dmax):
    # the near-critical coupling needs levels the others do not, and the
    # unstable one is refused in place without touching the rest
    sizes = []
    block = groundstate._legendre_block
    monkeypatch.setattr(groundstate, "_legendre_block",
                        lambda rows, *args: sizes.append(len(rows)) or block(rows, *args))
    couplings = _batch_cases()
    batch = list(covariances_for_each(couplings, LatticeSpec.infinite_lattice(), dmax))
    assert sizes[0] == 5 and sizes[-1] == 1
    for p, got in zip(couplings, batch):
        try:
            want = covariance_infinite(p, dmax)
        except StabilityError as exc:
            assert type(got) is StabilityError and str(got) == str(exc)
            continue
        assert np.array_equal(got.qq, want.qq) and np.array_equal(got.pp, want.pp)
        assert not got.qq.flags.writeable and not got.pp.flags.writeable


def test_batch_keeps_each_nonconvergence_to_its_coupling(monkeypatch):
    # with three halvings the near-critical coupling fails alone, the others converge
    monkeypatch.setattr(groundstate, "QUAD_MAX_REFINEMENTS", 3)
    couplings = _batch_cases()
    batch = list(covariances_for_each(couplings, LatticeSpec.infinite_lattice(), 2))
    assert [type(t).__name__ for t in batch] == ["CorrelationTable"] * 3 + [
        "QuadratureConvergenceError", "StabilityError", "CorrelationTable"]
    with pytest.raises(QuadratureConvergenceError) as err:
        covariance_infinite(couplings[3], 2)
    assert str(batch[3]) == str(err.value)
    for got, want in zip(batch[3].last + batch[3].previous, err.value.last + err.value.previous):
        assert np.array_equal(got, want)
    for p, got in zip(couplings[:3], batch[:3]):
        assert np.array_equal(got.qq, covariance_infinite(p, 2).qq)


def test_finite_batch_runs_each_coupling():
    spec = LatticeSpec.periodic(6)
    couplings = [params_at(1.25), params_at(2.0), params_at(0.5)]
    batch = list(covariances_for_each(couplings, spec))
    assert isinstance(batch[1], StabilityError)
    for p, got in zip(couplings[::2], batch[::2]):
        assert np.array_equal(got.qq, covariance_pbc_fft(spec, p).qq)


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


def test_table_missing_displacement_named():
    table = covariance_infinite(params_at(1.0), 2)
    with pytest.raises(ValueError, match=r"\(5, 0\)"):
        table.displacement_index(5, 0)


def test_infinite_refuses_negative_extent():
    with pytest.raises(ValueError, match="dmax"):
        covariance_infinite(params_at(1.0), -1)


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

