import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinwave import (LatticeSpec, StabilityError, area_law_fit, covariances_for,
                      critical_g_equal, derivative_zeta, entropy_vs_L, finite_size_peak,
                      two_site_params,
                      two_site_sweep)
from spinwave import groundstate
from spinwave.scan import derivative_sweep, stencil

from conftest import full_symbol, params_at


def test_area_law_fit_exact_line():
    fit = area_law_fit([(2, 4.0), (4, 8.0), (6, 12.0)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.max_rel_residual < 1e-12
    assert np.isfinite([fit.slope, fit.intercept, fit.max_rel_residual]).all()


def test_area_law_fit_validation():
    with pytest.raises(ValueError, match="3 points"):
        area_law_fit([(2, 4.0), (4, 8.0)])
    with pytest.raises(ValueError, match="degenerate"):
        area_law_fit([(2, 4.0), (2, 4.1), (6, 12.0)])


def test_area_law_fit_refuses_a_zero_entropy():
    # no residual is relative to E = 0: a zero is refused by its L, not read
    # as a NaN or infinite residual; the decoupled lattice's L = 2 block has
    # E = 0 exactly (L = 1 and 3 carry 6e-15 of rounding)
    curve = entropy_vs_L(params_at(0.0), LatticeSpec.periodic(8), [1, 2, 3])
    with pytest.raises(ValueError, match="zero entropy at L = 2:"):
        area_law_fit(curve)
    with pytest.raises(ValueError, match="zero entropy at L = 1:"):
        area_law_fit([(1, 0.0), (2, 0.0), (3, 0.0)])


@pytest.mark.parametrize("spec", [LatticeSpec.periodic(8), LatticeSpec.infinite_lattice(),
                                  LatticeSpec.open_boundary(9)], ids=lambda spec: spec.engine)
def test_area_law_fit_refuses_roundoff_entropies(spec):
    # at g = 1e-9 a block's true entropy is near 1e-18 bits; the computed one is
    # roundoff, 6e-15 to 1.2e-14 bits and nonzero at L = 1, 3 and 5
    curve = entropy_vs_L(params_at(1e-9), spec, [1, 3, 5])
    assert all(E > 0 for _, E in curve)
    with pytest.raises(ValueError, match=r"entropy 5\.88e-15 bits at L = 1 is roundoff"):
        area_law_fit(curve)
    # at g = 1e-3 the entropies are 1e6 times the roundoff level and are fitted
    fit = area_law_fit(entropy_vs_L(params_at(1e-3), spec, [1, 3, 5]))
    assert np.isfinite([fit.slope, fit.intercept, fit.max_rel_residual]).all()


def test_derivative_negative_below_minimum():
    est = derivative_zeta(params_at(0.0), LatticeSpec.infinite_lattice(), 1.3)
    assert est.raw < 0 and est.richardson < 0


def test_derivative_richardson_close_to_raw_when_smooth():
    est = derivative_zeta(params_at(0.0), LatticeSpec.infinite_lattice(), 1.4)
    assert abs(est.richardson - est.raw) <= 1e-4 * abs(est.raw)


def test_derivative_magnitude_grows_toward_critical():
    gc = critical_g_equal(params_at(0.0))
    spec = LatticeSpec.infinite_lattice()
    far = derivative_zeta(params_at(0.0), spec, gc - 1e-2)
    near = derivative_zeta(params_at(0.0), spec, gc - 1e-3)
    assert abs(near.richardson) > abs(far.richardson)


def test_derivative_critical_exponent_tends_to_one_half():
    # near g_c, v ~ Delta + alpha |k - K|^2 with Delta ~ delta = g_c - g, so the zone
    # integral gives d zeta_1 / dg ~ delta^(-1/2) and the local exponent between
    # neighbouring deltas rises towards -1/2 as delta shrinks. A uniform scale of the
    # qq tables scales zeta_1 and its derivative alike, which this cannot catch: the
    # next test holds the prefactor to its closed form.
    params = params_at(0.0)
    deltas = np.array([1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3.2e-6])
    estimates = derivative_sweep(params, LatticeSpec.infinite_lattice(),
                                 critical_g_equal(params) - deltas, h=2e-7)
    slopes = np.abs([est.richardson for est in estimates])
    exponents = np.diff(np.log(slopes)) / np.diff(np.log(deltas))
    assert np.all(np.diff(exponents) > 0)
    assert -0.53 < exponents[-1] < -0.49


def test_derivative_critical_law_coefficient_matches_its_closed_form():
    # on g1 = g2 = g near K = (pi, pi), v ~ Delta + alpha |k - K|^2 with
    # alpha = N omega g_c (1 - 2^-1/2) and Delta = |B_K| delta, delta = g_c - g,
    # |B_K| = 2 N omega (2 - 2^-1/2) = -dv/dg at K.  Only the qq derivatives diverge,
    # d<q_0 q_r>/dg ~ (-1)^(dx + dy) sqrt|B_K| / (8 pi alpha) delta^(-1/2), so through
    # zeta_1 = 2 sqrt(q0 p0) - 2 sqrt(-q1 p1) (q1, p1 the (1, 0) entries)
    #     d zeta_1 / dg = A delta^(-1/2) + B + C delta^(1/2) + ...,
    #     A = sqrt|B_K| / (8 pi alpha) (sqrt(p0 / q0) - sqrt(p1 / -q1)),
    # the tables taken at g_c (1 - 1e-10), 3e-5 of A from their limit.  The
    # three-term fit over delta in [3e-6, 1e-3] meets A to 1.2e-5, and fits over
    # windows of 6 or 8 of its points stray by at most 2.7e-4: the bound is 1e-3.
    # A scale 1 + s of the qq tables moves the fit by sqrt(1 + s) and A by
    # 1 / sqrt(1 + s), so their ratio by s: a scale of 0.12 % fails, one of 0.08 % passes
    params, spec = params_at(0.0), LatticeSpec.infinite_lattice()
    gc = critical_g_equal(params)
    deltas = np.geomspace(1e-3, 3e-6, 16)
    estimates = derivative_sweep(params, spec, gc - deltas, h=2e-7)
    slopes = np.array([est.richardson for est in estimates])
    basis = np.column_stack([deltas ** -0.5, np.ones_like(deltas), deltas ** 0.5])
    fitted = np.linalg.lstsq(basis, slopes, rcond=None)[0][0]
    at_gc = covariances_for(params_at(gc * (1.0 - 1e-10)), spec, (1, 0))
    (q0, q1), (p0, p1) = at_gc.qq[:, 0], at_gc.pp[:, 0]
    b_k = 2.0 * params.coupling_scale * (2.0 - 2.0 ** -0.5)
    alpha = params.coupling_scale * gc * (1.0 - 2.0 ** -0.5)
    closed = np.sqrt(b_k) / (8.0 * np.pi * alpha) * (np.sqrt(p0 / q0) - np.sqrt(p1 / -q1))
    assert abs(fitted / closed - 1.0) < 1e-3
    assert 0.0377 < closed < 0.0378


def test_derivative_finite_lattice():
    est = derivative_zeta(params_at(0.0), LatticeSpec.periodic(9), 1.3)
    assert est.raw < 0


def test_derivative_stencil_stability_error():
    gc = critical_g_equal(params_at(0.0))
    with pytest.raises(StabilityError, match="stencil"):
        derivative_zeta(params_at(0.0), LatticeSpec.infinite_lattice(), gc - 1e-5, h=1e-4)


def _analytic_slopes(spec, gs):
    """d zeta_1 / dg of the horizontal pair on the periodic lattice ``spec``
    at couplings g1 = g2 = g, differentiated under the mode sum:

        d<q_0 q_r>/dg = -(1/4M^2) sum_k v^(-3/2) (dv/dg) cos(k.r)
        d<p_0 p_r>/dg = +(1/4M^2) sum_k v^(-1/2) (dv/dg) cos(k.r)

    with dv/dg the coupling part of v at g = 1, and the chain rule through
    zeta = n - c, n = 2 sqrt(q_0 p_0), c = 2 sqrt(-q_1 p_1), on the full
    M x M grid of modes k = 2 pi m / M."""
    dv = full_symbol(params_at(1.0), spec.side) - full_symbol(params_at(0.0), spec.side)
    out = []
    for g in gs:
        v = full_symbol(params_at(g), spec.side)
        q, p = (0.5 * np.real(np.fft.ifft2(v ** s)) for s in (-0.5, 0.5))
        dq, dp = (0.5 * s * np.real(np.fft.ifft2(v ** (s - 1.0) * dv)) for s in (-0.5, 0.5))
        dn = (dq[0, 0] * p[0, 0] + q[0, 0] * dp[0, 0]) / np.sqrt(q[0, 0] * p[0, 0])
        dc = -(dq[1, 0] * p[1, 0] + q[1, 0] * dp[1, 0]) / np.sqrt(-q[1, 0] * p[1, 0])
        out.append(dn - dc)
    return np.array(out)


# worst |Richardson - analytic| over fig3's column, measured at 1.10e-9,
# 3.41e-8 and 3.77e-7 (numpy 2.4 pocketfft); each bound is twice that
@pytest.mark.parametrize("M, bound", [(21, 2.2e-9), (31, 6.9e-8), (41, 7.6e-7)])
def test_fig3_richardson_column_matches_analytic_derivative(M, bound):
    # reproduce-fig3's grid: g from 1 to g_c - 1e-4 in 200 steps, h = 1e-4
    gs = [float(g) for g in np.linspace(1.0, critical_g_equal(params_at(0.0)) - 1e-4, 200)]
    spec = LatticeSpec.periodic(M)
    richardson = np.array([est.richardson for est in derivative_sweep(params_at(0.0), spec, gs)])
    assert np.max(np.abs(richardson - _analytic_slopes(spec, gs))) <= bound


def test_derivative_step_validation():
    with pytest.raises(ValueError, match="positive"):
        derivative_zeta(params_at(0.0), LatticeSpec.infinite_lattice(), 1.3, h=0.0)


def test_finite_size_peak_smoke():
    import time

    start = time.monotonic()
    peaks = finite_size_peak(params_at(0.0), [5], np.linspace(1.0, 1.5, 5))
    elapsed = time.monotonic() - start
    assert len(peaks) == 1 and peaks[0].side == 5
    assert peaks[0].peak_abs_derivative > 0
    assert elapsed < 1.0


def test_finite_size_peak_validation():
    with pytest.raises(ValueError, match="odd"):
        finite_size_peak(params_at(0.0), [6], [1.0, 1.2])
    with pytest.raises(ValueError, match="odd"):
        finite_size_peak(params_at(0.0), [3], [1.0, 1.2])


def test_refused_stencil_point_leaves_no_reference_cycle():
    # the last stencil point is g_c itself and is refused; neither the refusal
    # nor the sweep's frame may tie the quadrature batch into a cycle, so
    # reference counting alone frees everything the sweep made
    gc_ = critical_g_equal(params_at(0.0))
    gs = [gc_ - 3e-4, gc_ - 1e-4]
    gc.collect()
    gc.disable()
    try:
        texts = [str(est) for est in
                 derivative_sweep(params_at(0.0), LatticeSpec.infinite_lattice(), gs)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not texts[0].startswith("stencil point")
    assert texts[1].startswith(f"stencil point g = {gs[1] + 1e-4!r} unstable: ")


def test_infinite_derivative_sweep_runs_no_legendre_recurrence(monkeypatch):
    # zeta_1's pair reads dy = 0 alone, so every kernel call of the infinite
    # sweep asks for top 0 and stops after the AGM: no forward or backward steps
    tops, kernel = [], groundstate._legendre_q
    monkeypatch.setattr(groundstate, "_legendre_q",
                        lambda zm1, top: (tops.append(top), kernel(zm1, top))[1])
    gc_ = critical_g_equal(params_at(0.0))
    derivative_sweep(params_at(0.0), LatticeSpec.infinite_lattice(),
                     np.linspace(1.0, gc_ - 1e-4, 12))
    assert tops and set(tops) == {0}


def _per_coupling_row(params, spec, g, h):
    """One row of a derivative sweep the way a run of single couplings gives
    it: each stencil table computed alone and its pair read alone, refusals in
    stencil order; (zetas, raw, richardson) or the refusal's text."""
    x, y = spec.center
    zetas = []
    for s in (h, -h, h / 2, -h / 2):
        point = g + s
        try:
            # alone at the sweep's per-axis reach, (1, 0) for zeta_1's pair
            cov = covariances_for(replace(params, g1=point, g2=point), spec, (1, 0))
        except StabilityError as exc:
            return f"stencil point g = {point!r} unstable: {exc}"
        two = two_site_params(*cov.block([(x, y), (x + 1, y)]))
        if two.refusals:
            return str(two.refusals[()])
        zetas.append(float(two.zeta))
    zp, zm, zp2, zm2 = zetas
    d_h = (zp - zm) / (2.0 * h)
    d_h2 = (zp2 - zm2) / h
    return zetas, d_h, (4.0 * d_h2 - d_h) / 3.0


LATTICES = st.one_of(st.integers(4, 15).map(LatticeSpec.periodic),
                     st.just(LatticeSpec.infinite_lattice()),
                     st.integers(3, 16).map(LatticeSpec.open_boundary))


# g from 1 to 2.3 crosses g_c (1.7403 on the infinite lattice, higher on small
# periodic ones), so refused rows sit anywhere in a sweep, and small open
# lattices refuse their off-centre pair at some couplings and not at others
@pytest.mark.one_thread
@settings(max_examples=40, deadline=None)
@given(spec=LATTICES, gs=st.lists(st.floats(1.0, 2.3), min_size=1, max_size=4),
       h=st.sampled_from([1e-4, 1e-3]))
@example(spec=LatticeSpec.periodic(9), gs=[1.4, 2.0, 1.7], h=1e-4)
@example(spec=LatticeSpec.infinite_lattice(), gs=[1.74, 1.7402, 1.7], h=1e-4)
@example(spec=LatticeSpec.open_boundary(12), gs=[1.0, 1.5, 1.2], h=1e-4)
def test_batched_sweep_matches_per_coupling_oracle(spec, gs, h):
    params = params_at(0.0)
    x, y = spec.center
    points = stencil(gs, h)
    batch_zeta = two_site_sweep(params, points, points, spec,
                                [[(x, y), (x + 1, y)]]).zeta[:, 0].reshape(-1, 4)
    for r, (g, est) in enumerate(zip(gs, derivative_sweep(params, spec, gs, h))):
        expected = _per_coupling_row(params, spec, g, h)
        if isinstance(expected, str):
            assert isinstance(est, Exception) and str(est) == expected
            continue
        # repr tells every float apart, 0.0 from -0.0 included
        assert repr(batch_zeta[r].tolist()) == repr(expected[0])
        assert repr((est.raw, est.richardson)) == repr(expected[1:])


def test_stencil_reaching_a_negative_coupling_is_refused():
    # g - h = -5e-5: the refusal names the step and the g, not only the coupling
    with pytest.raises(ValueError, match=r"step h = 0\.0001 exceeds g = 5e-05: .* negative"):
        derivative_sweep(params_at(0.0), LatticeSpec.periodic(9), [5e-5])
    with pytest.raises(ValueError, match="exceeds g = 1e-05"):
        stencil([1.0, 1e-5], 1e-4)
    # g - h = 0 is the decoupled lattice, still a coupling
    assert stencil([1e-4], 1e-4)[1] == 0.0


def test_sweep_streams_its_blocks():
    # an M = 41 block holds 4096 // 21^2 = 9 couplings; 800 stencil couplings'
    # stacked tables would take 800 * 2 * 21^2 * 8 B = 5.6 MB, and the sweep
    # holds one block of them at a time
    gs = np.linspace(1.0, 1.7, 200).tolist()
    derivative_sweep(params_at(0.0), LatticeSpec.periodic(41), gs[:1])  # caches warm
    tracemalloc.start()
    try:
        estimates = derivative_sweep(params_at(0.0), LatticeSpec.periodic(41), gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(est, Exception) for est in estimates)
    assert peak < 2e6


def test_derivative_step_below_float_resolution_is_refused():
    # g +- h/2 rounds to g, so every central difference would read 0.0
    with pytest.raises(ValueError, match="float resolution at g = 1.0"):
        derivative_sweep(params_at(0.0), LatticeSpec.periodic(8), [1.0], h=1e-300)
    # at g = 1 the spacing above is eps and below eps / 2: h / 2 = eps / 2 moves g only down
    with pytest.raises(ValueError, match="float resolution"):
        derivative_sweep(params_at(0.0), LatticeSpec.periodic(8), [1.0], h=2.0 ** -52)
    assert not isinstance(derivative_sweep(params_at(0.0), LatticeSpec.periodic(8), [1.0],
                                           h=2.0 ** -50)[0], Exception)
