import numpy as np
import pytest

from spinwave import (LatticeSpec, StabilityError, area_law_fit, critical_g_equal,
                      derivative_zeta, finite_size_peak)
from spinwave.scan import derivative_sweep
from spinwave.spectrum import dispersion_grid

from conftest import params_at


def test_area_law_fit_exact_line():
    fit = area_law_fit([(2, 4.0), (4, 8.0), (6, 12.0)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.max_rel_residual < 1e-12
    assert fit.n_samples == 3


def test_area_law_fit_validation():
    with pytest.raises(ValueError, match="3 points"):
        area_law_fit([(2, 4.0), (4, 8.0)])
    with pytest.raises(ValueError, match="degenerate"):
        area_law_fit([(2, 4.0), (2, 4.1), (6, 12.0)])


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
    zeta = n - c, n = 2 sqrt(q_0 p_0), c = 2 sqrt(-q_1 p_1)."""
    dv = dispersion_grid(params_at(1.0), spec) - dispersion_grid(params_at(0.0), spec)
    out = []
    for g in gs:
        v = dispersion_grid(params_at(g), spec)
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

