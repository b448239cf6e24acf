import numpy as np
import pytest

from spinwave import (LatticeSpec, StabilityError, area_law_fit, critical_g_equal,
                      derivative_zeta, finite_size_peak)

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

