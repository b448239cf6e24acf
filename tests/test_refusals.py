"""Library refusals no other test reaches: each call below must raise its own
ValueError, not return or fail further on with another message."""

import numpy as np
import pytest

from spinwave import (LatticeSpec, SymplecticSpectrum, block_entropy, covariance_pbc_fft,
                      critical_g2_numeric, gap_scaling_exponent, symplectic_bruteforce)

from conftest import params_at

REFUSALS = {
    "unknown entropy mode": (
        lambda: block_entropy(SymplecticSpectrum.from_values(np.array([1.5])), mode="count_once"),
        "unknown entropy mode 'count_once'"),
    "fft engine on an open lattice": (
        lambda: covariance_pbc_fft(LatticeSpec.open_boundary(6), params_at(1.0)),
        "FFT engine requires a finite periodic lattice"),
    "fft engine on the infinite lattice": (
        lambda: covariance_pbc_fft(LatticeSpec.infinite_lattice(), params_at(1.0)),
        "FFT engine requires a finite periodic lattice"),
    "open lattice of side 1": (
        lambda: LatticeSpec.open_boundary(1), "open lattice needs side >= 2"),
    "singular position block": (
        lambda: symplectic_bruteforce(np.diag([1.0, 0.0]), np.eye(2)),
        "covariance blocks must be positive-definite"),
    "indefinite momentum block": (
        lambda: symplectic_bruteforce(np.eye(2), np.diag([1.0, -1.0])),
        "covariance blocks must be positive-definite"),
    "negative g1": (
        lambda: critical_g2_numeric(params_at(0.0), -0.1), r"g1 must be >= 0"),
    "gap window below zero": (
        lambda: gap_scaling_exponent(params_at(0.0), (-0.1, 1.0), 5),
        "need 0 <= g_lo < g_hi"),
    "empty gap window": (
        lambda: gap_scaling_exponent(params_at(0.0), (1.0, 1.0), 5),
        "need 0 <= g_lo < g_hi"),
    "reversed gap window": (
        lambda: gap_scaling_exponent(params_at(0.0), (1.2, 1.0), 5),
        "need 0 <= g_lo < g_hi"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_library_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
