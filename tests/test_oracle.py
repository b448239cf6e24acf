import numpy as np
import pytest

from spinwave import (LatticeSpec, SpinSystemSpec, StabilityError, covariance_pbc_fft,
                      eof_fock_series, exact_two_site, harmonic_two_site_prediction,
                      symplectic_bruteforce, symplectic_spectrum,
                      validation_battery, BlockRegion)
from spinwave.oracle import BOND_FACTOR, angular_momentum_ops

from conftest import params_at


def test_free_spins_gap_is_omega():
    spec = SpinSystemSpec(n_atoms=10, omega=7.3, kappa=0.0, g=0.0)
    assert exact_two_site(spec).gap == pytest.approx(7.3, abs=1e-9)


def test_decoupled_two_site_matches_single_site():
    # with g = 0 the two-site gap equals the single-site gap of
    # H = omega Jz + 4 kappa Jx^2, diagonalized independently here
    n_atoms, omega, kappa = 14, 14.0, 1.0
    Jx, Jz = angular_momentum_ops(n_atoms)
    single = np.linalg.eigvalsh(omega * Jz + 4.0 * kappa * Jx @ Jx)
    spec = SpinSystemSpec(n_atoms=n_atoms, omega=omega, kappa=kappa, g=0.0)
    assert exact_two_site(spec).gap == pytest.approx(single[1] - single[0], abs=1e-9)


def test_harmonic_decoupled_gap():
    spec = SpinSystemSpec(n_atoms=60, omega=500.0, kappa=1.0, g=0.0)
    assert harmonic_two_site_prediction(spec).gap == pytest.approx(
        np.sqrt(500.0 * (500.0 + 240.0)), rel=1e-14)


def test_harmonic_unstable_beyond_two_site_critical():
    # two-site critical coupling is omega/N + 4 kappa = 5 at omega = kappa N
    spec = SpinSystemSpec(n_atoms=50, omega=50.0, kappa=1.0, g=5.2)
    with pytest.raises(StabilityError):
        harmonic_two_site_prediction(spec)


def test_correlation_signs_agree_at_small_coupling():
    spec = SpinSystemSpec(n_atoms=20, omega=20.0, kappa=1.0, g=0.5)
    exact = exact_two_site(spec)
    harm = harmonic_two_site_prediction(spec)
    assert exact.ground_corr < 0 and harm.ground_corr < 0


def test_gap_error_shrinks_with_atom_number():
    errors = []
    for n_atoms in (10, 20):
        spec = SpinSystemSpec(n_atoms=n_atoms, omega=float(n_atoms), kappa=1.0, g=2.5)
        errors.append(abs(exact_two_site(spec).gap - harmonic_two_site_prediction(spec).gap)
                      / exact_two_site(spec).gap)
    assert errors[1] < errors[0]


def test_spectrum_invariant_under_coupling_sign_flip():
    # J1x -> -J1x maps g to -g and leaves the spectrum unchanged
    a = SpinSystemSpec(n_atoms=12, omega=12.0, kappa=1.0, g=1.3)
    b = SpinSystemSpec(n_atoms=12, omega=12.0, kappa=1.0, g=-1.3)
    Jx, Jz = angular_momentum_ops(12)
    eye = np.eye(13)

    def spectrum(spec):
        H = (spec.omega * (np.kron(Jz, eye) + np.kron(eye, Jz))
             + 4.0 * spec.kappa * (np.kron(Jx @ Jx, eye) + np.kron(eye, Jx @ Jx))
             + BOND_FACTOR * spec.g * np.kron(Jx, Jx))
        return np.linalg.eigvalsh(H)

    assert np.allclose(spectrum(a), spectrum(b), atol=1e-8)


def test_dimension_bound():
    with pytest.raises(ValueError, match="dimension"):
        SpinSystemSpec(n_atoms=70, omega=1.0, kappa=1.0, g=0.0)


def test_bruteforce_vacuum_and_pure_system(paper_params):
    nu = symplectic_bruteforce(np.eye(3) / 3000.0, 750.0 * np.eye(3))
    assert np.allclose(nu.values, 1.0, atol=1e-12)
    table = covariance_pbc_fft(LatticeSpec.periodic(4), paper_params)
    from conftest import full_matrices

    Q, P = full_matrices(table, 4)
    assert np.max(np.abs(symplectic_bruteforce(Q, P).values - 1.0)) < 1e-9


def test_bruteforce_matches_congruence_route(paper_params):
    table = covariance_pbc_fft(LatticeSpec.periodic(5), paper_params)
    Q, P = table.block(BlockRegion(1, 1, 2).sites())
    main = symplectic_spectrum(Q, P).values
    brute = symplectic_bruteforce(Q, P).values
    assert np.max(np.abs(main - brute)) < 1e-9


def test_eof_fock_series_reference():
    assert eof_fock_series(np.log(2.0)) == pytest.approx(1.4729424832117068, abs=1e-12)
    assert eof_fock_series(0.0) == 0.0


def test_validation_battery_passes():
    report = validation_battery()
    names = [c["name"] for c in report["checks"]]
    assert names == ["two_site_gap_convergence", "two_site_correlation_sign",
                     "symplectic_cross_route", "eof_closed_form_vs_fock_series"]
    for check in report["checks"]:
        assert check["passed"], check
    assert report["all_passed"]
