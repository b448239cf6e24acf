"""Ground-state entanglement of a 2D lattice of coupled harmonic oscillators.

The lattice arises from a spin-wave (low-excitation) reduction of binary
dipolar condensates pinned in a square optical lattice: each site is one
oscillator, coupled to horizontal, vertical and diagonal neighbors.  The
package computes the dispersion and phase boundary of the model, the
Gaussian ground-state covariances by three engines, block entropies and
their area-law scaling, and two-site entanglement with its critical
behavior.

The public names below load their module on first use (PEP 562), so
``import spinwave`` alone loads no numpy: ``spinwave.cli`` can then choose
the BLAS thread count before numpy starts its thread pool.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "model": "CouplingParams LatticeSpec StabilityError build_potential",
    "spectrum": "GapScalingFit PhasePoint critical_g2 critical_g2_numeric critical_g_equal "
                "dispersion_value energy_gap gap_scaling_exponent phase_boundary_cases "
                "zone_minimum",
    "groundstate": "CorrelationTable CovariancePair QuadratureConvergenceError "
                   "covariance_dense covariance_infinite covariance_pbc_fft covariances_for "
                   "covariances_for_each excitation_density",
    "entanglement": "AsymmetricPairError BlockRegion SymplecticSpectrum TwoSiteParams "
                    "block_entropy entropy_sweep entropy_vs_L eof_symmetric symplectic_spectrum "
                    "two_site_params two_site_sweep",
    "oracle": "SpinSystemSpec TwoSiteSolution eof_fock_series exact_two_site "
              "harmonic_two_site_prediction symplectic_bruteforce validation_battery",
    "scan": "DerivativeEstimate FitResult PeakResult area_law_fit derivative_sweep "
            "derivative_zeta finite_size_peak",
    "config": "ConfigError RunConfig config_digest parse_config serialize_config",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
