"""Ground-state entanglement of a 2D lattice of coupled harmonic oscillators.

The lattice arises from a spin-wave (low-excitation) reduction of binary
dipolar condensates pinned in a square optical lattice: each site is one
oscillator, coupled to horizontal, vertical and diagonal neighbors.  The
package computes the dispersion and phase boundary of the model, the
Gaussian ground-state covariances by three engines, block entropies and
their area-law scaling, and two-site entanglement with its critical
behavior.
"""

from .model import CouplingParams, LatticeSpec, StabilityError, build_potential
from .spectrum import (GapScalingFit, PhasePoint, critical_g2, critical_g2_numeric,
                       critical_g_equal, dispersion_value, energy_gap, gap_scaling_exponent,
                       phase_boundary_cases, zone_minimum)
from .groundstate import (CorrelationTable, CovariancePair, QuadratureConvergenceError,
                          covariance_dense, covariance_infinite, covariance_pbc_fft,
                          covariances_for, covariances_for_each, excitation_density)
from .entanglement import (AsymmetricPairError, BlockRegion, SymplecticSpectrum,
                           TwoSiteParams, block_entropy, entropy_vs_L, eof_symmetric,
                           symplectic_spectrum, two_site_params, two_site_sweep)
from .oracle import (SpinSystemSpec, TwoSiteSolution, eof_fock_series, exact_two_site,
                     harmonic_two_site_prediction, symplectic_bruteforce, validation_battery)
from .scan import (DerivativeEstimate, FitResult, PeakResult, area_law_fit, derivative_zeta,
                   finite_size_peak)
from .config import ConfigError, RunConfig, config_digest, parse_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "CouplingParams", "LatticeSpec", "StabilityError", "build_potential",
    "GapScalingFit", "PhasePoint", "critical_g2", "critical_g2_numeric", "critical_g_equal",
    "dispersion_value", "energy_gap", "gap_scaling_exponent", "phase_boundary_cases",
    "zone_minimum",
    "CorrelationTable", "CovariancePair", "QuadratureConvergenceError",
    "excitation_density", "covariance_dense", "covariance_infinite", "covariance_pbc_fft",
    "covariances_for", "covariances_for_each",
    "AsymmetricPairError", "BlockRegion", "SymplecticSpectrum", "TwoSiteParams",
    "block_entropy", "entropy_vs_L", "eof_symmetric", "symplectic_spectrum",
    "two_site_params", "two_site_sweep",
    "SpinSystemSpec", "TwoSiteSolution", "eof_fock_series", "exact_two_site",
    "harmonic_two_site_prediction", "symplectic_bruteforce", "validation_battery",
    "DerivativeEstimate", "FitResult", "PeakResult", "area_law_fit", "derivative_zeta",
    "finite_size_peak",
    "ConfigError", "RunConfig", "config_digest", "parse_config", "serialize_config",
]
