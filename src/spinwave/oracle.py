"""Independent brute-force validators.

Three routes that never touch the production code paths they check:

* exact diagonalization of the two-site spin Hamiltonian
      H = omega (Jz1 + Jz2) + 4 kappa (Jx1^2 + Jx2^2) + BOND_FACTOR g Jx1 Jx2
  in the product angular-momentum basis (spin N/2 per site),
* the closed-form harmonic (normal-mode) prediction for the same system,
* symplectic eigenvalues from the full 2L^2 covariance matrix and the
  standard symplectic form, instead of the Cholesky congruence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import SymplecticSpectrum, eof_symmetric, symplectic_spectrum
from .groundstate import covariances_for
from .model import CouplingParams, LatticeSpec, StabilityError
from .spectrum import dispersion_grid

MAX_HILBERT_DIM = 4096
# Schmidt coefficients below this are dropped from the Fock series
FOCK_TAIL = 1e-18
# the random blocks of the symplectic cross-route check are fixed
BATTERY_SEED = 20240831
# the single bond term counted twice, the lattice's convention V_ij = N omega g
BOND_FACTOR = 2.0


@dataclass(frozen=True)
class SpinSystemSpec:
    """Two coupled spin-N/2 sites, their bond counted BOND_FACTOR times.
    Negative g is allowed here for symmetry tests."""

    n_atoms: int
    omega: float
    kappa: float
    g: float

    def __post_init__(self):
        if (self.n_atoms + 1) ** 2 > MAX_HILBERT_DIM:
            raise ValueError(f"Hilbert dimension {(self.n_atoms + 1) ** 2} "
                             f"exceeds the dense bound {MAX_HILBERT_DIM}")


def angular_momentum_ops(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(Jx, Jz) for a single spin j = N/2 in the (N+1)-dimensional basis."""
    j = n_atoms / 2.0
    m = np.arange(-j, j + 1.0)
    dim = len(m)
    Jz = np.diag(m)
    amp = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    Jp = np.zeros((dim, dim))
    Jp[np.arange(1, dim), np.arange(dim - 1)] = amp
    Jx = 0.5 * (Jp + Jp.T)
    return Jx, Jz


@dataclass(frozen=True)
class TwoSiteSolution:
    """The two-site gap and <Jx1 Jx2> in the ground state, by either route."""

    gap: float
    ground_corr: float


def exact_two_site(spec: SpinSystemSpec) -> TwoSiteSolution:
    """Dense diagonalization of the two-site spin Hamiltonian."""
    Jx, Jz = angular_momentum_ops(spec.n_atoms)
    eye = np.eye(spec.n_atoms + 1)
    Jx2 = Jx @ Jx
    H = (spec.omega * (np.kron(Jz, eye) + np.kron(eye, Jz))
         + 4.0 * spec.kappa * (np.kron(Jx2, eye) + np.kron(eye, Jx2))
         + BOND_FACTOR * spec.g * np.kron(Jx, Jx))
    ev, evec = np.linalg.eigh(H)
    ground = evec[:, 0]
    corr = float(ground @ np.kron(Jx, Jx) @ ground)
    return TwoSiteSolution(gap=float(ev[1] - ev[0]), ground_corr=corr)


def harmonic_two_site_prediction(spec: SpinSystemSpec) -> TwoSiteSolution:
    """Normal-mode solution of the harmonic reduction of the same two sites.

    Mode frequencies are sqrt(A +- V12) with A the on-site potential entry
    and V12 the bond entry under the lattice's pair convention; the correlation
    maps back through Jx ~ sqrt(N omega / 2) q.
    """
    N, om = spec.n_atoms, spec.omega
    A = om * (om + 4.0 * spec.kappa * N)
    v12 = 0.5 * BOND_FACTOR * N * om * spec.g
    v_plus, v_minus = A + v12, A - v12
    lo = min(v_plus, v_minus)
    if lo <= 0:
        raise StabilityError(f"harmonic two-site system unstable (mode v = {lo:.6g})")
    # <q1 q2> from V^(-1/2)/2 with eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
    q12 = (v_plus ** -0.5 - v_minus ** -0.5) / 4.0
    corr = 0.5 * N * om * q12
    return TwoSiteSolution(gap=float(np.sqrt(lo)), ground_corr=float(corr))


def symplectic_bruteforce(Q_L: np.ndarray, P_L: np.ndarray) -> SymplecticSpectrum:
    """Symplectic spectrum from |eig(i J gamma)| with gamma = 2 diag(Q, P).

    Independent of the congruence route: the moduli of the eigenvalues of
    i J gamma come in equal pairs, one per mode.
    """
    Q_L = np.atleast_2d(np.asarray(Q_L, dtype=float))
    P_L = np.atleast_2d(np.asarray(P_L, dtype=float))
    if np.linalg.eigvalsh(Q_L)[0] <= 0 or np.linalg.eigvalsh(P_L)[0] <= 0:
        raise ValueError("covariance blocks must be positive-definite")
    n = Q_L.shape[0]
    zero = np.zeros((n, n))
    gamma = 2.0 * np.block([[Q_L, zero], [zero, P_L]])
    J = np.block([[zero, np.eye(n)], [-np.eye(n), zero]])
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * J @ gamma)))[::-1]
    return SymplecticSpectrum.from_values(moduli[::2])


def eof_fock_series(squeezing: float) -> float:
    """Entropy of entanglement of a two-mode squeezed pure state by direct
    summation of its Schmidt coefficients p_n = (1 - t^2) t^(2n), t = tanh r.

    For a pure state this equals the entanglement of formation, so it is a
    Gaussian-machinery-free oracle for :func:`eof_symmetric` at
    zeta = exp(-2 r).
    """
    t2 = np.tanh(squeezing) ** 2
    if squeezing <= 0 or t2 == 0.0:  # tanh(r)^2 underflows below r ~ 1e-154
        return 0.0
    nmax = max(10, int(np.ceil(np.log(FOCK_TAIL) / np.log(t2))))
    p = (1.0 - t2) * t2 ** np.arange(nmax)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def validation_battery() -> dict:
    """Run the full cross-validation battery; returns a JSON-friendly report."""
    checks = []

    # (a) exact vs harmonic two-site gap, error shrinking with N
    errors = []
    for n_atoms in (10, 20, 40):
        om = 1.0 * n_atoms
        g_half_critical = 0.5 * (om / n_atoms + 4.0)
        spec = SpinSystemSpec(n_atoms=n_atoms, omega=om, kappa=1.0, g=g_half_critical)
        exact = exact_two_site(spec)
        harmonic = harmonic_two_site_prediction(spec)
        errors.append(abs(exact.gap - harmonic.gap) / exact.gap)
    checks.append({
        "name": "two_site_gap_convergence",
        "passed": bool(errors[0] > errors[1] > errors[2] and errors[2] < 0.05),
        "relative_errors": errors,
        "n_atoms": [10, 20, 40],
    })

    # (b) correlation sign agreement at small coupling
    spec = SpinSystemSpec(n_atoms=20, omega=20.0, kappa=1.0, g=0.5)
    exact = exact_two_site(spec)
    harmonic = harmonic_two_site_prediction(spec)
    checks.append({
        "name": "two_site_correlation_sign",
        "passed": bool(np.sign(exact.ground_corr) == np.sign(harmonic.ground_corr)),
        "exact": exact.ground_corr,
        "harmonic": harmonic.ground_corr,
    })

    # (c) cross-route symplectic spectra on random stable blocks
    rng = np.random.default_rng(BATTERY_SEED)
    worst = 0.0
    for _ in range(50):
        M = int(rng.integers(4, 8))
        spec = LatticeSpec.periodic(M)
        while True:
            g1, g2 = rng.uniform(0.0, 2.5, size=2)
            params = CouplingParams(omega=500.0, kappa=1.0, n_atoms=1000, g1=g1, g2=g2)
            if np.min(dispersion_grid(params, spec)) > 1e-3 * params.on_site:
                break
        table = covariances_for(params, spec, M // 2)
        n_sub = int(rng.integers(2, 7))
        flat = rng.choice(M * M, size=n_sub, replace=False)
        sites = [(int(s % M), int(s // M)) for s in flat]
        Q, P = table.block(sites)
        nu_main = symplectic_spectrum(Q, P).values
        nu_brute = symplectic_bruteforce(Q, P).values
        worst = max(worst, float(np.max(np.abs(nu_main - nu_brute))))
    checks.append({
        "name": "symplectic_cross_route",
        "passed": bool(worst < 1e-9),
        "max_abs_difference": worst,
        "trials": 50,
    })

    # (d) closed-form EoF against the Fock-series oracle
    worst = 0.0
    for r in (0.05, 0.1, 0.3, 0.7, 1.0, 2.0):
        worst = max(worst, abs(eof_symmetric(float(np.exp(-2 * r))) - eof_fock_series(r)))
    checks.append({
        "name": "eof_closed_form_vs_fock_series",
        "passed": bool(worst < 1e-10),
        "max_abs_difference": worst,
    })

    return {"checks": checks, "all_passed": bool(all(c["passed"] for c in checks))}
