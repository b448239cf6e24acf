"""Physical parameters, lattice geometry and the harmonic potential matrix.

The lattice Hamiltonian is H = (1/2) sum_i p_i^2 + (1/2) sum_ij q_i V_ij q_j
with one oscillator per site of an M x M square lattice.  Every site couples
to its horizontal neighbors with strength g1, vertical neighbors with g2 and
the four diagonal neighbors with 2^(-3/2) g2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIAGONAL_FACTOR = 2.0 ** -1.5

# Relative softness below which covariance engines refuse to operate: the
# matrix square roots lose all meaning once min(V)/V_ii drops to this level.
CRITICAL_GUARD = 1e-12


class StabilityError(RuntimeError):
    """The requested parameters put the harmonic model beyond its stable region."""


@dataclass(frozen=True)
class CouplingParams:
    """Model constants: two-state coupling rate, on-site interaction, atom
    number per site and the two dipolar strengths.

    All energies are in units of ``kappa`` (the on-site interaction sets the
    scale, default 1).
    """

    omega: float
    n_atoms: int
    g1: float
    g2: float
    kappa: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega, self.kappa, self.n_atoms, self.g1, self.g2])):
            raise ValueError("omega, kappa, n_atoms, g1 and g2 must be finite")
        if not (self.omega > 0 and self.kappa > 0):
            raise ValueError("omega and kappa must be positive")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("dipolar strengths g1, g2 must be >= 0")

    @property
    def on_site(self) -> float:
        """Diagonal entry of the potential matrix, omega * (omega + 4 kappa N)."""
        return self.omega * (self.omega + 4.0 * self.kappa * self.n_atoms)

    @property
    def coupling_scale(self) -> float:
        """N * omega, the prefactor of every off-diagonal potential entry."""
        return self.n_atoms * self.omega


@dataclass(frozen=True)
class LatticeSpec:
    """M x M square lattice geometry.

    Site indexing is row-major: ``site = y * side + x`` with x, y in [0, M).
    ``infinite`` selects the continuum Brillouin-zone treatment; ``side`` is
    ignored in that mode.
    """

    side: int | None
    boundary: str = "periodic"
    infinite: bool = False

    def __post_init__(self):
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")
        if self.infinite:
            return
        if self.side is None:
            raise ValueError("finite lattice needs a side length")
        side = int(self.side)
        if self.boundary == "periodic" and side < 3:
            # side <= 2 wraps both directions onto the same pair of sites,
            # producing duplicate edges between one unordered pair.
            raise ValueError("periodic lattice needs side >= 3 (duplicate edges below that)")
        if self.boundary == "open" and side < 2:
            raise ValueError("open lattice needs side >= 2")

    @classmethod
    def periodic(cls, side: int) -> "LatticeSpec":
        return cls(side=side, boundary="periodic")

    @classmethod
    def open_boundary(cls, side: int) -> "LatticeSpec":
        return cls(side=side, boundary="open")

    @classmethod
    def infinite_lattice(cls) -> "LatticeSpec":
        return cls(side=None, boundary="periodic", infinite=True)

    @property
    def n_sites(self) -> int:
        if self.infinite:
            raise ValueError("infinite lattice has no site count")
        return self.side * self.side

    def site_index(self, x: int, y: int) -> int:
        M = self.side
        if self.boundary == "periodic":
            return (y % M) * M + (x % M)
        if not (0 <= x < M and 0 <= y < M):
            raise ValueError(f"site ({x}, {y}) outside open {M}x{M} lattice")
        return y * M + x


# Positive-direction offsets generate each unordered pair exactly once.
_OFFSETS = ((1, 0, "g1"), (0, 1, "g2"), (1, 1, "diag"), (1, -1, "diag"))


def neighbor_couplings(spec: LatticeSpec, params: CouplingParams) -> list[tuple[int, int, float]]:
    """Enumerate interacting site pairs as (i, j, strength) with i < j.

    Horizontal neighbors carry g1, vertical g2 and diagonal 2^(-3/2) g2;
    periodic wrapping applies iff the boundary is periodic.
    """
    if spec.infinite:
        raise ValueError("neighbor enumeration requires a finite lattice")
    strengths = {"g1": params.g1, "g2": params.g2, "diag": DIAGONAL_FACTOR * params.g2}
    M = spec.side
    pairs = []
    for y in range(M):
        for x in range(M):
            i = spec.site_index(x, y)
            for dx, dy, kind in _OFFSETS:
                x2, y2 = x + dx, y + dy
                if spec.boundary == "open" and not (0 <= x2 < M and 0 <= y2 < M):
                    continue
                j = spec.site_index(x2, y2)
                a, b = (i, j) if i < j else (j, i)
                pairs.append((a, b, strengths[kind]))
    return pairs


@dataclass(frozen=True)
class PotentialMatrix:
    """Symmetric M^2 x M^2 potential of the quadratic form, with provenance."""

    matrix: np.ndarray = field(repr=False)
    spec: LatticeSpec
    params: CouplingParams


def build_potential(spec: LatticeSpec, params: CouplingParams) -> PotentialMatrix:
    """Assemble the dense potential matrix V.

    V_ii = omega (omega + 4 kappa N); V_ij = N omega g^(ij) for interacting
    pairs.  The pair convention is fixed so that the quadratic form
    (1/2) sum_ij q_i V_ij q_j yields the equal-coupling critical point
    g_c = (omega + 4 kappa N) / (N (4 - sqrt 2)).
    """
    if spec.infinite:
        raise ValueError("infinite lattice has no finite potential matrix; use the dispersion")
    n = spec.n_sites
    V = np.zeros((n, n))
    np.fill_diagonal(V, params.on_site)
    for i, j, strength in neighbor_couplings(spec, params):
        V[i, j] += params.coupling_scale * strength
        V[j, i] += params.coupling_scale * strength
    V.flags.writeable = False
    return PotentialMatrix(matrix=V, spec=spec, params=params)
