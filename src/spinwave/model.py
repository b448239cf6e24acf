"""Physical parameters, lattice geometry and the harmonic potential matrix.

The lattice Hamiltonian is H = (1/2) sum_i p_i^2 + (1/2) sum_ij q_i V_ij q_j
with one oscillator per site of an M x M square lattice.  Every site couples
to its horizontal neighbors with strength g1, vertical neighbors with g2 and
the four diagonal neighbors with 2^(-3/2) g2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

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
        try:
            finite = all(math.isfinite(float(x))
                         for x in (self.omega, self.kappa, self.n_atoms, self.g1, self.g2))
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError("omega, kappa, n_atoms, g1 and g2 must be finite")
        if not (self.omega > 0 and self.kappa > 0):
            raise ValueError("omega and kappa must be positive")
        if not 1 <= self.n_atoms < 2 ** 63:
            # numpy holds a larger int only in an object array
            raise ValueError("n_atoms must be >= 1 and below 2**63")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("dipolar strengths g1, g2 must be >= 0")
        if not math.isfinite(self._symbol_top(self.g1, self.g2)):
            raise ValueError("the potential overflows: omega (omega + 4 kappa N), 2 N omega or "
                             "the symbol scale on_site + 2 N omega (g1 + (1 + 2^-0.5) g2) "
                             "is not finite")
        if not (self.on_site > 0 and self.coupling_scale > 0):
            raise ValueError("the potential underflows: omega (omega + 4 kappa N) or N omega "
                             "rounds to 0; omega, kappa and n_atoms are too small")

    def _symbol_top(self, g1, g2):
        # the largest entry any engine forms is v(0); it is not finite when
        # on_site or 2 N omega is not (inf * 0 is nan)
        return self.on_site + 2.0 * self.coupling_scale * (g1 + (1.0 + 2.0 ** -0.5) * g2)

    def strength_arrays(self, g1, g2) -> tuple[np.ndarray, np.ndarray]:
        """The dipolar strengths (g1[i], g2[i]) of a sweep's couplings at these
        constants as 1-D float arrays of one length (broadcast); the first
        coupling that CouplingParams refuses raises its ValueError."""
        g1, g2 = np.broadcast_arrays(np.asarray(g1, dtype=float), np.asarray(g2, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            made = (g1 >= 0) & (g2 >= 0) & np.isfinite(self._symbol_top(g1, g2))
        for i in np.flatnonzero(~made)[:1]:  # the first refused coupling raises its refusal
            replace(self, g1=float(g1[i]), g2=float(g2[i]))
        return g1, g2

    @property
    def on_site(self) -> float:
        """Diagonal entry of the potential matrix, omega * (omega + 4 kappa N)."""
        return self.omega * (self.omega + 4.0 * self.kappa * self.n_atoms)

    @property
    def coupling_scale(self) -> float:
        """N * omega, the prefactor of every off-diagonal potential entry."""
        return self.n_atoms * self.omega


# each boundary's engine, as LatticeSpec.engine names it
_ENGINES = {"periodic": "fft", "open": "dense", "infinite": "infinite"}


@dataclass(frozen=True)
class LatticeSpec:
    """M x M square lattice geometry: ``boundary`` periodic, open or infinite.

    Site indexing is row-major: ``site = y * side + x`` with x, y in [0, M).
    The infinite lattice, the periodic one's M -> infinity limit, takes the
    continuum Brillouin-zone treatment and has ``side`` None.
    """

    side: int | None
    boundary: str = "periodic"

    def __post_init__(self):
        if self.boundary not in _ENGINES:
            raise ValueError(f"boundary must be one of {', '.join(_ENGINES)}, "
                             f"got {self.boundary!r}")
        if self.infinite:
            if self.side is not None:
                raise ValueError(f"the infinite lattice has no side, got {self.side!r}")
            return
        try:
            side = operator.index(self.side)
        except TypeError:
            raise ValueError(f"side must be an integer, got {self.side!r}") from None
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
        return cls(side=None, boundary="infinite")

    @property
    def infinite(self) -> bool:
        return self.boundary == "infinite"

    @property
    def engine(self) -> str:
        """The lattice's engine as configs and the CLI's ``engine`` column name it: zone
        quadrature ("infinite") or its modes' cosine transform ("fft"; "dense" when open)."""
        return _ENGINES[self.boundary]

    @property
    def period(self) -> int | None:
        """Period P of a finite lattice's modes k = 2 pi m / P among m = 0..P//2: M when
        periodic, 2 (M + 1) when open, whose DST-I modes are that period's interior ones
        (``modes``; Strang, SIAM Rev. 41, 135 (1999)); None when infinite."""
        return (None if self.infinite else
                self.side if self.boundary == "periodic" else 2 * (self.side + 1))

    @property
    def modes(self) -> slice:
        """A finite lattice's modes among m = 0..period//2: the interior ones when open."""
        return slice(1, -1) if self.boundary == "open" else slice(None)

    @property
    def center(self) -> tuple[int, int]:
        """Anchor site of single-site and pair quantities: the origin of the
        infinite lattice, (M // 2, M // 2) on a finite one."""
        return (0, 0) if self.infinite else (self.side // 2, self.side // 2)

    def site_index(self, x, y):
        """Row-major index of the sites (x, y), ints or int arrays; refused off an open lattice."""
        if self.infinite:
            raise ValueError("the infinite lattice has no site index")
        M = self.side
        if self.boundary == "periodic":
            return (y % M) * M + (x % M)
        if (off := np.ravel((x < 0) | (x >= M) | (y < 0) | (y >= M))).any():
            x, y = np.ravel(x)[off][0], np.ravel(y)[off][0]
            raise ValueError(f"site ({x}, {y}) outside open {M}x{M} lattice")
        return y * M + x


def build_potential(spec: LatticeSpec, params: CouplingParams) -> np.ndarray:
    """Assemble the dense, read-only potential matrix V.

    V_ii = omega (omega + 4 kappa N); V_ij = N omega g^(ij) for interacting
    pairs.  The pair convention is fixed so that the quadratic form
    (1/2) sum_ij q_i V_ij q_j yields the equal-coupling critical point
    g_c = (omega + 4 kappa N) / (N (4 - sqrt 2)).
    """
    if spec.infinite:
        raise ValueError("infinite lattice has no finite potential matrix; use the dispersion")
    M = spec.side
    # The positive-direction offsets (1, 0), (0, 1), (1, 1), (1, -1) reach
    # every unordered neighbor pair exactly once (side >= 3 if periodic).
    dx = np.array([[1], [0], [1], [1]])
    dy = np.array([[0], [1], [1], [-1]])
    diagonal = DIAGONAL_FACTOR * params.g2
    strength = params.coupling_scale * np.array([[params.g1], [params.g2], [diagonal], [diagonal]])
    site = np.arange(M * M)
    y, x = np.divmod(site, M)
    x2, y2 = x + dx, y + dy
    keep = (spec.boundary == "periodic") | ((0 <= x2) & (x2 < M) & (0 <= y2) & (y2 < M))
    i = np.broadcast_to(site, keep.shape)[keep]
    j = ((y2 % M) * M + x2 % M)[keep]
    V = np.zeros((M * M, M * M))
    np.fill_diagonal(V, params.on_site)
    V[i, j] = V[j, i] = np.broadcast_to(strength, keep.shape)[keep]
    V.flags.writeable = False
    return V
