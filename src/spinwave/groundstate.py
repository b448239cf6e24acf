"""Ground-state second moments <q_i q_j> and <p_i p_j>.

The ground state of H = (1/2) p.p + (1/2) q.V.q is Gaussian with

    Q = V^(-1/2) / 2      P = V^(1/2) / 2

and vanishing first moments.  Three interchangeable engines compute them:

* ``covariance_dense``     -- symmetric eigendecomposition of V (any boundary)
* ``covariance_pbc_fft``   -- circulant fast path for periodic lattices
* ``covariance_infinite``  -- Brillouin-zone quadrature in the M -> oo limit

The periodic/infinite engines return correlations as a function of the
displacement only (translation invariance); the dense engine returns the full
matrices.  Either container answers ``block(sites)`` with the principal
submatrices (Q_L, P_L) on a list of sites, and ``covariances_for`` is the one
place that picks the engine for a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import CRITICAL_GUARD, CouplingParams, LatticeSpec, StabilityError, build_potential
from .spectrum import dispersion_grid, dispersion_value, zone_minimum


@dataclass(frozen=True)
class CovariancePair:
    """Full position/momentum covariance matrices of the Gaussian ground state."""

    Q: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    spec: LatticeSpec

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on the sites (x, y): periodic
        lattices wrap, open ones refuse sites off the lattice, and no lattice
        site may be named twice."""
        idx = [self.spec.site_index(x, y) for x, y in sites]
        if len(set(idx)) < len(idx):
            raise ValueError("block names one lattice site twice")
        return self.Q[np.ix_(idx, idx)], self.P[np.ix_(idx, idx)]


@dataclass(frozen=True)
class CorrelationTable:
    """Translation-invariant correlations keyed by displacement.

    ``kind == "periodic"``: qq/pp are M x M arrays indexed by the displacement
    modulo M.  ``kind == "infinite"``: qq/pp are (D+1) x (D+1) quadrant arrays
    indexed by (|dx|, |dy|) -- the dispersion is even in each wavevector
    component separately, so correlations are too.
    """

    qq: np.ndarray = field(repr=False)
    pp: np.ndarray = field(repr=False)
    kind: str

    def displacement_index(self, dx, dy) -> tuple[np.ndarray, np.ndarray]:
        """Table indices of the displacements (dx, dy), integers or integer
        arrays of one shape: modulo M for periodic tables, (|dx|, |dy|) for
        infinite ones, which refuse displacements beyond their extent."""
        extent = self.qq.shape[0]
        if self.kind == "periodic":
            return np.mod(dx, extent), np.mod(dy, extent)
        dx, dy = np.abs(dx), np.abs(dy)
        outside = np.ravel((dx >= extent) | (dy >= extent))
        if outside.any():
            first = int(np.argmax(outside))
            raise ValueError(f"displacement ({np.ravel(dx)[first]}, {np.ravel(dy)[first]}) "
                             f"not in table (extent {extent - 1})")
        return dx, dy

    def qq_at(self, dx: int, dy: int) -> float:
        return float(self.qq[self.displacement_index(dx, dy)])

    def pp_at(self, dx: int, dy: int) -> float:
        return float(self.pp[self.displacement_index(dx, dy)])

    def block(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """Principal submatrices (Q_L, P_L) on the sites (x, y), read from the
        table by pairwise displacement; no lattice site may be named twice."""
        xy = np.asarray(sites, dtype=int)
        index = self.displacement_index(xy[:, None, 0] - xy[None, :, 0],
                                        xy[:, None, 1] - xy[None, :, 1])
        # only a site named twice puts displacement index (0, 0) off the diagonal
        if np.count_nonzero(index[0] | index[1]) < len(xy) * (len(xy) - 1):
            raise ValueError("block names one lattice site twice")
        return self.qq[index], self.pp[index]


def _guard_softness(vmin: float, on_site: float) -> None:
    if vmin <= 0:
        raise StabilityError(f"beyond critical coupling (min v = {vmin:.6g})")
    if vmin < CRITICAL_GUARD * on_site:
        raise StabilityError(
            f"within {CRITICAL_GUARD:g} of criticality (min v / on-site = "
            f"{vmin / on_site:.3g}); matrix square roots are unreliable here")


def covariance_dense(spec: LatticeSpec, params: CouplingParams) -> CovariancePair:
    """Q = V^(-1/2)/2 and P = V^(1/2)/2 by symmetric eigendecomposition."""
    w, U = np.linalg.eigh(build_potential(spec, params))
    _guard_softness(float(w[0]), params.on_site)
    Q = (U * (w ** -0.5)) @ U.T / 2.0
    P = (U * (w ** 0.5)) @ U.T / 2.0
    Q = 0.5 * (Q + Q.T)
    P = 0.5 * (P + P.T)
    Q.flags.writeable = False
    P.flags.writeable = False
    return CovariancePair(Q=Q, P=P, spec=spec)


def covariance_pbc_fft(spec: LatticeSpec, params: CouplingParams) -> CorrelationTable:
    """Periodic-lattice correlations via the circulant eigenvalue grid:

        <q_0 q_r> = (1 / 2 M^2) sum_k v(k)^(-1/2) cos(k.r)

    and the same with v^(+1/2) for momenta, evaluated with a fast transform.
    """
    if spec.infinite or spec.boundary != "periodic":
        raise ValueError("FFT engine requires a finite periodic lattice")
    v = dispersion_grid(params, spec.side)
    _guard_softness(float(np.min(v)), params.on_site)
    qq = 0.5 * np.real(np.fft.ifft2(v ** -0.5))
    pp = 0.5 * np.real(np.fft.ifft2(v ** 0.5))
    qq.flags.writeable = False
    pp.flags.writeable = False
    return CorrelationTable(qq=qq, pp=pp, kind="periodic")


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform product rule over the zone with adaptive grid doubling.

    The integrand is smooth and periodic away from criticality, so the
    uniform rule converges spectrally; successive doublings must agree to
    ``rel_tol`` per entry.  Sample points are offset by half a spacing so
    that no node ever lands exactly on the dispersion minimum.
    """

    base_points: int = 64
    rel_tol: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self):
        if self.base_points < 16:
            raise ValueError("quadrature needs at least 16 points per dimension")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be >= 1")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")


class QuadratureConvergenceError(RuntimeError):
    """Grid doubling did not reach the requested tolerance.

    Carries the last two estimates; expected only for couplings within about
    1e-8 (relative) of the critical point, where the integrable cone in
    v^(-1/2) defeats uniform grids.
    """

    def __init__(self, message, last, previous):
        super().__init__(message)
        self.last = last
        self.previous = previous


def _zone_tables(params: CouplingParams, dmax: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # cos(k.r) factorizes as cos(kx dx) cos(ky dy) on the sign-symmetric grid
    # (the odd sin terms cancel), so each table is two small matmuls.  v is
    # even in kx and in ky, so only the quadrant i >= n // 2 of the grid is
    # summed: weight 2 per row and column, except the k = 0 row and column
    # that odd n puts on the grid, which have no mirror and keep weight 1.
    k = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    k = k[n // 2:]
    w = np.full(k.size, 2.0)
    if n % 2:
        w[0] = 1.0
    d = np.arange(dmax + 1)
    # cos(kx+ky) + cos(kx-ky) = 2 cos kx cos ky makes v affine in cos ky at
    # fixed kx: v = a + b cos ky, with a and b read off the ky = 0 and ky = pi
    # values of each column, so dispersion_value stays the one formula for v.
    ends = dispersion_value(params, k[:, None], np.array([[0.0, np.pi]]))
    a = 0.5 * (ends[:, 0] + ends[:, 1])
    b = 0.5 * (ends[:, 0] - ends[:, 1])
    cx = w * np.cos(np.outer(d, k))
    qq = np.zeros((dmax + 1, dmax + 1))
    pp = np.zeros_like(qq)
    chunk = max(16, (2 ** 22) // k.size)
    for s in range(0, k.size, chunk):
        ky = k[s:s + chunk]
        v = a[:, None] + b[:, None] * np.cos(ky)[None, :]
        vmin = float(np.min(v))
        _guard_softness(vmin, params.on_site)
        cy = w[s:s + chunk] * np.cos(np.outer(d, ky))
        qq += (cx @ (v ** -0.5)) @ cy.T
        pp += (cx @ (v ** 0.5)) @ cy.T
    return qq / (2.0 * n * n), pp / (2.0 * n * n)


def covariance_infinite(params: CouplingParams, dmax: int,
                        quad: QuadratureSpec | None = None) -> CorrelationTable:
    """Infinite-lattice correlations by zone quadrature:

        <q_0 q_r> = (1 / 2 (2 pi)^2) int v(k)^(-1/2) cos(k.r) d^2k

    The returned table covers the quadrant 0 <= |dx|, |dy| <= ``dmax``.
    """
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    quad = quad or QuadratureSpec()
    vmin, _ = zone_minimum(params)
    _guard_softness(vmin, params.on_site)

    n = quad.base_points
    prev = _zone_tables(params, dmax, n)
    for _ in range(quad.max_doublings):
        n *= 2
        cur = _zone_tables(params, dmax, n)
        # per-entry relative agreement; entries below 1e-5 of the on-site
        # value are measured against that floor (they are exact-cancellation
        # residue, e.g. every off-site correlation of the decoupled lattice)
        floor_q = 1e-5 * np.max(np.abs(cur[0]))
        floor_p = 1e-5 * np.max(np.abs(cur[1]))
        err = max(
            float(np.max(np.abs(cur[0] - prev[0]) / np.maximum(np.abs(cur[0]), floor_q))),
            float(np.max(np.abs(cur[1] - prev[1]) / np.maximum(np.abs(cur[1]), floor_p))),
        )
        if err < quad.rel_tol:
            qq, pp = cur
            qq.flags.writeable = False
            pp.flags.writeable = False
            return CorrelationTable(qq=qq, pp=pp, kind="infinite")
        prev = cur
    raise QuadratureConvergenceError(
        f"zone quadrature did not converge to {quad.rel_tol:g} within "
        f"{quad.max_doublings} doublings (n = {n}); last level error {err:.3g}",
        last=cur, previous=prev)


def resolve_engine(spec: LatticeSpec, engine: str | None = None) -> str:
    """The engine a request runs on.  ``None`` or ``"auto"`` picks the
    lattice's own: zone quadrature for the infinite lattice, FFT for a
    periodic one, dense eigendecomposition for an open one."""
    if engine in (None, "auto"):
        return "infinite" if spec.infinite else "fft" if spec.boundary == "periodic" else "dense"
    if engine not in ("dense", "fft", "infinite"):
        raise ValueError(f"unknown engine {engine!r}")
    return engine


def covariances_for(params: CouplingParams, spec: LatticeSpec, engine: str | None = None,
                    max_displacement: int = 0, quad: QuadratureSpec | None = None):
    """Ground-state covariances of ``spec`` on the resolved engine.

    Returns a CovariancePair (dense) or a CorrelationTable (fft, infinite);
    an infinite table covers displacements up to ``max_displacement`` in
    each component.
    """
    engine = resolve_engine(spec, engine)
    if engine == "dense":
        return covariance_dense(spec, params)
    if engine == "fft":
        return covariance_pbc_fft(spec, params)
    return covariance_infinite(params, max_displacement, quad=quad)


def excitation_density(params: CouplingParams, spec: LatticeSpec,
                       quad: QuadratureSpec | None = None) -> float:
    """Mean excitation number per atom, (omega <q^2> + <p^2>/omega - 1) / (2N).

    Small values validate the low-excitation reduction.  Open lattices use
    the center site's moments (they vary with position there).
    """
    Q, P = covariances_for(params, spec, quad=quad).block([spec.center])
    n_exc = (params.omega * float(Q[0, 0]) + float(P[0, 0]) / params.omega - 1.0) / 2.0
    return n_exc / params.n_atoms
