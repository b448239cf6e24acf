"""Block entropies and two-site entanglement of the Gaussian ground state.

A reduced block keeps the rows/columns of Q and P on its sites; every
covariance container hands them out as ``cov.block(sites)``.  Its
symplectic eigenvalues are nu_i = sqrt(eig(4 Q_L P_L)), taken from the
symmetric form 4 C^T Q_L C with P_L = C C^T; the factor 4 makes the
decoupled vacuum give nu = 1, the purity bound.  The block entropy in bits is

    E = sum_i [ (nu_i+1)/2 log2 (nu_i+1)/2 - (nu_i-1)/2 log2 (nu_i-1)/2 ]

summed either over every eigenvalue (``count_all``) or with degenerate
values merged (``degenerate_once``, the default).  ``entropy_sweep`` takes the
curves of a whole coupling sweep from one engine run, one block at a time.

A block that commutes with both reflections of the square (any square block
of a periodic or the infinite lattice, whose quadrant table is even in dx and
dy; an open lattice's centred one, 2 x0 = M - L) splits into four parity sectors
(Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)): sector (sy, sx) is
G0 + sy Gy + sx Gx + sy sx Gxy over the block's lower-left quadrant, which a
table's ``sectors`` gathers one axis at a time.  On g1 = g2 the block commutes
with the diagonal reflection x <-> y too, its group being C4v (Faessler & Stiefel,
Group Theoretical Methods and Their Applications (1992)); that reflection maps
(+, -) onto (-, +), so the two share one spectrum, and ``entropy_sweep`` has
(-, +) counted as the mirror of (+, -), neither gathered nor solved.

For a symmetric pair of sites, n = 2 sqrt(<q_i^2><p_i^2>) and
c = 2 sqrt(-<q_i q_j><p_i p_j>) define zeta = n - c; zeta < 1 certifies
entanglement and fixes the entanglement of formation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .groundstate import covariances_for_each
from .model import CouplingParams, LatticeSpec

UNCERTAINTY_SLACK = 1e-9
DEFAULT_PAIRING_TOL = 1e-8
# relative agreement required of the on-site moments of a two-site pair
PAIR_SYMMETRY_TOL = 1e-6


@dataclass(frozen=True)
class BlockRegion:
    """An L x L block of sites anchored at (x0, y0)."""

    x0: int
    y0: int
    side_length: int

    def __post_init__(self):
        if self.side_length < 1:
            raise ValueError("block side must be >= 1")

    @classmethod
    def centered(cls, side_length: int, lattice_side: int) -> "BlockRegion":
        a = (lattice_side - side_length) // 2
        return cls(x0=a, y0=a, side_length=side_length)

    def sites(self) -> list[tuple[int, int]]:
        L = self.side_length
        return [(self.x0 + i, self.y0 + j) for j in range(L) for i in range(L)]


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues, sorted descending, clamped to >= 1."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values.flags.writeable = False

    @classmethod
    def from_values(cls, raw: np.ndarray) -> "SymplecticSpectrum":
        """Sorted, clamped spectrum; refuses values below 1 beyond the slack."""
        if np.min(raw) < 1.0 - UNCERTAINTY_SLACK:
            raise ValueError(f"uncertainty violation: symplectic eigenvalue {np.min(raw):.12g} < 1")
        return cls(values=np.sort(np.maximum(raw, 1.0))[::-1])

    def grouped(self, rel_tol: float = DEFAULT_PAIRING_TOL) -> list[tuple[float, int]]:
        """(value, multiplicity) with values merged at relative tolerance: a value
        joins its group when within rel_tol of the group's first value, else starts
        the next.  The values descend, so only runs of near ties to the predecessor can
        merge; one whose last value is within rel_tol of its first is one group (float
        subtraction is monotone), and only the others (NaN fails) are walked value by value."""
        v = self.values
        start = np.ones(v.size, dtype=bool)
        start[1:] = ~(np.abs(v[1:] - v[:-1]) <= rel_tol * np.abs(v[:-1]))  # NaN starts one
        heads, ends = np.flatnonzero(start), np.flatnonzero(np.append(start, True)[1:])
        walk = (ends - heads >= 2) & ~(np.abs(v[ends] - v[heads]) <= rel_tol * np.abs(v[heads]))
        for head, end in zip(heads[walk].tolist(), ends[walk].tolist()):
            for i in range(head + 1, end + 1):
                if not abs(v[i] - v[head]) <= rel_tol * abs(v[head]):
                    start[i], head = True, i
        first = np.flatnonzero(start)
        return list(zip(v[first], np.diff(first, append=v.size).tolist()))


def symplectic_spectrum(Q_L: np.ndarray, P_L: np.ndarray, counts=1) -> SymplecticSpectrum:
    """nu_i = sqrt(eig(4 Q_L P_L)) from the symmetric congruent form 4 C^T Q_L C,
    P_L = C C^T; by Sylvester's law of inertia its smallest eigenvalue is
    positive exactly when Q_L is positive-definite.  Blocks stacked (..., n, n)
    give the spectrum of their direct sum, each block checked and solved as if
    alone, and block k's values count ``counts[k]`` times (an int counts all alike)."""
    Q_L = np.atleast_2d(np.asarray(Q_L, dtype=float))
    P_L = np.atleast_2d(np.asarray(P_L, dtype=float))
    # each temporary is reused in place where the next step allows, which keeps
    # every float operation and its order and spares the heap a block or two
    for name, A in (("Q", Q_L), ("P", P_L)):
        d = A - np.swapaxes(A, -1, -2)
        np.abs(d, out=d)
        # written so that a NaN anywhere fails the comparison
        if not np.all(np.max(d, axis=(-2, -1)) <= 1e-12 * np.max(np.abs(A), axis=(-2, -1))):
            raise ValueError(f"{name} block is not symmetric")
    try:
        C = np.linalg.cholesky(P_L)
    except np.linalg.LinAlgError:
        raise ValueError("P block is not positive-definite") from None
    t = 4.0 * np.swapaxes(C, -1, -2) @ Q_L
    prod = t @ C
    np.add(prod, np.swapaxes(prod, -1, -2), out=t)  # t is free once prod is formed
    t *= 0.5
    ev = np.linalg.eigvalsh(t)
    if np.any(ev[..., 0] <= 0):
        raise ValueError("Q block is not positive-definite")
    nu = np.sqrt(ev).reshape(-1, ev.shape[-1])
    return SymplecticSpectrum.from_values(np.repeat(nu, counts, axis=0).ravel())


def _entropy_terms(nu: np.ndarray) -> np.ndarray:
    # nu = 1 contributes exactly zero: the (nu-1) term is defined as 0.
    out = np.zeros_like(nu)
    m = nu > 1.0
    up = (nu[m] + 1.0) / 2.0
    dn = (nu[m] - 1.0) / 2.0
    out[m] = up * np.log2(up) - dn * np.log2(dn)
    return out


def block_entropy(spectrum: SymplecticSpectrum, mode: str = "degenerate_once",
                  pairing_tol: float = DEFAULT_PAIRING_TOL) -> float:
    """Block von Neumann entropy in bits.

    ``count_all`` sums over every eigenvalue (the literal entropy of the
    reduced state); ``degenerate_once`` merges eigenvalues equal within
    ``pairing_tol`` (relative) and counts each merged value once.  Beware
    that on large blocks a loose tolerance can merge accidentally close
    values from different symmetry sectors.
    """
    nu = spectrum.values
    if mode == "count_all":
        return float(np.sum(_entropy_terms(nu)))
    if mode == "degenerate_once":
        reps = np.array([v for v, _ in spectrum.grouped(pairing_tol)])
        return float(np.sum(_entropy_terms(reps)))
    raise ValueError(f"unknown entropy mode {mode!r}")


# the parity sectors (sy, sx) ``CorrelationTable.sectors`` gathers, in its order, and
# how many times each one's values count: with ``diagonal``, (+, -) counts for its
# mirror (-, +) too
SECTORS = {False: {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1},
           True: {(1, 1): 1, (1, -1): 2, (-1, -1): 1}}


@lru_cache(maxsize=64)
def _parity_sectors(L: int, diagonal: bool):
    """Per parity sector of an odd side L, in ``CorrelationTable.sectors``' order, the
    quadrant sites it keeps, their weights and the sector's count: the middle row or
    column is dropped from odd sectors and weighted 1/sqrt(2) in even ones."""
    h = (L + 1) // 2
    y, x = np.divmod(np.arange(h * h), h)
    mid_x, mid_y = x == h - 1, y == h - 1
    weight = np.where(mid_x, np.sqrt(0.5), 1.0) * np.where(mid_y, np.sqrt(0.5), 1.0)
    return [(k, weight[k], count) for (sy, sx), count in SECTORS[diagonal].items()
            for k in [np.flatnonzero(~((sy < 0) & mid_y | (sx < 0) & mid_x))]]


def block_spectrum(cov, region: BlockRegion, diagonal: bool = False) -> SymplecticSpectrum:
    """Symplectic spectrum of the region's block of ``cov`` on its lattice: its parity
    sectors' merged when mirror symmetric (module notes), else the whole's.  An even
    side's sectors go through one stacked ``symplectic_spectrum`` call.  ``diagonal``
    says the table is even under dx <-> dy too (g1 == g2): then (-, +) is the
    mirror of (+, -), so it is not gathered or solved and (+, -) counts twice."""
    L, spec = region.side_length, cov.spec
    if spec.boundary == "open" and not 2 * region.x0 == spec.side - L == 2 * region.y0:
        return symplectic_spectrum(*cov.block(region.sites()))
    Q, P = cov.sectors(region.x0, region.y0, L, diagonal)
    if L % 2 == 0:
        return symplectic_spectrum(Q, P, list(SECTORS[diagonal].values()))
    return SymplecticSpectrum.from_values(np.concatenate([
        symplectic_spectrum(*(w[:, None] * A[np.ix_(keep, keep)] * w for A in (Qs, Ps)),
                            count).values
        for Qs, Ps, (keep, w, count) in zip(Q, P, _parity_sectors(L, diagonal)) if keep.size]))


def entropy_sweep(params: CouplingParams, g1, g2, spec: LatticeSpec, L_list,
                  mode: str = "degenerate_once", pairing_tol: float = DEFAULT_PAIRING_TOL) -> list:
    """Entropy of centered L x L blocks for each L over the sweep ``covariances_for_each``
    runs on the lattice's own engine, in sweep order: each coupling's curve [(L, E)], its
    blocks solved on its own table once the engine has run and freed its grids, or its refusal."""
    L_list = [int(L) for L in L_list]
    if not L_list or any(b <= a for a, b in zip(L_list, L_list[1:])):
        raise ValueError("L_list must be non-empty and strictly increasing")
    if not spec.infinite and L_list[-1] > spec.side:
        raise ValueError("largest block exceeds the lattice")
    g1, g2 = params.strength_arrays(g1, g2)
    lattice_side = spec.side if not spec.infinite else L_list[-1]
    regions, curves = [BlockRegion.centered(L, lattice_side) for L in L_list], {}
    for index, cov, refused in list(covariances_for_each(params, g1, g2, spec, L_list[-1] - 1)):
        curves.update(refused)
        for j, i in enumerate(index.tolist()):
            cov_j, diagonal = replace(cov, qq=cov.qq[j], pp=cov.pp[j]), bool(g1[i] == g2[i])
            curves[i] = [(L, block_entropy(block_spectrum(cov_j, region, diagonal), mode,
                                           pairing_tol))
                         for L, region in zip(L_list, regions)]
    return [curves[i] for i in range(len(curves))]


def entropy_vs_L(params: CouplingParams, spec: LatticeSpec, L_list,
                 mode: str = "degenerate_once",
                 pairing_tol: float = DEFAULT_PAIRING_TOL) -> list[tuple[int, float]]:
    """``entropy_sweep`` of the one coupling ``params``, raising its refusal."""
    (curve,) = entropy_sweep(params, [params.g1], [params.g2], spec, L_list, mode, pairing_tol)
    if isinstance(curve, Exception):
        raise curve
    return curve


class AsymmetricPairError(ValueError):
    """The two sites of a pair have unequal on-site moments."""


@dataclass(frozen=True)
class TwoSiteParams:
    """Pair parameters, one entry per pair of a batch (arrays of its shape).  A
    refused pair reads NaN and not separable; ``refusals`` maps its batch index
    to the AsymmetricPairError or uncertainty ValueError that refused it, or in a
    ``two_site_sweep`` to its coupling's engine refusal."""

    n: np.ndarray
    c: np.ndarray
    zeta: np.ndarray
    separable: np.ndarray
    sign_anomaly: np.ndarray
    refusals: dict

    @property
    def eof(self) -> np.ndarray:
        """Entanglement of formation (bits) of each pair, ``eof_symmetric`` of its zeta."""
        return np.reshape([eof_symmetric(z) for z in self.zeta.ravel().tolist()], self.zeta.shape)


def eof_symmetric(zeta: float) -> float:
    """Entanglement of formation (bits) of a symmetric pair, from zeta alone.

    Zero at and above the separability boundary zeta = 1; below it,
    f(zeta) = c+ log2 c+ - c- log2 c-  with  c+- = (zeta^(-1/2) +- zeta^(1/2))^2 / 4.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive for a physical state")
    if zeta >= 1.0:
        return 0.0
    cp = (zeta ** -0.5 + zeta ** 0.5) ** 2 / 4.0
    cm = (zeta ** -0.5 - zeta ** 0.5) ** 2 / 4.0
    val = cp * np.log2(cp)
    if cm > 0:
        val -= cm * np.log2(cm)
    return float(val)


def two_site_sweep(params: CouplingParams, g1, g2, spec: LatticeSpec, pairs) -> TwoSiteParams:
    """Pair parameters of the pairs of sites ((x, y), (x', y')) over the sweep that
    ``covariances_for_each`` runs, shaped (couplings, pairs) in sweep order: one
    ``block`` read per engine block gathers every pair, (stable, pairs, 2, 2), the
    stable couplings' pairs go through one ``two_site_params`` call, and a coupling
    the engine refused reads NaN, not separable and its refusal on every pair.  The
    tables reach the pairs' largest |dx| and largest |dy|, (1, 0) for zeta_1's pair."""
    reads, stable, refused = [(np.empty((0, len(pairs), 2, 2)),) * 2], [np.empty(0, int)], {}
    reach = np.max(np.abs(np.diff(pairs, axis=1)), axis=(0, 1)).tolist()
    for index, cov, block_refused in covariances_for_each(params, g1, g2, spec, reach):
        reads.append(cov.block(pairs))
        stable.append(index)
        refused.update(block_refused)
    two = two_site_params(*(np.concatenate([r[qp] for r in reads]) for qp in (0, 1)))
    stable = np.concatenate(stable)
    # the j-th refused coupling i goes before the (i - j)-th stable one
    gaps = [i - j for j, i in enumerate(sorted(refused))]
    return TwoSiteParams(*(np.insert(a, gaps, np.nan if a.dtype.kind == "f" else False, axis=0)
                           for a in (two.n, two.c, two.zeta, two.separable, two.sign_anomaly)),
                         {**{(i, k): exc for i, exc in refused.items() for k in range(len(pairs))},
                          **{(int(stable[i]), k): exc for (i, k), exc in two.refusals.items()}})


def two_site_params(Q, P) -> TwoSiteParams:
    """Entanglement parameters of pairs of sites, element by element over the
    leading axes of their (..., 2, 2) blocks Q and P, as ``block`` reads them from
    a covariance container (``two_site_sweep`` over a sweep).

    A pair is refused unless symmetric, with on-site moments equal within
    PAIR_SYMMETRY_TOL (automatic for periodic/infinite engines), and n >= 1
    within UNCERTAINTY_SLACK.  If the q and p cross correlations share a sign,
    the state is outside the symmetric normal form; c is recorded as 0 and the
    anomaly flagged, which keeps the separability verdict conservative.
    """
    shape = np.shape(Q)[:-2]
    # the entries ii, jj and ij of each pair's blocks
    (qii, qjj, qij), (pii, pjj, pij) = (np.reshape(A, (-1, 4))[:, [0, 3, 1]].T for A in (Q, P))
    refused = {}
    for a, b, label in ((qii, qjj, "<q^2>"), (pii, pjj, "<p^2>")):
        apart = np.abs(a - b) > PAIR_SYMMETRY_TOL * np.maximum(np.abs(a), np.abs(b))
        for i in np.flatnonzero(apart):
            refused.setdefault(i, AsymmetricPairError(
                f"asymmetric pair: on-site {label} differ by more than {PAIR_SYMMETRY_TOL:g} "
                "(relative); the open lattice's edges break the pair's mirror symmetry "
                "and a larger side moves them away"))
    # the quarter power per element: numpy's vectorised one differs from libm's in the last bit
    n = 2.0 * np.array([x ** 0.25 if x >= 0 else np.nan for x in (qii * pii * qjj * pjj).tolist()])
    for i in np.flatnonzero(~(n >= 1.0 - UNCERTAINTY_SLACK)):  # NaN fails too
        refused.setdefault(i, ValueError(f"uncertainty violation: n = {n[i]:.12g} < 1"))
    prod = qij * pij
    n = np.maximum(n, 1.0)
    c = np.where(prod >= 0, 0.0, 2.0 * np.sqrt(np.maximum(-prod, 0.0)))  # never -0.0
    n[list(refused)] = c[list(refused)] = np.nan
    zeta = n - c
    return TwoSiteParams(*(a.reshape(shape) for a in (n, c, zeta, zeta >= 1.0, prod > 0)),
                         {tuple(map(int, np.unravel_index(i, shape))): exc
                          for i, exc in refused.items()})
