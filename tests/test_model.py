import re

import numpy as np
import pytest

from spinwave import (CouplingParams, LatticeSpec, StabilityError, build_potential,
                      critical_g_equal, energy_gap)

from conftest import params_at

DIAG = 2.0 ** -1.5


def brute_force_pairs(M, periodic):
    """Independent enumeration: every unordered pair whose displacement is an
    allowed neighbor offset (with optional wrap), classified by offset."""
    pairs = {}
    for a in range(M * M):
        xa, ya = a % M, a // M
        for b in range(a + 1, M * M):
            xb, yb = b % M, b // M
            dxs = [xb - xa] + ([xb - xa + M, xb - xa - M] if periodic else [])
            dys = [yb - ya] + ([yb - ya + M, yb - ya - M] if periodic else [])
            for dx in dxs:
                for dy in dys:
                    if (abs(dx), abs(dy)) == (1, 0):
                        pairs[(a, b)] = "h"
                    elif (abs(dx), abs(dy)) == (0, 1):
                        pairs[(a, b)] = "v"
                    elif (abs(dx), abs(dy)) == (1, 1):
                        pairs[(a, b)] = "d"
    return pairs


def potential_from_pairs(M, periodic, p):
    """V assembled from the brute-force pair list, entry by entry."""
    strength = {"h": p.g1, "v": p.g2, "d": DIAG * p.g2}
    V = p.on_site * np.eye(M * M)
    for (a, b), kind in brute_force_pairs(M, periodic).items():
        V[a, b] = V[b, a] = p.coupling_scale * strength[kind]
    return V


@pytest.mark.parametrize("side, periodic",
                         [(M, False) for M in range(2, 7)] + [(M, True) for M in range(3, 7)])
def test_potential_matches_brute_force(side, periodic):
    spec = LatticeSpec(side=side, boundary="periodic" if periodic else "open")
    for p in (params_at(1.0), params_at(0.7, g2=1.3), params_at(1.6, g2=0.0)):
        assert np.array_equal(build_potential(spec, p), potential_from_pairs(side, periodic, p))


def coupled_pairs(spec):
    return np.count_nonzero(np.triu(build_potential(spec, params_at(1.0)), 1))


def test_pair_count_2x2_open():
    assert coupled_pairs(LatticeSpec.open_boundary(2)) == 6


def test_pair_count_3x3_periodic_matches_brute_force():
    assert coupled_pairs(LatticeSpec.periodic(3)) == 36  # 9 sites * 8 neighbors / 2
    assert len(brute_force_pairs(3, periodic=True)) == 36


def test_pair_count_3x3_open():
    assert coupled_pairs(LatticeSpec.open_boundary(3)) == 20  # 12 horizontal+vertical, 8 diagonal


def test_lattice_center():
    assert LatticeSpec.infinite_lattice().center == (0, 0)
    assert LatticeSpec.periodic(8).center == (4, 4)
    assert LatticeSpec.open_boundary(9).center == (4, 4)
    assert LatticeSpec.open_boundary(2).center == (1, 1)


def test_potential_refuses_infinite_lattice():
    with pytest.raises(ValueError, match="infinite lattice"):
        build_potential(LatticeSpec.infinite_lattice(), params_at(1.0))


@pytest.mark.parametrize("spec, engine", [(LatticeSpec.periodic(5), "fft"),
                                          (LatticeSpec.open_boundary(5), "dense"),
                                          (LatticeSpec.infinite_lattice(), "infinite")])
def test_boundary_names_the_lattice_and_its_engine(spec, engine):
    # one field carries the choice: the infinite lattice is boundary = infinite, side None
    assert spec.engine == engine
    assert spec.infinite == (spec.boundary == "infinite") == (spec.side is None)
    assert spec == LatticeSpec(spec.side, spec.boundary)


@pytest.mark.parametrize("side, boundary, message", [
    (None, "periodic", "side must be an integer, got None"),
    (None, "open", "side must be an integer, got None"),
    (5, "closed", "boundary must be one of periodic, open, infinite, got 'closed'")])
def test_lattice_refuses_a_finite_boundary_without_side_or_an_unknown_one(side, boundary, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LatticeSpec(side, boundary)


@pytest.mark.parametrize("side", [9, 2.5, 0, "9"])
def test_infinite_lattice_refuses_a_side(side):
    # the infinite lattice has side None; any side would name it twice over,
    # and LatticeSpec(9, "infinite") would compare unequal to infinite_lattice()
    with pytest.raises(ValueError, match=re.escape(f"the infinite lattice has no side, "
                                                   f"got {side!r}")):
        LatticeSpec(side, "infinite")
    assert LatticeSpec(None, "infinite") == LatticeSpec.infinite_lattice()


def test_periodic_side_two_rejected():
    with pytest.raises(ValueError, match="side >= 3"):
        LatticeSpec.periodic(2)


@pytest.mark.parametrize("make, side", [(LatticeSpec.periodic, 4.5), (LatticeSpec.open_boundary, 5.0),
                                        (LatticeSpec.open_boundary, "5"), (LatticeSpec.periodic, 5.0),
                                        (LatticeSpec.open_boundary, np.float64(5.0))])
def test_lattice_refuses_non_integer_side(make, side):
    with pytest.raises(ValueError, match="side must be an integer"):
        make(side)


@pytest.mark.parametrize("side", [5, np.int64(5), np.int32(5), np.uint8(5)])
def test_lattice_accepts_integer_side(side):
    for make in (LatticeSpec.periodic, LatticeSpec.open_boundary):
        assert make(side).site_index(4, 4) == 24


def test_site_index_reads_arrays_and_refuses_the_infinite_lattice():
    x, y = np.array([[0, 3], [4, 2]]), np.array([[1, 3], [0, 5]])
    assert np.array_equal(LatticeSpec.periodic(4).site_index(x, y), [[4, 15], [0, 6]])
    assert np.array_equal(LatticeSpec.open_boundary(6).site_index(x, y), [[6, 21], [4, 32]])
    # the first site off the lattice, in row-major order of the arrays, is named
    with pytest.raises(ValueError, match=r"site \(4, 0\) outside open 4x4 lattice"):
        LatticeSpec.open_boundary(4).site_index(x, y)
    with pytest.raises(ValueError, match="the infinite lattice has no site index"):
        LatticeSpec.infinite_lattice().site_index(0, 0)


def test_potential_decoupled_is_scaled_identity():
    V = build_potential(LatticeSpec.open_boundary(3), params_at(0.0))
    assert np.array_equal(V, 2.25e6 * np.eye(9))


def test_potential_entry_values():
    # g2 = 1: vertical entry N omega g2 = 5e5, diagonal 5e5 * 2^(-3/2)
    p = CouplingParams(omega=500.0, kappa=1.0, n_atoms=1000, g1=0.0, g2=1.0)
    spec = LatticeSpec.open_boundary(3)
    V = build_potential(spec, p)
    vert = V[spec.site_index(0, 0), spec.site_index(0, 1)]
    diag = V[spec.site_index(0, 0), spec.site_index(1, 1)]
    assert vert == pytest.approx(5.0e5, rel=1e-15)
    assert diag == pytest.approx(5.0e5 * DIAG, rel=1e-15)
    assert diag == pytest.approx(1.7677669529663688e5, rel=1e-12)


def test_potential_positive_definite_below_critical():
    gc = critical_g_equal(params_at(0.0))
    V = build_potential(LatticeSpec.open_boundary(4), params_at(0.99 * gc))
    assert np.linalg.eigvalsh(V)[0] > 0


def test_potential_symmetric_and_deterministic(paper_params):
    spec = LatticeSpec.periodic(5)
    V1 = build_potential(spec, paper_params)
    V2 = build_potential(spec, paper_params)
    assert np.array_equal(V1, V1.T)
    assert np.array_equal(V1, V2)
    assert not V1.flags.writeable


def test_translation_invariance_periodic(paper_params):
    spec = LatticeSpec.periodic(5)
    V = build_potential(spec, paper_params)
    # entries depend only on the displacement mod M
    by_displacement = {}
    M = 5
    for i in range(25):
        for j in range(25):
            d = ((j % M - i % M) % M, (j // M - i // M) % M)
            by_displacement.setdefault(d, set()).add(V[i, j])
    assert all(len(vals) == 1 for vals in by_displacement.values())


def test_reflection_invariance(paper_params):
    spec = LatticeSpec.periodic(4)
    V = build_potential(spec, paper_params)
    perm = [spec.site_index(3 - (i % 4), i // 4) for i in range(16)]
    assert np.array_equal(V[np.ix_(perm, perm)], V)


def test_row_sparsity(paper_params):
    V = build_potential(LatticeSpec.periodic(5), paper_params)
    off_diag_counts = (V != 0).sum(axis=1) - 1
    assert np.all(off_diag_counts == 8)
    V_open = build_potential(LatticeSpec.open_boundary(5), paper_params)
    counts_open = (V_open != 0).sum(axis=1) - 1
    assert counts_open.max() == 8 and counts_open.min() == 3  # corners


def test_stability_check_reports():
    # energy_gap is the stability check: sqrt of the smallest eigenvalue of V,
    # refused with StabilityError once that eigenvalue is negative
    assert energy_gap(params_at(0.0), LatticeSpec.periodic(6)) == pytest.approx(1500.0, rel=1e-14)
    gc = critical_g_equal(params_at(0.0))
    assert energy_gap(params_at(0.999 * gc), LatticeSpec.periodic(40)) > 0
    with pytest.raises(StabilityError, match="beyond critical"):
        energy_gap(params_at(1.01 * gc), LatticeSpec.periodic(40))


def test_param_validation():
    with pytest.raises(ValueError):
        CouplingParams(omega=-1.0, kappa=1.0, n_atoms=10, g1=0.0, g2=0.0)
    with pytest.raises(ValueError):
        CouplingParams(omega=1.0, kappa=1.0, n_atoms=0, g1=0.0, g2=0.0)
    with pytest.raises(ValueError):
        CouplingParams(omega=1.0, kappa=1.0, n_atoms=10, g1=-0.5, g2=0.0)
    for bad in ({"g1": float("nan")}, {"g2": float("inf")}, {"omega": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            CouplingParams(**{"omega": 1.0, "n_atoms": 10, "g1": 0.0, "g2": 0.0, **bad})
    with pytest.raises(ValueError, match="underflows.*omega, kappa and n_atoms are too small"):
        CouplingParams(omega=1e-170, kappa=1e-170, n_atoms=1, g1=0.0, g2=0.0)
