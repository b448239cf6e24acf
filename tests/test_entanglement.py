import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinwave import (AsymmetricPairError, BlockRegion, CorrelationTable, LatticeSpec,
                      StabilityError, SymplecticSpectrum, block_entropy, covariance_dense,
                      covariance_infinite, covariance_pbc_fft, covariances_for,
                      critical_g2, critical_g_equal, entropy_vs_L, eof_fock_series,
                      eof_symmetric, symplectic_spectrum, two_site_params, two_site_sweep,
                      zone_minimum)
from spinwave import entanglement, groundstate
from spinwave.entanglement import block_spectrum

from conftest import (expression_symplectic_spectrum, four_image_sectors, full_matrices,
                      pair_params, params_at)


def spectrum_of(values):
    return SymplecticSpectrum(values=np.sort(np.asarray(values, dtype=float))[::-1])


def test_reduce_block_whole_and_single(paper_params):
    spec = LatticeSpec.periodic(4)
    cov = covariance_dense(spec, paper_params)
    Q, P = cov.block(BlockRegion(0, 0, 4).sites())
    assert np.allclose(Q, cov.Q) and np.allclose(P, cov.P)
    q1, p1 = cov.block(BlockRegion(1, 2, 1).sites())
    assert q1.shape == (1, 1)
    assert q1[0, 0] == pytest.approx(cov.Q[spec.site_index(1, 2), spec.site_index(1, 2)])


def test_reduce_block_decoupled_diagonal():
    cov = covariance_dense(LatticeSpec.open_boundary(4), params_at(0.0))
    Q, P = cov.block(BlockRegion(1, 1, 2).sites())
    assert np.allclose(Q, np.eye(4) / 3000.0, rtol=1e-13)
    assert np.allclose(P, 750.0 * np.eye(4), rtol=1e-13)


def test_reduce_block_periodic_wrap_translation_invariant(paper_params):
    table = covariance_pbc_fft(LatticeSpec.periodic(5), paper_params)
    centered = table.block(BlockRegion(1, 1, 3).sites())
    wrapped = table.block(BlockRegion(4, 4, 3).sites())  # crosses the boundary
    e1 = block_entropy(symplectic_spectrum(*centered), "count_all")
    e2 = block_entropy(symplectic_spectrum(*wrapped), "count_all")
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_block_larger_than_lattice_rejected(paper_params):
    table = covariance_pbc_fft(LatticeSpec.periodic(4), paper_params)
    with pytest.raises(ValueError, match="twice"):
        table.block(BlockRegion(0, 0, 5).sites())


def test_whole_system_spectrum_is_ones(paper_params):
    Q, P = full_matrices(covariance_pbc_fft(LatticeSpec.periodic(4), paper_params), 4)
    nu = symplectic_spectrum(Q, P)
    assert np.max(np.abs(nu.values - 1.0)) < 1e-9


def test_single_site_values(paper_params):
    # decoupled vacuum: nu = 2 sqrt((1/3000) * 750) = 1 exactly
    nu0 = symplectic_spectrum(np.array([[1.0 / 3000.0]]), np.array([[750.0]]))
    assert nu0.values[0] == pytest.approx(1.0, abs=1e-14)
    table = covariance_pbc_fft(LatticeSpec.periodic(8), paper_params)
    Q, P = table.block(BlockRegion(0, 0, 1).sites())
    assert symplectic_spectrum(Q, P).values[0] > 1.0


def test_spectrum_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive-definite"):
        symplectic_spectrum(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        symplectic_spectrum(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="P block is not positive-definite"):
        symplectic_spectrum(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    for Q, P in ((np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)),
                 (np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))):
        with pytest.raises(ValueError, match="symmetric"):
            symplectic_spectrum(Q, P)


# blocks the size of fig2's and the open-dense scan's, g1 != g2 on the finite lattices
@pytest.mark.one_thread
@pytest.mark.parametrize("spec, g1, g2, L", [(LatticeSpec.periodic(80), 1.3, 1.1, 20),
                                             (LatticeSpec.infinite_lattice(), 1.5, 1.5, 12),
                                             (LatticeSpec.open_boundary(30), 1.2, 1.6, 10)])
def test_stacked_spectrum_matches_batch_of_blocks_alone(spec, g1, g2, L):
    # a block's four parity sectors in one call, bit for bit the merged spectra of
    # one call per sector, and a stack of unrelated blocks alike
    cov = covariances_for(params_at(g1, g2=g2), spec, L - 1)
    region = BlockRegion.centered(L, L if spec.infinite else spec.side)
    Q, P = cov.sectors(region.x0, region.y0, L)
    alone = np.concatenate([symplectic_spectrum(q, p).values for q, p in zip(Q, P)])
    assert np.array_equal(symplectic_spectrum(Q, P).values, np.sort(alone)[::-1])
    Qs, Ps = np.stack([Q, Q[::-1]]), np.stack([P, P[::-1]])
    assert np.array_equal(symplectic_spectrum(Qs, Ps).values, np.repeat(np.sort(alone)[::-1], 2))


@pytest.mark.one_thread
@pytest.mark.parametrize("bad, message", [
    ((np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2)), "Q block is not positive-definite"),
    ((np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)), "Q block is not symmetric"),
    ((np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])), "P block is not symmetric"),
    ((np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])), "P block is not positive-definite"),
    ((np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)), "Q block is not symmetric"),
    ((np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])), "P block is not symmetric"),
    # nu = 2 sqrt(0.2 * 1) < 1
    ((0.2 * np.eye(2), np.eye(2)), "uncertainty violation"),
])
@pytest.mark.parametrize("k", [0, 2])
def test_stacked_spectrum_raises_its_bad_blocks_error(bad, message, k):
    # one bad block among four, first or third: its own error, as alone
    good = (np.diag([1.0, 2.0]), np.diag([1.0, 0.5]))
    with pytest.raises(ValueError, match=message):
        symplectic_spectrum(*bad)
    Q, P = (np.stack([g] * 4) for g in good)
    Q[k], P[k] = bad
    with pytest.raises(ValueError, match=message):
        symplectic_spectrum(Q, P)


@st.composite
def spectrum_inputs(draw):
    """(Q, P): one block or a stack of them, n up to 12, Q and P each a random
    Gram matrix plus the identity scaled by s and 1/s (so nu >= 2), or spoilt in
    one of the ways the routine refuses, in C or Fortran layout."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)])) + (n, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    X, Y = rng.normal(size=shape), rng.normal(size=shape)
    Q = s * (X @ np.swapaxes(X, -1, -2) + np.eye(n))
    P = (Y @ np.swapaxes(Y, -1, -2) + np.eye(n)) / s
    A = draw(st.sampled_from([Q, P]))
    spoil = draw(st.sampled_from(["none", "asymmetric", "indefinite", "nan", "uncertain"]))
    if spoil == "asymmetric" and n > 1:
        A[..., 0, n - 1] *= 1.0 + 1e-9
    elif spoil == "indefinite":
        A -= 2.0 * np.max(np.linalg.eigvalsh(A)) * np.eye(n)
    elif spoil == "nan":
        A[..., n - 1, 0] = np.nan
    elif spoil == "uncertain":
        Q *= 0.01 / (np.max(np.linalg.eigvalsh(Q)) * np.max(np.linalg.eigvalsh(P)))  # nu < 1
    order = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray]))
    return order(Q), order(P)


@settings(max_examples=300, deadline=None)
@given(spectrum_inputs())
def test_symplectic_spectrum_matches_the_expression_bit_for_bit(case):
    # the routine reuses its temporaries but does the expression's float
    # operations in its order: the same values in every bit, the same refusals
    def outcome(f):
        try:
            return f(*case).values.tobytes()
        except ValueError as exc:
            return str(exc)

    assert outcome(symplectic_spectrum) == outcome(expression_symplectic_spectrum)


@pytest.mark.parametrize("spec, g, L", [
    (LatticeSpec.periodic(80), None, 8),  # fig2's near-critical coupling
    (LatticeSpec.infinite_lattice(), 1.5, 6),
    (LatticeSpec.open_boundary(30), 1.5, 6),
])
def test_spectrum_matches_mpmath(spec, g, L):
    # the reference is the same float block's 4 C^T Q C at 40 digits
    mp = pytest.importorskip("mpmath")
    if g is None:
        g = critical_g_equal(params_at(0.0)) * (1.0 - 1e-11)
    cov = covariances_for(params_at(g), spec, L - 1)
    Q, P = cov.block(BlockRegion.centered(L, L if spec.infinite else spec.side).sites())
    nu = symplectic_spectrum(Q, P).values
    with mp.workdps(40):
        C = mp.cholesky(mp.matrix(P.tolist()))
        ev = mp.eigsy(4 * C.T * mp.matrix(Q.tolist()) * C, eigvals_only=True)
        ref = sorted((float(mp.sqrt(e)) for e in ev), reverse=True)
    assert np.max(np.abs(nu / np.array(ref) - 1.0)) < 5e-14


def test_spectrum_grouping():
    nu = spectrum_of([3.0, 3.0, 2.0, 1.0, 1.0, 1.0])
    assert nu.grouped(1e-8) == [(3.0, 2), (2.0, 1), (1.0, 3)]


def grouped_by_loop(values, rel_tol):
    """``SymplecticSpectrum.grouped`` as a loop over every value: the oracle for
    its vectorised merge."""
    groups = []
    for v in values:
        if groups and abs(v - groups[-1][0]) <= rel_tol * abs(groups[-1][0]):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(g[0], len(g)) for g in groups]


@st.composite
def near_tie_spectra(draw):
    """(raw values >= 1, rel_tol): a chain of values from 16 up, each a multiple 0,
    1/2, 1, 3/2 or 2 of rel_tol below the one before, relative to it, or 7/8 of it,
    drawn with repeats.  With rel_tol a power of two and values of 30-bit mantissa
    the steps are exact, so a step of 1 plants a tie at exactly rel_tol; 1e-8 and
    free floats add rounded ones."""
    rel_tol = draw(st.sampled_from([2.0 ** -20, 2.0 ** -27, 1e-8, 1e-3]))
    chain = [np.ldexp(float(draw(st.integers(2 ** 29, 2 ** 30 - 1))), -25 + draw(st.integers(0, 8)))]
    for m in draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, None]), max_size=12)):
        chain.append(0.875 * chain[-1] if m is None else chain[-1] - m * rel_tol * chain[-1])
    chain += draw(st.lists(st.floats(1.0, 10.0), max_size=4))
    return draw(st.lists(st.sampled_from(chain), min_size=1, max_size=30)), rel_tol


@st.composite
def long_tie_runs(draw):
    """(descending values, rel_tol): one to three runs of 3-50 values, each from a head
    h down to h - s with s below, at or above rel_tol h and the values between drawn
    at random, the next run's head 7/8 of the last one's end; a NaN may sit inside one.
    With rel_tol a power of two and a 30-bit head, a span at rel_tol is exact."""
    rel_tol = draw(st.sampled_from([2.0 ** -20, 2.0 ** -27, 1e-8, 1e-3]))
    head = np.ldexp(float(draw(st.integers(2 ** 29, 2 ** 30 - 1))), -25 + draw(st.integers(0, 8)))
    values = []
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0),
                               st.sampled_from([1.0 + 2.0 ** -20, 1.5, 2.0, 3.0])))
        span = scale * rel_tol * head
        inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=48))
        values += sorted([head, head - span] + [head - t * span for t in inner], reverse=True)
        head = 0.875 * values[-1]
    if draw(st.booleans()):
        values.insert(draw(st.integers(1, len(values) - 1)), float("nan"))
    return np.array(values), rel_tol


TIE_STEP = 2.0 ** -24  # a 2^-25 relative step from 2: rel_tol 2^-20 spans 32 of them


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_spectra(), long_tie_runs()))
# test_grouped_tie_at_exactly_rel_tol_joins_the_head's spectrum
@example(([2.0, 2.0 - 2.0 ** -20, 2.0 - 2.0 ** -19, 2.0 - 3.0 * 2.0 ** -20], 2.0 ** -20))
# runs of 30 and 33 ties, spanning below and exactly rel_tol: one group each
@example((np.array([2.0 - k * TIE_STEP for k in range(30)]), 2.0 ** -20))
@example((np.array([2.0 - k * TIE_STEP for k in range(33)]), 2.0 ** -20))
# a run of 50 spanning above rel_tol, walked into groups of 33 and 17
@example((np.array([2.0 - k * TIE_STEP for k in range(50)]), 2.0 ** -20))
# the same run holding a NaN
@example((np.array([2.0 - k * TIE_STEP for k in range(20)] + [float("nan")]
                   + [2.0 - k * TIE_STEP for k in range(20, 50)]), 2.0 ** -20))
def test_grouped_merge_matches_the_loop(case):
    raw, rel_tol = case
    # a list goes through from_values; an array (long_tie_runs) is a spectrum as drawn,
    # descending with any NaN kept in place
    spectrum = (SymplecticSpectrum(values=raw) if isinstance(raw, np.ndarray)
                else SymplecticSpectrum.from_values(np.array(raw)))
    got, want = spectrum.grouped(rel_tol), grouped_by_loop(spectrum.values, rel_tol)
    assert [(v.tobytes(), n) for v, n in got] == [(v.tobytes(), n) for v, n in want]
    entropy = block_entropy(spectrum, pairing_tol=rel_tol)
    assert entropy == float(np.sum(entanglement._entropy_terms(np.array([v for v, _ in want]))))


def test_grouped_tie_at_exactly_rel_tol_joins_the_head():
    # steps of 2^-20 down from 2 at rel_tol 2^-20: the third value is exactly
    # rel_tol from the head and joins it; the fourth, near its predecessor, is not
    values = [2.0, 2.0 - 2.0 ** -20, 2.0 - 2.0 ** -19, 2.0 - 3.0 * 2.0 ** -20]
    assert spectrum_of(values).grouped(2.0 ** -20) == [(2.0, 3), (values[3], 1)]


def test_entropy_closed_values():
    assert block_entropy(spectrum_of([1.0, 1.0, 1.0])) == 0.0
    # single nu = 3: 2 log2 2 - 1 log2 1 = 2 bits
    assert block_entropy(spectrum_of([3.0])) == pytest.approx(2.0, abs=1e-14)
    pair = spectrum_of([3.0, 3.0])
    assert block_entropy(pair, "degenerate_once") == pytest.approx(2.0, abs=1e-14)
    assert block_entropy(pair, "count_all") == pytest.approx(4.0, abs=1e-14)


def test_count_all_at_least_degenerate_once():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vals = 1.0 + np.abs(rng.normal(size=6)) + 1e-3
        nu = spectrum_of(np.concatenate([vals, vals]))  # force exact pairs
        assert (block_entropy(nu, "count_all")
                >= block_entropy(nu, "degenerate_once") - 1e-12)


def test_entropy_vs_L_decoupled_zero():
    curve = entropy_vs_L(params_at(0.0), LatticeSpec.periodic(8), [1, 2, 3])
    assert all(abs(E) < 1e-12 for _, E in curve)


def test_entropy_vs_L_validation(paper_params):
    with pytest.raises(ValueError, match="increasing"):
        entropy_vs_L(paper_params, LatticeSpec.periodic(8), [2, 2, 3])
    with pytest.raises(ValueError, match="exceeds"):
        entropy_vs_L(paper_params, LatticeSpec.periodic(6), [2, 7])


def test_entropy_vs_L_refuses_an_empty_list(paper_params):
    with pytest.raises(ValueError, match="non-empty"):
        entropy_vs_L(paper_params, LatticeSpec.periodic(8), [])


# Open lattices: side 9 reads L = 3 and 5 centred (by parity sectors) and L = 2 and 4
# off-centre (whole); side 8 the other way round.  g = 2.3 is beyond g_c on all of them
@pytest.mark.one_thread
@settings(max_examples=25, deadline=None)
@given(spec=st.one_of(st.sampled_from([6, 7, 9, 10]).map(LatticeSpec.periodic),
                      st.just(LatticeSpec.infinite_lattice()),
                      st.sampled_from([8, 9]).map(LatticeSpec.open_boundary)),
       gs=st.lists(st.floats(1.0, 2.3), min_size=1, max_size=4),
       ratio=st.sampled_from([1.0, 0.5]), L_list=st.sampled_from([[2, 3, 4, 5], [1, 4], [3]]),
       block_points=st.sampled_from([4096, 100]))
# a coupling beyond g_c in the middle of each lattice's sweep
@example(spec=LatticeSpec.periodic(6), gs=[1.25, 2.3, 1.5], ratio=1.0, L_list=[2, 3, 4, 5],
         block_points=100)
@example(spec=LatticeSpec.periodic(7), gs=[1.25, 2.3, 1.5], ratio=1.0, L_list=[2, 3, 4, 5],
         block_points=4096)
@example(spec=LatticeSpec.open_boundary(9), gs=[1.25, 2.3, 1.5], ratio=1.0, L_list=[2, 3, 4, 5],
         block_points=4096)
@example(spec=LatticeSpec.open_boundary(8), gs=[1.25, 2.3, 1.5], ratio=0.5, L_list=[2, 3, 4, 5],
         block_points=100)
@example(spec=LatticeSpec.infinite_lattice(), gs=[1.25, 2.3, 1.5], ratio=1.0, L_list=[2, 3, 4, 5],
         block_points=4096)
def test_entropy_sweep_matches_each_coupling_alone(spec, gs, ratio, L_list, block_points):
    params = params_at(0.0)
    g2 = [ratio * g for g in gs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundstate, "FINITE_BLOCK_POINTS", block_points)
        curves = entanglement.entropy_sweep(params, gs, g2, spec, L_list)
    assert len(curves) == len(gs)
    for curve, g, h in zip(curves, gs, g2):
        try:
            want = entropy_vs_L(replace(params, g1=g, g2=h), spec, L_list)
        except StabilityError as exc:
            assert type(curve) is StabilityError and str(curve) == str(exc)
            continue
        # repr tells every float apart, 0.0 from -0.0 included
        assert [(L, repr(E)) for L, E in curve] == [(L, repr(E)) for L, E in want]
    if gs == [1.25, 2.3, 1.5]:  # the examples' planted refusal, between two stable curves
        assert [type(c) for c in curves] == [list, StabilityError, list]


def test_complement_duality_small(paper_params):
    # pure global state: block and complement share every nu > 1
    spec = LatticeSpec.open_boundary(6)
    cov = covariance_dense(spec, params_at(1.2))
    inside = BlockRegion(2, 2, 2).sites()
    idx_in = [spec.site_index(x, y) for x, y in inside]
    idx_out = [k for k in range(36) if k not in idx_in]
    e_in = block_entropy(symplectic_spectrum(cov.Q[np.ix_(idx_in, idx_in)],
                                             cov.P[np.ix_(idx_in, idx_in)]), "count_all")
    e_out = block_entropy(symplectic_spectrum(cov.Q[np.ix_(idx_out, idx_out)],
                                              cov.P[np.ix_(idx_out, idx_out)]), "count_all")
    assert e_in == pytest.approx(e_out, abs=1e-8)


def test_entropy_permutation_invariant(paper_params):
    table = covariance_pbc_fft(LatticeSpec.periodic(6), paper_params)
    Q, P = table.block(BlockRegion(0, 0, 2).sites())
    perm = [2, 0, 3, 1]
    e1 = block_entropy(symplectic_spectrum(Q, P), "count_all")
    e2 = block_entropy(symplectic_spectrum(Q[np.ix_(perm, perm)], P[np.ix_(perm, perm)]),
                       "count_all")
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_row_decoupled_additivity():
    # g2 = 0 kills vertical and diagonal couplings: rows are independent
    # chains, so an L x L block carries L times the entropy of a 1 x L strip
    spec = LatticeSpec.periodic(5)
    p = params_at(0.8, g2=0.0)
    cov = covariance_dense(spec, p)
    for L in (2, 3):
        a = (5 - L) // 2
        block = [spec.site_index(a + i, a + j) for j in range(L) for i in range(L)]
        strip = [spec.site_index(a + i, a) for i in range(L)]
        e_block = block_entropy(symplectic_spectrum(cov.Q[np.ix_(block, block)],
                                                    cov.P[np.ix_(block, block)]), "count_all")
        e_strip = block_entropy(symplectic_spectrum(cov.Q[np.ix_(strip, strip)],
                                                    cov.P[np.ix_(strip, strip)]), "count_all")
        assert e_block == pytest.approx(L * e_strip, abs=1e-10)


def _scalar_pair_params(Q, P):
    """The pair arithmetic one pair at a time, on numpy scalars: (n, c, zeta, eof,
    separable, sign_anomaly), or the text of the refusal."""
    qii, qjj, qij = Q[0, 0], Q[1, 1], Q[0, 1]
    pii, pjj, pij = P[0, 0], P[1, 1], P[0, 1]
    for a, b, label in ((qii, qjj, "<q^2>"), (pii, pjj, "<p^2>")):
        if abs(a - b) > entanglement.PAIR_SYMMETRY_TOL * max(abs(a), abs(b)):
            return (f"asymmetric pair: on-site {label} differ by more than 1e-06 (relative); "
                    "the open lattice's edges break the pair's mirror symmetry "
                    "and a larger side moves them away")
    n = 2.0 * (qii * pii * qjj * pjj) ** 0.25
    if n < 1.0 - entanglement.UNCERTAINTY_SLACK:
        return f"uncertainty violation: n = {n:.12g} < 1"
    n = max(n, 1.0)
    prod = qij * pij
    c = 0.0 if prod >= 0 else 2.0 * np.sqrt(-prod)
    zeta = n - c
    return (float(n), float(c), float(zeta), eof_symmetric(zeta), bool(zeta >= 1.0),
            bool(prod > 0))


@pytest.mark.one_thread
def test_batched_pair_arithmetic_equals_scalar_bitwise():
    # numpy's vectorised x ** 0.25 differs from the scalar (libm) one in the
    # last bit on about 5 % of inputs, so a vectorised quarter power fails here
    rng = np.random.default_rng(7)
    size = 20000
    q = rng.uniform(0.05, 3.0, size)
    # n = 2 sqrt(q p) up to 1.26; one in twenty within 2e-9 of the purity bound, on
    # either side of the slack
    p = np.where(rng.random(size) < 0.05, rng.uniform(1.0 - 4e-9, 1.0 + 4e-9, size),
                 rng.uniform(1.0, 1.6, size)) / (4.0 * q)
    qj = np.where(rng.random(size) < 0.02, q * (1.0 + rng.uniform(-3e-6, 3e-6, size)), q)
    pj = np.where(rng.random(size) < 0.02, p * (1.0 + rng.uniform(-3e-6, 3e-6, size)), p)
    qx = -rng.uniform(0.0, 1.0, size) * q * rng.choice([1.0, 1.0, 1.0, -1.0, 0.0], size)
    px = rng.uniform(0.0, 1.0, size) * p * rng.choice([1.0, 1.0, 1.0, -1.0, -0.0], size)
    Q = np.stack([np.stack([q, qx], -1), np.stack([qx, qj], -1)], -2).reshape(200, 100, 2, 2)
    P = np.stack([np.stack([p, px], -1), np.stack([px, pj], -1)], -2).reshape(200, 100, 2, 2)
    two = two_site_params(Q, P)
    columns = (two.n, two.c, two.zeta, two.eof, two.separable, two.sign_anomaly)
    kinds = set()
    for index in np.ndindex(200, 100):
        expected = _scalar_pair_params(Q[index], P[index])
        if isinstance(expected, str):
            assert str(two.refusals[index]) == expected
            assert np.isnan(two.zeta[index]) and not two.separable[index]
            kinds.add(expected.split()[0])
        else:
            assert index not in two.refusals
            got = tuple(column[index].item() for column in columns)
            assert repr(got) == repr(expected)
            kinds.add((expected[4], expected[5]))
    # every branch is drawn: both refusals, entangled and separable, both signs
    assert kinds >= {"asymmetric", "uncertainty", (True, True), (True, False), (False, False)}


# fig3's nearest-neighbour pair (reach 1) and two-site's three pair classes (reach 2)
PAIR_OFFSETS = {1: [(1, 0)], 2: [(1, 0), (1, 1), (2, 0)]}


# g from 1 to 2.3 crosses g_c (1.7403 on the infinite lattice, higher on finite
# ones), in any order; open lattices of even side refuse off-centre pairs on their own
@pytest.mark.one_thread
@settings(max_examples=30, deadline=None)
@given(spec=st.one_of(st.integers(4, 15).map(LatticeSpec.periodic),
                      st.just(LatticeSpec.infinite_lattice()),
                      st.integers(5, 14).map(LatticeSpec.open_boundary)),
       gs=st.lists(st.floats(1.0, 2.3), min_size=1, max_size=5),
       reach=st.sampled_from([1, 2]), block_points=st.sampled_from([4096, 100]))
# a refused coupling between two stable ones, as the two-site demo might sweep
@example(spec=LatticeSpec.infinite_lattice(), gs=[1.25, 1.75, 1.5], reach=2, block_points=4096)
# wholly refused sweeps: one block, and blocks of one coupling
@example(spec=LatticeSpec.infinite_lattice(), gs=[2.0, 2.3], reach=1, block_points=4096)
@example(spec=LatticeSpec.open_boundary(9), gs=[2.0, 2.2, 2.3], reach=2, block_points=100)
@example(spec=LatticeSpec.periodic(15), gs=[2.3, 2.0], reach=1, block_points=100)
def test_two_site_sweep_matches_each_coupling_alone(spec, gs, reach, block_points):
    params = params_at(0.0)
    x, y = spec.center
    pairs = [[(x, y), (x + dx, y + dy)] for dx, dy in PAIR_OFFSETS[reach]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundstate, "FINITE_BLOCK_POINTS", block_points)
        mp.setattr(groundstate, "LEVEL_BLOCK_POINTS", block_points)
        two = two_site_sweep(params, gs, gs, spec, pairs)
    assert two.zeta.shape == two.separable.shape == (len(gs), len(pairs))
    want_refusals = {}
    for i, g in enumerate(gs):
        try:
            # alone at the sweep's per-axis reach: the pairs' largest |dx| and |dy|
            cov = covariances_for(replace(params, g1=g, g2=g), spec,
                                  np.max(np.abs(PAIR_OFFSETS[reach]), axis=0).tolist())
        except StabilityError as exc:
            want_refusals.update({(i, k): str(exc) for k in range(len(pairs))})
            assert np.isnan(two.zeta[i]).all() and not two.separable[i].any()
            continue
        for k, pair in enumerate(pairs):
            want = two_site_params(*cov.block(pair))
            want_refusals.update({(i, k): str(exc) for exc in want.refusals.values()})
            # repr tells every float apart, 0.0 from -0.0 and NaN included
            assert repr(two.zeta[i, k].item()) == repr(want.zeta.item())
            assert (two.separable[i, k], two.sign_anomaly[i, k]) == \
                (want.separable, want.sign_anomaly)
    assert {key: str(exc) for key, exc in two.refusals.items()} == want_refusals


@pytest.mark.parametrize("spec", [LatticeSpec.periodic(M) for M in range(4, 42)]
                         + [LatticeSpec.open_boundary(9), LatticeSpec.infinite_lattice()],
                         ids=lambda spec: f"{spec.engine}-{spec.side}")
def test_two_site_decoupled_boundary(spec):
    # the decoupled lattice is a product state: no pair may read as entangled,
    # and c is written as 0.0, never -0.0
    cov = covariances_for(params_at(0.0), spec, 2)
    x, y = spec.center
    for dx, dy in ((1, 0), (1, 1), (2, 0)):
        two = pair_params(cov, (x, y), (x + dx, y + dy))
        assert two.n == 1.0 and repr(float(two.c)) == "0.0" and two.zeta == 1.0
        assert two.separable and two.eof == 0.0


def test_two_site_refuses_uncertainty_violation():
    # on-site moments with <q^2><p^2> = (1 - 1e-6) / 4, below the slack
    table = CorrelationTable(qq=np.diag([0.5, 0.0]), pp=np.diag([0.5 * (1.0 - 1e-6), 0.0]),
                             spec=LatticeSpec.periodic(3))
    with pytest.raises(ValueError, match="uncertainty violation"):
        pair_params(table, (0, 0), (1, 1))


def test_two_site_identical_sites_rejected(paper_params):
    table = covariance_pbc_fft(LatticeSpec.periodic(8), paper_params)
    with pytest.raises(ValueError, match="twice"):
        pair_params(table, (1, 1), (1, 1))
    # (4, 0) wraps onto (0, 0) on a 4 x 4 torus: one site, not a pair
    small = covariance_pbc_fft(LatticeSpec.periodic(4), paper_params)
    with pytest.raises(ValueError, match="twice"):
        pair_params(small, (0, 0), (4, 0))
    dense = covariance_dense(LatticeSpec.periodic(4), paper_params)
    with pytest.raises(ValueError, match="twice"):
        pair_params(dense, (0, 0), (4, 0))


def test_zeta1_decreasing_below_minimum():
    # monotone decrease holds up to the interior minimum near g = 1.715
    zetas = []
    for g in (1.25, 1.4, 1.5, 1.6, 1.7):
        table = covariance_infinite(params_at(g), 1)
        zetas.append(pair_params(table, (0, 0), (1, 0)).zeta)
    assert np.all(np.diff(zetas) < 0)


def test_zeta1_reference_value(paper_params):
    # frozen cross-engine value at g = 1.5 (dense, fft and quadrature agree)
    table = covariance_infinite(paper_params, 1)
    z = pair_params(table, (0, 0), (1, 0)).zeta
    assert z == pytest.approx(0.877856520756, abs=1e-9)


def test_separability_of_longer_pairs(paper_params):
    table = covariance_infinite(paper_params, 2)
    nn = pair_params(table, (0, 0), (1, 0))
    diag = pair_params(table, (0, 0), (1, 1))
    far = pair_params(table, (0, 0), (2, 0))
    assert not nn.separable
    assert diag.separable and diag.zeta >= 1.0
    assert far.separable and far.zeta >= 1.0
    assert nn.zeta < min(diag.zeta, far.zeta)
    # the diagonal pair's correlations share a sign at these parameters
    assert diag.sign_anomaly and diag.c == 0.0


def test_two_site_asymmetric_open_pair_rejected():
    cov = covariance_dense(LatticeSpec.open_boundary(6), params_at(1.2))
    with pytest.raises(AsymmetricPairError, match="edges break the pair.s mirror symmetry"):
        pair_params(cov, (0, 0), (1, 0))
    assert issubclass(AsymmetricPairError, ValueError)


def test_zeta1_finite_to_infinite_convergence(paper_params):
    # at g = 1.5 finite-size corrections are below machine precision by M = 20
    ref = pair_params(covariance_infinite(paper_params, 1), (0, 0), (1, 0)).zeta
    for M in (20, 40, 80):
        table = covariance_pbc_fft(LatticeSpec.periodic(M), paper_params)
        assert abs(pair_params(table, (0, 0), (1, 0)).zeta - ref) < 1e-9
    # closer to criticality the convergence trend is visible
    p = params_at(1.72)
    ref = pair_params(covariance_infinite(p, 1), (0, 0), (1, 0)).zeta
    diffs = [abs(pair_params(covariance_pbc_fft(LatticeSpec.periodic(M), p),
                             (0, 0), (1, 0)).zeta - ref)
             for M in (10, 20, 40)]
    assert diffs[0] > diffs[1] > diffs[2]


def test_eof_reference_and_oracle():
    assert eof_symmetric(1.0) == 0.0
    assert eof_symmetric(2.5) == 0.0
    # zeta = 1/4 equals squeezing r = ln 2; value frozen from the Fock-series
    # entropy of the two-mode squeezed state (pure-state EoF)
    frozen = 1.4729424832117068
    assert eof_symmetric(0.25) == pytest.approx(frozen, abs=1e-12)
    assert eof_fock_series(np.log(2.0)) == pytest.approx(frozen, abs=1e-12)
    for r in (0.05, 0.2, 0.8, 1.5):
        assert eof_symmetric(float(np.exp(-2 * r))) == pytest.approx(
            eof_fock_series(r), abs=1e-10)


def test_eof_monotone_and_domain():
    zs = np.linspace(0.02, 0.999, 60)
    vals = [eof_symmetric(float(z)) for z in zs]
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        eof_symmetric(0.0)
    with pytest.raises(ValueError):
        eof_symmetric(-0.3)


def test_block_region_centered():
    region = BlockRegion.centered(3, 8)
    assert (region.x0, region.y0) == (2, 2)
    assert len(region.sites()) == 9
    with pytest.raises(ValueError):
        BlockRegion(0, 0, 0)


@st.composite
def periodic_case(draw, max_side=9):
    """Stable couplings, a side 3..max_side and distinct sites, some outside [0, M)."""
    p = params_at(draw(st.floats(0.0, 2.0)), g2=draw(st.floats(0.0, 2.0)))
    assume(zone_minimum(p)[0] > 1e-3 * p.on_site)
    M = draw(st.integers(3, max_side))
    cells = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
                          min_size=1, max_size=M * M, unique=True))
    wraps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=len(cells), max_size=len(cells)))
    sites = [(x + M * wx, y + M * wy) for (x, y), (wx, wy) in zip(cells, wraps)]
    return p, M, sites


@settings(max_examples=40, deadline=None)
@given(periodic_case())
def test_table_blocks_match_dense_submatrices(case):
    p, M, sites = case
    spec = LatticeSpec.periodic(M)
    QL, PL = covariance_pbc_fft(spec, p).block(sites)
    cov = covariance_dense(spec, p)
    idx = [spec.site_index(x, y) for x, y in sites]
    assert np.max(np.abs(QL - cov.Q[np.ix_(idx, idx)])) <= 1e-10
    assert np.max(np.abs(PL - cov.P[np.ix_(idx, idx)])) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(extent=st.integers(1, 5), period=st.none() | st.integers(3, 10),
       seed=st.integers(0, 2 ** 32 - 1),
       sites=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                      min_size=1, max_size=12, unique=True))
def test_quadrant_table_blocks_match_lookups(extent, period, seed, sites):
    # an infinite table (period None) reads (|dx|, |dy|) within its extent; a
    # periodic one folds each component to min(d mod M, M - d mod M) <= M // 2
    # and refuses two sites that wrap onto one
    spec = LatticeSpec.periodic(period) if period else LatticeSpec.infinite_lattice()
    if period:
        extent = period // 2 + 1
    rng = np.random.default_rng(seed)
    table = CorrelationTable(qq=rng.standard_normal((extent, extent)),
                             pp=rng.standard_normal((extent, extent)), spec=spec)

    def fold(d):
        return min(d % period, -d % period) if period else abs(d)

    reach = max(max(fold(xa - xb), fold(ya - yb)) for xa, ya in sites for xb, yb in sites)
    if reach >= extent:
        with pytest.raises(ValueError, match="not in table"):
            table.block(sites)
        return
    if period and len({(x % period, y % period) for x, y in sites}) < len(sites):
        with pytest.raises(ValueError, match="twice"):
            table.block(sites)
        return
    QL, PL = table.block(sites)
    for a, (xa, ya) in enumerate(sites):
        for b, (xb, yb) in enumerate(sites):
            dx, dy = fold(xa - xb), fold(ya - yb)
            index = table.displacement_index(xa - xb, ya - yb)
            assert QL[a, b] == table.qq[index] == table.qq[dx, dy]
            assert PL[a, b] == table.pp[index] == table.pp[dx, dy]


@settings(max_examples=30, deadline=None)
@given(periodic_case(max_side=6))
def test_whole_lattice_block_is_pure(case):
    p, M, _ = case
    table = covariance_pbc_fft(LatticeSpec.periodic(M), p)
    nu = symplectic_spectrum(*table.block([(x, y) for y in range(M) for x in range(M)]))
    assert np.max(np.abs(nu.values - 1.0)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(periodic_case(max_side=6))
def test_block_and_complement_share_entropy(case):
    p, M, sites = case
    inside = {(x % M, y % M) for x, y in sites}
    rest = [(x, y) for y in range(M) for x in range(M) if (x, y) not in inside]
    assume(rest)
    table = covariance_pbc_fft(LatticeSpec.periodic(M), p)
    e_in = block_entropy(symplectic_spectrum(*table.block(sites)), "count_all")
    e_out = block_entropy(symplectic_spectrum(*table.block(rest)), "count_all")
    assert e_in == pytest.approx(e_out, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(periodic_case(max_side=6), st.integers(0, 99), st.integers(-2, 2), st.integers(-2, 2))
def test_block_refuses_a_site_named_twice(case, pick, wx, wy):
    p, M, sites = case
    x, y = sites[pick % len(sites)]
    named_twice = sites + [(x + M * wx, y + M * wy)]
    spec = LatticeSpec.periodic(M)
    for cov in (covariance_pbc_fft(spec, p), covariance_dense(spec, p)):
        with pytest.raises(ValueError, match="twice"):
            cov.block(named_twice)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 3.0, exclude_min=True))
def test_eof_closed_form_matches_fock_series(r):
    assert eof_symmetric(float(np.exp(-2 * r))) == pytest.approx(eof_fock_series(r), abs=1e-10)


@st.composite
def sector_case(draw):
    """Couplings with g1 != g2, with g2 = 0 or within 1e-3 to 1e-7 (relative)
    of the phase boundary; a periodic, infinite or open lattice; and a square
    block on it: anywhere on a periodic lattice, the centred one of side L on
    an open M x M lattice, M - L even or odd, L = 1 included.

    Closer to the boundary, a lattice whose grid holds the critical mode puts
    nu_max near 10^2 and both routes' roundoff, about eps nu_max^2, above
    1e-12 (6e-12 at 1e-9 from the boundary, M = 4)."""
    couplings = draw(st.sampled_from(["g1 != g2", "g2 = 0", "near g_c"]))
    g1 = draw(st.floats(0.0, 2.0))
    if couplings == "near g_c":
        g2 = critical_g2(params_at(g1), g1).g2_closed_form * (1.0 - draw(st.sampled_from(
            [1e-3, 1e-5, 1e-7])))
    else:
        g2 = 0.0 if couplings == "g2 = 0" else draw(st.floats(0.0, 2.0))
        assume(g1 != g2)
        assume(zone_minimum(params_at(g1, g2=g2))[0] > 1e-3 * params_at(0.0).on_site)
    kind = draw(st.sampled_from(["periodic", "infinite", "open"]))
    M = draw(st.integers(3 if kind == "periodic" else 2, 10))
    L = draw(st.integers(1, M))
    if kind == "periodic":
        spec = LatticeSpec.periodic(M)
        region = BlockRegion(draw(st.integers(0, M - 1)), draw(st.integers(0, M - 1)), L)
    elif kind == "infinite":
        spec, region = LatticeSpec.infinite_lattice(), BlockRegion(0, 0, L)
    else:
        spec, region = LatticeSpec.open_boundary(M), BlockRegion.centered(L, M)
    return params_at(g1, g2=g2), spec, region


@pytest.mark.one_thread
@settings(max_examples=80, deadline=None)
@given(sector_case())
def test_sectors_match_the_four_image_route(case):
    # one axis at a time, the same additions in the same order as the four images'
    # signed sums on periodic and infinite tables; an open table's mirror terms
    # are summed in another order
    p, spec, region = case
    L = region.side_length
    cov = covariances_for(p, spec, L - 1)
    wants = four_image_sectors(*cov.block(region.sites()), L)
    for want, got in zip(wants, cov.sectors(region.x0, region.y0, L)):
        assert got.shape == want.shape
        if spec.boundary == "open":
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)


@pytest.mark.one_thread
@settings(max_examples=80, deadline=None)
@given(sector_case())
def test_sector_spectra_match_whole_block(case):
    p, spec, region = case
    cov = covariances_for(p, spec, region.side_length - 1)
    whole = symplectic_spectrum(*cov.block(region.sites())).values
    split = block_spectrum(cov, region).values
    assert split.shape == whole.shape
    assert np.all(np.abs(split - whole) <= 1e-12 * whole)


@st.composite
def diagonal_case(draw):
    """Equal couplings g1 = g2 = g, from 0 up to g_c (1 - 1e-11), and a block that
    splits into parity sectors, side L even or odd: anywhere on a periodic lattice,
    at the origin of the infinite one, or centred on an open M x M lattice with
    M - L even.  Returns the coupling's distance to g_c (relative) too."""
    g_c = critical_g_equal(params_at(0.0))
    offset = draw(st.sampled_from([None, 1e-3, 1e-7, 1e-9, 1e-11]))
    g = draw(st.floats(0.0, 1.7)) if offset is None else g_c * (1.0 - offset)
    kind = draw(st.sampled_from(["periodic", "infinite", "open"]))
    M = draw(st.integers(3 if kind == "periodic" else 2, 12))
    L = draw(st.integers(1, M))
    if kind == "periodic":
        spec = LatticeSpec.periodic(M)
        region = BlockRegion(draw(st.integers(0, M - 1)), draw(st.integers(0, M - 1)), L)
    elif kind == "infinite":
        spec, region = LatticeSpec.infinite_lattice(), BlockRegion(0, 0, L)
    else:
        L -= (M - L) % 2
        assume(L >= 1)
        spec, region = LatticeSpec.open_boundary(M), BlockRegion.centered(L, M)
    return params_at(g), spec, region, offset


@pytest.mark.one_thread
@settings(max_examples=120, deadline=None)
@given(diagonal_case())
@example((params_at(critical_g_equal(params_at(0.0)) * (1.0 - 1e-11)), LatticeSpec.periodic(6),
          BlockRegion(0, 0, 4), 1e-11))
@example((params_at(1.5), LatticeSpec.infinite_lattice(), BlockRegion(0, 0, 7), None))
@example((params_at(1.5), LatticeSpec.open_boundary(9), BlockRegion.centered(5, 9), None))
@example((params_at(1.5), LatticeSpec.periodic(5), BlockRegion(2, 1, 1), None))
def test_three_sectors_match_all_four_per_nu(case):
    # on g1 = g2 the block commutes with x <-> y too, so (-, +) is the mirror of
    # (+, -) and shares its spectrum: counting (+, -) twice matches solving all four
    # sectors per nu to 1e-12, and to the sector route's own 2e-12 within 1e-9 of g_c
    # (a lattice whose grid holds the critical mode puts nu_max near 2e2 there)
    p, spec, region, offset = case
    cov = covariances_for(p, spec, region.side_length - 1)
    # the three sectors gathered are bit for bit those of the four-sector gather
    corner = (region.x0, region.y0, region.side_length)
    for three, four in zip(cov.sectors(*corner, diagonal=True), cov.sectors(*corner)):
        assert np.array_equal(three, four[[0, 1, 3]])
    four = block_spectrum(cov, region).values
    three = block_spectrum(cov, region, diagonal=True).values
    assert three.shape == four.shape
    tol = 2e-12 if offset is not None and offset <= 1e-9 else 1e-12
    assert np.all(np.abs(three - four) <= tol * four)


@pytest.fixture
def spectrum_calls(monkeypatch):
    """The shapes of the blocks ``block_spectrum`` hands to ``symplectic_spectrum``."""
    calls = []

    def counted(Q, P, counts=1):
        calls.append(Q.shape)
        return symplectic_spectrum(Q, P, counts)

    monkeypatch.setattr(entanglement, "symplectic_spectrum", counted)
    return calls


@pytest.mark.parametrize("M, L", [(2, 1), (7, 2), (8, 3), (9, 4), (30, 5), (31, 20)])
def test_open_block_off_the_mirror_axis_is_never_split(spectrum_calls, M, L):
    # with M - L odd the centred block sits half a site off the lattice's
    # mirror axes, so it goes through whole: one spectrum, bit for bit
    spec, region = LatticeSpec.open_boundary(M), BlockRegion.centered(L, M)
    cov = covariances_for(params_at(1.4, g2=0.9), spec)
    whole = symplectic_spectrum(*cov.block(region.sites())).values
    assert np.array_equal(block_spectrum(cov, region).values, whole)
    assert spectrum_calls == [(L * L, L * L)]
    # one site more, M - L is even and the block splits
    spectrum_calls.clear()
    block_spectrum(cov, BlockRegion.centered(L + 1, M))
    # four sectors: stacked in one call for an even side, one call each for an odd one
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in spectrum_calls) == 4


@pytest.mark.one_thread
@pytest.mark.parametrize("spec, L", [(LatticeSpec.infinite_lattice(), 6),
                                     (LatticeSpec.infinite_lattice(), 5),
                                     (LatticeSpec.open_boundary(9), 3),
                                     (LatticeSpec.periodic(8), 4)])
def test_equal_couplings_solve_three_sectors_and_others_four(spectrum_calls, monkeypatch,
                                                             spec, L):
    # a sweep decides per coupling: g1 == g2 solves (+, +), (+, -) and (-, -), an
    # even side in one stacked call; g1 != g2, by one ulp too, solves all four and
    # gets exactly block_spectrum's default, four-sector spectrum
    region = BlockRegion.centered(L, spec.side or L)
    g1 = [1.5, 1.4, 1.5]
    g2 = [1.5, 0.9, float(np.nextafter(1.5, 2.0))]
    seen = []

    def spy(cov, region, diagonal=False):
        seen.append(diagonal)
        return block_spectrum(cov, region, diagonal)

    monkeypatch.setattr(entanglement, "block_spectrum", spy)
    curves = entanglement.entropy_sweep(params_at(0.0), g1, g2, spec, [L])
    assert seen == [True, False, False]
    h = (L + 1) // 2
    if L % 2 == 0:
        assert spectrum_calls == [(3, h * h, h * h)] + [(4, h * h, h * h)] * 2
    else:
        sizes = [h * h, h * (h - 1), h * (h - 1), (h - 1) ** 2]
        assert spectrum_calls == [(n, n) for n in sizes[:2] + sizes[3:]] + [
            (n, n) for n in sizes] * 2
    for curve, a, b in zip(curves[1:], g1[1:], g2[1:]):
        cov = covariances_for(params_at(a, g2=b), spec, L - 1)
        assert curve == [(L, block_entropy(block_spectrum(cov, region)))]


def test_large_infinite_block_spectrum():
    # n = 3600 sites: four sectors of about 900 sites take about 1 s on a
    # 2-vCPU VM, the whole block about 7.5 s; the frozen entropies are the
    # whole-block route's, which the sectors match to 5e-14
    spec, region = LatticeSpec.infinite_lattice(), BlockRegion(0, 0, 60)
    for _ in range(2):  # a second try absorbs one slow moment of a shared machine
        start = time.perf_counter()
        spectrum = block_spectrum(covariances_for(params_at(1.5), spec, 59), region)
        elapsed = time.perf_counter() - start
        if elapsed < 2.0:
            break
    assert elapsed < 2.0
    assert spectrum.values.size == 3600 and spectrum.values[-1] >= 1.0
    assert block_entropy(spectrum, "count_all") == pytest.approx(18.45200678884957, rel=1e-12)
    assert block_entropy(spectrum) == pytest.approx(13.570072317526348, rel=1e-12)
