import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinwave import (CouplingParams, LatticeSpec, StabilityError, build_potential, critical_g2,
                      critical_g2_numeric, critical_g_equal, dispersion_value,
                      energy_gap, gap_scaling_exponent, phase_boundary_cases, zone_minimum)
from spinwave import groundstate, spectrum
from spinwave.scan import DEFAULT_STEP, stencil
from spinwave.spectrum import dispersion_grid

from conftest import decimal_zone_branch, params_at

SQRT2 = np.sqrt(2.0)
ON_SITE = 2.25e6  # omega (omega + 4 kappa N) at the reference parameters


@settings(max_examples=200, deadline=None)
@given(M=st.integers(2, 400), boundary=st.sampled_from(["periodic", "open"]))
def test_mode_grid_is_bitwise_the_dft_and_dst_modes(M, boundary):
    # the two k expressions as they stood before LatticeSpec.period held the
    # geometry: the DFT modes folded onto the quadrant, and the DST-I modes
    assume(boundary == "open" or M >= 3)
    spec = LatticeSpec(M, boundary)
    if boundary == "periodic":
        want, period = 2.0 * np.pi * np.arange(M // 2 + 1) / M, M
    else:
        want, period = np.pi * np.arange(1, M + 1) / (M + 1), 2 * (M + 1)
    assert spec.period == period and LatticeSpec.infinite_lattice().period is None
    # the symbol's arguments are the grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "dispersion_value", lambda params, kx, ky, g1, g2, *_: (kx, ky))
        kx, ky = dispersion_grid(params_at(1.0), spec)
    assert kx.shape == (want.size, 1) and ky.shape == (1, want.size)
    assert kx.tobytes() == ky.tobytes() == want.tobytes()


def test_dispersion_decoupled_flat():
    rng = np.random.default_rng(0)
    p = params_at(0.0)
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(20, 2)):
        assert dispersion_value(p, kx, ky) == pytest.approx(ON_SITE, rel=1e-15)


def test_dispersion_vanishes_at_critical_corner():
    gc = critical_g_equal(params_at(0.0))
    v = dispersion_value(params_at(gc), np.pi, np.pi)
    assert abs(v) < 1e-6 * ON_SITE


def test_dispersion_gap_identity_value():
    # v(pi,pi) at g = 1.5 equals omega N (4 - sqrt2)(g_c - g) = 7.5e5 (sqrt2 - 1)
    v = dispersion_value(params_at(1.5), np.pi, np.pi)
    assert v == pytest.approx(7.5e5 * (SQRT2 - 1.0), rel=1e-12)


def test_dispersion_inversion_symmetry():
    rng = np.random.default_rng(1)
    p = params_at(1.1, g2=0.7)
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(20, 2)):
        assert dispersion_value(p, kx, ky) == pytest.approx(
            float(dispersion_value(p, -kx, -ky)), rel=1e-14)


@pytest.mark.parametrize("g1, g2", [(1.5, 1.5), (1.0, 0.0), (0.4, 1.3), (1.7, 0.9)])
def test_open_energy_gap_is_the_smallest_eigenvalue_of_v(g1, g2):
    # the DST-I grid's minimum of v against the dense eigenvalues of V
    p = params_at(g1, g2=g2)
    for M in range(2, 13):
        spec = LatticeSpec.open_boundary(M)
        want = np.sqrt(np.linalg.eigvalsh(build_potential(spec, p))[0])
        assert energy_gap(p, spec) == pytest.approx(want, rel=1e-12, abs=0)


def test_energy_gap_decoupled():
    assert energy_gap(params_at(0.0), LatticeSpec.infinite_lattice()) == pytest.approx(1500.0)
    assert energy_gap(params_at(0.0), LatticeSpec.periodic(7)) == pytest.approx(1500.0)


def test_gap_squared_linear_in_g():
    gc = critical_g_equal(params_at(0.0))
    pref = 500.0 * 1000 * (4.0 - SQRT2)
    for g in np.linspace(0.1, 0.999 * gc, 15):
        gap = energy_gap(params_at(g), LatticeSpec.infinite_lattice())
        assert gap ** 2 == pytest.approx(pref * (gc - g), rel=1e-8)


def test_gap_monotone_decreasing():
    gc = critical_g_equal(params_at(0.0))
    gaps = [energy_gap(params_at(g), LatticeSpec.infinite_lattice())
            for g in np.linspace(0.0, 0.99 * gc, 25)]
    assert np.all(np.diff(gaps) < 0)


def test_finite_gap_above_infinite_and_converging():
    # odd grids miss (pi, pi), so the finite gap sits above the infinite one
    p = params_at(1.5)
    inf_gap = energy_gap(p, LatticeSpec.infinite_lattice())
    diffs = []
    for M in (11, 21, 41):
        fin = energy_gap(p, LatticeSpec.periodic(M))
        assert fin >= inf_gap
        diffs.append(fin - inf_gap)
    assert diffs[0] > diffs[1] > diffs[2]


def test_gap_beyond_critical_raises():
    gc = critical_g_equal(params_at(0.0))
    with pytest.raises(StabilityError, match="critical"):
        energy_gap(params_at(1.05 * gc), LatticeSpec.infinite_lattice())


def test_critical_g_equal_reference_values():
    assert round(critical_g_equal(params_at(0.0)), 5) == 1.74028
    # omega -> 0 limit tends to 4 kappa / (4 - sqrt2) = 4 (4 + sqrt2) / 14
    tiny = params_at(0.0, omega=1e-8)
    assert critical_g_equal(tiny) == pytest.approx(4.0 * (4.0 + SQRT2) / 14.0, abs=1e-9)
    big_n = params_at(0.0, n_atoms=10 ** 9)
    assert critical_g_equal(big_n) == pytest.approx(4.0 / (4.0 - SQRT2), rel=1e-6)


def test_phase_boundary_case_formulas():
    p = params_at(0.0)
    below, degenerate, above = phase_boundary_cases(p, 0.0)
    # arithmetic of the three closed forms at g1 = 0
    assert below == pytest.approx(4.5 / (2.0 - SQRT2), rel=1e-14)
    assert below == pytest.approx(7.68198, abs=1e-5)
    assert degenerate == pytest.approx(2.25, rel=1e-14)
    assert above == pytest.approx(4.5 / (2.0 + SQRT2), rel=1e-14)


def test_phase_boundary_continuity_at_switch():
    # at g1 = 2.25 / sqrt2 the adjacent case formulas meet the middle one
    p = params_at(0.0)
    g1_star = 2.25 / SQRT2
    below, degenerate, above = phase_boundary_cases(p, g1_star)
    assert below == pytest.approx(2.25, abs=1e-9)
    assert above == pytest.approx(2.25, abs=1e-9)
    assert degenerate == pytest.approx(2.25, rel=1e-14)


def test_critical_g2_selects_consistent_case():
    p = params_at(0.0)
    point = critical_g2(p, 0.0)
    # only vertical + diagonal coupling: the minimum sits at (0, pi) and the
    # "above" closed form is the self-consistent one
    assert point.branch == "above"
    assert point.g2_closed_form == pytest.approx(4.5 / (2.0 + SQRT2), rel=1e-14)
    assert abs(point.g2_closed_form - point.g2_numeric) < 1e-6
    assert critical_g2(p, 2.5).branch == "below"


def test_critical_g2_degenerate_branch_where_the_cases_meet():
    # at g1 = (4 kappa + omega/N) / (2 sqrt 2) all three closed forms give sqrt(2) g1,
    # so neither the "below" nor the "above" form is strictly self-consistent
    p = params_at(0.0)
    g1 = (4.0 * p.kappa + p.omega / p.n_atoms) / (2.0 * SQRT2)
    target = SQRT2 * g1
    assert all(abs(case - target) <= 4 * np.spacing(target)
               for case in phase_boundary_cases(p, g1))
    point = critical_g2(p, g1)
    assert point.branch == "degenerate"
    assert point.g2_closed_form == phase_boundary_cases(p, g1)[1]
    assert abs(point.g2_numeric - target) <= spectrum.BISECTION_TOL * p.kappa


def test_closed_form_matches_bisection_on_grid():
    p = params_at(0.0)
    for g1 in [*np.linspace(0.0, 3.0, 7), 100.0]:
        point = critical_g2(p, float(g1))
        assert abs(point.g2_closed_form - point.g2_numeric) < 1e-6
    # omega / N = 50 puts the g1 = 0 root near 15.8 kappa
    wide = params_at(0.0, omega=500.0, n_atoms=10)
    for g1 in (0.0, 3.0, 100.0):
        point = critical_g2(wide, g1)
        assert abs(point.g2_closed_form - point.g2_numeric) < 1e-6


@pytest.mark.parametrize("g1", [1e6, 1e150, 1e300])
def test_bisection_returns_where_float_spacing_exceeds_tolerance(g1):
    # near |g2| ~ 3.4 g1 adjacent floats lie further apart than BISECTION_TOL
    # kappa (4.7e-10 at g1 = 1e6), so the bisection ends on adjacent floats
    point = critical_g2(params_at(0.0), g1)
    assert point.branch == "below"
    rel = abs(point.g2_numeric - point.g2_closed_form) / abs(point.g2_closed_form)
    assert rel <= 4 * np.finfo(float).eps


def test_boundary_continues_negative_beyond_horizontal_critical():
    # g1 alone closes the gap at g1 = 2.25; past that the boundary lies at
    # negative g2 and both routes must still agree on it
    p = params_at(0.0)
    point = critical_g2(p, 2.5)
    assert point.g2_closed_form == pytest.approx((4.0 - 5.0 + 0.5) / (2.0 - SQRT2), rel=1e-12)
    assert point.g2_closed_form < 0
    assert abs(point.g2_closed_form - point.g2_numeric) < 1e-6


def test_bisection_root_is_marginal():
    p = params_at(0.0)
    root = critical_g2_numeric(p, 1.0)
    just_below = params_at(1.0, g2=root - 1e-6)
    just_above = params_at(1.0, g2=root + 1e-6)
    assert zone_minimum(just_below)[0] > 0
    assert zone_minimum(just_above)[0] < 0


def test_zone_minimum_on_corner_set():
    rng = np.random.default_rng(7)
    k = np.linspace(-np.pi, np.pi, 81)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    for _ in range(25):
        p = params_at(float(rng.uniform(0, 3)), g2=float(rng.uniform(0, 3)))
        vmin, kmin = zone_minimum(p)
        grid_min = float(np.min(dispersion_value(p, KX, KY)))
        assert vmin <= grid_min + 1e-9 * abs(grid_min) + 1e-9


@pytest.mark.parametrize("g1", [None, 0.3], ids=["pi_pi", "zero_pi"])
def test_zone_minimum_and_gap_match_mpmath_at_criticality(g1):
    # 1e-11 below the boundary on both branches: the equal line closes at
    # (pi, pi), g1 = 0.3 with g2 on the "above" branch at (0, pi).  The zone
    # minimum and the gap hold 1e-14 relative against v from its definition at
    # 40 digits, though the corner value is 1e-11 of the on-site term
    mpmath = pytest.importorskip("mpmath")
    if g1 is None:
        g1 = g2 = critical_g_equal(params_at(0.0)) * (1.0 - 1e-11)
        corner = (np.pi, np.pi)
    else:
        g2 = critical_g2(params_at(0.0), g1).g2_closed_form * (1.0 - 1e-11)
        corner = (0.0, np.pi)
    p = params_at(g1, g2=g2)
    with mpmath.workdps(40):
        w, n, a, b = (mpmath.mpf(t) for t in (500.0, 1000, g1, g2))

        def v(x, y):
            return w * (w + 4 * n) + 2 * n * w * (
                a * mpmath.cos(x) + b * mpmath.cos(y)
                + mpmath.mpf(2) ** -1.5 * b * (mpmath.cos(x + y) + mpmath.cos(x - y)))

        pi = mpmath.pi
        exact = {(np.pi, np.pi): v(pi, pi), (0.0, np.pi): v(0, pi), (np.pi, 0.0): v(pi, 0)}
        best = min(exact, key=exact.get)
        vmin, gap = float(exact[best]), float(mpmath.sqrt(exact[best]))
    assert best == corner
    assert 0 < vmin < 2e-11 * p.on_site
    got, where = zone_minimum(p)
    assert where == corner
    assert got == pytest.approx(vmin, rel=1e-14)
    assert energy_gap(p, LatticeSpec.infinite_lattice()) == pytest.approx(gap, rel=1e-14)


def test_gap_scaling_asymptotic_window():
    gc = critical_g_equal(params_at(0.0))
    fit = gap_scaling_exponent(params_at(0.0), (0.9 * gc, 0.999 * gc), 20)
    assert fit.exponent == pytest.approx(0.5, abs=0.005)
    assert fit.prefactor == pytest.approx(np.sqrt(500.0 * 1000 * (4.0 - SQRT2)), rel=1e-3)


def test_gap_scaling_wide_window_still_half():
    # the squared gap is exactly linear in (g_c - g) on the equal-coupling
    # line, so the fitted exponent is 1/2 on any window below g_c
    gc = critical_g_equal(params_at(0.0))
    fit = gap_scaling_exponent(params_at(0.0), (0.1 * gc, 0.5 * gc), 12)
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)


def test_gap_scaling_window_validation():
    gc = critical_g_equal(params_at(0.0))
    with pytest.raises(ValueError, match="critical"):
        gap_scaling_exponent(params_at(0.0), (0.9 * gc, 1.01 * gc), 5)
    with pytest.raises(ValueError, match="2 samples"):
        gap_scaling_exponent(params_at(0.0), (0.5 * gc, 0.9 * gc), 1)


@st.composite
def zone_branch_cases(draw):
    """(params, g1, g2): constants over seven decades, with strengths anywhere
    below 2 g_c, planted near g_c on either corner's branch (1e-2 down to 1e-16
    below), exactly at the float g_c and its neighbours, on the branch switch
    g1 = g2 / sqrt 2, and at zero."""
    p = CouplingParams(omega=10.0 ** draw(st.floats(-3.0, 4.0)), n_atoms=draw(st.integers(1, 10 ** 6)),
                       kappa=10.0 ** draw(st.floats(-2.0, 2.0)), g1=0.0, g2=0.0)
    gc = critical_g_equal(p)
    fraction = st.floats(0.0, 1.0)
    below = st.floats(2.0, 16.0).map(lambda u: 1.0 - 10.0 ** -u)
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["any", "equal", "other", "critical", "switch", "zero"]),
                              min_size=1, max_size=12)):
        if kind == "any":
            pairs.append((2.0 * gc * draw(fraction), 2.0 * gc * draw(fraction)))
        elif kind == "equal":
            pairs.append((gc * draw(below),) * 2)
        elif kind == "other":  # the (0, pi) corner closes first
            g1 = 0.5 * gc * draw(fraction)
            pairs.append((g1, critical_g2(p, g1).g2_closed_form * draw(below)))
        elif kind == "critical":
            g = gc
            for _ in range(draw(st.integers(-2, 2))):
                g = np.nextafter(g, np.inf)
            pairs.append((g, g))
        elif kind == "switch":
            g2 = 2.0 * gc * draw(fraction)
            pairs.append((g2 * 2.0 ** -0.5, g2))
        else:
            pairs.append((0.0, 0.0))
    g1, g2 = np.array(pairs).T
    return p, g1, g2


@pytest.mark.one_thread
@settings(max_examples=300, deadline=None)
@given(zone_branch_cases())
# Delta exactly 0 on the g2 = 0 axis: omega (omega + 4 kappa N) = 2 N omega g1
@example((CouplingParams(omega=2.0, n_atoms=1, kappa=1.0, g1=0.0, g2=0.0),
          np.array([3.0, 0.0, 1.5]), np.array([0.0, 0.0, 0.0])))
# fig3's stencil point at g_c itself: Delta / on_site = 2.3e-17
@example((params_at(0.0), np.array([critical_g_equal(params_at(0.0))] * 2),
          np.array([critical_g_equal(params_at(0.0)), 1.0])))
def test_zone_branch_matches_the_decimal_route_bit_for_bit(case):
    # each row is the correctly rounded value, certified in double-double or
    # recomputed in decimal, so every bit (zero signs included) is the 40-digit route's
    p, g1, g2 = case
    got, want = spectrum.zone_branch(p, g1, g2), decimal_zone_branch(p, g1, g2)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_zone_branch_certifies_fig3_rows_and_recomputes_the_critical_one(monkeypatch):
    # fig3's 800 stencil couplings: only the one at g_c goes to decimal
    redone = []
    corners = spectrum._decimal_corners
    monkeypatch.setattr(spectrum, "_decimal_corners",
                        lambda p, g1, g2: (redone.extend(g1.tolist()), corners(p, g1, g2))[1])
    gc = critical_g_equal(params_at(0.0))
    gs = stencil(np.linspace(1.0, gc - 1e-4, 200), DEFAULT_STEP)
    got = spectrum.zone_branch(params_at(0.0), gs, gs)
    assert got.tobytes() == decimal_zone_branch(params_at(0.0), gs, gs).tobytes()
    assert redone == [g for g in gs.tolist() if g == gc]


@pytest.mark.one_thread
@settings(max_examples=300, deadline=None)
@given(zone_branch_cases())
@example((params_at(0.0), np.array([critical_g_equal(params_at(0.0))] * 2),
          np.array([critical_g_equal(params_at(0.0)), 1.0])))
def test_guarded_zone_branch_is_the_decimal_route_but_where_the_guard_refuses(case):
    # with the guard's refusal text, a row the guard refuses may keep its
    # double-double Delta, but it is refused with the decimal route's message;
    # every other row is still the decimal route's bit for bit
    p, g1, g2 = case
    got = spectrum.zone_branch(p, g1, g2, lambda d: groundstate._refusal(d, p.on_site))
    for row, want in zip(got, decimal_zone_branch(p, g1, g2)):
        text = groundstate._refusal(float(want[0]), p.on_site)
        if text is None:
            assert row.tobytes() == want.tobytes()
        else:
            assert groundstate._refusal(float(row[0]), p.on_site) == text


@pytest.mark.one_thread
def test_guarded_zone_branch_settles_fig3s_critical_row_without_decimal(monkeypatch):
    # fig3's stencil point at g_c (Delta / on_site = 2.3e-17): its bound certifies
    # the guard's refusal and the message's three digits, so no row goes to decimal
    monkeypatch.setattr(spectrum, "_decimal_corners",
                        lambda *args: pytest.fail("a row took the decimal route"))
    p, gc = params_at(0.0), critical_g_equal(params_at(0.0))
    gs = stencil(np.linspace(1.0, gc - 1e-4, 200), DEFAULT_STEP)
    got = spectrum.zone_branch(p, gs, gs, lambda d: groundstate._refusal(d, p.on_site))
    want = decimal_zone_branch(p, gs, gs)
    critical = gs == gc
    assert critical.sum() == 1 and got[~critical].tobytes() == want[~critical].tobytes()
    texts = {groundstate._refusal(rows[critical, 0].item(), p.on_site) for rows in (got, want)}
    assert texts == {"within 1e-12 of criticality (min v / on-site = 2.32e-17); "
                     "matrix square roots are unreliable here"}


def test_zone_branch_keeps_a_row_only_where_both_bounds_get_one_refusal_text(monkeypatch):
    # the g_c row's bounds straddle its double-double Delta by its error bound: a
    # text that changes within them, or one that is None at either bound, sends the
    # row to decimal; one text at both bounds keeps the double-double row
    p, gc = params_at(0.0), critical_g_equal(params_at(0.0))
    hi = spectrum.zone_branch(p, [gc], [gc], lambda d: "refused")[0, 0]
    redone = []
    corners = spectrum._decimal_corners
    monkeypatch.setattr(spectrum, "_decimal_corners",
                        lambda p, g1, g2: (redone.append(g1.size), corners(p, g1, g2))[1])
    # the bounds (4e-23 either side here) span many ulps of Delta (6e-27): "near" changes
    # within it, ten ulps above
    near = hi + 10.0 * np.spacing(hi)
    texts = {"one": lambda d: "refused", "split": lambda d: "below" if d < hi else "above",
             "near": lambda d: "below" if d < near else "above",
             "lower": lambda d: "refused" if d < hi else None,
             "upper": lambda d: None if d < hi else "refused", "none": lambda d: None}
    for name, text in texts.items():
        redone.clear()
        spectrum.zone_branch(p, [gc, 1.0], [gc, 1.0], text)
        assert redone == ([] if name == "one" else [1]), name


def test_sqrt_half_is_a_double_double():
    # SQRT_HALF + SQRT_HALF_LO holds 2^(-1/2) to 3e-33 relative, below u^2 = 2^-106
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        err = mpmath.mpf(spectrum.SQRT_HALF) + mpmath.mpf(spectrum.SQRT_HALF_LO) - mpmath.sqrt(0.5)
        assert abs(err) < 3e-33 * mpmath.sqrt(0.5)
    assert spectrum.SQRT_HALF == np.sqrt(0.5) and abs(spectrum.SQRT_HALF_LO) < 2.0 ** -53


def test_zone_minimum_needs_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    code = ("import sys, spinwave\n"
            "p = spinwave.CouplingParams(omega=500.0, n_atoms=1000, g1=1.5, g2=1.5)\n"
            "spinwave.zone_minimum(p)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(max_examples=200, deadline=None)
@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi),
       g1=st.floats(0.0, 2.5), g2=st.floats(0.0, 2.5),
       omega=st.floats(1.0, 2000.0), n_atoms=st.integers(1, 5000))
def test_dispersion_matches_mpmath(kx, ky, g1, g2, omega, n_atoms):
    # v from its definition at 40 digits (kappa = 1), against dispersion_value
    # and against the a + b cos ky form the zone quadrature rebuilds from the
    # ky = 0 and ky = pi samples; both within 4 eps of the term scale S
    mpmath = pytest.importorskip("mpmath")
    p = CouplingParams(omega=omega, n_atoms=n_atoms, g1=g1, g2=g2)
    assume(zone_minimum(p)[0] > 0)
    with mpmath.workdps(40):
        w, n, x, y = (mpmath.mpf(t) for t in (omega, n_atoms, kx, ky))
        bracket = (g1 * mpmath.cos(x) + g2 * mpmath.cos(y)
                   + mpmath.mpf(2) ** -1.5 * g2 * (mpmath.cos(x + y) + mpmath.cos(x - y)))
        exact = float(w * (w + 4 * n) + 2 * n * w * bracket)
    scale = p.on_site + 2.0 * n_atoms * omega * (g1 + g2 + SQRT2 * g2)
    tol = 4.0 * np.finfo(float).eps * scale
    assert abs(float(dispersion_value(p, kx, ky)) - exact) <= tol
    at_zero, at_pi = dispersion_value(p, kx, np.array([0.0, np.pi]))
    rebuilt = 0.5 * (at_zero + at_pi) + 0.5 * (at_zero - at_pi) * np.cos(ky)
    assert abs(rebuilt - exact) <= tol
