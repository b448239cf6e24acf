"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Criterion 8's monotonicity window is a strict xfail: the two-site
parameter zeta_1 attains an interior minimum near g = 1.715 and rises again
before the critical coupling (verified independently by the dense, FFT and
quadrature engines), so strict decrease over the stated window [1.25, 1.73]
cannot hold.  The separability and ordering clauses of criterion 8 pass.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from spinwave import (CouplingParams, LatticeSpec, area_law_fit,
                      block_entropy, covariance_dense,
                      covariance_infinite, covariance_pbc_fft, critical_g2,
                      critical_g_equal, derivative_zeta, dispersion_value, entropy_vs_L,
                      excitation_density, finite_size_peak, gap_scaling_exponent,
                      phase_boundary_cases, symplectic_spectrum,
                      validation_battery)
from spinwave.cli import main

from conftest import full_matrices, pair_params, params_at

SQRT2 = np.sqrt(2.0)


@contextmanager
def budget(criterion, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"  (criterion {criterion}: {elapsed:.2f}s of {seconds}s budget)")
    assert elapsed < seconds, f"criterion {criterion} exceeded its {seconds}s runtime budget"


def report(criterion, ok, text):
    print(f"\nACCEPTANCE {criterion:>3} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {criterion}: {text}"


def grid_min_v(params, n=257):
    k = np.linspace(-np.pi, np.pi, n)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    return float(np.min(dispersion_value(params, KX, KY)))


def test_acceptance_01_critical_coupling():
    with budget(1, 1.0):
        gc = critical_g_equal(params_at(0.0))
        # independent root: bisect min_k v(g, g) = 0 on the equal line
        lo, hi = 0.0, 10.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if grid_min_v(params_at(mid)) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        ok = round(gc, 5) == 1.74028 and abs(root - gc) < 1e-6
    report(1, ok, f"g_c = {gc:.10f} (5 dp: {round(gc, 5)}), bisection root {root:.10f}, "
                  f"|diff| = {abs(root - gc):.2e}")


def test_acceptance_02_phase_boundary():
    with budget(2, 10.0):
        p = params_at(0.0)
        branches = []
        worst = 0.0
        for g1 in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            point = critical_g2(p, g1)
            worst = max(worst, abs(point.g2_closed_form - point.g2_numeric))
            branches.append(point.branch)
        switch_ok = (branches[:4] == ["above"] * 4 and branches[4:] == ["below"] * 3)
        g1_star = (4.0 * p.kappa + p.omega / p.n_atoms) / (2.0 * SQRT2)
        below, degenerate, above = phase_boundary_cases(p, g1_star)
        meet = max(abs(below - degenerate), abs(above - degenerate))
        ok = worst < 1e-6 and switch_ok and meet < 1e-9
    report(2, ok, f"closed-form vs bisection worst |diff| = {worst:.2e}, branches {branches}, "
                  f"case formulas at the switch agree to {meet:.2e}")


def test_acceptance_03_gap_scaling():
    with budget(3, 10.0):
        gc = critical_g_equal(params_at(0.0))
        fit = gap_scaling_exponent(params_at(0.0), (0.9 * gc, 0.999 * gc), 40)
        expected_prefactor = np.sqrt(500.0 * 1000.0 * (4.0 - SQRT2))
        ok = (abs(fit.exponent - 0.5) <= 0.005
              and abs(fit.prefactor - expected_prefactor) <= 1e-3 * expected_prefactor)
    report(3, ok, f"exponent = {fit.exponent:.6f} (target 0.500 +- 0.005), prefactor = "
                  f"{fit.prefactor:.4f} vs {expected_prefactor:.4f}")


def test_acceptance_04_purity_and_uncertainty(paper_params):
    with budget(4, 30.0):
        table = covariance_pbc_fft(LatticeSpec.periodic(12), paper_params)
        Q, P = full_matrices(table, 12)
        full = symplectic_spectrum(Q, P)
        purity_dev = float(np.max(np.abs(full.values - 1.0)))
        block_ok = True
        for L in range(1, 7):
            from spinwave import BlockRegion

            QL, PL = table.block(BlockRegion.centered(L, 12).sites())
            nu = symplectic_spectrum(QL, PL)  # construction enforces nu >= 1 - 1e-9
            block_ok &= bool(np.all(nu.values >= 1.0 - 1e-9))
        ok = purity_dev < 1e-9 and block_ok
    report(4, ok, f"full-system max |nu - 1| = {purity_dev:.2e}, all block spectra >= 1 - 1e-9")


def test_acceptance_05_complement_duality():
    with budget(5, 30.0):
        spec = LatticeSpec.open_boundary(8)
        cov = covariance_dense(spec, params_at(1.2))
        from spinwave import BlockRegion

        inside = BlockRegion.centered(3, 8).sites()
        idx_in = [spec.site_index(x, y) for x, y in inside]
        idx_out = [i for i in range(64) if i not in idx_in]

        def entropy_of(idx):
            return block_entropy(symplectic_spectrum(cov.Q[np.ix_(idx, idx)],
                                                     cov.P[np.ix_(idx, idx)]), "count_all")

        e_in, e_out = entropy_of(idx_in), entropy_of(idx_out)
        ok = abs(e_in - e_out) < 1e-8
    report(5, ok, f"E(3x3 block) = {e_in:.10f}, E(complement) = {e_out:.10f}, "
                  f"|diff| = {abs(e_in - e_out):.2e} bits")


def test_acceptance_06_engine_equivalence():
    with budget(6, 120.0):
        worst_dense_fft = 0.0
        for M in (4, 5, 6, 8):
            for g in (0.5, 1.25, 1.7):
                spec = LatticeSpec.periodic(M)
                cov = covariance_dense(spec, params_at(g))
                Qf, Pf = full_matrices(covariance_pbc_fft(spec, params_at(g)), M)
                worst_dense_fft = max(worst_dense_fft,
                                      float(np.max(np.abs(cov.Q - Qf))),
                                      float(np.max(np.abs(cov.P - Pf))))
        p = params_at(1.25)
        inf = covariance_infinite(p, 3)
        fft = covariance_pbc_fft(LatticeSpec.periodic(160), p)
        worst_rel = 0.0
        for dx in range(4):
            for dy in range(4):
                for get in ("qq", "pp"):
                    a, b = getattr(inf, get)[dx, dy], getattr(fft, get)[dx, dy]
                    worst_rel = max(worst_rel, abs(a - b) / max(abs(a), abs(b)))
        ok = worst_dense_fft < 1e-10 and worst_rel < 1e-8
    report(6, ok, f"dense-vs-FFT max abs = {worst_dense_fft:.2e} (tol 1e-10); "
                  f"FFT@160-vs-quadrature max rel = {worst_rel:.2e} (tol 1e-8)")


def test_acceptance_07_area_law():
    with budget(7, 600.0):
        Ls = list(range(2, 21, 2))
        gc = critical_g_equal(params_at(0.0))
        lattice = LatticeSpec.periodic(80)
        details = []
        ok = True
        finite_curves = {}
        for g in (1.25, 1.5):
            curve = entropy_vs_L(params_at(g), lattice, Ls, mode="count_all")
            finite_curves[g] = dict(curve)
            fit = area_law_fit(curve)
            details.append(f"g={g}: residual {fit.max_rel_residual:.3%}")
            ok &= fit.max_rel_residual < 0.02
            inf_curve = entropy_vs_L(params_at(g), LatticeSpec.infinite_lattice(), Ls,
                                     mode="count_all")
            match = max(abs(finite_curves[g][L] - E) / E for L, E in inf_curve if L <= 10)
            details.append(f"finite-vs-infinite (L<=10) {match:.3%}")
            ok &= match < 0.01
        near = gc * (1.0 - 1e-11)
        curve = entropy_vs_L(params_at(near), LatticeSpec.infinite_lattice(), Ls,
                             mode="count_all")
        energies = [E for _, E in curve]
        fit = area_law_fit(curve)
        increasing = bool(np.all(np.diff(energies) > 0))
        finite = bool(np.all(np.isfinite(energies)))
        details.append(f"near-critical residual {fit.max_rel_residual:.3%}, "
                       f"increasing={increasing}")
        ok &= fit.max_rel_residual < 0.05 and increasing and finite
    report(7, ok, "; ".join(details))


def _zeta_classes(g):
    table = covariance_infinite(params_at(g), 2)
    return (pair_params(table, (0, 0), (1, 0)),
            pair_params(table, (0, 0), (1, 1)),
            pair_params(table, (0, 0), (2, 0)))


def test_acceptance_08_two_site_separability_ordering():
    with budget("8a", 120.0):
        nn, diag, far = _zeta_classes(1.5)
        ok = diag.zeta >= 1.0 and far.zeta >= 1.0 and nn.zeta < min(diag.zeta, far.zeta)
        note = ("nearest-neighbor pair entangled (zeta_1 < 1)" if nn.zeta < 1.0 else
                "DISCREPANCY: zeta_1 >= 1, nearest neighbors not entangled at these "
                "parameters; ordering still verified")
    report("8a", ok, f"zeta_1 = {nn.zeta:.6f}, zeta_diag = {diag.zeta:.6f}, "
                     f"zeta_2 = {far.zeta:.6f}; {note}")


@pytest.mark.xfail(strict=True, reason=(
    "zeta_1(g) attains an interior minimum near g = 1.715 and rises toward g_c "
    "(cross-checked by dense, FFT and quadrature engines); strict decrease over "
    "the full window [1.25, 1.73] therefore cannot hold, only up to the minimum"))
def test_acceptance_08_two_site_monotonicity_window():
    with budget("8b", 120.0):
        gs = np.arange(1.25, 1.7301, 0.02)
        zetas = [_zeta_classes(float(g))[0].zeta for g in gs]
        drops = np.diff(zetas)
        i_min = int(np.argmin(zetas))
        ok = bool(np.all(drops < 0))
    report("8b", ok, f"strict decrease over [1.25, 1.73]; minimum found at "
                     f"g = {gs[i_min]:.3f} with zeta_1 = {zetas[i_min]:.6f}")


def test_acceptance_09_derivative_divergence_and_finite_size():
    with budget(9, 600.0):
        gc = critical_g_equal(params_at(0.0))
        spec = LatticeSpec.infinite_lattice()
        d_far = derivative_zeta(params_at(0.0), spec, gc - 1e-2)
        d_near = derivative_zeta(params_at(0.0), spec, gc - 1e-3)
        diverging = abs(d_near.richardson) > abs(d_far.richardson)
        grid = np.linspace(1.0, gc - 1e-4, 200)
        peaks = finite_size_peak(params_at(0.0), [21, 31, 41], grid)
        magnitudes = [pk.peak_abs_derivative for pk in peaks]
        growing = magnitudes[0] < magnitudes[1] < magnitudes[2]
        ok = diverging and growing
    report(9, ok, f"|dzeta/dg| at g_c-1e-3: {abs(d_near.richardson):.4f} > at g_c-1e-2: "
                  f"{abs(d_far.richardson):.4f}; finite-size peaks {magnitudes} "
                  f"(args {[pk.g_at_peak for pk in peaks]})")


def test_acceptance_10_spin_wave_validity():
    with budget(10, 60.0):
        worst = 0.0
        for g in (0.0, 0.5, 1.0, 1.25, 1.5):
            worst = max(worst,
                        excitation_density(params_at(g), LatticeSpec.periodic(80)),
                        excitation_density(params_at(g), LatticeSpec.infinite_lattice()))
        ok = worst < 1e-2
    report(10, ok, f"max excitation density over g <= 1.5: {worst:.3e} (tol 1e-2)")


def test_acceptance_11_oracle_battery():
    with budget(11, 300.0):
        result = validation_battery()
        trend = next(c for c in result["checks"] if c["name"] == "two_site_gap_convergence")
        cross = next(c for c in result["checks"] if c["name"] == "symplectic_cross_route")
        ok = result["all_passed"]
    report(11, ok, f"gap errors over N=10,20,40: "
                   f"{[f'{e:.3%}' for e in trend['relative_errors']]} (monotone, <5% at 40); "
                   f"cross-route max |diff| = {cross['max_abs_difference']:.2e} over "
                   f"{cross['trials']} random blocks")


def _run_recipe(subcommand, out_dir, cfg_path):
    code = main([subcommand, "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    return {name: (out_dir / name).read_bytes() for name in files}


def test_acceptance_12_reproduction_determinism(tmp_path):
    with budget(12, 300.0):
        cfg2 = tmp_path / "fig2.cfg"
        cfg2.write_text("block_sizes = 2,4,6\n")
        cfg3 = tmp_path / "fig3.cfg"
        cfg3.write_text("g_min = 1.3\ng_max = 1.6\ng_samples = 4\nm_list = 5,7\n")
        ok = True
        for sub, cfg in (("reproduce-fig2", cfg2), ("reproduce-fig3", cfg3)):
            run_a = tmp_path / (sub + "_a")
            run_b = tmp_path / (sub + "_b")
            run_a.mkdir()
            run_b.mkdir()
            a = _run_recipe(sub, run_a, cfg)
            b = _run_recipe(sub, run_b, cfg)
            ok &= (a == b) and len(a) > 0
    report(12, ok, "reproduce-fig2 and reproduce-fig3 produced byte-identical artifacts "
                   "across repeated runs")
