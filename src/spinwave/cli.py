"""Command-line interface: config ingestion, subcommand dispatch, CSV/JSON output.

Exit codes: 0 success, 1 computational refusal (instability, quadrature
non-convergence or running out of memory), 2 configuration or usage error,
unreadable paths included.  Every table carries a comment line with the
config digest, so outputs are self-describing and byte-identical for
identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_digest, parse_config
from .groundstate import QuadratureConvergenceError, covariances_for, covariances_for_each
from .entanglement import AsymmetricPairError, entropy_vs_L, two_site_params
from .model import CouplingParams, LatticeSpec, StabilityError
from .oracle import validation_battery
from .scan import derivative_sweep, finite_size_peak
from .spectrum import critical_g2, critical_g_equal, energy_gap

PAPER_OMEGA = 500.0
PAPER_N_ATOMS = 1000
NEAR_CRITICAL_OFFSET = 1e-11


def _params(cfg: RunConfig, g1=None, g2=None) -> CouplingParams:
    return CouplingParams(omega=cfg.omega, kappa=cfg.kappa, n_atoms=cfg.n_atoms,
                          g1=cfg.g1 if g1 is None else g1,
                          g2=cfg.g2 if g2 is None else g2)


def _g_grid(cfg: RunConfig) -> list[float]:
    if cfg.g_samples == 1:
        return [cfg.g_min]
    g_max = cfg.g_max
    if g_max == "auto":
        g_max = float(critical_g_equal(_params(cfg))) - 1e-4
        if g_max < cfg.g_min:
            raise ConfigError(f"'g_max' = auto resolves to g_c - 1e-4 = {g_max!r}, "
                              f"below 'g_min' {cfg.g_min!r}")
    return [float(g) for g in np.linspace(cfg.g_min, g_max, cfg.g_samples)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(cfg: RunConfig, columns, rows) -> str:
    if cfg.format == "json":
        # JSON has no NaN or Infinity: a failed row's numeric cells become null
        doc = {"config": asdict(cfg), "columns": list(columns),
               "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                         for v in r] for r in rows]}
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    lines = [f"# config sha256:{config_digest(cfg)}", ",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, target) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _write(cfg: RunConfig, columns, rows, path=None) -> None:
    _emit(_render(cfg, columns, rows), cfg.output if path is None else path)


def _artifact_path(cfg: RunConfig, stem: str) -> Path:
    suffix = ".json" if cfg.format == "json" else ".csv"
    return Path(cfg.out_dir) / (stem + suffix)


def cmd_phase_diagram(cfg: RunConfig) -> int:
    params = _params(cfg)
    g1s = np.linspace(cfg.phase_g1_min, cfg.phase_g1_max, cfg.phase_g1_samples)
    rows = []
    for g1 in g1s:
        point = critical_g2(params, float(g1))
        rows.append([point.g1, point.g2_closed_form, point.g2_numeric, point.branch])
    _write(cfg, ["g1", "g2_critical_closed_form", "g2_critical_numeric", "branch"], rows)
    return 0


def cmd_gap_scan(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    rows = []
    for g in _g_grid(cfg):
        try:
            gap = energy_gap(_params(cfg, g1=g, g2=g), lattice)
            rows.append([g, gap, None])
        except (StabilityError, QuadratureConvergenceError) as exc:
            rows.append([g, float("nan"), str(exc)])
    _write(cfg, ["g", "gap", "error"], rows)
    return 0


def cmd_covariance(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    if lattice.engine == "dense":
        raise ConfigError("a displacement table needs translation invariance; "
                          "use a periodic lattice or infinite = true")
    table = covariances_for(_params(cfg), lattice, cfg.max_displacement)
    d = np.arange(cfg.max_displacement + 1 if lattice.infinite else lattice.side)
    dx, dy = (a.ravel() for a in np.meshgrid(d, d, indexing="ij"))
    index = table.displacement_index(dx, dy)
    rows = list(zip(dx.tolist(), dy.tolist(), table.qq[index].tolist(), table.pp[index].tolist()))
    _write(cfg, ["dx", "dy", "qq", "pp"], rows)
    return 0


def _check_blocks_fit(cfg: RunConfig, lattice: LatticeSpec) -> None:
    if not lattice.infinite and cfg.block_sizes[-1] > lattice.side:
        raise ConfigError(f"'block_sizes' entry {cfg.block_sizes[-1]} exceeds the "
                          f"lattice side {lattice.side}")


def cmd_entropy_scan(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    _check_blocks_fit(cfg, lattice)
    curve = entropy_vs_L(_params(cfg), lattice, cfg.block_sizes, mode=cfg.entropy_mode,
                         pairing_tol=cfg.pairing_tol)
    rows = [[L, E, cfg.entropy_mode, lattice.engine] for L, E in curve]
    _write(cfg, ["L", "entropy_bits", "mode", "engine"], rows)
    return 0


_PAIR_CLASSES = (("nn", (1, 0)), ("diagonal", (1, 1)), ("distance2", (2, 0)))


def cmd_two_site(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    if not lattice.infinite and lattice.boundary == "open" and lattice.side < 5:
        raise ConfigError("two-site on an open lattice needs side >= 5: "
                          "the pairs reach two sites right of the center")
    if not lattice.infinite and lattice.boundary == "periodic" and lattice.side < 4:
        raise ConfigError("two-site on a periodic lattice needs 'side' >= 4: below that "
                          "the distance-2 pair wraps onto a nearest neighbor")
    grid = _g_grid(cfg)
    covs = covariances_for_each((_params(cfg, g1=g, g2=g) for g in grid), lattice, 2)
    x, y = lattice.center
    rows = []
    for g, cov in zip(grid, covs):
        try:
            if isinstance(cov, Exception):
                raise cov
            for label, (dx, dy) in _PAIR_CLASSES:
                two = two_site_params(cov, (x, y), (x + dx, y + dy))
                rows.append([g, label, two.n, two.c, two.zeta, two.eof, two.separable, None])
        except (StabilityError, QuadratureConvergenceError, AsymmetricPairError) as exc:
            for label, _ in _PAIR_CLASSES:
                rows.append([g, label] + [float("nan")] * 4 + [None, str(exc)])
    _write(cfg, ["g", "distance_class", "n", "c", "zeta", "eof", "separable", "error"], rows)
    return 0


_DERIVATIVE_COLUMNS = ["g", "dzeta1_dg_raw", "dzeta1_dg_richardson", "error"]


def _stencil_grid(cfg: RunConfig) -> list[float]:
    # the derivative stencil reaches g - derivative_step, which must stay a coupling
    if cfg.derivative_step > cfg.g_min:
        raise ConfigError(f"'derivative_step' {cfg.derivative_step!r} exceeds 'g_min' "
                          f"{cfg.g_min!r}: the stencil would reach a negative coupling")
    return _g_grid(cfg)


def _derivative_rows(cfg: RunConfig, lattice: LatticeSpec) -> list:
    grid = _stencil_grid(cfg)
    return [[g, float("nan"), float("nan"), str(est)] if isinstance(est, Exception)
            else [g, est.raw, est.richardson, None]
            for g, est in zip(grid, derivative_sweep(_params(cfg), lattice, grid,
                                                     h=cfg.derivative_step))]


def cmd_derivative_scan(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    if not lattice.infinite and lattice.boundary == "open" and lattice.side < 3:
        raise ConfigError("derivative-scan on an open lattice needs 'side' >= 3: "
                          "the pair reaches one site right of the center")
    _write(cfg, _DERIVATIVE_COLUMNS, _derivative_rows(cfg, lattice))
    return 0


def cmd_finite_size(cfg: RunConfig) -> int:
    if any(M < 5 or M % 2 == 0 for M in cfg.m_list):
        raise ConfigError(f"'m_list' entries must be odd and >= 5, got "
                          f"{','.join(map(str, cfg.m_list))}")
    peaks = finite_size_peak(_params(cfg), cfg.m_list, _stencil_grid(cfg), h=cfg.derivative_step)
    rows = [[p.side, p.peak_abs_derivative, p.g_at_peak] for p in peaks]
    _write(cfg, ["M", "peak_abs_derivative", "g_at_peak"], rows)
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    report = validation_battery()
    _emit(json.dumps(report, indent=1) + "\n", cfg.output)
    return 0 if report["all_passed"] else 1


def _paper_config(cfg: RunConfig) -> RunConfig:
    # the lattice is replaced, so an engine named for the input's lattice goes too
    return replace(cfg, omega=PAPER_OMEGA, kappa=1.0, n_atoms=PAPER_N_ATOMS,
                   side=80, boundary="periodic", infinite=False, engine="auto")


def cmd_reproduce_fig2(cfg: RunConfig) -> int:
    cfg = _paper_config(cfg)
    params = _params(cfg)
    gc = critical_g_equal(params)
    couplings = [("g1.25", 1.25), ("g1.5", 1.5),
                 ("near_critical", gc * (1.0 - NEAR_CRITICAL_OFFSET))]
    lattice = LatticeSpec.periodic(80)
    _check_blocks_fit(cfg, lattice)
    columns = ["L", "entropy_bits", "mode", "engine"]
    for label, g in couplings:
        p = _params(cfg, g1=g, g2=g)
        for spec in (lattice, LatticeSpec.infinite_lattice()):
            curve = entropy_vs_L(p, spec, cfg.block_sizes, mode=cfg.entropy_mode,
                                 pairing_tol=cfg.pairing_tol)
            rows = [[L, E, cfg.entropy_mode, spec.engine] for L, E in curve]
            stem = f"fig2_{'infinite' if spec.infinite else 'm80'}_{label}"
            _write(cfg, columns, rows, path=_artifact_path(cfg, stem))
    return 0


def cmd_reproduce_fig3(cfg: RunConfig) -> int:
    if cfg.m_list[0] < 3:
        raise ConfigError(f"'m_list' entries must be >= 3 (periodic lattices), got "
                          f"{','.join(map(str, cfg.m_list))}")
    cfg = _paper_config(cfg)
    _write(cfg, _DERIVATIVE_COLUMNS, _derivative_rows(cfg, LatticeSpec.infinite_lattice()),
           path=_artifact_path(cfg, "fig3_infinite"))
    for M in cfg.m_list:
        _write(cfg, _DERIVATIVE_COLUMNS, _derivative_rows(cfg, LatticeSpec.periodic(M)),
               path=_artifact_path(cfg, f"fig3_m{M}"))
    return 0


_HANDLERS = {
    "phase-diagram": cmd_phase_diagram,
    "gap-scan": cmd_gap_scan,
    "covariance": cmd_covariance,
    "entropy-scan": cmd_entropy_scan,
    "two-site": cmd_two_site,
    "derivative-scan": cmd_derivative_scan,
    "finite-size": cmd_finite_size,
    "oracle-check": cmd_oracle_check,
    "reproduce-fig2": cmd_reproduce_fig2,
    "reproduce-fig3": cmd_reproduce_fig3,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwave",
        description="Entanglement structure of a 2D harmonic lattice of coupled oscillators")
    parser.add_argument("subcommand", choices=list(_HANDLERS))
    parser.add_argument("--config", help="path to a 'key = value' config file")
    parser.add_argument("--output", help="output path for single-table commands ('-' = stdout)")
    parser.add_argument("--out-dir", help="directory for multi-file recipes")
    parser.add_argument("--format", choices=("csv", "json"))
    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_read_config(args.config) if args.config else "")
        overrides = {}
        if args.output is not None:
            overrides["output"] = args.output
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        if args.format is not None:
            overrides["format"] = args.format
        if overrides:
            cfg = replace(cfg, **overrides)
        return _HANDLERS[args.subcommand](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, QuadratureConvergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
