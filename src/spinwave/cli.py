"""Command-line interface: config ingestion, subcommand dispatch, CSV/JSON output.

Exit codes: 0 success, 1 computational refusal (instability, quadrature
non-convergence or running out of memory), 2 configuration or usage error,
unreadable paths and overflowing parameters included.  Every table records
its subcommand and config (CSV in a digest line, JSON whole); each recipe
artifact is ``entropy-scan`` (fig2) or ``derivative-scan`` (fig3) on that config.

With no thread count in the environment (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS``), importing this module sets
``OMP_NUM_THREADS=1`` before numpy loads: the recipes' eigenproblems (at most
100 x 100) gain no speed from a second BLAS thread and spend twice the CPU.
A count set in the environment wins (``OMP_NUM_THREADS=2 spinwave ...``); in a
process that loaded numpy before ``spinwave.cli`` the default does nothing.
"""

from __future__ import annotations

import os
import sys

# numpy reads the thread count when it loads; see the module docstring
if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_digest, format_value, parse_config
from .groundstate import QuadratureConvergenceError, covariances_for
from .entanglement import entropy_sweep, entropy_vs_L, two_site_sweep
from .model import CouplingParams, LatticeSpec, StabilityError
from .scan import ZETA1_OFFSET, derivative_sweep, finite_size_peak, finite_sizes, stencil
from .spectrum import critical_g2, critical_g_equal, energy_gap

NEAR_CRITICAL_OFFSET = 1e-11


def _params(cfg: RunConfig, g1=None, g2=None) -> CouplingParams:
    try:
        return CouplingParams(omega=cfg.omega, kappa=cfg.kappa, n_atoms=cfg.n_atoms,
                              g1=cfg.g1 if g1 is None else g1,
                              g2=cfg.g2 if g2 is None else g2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _g_grid(cfg: RunConfig) -> list[float]:
    if cfg.g_samples == 1:
        return [cfg.g_min]
    g_max = cfg.g_max
    if g_max == "auto":
        g_max = critical_g_equal(_params(cfg)) - 1e-4
        if g_max < cfg.g_min:
            raise ConfigError(f"'g_max' = auto resolves to g_c - 1e-4 = {g_max!r}, "
                              f"below 'g_min' {cfg.g_min!r}")
    return [float(g) for g in np.linspace(cfg.g_min, g_max, cfg.g_samples)]


def _cell(value) -> str:
    if isinstance(value, float):  # format_value's repr, which never holds , " or a newline
        return repr(value)
    text = "" if value is None else format_value(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(cfg: RunConfig, command: str, columns, rows) -> str:
    if cfg.format == "json":
        # JSON has no NaN or Infinity: a failed row's numeric cells become null
        doc = {"command": command, "config": asdict(cfg), "columns": list(columns),
               "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                         for v in r] for r in rows]}
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    lines = [f"# config sha256:{config_digest(cfg)} command:{command}", ",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, target) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _write(cfg: RunConfig, command: str, columns, rows) -> None:
    _emit(_render(cfg, command, columns, rows), cfg.output)


def _artifact_path(cfg: RunConfig, stem: str) -> str:
    suffix = ".json" if cfg.format == "json" else ".csv"
    return str(Path(cfg.out_dir) / (stem + suffix))


def cmd_phase_diagram(cfg: RunConfig) -> int:
    params = _params(cfg)
    g1s = np.linspace(cfg.phase_g1_min, cfg.phase_g1_max, cfg.phase_g1_samples)
    rows = []
    for g1 in g1s:
        point = critical_g2(params, float(g1))
        rows.append([point.g1, point.g2_closed_form, point.g2_numeric, point.branch])
    _write(cfg, "phase-diagram",
           ["g1", "g2_critical_closed_form", "g2_critical_numeric", "branch"], rows)
    return 0


def cmd_gap_scan(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    rows = []
    for g in _g_grid(cfg):
        try:
            gap = energy_gap(_params(cfg, g1=g, g2=g), lattice)
            rows.append([g, gap, None])
        except StabilityError as exc:
            rows.append([g, float("nan"), str(exc)])
    _write(cfg, "gap-scan", ["g", "gap", "error"], rows)
    return 0


def cmd_covariance(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    if lattice.boundary == "open":
        raise ConfigError("a displacement table needs translation invariance; "
                          "use boundary = periodic or infinite")
    # a periodic table reaches every displacement at M//2
    reach = cfg.max_displacement if lattice.infinite else lattice.side // 2
    table = covariances_for(_params(cfg), lattice, reach)
    d = np.arange(reach + 1 if lattice.infinite else lattice.side)
    dx, dy = (a.ravel() for a in np.meshgrid(d, d, indexing="ij"))
    index = table.displacement_index(dx, dy)
    rows = list(zip(dx.tolist(), dy.tolist(), table.qq[index].tolist(), table.pp[index].tolist()))
    _write(cfg, "covariance", ["dx", "dy", "qq", "pp"], rows)
    return 0


def _check_block_sizes(cfg: RunConfig) -> None:
    if not cfg.lattice.infinite and cfg.block_sizes[-1] > cfg.lattice.side:
        raise ConfigError(f"'block_sizes' entry {cfg.block_sizes[-1]} exceeds the "
                          f"lattice side {cfg.lattice.side}")


def _write_entropy_scan(cfg: RunConfig, curve) -> None:
    rows = [[L, E, cfg.entropy_mode, cfg.lattice.engine] for L, E in curve]
    _write(cfg, "entropy-scan", ["L", "entropy_bits", "mode", "engine"], rows)


def cmd_entropy_scan(cfg: RunConfig) -> int:
    _check_block_sizes(cfg)
    _write_entropy_scan(cfg, entropy_vs_L(_params(cfg), cfg.lattice, cfg.block_sizes,
                                          mode=cfg.entropy_mode, pairing_tol=cfg.pairing_tol))
    return 0


def _check_reach(lattice, command: str, offsets) -> None:
    """Refuse a finite lattice too small for the pairs (center, center + offset) reaching
    r sites: open below side 2 r + 1, periodic below 2 r (the farthest would wrap)."""
    r = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    least = 2 * r if lattice.boundary == "periodic" else 2 * r + 1
    if not lattice.infinite and lattice.side < least:
        raise ConfigError(f"invalid value for 'side': {command} with {lattice.boundary} boundary "
                          f"needs side >= {least}: its pairs reach distance {r} from the center")


_PAIR_CLASSES = (("nn", (1, 0)), ("diagonal", (1, 1)), ("distance2", (2, 0)))


def cmd_two_site(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    _check_reach(lattice, "two-site", [offset for _, offset in _PAIR_CLASSES])
    grid = _g_grid(cfg)
    x, y = lattice.center
    # params at the sweep's largest coupling: one that overflows is a config error
    two = two_site_sweep(_params(cfg, g1=grid[-1], g2=grid[-1]), grid, grid, lattice,
                         [[(x, y), (x + dx, y + dy)] for _, (dx, dy) in _PAIR_CLASSES])
    columns = [a.tolist() for a in (two.n, two.c, two.zeta, two.eof, two.separable)]
    rows = [[g, label] + ([float("nan")] * 4 + [None, str(exc)]
                          if (exc := two.refusals.get((i, k))) is not None
                          else [column[i][k] for column in columns] + [None])
            for i, g in enumerate(grid) for k, (label, _) in enumerate(_PAIR_CLASSES)]
    _write(cfg, "two-site",
           ["g", "distance_class", "n", "c", "zeta", "eof", "separable", "error"], rows)
    return 0


def _stencil_grid(cfg: RunConfig) -> list[float]:
    # the derivative stencil reaches g -+ derivative_step, which must stay a coupling
    grid = _g_grid(cfg)
    _params(cfg, g1=grid[-1] + cfg.derivative_step, g2=grid[-1] + cfg.derivative_step)
    try:
        stencil(grid, cfg.derivative_step)
    except ValueError as exc:
        raise ConfigError(f"'derivative_step': {exc}") from None
    return grid


def cmd_derivative_scan(cfg: RunConfig) -> int:
    lattice = cfg.lattice
    _check_reach(lattice, "derivative-scan", [ZETA1_OFFSET])
    grid = _stencil_grid(cfg)
    rows = [[g, float("nan"), float("nan"), str(est)] if isinstance(est, Exception)
            else [g, est.raw, est.richardson, None]
            for g, est in zip(grid, derivative_sweep(_params(cfg), lattice, grid,
                                                     h=cfg.derivative_step))]
    _write(cfg, "derivative-scan", ["g", "dzeta1_dg_raw", "dzeta1_dg_richardson", "error"], rows)
    return 0


def _m_list_error(exc: ValueError) -> ConfigError:
    return ConfigError(f"invalid value for 'm_list': {exc}")


def cmd_finite_size(cfg: RunConfig) -> int:
    try:
        finite_sizes(cfg.m_list)
    except ValueError as exc:
        raise _m_list_error(exc) from None
    peaks = finite_size_peak(_params(cfg), cfg.m_list, _stencil_grid(cfg), h=cfg.derivative_step)
    rows = [[p.side, p.peak_abs_derivative, p.g_at_peak] for p in peaks]
    _write(cfg, "finite-size", ["M", "peak_abs_derivative", "g_at_peak"], rows)
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    from .oracle import validation_battery  # no other subcommand needs it

    report = validation_battery()
    _emit(json.dumps(report, indent=1) + "\n", cfg.output)
    return 0 if report["all_passed"] else 1


def _paper_config(cfg: RunConfig) -> RunConfig:
    # the paper's parameters are RunConfig's defaults, engine = auto among them
    return replace(cfg, **{name: getattr(RunConfig, name) for name in (
        "omega", "kappa", "n_atoms", "side", "boundary", "engine")})


# The first subcommand run of a recipe meets every check the later ones
# would, so a refused config writes no file.

def cmd_reproduce_fig2(cfg: RunConfig) -> int:
    cfg = _paper_config(cfg)
    _check_block_sizes(cfg)
    gs = [1.25, 1.5, critical_g_equal(_params(cfg)) * (1.0 - NEAR_CRITICAL_OFFSET)]
    runs = {"m80": replace(cfg, boundary="periodic"), "infinite": replace(cfg, boundary="infinite")}
    # one sweep per lattice, written as six entropy-scan runs would, up to the first refusal
    sweeps = {name: entropy_sweep(_params(cfg), gs, gs, run.lattice, cfg.block_sizes,
                                  cfg.entropy_mode, cfg.pairing_tol) for name, run in runs.items()}
    for i, (label, g) in enumerate(zip(("g1.25", "g1.5", "near_critical"), gs)):
        for name, run in runs.items():
            if isinstance(curve := sweeps[name][i], Exception):
                raise curve
            output = _artifact_path(cfg, f"fig2_{name}_{label}")
            _write_entropy_scan(replace(run, g1=g, g2=g, output=output), curve)
    return 0


def cmd_reproduce_fig3(cfg: RunConfig) -> int:
    try:
        for M in cfg.m_list:
            LatticeSpec.periodic(M)
    except ValueError as exc:
        raise _m_list_error(exc) from None
    cfg = _paper_config(cfg)
    cmd_derivative_scan(replace(cfg, boundary="infinite",
                                output=_artifact_path(cfg, "fig3_infinite")))
    for M in cfg.m_list:
        cmd_derivative_scan(replace(cfg, side=M, output=_artifact_path(cfg, f"fig3_m{M}")))
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


@cache  # built on the first call, once per process
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
        cfg = replace(cfg, **{key: value for key, value in (
            ("output", args.output), ("out_dir", args.out_dir), ("format", args.format))
            if value is not None})
        return _HANDLERS[args.subcommand](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, QuadratureConvergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
