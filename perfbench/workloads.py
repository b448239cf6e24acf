"""The benchmark's workloads: the CLI calls each makes, and how its outputs are checked.

Every output table is compared row by row with a committed reference
(``reference/``, written by ``make_reference.py`` at commit ed260a2).  A
row passes when every numeric cell satisfies |out - ref| <= atol + rtol |ref|
(NaN only matches NaN), every text cell matches exactly, and the ``error``
cell is empty in both or set in both: an expected in-row refusal is not a
failure, whatever its wording.  Each table carries the tolerance of the
engine that produced it; ``Tolerance.reason`` records why.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# open-dense: two-site couplings are drawn from this fixed pool, which the
# reference covers in full.
POOL_SIZE = 96
POOL_DRAW = 24
POOL = tuple(1.0 + 0.7 * i / (POOL_SIZE - 1) for i in range(POOL_SIZE))
OPEN_SIDE = 30
ENTROPY_SCAN_G = 1.5


@dataclass(frozen=True)
class Tolerance:
    rtol: float
    atol: float
    reason: str


FFT = Tolerance(1e-9, 1e-12,
                "FFT engine, exact up to roundoff: the top-level README gives 1e-10 entrywise "
                "engine agreement, and evaluating v(k) in separable form moves these "
                "entropies by < 1e-12 relative")
DENSE = Tolerance(1e-9, 1e-9,
                  "dense eigh, exact up to roundoff: 1 vs 2 BLAS threads differ by 6e-14 "
                  "relative; atol covers eof, whose slope in zeta is O(1) near eof = 0")
QUAD = Tolerance(1e-8, 0.0,
                 "zone quadrature converged to rel_tol 1e-10 per entry; the top-level README gives "
                 "1e-8 relative between the FFT engine at M = 160 and quadrature")
NEAR_CRITICAL = Tolerance(1e-3, 0.0,
                          "near-critical curve runs at rel_tol 5e-3 (n = 16384); levels n = 16384 "
                          "and 32768 differ by 3.1e-5 to 3.4e-5 in entropy, so the reference is "
                          "within ~7e-5 of the limit; 10x room lets a more accurate "
                          "quadrature pass")
FIG3_FFT = Tolerance(1e-8, 1e-8,
                     "d zeta_1/dg by Richardson differences at h = 1e-4 amplifies zeta "
                     "roundoff by about 3/h = 3e4; zeta roundoff is ~1e-14")
FIG3_QUAD = Tolerance(0.0, 1e-5,
                      "zeta_1 from quadrature at rel_tol 1e-10, amplified by 3/h = 3e4 "
                      "to at most 3e-6 in the derivative")


@dataclass(frozen=True)
class Output:
    """One table a run writes, and the reference rows it must match."""

    path: str             # relative to the run's output directory
    reference: str        # relative to REFERENCE_DIR
    tolerance: Tolerance
    g: float | None = None  # pool tables: only the reference rows at this coupling


@dataclass(frozen=True)
class Plan:
    inputs: dict                 # what the workload ran, recorded in every result
    configs: dict[str, str]      # config file name -> text, written to the run directory
    calls: list[list[str]]       # argument lists for spinwave.cli.main, in order
    outputs: list[Output]


def open_dense_config(g: float | None = None) -> str:
    """Config of the open-lattice dense runs; ``g`` selects the two-site coupling."""
    lines = ["boundary = open", f"side = {OPEN_SIDE}", "engine = dense"]
    if g is None:
        lines += [f"g1 = {ENTROPY_SCAN_G!r}", f"g2 = {ENTROPY_SCAN_G!r}"]
    else:
        lines += [f"g_min = {g!r}", "g_samples = 1"]
    return "\n".join(lines) + "\n"


FIG2_CURVES = (("m80_g1.25", FFT), ("m80_g1.5", FFT), ("m80_near_critical", FFT),
               ("infinite_g1.25", QUAD), ("infinite_g1.5", QUAD),
               ("infinite_near_critical", NEAR_CRITICAL))
FIG3_TABLES = (("infinite", FIG3_QUAD), ("m21", FIG3_FFT), ("m31", FIG3_FFT), ("m41", FIG3_FFT))


def plan(workload: str, seed: int | None, run_dir: Path, out_dir: Path) -> Plan:
    """The calls and checks of one workload; only open-dense depends on ``seed``,
    and with ``seed=None`` it runs the whole pool, as the reference does."""
    if workload == "fig2":
        return Plan(inputs={"recipe": "reproduce-fig2", "config": "defaults"}, configs={},
                    calls=[["reproduce-fig2", "--out-dir", str(out_dir)]],
                    outputs=[Output(f"fig2_{c}.csv", f"fig2/fig2_{c}.csv", tol)
                             for c, tol in FIG2_CURVES])
    if workload == "fig3":
        return Plan(inputs={"recipe": "reproduce-fig3", "config": "defaults"}, configs={},
                    calls=[["reproduce-fig3", "--out-dir", str(out_dir)]],
                    outputs=[Output(f"fig3_{t}.csv", f"fig3/fig3_{t}.csv", tol)
                             for t, tol in FIG3_TABLES])
    if workload == "open-dense":
        picks = (range(POOL_SIZE) if seed is None
                 else sorted(random.Random(seed).sample(range(POOL_SIZE), POOL_DRAW)))
        configs = {f"two_site_{i:02d}.cfg": open_dense_config(POOL[i]) for i in picks}
        configs["entropy_scan.cfg"] = open_dense_config()
        calls = [["two-site", "--config", str(run_dir / name),
                  "--output", str(out_dir / name.replace(".cfg", ".csv"))]
                 for name in configs if name.startswith("two_site")]
        calls.append(["entropy-scan", "--config", str(run_dir / "entropy_scan.cfg"),
                      "--output", str(out_dir / "entropy_scan.csv")])
        outputs = [Output(f"two_site_{i:02d}.csv", "open-dense/two_site_pool.csv", DENSE, POOL[i])
                   for i in picks]
        outputs.append(Output("entropy_scan.csv", "open-dense/entropy_scan_g1.5.csv", DENSE))
        return Plan(inputs={"pool_indices": list(picks), "couplings": [POOL[i] for i in picks],
                            "side": OPEN_SIDE, "boundary": "open", "engine": "dense",
                            "entropy_scan_g": ENTROPY_SCAN_G},
                    configs=configs, calls=calls, outputs=outputs)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fig2", "fig3", "open-dense")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV table; ``#`` comment lines are skipped."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    return (rows[0], rows[1:]) if rows else ([], [])


def _cell_ok(column: str, out: str, ref: str, tol: Tolerance) -> bool:
    if column == "error":
        return bool(out) == bool(ref)
    try:
        a, b = float(out), float(ref)
    except ValueError:
        return out == ref
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= tol.atol + tol.rtol * abs(b)


def compare_rows(columns: list[str], rows: list[list[str]], ref_rows: list[list[str]],
                 tol: Tolerance) -> list[int]:
    """Indices of output rows that fail: rows are matched to the reference by
    position, and missing or surplus rows fail too."""
    failed = []
    for i in range(max(len(rows), len(ref_rows))):
        out = rows[i] if i < len(rows) else None
        ref = ref_rows[i] if i < len(ref_rows) else None
        if out is None or ref is None or len(out) != len(ref) or not all(
                _cell_ok(c, o, r, tol) for c, o, r in zip(columns, out, ref)):
            failed.append(i)
    return failed


def reference_rows(output: Output) -> tuple[list[str], list[list[str]]]:
    columns, rows = read_table(REFERENCE_DIR / output.reference)
    if output.g is not None:
        rows = [r for r in rows if float(r[0]) == output.g]
    return columns, rows


def check_outputs(plan_: Plan, out_dir: Path) -> tuple[int, list[str]]:
    """(rows attempted, one description per failed row) for a run's output directory."""
    attempted, failures = 0, []
    for output in plan_.outputs:
        columns, ref_rows = reference_rows(output)
        path = out_dir / output.path
        if not path.exists():
            attempted += len(ref_rows)
            failures += [f"{output.path}: missing"] * len(ref_rows)
            continue
        out_columns, rows = read_table(path)
        attempted += max(len(rows), len(ref_rows))
        if out_columns != columns:
            failures += [f"{output.path}: header {out_columns} != {columns}"] * max(
                len(rows), len(ref_rows))
            continue
        tol = output.tolerance
        failures += [f"{output.path}: row {i} {rows[i] if i < len(rows) else None} != "
                     f"reference {ref_rows[i] if i < len(ref_rows) else None} "
                     f"(rtol {tol.rtol:g}, atol {tol.atol:g})"
                     for i in compare_rows(columns, rows, ref_rows, tol)]
    return attempted, failures
