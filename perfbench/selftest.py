"""Self-test of the benchmark's correctness gate and output format.

Usage (from the repository root): python3 perfbench/selftest.py

1. Every workload's reference, laid out as a run would write it, passes
   the gate; one cell moved beyond its tolerance fails exactly that row;
   moved within tolerance it passes; a refusal where the reference has a
   value fails exactly that row; a run that exits non-zero fails every row.
2. A clean fig3 run, untraced and traced, prints a
   correct result with every metric BENCHMARK.json names.
3. In a directory holding only BENCHMARK.json and the
   benchmark, the command exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import Runner

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def write_table(path: Path, columns: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# config sha256:selftest\n")
        csv.writer(fh, lineterminator="\n").writerows([columns] + rows)


def lay_out(plan: workloads.Plan, out_dir: Path) -> None:
    """Write the reference rows of every planned output as the CLI would."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for output in plan.outputs:
        write_table(out_dir / output.path, *workloads.reference_rows(output))


def edit_cell(path: Path, row: int, column: str, edit) -> None:
    columns, rows = workloads.read_table(path)
    cell = columns.index(column)
    rows[row][cell] = edit(rows[row][cell])
    write_table(path, columns, rows)


def check_gate() -> None:
    work = BENCH_DIR / ".work" / "selftest"
    # (workload, output index, row, numeric column) of the cell to perturb
    cases = (("fig2", 5, 3, "entropy_bits"), ("fig3", 0, 10, "dzeta1_dg_richardson"),
             ("fig3", 2, 199, "dzeta1_dg_raw"), ("open-dense", 4, 1, "zeta"),
             ("open-dense", 24, 9, "entropy_bits"))
    for workload, index, row, column in cases:
        plan = workloads.plan(workload, 7, work, work / "out")
        lay_out(plan, work / "out")
        attempted, bad = workloads.check_outputs(plan, work / "out")
        expect(attempted > 0 and not bad, f"{workload}: reference passes ({attempted} rows)")

        output = plan.outputs[index]
        tol = output.tolerance
        path = work / "out" / output.path
        for scale, expected in ((0.5, 0), (2.0, 1)):
            lay_out(plan, work / "out")
            # shift by `scale` times the allowed deviation of this cell
            edit_cell(path, row, column, lambda v: repr(
                float(v) + scale * (tol.atol + tol.rtol * abs(float(v)))))
            _, bad = workloads.check_outputs(plan, work / "out")
            expect(len(bad) == expected,
                   f"{workload}: {output.path} row {row} moved {scale}x tolerance "
                   f"-> {len(bad)} failed rows (want {expected})")

    plan = workloads.plan("fig3", 7, work, work / "out")
    lay_out(plan, work / "out")
    edit_cell(work / "out" / "fig3_m21.csv", 5, "error", lambda v: "spurious refusal")
    _, bad = workloads.check_outputs(plan, work / "out")
    expect(len(bad) == 1, f"fig3: refusal on a valued row -> {len(bad)} failed rows (want 1)")

    runner = Runner(ROOT, "open-dense", 7)
    lay_out(runner.plan, runner.out_dir)
    attempted, bad = runner.check({"ok": True, "codes": [0] * 24 + [1]})
    expect(len(bad) == attempted, f"open-dense: a non-zero exit fails all {attempted} rows")
    shutil.rmtree(work)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_clean_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "fig3",
                               "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=180)
        result = last_json(proc.stdout)
        expect(proc.returncode == 0 and result is not None
               and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"fig3 --trace {trace}: exit 0 with a result line")
        if result is None:
            continue
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"fig3 --trace {trace}: correct, {result['failed']} of "
               f"{result['attempted']} rows failed")
        names = [m["name"] for m in wanted]
        expect(list(result["metrics"]) == names, f"fig3 --trace {trace}: every metric present")


def check_bare_directory() -> None:
    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig3", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None,
           f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    check_gate()
    check_clean_runs()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
