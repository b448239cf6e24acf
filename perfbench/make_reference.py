"""Regenerate the reference outputs in ``perfbench/reference/``.

Usage (from the repository root): python3 perfbench/make_reference.py

Each workload's recipe runs once, through the same child process and plan
the benchmark measures; open-dense runs its whole coupling pool.  The
committed references were written at the commit that introduced the
benchmark.  Rerun this only when a change is *meant* to alter recipe
outputs, and say so in that change: the references are what the
benchmark's correctness gate compares against.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import workloads
from run import Runner

ROOT = Path.cwd()


def main() -> int:
    if not (ROOT / "src" / "spinwave" / "__init__.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    for workload in workloads.WORKLOADS:
        runner = Runner(ROOT, workload, None)
        result = runner.spawn(runner.plan.calls, False)
        if not result["ok"] or any(result["codes"]):
            print(f"{workload}: {result.get('why') or result['codes']}", file=sys.stderr)
            return 1
        # outputs that share a reference (the pool's two-site tables) are
        # concatenated in plan order under one header
        shared: dict[str, list[str]] = {}
        for output in runner.plan.outputs:
            target = workloads.REFERENCE_DIR / output.reference
            lines = (runner.out_dir / output.path).read_text().splitlines()
            if output.g is None:
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(runner.out_dir / output.path, target)
                continue
            header = [f"# {workload}: every coupling of the pool, one CLI call each", lines[1]]
            shared.setdefault(output.reference, header).extend(lines[2:])
        for reference, lines in shared.items():
            (workloads.REFERENCE_DIR / reference).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
