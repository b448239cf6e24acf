"""Benchmark runner: runs a workload for a fixed time and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2|fig3|open-dense|all --seed N \\
        --seconds S --trace 0|1

Each repetition runs the workload's recipe in a fresh child interpreter
(``child.py``), one at a time, with the package imported from ``src/`` of
the current directory and BLAS left at its default threading.  Every
repetition's outputs are checked against ``reference/``.  Repetitions
continue while another is expected to end within ``--seconds``; an
untraced run makes at least two, a traced run at least one pair.
Set-up-only children, spread between the repetitions, bring the set-up
samples to ``SETUP_SAMPLES``; they do not count against ``--seconds``.
Metrics are medians over repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the spans, with the traced-minus-untraced wall time
as ``trace.overhead_s``.

``--workload all`` runs every workload in turn, each as its own run.  For
a single workload, the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  The full record (environment, inputs, every
sample, failed rows) is written to ``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
# A run must end within 180 s; stop spawning children well before that.
RUN_LIMIT_S = 170.0
# Untraced runs always make this many repetitions, so that even fig2 (one
# repetition is most of a run) reports a median of several.
MIN_PLAIN_REPS = 2
# Set-up is timed in every child; set-up-only children top the samples up
# to this many, so that the median of set-up rests on as many in every run.
SETUP_SAMPLES = 12


def _git_commit(root: Path):
    if not (root / ".git").exists():  # the benchmark may run from a plain copy
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "spinwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Runner:
    """Spawns child runs of one workload and checks their outputs."""

    def __init__(self, root: Path, workload: str, seed: int | None):
        self.root = root
        self.work = BENCH_DIR / ".work" / workload
        self.out_dir = self.work / "out"
        self.work.mkdir(parents=True, exist_ok=True)
        # scratch of an earlier run; its result-*.json records are kept
        for old in [*self.work.glob("*.cfg"), *self.work.glob("spec-*.json"),
                    self.work / "spans.jsonl"]:
            old.unlink(missing_ok=True)
        self.plan = workloads.plan(workload, seed, self.work, self.out_dir)
        for name, text in self.plan.configs.items():
            (self.work / name).write_text(text)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        self.start = time.perf_counter()
        self.runs = 0

    def spawn(self, calls, trace: bool) -> dict:
        """One child run; ``ok`` is False if it crashed, timed out or printed no result."""
        run_id = f"r{self.runs}"
        self.runs += 1
        spec_path = self.work / f"spec-{run_id}.json"
        spans_path = self.work / "spans.jsonl"
        spec_path.write_text(json.dumps({
            "configs": list(self.plan.configs.values()) or [""], "calls": calls,
            "trace": trace, "run_id": run_id, "spans_path": str(spans_path)}))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                                stdout=subprocess.PIPE, env=self.env, cwd=self.root, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "why": f"timed out after {timeout:.0f} s"}
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.communicate()
            spec_path.unlink()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "why": f"child exited {proc.returncode}"}
        result = json.loads(lines[-1])
        result["ok"] = True
        result["setup_s"] = result.pop("ready") - spawned
        if trace:
            result["layers"] = tracing.layer_metrics(tracing.read_spans(spans_path))
            result["layers"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in self.out_dir.iterdir())
        return result

    def check(self, result: dict) -> tuple[int, list[str]]:
        """Rows attempted and failed by one child run; a failed run fails every row."""
        attempted, failures = workloads.check_outputs(self.plan, self.out_dir)
        if not result["ok"] or any(code != 0 for code in result["codes"]):
            why = result.get("why") or f"exit codes {result['codes']}"
            failures = [f"run failed: {why}"] * attempted
        return attempted, failures

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _median(values):
    return statistics.median(values) if values else None


def _sample_setup(runner: Runner, setup: list, count: int) -> float:
    """Run ``count`` set-up-only children; returns the time they took."""
    start = time.perf_counter()
    for _ in range(count):
        if runner.elapsed() > RUN_LIMIT_S - 10:
            break
        result = runner.spawn([], False)
        if result["ok"]:
            setup.append(result["setup_s"])
    return time.perf_counter() - start


def measure(runner: Runner, seconds: int, trace: bool) -> dict:
    runner.spawn([], False)  # warm-up: byte-compile and fill the file cache
    start = time.perf_counter()
    plain, traced, setup, failures = [], [], [], []
    attempted = 0
    unit_times = []
    setup_time = 0.0  # spent in set-up-only children, which do not use up --seconds
    reps_per_unit = 2 if trace else 1
    min_units = 1 if trace else MIN_PLAIN_REPS
    while True:
        # Set-up-only children are spread over the gaps before each unit and
        # after the last, so that set-up samples meet the machine's speed
        # phases as the repetitions do, not a single burst.
        if unit_times:
            window = time.perf_counter() - start - setup_time
            units_left = max(min_units - len(unit_times), math.ceil(
                (seconds - window) / statistics.median(unit_times)), 1)
            missing = SETUP_SAMPLES - len(setup) - units_left * reps_per_unit
            setup_time += _sample_setup(runner, setup, math.ceil(max(0, missing) / (units_left + 1)))
        else:
            setup_time += _sample_setup(runner, setup, 1)
        unit_start = time.perf_counter()
        # a traced run alternates which half of the pair goes first
        order = ((False, True), (True, False))[len(unit_times) % 2] if trace else (False,)
        for with_trace in order:
            result = runner.spawn(runner.plan.calls, with_trace)
            n, bad = runner.check(result)
            attempted += n
            failures += bad
            if result["ok"]:
                setup.append(result["setup_s"])
                (traced if with_trace else plain).append(result)
        unit_times.append(time.perf_counter() - unit_start)
        if failures and not (plain or traced):
            break
        expected = statistics.median(unit_times)
        if runner.elapsed() + expected > RUN_LIMIT_S:
            break
        if (time.perf_counter() - start - setup_time + expected > seconds
                and len(unit_times) >= min_units):
            break
    _sample_setup(runner, setup, SETUP_SAMPLES - len(setup))

    stack = (plain or traced or [{}])[0].get("stack")
    metrics = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "setup_s": _median(setup),
        "cpu_s": _median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    if traced and plain:
        for name in traced[0]["layers"]:
            metrics[name] = _median([r["layers"][name] for r in traced])
        metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - metrics["wall_s"]
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "stack": stack,
            "samples": {"wall_s": [r["wall_s"] for r in plain],
                        "traced_wall_s": [r["wall_s"] for r in traced],
                        "setup_s": setup, "cpu_s": [r["cpu_s"] for r in plain],
                        "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}}


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: int,
                 trace: int) -> int:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    runner = Runner(root, workload, seed)
    measured = measure(runner, seconds, bool(trace))
    missing = [m["name"] for m in wanted if measured["metrics"].get(m["name"]) is None]
    if missing:
        print(f"perfbench: {workload}: no value for {missing}; "
              f"failures: {measured['failures'][:5]}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = measured["attempted"], len(measured["failures"])

    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "cpu_model": _cpu_model(), "python": platform.python_version(),
           **(measured["stack"] or {}), "git_commit": _git_commit(root),
           "src_sha256": _src_digest(root), "workload": workload, "seed": seed,
           "seconds": seconds, "trace": trace, "inputs": runner.plan.inputs}
    record = {"env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": measured["failures"][:50],
              "samples": measured["samples"], "all_metrics": measured["metrics"]}
    (runner.work / f"result-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for failure in measured["failures"][:10]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} ({failed} of {attempted} rows)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "spinwave" / "__init__.py").is_file() or not spec_file.is_file():
        print("perfbench: run from a checkout holding BENCHMARK.json and src/spinwave",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(root, spec, name, args.seed, args.seconds, args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
