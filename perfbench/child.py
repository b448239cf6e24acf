"""One measured recipe run, in a fresh interpreter started by ``run.py``.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the config texts the recipe uses, the argument lists passed to
``spinwave.cli.main`` in order, and whether to trace.  The run:

1. imports spinwave and parses every config: this is set-up, and the
   moment it ends is reported as ``ready`` on the system-wide monotonic
   clock, so the parent can time it from the moment it spawned us;
2. optionally installs the tracer (after ``ready``, so set-up is never
   traced);
3. calls ``cli.main`` for each argument list, timing wall and CPU (all
   threads of this process, so BLAS threads count);
4. prints one JSON line: timings, exit codes, peak RSS (``VmHWM``) and the
   numerical stack this interpreter actually loaded.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``ru_maxrss`` is not used: across exec, Linux carries over the parent's
    high-water mark, so a large parent would inflate every child's figure.
    ``VmHWM`` belongs to the memory map created by exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _stack_info(spinwave) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "spinwave_file": spinwave.__file__}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import spinwave
    from spinwave import cli

    for text in spec["configs"]:
        spinwave.parse_config(text)
    ready = time.perf_counter()

    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer(spec["run_id"])
        tracer.install()

    codes = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # argparse usage errors
            codes.append(exc.code)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.write(spec["spans_path"])
    print(json.dumps({"ready": ready, "wall_s": wall, "cpu_s": cpu, "codes": codes,
                      "peak_rss_mb": _peak_rss_mb(), "stack": _stack_info(spinwave)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
