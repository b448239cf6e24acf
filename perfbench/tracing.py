"""Span recording around the public functions of each spinwave module.

The benchmark measures layers from outside the package: ``Tracer.install``
replaces each traced function with a timing wrapper in *every* module that
holds a binding to it.  ``from .groundstate import covariance_infinite``
creates a separate name in each importing module, so rebinding only the
defining module would miss most calls (``entanglement.covariance_infinite``,
``groundstate.dispersion_value``, ``scan.symplectic_spectrum`` ...).
Function-local imports (``from .model import build_potential`` inside a
function body) read the defining module at call time and see the wrapper.

Spans are kept in memory as tuples and written as JSON lines once, at the
end of the traced run.  ``layer_metrics`` turns a span list into per-layer
self times and counts; it needs no numpy, so the benchmark runner can use it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, metric prefix, suffix of the self-time metric).
# Containers whose own work is what remains after their children use
# "self_s"; the others report their self time as "s".
TARGETS = (
    ("spinwave.spectrum", "dispersion_value", "spectrum.dispersion_value", "s"),
    ("spinwave.spectrum", "zone_minimum", "spectrum.zone_minimum", "s"),
    ("spinwave.groundstate", "covariance_infinite", "groundstate.covariance_infinite", "s"),
    ("spinwave.groundstate", "covariance_pbc_fft", "groundstate.covariance_pbc_fft", "s"),
    ("spinwave.groundstate", "covariance_dense", "groundstate.covariance_dense", "s"),
    ("spinwave.model", "build_potential", "model.build_potential", "s"),
    ("spinwave.entanglement", "entropy_vs_L", "entanglement.entropy_vs_L", "self_s"),
    ("spinwave.entanglement", "symplectic_spectrum", "entanglement.symplectic_spectrum", "s"),
    ("spinwave.entanglement", "block_entropy", "entanglement.block_entropy", "s"),
    ("spinwave.entanglement", "two_site_params", "entanglement.two_site_params", "s"),
    ("spinwave.scan", "derivative_zeta", "scan.derivative_zeta", "self_s"),
    ("spinwave.cli", "main", "cli", "self_s"),
)

SELF_SUFFIX = {prefix: suffix for _, _, prefix, suffix in TARGETS}
DISPERSION = "spectrum.dispersion_value"
QUADRATURE = "groundstate.covariance_infinite"


class Tracer:
    """Collects (name, start, end, parent, shape) spans for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # the result's shape gives dispersion points and grid sizes
                spans[index] = (name, start, end, parent, getattr(result, "shape", None))

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded spinwave module."""
        for module_name, func_name, prefix, _ in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(prefix, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "spinwave" or name.startswith("spinwave.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, shape) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id,
                                     "shape": list(shape) if shape is not None else None}))
                fh.write("\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time and call count per traced function, plus derived counts.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    ``groundstate.quad_levels`` counts, over all quadrature calls, the
    distinct grid sizes of the dispersion evaluations made directly by the
    call (one size per doubling level; the zone-minimum search is a nested
    call and is not counted).
    """
    child_time: dict[int, float] = defaultdict(float)
    grid_sizes: dict[int, set] = defaultdict(set)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        child_time[parent] += s["end"] - s["start"]
        shape = s["shape"]
        if (s["name"] == DISPERSION and by_id[parent]["name"] == QUADRATURE
                and shape is not None and len(shape) == 2):
            grid_sizes[parent].add(shape[0])

    metrics: dict[str, float] = {}
    for prefix, suffix in SELF_SUFFIX.items():
        metrics[f"{prefix}.{suffix}"] = 0.0
        metrics[f"{prefix}.calls"] = 0
    points = 0
    for s in spans:
        prefix = s["name"]
        metrics[f"{prefix}.{SELF_SUFFIX[prefix]}"] += s["end"] - s["start"] - child_time[s["id"]]
        metrics[f"{prefix}.calls"] += 1
        if prefix == DISPERSION and s["shape"] is not None:
            n = 1
            for extent in s["shape"]:
                n *= extent
            points += n
    metrics[f"{DISPERSION}.points"] = points
    metrics["groundstate.quad_levels"] = sum(len(sizes) for sizes in grid_sizes.values())
    metrics["trace.spans"] = len(spans)
    return metrics
