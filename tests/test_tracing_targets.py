"""The benchmark's tracer rebinds module-level functions by name
(``perfbench/tracing.py``, ``TARGETS``): every such name must exist, and the
traced layers must be read from their module when they run."""

import importlib
import sys

import pytest

from spinwave import LatticeSpec, entanglement, spectrum
from spinwave.scan import derivative_sweep

from conftest import params_at


@pytest.fixture
def tracing(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    missing = [(module, name) for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_periodic_sweep_evaluates_every_grid_through_the_module_symbol(monkeypatch):
    # a periodic sweep runs as blocks, not one covariance_pbc_fft call per
    # coupling; a rebinding of spectrum.dispersion_value, as the tracer makes,
    # still sees the grid of every stencil coupling: four per g, one call for
    # the twelve 5 x 5 quadrant grids of the side-9 lattice
    symbol, sizes = spectrum.dispersion_value, []

    def counted(*args, **kwargs):
        v = symbol(*args, **kwargs)
        sizes.append(v.size)
        return v

    monkeypatch.setattr(spectrum, "dispersion_value", counted)
    gs = [1.0, 1.2, 1.4]
    estimates = derivative_sweep(params_at(0.0), LatticeSpec.periodic(9), gs)
    assert not any(isinstance(est, Exception) for est in estimates)
    assert sizes == [4 * len(gs) * 5 * 5]


def test_sweep_reads_every_stable_pair_in_one_two_site_params_call(monkeypatch):
    # rebound in every module that holds it, as the tracer does: one call per
    # sweep, holding the four stencil couplings of each stable g; g = 2.0 is
    # beyond the side-9 lattice's critical coupling and is left out
    pair, batches = entanglement.two_site_params, []

    def counted(Q, P):
        batches.append(Q.shape[:-2])
        return pair(Q, P)

    for module in [m for name, m in sys.modules.items() if name.startswith("spinwave")]:
        for attr, value in list(vars(module).items()):
            if value is pair:
                monkeypatch.setattr(module, attr, counted)
    estimates = derivative_sweep(params_at(0.0), LatticeSpec.periodic(9), [1.0, 2.0, 1.4])
    assert [isinstance(est, Exception) for est in estimates] == [False, True, False]
    assert batches == [(8, 1)]
