"""The benchmark's tracer rebinds module-level functions by name
(``perfbench/tracing.py``, ``TARGETS``): every such name must exist, and the
traced engines must be read from their module when they run."""

import importlib

import pytest

from spinwave import LatticeSpec, groundstate
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


def test_periodic_sweep_calls_the_module_fft_engine(monkeypatch):
    # a rebinding of groundstate.covariance_pbc_fft, as the tracer makes,
    # sees every stencil coupling of a periodic sweep: four per g
    engine, calls = groundstate.covariance_pbc_fft, []

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(groundstate, "covariance_pbc_fft", counted)
    gs = [1.0, 1.2, 1.4]
    estimates = derivative_sweep(params_at(0.0), LatticeSpec.periodic(9), gs)
    assert not any(isinstance(est, Exception) for est in estimates)
    assert len(calls) == 4 * len(gs)
