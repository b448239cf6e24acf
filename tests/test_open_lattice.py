"""The open lattice's closed-form engine end to end: against the benchmark's
committed references, and at a size whose dense V would not fit in memory."""

import importlib

import numpy as np
import pytest

from spinwave.cli import main


@pytest.fixture
def workloads(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    return importlib.import_module("workloads")


def test_open_reference_pool_passes(workloads, tmp_path):
    # the whole pool of 96 two-site couplings and the g = 1.5 entropy scan,
    # every row within the DENSE tolerance of the eigh reference
    out = tmp_path / "out"
    out.mkdir()
    plan = workloads.plan("open-dense", None, tmp_path, out)
    for name, text in plan.configs.items():
        (tmp_path / name).write_text(text)
    for call in plan.calls:
        assert main(call) == 0
    attempted, failures = workloads.check_outputs(plan, out)
    assert (attempted, failures) == (298, [])


@pytest.fixture
def no_dense_potential(monkeypatch):
    """Every route to the dense V raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense potential was built")

    for name in ("spinwave.model.build_potential", "spinwave.groundstate.build_potential",
                 "spinwave.groundstate.covariance_dense"):
        monkeypatch.setattr(name, refuse)


def _table(capsys, tmp_path, text, subcommand):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg)]) == 0
    return [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[2:]]


def test_open_side_200_two_site_matches_infinite(no_dense_potential, capsys, tmp_path):
    # 40000 sites; the pairs at the center sit 100 sites from every edge,
    # far beyond the correlation length at g = 1.5
    scan = "g_min = 1.5\ng_samples = 1\n"
    open_rows = _table(capsys, tmp_path, "boundary = open\nside = 200\n" + scan, "two-site")
    infinite_rows = _table(capsys, tmp_path, "boundary = infinite\n" + scan, "two-site")
    assert len(open_rows) == len(infinite_rows) == 3
    for got, want in zip(open_rows, infinite_rows):
        assert got[:2] == want[:2] and got[6:] == want[6:]
        assert np.allclose(np.array(got[2:6], float), np.array(want[2:6], float), rtol=1e-9, atol=0)


def test_open_side_200_gap_scan(no_dense_potential, capsys, tmp_path):
    # the DST-I grid lies inside the zone, so the open gap sits just above the infinite one
    scan = "g_min = 1.5\ng_samples = 1\n"
    (_, open_gap, _), = _table(capsys, tmp_path, "boundary = open\nside = 200\n" + scan, "gap-scan")
    (_, infinite_gap, _), = _table(capsys, tmp_path, "boundary = infinite\n" + scan, "gap-scan")
    assert 0 < float(open_gap) - float(infinite_gap) < 1e-3 * float(infinite_gap)
