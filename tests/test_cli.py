import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinwave import (ConfigError, LatticeSpec, RunConfig, config_digest, parse_config,
                      serialize_config)
from spinwave import cli
from spinwave.cli import _paper_config, main


def test_empty_config_is_all_defaults():
    assert parse_config("") == RunConfig()


def test_reference_parameter_config():
    cfg = parse_config("omega = 500\nn_atoms = 1000\n")
    assert cfg.omega == 500.0 and cfg.n_atoms == 1000
    assert cfg.kappa == 1.0 and cfg.side == 80  # defaults elsewhere


# the quadrature runs at fixed constants; its former keys are unknown too
UNKNOWN_KEYS = ("boundry", "quad_base", "quad_rel_tol", "quad_max_doublings")


def test_unknown_key_names_line():
    for key in UNKNOWN_KEYS:
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' \(line 1\)"):
            parse_config(f"{key} = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"duplicate key 'omega' \(line 3"):
        parse_config("omega = 500\nkappa = 1\nomega = 400\n")


def test_type_and_constraint_errors_name_key_and_line():
    with pytest.raises(ConfigError, match=r"'n_atoms' \(line 2\)"):
        parse_config("omega = 500\nn_atoms = lots\n")
    with pytest.raises(ConfigError, match=r"'engine' \(line 1\)"):
        parse_config("engine = warp\n")
    with pytest.raises(ConfigError, match=r"'block_sizes' \(line 1\)"):
        parse_config("block_sizes = 4,2\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nomega = 250  # trailing note\n")
    assert cfg.omega == 250.0


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="side >= 3"):
        parse_config("side = 2\nboundary = periodic\n")
    with pytest.raises(ConfigError, match="g_max"):
        parse_config("g_min = 2.0\ng_max = 1.0\n")


def test_round_trip_identity():
    text = ("omega = 321.5\ng1 = 0.0001\ng2 = 1.7\nboundary = infinite\n"
            "block_sizes = 2,3,5\ng_max = 1.6180339887498949\nformat = json\n")
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
INCREASING = st.lists(st.integers(1, 500), min_size=1, max_size=6, unique=True).map(
    lambda v: tuple(sorted(v)))
PATHS = st.text(alphabet="abcxyz019._/-", min_size=1, max_size=12)


@st.composite
def run_configs(draw):
    """Every field drawn from its valid range, consistent across fields: the
    engine is "auto" or the drawn lattice's own."""
    boundary = draw(st.sampled_from(["periodic", "open", "infinite"]))
    own = {"periodic": "fft", "open": "dense", "infinite": "infinite"}[boundary]
    g_min = draw(NON_NEGATIVE)
    phase_g1_min = draw(NON_NEGATIVE)
    return RunConfig(
        omega=draw(POSITIVE), kappa=draw(POSITIVE), n_atoms=draw(st.integers(1, 10 ** 6)),
        g1=draw(NON_NEGATIVE), g2=draw(NON_NEGATIVE),
        side=draw(st.integers(3 if boundary == "periodic" else 2, 1000)), boundary=boundary,
        engine=draw(st.sampled_from(["auto", own])),
        entropy_mode=draw(st.sampled_from(["degenerate_once", "count_all"])),
        pairing_tol=draw(POSITIVE), block_sizes=draw(INCREASING), g_min=g_min,
        g_max=draw(st.just("auto") | st.floats(min_value=g_min, allow_infinity=False)),
        g_samples=draw(st.integers(1, 10 ** 4)), derivative_step=draw(POSITIVE),
        m_list=draw(INCREASING), phase_g1_min=phase_g1_min,
        phase_g1_max=draw(st.floats(min_value=phase_g1_min, allow_infinity=False)),
        phase_g1_samples=draw(st.integers(1, 10 ** 4)),
        max_displacement=draw(st.integers(0, 100)),
        output=draw(PATHS), out_dir=draw(PATHS), format=draw(st.sampled_from(["csv", "json"])))


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_round_trip_generated_configs(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_digest_tracks_content():
    a = parse_config("omega = 500\n")
    b = parse_config("omega = 501\n")
    assert config_digest(a) != config_digest(b)
    assert config_digest(a) == config_digest(parse_config("omega = 500\n"))
    # output destination does not change what was computed
    assert config_digest(a) == config_digest(parse_config("omega = 500\noutput = x.csv\n"))
    # pinned: a new hash or serialization would move every table's digest line
    assert config_digest(RunConfig()) == "d0f6677ec9e6"


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_digest_is_the_sha256_of_the_physics_lines(cfg):
    # the built-in SHA-256 gives hashlib's digest of the same text
    text = serialize_config(cfg, ("output", "out_dir", "format"))[:-1]
    assert config_digest(cfg) == hashlib.sha256(text.encode()).hexdigest()[:12]


def small_cfg(tmp_path, extra=""):
    text = ("side = 8\nblock_sizes = 2,3\ng1 = 1.2\ng2 = 1.2\n"
            "g_min = 1.0\ng_max = 1.4\ng_samples = 3\n" + extra)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_cli_entropy_scan_stdout(tmp_path, capsys):
    code = main(["entropy-scan", "--config", str(small_cfg(tmp_path))])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config sha256:")
    assert lines[1] == "L,entropy_bits,mode,engine"
    assert len(lines) == 4


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for key in UNKNOWN_KEYS:
        bad.write_text(f"{key} = 1\n")
        assert main(["entropy-scan", "--config", str(bad)]) == 2
        assert f"unknown key '{key}' (line 1)" in capsys.readouterr().err

    hot = tmp_path / "hot.cfg"
    hot.write_text("g1 = 2.0\ng2 = 2.0\nside = 8\nblock_sizes = 2\n")
    assert main(["entropy-scan", "--config", str(hot)]) == 1
    err = capsys.readouterr().err
    assert "beyond critical coupling (min v = " in err

    # g = 1.7403 is above g_c = 1.74028, yet no mode of the odd side-81
    # lattice reaches the critical wavevector (pi, pi): every mode is stable
    odd = tmp_path / "odd.cfg"
    odd.write_text("side = 81\ng1 = 1.7403\ng2 = 1.7403\ng_min = 1.7403\ng_samples = 1\n"
                   "block_sizes = 2,4\n")
    for subcommand in ("entropy-scan", "two-site", "gap-scan"):
        assert main([subcommand, "--config", str(odd)]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[2:]]
        assert rows and all(np.isfinite(float(row[1 if subcommand != "two-site" else 2]))
                            for row in rows)

    assert main(["entropy-scan", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()

    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_cli_infinite_key_is_unknown(tmp_path, capsys):
    # boundary = infinite names the infinite lattice; the former flag has no alias
    cfg = tmp_path / "old.cfg"
    cfg.write_text("boundary = open\ninfinite = true\nside = 9\n")
    out = tmp_path / "scan.csv"
    assert main(["entropy-scan", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown key 'infinite' (line 2)\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["entropy-scan", "two-site", "derivative-scan",
                                        "gap-scan", "covariance"])
def test_cli_infinite_boundary_ignores_side(tmp_path, capsys, subcommand):
    # side = 2 would refuse every block, pair and periodic lattice were it read
    tables = []
    for side in ("", "side = 2\n"):
        cfg = tmp_path / "infinite.cfg"
        cfg.write_text(f"boundary = infinite\n{side}block_sizes = 2,4\nmax_displacement = 2\n"
                       "g_min = 1.2\ng_max = 1.4\ng_samples = 2\n")
        assert main([subcommand, "--config", str(cfg)]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    # only the digest line differs: side is part of the digest
    assert tables[0][1:] == tables[1][1:] and len(tables[0]) > 2
    if subcommand == "entropy-scan":
        assert [row.split(",")[-1] for row in tables[0][2:]] == ["infinite", "infinite"]


@pytest.mark.parametrize("text, message", [
    ("block_sizes = ,", "bad value for 'block_sizes' (line 2): expected a comma-separated "
                        "list of integers"),
    ("omega = 0", "invalid value for 'omega' (line 2): must be positive"),
    ("derivative_step = -1e-4", "invalid value for 'derivative_step' (line 2): must be positive"),
    ("g_samples = 0", "invalid value for 'g_samples' (line 2): must be >= 1"),
    ("g1 = -0.5", "invalid value for 'g1' (line 2): must be >= 0"),
    ("side = 1", "invalid value for 'side' (line 2): must be >= 2"),
    ("m_list = 0,5", "invalid value for 'm_list' (line 2): entries must be >= 1"),
    ("omega 500", "expected 'key = value' (line 2): 'omega 500'"),
    ("phase_g1_min = 2\nphase_g1_max = 1", "phase_g1_max must be >= phase_g1_min"),
])
def test_cli_config_refusals_name_key_and_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    # each refusal on line 2, after a valid first line
    cfg.write_text(f"kappa = 1.0\n{text}\n")
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_cli_entropy_scan_near_critical_infinite(tmp_path, capsys):
    # g = g_c (1 - 1.5e-10), where a uniform 2-D zone grid does not converge by n = 16384
    cfg = tmp_path / "near.cfg"
    cfg.write_text("boundary = infinite\ng1 = 1.7402829305\ng2 = 1.7402829305\n")
    assert main(["entropy-scan", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    entropies = [float(row.split(",")[1]) for row in rows]
    assert len(entropies) == 10 and all(np.diff(entropies) > 0)


def test_cli_output_file_and_json(tmp_path):
    out = tmp_path / "table.json"
    code = main(["entropy-scan", "--config", str(small_cfg(tmp_path)),
                 "--output", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["L", "entropy_bits", "mode", "engine"]
    assert doc["config"]["side"] == 8
    assert len(doc["rows"]) == 2


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_cli_json_failed_rows_are_strict_json(tmp_path):
    # the g = 1.8 row is beyond criticality; its gap cell is null, not NaN
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("boundary = infinite\ng_min = 1.7\ng_max = 1.8\ng_samples = 2\n")
    out = tmp_path / "gap.json"
    assert main(["gap-scan", "--config", str(cfg), "--output", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["rows"][1][:2] == [1.8, None] and "critical" in doc["rows"][1][2]


def test_cli_identical_config_identical_bytes(tmp_path):
    cfg = small_cfg(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["two-site", "--config", str(cfg), "--output", str(a)]) == 0
    assert main(["two-site", "--config", str(cfg), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_gap_scan_and_phase_diagram(tmp_path, capsys):
    cfg = small_cfg(tmp_path, extra="phase_g1_samples = 4\n")
    assert main(["gap-scan", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "g,gap,error"
    assert len(lines) == 5

    assert main(["phase-diagram", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "g1,g2_critical_closed_form,g2_critical_numeric,branch"
    branches = [ln.split(",")[-1] for ln in lines[2:]]
    assert branches[0] == "above" and branches[-1] == "below"


def test_cli_covariance_engines(tmp_path, capsys):
    cfg = small_cfg(tmp_path, extra="max_displacement = 2\nboundary = infinite\n")
    assert main(["covariance", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "dx,dy,qq,pp"
    assert len(lines) == 2 + 9

    open_cfg = tmp_path / "open.cfg"
    open_cfg.write_text("side = 6\nboundary = open\nengine = dense\n")
    assert main(["covariance", "--config", str(open_cfg)]) == 2
    err = capsys.readouterr().err
    assert "translation invariance" in err and "boundary = periodic or infinite" in err


def test_cli_periodic_covariance_is_mirror_even(tmp_path, capsys):
    # the rows run over dx, dy = 0..M-1 of the periodic side-41 lattice; the
    # displacements d and M - d are one up to sign, so their rows carry the
    # same bytes
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("side = 41\ng1 = 1.5\ng2 = 1.5\n")
    assert main(["covariance", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "dx,dy,qq,pp"
    M, rows = 41, {}
    for line in lines[2:]:
        dx, dy, values = line.split(",", 2)
        rows[int(dx), int(dy)] = values
    assert len(rows) == M * M
    for (dx, dy), values in rows.items():
        assert rows[-dx % M, dy] == values and rows[dx, -dy % M] == values


def test_cli_out_of_memory_is_refusal(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr("spinwave.cli.covariances_for", exhausted)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("boundary = infinite\nmax_displacement = 200000\n")
    assert main(["covariance", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 298. GiB\n"


@pytest.mark.parametrize("case", ["config is a directory", "output is a directory",
                                  "config is not text"])
def test_cli_unreadable_paths_are_config_errors(tmp_path, capsys, case):
    cfg = small_cfg(tmp_path)
    args = ["gap-scan", "--config", str(cfg)]
    if case == "config is a directory":
        args[2] = str(tmp_path)
    elif case == "output is a directory":
        args += ["--output", str(tmp_path)]
    else:
        cfg.write_bytes(b"side = 8\n\xff\n")
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_derivative_and_finite_size(tmp_path, capsys):
    cfg = small_cfg(tmp_path, extra="m_list = 5,7\n")
    assert main(["derivative-scan", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "g,dzeta1_dg_raw,dzeta1_dg_richardson,error"

    assert main(["finite-size", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "M,peak_abs_derivative,g_at_peak"
    assert len(lines) == 4


def test_cli_finite_size_stencil_past_critical_is_refused(tmp_path, capsys):
    # the side-5 lattice's last grid point g = 2.5 has its stencil point
    # g + h beyond the critical coupling: the run exits 1 and writes no file
    out = tmp_path / "finite-size.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m_list = 5\ng_min = 1.0\ng_max = 2.5\ng_samples = 3\noutput = {out}\n")
    assert main(["finite-size", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: stencil point g = 2.5001 unstable: beyond critical coupling (min v = -638182)"]
    assert not out.exists()


@pytest.mark.parametrize("text", ["a, b", '"b" said', "a\nb", 'a,"b"\nc'])
def test_cli_csv_text_cell_reads_back(text):
    # no command's text cell holds these today; a CSV reader must still get it whole
    rendered = cli._render(RunConfig(), "gap-scan", ["g", "gap", "error"], [[1.0, 2.0, text]])
    rows = list(csv.reader(io.StringIO(rendered)))
    assert rows[1:] == [["g", "gap", "error"], ["1.0", "2.0", text]]


def test_cli_oracle_check(tmp_path):
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 4


def test_cli_failing_oracle_battery_exits_1_and_writes_its_report(tmp_path, monkeypatch):
    from spinwave import oracle
    report = {"all_passed": False, "checks": [{"name": "planted", "passed": False}]}
    monkeypatch.setattr(oracle, "validation_battery", lambda: report)
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--output", str(out)]) == 1
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("line, key", [("g1 = nan", "g1"), ("omega = inf", "omega"),
                                       ("g2 = -inf", "g2"), ("g_max = nan", "g_max")])
def test_cli_non_finite_is_config_error(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"side = 8\nblock_sizes = 2\n{line}\n")
    assert main(["entropy-scan", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad value for '{key}' (line 3): must be finite")


@pytest.mark.parametrize("subcommand", ["entropy-scan", "two-site", "derivative-scan",
                                        "gap-scan", "finite-size"])
@pytest.mark.parametrize("text", ["engine = fft\nboundary = open\nside = 6\n",
                                  "engine = fft\nboundary = infinite\n",
                                  "engine = dense\nboundary = infinite\n",
                                  "engine = dense\nside = 6\n",
                                  "engine = infinite\nside = 6\n",
                                  "engine = infinite\nboundary = open\nside = 6\n"])
def test_cli_engine_lattice_mismatch_is_config_error(tmp_path, capsys, subcommand, text):
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text(text + "block_sizes = 2\ng_samples = 1\n")
    assert main([subcommand, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: engine = ")


@pytest.mark.parametrize("subcommand, engine, lattice", [
    ("two-site", "dense", "boundary = open\nside = 7\n"),
    ("entropy-scan", "fft", "side = 8\n"),
    ("covariance", "infinite", "boundary = infinite\nmax_displacement = 2\n"),
])
def test_cli_own_engine_matches_auto(tmp_path, capsys, subcommand, engine, lattice):
    tables = []
    for choice in ("auto", engine):
        cfg = tmp_path / f"{choice}.cfg"
        cfg.write_text(f"{lattice}engine = {choice}\nblock_sizes = 2,3\ng_samples = 1\n")
        assert main([subcommand, "--config", str(cfg)]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    # only the digest line differs: the engine key is part of the digest
    assert tables[0][1:] == tables[1][1:] and len(tables[0]) > 2


def test_paper_recipes_keep_default_configs():
    # the recipes start from the defaults, so the default M = 80, g = 1.25 curve
    # (fig2_m80_g1.25) records the default digest
    assert _paper_config(RunConfig()) == RunConfig()


def _recorded_config(path) -> RunConfig:
    fields = json.loads(path.read_text())["config"]
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


@pytest.mark.parametrize("recipe, extra", [("reproduce-fig2", "block_sizes = 2,3\n"),
                                           ("reproduce-fig3", "g_samples = 2\nm_list = 5\n")])
def test_paper_recipes_record_a_config_that_parses(tmp_path, recipe, extra):
    # the recipes replace the input's open lattice, and with it its engine
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 30\nengine = dense\n" + extra)
    assert main([recipe, "--config", str(cfg), "--out-dir", str(tmp_path), "--format", "json"]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert written
    for path in written:
        recorded = _recorded_config(path)
        name = path.stem.split("_")[1]  # m80, infinite, m5
        computed_on = (LatticeSpec.infinite_lattice() if name == "infinite"
                       else LatticeSpec.periodic(int(name[1:])))
        assert (recorded.lattice, recorded.engine) == (computed_on, "auto")
        assert parse_config(serialize_config(recorded)) == recorded


@pytest.mark.parametrize("recipe, subcommand, extra, count", [
    ("reproduce-fig2", "entropy-scan", "block_sizes = 2,3\n", 6),
    ("reproduce-fig3", "derivative-scan", "g_samples = 2\nm_list = 5,7\n", 3),
])
def test_paper_recipe_artifacts_are_their_recorded_subcommand_runs(tmp_path, recipe, subcommand,
                                                                   extra, count):
    # JSON records the whole config; its CSV twin's digest line must name the same one
    cfg = tmp_path / "small.cfg"
    cfg.write_text(extra)
    for fmt in ("csv", "json"):
        (tmp_path / fmt).mkdir()
        assert main([recipe, "--config", str(cfg), "--out-dir", str(tmp_path / fmt),
                     "--format", fmt]) == 0
    artifacts = sorted((tmp_path / "json").glob("*.json"))
    assert len(artifacts) == count
    for path in artifacts:
        recorded = _recorded_config(path)
        twin = tmp_path / "csv" / (path.stem + ".csv")
        # both name the subcommand; the CSV line keeps the digest prefix
        assert json.loads(path.read_text())["command"] == subcommand
        assert twin.read_text().splitlines()[0] == (
            f"# config sha256:{config_digest(recorded)} command:{subcommand}")
        for run in (recorded, replace(recorded, format="csv", output=str(twin))):
            artifact = Path(run.output)
            assert artifact.parent.parent == tmp_path
            made_by_recipe = artifact.read_bytes()
            artifact.unlink()
            cfg.write_text(serialize_config(run))
            assert main([subcommand, "--config", str(cfg)]) == 0
            assert artifact.read_bytes() == made_by_recipe


@pytest.mark.parametrize("subcommand", ["gap-scan", "two-site", "entropy-scan", "phase-diagram"])
@pytest.mark.parametrize("line", [
    pytest.param("n_atoms = 100000000000000000000", id="n_atoms-beyond-2**64"),
    pytest.param("n_atoms = 1" + "0" * 400, id="n_atoms-beyond-float-range"),
    pytest.param("omega = 1e200", id="on-site-overflows"),
    # omega (omega + 4 kappa N) = 4e-337 rounds to 0: phase-diagram's bracket held no root
    pytest.param("omega = 1e-170\nkappa = 1e-170", id="on-site-underflows"),
])
def test_cli_overflowing_parameters_are_config_errors(tmp_path, capsys, subcommand, line):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{line}\nside = 8\nblock_sizes = 2\ng_samples = 1\n")
    out = tmp_path / "out.csv"
    assert main([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["derivative-scan", "finite-size"])
def test_cli_overflowing_stencil_is_a_config_error(tmp_path, capsys, subcommand):
    # g_min's potential fits the float range, g_max's (and its stencil's) does not
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("omega = 1e150\nn_atoms = 1\nside = 8\ng_min = 5.2e157\ng_max = 5.3e157\n"
                   "g_samples = 2\nm_list = 5\n")
    out = tmp_path / "out.csv"
    assert main([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
    assert "the potential overflows" in capsys.readouterr().err
    assert not out.exists()


def test_cli_two_site_overflowing_grid_is_a_config_error(tmp_path, capsys):
    # g_min's potential fits the float range, g_max's does not
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("omega = 1e150\nn_atoms = 1\nside = 8\ng_min = 1.0\ng_max = 5.3e157\n"
                   "g_samples = 3\n")
    out = tmp_path / "out.csv"
    assert main(["two-site", "--config", str(cfg), "--output", str(out)]) == 2
    assert "the potential overflows" in capsys.readouterr().err
    assert not out.exists()


def test_cli_two_site_asymmetric_pair_in_row(tmp_path, capsys):
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 6\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 3 and all("asymmetric pair" in row for row in rows)


def test_cli_two_site_refuses_each_pair_class_on_its_own(tmp_path, capsys):
    # on the open side-30 lattice at this g the nearest-neighbor and diagonal
    # pairs are symmetric to 1e-6 and the distance-2 pair is not: one row each
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 30\ng_min = 1.7178658574734504\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[2:]]
    assert [row[1] for row in rows] == ["nn", "diagonal", "distance2"]
    assert rows[0][-1] == rows[1][-1] == "" and "nan" not in rows[0] + rows[1]
    assert rows[2][2:7] == ["nan"] * 4 + [""] and rows[2][-1].startswith("asymmetric pair")


def test_cli_two_site_open_lattice_too_small(tmp_path, capsys):
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 4\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 2
    assert "side >= 5" in capsys.readouterr().err


# the smallest side each subcommand runs: its pairs (center, center + offset)
# reach 2 sites for two-site and 1 for derivative-scan; an open lattice holds
# them from side 2 r + 1, a periodic one keeps them from wrapping from 2 r, and
# no periodic lattice is below side 3
LEAST_SIDE = {("two-site", "open"): 5, ("two-site", "periodic"): 4,
              ("derivative-scan", "open"): 3, ("derivative-scan", "periodic"): 3}


@pytest.mark.parametrize("side", range(2, 13))
@pytest.mark.parametrize("subcommand, boundary", list(LEAST_SIDE))
def test_cli_pair_commands_refuse_exactly_the_lattices_too_small(tmp_path, capsys, subcommand,
                                                                 boundary, side):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"boundary = {boundary}\nside = {side}\ng_min = 1.0\ng_samples = 1\n")
    least = LEAST_SIDE[subcommand, boundary]
    code = main([subcommand, "--config", str(cfg)])
    err = capsys.readouterr().err
    if side >= least:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err.startswith("config error: ")
        # below side 3 the periodic lattice itself is refused
        least = 3 if boundary == "periodic" and side < 3 else least
        assert f"side >= {least}" in err
        assert "'side'" in err or least == 3 and boundary == "periodic"


@pytest.mark.parametrize("subcommand, text, extent", [
    ("covariance", "max_displacement = 3000000000", 3000000000),
    ("entropy-scan", "block_sizes = 3000000000", 2999999999),
])
def test_cli_unrepresentable_infinite_table_is_refusal(tmp_path, capsys, subcommand, text,
                                                       extent):
    # the extent's (extent + 1)^2 entries overflow an array index; the size is
    # checked before any allocation
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"boundary = infinite\n{text}\n")
    assert main([subcommand, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"extent {extent} " in err and "too large" in err


def test_cli_two_site_keeps_bugs_out_of_rows(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("programming error")

    monkeypatch.setattr("spinwave.entanglement.two_site_params", broken)
    with pytest.raises(ValueError, match="programming error"):
        main(["two-site", "--config", str(small_cfg(tmp_path))])


def test_cli_scans_record_failures_in_row(tmp_path, capsys):
    cfg = small_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("g_max = 1.4", "g_max = 1.8"))
    for subcommand in ("gap-scan", "derivative-scan"):
        assert main([subcommand, "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == 3
        assert rows[0].endswith(",") and ",nan," in rows[2] and "critical" in rows[2]


# g_c = 1.7402829307627805; each error text is the one a run of single
# couplings, one call per stencil point, gave for the last row
@pytest.mark.parametrize("g_max, error", [
    ("1.7402329307627804", "stencil point g = 1.7403329307627804 unstable: beyond critical "
                           "coupling (min v = -64.6447)"),
    ("1.7401829307619103", "stencil point g = 1.7402829307619103 unstable: within 1e-12 of "
                           "criticality (min v / on-site = 5e-13); matrix square roots are "
                           "unreliable here"),
])
def test_cli_infinite_derivative_scan_fails_the_critical_stencil_row(tmp_path, capsys, g_max,
                                                                     error):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"boundary = infinite\ng_min = 1.74\ng_max = {g_max}\ng_samples = 3\n")
    assert main(["derivative-scan", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 3 and rows[0].endswith(",") and rows[1].endswith(",")
    assert rows[2] == f"{g_max},nan,nan,{error}"


def test_cli_infinite_two_site_batch_rows_match_single_coupling_runs(tmp_path, capsys):
    # the sweep runs as one quadrature batch; 1.75 is beyond g_c
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("boundary = infinite\ng_min = 1.5\ng_max = 1.75\ng_samples = 6\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 18 and "critical" in rows[-1]
    for i in range(0, 18, 3):
        cfg.write_text(f"boundary = infinite\ng_min = {rows[i].split(',')[0]}\ng_samples = 1\n")
        assert main(["two-site", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[2:] == rows[i:i + 3]


# the stencil point g_min - derivative_step would be a negative coupling
STEP_BEYOND_G_MIN = ("side = 8\ng_min = 0.1\ng_max = 0.1\ng_samples = 1\n"
                     "derivative_step = 0.5\nm_list = 5\n")
STEP_BELOW_RESOLUTION = "side = 8\ng_samples = 3\nderivative_step = 1e-300\nm_list = 5\n"


@pytest.mark.parametrize("subcommand, text, key", [
    ("finite-size", "m_list = 4,6\n", "m_list"),
    ("reproduce-fig3", "m_list = 2,5\n", "m_list"),
    ("entropy-scan", "side = 8\nblock_sizes = 2,9\n", "block_sizes"),
    ("reproduce-fig2", "block_sizes = 2,81\n", "block_sizes"),
    # the distance-2 pair of a periodic side-3 lattice wraps onto a nearest neighbor
    ("two-site", "side = 3\ng_samples = 1\n", "side"),
    # the right neighbor of the open side-2 lattice's center is off the lattice
    ("derivative-scan", "boundary = open\nside = 2\ng_min = 1.0\ng_samples = 1\n", "side"),
    ("derivative-scan", STEP_BEYOND_G_MIN, "derivative_step"),
    ("finite-size", STEP_BEYOND_G_MIN, "derivative_step"),
    ("reproduce-fig3", STEP_BEYOND_G_MIN, "derivative_step"),
    # g +- derivative_step / 2 rounds to g: every slope would read 0.0
    ("derivative-scan", STEP_BELOW_RESOLUTION, "derivative_step"),
    ("finite-size", STEP_BELOW_RESOLUTION, "derivative_step"),
    ("reproduce-fig3", STEP_BELOW_RESOLUTION, "derivative_step"),
])
def test_cli_lattice_size_keys_are_config_errors(tmp_path, capsys, subcommand, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{key}'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_block_sizes_checked_only_where_used(tmp_path, capsys):
    # default block_sizes reach 20; a side-12 lattice still serves two-site
    cfg = tmp_path / "side12.cfg"
    cfg.write_text("side = 12\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2 + 3


def test_cli_auto_g_max_below_g_min_is_a_config_error(tmp_path, capsys):
    # g_min = 1.8 is above g_c - 1e-4 = 1.74018...; "auto" would sweep backwards
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("g_min = 1.8\ng_samples = 3\n")
    assert main(["gap-scan", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'g_max'" in err and "1.74018" in err
    # a single sample ignores g_max
    cfg.write_text("g_min = 1.8\ng_samples = 1\n")
    assert main(["gap-scan", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 1 and rows[0].startswith("1.8,nan,")


def test_cli_derivative_scan_asymmetric_pair_in_row(tmp_path, capsys):
    # side 3 is the smallest open lattice the pair fits on
    cfg = tmp_path / "open.cfg"
    for text, n_rows in (("side = 14\ng_min = 1.7\ng_max = 1.73\ng_samples = 2\n", 2),
                         ("side = 3\ng_min = 1.0\ng_samples = 1\n", 1)):
        cfg.write_text("boundary = open\n" + text)
        assert main(["derivative-scan", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == n_rows and all(",nan,nan,asymmetric pair" in row for row in rows)


@pytest.mark.parametrize("text", ["phase_g1_max = 100\n", "n_atoms = 10\n"])
def test_cli_phase_diagram_bracket_holds_root(tmp_path, capsys, text):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(text + "phase_g1_samples = 4\n")
    assert main(["phase-diagram", "--config", str(cfg)]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[2:]]
    assert len(rows) == 4
    assert all(abs(float(closed) - float(numeric)) < 1e-6 for _, closed, numeric, _ in rows)


def test_cli_phase_diagram_bisects_through_overflowing_corners(tmp_path, capsys):
    # omega = 1e154 fits the float range, but the bisection's bracket reaches
    # couplings whose corner values overflow to -inf; the sign is all it reads
    cfg = tmp_path / "phase.cfg"
    cfg.write_text("omega = 1e154\nn_atoms = 1\nphase_g1_samples = 3\n")
    assert main(["phase-diagram", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [row.split(",") for row in captured.out.strip().splitlines()[2:]]
    assert len(rows) == 3
    assert all(abs(float(numeric) / float(closed) - 1.0) < 1e-12 for _, closed, numeric, _ in rows)


# Every subcommand but oracle-check on generated configs, run in-process: each
# run exits 0, 1 or 2 without raising, and on exit 0 writes tables that parse.
SUBCOMMANDS = ["phase-diagram", "gap-scan", "covariance", "entropy-scan", "two-site",
               "derivative-scan", "finite-size", "reproduce-fig2", "reproduce-fig3"]
# omega and kappa from the float range's ends to the reference values
SCALES = (st.sampled_from([5e-324, 1e-170, 1e-160, 1e-8, 1.0, 500.0, 1e150, 1e154])
          | st.floats(1e-3, 1e3))
# couplings as fractions of the equal-coupling critical one, near-critical included
FRACTIONS = st.sampled_from([0.0, 1.0 - 1e-11, 1.0 - 1e-4, 1.0, 1.1]) | st.floats(0.0, 1.2)
SIZES = st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True).map(sorted)
# finite-size takes odd sides from 5 up, so odd lists are drawn more often
M_LISTS = SIZES | st.lists(st.integers(2, 7).map(lambda k: 2 * k + 1), min_size=1, max_size=3,
                           unique=True).map(sorted)


def _config_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def cli_runs(draw):
    """A subcommand and a config naming every key, sides and sample counts kept
    small; the engine, block sizes and m_list may not fit the lattice."""
    omega, kappa = draw(SCALES), draw(SCALES)
    n_atoms = draw(st.sampled_from([1, 1000]) | st.integers(1, 10 ** 6))
    gc = (omega + 4.0 * kappa * n_atoms) / (n_atoms * (4.0 - 2.0 ** 0.5))
    g_min = draw(FRACTIONS) * gc
    phase_g1_min = draw(st.floats(0.0, 3.0))
    cfg = {
        "omega": omega, "kappa": kappa, "n_atoms": n_atoms,
        "g1": draw(FRACTIONS) * gc, "g2": draw(FRACTIONS) * gc,
        "side": draw(st.integers(2, 16)),
        "boundary": draw(st.sampled_from(["periodic", "open", "infinite"])),
        "engine": draw(st.sampled_from(["auto"] * 6 + ["dense", "fft", "infinite"])),
        "entropy_mode": draw(st.sampled_from(["degenerate_once", "count_all"])),
        "pairing_tol": draw(st.sampled_from([1e-8, 1e-3, 1e-15])),
        "block_sizes": draw(SIZES), "g_min": g_min,
        "g_max": draw(st.just("auto") | FRACTIONS.map(lambda f: g_min + f * gc)),
        "g_samples": draw(st.integers(1, 6)),
        "derivative_step": draw(st.sampled_from([1e-4, 1e-2, 1e-15]) | FRACTIONS.map(
            lambda f: f * gc).filter(lambda h: h > 0)),
        "m_list": draw(M_LISTS), "phase_g1_min": phase_g1_min,
        "phase_g1_max": phase_g1_min + draw(st.floats(0.0, 100.0)),
        "phase_g1_samples": draw(st.integers(1, 6)), "max_displacement": draw(st.integers(0, 16)),
        "format": draw(st.sampled_from(["csv", "json"])),
    }
    return draw(st.sampled_from(SUBCOMMANDS)), cfg


def _check_table(path: Path, fmt: str) -> None:
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject_constant)
        assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
        return
    digest, header, *rows = csv.reader(io.StringIO(text))
    assert digest[0].startswith("# config sha256:")
    assert all(len(row) == len(header) for row in rows)


PHASE_UNDERFLOW = ("phase-diagram", {"omega": 1e-170, "kappa": 1e-170, "phase_g1_samples": 2})


# The slowest of 1500 draws took 0.07 s on a 2-vCPU Xeon; a draw still running
# after CALL_LIMIT_S fails instead of hanging the job.  The alarm lands between
# Python bytecodes, so a long C call (one eigh, say) is stopped when it returns.
CALL_LIMIT_S = 5.0


@contextlib.contextmanager
def _time_limit(seconds):
    def overrun(signum, frame):
        # pytest's Failed is no Exception: no handler in main() can swallow it
        pytest.fail(f"subcommand still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_time_limit_fails_a_hung_call(monkeypatch):
    def hang(*args, **kwargs):
        while True:
            pass

    monkeypatch.setattr("spinwave.cli.critical_g2", hang)
    with pytest.raises(pytest.fail.Exception, match="still running after 0.05 s"):
        with _time_limit(0.05):
            main(["phase-diagram"])


@settings(max_examples=300, deadline=None)
@given(cli_runs())
@example(PHASE_UNDERFLOW)  # omega (omega + 4 kappa N) rounds to 0
def test_every_subcommand_exits_0_1_or_2(run):
    subcommand, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("".join(f"{k} = {_config_text(v)}\n" for k, v in cfg.items()))
        out = tmp / "out"
        out.mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), _time_limit(CALL_LIMIT_S):
            code = main([subcommand, "--config", str(tmp / "run.cfg"),
                         "--output", str(out / "table"), "--out-dir", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert stderr.getvalue().startswith("config error: " if code == 2 else "error: ")
        else:
            assert stderr.getvalue() == ""
            written = sorted(out.iterdir())
            assert written
            for path in written:
                _check_table(path, cfg.get("format", "csv"))


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# in a fresh interpreter: import the package, then the CLI, and report what each wrote
THREAD_PROBE = """\
import json, os, sys
before = dict(os.environ)
import spinwave
package = {"numpy": "numpy" in sys.modules, "env_unchanged": dict(os.environ) == before}
before = dict(os.environ)
from spinwave import cli
written = {k: v for k, v in os.environ.items() if before.get(k) != v}
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"package": package, "written": written, "tasks": tasks}))
"""


def _thread_probe(preamble, **threads):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=os.pathsep.join(
        [str(src)] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    out = subprocess.run([sys.executable, "-c", preamble + "\n" + THREAD_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _openblas_loaded():
    with open("/proc/self/maps") as fh:
        return any("openblas" in line.lower() for line in fh)


@pytest.mark.parametrize("preamble, threads, written, tasks", [
    ("", {}, {"OMP_NUM_THREADS": "1"}, 1),
    ("", {"OPENBLAS_NUM_THREADS": "2"}, {}, 2),
    ("", {"OMP_NUM_THREADS": "3"}, {}, None),
    ("import numpy", {}, {}, None),
])
def test_cli_runs_one_blas_thread_unless_the_environment_names_a_count(preamble, threads,
                                                                       written, tasks):
    # importing the package loads no numpy and writes nothing; the CLI sets one
    # thread before numpy loads, a count the user set wins, and a process that
    # loaded numpy first is left as it is
    probe = _thread_probe(preamble, **threads)
    assert probe["package"] == {"numpy": bool(preamble), "env_unchanged": True}
    assert probe["written"] == written
    if (tasks is not None and probe["tasks"] is not None and len(os.sched_getaffinity(0)) >= 2
            and _openblas_loaded()):
        assert probe["tasks"] == tasks  # OpenBLAS starts its pool when numpy loads


def test_lazy_package_keeps_its_public_surface():
    import spinwave

    assert len(set(spinwave.__all__)) == len(spinwave.__all__)
    assert set(spinwave.__all__) <= set(dir(spinwave))
    for name in spinwave.__all__:
        obj = getattr(spinwave, name)
        assert obj.__module__.startswith("spinwave.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert not hasattr(spinwave, "no_such_name")
    from spinwave import groundstate
    assert groundstate is sys.modules["spinwave.groundstate"]


def test_refused_reproduce_fig2_writes_the_curves_before_its_refusal(tmp_path, monkeypatch,
                                                                     capsys):
    # both lattices' curves come from one sweep each; a refused third coupling (here
    # beyond g_c) still leaves the four files six entropy-scan runs write before it,
    # each as an unrefused run writes it, with the refusal's exit code and message
    (tmp_path / "full").mkdir()
    assert main(["reproduce-fig2", "--out-dir", str(tmp_path / "full")]) == 0
    monkeypatch.setattr(cli, "NEAR_CRITICAL_OFFSET", -1e-3)
    (tmp_path / "refused").mkdir()
    capsys.readouterr()
    assert main(["reproduce-fig2", "--out-dir", str(tmp_path / "refused")]) == 1
    assert capsys.readouterr().err == "error: beyond critical coupling (min v = -2250)\n"
    written = sorted(path.name for path in (tmp_path / "refused").iterdir())
    assert written == [f"fig2_{name}_{g}.csv" for name in ("infinite", "m80")
                       for g in ("g1.25", "g1.5")]
    for name in written:
        assert (tmp_path / "refused" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_reproduce_fig2_imports_no_decimal(tmp_path):
    # every zone corner of fig2's infinite curves, g_c (1 - 1e-11) among them, is
    # certified in double-double, so the recipe never needs the decimal route
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    code = ("import sys\nfrom spinwave.cli import main\n"
            "print(main(['reproduce-fig2', '--out-dir', sys.argv[1]]), 'decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert len(list(tmp_path.glob("fig2_infinite_*.csv"))) == 3


def test_reproduce_fig3_imports_no_decimal(tmp_path):
    # the one zone corner no double-double bound rounds, the stencil point at g_c,
    # is refused by the guard with its message certified from the bound, so the
    # recipe never needs the decimal route
    (tmp_path / "small.cfg").write_text("g_samples = 2\nm_list = 5\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    code = ("import sys\nfrom spinwave.cli import main\n"
            "print(main(['reproduce-fig3', '--config', sys.argv[1] + '/small.cfg', '--out-dir', "
            "sys.argv[1]]), 'decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert ("within 1e-12 of criticality (min v / on-site = 2.32e-17)"
            in (tmp_path / "fig3_infinite.csv").read_text())


# in a fresh interpreter: run a small reproduce-fig3 and an open two-site from the
# configs in the directory argv[1], then report their exit codes, which of
# OpenSSL's hash module and the oracle loaded, and the maps that name libcrypto
FOOTPRINT_PROBE = """\
import json, os, sys
from spinwave.cli import main
out = sys.argv[1]
codes = [main(["reproduce-fig3", "--config", os.path.join(out, "small.cfg"), "--out-dir", out]),
         main(["two-site", "--config", os.path.join(out, "open.cfg"),
               "--output", os.path.join(out, "open-two-site.csv")])]
maps = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        maps = [line.strip() for line in fh if "libcrypto" in line]
print(json.dumps({"codes": codes, "libcrypto": maps,
                  "loaded": [m for m in ("_hashlib", "spinwave.oracle") if m in sys.modules]}))
"""


def test_cli_run_loads_neither_openssl_nor_the_oracle(tmp_path):
    # the digest takes CPython's built-in SHA-256, and only oracle-check imports
    # the oracle: a recipe run maps no libcrypto and compiles no oracle.py
    (tmp_path / "small.cfg").write_text("g_samples = 2\nm_list = 5\n")
    (tmp_path / "open.cfg").write_text("boundary = open\nside = 9\ng_min = 1.0\n"
                                       "g_max = 1.5\ng_samples = 3\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout)
    assert probe["codes"] == [0, 0]
    assert probe["loaded"] == []
    if sys.platform.startswith("linux"):
        assert probe["libcrypto"] == []
