import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinwave import ConfigError, RunConfig, config_digest, parse_config, serialize_config
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
    text = ("omega = 321.5\ng1 = 0.0001\ng2 = 1.7\ninfinite = true\n"
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
    infinite = draw(st.booleans())
    boundary = draw(st.sampled_from(["periodic", "open"]))
    own = "infinite" if infinite else "fft" if boundary == "periodic" else "dense"
    g_min = draw(NON_NEGATIVE)
    phase_g1_min = draw(NON_NEGATIVE)
    return RunConfig(
        omega=draw(POSITIVE), kappa=draw(POSITIVE), n_atoms=draw(st.integers(1, 10 ** 6)),
        g1=draw(NON_NEGATIVE), g2=draw(NON_NEGATIVE),
        side=draw(st.integers(3 if boundary == "periodic" else 2, 1000)), boundary=boundary,
        infinite=infinite, engine=draw(st.sampled_from(["auto", own])),
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


def test_cli_entropy_scan_near_critical_infinite(tmp_path, capsys):
    # g = g_c (1 - 1.5e-10), where a uniform 2-D zone grid does not converge by n = 16384
    cfg = tmp_path / "near.cfg"
    cfg.write_text("infinite = true\ng1 = 1.7402829305\ng2 = 1.7402829305\n")
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
    cfg.write_text("infinite = true\ng_min = 1.7\ng_max = 1.8\ng_samples = 2\n")
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
    cfg = small_cfg(tmp_path, extra="max_displacement = 2\ninfinite = true\n")
    assert main(["covariance", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "dx,dy,qq,pp"
    assert len(lines) == 2 + 9

    open_cfg = tmp_path / "open.cfg"
    open_cfg.write_text("side = 6\nboundary = open\nengine = dense\n")
    assert main(["covariance", "--config", str(open_cfg)]) == 2
    err = capsys.readouterr().err
    assert "translation invariance" in err and "infinite = true" in err


def test_cli_out_of_memory_is_refusal(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr("spinwave.cli.covariances_for", exhausted)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("infinite = true\nmax_displacement = 200000\n")
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


def test_cli_oracle_check(tmp_path):
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 4


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
                                  "engine = fft\ninfinite = true\n",
                                  "engine = dense\ninfinite = true\n",
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
    ("covariance", "infinite", "infinite = true\nmax_displacement = 2\n"),
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
    # reproduce-fig2/fig3 on defaults record the defaults, so their digest lines stay put
    assert _paper_config(RunConfig()) == RunConfig()


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
        fields = json.loads(path.read_text())["config"]
        recorded = RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
        assert (recorded.boundary, recorded.side, recorded.engine) == ("periodic", 80, "auto")
        assert parse_config(serialize_config(recorded)) == recorded


def test_cli_two_site_asymmetric_pair_in_row(tmp_path, capsys):
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 6\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 3 and all("asymmetric pair" in row for row in rows)


def test_cli_two_site_open_lattice_too_small(tmp_path, capsys):
    cfg = tmp_path / "open.cfg"
    cfg.write_text("boundary = open\nside = 4\ng_samples = 1\n")
    assert main(["two-site", "--config", str(cfg)]) == 2
    assert "side >= 5" in capsys.readouterr().err


def test_cli_two_site_keeps_bugs_out_of_rows(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("programming error")

    monkeypatch.setattr("spinwave.cli.two_site_params", broken)
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
    cfg.write_text(f"infinite = true\ng_min = 1.74\ng_max = {g_max}\ng_samples = 3\n")
    assert main(["derivative-scan", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 3 and rows[0].endswith(",") and rows[1].endswith(",")
    assert rows[2] == f"{g_max},nan,nan,{error}"


def test_cli_infinite_two_site_batch_rows_match_single_coupling_runs(tmp_path, capsys):
    # the sweep runs as one quadrature batch; 1.75 is beyond g_c
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("infinite = true\ng_min = 1.5\ng_max = 1.75\ng_samples = 6\n")
    assert main(["two-site", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 18 and "critical" in rows[-1]
    for i in range(0, 18, 3):
        cfg.write_text(f"infinite = true\ng_min = {rows[i].split(',')[0]}\ng_samples = 1\n")
        assert main(["two-site", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[2:] == rows[i:i + 3]


# the stencil point g_min - derivative_step would be a negative coupling
STEP_BEYOND_G_MIN = ("side = 8\ng_min = 0.1\ng_max = 0.1\ng_samples = 1\n"
                     "derivative_step = 0.5\nm_list = 5\n")


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
