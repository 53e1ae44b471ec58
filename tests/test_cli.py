import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from neqlifshitz import cli, pressure, spectral
from neqlifshitz.cli import (_SCHEMA, _build_parser, _pressure_options, geometry_for,
                             load_config, main, parse_entries)
from neqlifshitz.errors import ConfigError

BASE = """
geometry.l = 1.2
geometry.left = hot
geometry.right = cold
geometry.T_L = 0.9
geometry.T_R = 0.3
material.hot.omega0 = 1.0
material.hot.lambda0 = 1.0
material.hot.gamma = 0.1
material.cold.omega0 = 1.4
material.cold.lambda0 = 0.7
material.cold.gamma = 0.25
options.rel_tol = 5e-3
"""

LOSSLESS = """
geometry.l = 1.0
geometry.left = m
geometry.right = m
geometry.T_L = 1.0
geometry.T_R = 1.0
material.m.bath = none
material.m.gamma = 0.0
"""


# (line of BASE to replace or None to append, new text, message fragment,
#  command that misbehaved on it before load_config checked it): non-finite
# numbers and out-of-range counts, seeds and temperatures
BAD_VALUES = [
    (None, "\noptions.omega_max = inf", "options.omega_max must be finite", "pressure"),
    (None, "\nunits.si_scale_hz = inf", "units.si_scale_hz must be finite", "pressure"),
    (None, "\nepsilon.omega_max = inf", "epsilon.omega_max must be finite", "epsilon"),
    (None, "\nverify.samples = 0", "verify.samples must be >= 1, got 0", "verify"),
    (None, "\nverify.samples = -3", "verify.samples must be >= 1, got -3", "verify"),
    (None, "\nverify.seed = -1", "verify.seed must be >= 0", "verify"),
    ("geometry.T_R = 0.3", "geometry.T_R = nan", "geometry.T_R must be finite",
     "pressure"),
    ("geometry.T_L = 0.9", "geometry.T_L = inf", "geometry.T_L must be finite",
     "pressure"),
    (None, "\nverify.T_eq = -1", "verify.T_eq must be >= 0", "verify"),
    ("options.rel_tol = 5e-3", "options.rel_tol = 0.5", "rel_tol must lie in",
     "pressure"),
    ("options.rel_tol = 5e-3", "options.rel_tol = nan", "options.rel_tol must be finite",
     "pressure"),
    (None, "\nsweep.variable = l\nsweep.start = 1.0\nsweep.points = 2\nsweep.stop = inf",
     "sweep.stop must be finite", "pressure"),
]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_entries_types_and_comments():
    entries = parse_entries("a.x = 1 # trailing\n\n# full line\nb.y = 2.5\n"
                            "c.z = true\nd.w = hello")
    assert [(k, v) for k, v, _ in entries] == [
        ("a.x", 1), ("b.y", 2.5), ("c.z", True), ("d.w", "hello")]
    assert [line for _, _, line in entries] == [1, 4, 5, 6]


@pytest.mark.parametrize("text,fragment", [
    ("geometry.l 1.0", "expected"),
    ("justakey = 3", "section"),
    ("geometry.l =", "missing value"),
    ("a.x = 1\na.x = 2", "duplicate"),
])
def test_parse_entries_rejects_malformed_lines(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_entries(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError) as err:
        parse_entries("a.x = 1\nbroken línea\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_load_config_minimal(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.gap == 1.2 and cfg.t_left == 0.9 and cfg.t_right == 0.3
    assert cfg.left == "hot" and cfg.right == "cold"
    assert cfg.sweep is None and cfg.si_scale_hz is None
    assert cfg.options == {"rel_tol": 5e-3}
    # echo is sorted and round-trippable
    assert list(cfg.echo) == sorted(cfg.echo)
    assert any(pair.startswith("geometry.l = ") for pair in cfg.echo)
    # older configs carry the subtraction switch set to true: it loads and
    # is echoed, but is not a pressure option
    cfg = load_config(write_cfg(tmp_path, BASE + "options.subtract_infinite_separation = true\n"))
    assert cfg.options == {"rel_tol": 5e-3}
    assert "options.subtract_infinite_separation = True" in cfg.echo


@pytest.mark.parametrize("mangle,fragment", [
    (lambda t: t.replace("geometry.l = 1.2", "geometry.l = -1"), "must be > 0"),
    (lambda t: t.replace("geometry.left = hot", "geometry.left = nosuch"),
     "undefined material"),
    (lambda t: t + "\nmystery.k = 1", "unknown section"),
    (lambda t: t + "\ngeometry.bogus = 1", "unknown key"),
    (lambda t: t + "\noptions.sector_split = false", "unknown key options.sector_split"),
    (lambda t: t + "\noptions.subtract_infinite_separation = false", "omega_max^4"),
    (lambda t: t + "\nmaterial.hot.color = red", "unknown material field"),
    (lambda t: t.replace("geometry.T_R = 0.3", "geometry.T_R = -2"), ">= 0"),
    (lambda t: t + "\nsweep.variable = q\nsweep.start = 1\nsweep.stop = 2\n"
                   "sweep.points = 3", "sweep.variable"),
    (lambda t: t + "\nsweep.variable = l", "sweep.start is required"),
    (lambda t: t + "\nunits.si_scale_hz = 0", "si_scale_hz"),
    (lambda t: t.replace("options.rel_tol = 5e-3", "options.rel_tol = tight"),
     "float"),
    (lambda t: t + "\ngeometry.beta_em = 2.0", "unknown key geometry.beta_em"),
    *[(lambda t, bad=bad, new=new: t.replace(bad, new) if bad else t + new, fragment)
      for bad, new, fragment, _ in BAD_VALUES],
])
def test_load_config_rejects_bad_values(tmp_path, mangle, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, mangle(BASE)))
    assert fragment in str(err.value)


def test_load_config_missing_required_geometry(tmp_path):
    with pytest.raises(ConfigError, match="geometry.right is required"):
        load_config(write_cfg(tmp_path, "geometry.l = 1\ngeometry.left = a\n"
                                        "material.a.gamma = 0.1"))


def test_load_config_missing_table_file(tmp_path):
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(write_cfg(tmp_path, text))


def test_load_config_rejects_invalid_table(tmp_path):
    (tmp_path / "eps.csv").write_text("1.0,2.5,0.0\n0.5,2.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    with pytest.raises(ConfigError, match="line 3: table .*strictly increasing"):
        load_config(write_cfg(tmp_path, text))


def test_main_reports_table_error_with_table_line(tmp_path, capsys):
    # a malformed table row names the table file and its own line; the
    # config line is that of the key referencing the table
    (tmp_path / "eps.csv").write_text("0.5,2.5,0.0\n1.0,2.5\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    lineno = text.splitlines().index("geometry.left = table:eps.csv") + 1
    code = main(["pressure", "--config", write_cfg(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: line {lineno}: table " in err
    assert "eps.csv, line 2: expected 3 columns" in err


def test_load_config_resolves_table_relative_to_config(tmp_path):
    (tmp_path / "eps.csv").write_text(
        "# omega, re_eps, im_eps\n0.5,2.5,0.0\n1.0,2.5,0.0\n2.0,2.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.left == "table:eps.csv"
    assert cfg.tables[cfg.left].eps_laplace(0.7) == 2.5


# ---------------------------------------------------------------------------
# pressure command
# ---------------------------------------------------------------------------


def test_pressure_single_point_csv(tmp_path, capsys):
    code = main(["pressure", "--config", write_cfg(tmp_path, BASE)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"# neqlifshitz " in out and "# command: pressure" in out
    assert "# config: options.rel_tol = 0.005" in out
    header, rows = read_csv(out)
    assert header[:5] == ["l", "T_L", "T_R", "pressure", "err"]
    assert header[-1] == "baseline_subtracted"
    assert len(header) == 14 and len(rows) == 1
    row = [float(x) for x in rows[0]]
    assert row[0] == 1.2 and row[1] == 0.9 and row[2] == 0.3
    assert row[-1] == 1.0
    # the channel cells cover [0, omega_max]; with the tail past it they
    # sum to the reported value
    cfg = load_config(write_cfg(tmp_path, BASE))
    res = pressure.steady_pressure(geometry_for(cfg), _pressure_options(cfg))
    assert row[3] == res.value and row[5:13] == [res.breakdown[k] for k in pressure.BREAKDOWN_KEYS]
    assert math.isclose(sum(row[5:13]) + res.tail, row[3], rel_tol=0, abs_tol=1e-12)


def test_pressure_sweep_decays_with_separation(tmp_path, capsys):
    text = BASE + ("sweep.variable = l\nsweep.start = 0.7\nsweep.stop = 2.8\n"
                   "sweep.points = 3\nsweep.spacing = log\n")
    assert main(["pressure", "--config", write_cfg(tmp_path, text)]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    gaps = [float(r[0]) for r in rows]
    vals = [float(r[3]) for r in rows]
    assert gaps == pytest.approx(list(np.geomspace(0.7, 2.8, 3)))
    assert abs(vals[0]) > abs(vals[1]) > abs(vals[2])


def test_pressure_output_is_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["pressure", "--config", cfg, "--out", out_a]) == 0
    assert main(["pressure", "--config", cfg, "--out", out_b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_pressure_config_output_path_and_summary(tmp_path, capsys):
    out_file = tmp_path / "res.csv"
    text = BASE + f"output.path = {out_file}\n"
    assert main(["pressure", "--config", write_cfg(tmp_path, text)]) == 0
    printed = capsys.readouterr().out
    assert out_file.exists()
    assert "pressure" in printed and "1.2" in printed  # human summary table


def test_pressure_si_echo_columns(tmp_path, capsys):
    text = BASE + "units.si_scale_hz = 1e12\n"
    assert main(["pressure", "--config", write_cfg(tmp_path, text)]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header[-2:] == ["l_m", "pressure_Pa"]
    row = [float(x) for x in rows[0]]
    w0 = 2 * math.pi * 1e12
    assert row[-2] == pytest.approx(1.2 * 299792458.0 / w0)
    assert row[-1] == pytest.approx(
        row[3] * 1.054571817e-34 * w0**4 / 299792458.0**3)


def test_pressure_without_loss_is_numerical_failure(tmp_path, capsys):
    code = main(["pressure", "--config", write_cfg(tmp_path, LOSSLESS)])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "dissipative" in err


def write_dispersive_table(tmp_path, text):
    """A table whose rows disagree (a Lorentz-like eps on 80 frequencies),
    named by geometry.left in ``text``; returns the config path and the
    config line of that key."""
    omega = np.geomspace(1e-6, 40.0, 80)
    (tmp_path / "eps.csv").write_text("".join(
        f"{w:.17g},{2.0 + 1.0 / (1.0 + w * w):.17g},{0.3 * w / (1.0 + w * w):.17g}\n"
        for w in omega))
    text = text.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    lineno = text.splitlines().index("geometry.left = table:eps.csv") + 1
    return write_cfg(tmp_path, text), lineno


def test_pressure_refuses_a_dispersive_table_up_front(tmp_path, capsys, monkeypatch):
    # a table plate is one constant permittivity: a table whose rows
    # disagree is a configuration error, refused before the integrand runs
    def never(*args, **kwargs):
        raise AssertionError("the steady integrand ran")

    monkeypatch.setattr(pressure, "_bath_channels", never)
    cfg, lineno = write_dispersive_table(tmp_path, BASE)
    code = main(["pressure", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: line {lineno}: table " in err
    assert "rows disagree" in err


@pytest.mark.parametrize("command", ["pressure", "verify", "compare-eq", "epsilon"])
def test_every_command_refuses_a_dispersive_table_at_load(tmp_path, capsys, command):
    # at equal temperatures compare-eq would run too; the table is refused
    # at load, naming its file, on the config line of the key that names it
    text = BASE.replace("geometry.T_R = 0.3", "geometry.T_R = 0.9")
    cfg, lineno = write_dispersive_table(tmp_path, text)
    code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"config error: line {lineno}: table ")
    assert f"{tmp_path.resolve() / 'eps.csv'}: table rows disagree" in captured.err


# ---------------------------------------------------------------------------
# epsilon and poles commands
# ---------------------------------------------------------------------------


def test_epsilon_vacuum_and_hermitian_symmetry(tmp_path, capsys):
    text = BASE + ("material.vac.lambda0 = 0.0\nmaterial.vac.bath = none\n"
                   "material.vac.gamma = 0.0\nepsilon.material = vac\n"
                   "epsilon.omega_min = -3.0\nepsilon.omega_max = 3.0\n"
                   "epsilon.points = 7\n")
    assert main(["epsilon", "--config", write_cfg(tmp_path, text)]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["omega", "re_eps", "im_eps"]
    assert len(rows) == 7
    for _, re_e, im_e in rows:
        assert float(re_e) == 1.0 and float(im_e) == 0.0


def test_epsilon_lorentz_peak_and_symmetry(tmp_path, capsys):
    text = BASE + ("epsilon.material = hot\nepsilon.omega_min = -4.0\n"
                   "epsilon.omega_max = 4.0\nepsilon.points = 161\n")
    assert main(["epsilon", "--config", write_cfg(tmp_path, text)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    data = np.array([[float(c) for c in r] for r in rows])
    omega, re_e, im_e = data.T
    # positive-frequency absorption peaks near the oscillator frequency
    peak = omega[np.argmax(im_e)]
    assert 0.8 <= peak <= 1.2
    # Hermitian symmetry of the retarded boundary value
    sym = data[::-1]
    np.testing.assert_allclose(re_e, sym[:, 1], atol=1e-13)
    np.testing.assert_allclose(im_e, -sym[:, 2], atol=1e-13)


def test_epsilon_from_table_material(tmp_path, capsys):
    (tmp_path / "eps.csv").write_text(
        "# omega, re_eps, im_eps\n0.5,2.5,0.0\n1.0,2.5,0.0\n2.0,2.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    text += "epsilon.omega_min = 0.6\nepsilon.omega_max = 1.8\nepsilon.points = 5\n"
    assert main(["epsilon", "--config", write_cfg(tmp_path, text)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert all(float(r[1]) == 2.5 and float(r[2]) == 0.0 for r in rows)


def test_epsilon_table_outside_geometry(tmp_path, capsys):
    # a table named only by epsilon.material is loaded too
    (tmp_path / "eps.csv").write_text("0.5,3.0,0.0\n2.0,3.0,0.0\n")
    text = BASE + "epsilon.material = table:eps.csv\nepsilon.omega_min = 1.0\n"
    assert main(["epsilon", "--config", write_cfg(tmp_path, text)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert all(float(r[1]) == 3.0 and float(r[2]) == 0.0 for r in rows)


def test_complex_table_is_refused_at_load(tmp_path, capsys):
    # a constant complex eps has no causal continuation: a config error
    # (exit 2) on the line of the key that names the table
    (tmp_path / "eps.csv").write_text("0.5,4.0,0.5\n2.0,4.0,0.5\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    lineno = text.splitlines().index("geometry.left = table:eps.csv") + 1
    code = main(["epsilon", "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"config error: line {lineno}: table ")
    assert "table permittivity must be real" in captured.err


def test_table_plate_leaves_the_steady_engine(tmp_path, capsys):
    # a real table plate feeds epsilon and the Matsubara sum, but the steady
    # pressure refuses it (exit 3), and verify records the equal-temperature
    # reduction as skipped instead of failing
    (tmp_path / "eps.csv").write_text("1.0,1.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    cfg = write_cfg(tmp_path, text)
    assert main(["pressure", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure in pressure" in err and "table plate" in err
    assert main(["verify", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    rec = {r["name"]: r for r in doc["properties"]}["equal_t_reduction"]
    assert rec["pass"] and "table plate" in rec["detail"]["skipped"]


def test_poles_json_causal(tmp_path, capsys):
    assert main(["poles", "--config", write_cfg(tmp_path, BASE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["material"] == "hot"
    assert doc["poles"]["causal"] is True and doc["poles"]["marginal"] is False
    assert all(r["s"][0] < 0 for r in doc["poles"]["roots"])


def test_poles_marginal_material(tmp_path, capsys):
    assert main(["poles", "--config", write_cfg(tmp_path, LOSSLESS)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["poles"]["marginal"] is True and doc["poles"]["causal"] is False


def test_poles_rejects_table_reference(tmp_path, capsys):
    (tmp_path / "eps.csv").write_text(
        "# omega, re_eps, im_eps\n0.5,2.5,0.0\n1.0,2.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    code = main(["poles", "--config", write_cfg(tmp_path, text)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and compare-eq commands
# ---------------------------------------------------------------------------


def test_verify_passes_on_lossy_config(tmp_path, capsys):
    text = BASE + "verify.samples = 4\nverify.seed = 1\nverify.T_eq = 1.0\n"
    code = main(["verify", "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["all_pass"] is True
    names = {p["name"] for p in doc["properties"]}
    assert {"causality_left", "causality_right", "fdr_identity_left",
            "dmu_floor", "modified_modes", "equal_t_reduction"} <= names
    assert all(p["pass"] for p in doc["properties"])
    assert "PASS equal_t_reduction" in captured.err


def test_verify_fails_with_explanation_for_marginal_plates(tmp_path, capsys):
    code = main(["verify", "--config", write_cfg(tmp_path, LOSSLESS)])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["all_pass"] is False
    by_name = {p["name"]: p for p in doc["properties"]}
    assert by_name["causality_left"]["pass"] is False
    assert "imaginary axis" in by_name["causality_left"]["explanation"]
    assert by_name["equal_t_reduction"]["pass"] is False


def test_verify_trivial_pass_for_decoupled_plates(tmp_path, capsys):
    text = ("geometry.l = 1.0\ngeometry.left = vac\ngeometry.right = vac\n"
            "material.vac.lambda0 = 0.0\nmaterial.vac.bath = none\n"
            "material.vac.gamma = 0.0\n")
    code = main(["verify", "--config", write_cfg(tmp_path, text)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["all_pass"] is True
    by_name = {p["name"]: p for p in doc["properties"]}
    assert by_name["equal_t_reduction"]["detail"]["steady"] == 0.0


def test_verify_dmu_floor_reads_the_spectral_floor(monkeypatch, capsys):
    # the record's verdict and floor come from spectral.DMU_FLOOR: raised
    # above the default config's worst |D_mu| (about 0.17) the check fails
    # and reports the raised floor
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
    monkeypatch.setattr(spectral, "DMU_FLOOR", 0.5)
    code = main(["verify", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    rec = {p["name"]: p for p in doc["properties"]}["dmu_floor"]
    assert code == 1 and rec["pass"] is False
    assert rec["detail"]["floor"] == 0.5 and rec["margin"] < 0.5
    assert "denominator" in rec["explanation"]


def test_verify_scans_dmu_at_large_gaps(tmp_path, monkeypatch, capsys):
    # past l = 39.3 a fixed grid of 4001 points is coarser than the scan's
    # pi/(8 l) and the record would pass as skipped; the grid grows with
    # the gap.  The equal-temperature point is stubbed: at l = 50 it alone
    # takes seconds
    monkeypatch.setattr(cli, "_equilibrium_deviation", lambda geom, T, opts: (1.0, 1.0, 0.0))
    text = BASE.replace("geometry.l = 1.2", "geometry.l = 50.0") + "verify.samples = 1\n"
    main(["verify", "--config", write_cfg(tmp_path, text)])
    rec = {p["name"]: p for p in json.loads(capsys.readouterr().out)["properties"]}["dmu_floor"]
    assert "skipped" not in rec["detail"]
    assert rec["pass"] is True and math.isfinite(rec["margin"])


def test_verify_modified_modes_reads_the_spectral_limit(monkeypatch, capsys):
    # the record's verdict and limit come from spectral.MODE_TOL_LIMIT:
    # lowered below the default config's worst spread (about 1.8e-8) the
    # check fails and reports the lowered limit
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
    monkeypatch.setattr(spectral, "MODE_TOL_LIMIT", 1e-9)
    code = main(["verify", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    rec = {p["name"]: p for p in doc["properties"]}["modified_modes"]
    assert code == 1 and rec["pass"] is False
    assert rec["detail"]["limit"] == 1e-9
    assert rec["margin"] == rec["detail"]["max_spread"] > 1e-9
    assert "removability" in rec["explanation"]


def test_compare_eq_requires_equal_temperatures(tmp_path, capsys):
    code = main(["compare-eq", "--config", write_cfg(tmp_path, BASE)])
    assert code == 2
    assert "T_L == T_R" in capsys.readouterr().err


def test_compare_eq_pass_and_threshold_override(tmp_path, capsys):
    text = BASE.replace("geometry.T_R = 0.3", "geometry.T_R = 0.9")
    cfg = write_cfg(tmp_path, text)
    assert main(["compare-eq", "--config", cfg]) == 0
    captured = capsys.readouterr()
    _, rows = read_csv(captured.out)
    dev = float(rows[0][4])
    assert dev < 1e-3
    # an absurdly tight threshold flips the verdict, not the numbers
    assert main(["compare-eq", "--config", cfg, "--rel-tol",
                 repr(dev / 10)]) == 1
    capsys.readouterr()


def test_compare_eq_rel_tol_is_only_the_match_threshold(tmp_path, capsys):
    # --rel-tol sets the threshold; the quadrature keeps options.rel_tol, so
    # a loose threshold (above the quadrature's own limit) still runs and
    # reports the same numbers
    text = BASE.replace("geometry.T_R = 0.3", "geometry.T_R = 0.9")
    cfg = write_cfg(tmp_path, text)
    assert main(["compare-eq", "--config", cfg]) == 0
    _, plain = read_csv(capsys.readouterr().out)
    assert main(["compare-eq", "--config", cfg, "--rel-tol", "0.05"]) == 0
    captured = capsys.readouterr()
    _, loose = read_csv(captured.out)
    assert loose[0][2:4] == plain[0][2:4]
    assert "tolerance 0.05" in captured.err


def test_readme_config_table_lists_the_schema_keys():
    # the README table is the user copy of _SCHEMA: the same keys, no more
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | type | default | range |") + 2
    listed = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        listed += re.findall(r"`([^`]+)`", line.split("|")[1])
    want = [f"material.<name>.{key}" if section == "material" else f"{section}.{key}"
            for section, keys in _SCHEMA.items() for key in keys]
    assert sorted(listed) == sorted(want)


@pytest.mark.parametrize("command", ["epsilon", "poles"])
def test_rel_tol_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    # a flag the command would ignore is a usage error (exit 2), not a no-op
    cfg = write_cfg(tmp_path, BASE)
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--rel-tol", "1e-3"])
    assert info.value.code == 2
    assert "--rel-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pressure", "verify", "compare-eq"])
def test_rel_tol_is_accepted_where_it_is_read(command):
    args = _build_parser().parse_args([command, "--config", "x.cfg", "--rel-tol", "1e-3"])
    assert args.rel_tol == 1e-3


@pytest.mark.parametrize("command, value", [("pressure", "0.5"), ("pressure", "nan"),
                                            ("verify", "0.5"), ("verify", "-1e-3"),
                                            ("compare-eq", "nan"), ("compare-eq", "-1e-3"),
                                            ("compare-eq", "0"), ("compare-eq", "inf")])
def test_an_out_of_range_rel_tol_is_a_config_error(tmp_path, capsys, command, value):
    # the flag is refused as its config key is (exit 2, naming the flag),
    # before any quadrature runs: exit 3 means a numerical failure and
    # exit 1 a failed property, which a NaN threshold would fake
    cfg = write_cfg(tmp_path, BASE.replace("geometry.T_R = 0.3", "geometry.T_R = 0.9"))
    code = main([command, "--config", cfg, f"--rel-tol={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "--rel-tol" in err


@pytest.mark.parametrize("command", ["pressure", "epsilon"])
@pytest.mark.parametrize("given_by", ["--out", "output.path"])
def test_an_unwritable_output_is_a_config_error(tmp_path, capsys, command, given_by):
    # a file in a missing directory is a configuration error (exit 2)
    # with a message, not a traceback: exit 1 means a failed property
    out = tmp_path / "missing" / "run.csv"
    text = BASE + (f"output.path = {out}\n" if given_by == "output.path" else "")
    argv = [command, "--config", write_cfg(tmp_path, text)]
    code = main(argv + (["--out", str(out)] if given_by == "--out" else []))
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and f"cannot write output {out}" in err


@pytest.mark.parametrize("command", ["pressure", "verify"])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_an_unwritable_output_is_refused_before_any_pass(tmp_path, capsys, monkeypatch,
                                                         command, target):
    # an output in a missing directory, or one that is a directory, fails
    # at once (exit 2): the sweep or the property suite never starts
    def never(*args, **kwargs):
        raise AssertionError("steady_pressure ran before the output was checked")

    monkeypatch.setattr(cli, "steady_pressure", never)
    out = tmp_path / "missing" / "run.csv" if target == "missing directory" else tmp_path
    code = main([command, "--config", write_cfg(tmp_path, BASE), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and f"cannot write output {out}" in err


# ---------------------------------------------------------------------------
# top-level error handling
# ---------------------------------------------------------------------------


def test_main_reports_config_error_with_line(tmp_path, capsys):
    code = main(["pressure", "--config",
                 write_cfg(tmp_path, "geometry.l = 1\nnonsense\n")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "line 2" in err


@pytest.mark.parametrize("bad,new,fragment,command", BAD_VALUES,
                         ids=[new.splitlines()[-1] for _, new, _, _ in BAD_VALUES])
def test_main_rejects_bad_value_with_its_line(tmp_path, capsys, bad, new, fragment,
                                              command):
    text = BASE.replace(bad, new) if bad else BASE + new
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    code = main([command, "--config", write_cfg(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: line {lineno}: " in err and fragment in err
    assert "Traceback" not in err


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["pressure", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
