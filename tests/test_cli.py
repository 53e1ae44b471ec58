import json
import math

import numpy as np
import pytest

from neqlifshitz.cli import load_config, main, parse_entries
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


def test_load_config_resolves_table_relative_to_config(tmp_path):
    (tmp_path / "eps.csv").write_text(
        "# omega, re_eps, im_eps\n0.5,2.5,0.0\n1.0,2.5,0.0\n2.0,2.5,0.0\n")
    text = BASE.replace("geometry.left = hot", "geometry.left = table:eps.csv")
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.left == "table:eps.csv"
    assert cfg.tables[cfg.left].is_dispersionless


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
    # channels sum to the reported value
    assert math.isclose(sum(row[5:13]), row[3], rel_tol=0, abs_tol=1e-12)


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
    (tmp_path / "eps.csv").write_text("0.5,3.0,0.1\n2.0,3.0,0.1\n")
    text = BASE + "epsilon.material = table:eps.csv\nepsilon.omega_min = 1.0\n"
    assert main(["epsilon", "--config", write_cfg(tmp_path, text)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert all(float(r[1]) == 3.0 and float(r[2]) == 0.1 for r in rows)


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
