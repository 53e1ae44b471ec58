"""Smoke tests of the study scripts, the in-repo consumers of the library API."""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, tmp_path, *argv):
    out = tmp_path / f"{name}.csv"
    assert load_script(name).main([*argv, "--rel-tol", "1e-2", "--out", str(out)]) == 0
    with out.open() as fh:
        return list(csv.DictReader(fh))


def test_sweep_separation_script(tmp_path):
    rows = run_script("sweep_separation", tmp_path, "--l-min", "0.8", "--l-max", "1.6",
                      "--points", "2")
    assert [float(r["l"]) for r in rows] == pytest.approx([0.8, 1.6])
    values = [float(r["pressure"]) for r in rows]
    assert all(v < 0.0 for v in values)
    assert all(float(r["err"]) >= 0.0 for r in rows)
    assert math.isnan(float(rows[0]["local_exponent"]))
    assert float(rows[1]["local_exponent"]) == pytest.approx(
        math.log(values[1] / values[0]) / math.log(2.0), rel=1e-12)


def test_temperature_scan_script(tmp_path):
    rows = run_script("temperature_scan", tmp_path, "--t-min", "0.5", "--t-max", "0.9",
                      "--points", "2")
    assert [float(r["T_L"]) for r in rows] == pytest.approx([0.5, 0.9])
    for r in rows:
        # the channel sums cover [0, omega_max]; the tail past it is its own column
        assert float(r["tail"]) != 0.0
        assert float(r["from_left"]) + float(r["from_right"]) + float(r["tail"]) == \
            pytest.approx(float(r["pressure"]), rel=1e-12)
    # T_L = 0.5 is the equilibrium point of the default T_R = 0.5
    assert float(rows[0]["delta_eq"]) == 0.0
    assert float(rows[1]["delta_eq"]) == pytest.approx(
        float(rows[1]["pressure"]) - float(rows[0]["pressure"]), rel=1e-12)


def test_steady_fingerprints_script(capsys):
    assert load_script("steady_fingerprints").main(["--case", "sweep-far"]) == 0
    name, points, *numbers = capsys.readouterr().out.split()
    assert name == "sweep-far"
    real, contour = (int(n) for n in points.removeprefix("points=").split("+"))
    assert real > 0 and contour > 0
    value, err, tail, omega_max, *channels = (float.fromhex(n) for n in numbers)
    assert len(channels) == 8
    assert value < 0.0 < err and omega_max == 4.0
    assert value == pytest.approx(math.fsum(channels) + tail, rel=1e-12)
