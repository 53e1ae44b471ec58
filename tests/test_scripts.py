"""Smoke tests of the study scripts, the in-repo consumers of the library API."""

import csv
import math

import numpy as np
import pytest

from neqlifshitz import pressure
from neqlifshitz.pressure import BREAKDOWN_KEYS

from conftest import load_script


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
    script = load_script("steady_fingerprints")
    assert script.main(["--case", "sweep-far", "--case", "dissimilar-euler"]) == 0
    identical, dissimilar = capsys.readouterr().out.splitlines()
    name, points, freqs, line, evan, *numbers = identical.split()
    assert name == "sweep-far"
    real, contour = (int(n) for n in points.removeprefix("points=").split("+"))
    # the real-axis frequencies of the outer rule: 15 Kronrod nodes a panel
    n_freqs = int(freqs.removeprefix("freqs="))
    assert n_freqs > 0 and n_freqs % 15 == 0
    # plates of one material take the propagating sector on the line and
    # the evanescent one in its round-trip form, whose points have columns
    # of their own: the channel map never runs
    assert real == 0 and contour > 0
    assert int(line.removeprefix("line=")) > 0 and int(evan.removeprefix("evan=")) > 0
    value, err, tail, omega_max, *channels = (float.fromhex(n) for n in numbers)
    assert len(channels) == 8
    assert value < 0.0 < err and omega_max == 4.0
    assert value == pytest.approx(math.fsum(channels) + tail, rel=1e-12)
    # a dissimilar pair evaluates no line and prints no line or evan column
    name, points, freqs, *numbers = dissimilar.split()
    assert name == "dissimilar-euler" and points.startswith("points=")
    assert int(points.removeprefix("points=").split("+")[0]) > 0
    # the real axis and the two Euler tail slices
    n_freqs = int(freqs.removeprefix("freqs="))
    assert n_freqs > 0 and n_freqs % 15 == 0
    assert len(numbers) == 12 and not any(n.startswith(("line=", "evan=")) for n in numbers)
    # the lockstep Q rule of identical plates runs the line and the
    # round-trip evanescent form; the point map runs the channel map on
    # its 24 points, four times (two plate pairs, with and without
    # thermal_only)
    assert script.main(["--case", "line-q", "--case", "point-map"]) == 0
    line_q, point_map = capsys.readouterr().out.splitlines()
    name, points, freqs, line, evan, *numbers = line_q.split()
    assert name == "line-q" and points == "points=0+0" and freqs == "freqs=4"
    assert int(line.removeprefix("line=")) > 0 and int(evan.removeprefix("evan=")) > 0
    assert len(numbers) == len(BREAKDOWN_KEYS) * 4 + 4
    name, points, freqs, *numbers = point_map.split()
    assert name == "point-map" and points == "points=96+0" and freqs == "freqs=0"
    rows = np.array([float.fromhex(n) for n in numbers]).reshape(4, len(BREAKDOWN_KEYS), 24)
    assert np.all(rows[:, :, :6] == 0.0)                # omega = 0
    assert np.all(rows[:, 0::2, 9::6] == 0.0)           # the light line is evanescent
    assert np.all(rows[:, 1::2, 9::6] != 0.0)
    assert not np.array_equal(rows[0], rows[1]) and not np.array_equal(rows[0], rows[2])
    # the dissimilar plates at omega = 8, 12 and 17: six points each, Q = 0
    # (where the rows' factor Q is 0) first, the light line (the fourth)
    # in the evanescent sector
    assert script.main(["--case", "point-map-high"]) == 0
    name, points, freqs, *numbers = capsys.readouterr().out.split()
    assert name == "point-map-high" and points == "points=18+0" and freqs == "freqs=0"
    rows = np.array([float.fromhex(n) for n in numbers]).reshape(len(BREAKDOWN_KEYS), 3, 6)
    assert np.all(rows[0::2, :, 3:] == 0.0) and np.all(rows[1::2, :, :3] == 0.0)
    assert np.all(rows[0::2, :, 1:3] != 0.0) and np.all(rows[1::2, :, 3:] != 0.0)
    # one inner-rule chunk with a light-line node in its propagating run
    # (the per-node form), then with that node on its grid (the sector
    # runs), one row per plate and polarization in each panel's sector:
    # every other node keeps its bits, and the light-line node takes the
    # public map's evanescent limit there (omega = 1.3, the second panel's)
    assert script.main(["--case", "straggler"]) == 0
    name, points, freqs, *numbers = capsys.readouterr().out.split()
    assert name == "straggler" and points == "points=180+0" and freqs == "freqs=0"
    light, clean = np.array([float.fromhex(n) for n in numbers]).reshape(
        2, len(BREAKDOWN_KEYS) // 2, 6, 15)
    grid = np.ones((6, 15), bool)
    grid[1, -1] = False
    assert np.array_equal(light[:, grid], clean[:, grid])
    limit = pressure._bath_channels(script.dissimilar(1.0, 1.0, 0.5), 1.3, 1.3)
    assert np.all(limit[0::2] == 0.0) and np.all(limit[1::2] != 0.0)
    assert np.array_equal(light[:, 1, -1], limit[1::2])
    assert np.all(clean != 0.0)
    # the surface-band strips at omega = 1.2247: no TE zero and one TM
    # zero, each winding within rounding of its count, and each strip's
    # boundary refined past its 4 x 8 starting samples
    assert script.main(["--case", "zero-count"]) == 0
    name, points, freqs, *numbers = capsys.readouterr().out.split()
    assert name == "zero-count" and points == "points=0+0" and freqs == "freqs=0"
    te, tm, *samples = (float.fromhex(n) for n in numbers)
    assert abs(te) < 1e-12 and abs(tm - 1.0) < 1e-12
    assert all(n == int(n) and n > 32 for n in samples) and len(samples) == 2


def test_odd_oracle_script(tmp_path):
    # the default config's point: the program's odd part (two thermal_only
    # runs with swapped temperatures) and the independent oracle agree, and
    # the reference value adds the Matsubara half-sum
    out = tmp_path / "odd.csv"
    script = load_script("odd_oracle")
    assert script.main(["--point", "1,1,0.5", "--out", str(out)]) == 0
    with out.open() as fh:
        (row,) = list(csv.DictReader(fh))
    values = {k: float(v) for k, v in row.items()}
    assert (values["l"], values["T_L"], values["T_R"]) == (1.0, 1.0, 0.5)
    assert values["rel_diff"] <= 1e-9
    assert values["odd_part"] == pytest.approx(values["odd_oracle"], rel=1e-9)
    assert values["p_ref"] == values["half_sum_eq"] + values["odd_part"]
    with pytest.raises(SystemExit):
        script.main(["--point", "1,0"])


def test_analytic_fingerprints_script(capsys):
    script = load_script("analytic_fingerprints")
    assert script.main(["--case", "criterion-7-0", "--case", "criterion-4"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    name, *numbers = first.split()
    values = [float.fromhex(n) for n in numbers]
    assert name == "criterion-7-0"
    # the last number is the initial-field report's taxonomy_ok
    assert values[-1] == 1.0
    # criterion 4: 50 materials, the kernel on 10 + 5 times each
    name, *numbers = second.split()
    assert name == "criterion-4" and len(numbers) == 50 * 15
    # the same bits on a second run
    assert script.fingerprint("criterion-7-0", script.cases(1)["criterion-7-0"]) == first


def test_analytic_fingerprints_edge_case(capsys):
    # both origin reports on the lossless, uncoupled and cutoff plates: one
    # oscillator report per Q and one initial-field report per k, per geometry
    script = load_script("analytic_fingerprints")
    assert script.main(["--case", "edge"]) == 0
    name, *numbers = capsys.readouterr().out.split()
    assert name == "edge"
    reports = script.edge_case()
    per_geom = ["dof_origin"] * len(script.EDGE_Q) + ["ic_origin"] * len(script.EDGE_K)
    assert [r["kind"] for r in reports] == per_geom * len(script.edge_geometries())
    assert [float.fromhex(n) for n in numbers] == script.numbers(reports)
    assert all(r["taxonomy_ok"] for r in reports if r["kind"] == "ic_origin")
