"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single
``[PASS]``/``[FAIL]`` line with the measured margins (visible under
``pytest -s``; `pytest -v` shows the same verdicts as test outcomes).
All tolerances are asserted exactly as stated; nothing here tunes
itself to the implementation.
"""

import cmath
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from neqlifshitz.em_green import Geometry
from neqlifshitz.material import (BathModel, EpsilonTable, Material,
                                  fdr_epsilon_identity)
from neqlifshitz.pressure import (PressureOptions, bath_integrand,
                                  equilibrium_matsubara, steady_pressure)
from neqlifshitz.spectral import (dof_origin_report, find_qbm_poles,
                                  ic_origin_report, invert_laplace_qbm,
                                  modified_mode_check,
                                  scan_dmu_imaginary_axis)

from conftest import rand_lossy

REPO = Path(__file__).resolve().parents[1]


def _report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def lorentz_ohmic(omega0, lambda0, gamma, T):
    return Material(omega0=omega0, lambda0=lambda0,
                    bath=BathModel(kind="ohmic", gamma=gamma),
                    beta_bath=math.inf if T == 0 else 1.0 / T)


def test_criterion_1_equal_temperature_reduction():
    opts = PressureOptions(rel_tol=3e-4)
    worst_dev, worst_time = 0.0, 0.0
    for gap in (0.5, 1.0, 2.0):
        for T in (0.1, 1.0):
            mat = lorentz_ohmic(1.0, 1.0, 0.1, T)
            geom = Geometry(gap=gap, left=mat, right=mat)
            t0 = time.time()
            steady = steady_pressure(geom, opts)
            elapsed = time.time() - t0
            eq = equilibrium_matsubara(geom, T)
            dev = abs(steady.value - eq) / abs(eq)
            worst_dev = max(worst_dev, dev)
            worst_time = max(worst_time, elapsed)
            assert elapsed < 60.0, f"point (l={gap}, T={T}) took {elapsed:.0f}s"
    _report(1, "equal-temperature reduction",
            worst_dev <= 1e-3,
            f"max rel dev {worst_dev:.2e} over 6 points (tol 1e-3), "
            f"slowest point {worst_time:.1f}s (target 10s)")


def test_criterion_2_ideal_mirror_limit():
    ideal = -math.pi**2 / 240.0
    devs = []
    for eps in (1e4, 1e5, 1e6):
        tab = EpsilonTable(omega=np.array([0.5, 1.0, 2.0]),
                           eps=np.full(3, eps, dtype=complex),
                           beta_bath=100.0)
        geom = Geometry(gap=1.0, left=tab, right=tab)
        val = equilibrium_matsubara(geom, 0.01)
        devs.append(abs(val - ideal) / abs(ideal))
    ok = devs[0] <= 0.10 and devs[0] > devs[1] > devs[2]
    _report(2, "ideal-mirror limit", ok,
            f"rel dev vs -pi^2/(240 l^4): eps=1e4 -> {devs[0]:.3f} "
            f"(tol 0.10), 1e5 -> {devs[1]:.3f}, 1e6 -> {devs[2]:.3f} "
            f"(monotone tightening)")


def test_criterion_3_fdr_identity():
    rng = np.random.default_rng(3)
    worst_id = 0.0
    for _ in range(100):
        mat = rand_lossy(rng)
        w = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1.5, 1.3))
        lhs, rhs = fdr_epsilon_identity(mat, w)
        worst_id = max(worst_id, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    geom = Geometry(gap=1.0,
                    left=lorentz_ohmic(1.0, 1.0, 0.1, 1.0),
                    right=lorentz_ohmic(1.5, 0.8, 0.3, 0.5))
    worst_path = 0.0
    for _ in range(50):
        w = float(rng.uniform(0.05, 15.0))
        Q = float(rng.uniform(0.02, 10.0))
        a = bath_integrand(geom, w, Q, use_fdr=True)
        b = bath_integrand(geom, w, Q, use_fdr=False)
        worst_path = max(worst_path, abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst_id <= 1e-12 and worst_path <= 1e-10
    _report(3, "fluctuation-dissipation identity", ok,
            f"identity max rel dev {worst_id:.2e} over 100 samples "
            f"(tol 1e-12); pre/post integrand paths {worst_path:.2e} "
            f"over 50 samples (tol 1e-10)")


def test_criterion_4_causality_suite():
    rng = np.random.default_rng(4)
    max_re = -math.inf
    worst_sup, worst_g0, worst_gdot = 0.0, 0.0, 0.0
    for _ in range(50):
        mat = rand_lossy(rng)
        rep = find_qbm_poles(mat)
        max_re = max(max_re, rep.max_re)
        t = np.linspace(0.0, 24.0 / mat.omega0, 10)
        got = invert_laplace_qbm(mat, t)
        if mat.bath.kind == "ohmic":
            w1 = cmath.sqrt(mat.omega0**2 - mat.bath.gamma**2 / 4.0)
            ref = (np.exp(-0.5 * mat.bath.gamma * t)
                   * np.sin(w1 * t) / w1).real
        else:
            ref = sum((r * np.exp(s * t) for s, _, r in rep.roots),
                      np.zeros_like(t, dtype=complex)).real
        worst_sup = max(worst_sup, float(np.max(np.abs(got - ref))))
        scale = max(mat.omega0, max(abs(s) for s, _, _ in rep.roots))
        h = 0.01 / scale
        g = invert_laplace_qbm(mat, [0.0, h, 2 * h, 3 * h, 4 * h])
        worst_g0 = max(worst_g0, abs(g[0]))
        gdot = (48 * g[1] - 36 * g[2] + 16 * g[3] - 3 * g[4]) / (12 * h)
        worst_gdot = max(worst_gdot, abs(gdot - 1.0))
    ok = (max_re < 0.0 and worst_sup <= 1e-6 and worst_g0 <= 1e-6
          and worst_gdot <= 1e-6)
    _report(4, "causality suite", ok,
            f"50 random lossy materials: max pole Re {max_re:.3e} (< 0); "
            f"inversion sup dev {worst_sup:.2e}, |G(0)| {worst_g0:.1e}, "
            f"|dG/dt(0)-1| {worst_gdot:.2e} (all tol 1e-6)")


def test_criterion_5_no_imaginary_axis_dmu_zeros():
    grid = np.linspace(-20.0, 20.0, 4001)
    geoms = [
        Geometry(gap=1.0, left=lorentz_ohmic(1.0, 1.0, 0.05, 1.0),
                 right=lorentz_ohmic(1.5, 0.8, 0.05, 0.5)),
        Geometry(gap=1.0, left=lorentz_ohmic(1.0, 1.0, 0.1, 1.0),
                 right=lorentz_ohmic(1.5, 0.8, 0.3, 0.5)),
        Geometry(gap=0.8,
                 left=Material(omega0=1.0, lambda0=1.0,
                               bath=BathModel(kind="ohmic_lorentz_cutoff",
                                              gamma=0.2, cutoff=50.0),
                               beta_bath=1.0),
                 right=lorentz_ohmic(0.7, 1.2, 0.3, 2.0)),
    ]
    overall, arg = math.inf, None
    for geom in geoms:
        for Q in (0.377, 0.733, 1.191, 2.413, 4.871):
            for pol in ("TE", "TM"):
                scan = scan_dmu_imaginary_axis(geom, pol, Q, grid)
                assert not scan.violation
                if scan.min_abs < overall:
                    overall, arg = scan.min_abs, (pol, Q, scan.argmin)
    _report(5, "no imaginary-axis multiple-reflection zeros",
            overall > 1e-3,
            f"min |D| {overall:.4f} > 1e-3 over 3 configs x 5 Q x 2 pols "
            f"x 4001 points; worst at pol={arg[0]}, Q={arg[1]}, "
            f"omega={arg[2]:.3f}")


def test_criterion_6_modified_mode_removability():
    rng = np.random.default_rng(6)
    worst_spread, n_removable = 0.0, 0
    for _ in range(50):
        geom = Geometry(gap=float(rng.uniform(0.6, 1.8)),
                        left=rand_lossy(rng), right=rand_lossy(rng))
        Q = float(rng.uniform(0.05, 2.5))
        kz = float(rng.uniform(0.25, 2.5)) * (1 if rng.random() < 0.5 else -1)
        chk = modified_mode_check(geom, Q, kz)
        n_removable += chk.removable
        worst_spread = max(worst_spread, chk.spread)
    ok = n_removable == 50 and worst_spread <= 1e-6
    _report(6, "modified-mode removability", ok,
            f"{n_removable}/50 random (Q, k_z, materials) removable; "
            f"max cross-direction spread {worst_spread:.2e} (tol 1e-6)")


def test_criterion_7_pole_order_taxonomy():
    rng = np.random.default_rng(7)
    n_ok = 0
    for _ in range(20):
        geom = Geometry(gap=float(rng.uniform(0.7, 1.6)),
                        left=rand_lossy(rng), right=rand_lossy(rng))
        dof = dof_origin_report(geom, float(rng.uniform(0.2, 2.0)))
        k = np.array([rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2),
                      rng.uniform(0.4, 1.5) * (1 if rng.random() < 0.5 else -1)])
        ic = ic_origin_report(geom, k)
        config_ok = dof["taxonomy_ok"] and ic["taxonomy_ok"]
        # nothing time-independent survives the documented discards
        config_ok &= dof["steady_after_discard"] == 0.0
        config_ok &= ic["steady_after_discard"] == 0.0
        for plate_rec in dof["plates"].values():
            config_ok &= all(plate_rec[mn]["vanishes"]
                             for mn in ("c22", "c21", "c12"))
            config_ok &= plate_rec["switch_on"]["discarded"]
        config_ok &= all(ic["total"][mn]["vanishes"]
                         for mn in ("c22", "c21", "c12"))
        n_ok += bool(config_ok)
    _report(7, "pole-order taxonomy", n_ok == 20,
            f"{n_ok}/20 random configurations match the origin "
            f"classification; divergent coefficients cancel and only the "
            f"discarded switch-on residue is nonzero")


def test_criterion_8_symmetry_and_decay():
    opts = PressureOptions(rel_tol=1e-3)
    geom = Geometry(gap=1.0, left=lorentz_ohmic(1.0, 1.0, 0.1, 1.0),
                    right=lorentz_ohmic(1.5, 0.8, 0.3, 0.5))
    a = steady_pressure(geom, opts).value
    b = steady_pressure(geom.swapped(), opts).value
    swap_dev = abs(a - b) / abs(a)

    mat = lorentz_ohmic(1.0, 1.0, 0.1, 1.0)
    gaps = np.geomspace(1.0, 10.0, 5)
    vals = [steady_pressure(Geometry(gap=float(g), left=mat, right=mat),
                            PressureOptions(rel_tol=2e-3)).value
            for g in gaps]
    mags = np.abs(vals)
    decreasing = bool(np.all(np.diff(mags) < 0))
    slope = np.polyfit(np.log(gaps), np.log(mags), 1)[0]
    ok = swap_dev <= 1e-10 and decreasing and -slope >= 3.0
    _report(8, "symmetry and decay", ok,
            f"mirror-swap rel dev {swap_dev:.2e} (tol 1e-10); |P| "
            f"decreasing over l in [1, 10] with fitted exponent "
            f"{-slope:.10f} (>= 3) at T=1")


def test_criterion_9_cmd_verify_reproducibility():
    cfg = REPO / "configs" / "default.cfg"
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "neqlifshitz.cli", "verify",
         "--config", str(cfg)],
        capture_output=True, text=True, timeout=300)
    elapsed = time.time() - t0
    doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
    ok = proc.returncode == 0 and elapsed <= 300.0 and doc.get("all_pass")
    _report(9, "verify-command reproducibility", ok,
            f"exit {proc.returncode} in {elapsed:.1f}s (limit 300s) on the "
            f"shipped default configuration, "
            f"{len(doc.get('properties', []))} properties checked")
