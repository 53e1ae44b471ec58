import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from neqlifshitz import pressure, spectral
from neqlifshitz.em_green import Geometry
from neqlifshitz.errors import DomainError, SingularityError
from neqlifshitz.material import BathModel, EpsilonTable, Material
from neqlifshitz.spectral import (METHOD_ANALYTIC, METHOD_NEWTON,
                                  branch_inventory, classify_origin_order,
                                  dof_origin_report, expected_dof_origin_orders,
                                  expected_ic_origin_orders, find_qbm_poles,
                                  ic_origin_report, invert_laplace_qbm,
                                  modified_mode_check, origin_laurent_2d,
                                  plate_mode_roots, qbm_char_poly,
                                  scan_dmu_imaginary_axis, winding_count)

LOSSY = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
LOSSY2 = Material(omega0=1.5, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.3))
CUTOFF = Material(omega0=1.0, lambda0=1.0,
                  bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.2, cutoff=50.0))
MARGINAL = Material(omega0=1.3, lambda0=1.0, bath=BathModel(kind="none", gamma=0.0))


def warm_geom(gap=1.0, z_field=0.0):
    left = Material(omega0=1.0, lambda0=1.0,
                    bath=BathModel(kind="ohmic", gamma=0.1), beta_bath=1.0)
    right = Material(omega0=1.5, lambda0=0.8,
                     bath=BathModel(kind="ohmic", gamma=0.3), beta_bath=2.0)
    return Geometry(gap=gap, left=left, right=right, z_field=z_field)


def rand_mat(rng):
    kind = ("ohmic", "ohmic_lorentz_cutoff")[rng.integers(2)]
    if kind == "ohmic":
        bath = BathModel(kind="ohmic", gamma=float(rng.uniform(0.05, 0.8)))
    else:
        bath = BathModel(kind="ohmic_lorentz_cutoff",
                         gamma=float(rng.uniform(0.05, 0.8)),
                         cutoff=float(rng.uniform(10.0, 80.0)))
    return Material(omega0=float(rng.uniform(0.5, 2.5)),
                    lambda0=float(rng.uniform(0.4, 1.5)), bath=bath,
                    beta_bath=float(rng.uniform(0.5, 5.0)))


# ---------------------------------------------------------------------------
# oscillator-response poles
# ---------------------------------------------------------------------------


def test_poles_undamped_marginal():
    rep = find_qbm_poles(MARGINAL)
    assert rep.method == METHOD_ANALYTIC
    assert not rep.causal and rep.marginal
    roots = dict((s, r) for s, o, r in rep.roots)
    assert set(roots) == {1.3j, -1.3j}
    assert_allclose(roots[1.3j], -0.5j / 1.3, rtol=1e-15)
    assert_allclose(roots[-1.3j], +0.5j / 1.3, rtol=1e-15)


def test_poles_ohmic_quadratic():
    rep = find_qbm_poles(LOSSY)
    assert rep.causal and not rep.marginal
    want = complex(-0.05, math.sqrt(1.0 - 0.0025))
    got = sorted((s for s, _, _ in rep.roots), key=lambda z: z.imag)
    assert_allclose(got[1], want, rtol=1e-15)
    assert_allclose(got[0], want.conjugate(), rtol=1e-15)
    # residues reproduce the kernel: sum res/(s - s_j) == 1/(s^2 + g s + W^2)
    s = 0.4 + 0.9j
    recon = sum(r / (s - sj) for sj, _, r in rep.roots)
    assert_allclose(recon, 1.0 / (s * s + 0.1 * s + 1.0), rtol=1e-12)


def test_poles_critically_damped():
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=2.0))
    rep = find_qbm_poles(m)
    assert rep.roots == ((complex(-1.0, 0.0), 2, None),)
    assert rep.causal


def test_poles_overdamped_real():
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=3.0))
    rep = find_qbm_poles(m)
    assert all(s.imag == 0.0 and s.real < 0.0 for s, _, _ in rep.roots)
    assert_allclose(sum(s for s, _, _ in rep.roots), -3.0, atol=1e-14)


def test_poles_cutoff_cubic():
    rep = find_qbm_poles(CUTOFF)
    assert rep.method == METHOD_NEWTON
    assert rep.causal
    assert len(rep.roots) == 3
    # cleared cubic: the root sum is -cutoff
    assert_allclose(sum(s for s, _, _ in rep.roots), -50.0, atol=1e-10)
    # rational-kernel identities: sum of residues 0, first moment 1
    res = [r for _, _, r in rep.roots]
    assert abs(sum(res)) < 1e-10
    assert_allclose(sum(r * s for s, _, r in rep.roots), 1.0, rtol=1e-9)
    # conjugation closure
    roots = [s for s, _, _ in rep.roots]
    for s in roots:
        assert any(abs(s.conjugate() - t) < 1e-9 for t in roots)


def test_pole_report_serializes():
    rep = find_qbm_poles(CUTOFF)
    blob = json.dumps(rep.as_report())
    data = json.loads(blob)
    assert data["causal"] is True
    assert len(data["roots"]) == 3
    assert data["roots"][0]["order"] == 1


def test_char_poly_cutoff_shape():
    c = qbm_char_poly(CUTOFF)
    assert_allclose(c, [1.0, 50.0, 1.0 + 0.2 * 50.0, 50.0])


@settings(deadline=None, max_examples=25)
@given(g=st.floats(0.02, 1.5), w0=st.floats(0.3, 3.0))
def test_poles_lossy_always_causal(g, w0):
    m = Material(omega0=w0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=g))
    rep = find_qbm_poles(m)
    assert rep.causal
    assert rep.max_re < 0.0


def test_winding_count_on_synthetic_poly():
    # (s+1)(s+2)(s - (1+2i))(s - (1-2i))
    poly = np.polymul(np.polymul([1, 1], [1, 2]), [1, -2, 5])
    assert winding_count(poly, -3, 0, -1, 1) == 2
    assert winding_count(poly, 0.5, 2, 1, 3) == 1
    assert winding_count(poly, -5, 3, -4, 4) == 4
    with pytest.raises(SingularityError):
        winding_count(poly, -1, 1, -1, 1)  # root at s=-1 on the edge


# ---------------------------------------------------------------------------
# Talbot-contour inversion
# ---------------------------------------------------------------------------


def test_inversion_undamped_point():
    got = invert_laplace_qbm(MARGINAL, [0.5 * math.pi / 1.3])
    assert_allclose(got, [math.sin(0.5 * math.pi) / 1.3], atol=1e-6)


def test_inversion_damped_closed_form():
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.2))
    t = np.linspace(0.0, 30.0, 121)
    got = invert_laplace_qbm(m, t)
    w1 = math.sqrt(1.0 - 0.01)
    ref = np.exp(-0.1 * t) * np.sin(w1 * t) / w1
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_inversion_boundary_values():
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.2))
    h = 0.01
    g = invert_laplace_qbm(m, [0.0, h, 2 * h, 3 * h, 4 * h])
    assert g[0] == 0.0
    gdot = (48 * g[1] - 36 * g[2] + 16 * g[3] - 3 * g[4]) / (12 * h)
    assert abs(gdot - 1.0) <= 1e-6


def test_inversion_cutoff_long_time_decay():
    # all poles sit left of Re = -gamma/2 * (bath weight); 50/gamma is far
    # into the exponential tail
    got = invert_laplace_qbm(CUTOFF, [250.0, 300.0])
    assert np.max(np.abs(got)) < 1e-8


def test_inversion_residue_sum_cross_check():
    rng = np.random.default_rng(5)
    for _ in range(4):
        m = rand_mat(rng)
        rep = find_qbm_poles(m)
        t = np.linspace(0.0, 30.0 / m.omega0, 16)
        ref = np.zeros_like(t)
        for s0, order, r0 in rep.roots:
            assert order == 1
            ref = ref + (r0 * np.exp(s0 * t)).real
        got = invert_laplace_qbm(m, t)
        assert np.max(np.abs(got - ref)) <= 1e-6


def test_inversion_rejects_bad_grids():
    with pytest.raises(DomainError):
        invert_laplace_qbm(LOSSY, [-1.0, 0.0])
    with pytest.raises(DomainError):
        invert_laplace_qbm(LOSSY, [1.0, 0.5])


# ---------------------------------------------------------------------------
# plate-mode roots and branch cuts
# ---------------------------------------------------------------------------


def test_plate_roots_decoupled_marginal():
    m = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    rep = plate_mode_roots(m, 0.6, kz=0.8)
    assert rep.marginal and not rep.causal
    got = sorted((s for s, _, _ in rep.roots), key=lambda z: z.imag)
    assert_allclose(got[1], 1j, atol=1e-14)
    assert_allclose(got[0], -1j, atol=1e-14)


def test_plate_roots_dispersionless_table():
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([4.0 + 0.0j]))
    rep = plate_mode_roots(table, 2.0)
    got = sorted((s for s, _, _ in rep.roots), key=lambda z: z.imag)
    assert_allclose(got[1], 1j, atol=1e-14)
    dispersive = EpsilonTable(omega=np.array([1.0, 2.0]),
                              eps=np.array([4.0 + 0.1j, 3.0 + 0.1j]))
    with pytest.raises(DomainError):
        plate_mode_roots(dispersive, 2.0)


def test_plate_roots_lossy_left_half_plane():
    rep = plate_mode_roots(LOSSY, 0.7)
    assert rep.causal
    assert len(rep.roots) == 4
    for s0, order, _ in rep.roots:
        assert order == 1
        assert s0.real < 0.0
        eps = 1.0 + 1.0 / (s0 * s0 + 0.1 * s0 + 1.0)
        assert abs(eps * s0 * s0 + 0.49) < 1e-10


def test_plate_roots_cutoff_includes_real_zero():
    rep = plate_mode_roots(CUTOFF, 0.7)
    assert rep.causal
    assert len(rep.roots) == 5
    reals = [s for s, _, _ in rep.roots if s.imag == 0.0]
    assert len(reals) == 1
    # the real radicand zero is pinned just left of the real response pole
    pole = min((s for s, _, _ in find_qbm_poles(CUTOFF).roots),
               key=lambda z: z.real)
    assert pole.real - 1e-3 < reals[0].real < pole.real


def test_plate_roots_degenerate_origin():
    m = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    rep = plate_mode_roots(m, 0.0)
    assert rep.roots == ((0.0j, 2, None),)


def test_branch_inventory_gap_cut():
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([1.0 + 0.0j]))
    geom = Geometry(gap=1.0, left=table, right=table)
    inv = branch_inventory(geom, 2.0)
    kind, (a, b) = inv.cuts[0]
    assert kind == "gap_sqrt"
    assert_allclose(a, 2j)
    assert_allclose(b, -2j)
    inv0 = branch_inventory(geom, 0.0)
    _, (a0, b0) = inv0.cuts[0]
    assert a0 == b0 == 0.0


def test_branch_inventory_lossy_counts_and_halfplane():
    geom = warm_geom()
    inv = branch_inventory(geom, 2.0)
    plate_cuts = [c for c in inv.cuts if c[0] == "plate_sqrt"]
    # each ohmic plate: two zero pairs plus one response-pole pair
    assert len(plate_cuts) == 6
    for _, (a, b) in plate_cuts:
        assert a.real <= 1e-12 and b.real <= 1e-12
        assert_allclose(a, b.conjugate(), rtol=0, atol=1e-9)
    blob = json.dumps(inv.as_report())
    assert "gap_sqrt" in blob


def test_branch_inventory_cutoff_real_segment():
    geom = Geometry(gap=1.0, left=CUTOFF, right=LOSSY)
    inv = branch_inventory(geom, 0.7)
    real_cuts = [(a, b) for kind, (a, b) in inv.cuts
                 if kind == "plate_sqrt" and a.imag == 0.0 and b.imag == 0.0]
    assert len(real_cuts) == 1
    a, b = real_cuts[0]
    assert a.real < b.real < 0.0
    assert b.real - a.real < 1e-3


# ---------------------------------------------------------------------------
# imaginary-axis denominator scans
# ---------------------------------------------------------------------------


def test_scan_decoupled_plates_flat():
    m = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    geom = Geometry(gap=1.0, left=m, right=m)
    grid = np.linspace(-20.0, 20.0, 4001)
    scan = scan_dmu_imaginary_axis(geom, "TE", 0.5, grid)
    assert_allclose(scan.min_abs, 1.0, rtol=1e-12)


def test_scan_lossy_dense_grid_positive():
    geom = warm_geom()
    grid = np.linspace(-20.0, 20.0, 4001)
    scan = scan_dmu_imaginary_axis(geom, "TE", 0.3, grid)
    min_abs, argmin = scan
    assert min_abs > 0.0
    assert abs(argmin) <= 20.0
    # away from the kinematic grazing dip at |omega| = Q the floor is
    # comfortable; Q off the grid lattice keeps the dip unsampled
    for pol in ("TE", "TM"):
        scan = scan_dmu_imaginary_axis(geom, pol, 0.733, grid)
        assert scan.min_abs > 1e-2
        assert not scan.violation


def test_scan_floor_decreases_with_damping():
    grid = np.linspace(-20.0, 20.0, 4001)
    floors = []
    for g in (0.4, 0.2, 0.1, 0.05):
        m = Material(omega0=1.0, lambda0=1.0,
                     bath=BathModel(kind="ohmic", gamma=g))
        geom = Geometry(gap=1.0, left=m, right=m)
        floors.append(scan_dmu_imaginary_axis(geom, "TE", 0.733, grid).min_abs)
    assert all(a > b > 0.0 for a, b in zip(floors, floors[1:]))


def test_scan_grid_validation():
    geom = warm_geom()
    with pytest.raises(DomainError):
        scan_dmu_imaginary_axis(geom, "TE", 0.5, np.linspace(-20, 20, 41))
    with pytest.raises(DomainError):
        scan_dmu_imaginary_axis(geom, "TE", 0.5, np.linspace(1.0, 20.0, 2001))
    with pytest.raises(DomainError):
        scan_dmu_imaginary_axis(geom, "TE", 0.5, np.array([0.5, 0.2, -0.1]))
    report = scan_dmu_imaginary_axis(
        geom, "TM", 0.733, np.linspace(-20, 20, 4001)).as_report()
    assert json.dumps(report)


# ---------------------------------------------------------------------------
# modified-mode removability
# ---------------------------------------------------------------------------


def test_modified_mode_removable_samples():
    rng = np.random.default_rng(3)
    for _ in range(8):
        geom = Geometry(gap=float(rng.uniform(0.5, 2.0)),
                        left=rand_mat(rng), right=rand_mat(rng),
                        z_field=float(rng.uniform(-0.1, 0.1)))
        Q = float(rng.uniform(0.05, 2.5))
        kz = float(rng.uniform(0.25, 2.5)) * (1 if rng.random() < 0.5 else -1)
        num_zero, den_zero, limit, removable = modified_mode_check(geom, Q, kz)
        assert removable
        assert num_zero <= 1e-8 and den_zero <= 1e-8
        assert np.isfinite(limit.real) and np.isfinite(limit.imag)


def test_modified_mode_spread_tolerance():
    chk = modified_mode_check(warm_geom(), 0.7, 1.1)
    assert chk.spread <= 1e-6
    assert chk.omega_k == pytest.approx(math.hypot(0.7, 1.1))
    assert json.dumps(chk.as_report())


def test_modified_mode_rejects_axis_collision():
    with pytest.raises(DomainError):
        modified_mode_check(warm_geom(), 0.7, 0.0)


# ---------------------------------------------------------------------------
# origin classification
# ---------------------------------------------------------------------------


def test_classifier_on_synthetic_laurent():
    o = classify_origin_order(lambda s: 1.0 / s ** 2 + 3.0 / s + 2.0)
    assert (o.order, o.resolved) == (2, True)
    assert_allclose(o.coeff, 1.0, rtol=1e-10)
    o = classify_origin_order(lambda s: (5.0 - 2.0j) / s + 1.0)
    assert (o.order, o.resolved) == (1, True)
    assert_allclose(o.coeff, 5.0 - 2.0j, rtol=1e-10)
    o = classify_origin_order(lambda s: 2.0 + s)
    assert (o.order, o.resolved) == (0, True)
    o = classify_origin_order(lambda s: s * s)
    assert (o.order, o.resolved) == (0, True)
    o = classify_origin_order(lambda s: 0.0)
    assert (o.order, o.resolved) == (0, True)
    assert o.coeff == 0.0


def test_laurent_2d_extracts_torus_coefficients():
    def f2(s1, s2):
        return 0.3 / (s1 * s2) + 2.0 / (s1 ** 2 * s2 ** 2) + 0.7 / s1 + 5.0

    got = origin_laurent_2d(f2, [(-1, -1), (-2, -2), (-1, 0), (0, 0), (-2, -1)])
    assert_allclose(got[(-1, -1)], 0.3, atol=1e-12)
    assert_allclose(got[(-2, -2)], 2.0, atol=1e-8)
    assert_allclose(got[(-1, 0)], 0.7, atol=1e-12)
    assert_allclose(got[(0, 0)], 5.0, atol=1e-10)
    assert_allclose(got[(-2, -1)], 0.0, atol=1e-8)


def test_expected_order_tables():
    assert expected_dof_origin_orders("TM", "product", "electric") == (1, 1)
    assert expected_dof_origin_orders("TM", "product", "magnetic") == (0, 0)
    assert expected_dof_origin_orders("TM", "cross", "electric") == (0, 0)
    assert expected_dof_origin_orders("TE", "product", "electric") == (0, 0)
    assert expected_ic_origin_orders("TM", "electric") == (0, 0)
    assert expected_ic_origin_orders("TE", "magnetic") == (0, 0)


def test_dof_origin_taxonomy():
    rep = dof_origin_report(warm_geom(), 0.7)
    assert rep["taxonomy_ok"]
    # the only origin-singular channel is the product-bracket TM electric
    singular = {key for key, info in rep["parts"].items()
                if info["order"] != [0, 0]}
    assert singular == {"L|TM|product|electric", "R|TM|product|electric"}
    for plate in ("L", "R"):
        rec = rep["plates"][plate]
        for mn in ("c22", "c21", "c12"):
            assert rec[mn]["vanishes"]
            assert rec[mn]["rel"] <= 1e-5
        # a genuine switch-on residue, flagged as discarded
        assert rec["switch_on"]["discarded"] is True
        assert rec["switch_on"]["strength"] > 1e-2
    assert rep["steady_after_discard"] == 0.0
    assert json.dumps(rep)


def test_ic_origin_taxonomy():
    rep = ic_origin_report(warm_geom(), np.array([0.4, 0.3, 1.1]))
    assert rep["taxonomy_ok"]
    assert all(info["order"] == [0, 0] for info in rep["parts"].values())
    for mn in ("c22", "c21", "c12"):
        assert rep["total"][mn]["vanishes"]
    # no initial-field switch-on survives either
    assert rep["total"]["switch_on"]["strength"] < 1e-3
    assert rep["steady_after_discard"] == 0.0
    assert json.dumps(rep)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _spy_torus_tables(monkeypatch):
    seen = []
    original = spectral._torus_tables

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(spectral, "_torus_tables", spy)
    return seen


def test_origin_reports_build_each_block_once_per_point(monkeypatch):
    # 208 (s1, s2) pairs per report, 45 distinct Laplace points per phase:
    # 32 ring points, the probe and 12 torus points
    geom = warm_geom(z_field=0.13)
    Q = 0.7
    k = np.array([0.4, 0.3, 1.1])

    ic_calls = _count_calls(monkeypatch, pressure, "ic_z_block")
    tables = _spy_torus_tables(monkeypatch)
    ic_origin_report(geom, k)
    assert 0 < len(ic_calls) <= 90
    (ring, tabs), = tables
    for a, b in ((0, 0), (3, 7), (11, 5)):
        _, want = pressure.assemble_ic_integrand(geom, k, ring[a], ring[b], parts=True)
        for key, tab in tabs.items():
            assert_allclose(tab[a, b], want[key], rtol=1e-12)

    dof_calls = _count_calls(monkeypatch, pressure, "green_gap_from_plate")
    tables.clear()
    dof_origin_report(geom, Q)
    assert 0 < len(dof_calls) <= 180
    (ring, tabs), = tables
    for a, b in ((0, 0), (2, 9), (10, 4)):
        _, want = pressure.assemble_dof_integrand(geom, Q, ring[a], ring[b], parts=True)
        for key, tab in tabs.items():
            assert_allclose(tab[a, b], want[key], rtol=1e-12)
