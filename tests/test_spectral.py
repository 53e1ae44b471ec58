import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from neqlifshitz import em_green, spectral
from neqlifshitz.em_green import Geometry, GreenBlock, green_gap_from_plate
from neqlifshitz.errors import ConvergenceError, DomainError, SingularityError
from neqlifshitz.material import BathModel, EpsilonTable, Material
from neqlifshitz.spectral import (METHOD_ANALYTIC, METHOD_NEWTON,
                                  branch_inventory, classify_origin_order,
                                  dof_origin_report, expected_dof_origin_orders,
                                  expected_ic_origin_orders, find_qbm_poles,
                                  ic_origin_report, invert_laplace_qbm,
                                  modified_mode_check, plate_mode_roots, qbm_char_poly,
                                  scan_dmu_imaginary_axis, winding_count)

from conftest import fresnel_tm_root, load_script

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_winding_count_resolves_a_root_near_the_edge_and_refuses_one_on_it():
    # a double root 1e-4 inside the right edge: the steps halve where the
    # phase turns, so its two turns cannot alias
    assert winding_count(np.poly([0.9999 + 0.3j] * 2), -1, 1, -1, 1) == 2
    # a root on a sampled corner, and one at a corner z = 0, which a
    # polynomial's box does not cut off: refused, without a division by 0
    with pytest.raises(SingularityError, match="counting contour"):
        winding_count(np.poly([1.0 + 1.0j, 0.2]), -1, 1, -1, 1)
    with pytest.raises(SingularityError, match="counting contour"):
        winding_count(np.poly([0.0, 0.3 + 0.1j]), 0, 1, 0, 1)


def _boundary_distance(z, x0, x1, y0, y1):
    """Distance of z from the boundary of the box x0 < Re < x1, y0 < Im < y1."""
    dx, dy = max(x0 - z.real, 0.0, z.real - x1), max(y0 - z.imag, 0.0, z.imag - y1)
    if dx or dy:
        return math.hypot(dx, dy)
    return min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag)


@given(roots=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=6),
       corner=st.tuples(st.floats(-3.5, 3.0), st.floats(-3.5, 3.0)),
       size=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)))
def test_winding_count_counts_the_roots_inside(roots, corner, size):
    x0, y0 = corner
    x1, y1 = x0 + size[0], y0 + size[1]
    assume(all(_boundary_distance(r, x0, x1, y0, y1) > 1e-3 for r in roots))
    inside = sum(x0 < r.real < x1 and y0 < r.imag < y1 for r in roots)
    assert winding_count(np.poly(roots), x0, x1, y0, y1) == inside


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


def mp_talbot(mat, t, n=None):
    """G(t) as the contour sum of `invert_laplace_qbm` evaluated node by
    node in mpmath: the same node count (the first one tried unless n is
    given), canonical radius r = 2n/(5t), nodes s_k = r base_k and working
    precision, each term exp((2n/5) base_k) w_k F(s_k) one mpmath number,
    one rounding to a float at the end."""
    import mpmath as mp

    poles = [s for s, _, _ in find_qbm_poles(mat).roots]
    r_floor = (2.4 / math.pi) * max(abs(p.imag) for p in poles)
    if n is None:
        n = max(spectral.TALBOT_NODES, int(math.ceil(2.5 * t * r_floor)))
    r = 2.0 * n / (5.0 * t)
    with mp.workdps(max(35, 25 + int(0.2 * n))):
        w2, g = mp.mpf(mat.omega0) ** 2, mp.mpf(mat.bath.gamma)
        if mat.bath.kind == "ohmic_lorentz_cutoff":
            lam = mp.mpf(mat.bath.cutoff)
            F = lambda s: (s + lam) / ((s * s + w2) * (s + lam) + g * lam * s)  # noqa: E731
        else:
            F = lambda s: 1 / (s * s + g * s + w2)  # noqa: E731
        rm = mp.mpf(r)
        expo = lambda b: mp.exp(mp.mpf(2 * n) / 5 * b)  # noqa: E731
        total = mp.re(mp.mpf(0.5) * F(rm) * expo(mp.mpf(1)))
        for k in range(1, n):
            th = mp.pi * k / n
            ct = mp.cot(th)
            b = th * (ct + 1j)
            total += mp.re(expo(b) * F(rm * b) * (1 + 1j * (th + (th * ct - 1) * ct)))
        return float(total * rm / n)


@pytest.mark.parametrize("mat, t, beyond", [
    (LOSSY2, 3.7, False), (CUTOFF, 300.0, True), (MARGINAL, 0.5 * math.pi / 1.3, False),
    (LOSSY, 0.3, False), (LOSSY, 7.0, False), (LOSSY, 60.0, True),
    (CUTOFF, 0.2, False), (CUTOFF, 5.0, False), (CUTOFF, 45.0, True)],
    ids=["canonical", "cutoff-long-time", "marginal", "ohmic-short", "ohmic-mid",
         "ohmic-long", "cutoff-short", "cutoff-mid", "cutoff-long"])
def test_fixed_point_node_sum_matches_mpmath(monkeypatch, mat, t, beyond):
    # the integer node sum, polynomials in r over per-node powers of the
    # contour base, returns the very float that the same contour sum gives
    # in mpmath node by node, also with n_eff > TALBOT_NODES (``beyond``)
    real_gap, seen = spectral._min_node_gap, []
    monkeypatch.setattr(spectral, "_min_node_gap",
                        lambda n_eff, r, poles: seen.append(n_eff) or real_gap(n_eff, r, poles))
    got = invert_laplace_qbm(mat, [t])[0]
    assert len(seen) == 1       # the first node count
    assert (seen[0] > spectral.TALBOT_NODES) == beyond
    assert got == mp_talbot(mat, t)


def test_inversion_rescaled_radius(monkeypatch):
    # a contour node on a pole moves the point to the next node count, with
    # its own canonical radius 2M/(5t): refuse the first count once per
    # point.  The first count is checked on the grid's array of radii, the
    # next one on the refused point's radius alone; each radius is recorded
    # with its count, in the order checked
    real_gap, seen = spectral._min_node_gap, []

    def refuse_first(n_eff, r, poles):
        first = not seen
        seen.extend((n_eff, x) for x in np.ravel(r).tolist())
        return np.zeros(np.shape(r)) if first else real_gap(n_eff, r, poles)

    monkeypatch.setattr(spectral, "_min_node_gap", refuse_first)
    w1 = math.sqrt(1.0 - 0.05 ** 2)
    n = spectral.TALBOT_NODES
    for t in (0.7, 3.0, 12.0):
        seen.clear()
        got = invert_laplace_qbm(LOSSY, [t])[0]
        assert seen == [(n, 2.0 * n / (5.0 * t)), (n + 1, 2.0 * (n + 1) / (5.0 * t))]
        assert got == mp_talbot(LOSSY, t, n=n + 1)
        assert abs(got - math.exp(-0.05 * t) * math.sin(w1 * t) / w1) <= 1e-6


def test_inversion_raises_when_no_node_count_avoids_the_poles(monkeypatch):
    seen = []
    monkeypatch.setattr(spectral, "_min_node_gap",
                        lambda n_eff, r, poles: seen.append(n_eff) or np.zeros(np.shape(r)))
    with pytest.raises(SingularityError, match="cannot avoid a response pole"):
        invert_laplace_qbm(LOSSY, [1.0])
    assert seen == list(range(spectral.TALBOT_NODES, spectral.TALBOT_NODES + 8))


def test_inversion_refuses_node_counts_past_the_ceiling(monkeypatch):
    # t = 2000 needs about 3,050 nodes on LOSSY: the grid is refused before
    # any of its points is summed, and no fixtures are built
    built, real = [], spectral._talbot_fixtures
    monkeypatch.setattr(spectral, "_talbot_fixtures", lambda n: built.append(n) or real(n))
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"t=2000 needs \d+ contour nodes"):
        invert_laplace_qbm(LOSSY, [1.0, 2000.0])
    assert time.perf_counter() - start < 1.0
    assert built == []
    # a point whose first count fits but whose pole-dodging shifts do not
    r_floor = (2.4 / math.pi) * max(abs(s.imag) for s, _, _ in find_qbm_poles(LOSSY).roots)
    t = (spectral.TALBOT_MAX_NODES - 3) / (2.5 * r_floor)
    monkeypatch.setattr(spectral, "_min_node_gap",
                        lambda n_eff, r, poles: np.zeros(np.shape(r)))
    with pytest.raises(ConvergenceError, match=f"needs {spectral.TALBOT_MAX_NODES + 1} contour"):
        invert_laplace_qbm(LOSSY, [t])
    assert built == []


def test_min_node_gap_matches_the_contour_nodes():
    # the cached node angles give the nodes r theta_k (cot theta_k + i)
    # and the node r, for every node count and radius asked
    poles = [-0.05 + 0.9987j, -0.05 - 0.9987j]
    for n_eff, r in ((64, 9.1), (65, 0.37), (64, 2.0)):
        th = np.pi * np.arange(1, n_eff) / n_eff
        nodes = np.concatenate([[r + 0.0j], r * th * (1.0 / np.tan(th) + 1j)])
        want = min(float(np.min(np.abs(nodes - p))) / (1.0 + abs(p)) for p in poles)
        assert spectral._min_node_gap(n_eff, r, poles) == want
    # an array of radii: each radius's gap with the bits of its own call
    radii = np.array([9.1, 0.37, 2.0, 1e-3])
    want = [spectral._min_node_gap(64, r, poles) for r in radii.tolist()]
    got = spectral._min_node_gap(64, radii, poles)
    assert got.shape == radii.shape and got.tolist() == want


def test_inversion_checks_each_first_node_count_once(monkeypatch):
    # one node-gap call per first node count covers all of its times; the
    # shift loop runs for the refused time alone, and every time keeps the
    # bits it has inverted on its own
    t = [0.0, 0.7, 3.0, 12.0, 60.0, 80.0]
    alone = [invert_laplace_qbm(LOSSY, [ti])[0] for ti in t]
    real_gap, calls = spectral._min_node_gap, []

    def refuse_t3(n_eff, r, poles):
        calls.append((n_eff, np.shape(r)))
        gap = real_gap(n_eff, r, poles)
        return np.where(np.asarray(r) == 2.0 * n_eff / (5.0 * 3.0), 0.0, gap) \
            if len(calls) == 1 else gap

    monkeypatch.setattr(spectral, "_min_node_gap", refuse_t3)
    got = invert_laplace_qbm(LOSSY, t)
    n = spectral.TALBOT_NODES
    r_floor = (2.4 / math.pi) * max(abs(s.imag) for s, _, _ in find_qbm_poles(LOSSY).roots)
    counts = [spectral._talbot_node_count(ti, r_floor) for ti in (60.0, 80.0)]
    assert n < counts[0] < counts[1]
    assert calls == [(n, (3,)), (counts[0], (1,)), (counts[1], (1,)), (n + 1, ())]
    assert got.tolist()[:2] + got.tolist()[3:] == alone[:2] + alone[3:]
    assert got[2] == mp_talbot(LOSSY, 3.0, n=n + 1)


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


@pytest.mark.parametrize("Q, kz", [(math.nan, 0.0), (math.inf, 0.0), (-0.5, 0.0),
                                   (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)])
def test_plate_roots_refuse_bad_wavenumbers(Q, kz):
    # an oscillator plate used to raise numpy's LinAlgError here, a table
    # plate to report no root as causal, a lambda0 = 0 plate NaN roots
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([4.0 + 0.0j]))
    mute = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    for side in (LOSSY, table, mute):
        with pytest.raises(DomainError, match="must be finite"):
            plate_mode_roots(side, Q, kz=kz)


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
    # linspace puts +-0.3 at +-0.3000000000000007: the branch points moved
    # by rounding, skipped as the branch points themselves rather than
    # read as a violation
    assert -grid[1970] == grid[2030] == 0.3000000000000007
    assert not scan.violation and scan.n_skipped == 2
    # away from the kinematic grazing dip at |omega| = Q the floor is
    # comfortable; Q off the grid lattice keeps the dip unsampled
    for pol in ("TE", "TM"):
        scan = scan_dmu_imaginary_axis(geom, pol, 0.733, grid)
        assert scan.min_abs > 1e-2
        assert not scan.violation


def test_scan_skips_the_gap_branch_points():
    # at |omega| = Q the gap wavenumber vanishes, r_mu = -1 and D_mu = 0
    # for every material, so a grid that holds those two points must not
    # report a violation there: they are the branch points +-iQ of the
    # gap cut, skipped and counted like lossless response poles
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
    geom = Geometry(gap=1.0, left=m, right=m)
    grid = np.linspace(-2.0, 2.0, 4001)
    assert np.count_nonzero(np.abs(grid) == 0.5) == 2
    for pol, floor in (("TE", 0.206), ("TM", 0.404)):
        scan = scan_dmu_imaginary_axis(geom, pol, 0.5, grid)
        assert not scan.violation and scan.n_skipped == 2
        assert scan.min_abs == pytest.approx(floor, abs=1e-3)
        rest = scan_dmu_imaginary_axis(geom, pol, 0.5, grid[np.abs(grid) != 0.5])
        assert (rest.min_abs, rest.argmin) == (scan.min_abs, scan.argmin)
    with pytest.raises(DomainError, match="only the gap branch points"):
        scan_dmu_imaginary_axis(geom, "TE", 0.1, np.array([-0.1, 0.1]))


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


def test_modified_mode_check_builds_one_block(monkeypatch):
    # the 24 approach points (2 signs x 4 directions x 3 radii) share one build
    calls = []
    build = em_green.ic_z_block

    def counted(geom, s, *args, **kwargs):
        calls.append(np.shape(s))
        return build(geom, s, *args, **kwargs)

    monkeypatch.setattr(em_green, "ic_z_block", counted)
    assert modified_mode_check(warm_geom(), 0.7, 1.1).removable
    assert calls == [(2, 4, 3)]


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
    # the origin reports' classification and torus coefficients on a
    # synthetic two-part Laurent series: per part, the four orders the
    # reports read, and a second-order pole in each variable
    parts = {
        "a": lambda s1, s2: 0.3 / (s1 * s2) + 2.0 / (s1 ** 2 * s2 ** 2) + 0.7 / s1 + 5.0,
        "b": lambda s1, s2: (1.5 - 0.5j) / (s1 ** 2 * s2) - 0.4 / (s1 * s2 ** 2) + s2,
    }
    want = {"a": {(-1, -1): 0.3, (-2, -2): 2.0, (-2, -1): 0.0, (-1, -2): 0.0},
            "b": {(-1, -1): 0.0, (-2, -2): 0.0, (-2, -1): 1.5 - 0.5j, (-1, -2): -0.4}}
    built = []

    def halves(s):
        built.append(s)
        return s, s

    def pair(s1, s2):
        return {key: f(s1, s2) for key, f in parts.items()}

    radius, n_theta = spectral.TORUS_RADIUS, spectral.TORUS_POINTS
    report, all_match, keys, coeffs, scale = spectral._origin_report(
        halves, pair, lambda key: (2, 2))
    assert keys == ["a", "b"] and all_match
    assert [report[key]["order"] for key in keys] == [[2, 2], [2, 2]]
    for i, key in enumerate(keys):
        assert set(coeffs) == set(want[key])
        for mn, c in want[key].items():
            assert_allclose(coeffs[mn][i], c, atol=1e-10, err_msg=f"{key} {mn}")
    # both halves come from one build on one flat array of the rings, the
    # probe and the torus
    n_pts = spectral.RING_COUNT * spectral.RING_POINTS + 1 + n_theta
    assert [np.shape(s) for s in built] == [(n_pts,)]
    ring = radius * np.exp(2j * np.pi * (np.arange(n_theta) + 0.5) / n_theta)
    s1, s2 = np.meshgrid(ring, ring, indexing="ij")
    assert_allclose(scale, np.median(sum(np.abs(f(s1, s2)) for f in parts.values())),
                    rtol=1e-12)


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


@pytest.mark.parametrize("beta_em", [math.nan, 0.0, -2.0, -math.inf])
def test_initial_field_refuses_a_bad_beta_em(beta_em):
    # a NaN beta_em used to be read as the vacuum, a negative one to give
    # a negative occupation; both entries share the pair step's check
    geom, k = warm_geom(), np.array([0.4, 0.3, 1.1])
    with pytest.raises(DomainError, match="beta_em must be > 0"):
        spectral.assemble_ic_integrand(geom, k, 0.15 - 0.8j, 0.15 + 0.8j, beta_em=beta_em)
    with pytest.raises(DomainError, match="beta_em must be > 0"):
        ic_origin_report(geom, k, beta_em=beta_em)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_origin_reports_build_each_block_once_per_point(monkeypatch):
    # 208 (s1, s2) pairs per report, 45 distinct Laplace points (32 ring
    # points, the probe and 12 torus points), built once whatever the torus
    # size: the s2 half is the s1 half's mirror image (oscillator report),
    # or the conjugate of the s1 half at the conjugate points (initial
    # field, one build on the points and their conjugates)
    geom = warm_geom(z_field=0.13)
    Q = 0.7
    k = np.array([0.4, 0.3, 1.1])

    ic_calls = _count_calls(monkeypatch, spectral, "ic_z_block")
    tables = _count_calls(monkeypatch, spectral, "_laurent_coefficients")
    ic_origin_report(geom, k)
    assert len(ic_calls) == 1
    (_, s, *_), = ic_calls
    assert np.shape(s) == (90,) and np.array_equal(s[45:], np.conj(s[:45]))
    (ring, tabs), = tables
    for a, b in ((0, 0), (3, 7), (11, 5)):
        _, want = spectral.assemble_ic_integrand(geom, k, ring[a], ring[b], parts=True)
        for tab, key in zip(tabs, sorted(want), strict=True):
            assert_allclose(tab[a, b], want[key], rtol=1e-12)
    ic_calls.clear()
    with monkeypatch.context() as m:
        m.setattr(spectral, "TORUS_POINTS", 16)
        ic_origin_report(geom, k)
    assert len(ic_calls) == 1

    # one optics record, for s1, holding a block per coupled plate
    dof_calls = _count_calls(monkeypatch, spectral, "_from_plate_blocks")
    tables.clear()
    dof_origin_report(geom, Q)
    assert len(dof_calls) == 1
    assert [len(args[1]) for args in dof_calls] == [2]
    assert [args[4] for args in dof_calls] == [+1]
    (ring, tabs), = tables
    for a, b in ((0, 0), (2, 9), (10, 4)):
        _, want = spectral.assemble_dof_integrand(geom, Q, ring[a], ring[b], parts=True)
        for tab, key in zip(tabs, sorted(want), strict=True):
            assert_allclose(tab[a, b], want[key], rtol=1e-12)
    dof_calls.clear()
    with monkeypatch.context() as m:
        m.setattr(spectral, "TORUS_POINTS", 16)
        dof_origin_report(geom, Q)
    assert len(dof_calls) == 1


def _assert_same_halves(got, want):
    # nested tuples and dicts of arrays and constants, equal entry by entry
    # (np.array_equal: a zero's sign may differ)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            _assert_same_halves(got[key], want[key])
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_halves(g, w)
    else:
        assert np.array_equal(got, want)


def test_s2_halves_follow_exactly_from_s1_halves():
    # the origin reports take the s2 half (phase_sign = -1) from the s1
    # half: the oscillator half at the same points is its mirror image
    # under x -> -x, and the initial-field half at s is the conjugate of
    # the s1 half at conj(s).  Both hold to the bit on criterion 7's draws
    # and on the lossless (eta shift), uncoupled and cutoff plates of the
    # fingerprint script's edge case, at Q = 0 too; an anisotropic plate
    # or a non-reciprocal term would break them
    script = load_script("analytic_fingerprints")
    cases = [(c.geom, [c.q_dof], [c.k]) for c in script.criterion_7_cases()]
    cases += [(geom, script.EDGE_Q, [np.array(k) for k in script.EDGE_K])
              for geom in script.edge_geometries()]
    _, _, ring = spectral._ring_samples()
    s = np.concatenate([ring.ravel(), [spectral.ORIGIN_PROBE, 0.2 - 0.9j, 1.3 + 2.1j]])
    mirror = np.diag([-1.0, 1.0, 1.0])
    for geom, qs, ks in cases:
        for Q in qs:
            h1, h2 = spectral._dof_half(geom, Q, s, +1), spectral._dof_half(geom, Q, s, -1)
            _assert_same_halves(spectral._mirror_half(h1), h2)
            for plate, (_, _, co) in h1[1].items():
                for pol, (_, F, C) in co.items():
                    _, F2, C2 = h2[1][plate][2][pol]
                    assert np.array_equal(mirror @ F @ mirror, F2)
                    assert np.array_equal(-(mirror @ C @ mirror), C2)
        for k in ks:
            h1, h2 = spectral._ic_half(geom, k, s.conj(), +1), spectral._ic_half(geom, k, s, -1)
            _assert_same_halves(spectral._conj_half(h1), h2)


@pytest.mark.parametrize("kind", ["dof", "ic"])
def test_origin_classification_samples_match_the_integrands(monkeypatch, kind):
    # every ring sample a report classifies is its integrand at (ring
    # point, probe) for s1 and at (probe, ring point) for s2, as the
    # public integrand evaluates it
    geom = warm_geom(z_field=0.13)
    if kind == "dof":
        report, integrand, arg = dof_origin_report, spectral.assemble_dof_integrand, 0.7
    else:
        report, integrand, arg = (ic_origin_report, spectral.assemble_ic_integrand,
                                  np.array([0.4, 0.3, 1.1]))
    stacks = _count_calls(monkeypatch, spectral, "_classify_samples")
    report(geom, arg)
    (samples, _, _), = stacks
    _, _, ring = spectral._ring_samples()
    probe = spectral.ORIGIN_PROBE
    n_parts = len(samples) // 2
    for idx, s in np.ndenumerate(ring):
        for var, (s1, s2) in enumerate(((s, probe), (probe, s))):
            _, want = integrand(geom, arg, s1, s2, parts=True)
            got = samples[var * n_parts:(var + 1) * n_parts, idx[0], idx[1]]
            assert_allclose(got, [want[key] for key in sorted(want)], rtol=1e-12,
                            err_msg=f"variable {var + 1} at {s}")


def test_ic_origin_report_makes_one_trace_pair_per_polarization(monkeypatch):
    # each contracted pair of halves costs one source factor and one trace
    # pair: one pair step x 2 polarizations covers the 208 sampled (s1, s2)
    # pairs
    factors = _count_calls(monkeypatch, spectral, "_source_factor")
    ic_origin_report(warm_geom(), np.array([0.4, 0.3, 1.1]))
    assert len(factors) == 2


def test_origin_reports_contract_only_the_pairs_they_read(monkeypatch):
    # each report gathers both halves onto the 208 (s1, s2) pairs it reads
    # (32 ring x probe, 32 probe x ring, 12 x 12 torus) and contracts those
    # alone, not the 45 x 45 product of its points
    geom = warm_geom(z_field=0.13)
    pairs = spectral.RING_COUNT * spectral.RING_POINTS * 2 + spectral.TORUS_POINTS ** 2
    assert pairs == 208
    for report, arg, n_calls in ((dof_origin_report, 0.7, 4),    # plates x pols
                                 (ic_origin_report, np.array([0.4, 0.3, 1.1]), 2)):
        calls = _count_calls(monkeypatch, spectral, "_contract")
        report(geom, arg)
        assert len(calls) == n_calls
        for (_, F1, C1), (_, F2, C2), s1, s2, *_ in calls:
            assert np.shape(s1) == np.shape(s2) == (pairs,)
            assert F1.shape == F2.shape == C1.shape == C2.shape == (pairs, 3, 3)


@pytest.mark.parametrize("kind", ["dof", "ic"])
def test_transient_blocks_reduce_to_one_source_factor(monkeypatch, kind):
    # every block either integrand contracts is one polarization with one
    # source: a from-plate block's terms share plate, reference height and
    # pending exponent; a plane-wave-weighted block's L, R and gap terms are
    # all source-integrated
    blocks = []
    coincidence = spectral._coincidence

    def spy(block):
        blocks.append(block)
        return coincidence(block)

    monkeypatch.setattr(spectral, "_coincidence", spy)
    factors = _count_calls(monkeypatch, spectral, "_source_factor")
    geom = warm_geom(z_field=0.13)
    s1, s2 = 0.2 - 0.9j, 0.1 + 1.3j
    if kind == "dof":
        spectral.assemble_dof_integrand(geom, 0.7, s1, s2)
        assert len(blocks) == 8     # 2 plates x 2 phases x 2 polarizations
    else:
        spectral.assemble_ic_integrand(geom, np.array([0.4, 0.3, 1.1]), s1, s2)
        assert len(blocks) == 4     # 2 phases x 2 polarizations
    assert {b.terms[0].pol for b in blocks} == {"TE", "TM"}
    for b in blocks:
        rep = b.terms[0]
        assert all(t.pol == rep.pol for t in b.terms)
        if kind == "dof":
            assert np.all(np.asarray(rep.src_exp) != 0)
            assert all(t.plate == rep.plate and t.z_ref == rep.z_ref
                       and np.array_equal(t.src_exp, rep.src_exp) for t in b.terms)
        else:
            assert {t.plate for t in b.terms} == {"L", "R", "gap"}
            assert all(np.all(np.asarray(t.src_exp) == 0) for t in b.terms)
    assert len(factors) == len(blocks) // 2


def loop_coincidence(block):
    """Reference (src, F, C) of `spectral._coincidence`, one term at a time
    into zero-initialized tensors."""
    Q = np.asarray(block.Q, dtype=float)
    z = block.geom.z_field
    kx = 1j * block.phase_sign * Q
    shape = np.broadcast_shapes(np.shape(block.s), Q.shape) + (3, 3)
    F = np.zeros(shape, dtype=complex)
    C = np.zeros(shape, dtype=complex)
    for t in block.terms:
        f = np.asarray(t.field_vec)
        fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
        ez = np.asarray(t.exp_z, dtype=complex)
        curl = np.stack(np.broadcast_arrays(-(ez * fy), ez * fx - kx * fz, kx * fy),
                        axis=-1)
        scal = t.scalar if z == 0.0 else t.scalar * np.exp(ez * z)
        su = np.asarray(scal)[..., None] * np.asarray(t.src_vec)
        F = F + f[..., :, None] * su[..., None, :]
        C = C + curl[..., :, None] * su[..., None, :]
    rep = block.terms[0] if block.terms else None
    return (None if rep is None else (rep.plate, rep.z_ref, rep.src_exp)), F, C


def test_stacked_coincidence_matches_the_term_loop():
    # the terms stacked on one axis and summed over it add in block order,
    # so F and C equal the term-by-term sum exactly on blocks built on
    # arrays (of Laplace points or of Q), as every transient integrand
    # builds them.  A block at one scalar (s, Q) is the loop's exception:
    # there its arithmetic runs on numpy scalars, whose complex product
    # can round apart from the array loops' by an ulp
    s = np.array([0.2 - 0.9j, 0.1 + 1.3j, 0.005j, 0.31 + 0.23j, 0.004 - 0.003j])
    blocks = []
    for z_field in (0.0, 0.13):
        geom = warm_geom(z_field=z_field)
        for ps in (+1, -1):
            for pts, Q in ((s, 0.7), (s[:, None], np.array([0.3, 0.7, 1.9])),
                           (0.2 - 0.9j, np.array([0.3, 0.7])), (0.2 - 0.9j, 0.7)):
                blocks += [green_gap_from_plate(geom, plate, pts, Q, ps) for plate in "LR"]
                blocks.append(em_green.ic_z_block(geom, pts, Q, 1.1, ps))
    empty = GreenBlock(terms=(), s=s, Q=np.asarray(0.7), phase_sign=+1, geom=warm_geom())
    for block in blocks + [empty]:
        for part in (block, block.filtered("TE"), block.filtered("TM")):
            got, want = spectral._coincidence(part), loop_coincidence(part)
            if np.ndim(part.s) or np.ndim(part.Q):
                assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            else:
                assert_allclose(got[1], want[1], rtol=1e-15, atol=1e-15 * np.abs(want[1]).max())
                assert_allclose(got[2], want[2], rtol=1e-15, atol=1e-15 * np.abs(want[2]).max())
            if want[0] is None:
                assert got[0] is None
            else:
                assert got[0][:2] == want[0][:2] and np.array_equal(got[0][2], want[0][2])
    assert spectral._coincidence(empty)[1].shape == (5, 3, 3)

    # a step-gated term, and terms with two pending sources, are refused
    plate_block = blocks[0]
    step = replace(plate_block, terms=(replace(plate_block.terms[0], step="z>zs"),))
    with pytest.raises(DomainError, match="step-gated"):
        spectral._coincidence(step)
    right = green_gap_from_plate(warm_geom(), "R", s, 0.7)
    mixed = replace(plate_block, terms=plate_block.terms + right.terms[:1])
    with pytest.raises(DomainError, match="share one plate"):
        spectral._coincidence(mixed)


def _count_optics(monkeypatch):
    return {name: _count_calls(monkeypatch, em_green, name)
            for name in ("qz", "plate_eps", "_fresnel_coeffs")}


def _assert_one_optics_evaluation(geom, calls):
    # the gap wavenumber once, then each plate's permittivity, wavenumber
    # and Fresnel coefficients once
    assert [args[0] for args in calls["plate_eps"]] == [geom.left, geom.right]
    assert len(calls["qz"]) == 3 and calls["qz"][0][0] == 1.0
    assert len(calls["_fresnel_coeffs"]) == 2


_OPTICS_BUILDS = {
    "from_plate_L": lambda g, s, Q: green_gap_from_plate(g, "L", s, Q),
    "from_plate_R": lambda g, s, Q: green_gap_from_plate(g, "R", s, Q, phase_sign=-1),
    "bulk_scattered": lambda g, s, Q: em_green.green_gap_bulk_scattered(g, s, Q, z_src=0.2),
    "plate_from_gap": lambda g, s, Q: em_green.green_plate_from_gap(g, "L", s, Q, z_src=0.2),
    "ic_z_block": lambda g, s, Q: em_green.ic_z_block(g, s, Q, 1.3, -1),
}


@pytest.mark.parametrize("name", sorted(_OPTICS_BUILDS))
def test_block_build_evaluates_its_optics_once(monkeypatch, name):
    # every sub-block and D_mu of one build reads the build's one
    # evaluation of the optics
    geom = warm_geom(z_field=0.13)
    calls = _count_optics(monkeypatch)
    _OPTICS_BUILDS[name](geom, 0.2 - 0.9j, np.array([0.3, 0.7, 1.9]))
    _assert_one_optics_evaluation(geom, calls)


def test_dof_half_evaluates_each_plate_fresnel_once(monkeypatch):
    # both plates' blocks of one Laplace point share one evaluation of the
    # optics, and give the same bits as separate builds
    geom = warm_geom(z_field=0.13)
    Q, s = np.array([0.3, 0.7, 1.9]), 0.2 - 0.9j
    calls = _count_optics(monkeypatch)
    _, plates = spectral._dof_half(geom, Q, s, -1)
    _assert_one_optics_evaluation(geom, calls)
    assert set(plates) == {"L", "R"}
    for plate, (_, _, co) in plates.items():
        alone = green_gap_from_plate(geom, plate, s, Q, phase_sign=-1)
        for pol in ("TE", "TM"):
            _, F, C = spectral._coincidence(alone.filtered(pol))
            assert np.array_equal(co[pol][1], F) and np.array_equal(co[pol][2], C)


# ---------------------------------------------------------------------------
# Green blocks on arrays of Laplace points
# ---------------------------------------------------------------------------


def _term_arrays(block):
    return [np.asarray(getattr(t, name)) for t in block.terms
            for name in ("scalar", "exp_z", "src_exp", "field_vec", "src_vec")]


def _bulk_scattered_arrays(geom, s, Q):
    block = em_green.green_gap_bulk_scattered(geom, s, Q, z_src=0.2)
    return _term_arrays(block) + [block.delta_scalar]


def _dof_half_arrays(geom, s, Q):
    _, plates = spectral._dof_half(geom, Q, s, -1)
    return [x for plate in sorted(plates) for a, b, co in [plates[plate]]
            for x in (a, b) + tuple(co[pol][i] for pol in ("TE", "TM") for i in (1, 2))]


def _ic_half_arrays(geom, s, Q):
    _, co = spectral._ic_half(geom, np.array([Q, 0.0, 1.1]), s, +1)
    return [co[pol][i] for pol in ("TE", "TM") for i in (1, 2)]


_POINT_BUILDS = {
    "from_plate_L": lambda g, s, Q: _term_arrays(
        green_gap_from_plate(g, "L", s, Q, phase_sign=-1)),
    "from_plate_R": lambda g, s, Q: _term_arrays(green_gap_from_plate(g, "R", s, Q)),
    "bulk_scattered": _bulk_scattered_arrays,
    "plate_from_gap": lambda g, s, Q: _term_arrays(
        em_green.green_plate_from_gap(g, "R", s, Q, z_src=0.2, phase_sign=-1)),
    "ic_z_block": lambda g, s, Q: _term_arrays(em_green.ic_z_block(g, s, Q, 1.1, -1)),
    "ic_z_integral": lambda g, s, Q: [em_green.ic_z_integral(g, s, Q, 1.1)],
    "dof_half": _dof_half_arrays,
    "ic_half": _ic_half_arrays,
}


@pytest.mark.parametrize("name", sorted(_POINT_BUILDS))
def test_point_array_builds_match_scalar_builds(name):
    # one build on an array of Laplace points equals the scalar builds
    # stacked: a shuffled 1-d array at one Q, and a column of s against a
    # row of Q (the initial-field half takes its Q from a wavevector, so
    # it gets the column at one Q).  The points keep |s| >= 0.1: nearer
    # the origin the TM coincidence sums of the initial-field half cancel
    # (about 4 digits at |s| = 5e-3), so two roundings of them differ by
    # more than 1e-13; the origin-report test covers that region against
    # `assemble_*`, which rounds as the array builds do.
    build = _POINT_BUILDS[name]
    geom = warm_geom(z_field=0.13)
    rng = np.random.default_rng(11)
    s = rng.permutation(np.array([0.2 - 0.9j, 0.1 + 1.3j, 0.1 * np.exp(0.3j),
                                  -0.85j, 0.6 + 0.05j, 1.5 - 2.0j, 0.02 + 0.3j]))
    Q_row = 0.7 if name == "ic_half" else np.array([0.3, 0.7, 1.9])
    for pts, Q in ((s, 0.7), (s[:, None], Q_row)):
        got = build(geom, pts, Q)
        each = [build(geom, x, Q) for x in pts.flat]
        assert len(got) == len(each[0])
        for i, arr in enumerate(got):
            want = np.stack([np.asarray(e[i]) for e in each])
            if np.ndim(arr):    # else a constant of the block, like src_exp = 0
                assert np.size(arr) == want.size
                want = want.reshape(np.shape(arr))
            assert_allclose(arr, want, rtol=1e-13, atol=0, err_msg=f"{name} #{i}")

    # a point on a Fresnel root (of the left plate's TM denominator) is named
    Q = 5.0
    root = fresnel_tm_root(geom.left, Q, -0.05 + 1.22j)
    pts = rng.permutation(np.array([0.3 + 0.1j, root, 0.2j, 1.1 - 0.4j]))
    with pytest.raises(SingularityError, match="Fresnel denominator") as err:
        build(geom, pts, Q)
    assert err.value.point == root and f"s={root}" in str(err.value)


# ---------------------------------------------------------------------------
# typed errors for bad inputs
# ---------------------------------------------------------------------------


def test_inversion_refuses_non_finite_times():
    for bad in ([0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(DomainError, match="t_grid must be finite"):
            invert_laplace_qbm(LOSSY, bad)


def test_scan_refuses_non_finite_grid_and_q():
    geom = warm_geom()
    grid = np.linspace(-20.0, 20.0, 4001)
    with_nan = grid.copy()
    with_nan[17] = math.nan
    with pytest.raises(DomainError, match="omega_grid must be finite"):
        scan_dmu_imaginary_axis(geom, "TE", 0.5, with_nan)
    for Q in (math.nan, math.inf, -0.5):
        with pytest.raises(DomainError, match="Q must be finite and >= 0"):
            scan_dmu_imaginary_axis(geom, "TE", Q, grid)


def test_modified_mode_check_refuses_non_finite_q_and_kz():
    geom = warm_geom()
    for Q, kz in ((math.nan, 1.1), (math.inf, 1.1), (0.7, math.nan), (0.7, -math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            modified_mode_check(geom, Q, kz)


def test_dof_origin_report_refuses_bad_q():
    for Q in (math.nan, math.inf, -0.7):
        with pytest.raises(DomainError, match="Q must be finite and >= 0"):
            dof_origin_report(warm_geom(), Q)


def test_dof_origin_report_refuses_q_near_its_rings():
    # below DOF_Q_MARGIN * RING_R0 the branch points +-iQ crowd the
    # classification rings: the report raises instead of returning a
    # failed taxonomy, and at the bound itself its taxonomy holds, on
    # criterion 7's 20 draws and the fingerprint script's edge geometries
    script = load_script("analytic_fingerprints")
    bound = spectral.DOF_Q_MARGIN * spectral.RING_R0
    assert bound == 0.04
    geoms = [c.geom for c in script.criterion_7_cases(20)] + script.edge_geometries()
    for geom in geoms:
        for Q in (0.0, 1e-3, math.nextafter(bound, 0.0)):
            with pytest.raises(DomainError, match="DOF_Q_MARGIN"):
                dof_origin_report(geom, Q)
        assert dof_origin_report(geom, bound)["taxonomy_ok"]


def test_ic_origin_report_refuses_non_finite_k():
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(3):
            k = np.array([0.4, 0.3, 1.1])
            k[i] = bad
            with pytest.raises(DomainError, match="k must be finite"):
                ic_origin_report(warm_geom(), k)
