import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from neqlifshitz import em_green
from neqlifshitz.em_green import (
    XHAT,
    ZHAT,
    Geometry,
    dmu,
    fresnel,
    green_gap_bulk_scattered,
    green_gap_from_plate,
    green_plate_from_gap,
    ic_z_block,
    ic_z_integral,
    plate_eps,
    qz,
)
from neqlifshitz.errors import DomainError, SingularityError
from neqlifshitz.material import BathModel, Material
from neqlifshitz.spectral import scan_dmu_imaginary_axis

from conftest import fresnel_tm_root

LOSSY = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
LOSSY2 = Material(omega0=1.5, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.3))
VACUUM = Material(lambda0=0.0, bath=BathModel(kind="none", gamma=0.0))


def geom_pair(gap=1.0, z_field=0.1):
    return Geometry(gap=gap, left=LOSSY, right=LOSSY2, z_field=z_field)


def free_green_tensor(s, Q, dz, phase_sign=+1):
    """Independent closed form of the free block (delta term excluded):
    -exp(-q|dz|)/(2q) (I + kk/s^2), k = (phase_sign*Q, 0, i*q*sign(dz)).
    s^2 is represented as q^2 - Q^2 so the retarded eta shift enters both
    factors consistently."""
    q = qz(1.0, s, Q)
    s2 = q * q - Q * Q
    k = np.array([phase_sign * Q, 0.0, 1j * q * math.copysign(1.0, dz)])
    return -np.exp(-q * abs(dz)) / (2.0 * q) * (np.eye(3) + np.outer(k, k) / s2)


def curl_rows(block, z, z_src=None):
    """(curl G)_{ij} = eps_{iab} d_a G_{bj}, exact per term."""
    if z_src is None:
        z_src = block.z_src
    out = 0.0
    for t in block.terms:
        w = 1.0
        if t.step:
            w = 1.0 if ((z > z_src) == (t.step == "z>zs")) and z != z_src else 0.0
        if w == 0.0:
            continue
        kappa = 1j * block.phase_sign * block.Q * XHAT + t.exp_z * ZHAT
        amp = t.scalar * np.exp(t.exp_z * z)
        if z_src is not None and not np.all(t.src_exp == 0.0):
            amp = amp * np.exp(t.src_exp * (z_src - t.z_ref))
        out = out + w * amp * np.outer(np.cross(kappa, t.field_vec), t.src_vec)
    return out


def quad_complex(f, a, b, **kw):
    re = quad(lambda x: f(x).real, a, b, **kw)[0]
    im = quad(lambda x: f(x).imag, a, b, **kw)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# wavevectors, Fresnel coefficients, source vectors
# ---------------------------------------------------------------------------


def test_qz_examples():
    assert_allclose(qz(1.0, 2.0, 0.0), 2.0, rtol=1e-8)
    # propagating boundary value: exact retarded-side limit of the cut
    got = qz(1.0, -2j, 1.0)
    assert got == -1j * math.sqrt(3.0)
    assert got.real == 0.0
    # approaching the axis from Re s > 0 converges to the boundary value
    assert_allclose(qz(1.0, 1e-7 - 2j, 1.0), got, atol=1e-6)
    # evanescent: real and positive, exactly
    assert qz(1.0, -1j, 2.0) == math.sqrt(3.0)


def test_qz_eta_prescription_consistency():
    # the branch choice must be stable against the eta magnitude
    w, Q = 2.0, 1.0
    a = np.sqrt(1.0 * (-1j * w + 1e-6) ** 2 + Q**2)
    assert_allclose(qz(1.0, -1j * w, Q), a, atol=2e-6)


def test_qz_conjugate_pair():
    for Q in (0.2, 1.0, 3.0):
        assert_allclose(qz(1.0, 1.7j, Q), np.conj(qz(1.0, -1.7j, Q)), rtol=1e-12)


def test_fresnel_trivial_and_limits():
    r_te, r_tm, t_te, t_tm = fresnel(1.0, -1j * 1.3, 0.7)
    assert_allclose([r_te, r_tm], [0.0, 0.0], atol=1e-9)
    assert_allclose([t_te, t_tm], [1.0, 1.0], atol=1e-9)
    r_te, r_tm, _, _ = fresnel(1e9 + 1e7j, -1j * 1.3, 0.7)
    assert_allclose(r_te, -1.0, atol=1e-4)
    assert_allclose(r_tm, +1.0, atol=1e-4)


def test_fresnel_boundary_conditions():
    """Strong oracle: the assembled Green blocks satisfy the interface
    conditions — tangential G and tangential curl G continuous across the
    left face, for a source in the gap."""
    geom = geom_pair(gap=1.4, z_field=0.2)
    s, Q, z_src = 0.4 - 1.1j, 0.8, 0.17
    eps_edge = 1e-9
    zb = -geom.gap / 2
    gap_blk = green_gap_bulk_scattered(geom, s, Q, z_src=z_src)
    plate_blk = green_plate_from_gap(geom, "L", s, Q, z_src=z_src)
    g_gap = gap_blk.evaluate(zb + eps_edge)
    g_plate = plate_blk.evaluate(zb - eps_edge)
    assert_allclose(g_plate[:2], g_gap[:2], rtol=2e-6, atol=1e-9)
    c_gap = curl_rows(gap_blk, zb + eps_edge)
    c_plate = curl_rows(plate_blk, zb - eps_edge)
    assert_allclose(c_plate[:2], c_gap[:2], rtol=2e-6, atol=1e-9)


def test_fresnel_names_the_point_where_a_denominator_vanishes():
    # a root of LOSSY's TM denominator eps(s) q + qn, alone (as a numpy
    # scalar) and among other Laplace points
    Q = 5.0
    root = fresnel_tm_root(LOSSY, Q, -0.05 + 1.22j)
    with pytest.raises(SingularityError, match="Fresnel denominator") as err:
        fresnel(LOSSY, np.complex128(root), Q)
    assert type(err.value.point) is complex and err.value.point == root
    pts = np.array([0.3 + 0.1j, 0.2j, root, 1.1 - 0.4j])
    for s in (pts, pts[:, None]):
        with pytest.raises(SingularityError, match="Fresnel denominator") as err:
            fresnel(LOSSY, s, Q)
        assert err.value.point == root and f"s={root}" in str(err.value)


def stacked_optics(s, Q):
    """(eps, q, qn) of LOSSY and LOSSY2 at Laplace points s, both plates
    on the leading axis of eps and qn, as the steady channel kernel holds them."""
    eps = np.stack([plate_eps(LOSSY, s), plate_eps(LOSSY2, s)])
    return eps, np.asarray(qz(1.0, s, Q)), np.asarray(qz(eps, s, Q))


def fresnel_buffers(shape):
    """The (den, r, mag) buffers of `_fresnel_coeffs`' out form."""
    return (np.empty((2,) + shape, complex), np.empty((2,) + shape, complex),
            np.empty((2,) + shape))


def test_fresnel_coeffs_are_the_plain_quotient_in_and_out_of_buffers():
    # propagating (Q < omega) and evanescent nodes of three real-axis
    # frequencies: with or without buffers, the coefficients have the
    # bits of the plain numpy quotient (the form the steady pass ran
    # before its buffers), and the out form returns them in the r buffer
    w = np.array([0.4, 1.3, 3.0])[:, None]
    s = -1j * w
    eps, q, qn = stacked_optics(s, w * np.array([0.0, 0.5, 0.99, 1.01, 2.0, 5.0]))
    plain = np.stack([q - qn, eps * q - qn]) / np.stack([q + qn, eps * q + qn])
    out = fresnel_buffers(qn.shape)
    fresh = em_green._fresnel_coeffs(eps, q, qn, s)
    got = em_green._fresnel_coeffs(eps, q, qn, s, out=out)
    assert got is out[1] and got.shape == fresh.shape == plain.shape == (2, 2, 3, 6)
    assert got.tobytes() == fresh.tobytes() == plain.tobytes()


def test_fresnel_coeffs_into_buffers_raise_as_the_fresh_form():
    # at a root of LOSSY's TM denominator among other Laplace points, with
    # LOSSY2 stacked behind it, both forms name the same point
    Q = 5.0
    root = fresnel_tm_root(LOSSY, Q, -0.05 + 1.22j)
    s = np.array([0.3 + 0.1j, 0.2j, root, 1.1 - 0.4j])
    eps, q, qn = stacked_optics(s, Q)
    raised = []
    for out in (None, fresnel_buffers(qn.shape)):
        with pytest.raises(SingularityError, match="Fresnel denominator") as err:
            em_green._fresnel_coeffs(eps, q, qn, s, out=out)
        raised.append((str(err.value), err.value.point))
    assert raised[0] == raised[1] and raised[0][1] == root


def test_dmu_values():
    geom = geom_pair()
    s, Q = -1j * 1.2, 0.5
    for pol, i in (("TE", 0), ("TM", 1)):
        r1 = fresnel(LOSSY, s, Q)[i]
        r2 = fresnel(LOSSY2, s, Q)[i]
        manual = 1.0 - r1 * r2 * np.exp(-2.0 * qz(1.0, s, Q) * geom.gap)
        assert_allclose(dmu(geom, s, Q, pol), manual, rtol=1e-13)
    vac = Geometry(gap=1.0, left=VACUUM, right=VACUUM)
    assert_allclose(dmu(vac, s, Q, "TE"), 1.0, atol=1e-12)
    far = Geometry(gap=4000.0, left=LOSSY, right=LOSSY2)
    assert_allclose(dmu(far, 0.3 - 1j, 0.5, "TM"), 1.0, atol=1e-12)


def test_tm_sqrt_cut_cancellation():
    """The sqrt(eps) of t^TM cancels the one in e_TM^(n): the assembled
    source vector is single-valued across the sqrt cut while the bare
    t^TM alone flips sign."""
    s, Q = 0.2 - 1j * 1.1, 0.6
    above, below = -4.0 + 1e-13j, -4.0 - 1e-13j
    q = np.asarray(qz(1.0, s, Q))

    def tm_source(eps):
        qn = np.asarray(qz(eps, s, Q))
        return em_green._source_vecs(eps, q, qn, s, Q, +1, +1, 2.0 * qn)[1]

    tm_above, tm_below = tm_source(above), tm_source(below)
    assert np.max(np.abs(tm_above - tm_below)) < 1e-10
    t_above = fresnel(above, s, Q)[3]
    t_below = fresnel(below, s, Q)[3]
    assert abs(t_above + t_below) < 1e-6 * abs(t_above)  # bare t flips sign


# ---------------------------------------------------------------------------
# gap blocks: free-space oracle, vacuum reduction, reciprocity, conjugation
# ---------------------------------------------------------------------------


def test_bulk_matches_free_space_oracle(rng):
    geom = Geometry(gap=2.0, left=VACUUM, right=VACUUM, z_field=0.0)
    for _ in range(10):
        s = complex(rng.uniform(0.1, 1.5), rng.uniform(-2, 2))
        Q = rng.uniform(0.05, 2.5)
        z, zs = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        if abs(z - zs) < 0.05:
            continue
        blk = green_gap_bulk_scattered(geom, s, Q, z_src=zs)
        got = blk.evaluate(z)
        assert_allclose(got, free_green_tensor(s, Q, z - zs), rtol=1e-10, atol=1e-12)


def test_vacuum_reduction_from_plate():
    geom = Geometry(gap=1.0, left=VACUUM, right=VACUUM, z_field=0.2)
    s, Q, zs = 0.5 - 0.8j, 0.9, -1.3
    got = green_gap_from_plate(geom, "L", s, Q).evaluate(0.2, zs)
    assert_allclose(got, free_green_tensor(s, Q, 0.2 - zs), rtol=1e-9, atol=1e-12)
    # scattered part vanishes without reflectors
    sc = green_gap_bulk_scattered(geom, s, Q, z_src=0.1).filtered(
        tags=("S1", "S2", "S3", "S4"))
    assert np.max(np.abs(sc.evaluate(0.3))) == 0.0


def test_scattered_decays_with_separation():
    s, Q = 1.0 - 0.5j, 0.4    # Re q_z ~ 1: strong round-trip attenuation
    small = Geometry(gap=1.0, left=LOSSY, right=LOSSY2, z_field=0.0)
    tags = ("S1", "S2", "S3", "S4")
    a = green_gap_bulk_scattered(small, s, Q, z_src=0.1).filtered(tags=tags).evaluate(0.0)
    big = Geometry(gap=8.0, left=LOSSY, right=LOSSY2, z_field=0.0)
    b = green_gap_bulk_scattered(big, s, Q, z_src=0.1).filtered(tags=tags).evaluate(0.0)
    assert np.max(np.abs(b)) < 1e-2 * np.max(np.abs(a))


def test_reciprocity(rng):
    geom = geom_pair(gap=1.2, z_field=0.25)
    for plate, z_in_plate in (("L", -1.1), ("R", 0.9)):
        for _ in range(4):
            s = complex(rng.uniform(0.2, 1.0), rng.uniform(-1.5, 1.5))
            Q = rng.uniform(0.1, 1.8)
            z1 = rng.uniform(-0.55, 0.55)
            fwd = green_gap_from_plate(geom, plate, s, Q, phase_sign=+1)
            bwd = green_plate_from_gap(geom, plate, s, Q, z_src=z1, phase_sign=-1)
            a = fwd.evaluate(z1, z_in_plate)
            b = bwd.evaluate(z_in_plate)
            assert_allclose(a, b.T, rtol=1e-9, atol=1e-13)


def test_conjugation_symmetry():
    # real-space reality reads G(Q, conj s) = conj(G(-Q, s)) per transverse mode
    geom = geom_pair(gap=0.9, z_field=-0.1)
    s, Q = 0.35 + 0.9j, 0.75
    for build in (lambda sv, ph: green_gap_from_plate(geom, "L", sv, Q, phase_sign=ph)
                  .evaluate(0.1, -0.8),
                  lambda sv, ph: green_gap_from_plate(geom, "R", sv, Q, phase_sign=ph)
                  .evaluate(0.1, 0.7),
                  lambda sv, ph: green_gap_bulk_scattered(geom, sv, Q, z_src=0.2, phase_sign=ph)
                  .evaluate(-0.2)):
        assert_allclose(build(np.conj(s), +1), np.conj(build(s, -1)), rtol=1e-10, atol=1e-14)


def test_bounded_right_half_plane():
    geom = geom_pair()
    for s in (0.5 + 4j, 2.0 - 7j, 1e3 + 0j):
        t = green_gap_from_plate(geom, "L", s, 0.5).evaluate(0.0, -0.6)
        assert np.all(np.isfinite(t))


def test_batched_equals_scalar():
    geom = geom_pair()
    s = 0.2 - 1.4j
    Qs = np.array([0.2, 0.9, 2.1])
    batch = green_gap_from_plate(geom, "L", s, Qs).evaluate(0.1)
    for i, Q in enumerate(Qs):
        single = green_gap_from_plate(geom, "L", s, float(Q)).evaluate(0.1)
        assert_allclose(batch[i], single, rtol=1e-13)


# ---------------------------------------------------------------------------
# closed-form z-integrals vs direct quadrature
# ---------------------------------------------------------------------------


def test_z_integrated_pair_conjugate_denominator():
    # a plate source pair at s = -i w and +i w integrates over the plate to
    # 1/(qn(s1) + qn(s2)) (see spectral._source_factor): that sum is real
    # and positive, so the depth integral converges
    geom = geom_pair()
    w = 1.4
    side = geom.left
    qn1 = qz(plate_eps(side, -1j * w), -1j * w, 0.5)
    qn2 = qz(plate_eps(side, +1j * w), +1j * w, 0.5)
    den = qn1 + qn2
    assert abs(den.imag) < 1e-8 * abs(den)
    assert den.real > 0


def test_ic_z_integral_free_field(rng):
    geom = Geometry(gap=1.0, left=VACUUM, right=VACUUM, z_field=0.12)
    for _ in range(5):
        s = complex(rng.uniform(0.2, 1.2), rng.uniform(-1.5, 1.5))
        Q, kz = rng.uniform(0.1, 1.5), rng.uniform(-2.0, 2.0)
        wk2 = Q * Q + kz * kz
        k = np.array([Q, 0.0, kz])
        p_t = np.eye(3) - np.outer(k, k) / wk2
        want = (-p_t / (s * s + wk2) - np.outer(k, k) / (wk2 * s * s)) \
            * np.exp(1j * kz * geom.z_field)
        got = ic_z_integral(geom, s, Q, kz)
        assert_allclose(got, want, rtol=1e-7, atol=1e-10)


def test_ic_z_integral_quadrature_oracle(rng):
    geom = geom_pair(gap=1.2, z_field=0.1)
    z1 = geom.z_field
    for _ in range(5):
        s = complex(rng.uniform(0.3, 1.0), rng.uniform(-1.2, 1.2))
        Q, kz = rng.uniform(0.2, 1.4), rng.uniform(-1.8, 1.8)
        got = ic_z_integral(geom, s, Q, kz)

        bL = green_gap_from_plate(geom, "L", s, Q)
        bR = green_gap_from_plate(geom, "R", s, Q)
        l2 = geom.gap / 2
        want = np.empty((3, 3), dtype=complex)
        for j in range(3):
            for b in range(3):
                plate_l = quad_complex(
                    lambda u: bL.evaluate(z1, -l2 - u)[j, b] * np.exp(1j * kz * (-l2 - u)),
                    0.0, 80.0, limit=400)
                plate_r = quad_complex(
                    lambda u: bR.evaluate(z1, l2 + u)[j, b] * np.exp(1j * kz * (l2 + u)),
                    0.0, 80.0, limit=400)
                gap_piece = quad_complex(
                    lambda zp: green_gap_bulk_scattered(geom, s, Q, z_src=zp)
                    .evaluate(z1)[j, b] * np.exp(1j * kz * zp),
                    -l2, l2, limit=400, points=[z1])
                want[j, b] = plate_l + plate_r + gap_piece
        want[2, 2] += -np.exp(1j * kz * z1) / s**2   # symbolic delta term
        assert_allclose(got, want, rtol=1e-7, atol=1e-9)


def test_ic_conjugation():
    # the phase_sign=-1 build is the (-Q, -kz) partner, so with equal arguments
    # the two factors of the initial-condition integrand are mutual conjugates
    # once s crosses to conj(s)
    geom = geom_pair()
    s, Q, kz = 0.4 - 0.9j, 0.7, 1.3
    a = ic_z_block(geom, np.conj(s), Q, kz, phase_sign=+1).evaluate(geom.z_field)
    b = ic_z_block(geom, s, Q, kz, phase_sign=-1).evaluate(geom.z_field)
    assert_allclose(a, np.conj(b), rtol=1e-9, atol=1e-13)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(DomainError):
        Geometry(gap=-1.0)
    for gap in (math.inf, math.nan):
        with pytest.raises(DomainError, match="gap must be > 0 and finite"):
            Geometry(gap=gap)
    with pytest.raises(DomainError):
        Geometry(gap=1.0, z_field=0.7)
    with pytest.raises(DomainError):
        Geometry(gap=1.0, left="copper")
    g = geom_pair()
    sw = g.swapped()
    assert sw.left is g.right and sw.right is g.left and sw.z_field == -g.z_field


def test_unknown_pol_or_plate_raises():
    # a polarization other than "TE"/"TM" and a plate other than "L"/"R"
    # are refused, not read as TM or as the right plate
    geom = geom_pair()
    s, Q = 0.3 - 0.8j, 0.6
    grid = np.linspace(-1.0, 1.0, 41)
    for pol in ("XX", "te", None):
        with pytest.raises(DomainError, match="pol must be 'TE' or 'TM'"):
            dmu(geom, s, Q, pol)
        with pytest.raises(DomainError, match="pol must be 'TE' or 'TM'"):
            scan_dmu_imaginary_axis(geom, pol, Q, grid)
    for plate in ("M", "r", None):
        with pytest.raises(DomainError, match="plate must be 'L' or 'R'"):
            green_gap_from_plate(geom, plate, s, Q)
        with pytest.raises(DomainError, match="plate must be 'L' or 'R'"):
            green_plate_from_gap(geom, plate, s, Q, z_src=0.1)


def test_bad_plate_and_source():
    geom = geom_pair()
    with pytest.raises(DomainError):
        geom.side("M")
    with pytest.raises(DomainError):
        green_gap_bulk_scattered(geom, 1.0 - 1j, 0.3, z_src=2.0)
