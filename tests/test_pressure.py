import cmath
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad, quad_vec

from conftest import rand_lossy
from oracles import odd_part_oracle
from neqlifshitz import pressure as pr
from neqlifshitz import spectral
from neqlifshitz.cli import geometry_for, load_config
from neqlifshitz.em_green import (Geometry, GreenBlock, GreenTerm, XHAT, _fresnel_coeffs,
                                  green_gap_from_plate, ic_z_block, plate_eps, qz)
from neqlifshitz.errors import ConvergenceError, DomainError, SingularityError
from neqlifshitz.material import (BathModel, EpsilonTable, Material, _coth, _eta_shift,
                                  permittivity_fourier)
from neqlifshitz.pressure import (BREAKDOWN_KEYS, PressureOptions, bath_integrand,
                                  equilibrium_matsubara, steady_pressure)
from neqlifshitz.spectral import (assemble_dof_integrand, assemble_ic_integrand,
                                  theta_contract, transverse_projector)

LOSSY = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
LOSSY2 = Material(omega0=1.5, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.3))


def warm_geom(gap=1.0, t_left=1.0, t_right=0.5, z_field=0.0):
    left = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1),
                    beta_bath=1.0 / t_left)
    right = Material(omega0=1.5, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.3),
                     beta_bath=1.0 / t_right)
    return Geometry(gap=gap, left=left, right=right, z_field=z_field)


def identical_plates(gap, t_left, t_right):
    def plate(T):
        return Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1),
                        beta_bath=1.0 / T)
    return Geometry(gap=gap, left=plate(t_left), right=plate(t_right))


def equal_t_geom(gap=1.0, T=1.0):
    return identical_plates(gap, T, T)


def default_plates(gap, t_left, t_right):
    """The plates of configs/default.cfg at temperatures (T_L, T_R)."""
    def plate(omega0, lambda0, gamma, T):
        return Material(omega0=omega0, lambda0=lambda0, bath=BathModel(kind="ohmic", gamma=gamma),
                        beta_bath=1.0 / T if T > 0.0 else math.inf)
    return Geometry(gap=gap, left=plate(1.0, 1.0, 0.1, t_left),
                    right=plate(1.3, 0.8, 0.2, t_right))


# ---------------------------------------------------------------------------
# the stress contraction against a finite-difference oracle
# ---------------------------------------------------------------------------


def plane_wave_block(geom, field, src, scalar, exp_z, phase_sign, Q,
                     plate="gap", src_exp=0.0, z_ref=0.0):
    term = GreenTerm(pol="TM", plate=plate, tag="osc",
                     field_vec=np.asarray(field, dtype=complex),
                     src_vec=np.asarray(src, dtype=complex),
                     scalar=complex(scalar), exp_z=complex(exp_z),
                     src_exp=src_exp, z_ref=z_ref)
    return GreenBlock(terms=(term,), s=-1j, Q=np.asarray(float(Q)),
                      phase_sign=phase_sign, geom=geom)


def pairwise_contract(block1, block2, s1, s2, source_weight=None):
    """Reference (electric, magnetic) contraction, one term pair at a time.

    The direct double sum over term pairs with a source factor per pair;
    ``theta_contract`` must reproduce it through its per-block tensors.
    """
    Q = np.asarray(block1.Q, dtype=float)
    z = block1.geom.z_field
    s1s2 = complex(s1) * complex(s2)

    def term_data(block):
        phase = 1j * block.phase_sign
        hx, hy = float(XHAT[0]), float(XHAT[1])
        rows = []
        for t in block.terms:
            f = np.asarray(t.field_vec)
            fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
            kx = (phase * hx) * Q
            ky = (phase * hy) * Q
            ez = np.asarray(t.exp_z, dtype=complex)
            curl = (ky * fz - ez * fy, ez * fx - kx * fz, kx * fy - ky * fx)
            scal = t.scalar * np.exp(ez * z)
            rows.append((t, (fx, fy, fz), curl, scal))
        return rows

    elec = np.zeros(Q.shape, dtype=complex)
    mag = np.zeros(Q.shape, dtype=complex)
    for t1, f1, c1, sc1 in term_data(block1):
        u1 = np.asarray(t1.src_vec)
        for t2, f2, c2, sc2 in term_data(block2):
            u2 = np.asarray(t2.src_vec)
            w = np.eye(3) if source_weight is None else np.asarray(source_weight)
            usrc = np.einsum("...i,ij,...j->...", u1, w, u2)
            amp = sc1 * sc2 * spectral._source_factor((t1.plate, t1.z_ref, t1.src_exp),
                                                      (t2.plate, t2.z_ref, t2.src_exp)) * usrc
            elec += amp * s1s2 * (f1[0] * f2[0] + f1[1] * f2[1] - f1[2] * f2[2])
            mag += amp * (c1[0] * c2[0] + c1[1] * c2[1] - c1[2] * c2[2])
    return elec, mag


def assert_matches_pairwise(b1, b2, s1, s2, source_weight=None):
    got = theta_contract(b1, b2, s1, s2, source_weight=source_weight, split=True)
    want = pairwise_contract(b1, b2, s1, s2, source_weight=source_weight)
    scale = max(np.max(np.abs(v)) for v in want)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(b1.Q)
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
    return got


def test_theta_contract_matches_finite_differences():
    # reference: apply the defining derivative operator numerically to the
    # two plane-wave factors and contract with explicit Levi-Civita sums
    rng = np.random.default_rng(3)
    geom = Geometry(gap=1.0, left=LOSSY, right=LOSSY2, z_field=0.23)
    Q = 0.8
    s1, s2 = 0.3 - 1.2j, -0.5 + 0.9j
    f1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    f2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    u1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    u2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a1, a2 = 0.4 + 0.7j, -0.2 - 1.1j
    c1, c2 = 1.3 - 0.2j, 0.7 + 0.4j
    b1 = plane_wave_block(geom, f1, u1, c1, a1, +1, Q)
    b2 = plane_wave_block(geom, f2, u2, c2, a2, -1, Q)

    def g(block, f, u, c, a, x):
        phase = np.exp(1j * block.phase_sign * Q * x[0] + a * x[2])
        return c * phase * np.outer(f, u)

    lam = np.diag([1.0, 1.0, -1.0])
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[i, j, k] = 1.0
        eps3[i, k, j] = -1.0
    x0 = np.array([0.0, 0.0, geom.z_field])
    h = 1e-5

    def grad(block, f, u, c, a):
        d = np.empty((3, 3, 3), dtype=complex)   # d[r, s, src]
        for r in range(3):
            dx = np.zeros(3)
            dx[r] = h
            d[r] = (g(block, f, u, c, a, x0 + dx)
                    - g(block, f, u, c, a, x0 - dx)) / (2 * h)
        return d

    g1 = g(b1, f1, u1, c1, a1, x0)
    g2 = g(b2, f2, u2, c2, a2, x0)
    d1 = grad(b1, f1, u1, c1, a1)
    d2 = grad(b2, f2, u2, c2, a2)
    want = s1 * s2 * np.einsum("ij,ia,ja->", lam, g1, g2)
    want += np.einsum("ij,irs,jlm,rsa,lma->", lam, eps3, eps3, d1, d2)
    got = theta_contract(b1, b2, s1, s2)
    assert abs(got - want) <= 1e-8 * abs(want)

    # and the electric/magnetic split is consistent
    e, m = theta_contract(b1, b2, s1, s2, split=True)
    assert_allclose(e + m, got, rtol=1e-14)


def test_theta_contract_symmetry_and_weights():
    geom = Geometry(gap=1.0, left=LOSSY, right=LOSSY2)
    rng = np.random.default_rng(11)
    Q = 1.4
    b1 = plane_wave_block(geom, rng.normal(size=3), rng.normal(size=3),
                          0.9, 0.3 - 0.8j, +1, Q)
    b2 = plane_wave_block(geom, rng.normal(size=3), rng.normal(size=3),
                          1.1, -0.6 + 0.2j, -1, Q)
    s1, s2 = -1.3j, 1.3j
    assert_allclose(theta_contract(b1, b2, s1, s2),
                    theta_contract(b2, b1, s2, s1), rtol=1e-14)
    # a transverse-projector source weight with k along z reduces to the
    # identity on the transverse source components
    proj = transverse_projector([0.0, 0.0, 2.0])
    got = theta_contract(b1, b2, s1, s2, source_weight=proj)
    trunc1 = b1.terms[0].src_vec.copy()
    trunc1[2] = 0.0
    b1t = plane_wave_block(geom, b1.terms[0].field_vec, trunc1, 0.9,
                           0.3 - 0.8j, +1, Q)
    assert_allclose(got, theta_contract(b1t, b2, s1, s2), rtol=1e-13)


def test_theta_contract_matches_pairwise_oracle():
    cutoff = Material(omega0=1.5, lambda0=0.8, beta_bath=2.0,
                      bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=20.0))
    geom = Geometry(gap=0.9, left=LOSSY, right=cutoff, z_field=0.23)
    rng = np.random.default_rng(5)

    # from-plate pairs: one shared source per block, with the +-qn source
    # factor of either sign; Q as an array and as a scalar
    for plate in ("L", "R"):
        for w in (0.4, 2.7):
            s1, s2 = -1j * w, 1j * w
            for Q in (w * np.linspace(0.05, 3.0, 13), 0.8 * w):
                b1 = green_gap_from_plate(geom, plate, s1, Q, +1)
                b2 = green_gap_from_plate(geom, plate, s2, Q, -1)
                for pol in ("TE", "TM"):
                    got = assert_matches_pairwise(b1.filtered(pol), b2.filtered(pol),
                                                  s1, s2)
                    if np.ndim(Q) == 0:
                        assert all(isinstance(v, complex) for v in got)

    # plane-wave-weighted blocks: L, R and gap terms, all source-integrated,
    # under a projector.  Near s = 0 the pairwise sum itself loses digits to
    # the 1/s^2 terms that cancel among the gap terms, so the reference
    # points stay at |s| ~ 1
    k = np.array([0.7, 0.0, -1.1])
    proj = transverse_projector(k)
    for s1, s2 in ((0.3 - 0.9j, 0.2 + 1.4j), (-0.2 + 0.5j, 0.1 - 0.7j)):
        b1 = ic_z_block(geom, s1, k[0], k[2], phase_sign=+1)
        b2 = ic_z_block(geom, s2, k[0], k[2], phase_sign=-1)
        for pol in ("TE", "TM"):
            assert_matches_pairwise(b1.filtered(pol), b2.filtered(pol), s1, s2,
                                    source_weight=proj)

    # a block whose terms carry two different pending source exponents has
    # no single source factor, and is refused
    def vec():
        return rng.normal(size=3) + 1j * rng.normal(size=3)

    Q = 0.6
    parts1 = [plane_wave_block(geom, vec(), vec(), 0.9 - 0.2j, 0.3 - 0.8j, +1, Q,
                               plate="L", src_exp=e, z_ref=-0.45) for e in (0.4, 1.3)]
    parts2 = [plane_wave_block(geom, vec(), vec(), 1.1 + 0.4j, -0.6 + 0.2j, -1, Q,
                               plate="L", src_exp=e, z_ref=-0.45) for e in (0.7, 0.5)]
    b1 = replace(parts1[0], terms=parts1[0].terms + parts1[1].terms)
    b2 = replace(parts2[0], terms=parts2[0].terms + parts2[1].terms)
    with pytest.raises(DomainError):
        theta_contract(b1, b2, 0.2 - 1.1j, -0.4 + 0.7j, source_weight=proj)
    with pytest.raises(DomainError):
        theta_contract(parts1[0], b2, 0.2 - 1.1j, -0.4 + 0.7j, source_weight=proj)
    mixed = replace(parts1[0], terms=parts1[0].terms
                    + (replace(parts1[1].terms[0], src_exp=0.0),))
    with pytest.raises(DomainError):
        theta_contract(mixed, parts2[0], 0.2 - 1.1j, -0.4 + 0.7j, source_weight=proj)


def test_theta_contract_usage_errors():
    geom = Geometry(gap=1.0, left=LOSSY, right=LOSSY2)
    b1 = plane_wave_block(geom, np.ones(3), np.ones(3), 1.0, 0.1, +1, 0.7)
    b_badq = plane_wave_block(geom, np.ones(3), np.ones(3), 1.0, 0.1, -1, 0.9)
    with pytest.raises(DomainError):
        theta_contract(b1, b_badq, 1.0, 1.0)
    geom2 = Geometry(gap=2.0, left=LOSSY, right=LOSSY2)
    b_badgeom = plane_wave_block(geom2, np.ones(3), np.ones(3), 1.0, 0.1, -1, 0.7)
    with pytest.raises(DomainError):
        theta_contract(b1, b_badgeom, 1.0, 1.0)
    b_delta = replace(b1, has_delta=True, delta_scalar=1.0 + 0j)
    with pytest.raises(DomainError):
        theta_contract(b_delta, b1, 1.0, 1.0)
    step_term = replace(b1.terms[0], step="z>zs")
    b_step = replace(b1, terms=(step_term,))
    with pytest.raises(DomainError):
        theta_contract(b_step, b1, 1.0, 1.0)


def test_transverse_projector_properties():
    k = np.array([0.3, -1.1, 0.7])
    p = transverse_projector(k)
    assert_allclose(p @ p, p, atol=1e-14)
    assert_allclose(np.trace(p), 2.0, rtol=1e-14)
    assert_allclose(p @ k, 0.0, atol=1e-14)
    with pytest.raises(DomainError):
        transverse_projector([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# bath integrand invariants
# ---------------------------------------------------------------------------


def test_bath_channels_continuous_across_the_light_line():
    # at Q = omega exactly q = 0, and the channels' |q|^2 factor and the
    # cavity denominator D vanish together; the channel map takes their
    # limit, not 0 * inf.  The subtracted baseline (per-node reference,
    # zero from the light line on) is added back: it falls to 0 there like
    # |q|, a kink of relative size 1e-4 at 1e-9 from the line
    geom = warm_geom()
    for w in (0.3, 1.0, 2.7):
        Qs = w * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        full = pr._bath_channels(geom, w, Qs) + per_node_channels(geom, w, Qs, "baseline", False)
        ch = dict(zip(BREAKDOWN_KEYS, full))
        for plate, pol in ((p, m) for p in ("L", "R") for m in ("TE", "TM")):
            v = ch[(plate, pol, "propagating")] + ch[(plate, pol, "evanescent")]
            assert np.all(np.isfinite(v)) and v[1] != 0.0
            assert_allclose(v[[0, 2]], v[1], rtol=1e-5)


def test_bath_integrand_vanishes_without_coupling_and_at_zero_frequency():
    mute = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    geom = Geometry(gap=1.0, left=mute, right=mute)
    assert bath_integrand(geom, 1.3, 0.4) == 0.0
    geom2 = warm_geom()
    assert bath_integrand(geom2, 0.0, 0.4) == 0.0


def test_bath_integrand_fdr_paths_agree():
    # pre- and post-fluctuation-dissipation evaluations are one identity apart
    rng = np.random.default_rng(99)
    geom = warm_geom()
    worst = 0.0
    for _ in range(50):
        w = float(rng.uniform(0.05, 6.0))
        Q = float(rng.uniform(0.0, 2.0) * w)
        a = bath_integrand(geom, w, Q, use_fdr=True)
        b = bath_integrand(geom, w, Q, use_fdr=False)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    assert worst <= 1e-10


def test_bath_integrand_batch_matches_scalar():
    geom = warm_geom()
    Qs = np.array([0.2, 0.9, 1.7, 4.0])
    batch = bath_integrand(geom, 1.2, Qs)
    singles = np.array([bath_integrand(geom, 1.2, float(q)) for q in Qs])
    assert_allclose(batch, singles, rtol=1e-13)


def test_channel_breakdown_structure():
    # one row per channel in BREAKDOWN_KEYS order, summed by bath_integrand;
    # sector masks: propagating rows vanish for Q > omega and vice versa
    Qs = np.array([0.5, 3.0])
    ch = pr._bath_channels(warm_geom(), 1.2, Qs)
    assert ch.shape == (len(BREAKDOWN_KEYS),) + Qs.shape
    assert np.array_equal(bath_integrand(warm_geom(), 1.2, Qs), ch.sum(axis=0))
    for (plate, pol, sector), v in zip(BREAKDOWN_KEYS, ch):
        live = 0 if sector == "propagating" else 1
        assert v[1 - live] == 0.0 and v[live] != 0.0
    # a decoupled plate (lambda0 = 0) emits nothing, so exactly its four rows
    # of the unsubtracted (per-node reference) map read 0; the other plate's
    # propagating rows do not (its evanescent rows vanish too, the vacuum
    # partner reflects nothing).  Nothing is reflected back, so nothing
    # depends on the gap: every row of the subtracted map reads 0
    warm = warm_geom().left
    mute = Material(omega0=1.5, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.3),
                    beta_bath=2.0)
    for geom, silent in ((Geometry(gap=1.0, left=warm, right=mute), "R"),
                         (Geometry(gap=1.0, left=mute, right=warm), "L")):
        assert np.all(pr._bath_channels(geom, 1.2, Qs) == 0.0)
        ch = per_node_channels(geom, 1.2, Qs, "full", False)
        for (plate, pol, sector), v in zip(BREAKDOWN_KEYS, ch):
            if plate == silent:
                assert np.all(v == 0.0)
            elif sector == "propagating":
                assert v[0] != 0.0


def test_baseline_kernel_is_propagating_only():
    # the detached-plates baseline that the production map subtracts, here
    # from the per-node reference
    geom = warm_geom()
    Qs = np.array([0.3, 0.8, 1.1, 2.5])
    ch = per_node_channels(geom, 1.0, Qs, "baseline", False)
    for (plate, pol, sector), v in zip(BREAKDOWN_KEYS, ch):
        if sector == "evanescent":
            assert np.all(v == 0.0)
    total = sum(v for (p, m, s), v in zip(BREAKDOWN_KEYS, ch) if s == "propagating")
    assert np.all(np.isfinite(total.real))
    assert np.any(total.real != 0.0)


def emission_weight(side, omega, thermal_only=False):
    """Per-plate emission weight omega^2 * occupation * Im eps at omega > 0,
    with the permittivity from `permittivity_fourier`."""
    w = np.asarray(omega, dtype=float)
    beta = side.beta_bath
    occ = _coth(0.5 * beta * w) if math.isfinite(beta) else np.ones(w.shape)
    if thermal_only:
        occ = occ - 1.0
    return w * w * occ * np.imag(permittivity_fourier(side, w))


def symbolic_channels(geom, omega, Q):
    """Full-kernel channel map from the symbolic stress contraction.

    Each plate's gap-field blocks at s = -i omega and their partners at
    s = +i omega with the opposite transverse phase, contracted term by
    term and weighted like the closed form.
    """
    Q = np.asarray(Q, dtype=float)
    s1, s2 = -1j * omega, 1j * omega
    prop = Q < omega
    out = {}
    for plate in ("L", "R"):
        weight = emission_weight(geom.side(plate), omega)
        b1 = green_gap_from_plate(geom, plate, s1, Q, +1)
        b2 = green_gap_from_plate(geom, plate, s2, Q, -1)
        for pol in ("TE", "TM"):
            v = theta_contract(b1.filtered(pol), b2.filtered(pol), s1, s2) \
                * pr.PRESSURE_SIGN * pr._MEASURE * weight * Q
            out[(plate, pol, "propagating")] = np.where(prop, v, 0.0)
            out[(plate, pol, "evanescent")] = np.where(prop, 0.0, v)
    return out


@pytest.mark.parametrize("z_field", [0.0, 0.23, -0.44])
def test_closed_form_channels_match_symbolic_contraction(z_field):
    # the closed form never reads the field height; the symbolic side does,
    # term by term, so agreement at three heights (centred and off-centre)
    # shows the stress is z-independent.  One cutoff-bath plate, both
    # sectors.  The full map is the per-node reference's source-vector
    # form; the production map, in the reflection form, plus the
    # reference's detached-plates baseline must match it too
    cutoff = Material(omega0=1.5, lambda0=0.8, beta_bath=2.0,
                      bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=20.0))
    geom = Geometry(gap=0.9, left=warm_geom().left, right=cutoff, z_field=z_field)
    rng = np.random.default_rng(17)
    for _ in range(80):
        w = float(rng.uniform(0.05, 8.0))
        Q = w * np.concatenate([rng.uniform(0.0, 1.0, 8), rng.uniform(1.0, 4.0, 8)])
        want = symbolic_channels(geom, w, Q)
        scale = max(np.max(np.abs(v)) for v in want.values())
        for got in (per_node_channels(geom, w, Q, "full", False),
                    pr._bath_channels(geom, w, Q) + per_node_channels(geom, w, Q, "baseline", False)):
            for key, v in zip(BREAKDOWN_KEYS, got):
                assert np.max(np.abs(v - want[key].real)) <= 1e-12 * scale, (w, key)


def mp_channels(geom, omega, Q):
    """The eight channels at one point in 40-digit arithmetic, in the
    source-vector (G) form and in the reflection form (see
    `per_node_channels`), from the permittivities and shares that
    `_frequency_factors` gives in double precision.  Returns the two as
    lists in BREAKDOWN_KEYS order."""
    import mpmath as mp

    fac = pr._frequency_factors(geom, np.array([omega]))
    with mp.workdps(40):
        C = pr.PRESSURE_SIGN / (4 * mp.pi ** 2)
        eps = [mp.mpc(complex(e)) for e in fac["complex"][1:3, 0]]
        share = [mp.mpf(float(v)) for v in fac["share"][:, 0]]
        w, Q, l = mp.mpf(omega), mp.mpf(Q), mp.mpf(geom.gap)
        prop = Q < w
        kz = mp.sqrt(w * w - Q * Q) if prop else 1j * mp.sqrt(Q * Q - w * w)
        q = -1j * kz
        qn = [mp.sqrt(Q * Q - e * w * w) for e in eps]
        r = [[(q - n) / (q + n), (e * q - n) / (e * q + n)] for e, n in zip(eps, qn)]
        trip = mp.exp(-2 * q * l)
        g_form, r_form = [], []
        for a, b in ((0, 1), (1, 0)):
            weight = share[a] * w * w * eps[a].imag / C
            for i in range(2):
                x = r[0][i] * r[1][i] * trip
                cavity = 1 / abs(1 - x) ** 2
                if i == 0:
                    G = C * Q / (2 * qn[a].real * abs(q + qn[a]) ** 2)
                else:
                    G = C * Q * (Q * Q + abs(qn[a]) ** 2) / (
                        2 * qn[a].real * abs(eps[a] * q + qn[a]) ** 2 * w * w)
                if prop:
                    a2, b2 = abs(r[0][i]) ** 2, abs(r[1][i]) ** 2
                    lock = 1 - a2 * b2
                    g = 2 * G * abs(q) ** 2 * (1 + abs(r[b][i]) ** 2) * (cavity - 1 / lock)
                    A = (b2 - a2) / lock
                    f = share[a] * Q * kz * (1 + (A if a == 0 else -A)) * mp.re(x / (1 - x))
                else:
                    g = -4 * G * abs(q) ** 2 * mp.re(r[b][i] * trip) * cavity
                    kappa = kz.imag
                    f = -2 * share[a] * Q * kappa * r[a][i].imag * r[b][i].real \
                        * mp.exp(-2 * kappa * l) * cavity
                zero = mp.mpf(0)
                g_form += [weight * g, zero] if prop else [zero, weight * g]
                r_form += [f, zero] if prop else [zero, f]
        return g_form, r_form


@pytest.mark.parametrize("gap, omega, x", [(1.0, 12.0, 0.3), (3.0, 17.0, 0.3), (1.0, 0.7, 0.3),
                                           (1.0, 3.0, 1.5)])
def test_channel_map_matches_a_40_digit_g_form(gap, omega, x):
    # at high frequency |x| is small and the G form's 1/|D|^2 - 1/(1 -
    # |r_L r_R|^2) cancels: in double precision that form lands 1.7e-10
    # and 3.1e-10 of the largest channel off at the first two points.  The
    # reflection form reads Re[x/(1 - x)] instead, and the 40-digit G and
    # reflection forms agree
    import mpmath as mp

    geom = default_plates(gap, 1.0, 0.5)
    Q = omega * x
    g_form, r_form = mp_channels(geom, omega, Q)
    scale = max(abs(v) for v in g_form)
    assert max(abs(g - f) for g, f in zip(g_form, r_form)) <= mp.mpf("1e-30") * scale
    got = pr._bath_channels(geom, omega, Q)
    dev = max(abs(mp.mpf(float(v)) - g) for v, g in zip(got, g_form))
    assert dev <= 1e-12 * scale, float(dev / scale)


def test_locked_cavity_is_the_phase_average():
    # the baseline kernel's cavity weight 1/(1 - |r_a r_b|^2), here the
    # per-node reference's, is the average of the full propagating channel
    # over one round-trip period pi/k_z of the gap
    geom = warm_geom()
    w = 1.7
    for Q in (0.4, 1.2):
        kz = math.sqrt(w * w - Q * Q)
        gaps = geom.gap + (math.pi / kz) * np.arange(256) / 256
        base = per_node_channels(geom, w, Q, "baseline", False)
        runs = [symbolic_channels(replace(geom, gap=g), w, Q) for g in gaps]
        for key, v in zip(BREAKDOWN_KEYS, base):
            if key[2] == "propagating":
                avg = np.mean([complex(r[key]).real for r in runs])
                assert_allclose(float(v), avg, rtol=1e-12)


def test_difference_kernel_additivity_and_evanescent_decay():
    # full = baseline + difference pointwise, the full and baseline maps
    # the per-node reference's and the difference the production
    # integrand; in the evanescent sector the subtracted integrand dies
    # exponentially with the gap (the baseline is zero there, and the full
    # kernel loses its round trips)
    w, Q = 1.3, 0.5
    raw = per_node_channels(warm_geom(gap=2.0), w, Q, "full", False).sum(axis=0)
    base = per_node_channels(warm_geom(gap=2.0), w, Q, "baseline", False).sum(axis=0)
    diff = bath_integrand(warm_geom(gap=2.0), w, Q)
    assert_allclose(raw.real, (base + diff).real, rtol=1e-12)
    w_e, Q_e = 1.0, 1.4
    near = bath_integrand(warm_geom(gap=0.5), w_e, Q_e)
    far = bath_integrand(warm_geom(gap=8.0), w_e, Q_e)
    assert abs(far) <= 1e-5 * abs(near)


def test_bath_channels_frequency_array_matches_scalar_calls():
    # a frequency array broadcast against Q gives, point for point, the
    # per-frequency calls; rows cover omega = 0, Q = 0, both sides of the
    # light line and the light line itself, in a shuffled batch
    cutoff = Material(omega0=1.5, lambda0=0.8, beta_bath=2.0,
                      bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=20.0))
    geom = Geometry(gap=0.8, left=warm_geom().left, right=cutoff, z_field=0.17)
    rng = np.random.default_rng(41)
    ws = np.concatenate([[0.0, 1.0], rng.uniform(0.05, 8.0, 9), [0.0]])
    x = np.array([0.0, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.7, 4.0])
    Q = np.where(ws[:, None] > 0.0, ws[:, None] * x, np.linspace(0.0, 3.0, x.size))
    want = [pr._bath_channels(geom, float(w), Q[i]) for i, w in enumerate(ws)]
    perm = rng.permutation(Q.size)
    flat = pr._bath_channels(geom, np.repeat(ws, x.size)[perm], Q.ravel()[perm])
    grid = pr._bath_channels(geom, ws[:, None], Q)
    stacked = np.stack(want, axis=1)
    assert grid.shape == (len(BREAKDOWN_KEYS),) + Q.shape
    assert_allclose(grid, stacked, rtol=1e-14, atol=0.0)
    assert_allclose(flat, stacked.reshape(len(BREAKDOWN_KEYS), -1)[:, perm],
                    rtol=1e-14, atol=0.0)
    assert np.all(stacked[:, ws == 0.0] == 0.0)
    on_line = stacked[:, :, 3].sum()    # the light line is in the evanescent sector
    assert np.isfinite(on_line) and on_line != 0.0


def partly_emitting_geom(gap=0.9):
    """A cold lossy plate (T = 0.05: coth(omega/2T) - 1 is exactly 0 above
    omega = 2) facing a lossless constant table, which never emits."""
    cold = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1),
                    beta_bath=20.0)
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([3.0 + 0.0j]), beta_bath=1.0)
    return Geometry(gap=gap, left=cold, right=table)


def test_bath_channels_frequency_batch_with_a_partly_emitting_plate():
    # under thermal_only the cold plate emits nothing above omega = 2,
    # where coth(omega/2T) - 1 is exactly 0 (`_coth` returns 1 past
    # x = 20), and its lossless constant-table partner emits nothing at
    # all; in a batch that mixes both kinds of frequency each plate's
    # channels still read exactly 0 where it does not emit
    geom = partly_emitting_geom(gap=1.0)
    ws = np.array([0.3, 2.5, 0.6, 5.0])
    Q = ws[:, None] * np.array([0.2, 0.9, 1.4])
    grid_ch = pr._bath_channels(geom, ws[:, None], Q, thermal_only=True)
    for i, w in enumerate(ws):
        want = pr._bath_channels(geom, float(w), Q[i], thermal_only=True)
        assert_allclose(grid_ch[:, i], want, rtol=1e-14, atol=0.0)
        for key, v in zip(BREAKDOWN_KEYS, grid_ch[:, i]):
            if key[0] == "R" or w > 2.0:
                assert np.all(v == 0.0)
    lte_prop = BREAKDOWN_KEYS.index(("L", "TE", "propagating"))
    assert np.all(grid_ch[lte_prop][ws < 2.0, :2] != 0.0)


def test_bath_channels_frequency_batch_still_detects_trapped_modes():
    # with a nearly lossless plate pair, Re eps < 0 between omega0 and
    # sqrt(omega0^2 + lambda0^2) makes |r_a r_b| = 1 to 1e-15: the detached
    # baseline the map subtracts is singular there, and a batch that holds
    # one such point must raise like the scalar call does
    glassy = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=1e-15))
    geom = Geometry(gap=1.0, left=glassy, right=glassy)
    ws, Q = np.array([0.5, 1.2, 2.0]), np.array([0.3, 0.3, 0.3])
    pr._bath_channels(geom, 0.5, 0.3)
    with pytest.raises(SingularityError):
        pr._bath_channels(geom, 1.2, 0.3)
    with pytest.raises(SingularityError) as info:
        pr._bath_channels(geom, ws, Q)
    assert info.value.point == -1.2j


def per_node_channels(geom, omega, Q, kernel, thermal_only):
    """The channel map evaluated point by point with the general rules:
    `qz` for every wavenumber, `np.exp` for the round-trip factor, both
    sectors' closed forms at every point and masks to pick one.  A row is
    0 where its plate does not emit.

    kernel = "difference" is the map the production integrand computes,
    in its reflection form: with s_a = C w_a / (omega^2 Im eps_a) plate
    a's share (C the measure, w_a its emission weight), the round trip
    x = r_L r_R exp(-2 q l) and A = (|r_R|^2 - |r_L|^2) / (1 - |r_L|^2
    |r_R|^2), the rows are s_a Q k (1 +- A) Re[x / (1 - x)] (propagating,
    + for L) and -2 s_a Q kappa Im(r_a) Re(r_b) exp(-2 kappa l) / |1 -
    x|^2 (evanescent), whose light-line limit is s_a Q Im(1/n_a) / |l +
    1/n_L + 1/n_R|^2, n = qn (TE) or qn / eps (TM).

    "full" (the unsubtracted map) and "baseline" (its detached-plates
    limit, propagating only) are the oracles' side of it, in the
    source-vector form: plate a's emission weight times G = C Q / (2 Re
    qn |q + qn|^2) (TE) or C Q (Q^2 + |qn|^2) / (2 Re qn |eps q + qn|^2
    |s_eff|^2) (TM), times 2 |q|^2 (1 + |r_b|^2) and the cavity factor
    1/|1 - x|^2 or the locked baseline 1/(1 - |r_L|^2 |r_R|^2)
    (propagating), or -4 |q|^2 Re(r_b exp(-2 q l)) / |1 - x|^2
    (evanescent, with the limit G / |l + 1/n_a + 1/n_b|^2 on the light
    line)."""
    w, Q = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(Q, dtype=float))
    out = np.zeros((len(BREAKDOWN_KEYS),) + Q.shape)
    grid = out.reshape((2, 2, 2) + Q.shape)
    live = w != 0.0
    w, Q = w[live], Q[live]
    s = -1j * w
    prop = Q < w
    q = qz(1.0, s, Q)
    k = np.abs(q)
    light = q == 0.0
    trip = np.exp(-2.0 * q * geom.gap)
    sides = (geom.left, geom.right)
    C = pr.PRESSURE_SIGN * pr._MEASURE
    media, coeffs, weights, shares = [], [], [], []
    for side in sides:
        eps = np.asarray(plate_eps(side, s))
        qn = qz(eps, s, Q)
        media.append((eps, qn))
        coeffs.append(_fresnel_coeffs(eps, q, qn, s))
        weight = emission_weight(side, w, thermal_only=thermal_only)
        weights.append(weight)
        lossy = eps.imag != 0.0
        shares.append(np.where(lossy, C * weight / np.where(lossy, w * w * eps.imag, 1.0), 0.0))
    s_eff2 = np.abs(_eta_shift(s)) ** 2
    for i in range(2):
        r_l, r_r = coeffs[0][i], coeffs[1][i]
        x = r_l * r_r * trip
        inv = [1.0 / (qn / eps if i else qn) for eps, qn in media]
        span = np.abs(geom.gap + inv[0] + inv[1]) ** 2
        if kernel == "difference":
            a2, b2 = np.abs(r_l) ** 2, np.abs(r_r) ** 2
            lock = 1.0 - a2 * b2
            A = (b2 - a2) / np.where(lock != 0.0, lock, 1.0)
            h_prop = Q * k * np.real(x / np.where(light, 1.0, 1.0 - x))
            den = np.where(light, 1.0, np.abs(1.0 - x) ** 2)
            h_evan = -2.0 * Q * k * trip.real / den
            for a, b, sign in ((0, 1, 1.0), (1, 0, -1.0)):
                share = shares[a]
                emit = share != 0.0
                ra, rb = coeffs[a][i], coeffs[b][i]
                evan = np.where(light, Q * inv[a].imag / span, ra.imag * rb.real * h_evan)
                grid[a, i, 0, ...][live] = np.where(prop & emit, share * ((1.0 + sign * A) * h_prop),
                                                    0.0)
                grid[a, i, 1, ...][live] = np.where(~prop & emit, share * evan, 0.0)
            continue
        cavity = 1.0 / np.where(light, 1.0, np.abs(1.0 - x) ** 2)
        locked = 1.0 / np.where(prop, 1.0 - np.abs(r_l) ** 2 * np.abs(r_r) ** 2, 1.0)
        prop_cavity = {"full": cavity, "baseline": locked}[kernel]
        for a, b in ((0, 1), (1, 0)):
            weight = weights[a]
            emit = weight != 0.0
            eps, qn = media[a]
            den = np.where(emit, 2.0 * qn.real, 1.0)
            G = (C * Q / (den * np.abs(q + qn) ** 2),
                 C * Q * (Q * Q + np.abs(qn) ** 2) / (den * np.abs(eps * q + qn) ** 2 * s_eff2))[i]
            rb = coeffs[b][i]
            prop_k = 2.0 * G * k * k * (1.0 + np.abs(rb) ** 2) * prop_cavity
            grid[a, i, 0, ...][live] = np.where(prop & emit, weight * prop_k, 0.0)
            if kernel == "full":
                lim = G / span
                evan_k = np.where(light, lim, -4.0 * G * k * k * (rb * trip).real * cavity)
                grid[a, i, 1, ...][live] = np.where(~prop & emit, weight * evan_k, 0.0)
    return out


def own_sector(rows, w, Q):
    """The public map's rows (8, ...) at each point's own sector, Q <
    omega propagating and Q >= omega (the light line included)
    evanescent: (the (plate, polarization) rows, shaped (4, ...), as the
    engine's form of the map returns them; the rows of the other
    sector)."""
    grid = rows.reshape((-1, len(pr._SECTORS)) + rows.shape[1:])
    prop = Q < w
    return np.where(prop, grid[:, 0], grid[:, 1]), np.where(prop, grid[:, 1], grid[:, 0])


@pytest.mark.parametrize("thermal_only", [False, True])
def test_sector_split_matches_the_per_node_rules(thermal_only):
    # each sector on its own, with the vacuum wavenumber and the round-trip
    # factor in real arithmetic, gives the same bits as the general rules;
    # the batch holds both sectors, points on the light line, omega = 0 and
    # a lossless (gamma = 0) partner plate.  The factors-once path of the
    # inner rule (frequencies in call order, each point's row given) gives
    # each point's rows in its own sector, one per plate and polarization:
    # the public map's rows there, whose other sector reads 0
    glassy = Material(omega0=1.3, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.0),
                      beta_bath=2.0)
    geom = Geometry(gap=0.9, left=warm_geom().left, right=glassy)
    rng = np.random.default_rng(13)
    ws = np.array([2.7, 0.4, 6.5, 1.0, 0.0])
    x = np.concatenate([[0.0, 0.3, 0.999, 1.0, 1.2, 3.0], rng.uniform(0.0, 4.0, 40)])
    Q = np.where(ws[:, None] > 0.0, ws[:, None] * x, x)
    perm = rng.permutation(Q.size)
    w_nodes, Q_nodes = np.repeat(ws, x.size)[perm], Q.ravel()[perm]
    got = pr._bath_channels(geom, w_nodes, Q_nodes, thermal_only=thermal_only)
    want = per_node_channels(geom, w_nodes, Q_nodes, "difference", thermal_only)
    assert np.array_equal(got, want)
    assert np.all(got[:, w_nodes == 0.0] == 0.0)
    assert np.any(got[:, (w_nodes > 0.0) & (Q_nodes == w_nodes)] != 0.0)

    live = w_nodes != 0.0
    factors = pr._frequency_factors(geom, ws[:-1], thermal_only=thermal_only)
    row = np.repeat(np.arange(len(ws)), x.size)[perm][live]
    lockstep = pr._bath_channels(geom, w_nodes[live, None], Q_nodes[live, None],
                                 factors=(factors, row))
    own, other = own_sector(got[:, live], w_nodes[live], Q_nodes[live])
    assert lockstep.shape == (len(pr._PLATES) * len(pr._POLS), np.count_nonzero(live), 1)
    assert np.array_equal(lockstep[..., 0], own)
    assert np.all(other == 0.0)


def test_sector_runs_match_the_per_node_rules():
    # the inner rules hand the channel map one propagating run of nodes
    # followed by one evanescent run.  A theta node so close to pi/2 that
    # sin(theta) rounds to 1 lands on the light line inside the propagating
    # run: it keeps the evanescent closed form (its light-line limit), as
    # the per-node rules give it, in its panel's (plate, polarization)
    # rows, and the runs around it stay exact
    geom = default_plates(1.0, 1.0, 0.5)
    ws = np.array([0.4, 1.3, 2.9])
    theta = np.append(np.linspace(0.05, 1.5, 9), 0.5 * math.pi - 1e-9)
    t = np.linspace(0.02, 0.97, 11)
    w_p, w_e = np.repeat(ws, theta.size), np.repeat(ws, t.size)
    Q_p = w_p * np.tile(np.sin(theta), ws.size)
    decay = np.maximum(w_e, 0.5 / geom.gap)
    Q_e = np.hypot(w_e, decay * np.tile(t / (1.0 - t), ws.size))
    row = np.concatenate([np.repeat(np.arange(ws.size), theta.size),
                          np.repeat(np.arange(ws.size), t.size)])
    w, Q = np.concatenate([w_p, w_e]), np.concatenate([Q_p, Q_e])
    on_light = np.flatnonzero(Q == w)
    assert on_light.tolist() == [theta.size * (i + 1) - 1 for i in range(ws.size)]
    factors = (pr._frequency_factors(geom, ws), row)
    want = per_node_channels(geom, w, Q, "difference", False)
    own, other = own_sector(want, w, Q)
    got = pr._bath_channels(geom, w[:, None], Q[:, None], factors=factors)[..., 0]
    assert np.array_equal(got, own) and np.all(other == 0.0)
    assert np.all(want[0::2, on_light] == 0.0)
    assert np.array_equal(got[:, on_light], want[1::2, on_light])   # the light-line limit
    assert np.all(got[:, on_light] != 0.0)
    clean = np.setdiff1d(np.arange(w.size), on_light)   # two clean runs
    got = pr._bath_channels(geom, w[clean, None], Q[clean, None],
                            factors=(factors[0], row[clean]))[..., 0]
    assert np.array_equal(got, own[:, clean])


def test_one_material_runs_its_optics_and_kernels_once(monkeypatch):
    # identical plates at two temperatures run one Fresnel step per sector
    # with both plates on its leading axis, as dissimilar plates do.  The
    # batch holds both sectors and the light line; under thermal_only the
    # cold plate emits below omega = 2 only, so its rows read 0 at the
    # higher frequencies
    geom = identical_plates(0.9, 1.0, 0.05)
    rng = np.random.default_rng(29)
    ws = np.array([0.3, 1.1, 2.5, 6.0])
    x = np.concatenate([[0.0, 0.5, 1.0, 1.5], rng.uniform(0.0, 3.0, 30)])
    w, Q = np.repeat(ws, x.size), (ws[:, None] * x).ravel()
    calls = []

    def spy(*args, **kw):
        calls.append(args)
        return _fresnel_coeffs(*args, **kw)

    monkeypatch.setattr(pr, "_fresnel_coeffs", spy)
    for thermal_only in (False, True):
        calls.clear()
        rows = pr._bath_channels(geom, w, Q, thermal_only=thermal_only)
        assert len(calls) == 2
        assert all(np.shape(args[2])[0] == 2 for args in calls)     # qn of both plates
        assert np.any(rows[:4] != 0.0)
        cold = rows[4:, w > 2.0]
        assert np.all(cold == 0.0) if thermal_only else np.any(cold != 0.0)


def test_same_material_ignores_temperatures_and_compares_tables_by_identity():
    # an oscillator plate is the same material at any temperatures; a
    # table plate only as the same object: tables have no beta_dof, and
    # dataclass == on two multi-row tables would compare arrays
    warm = replace(LOSSY, beta_bath=1.0, beta_dof=2.0)
    assert pr._same_material(Geometry(gap=1.0, left=LOSSY, right=warm))
    assert not pr._same_material(Geometry(gap=1.0, left=LOSSY, right=LOSSY2))
    omega = np.array([0.5, 1.0, 2.0])
    rows = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=1.0)
    twin = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=0.5)
    assert pr._same_material(Geometry(gap=1.0, left=rows, right=rows))
    for left, right in ((rows, twin), (rows, warm), (warm, rows)):
        assert not pr._same_material(Geometry(gap=1.0, left=left, right=right))


def test_table_pairs_take_the_two_material_path():
    # two tables count as one material only when they are one object, so a
    # pair of equal multi-row tables at two temperatures neither crashes
    # the sameness test nor closes on the contour
    omega = np.array([0.5, 1.0, 2.0])
    rows = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=1.0)
    twin = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=0.5)
    assert not pr._closes_on_contour(Geometry(gap=1.0, left=rows, right=twin))
    for left, right in ((rows, twin), (warm_geom().left, rows), (rows, warm_geom().left)):
        ch = pr._bath_channels(Geometry(gap=1.0, left=left, right=right), 1.2,
                               np.array([0.5, 2.0]))
        assert np.all(np.isfinite(ch))


def workspace_batch(n, rng):
    """n nodes of both sectors over five frequencies, every fifth on the
    light line Q = omega; under thermal_only the cold plate of
    `partly_emitting_geom` emits nothing at the two highest."""
    w = rng.choice(np.array([0.3, 0.7, 1.6, 2.5, 6.0]), n)
    x = rng.uniform(0.0, 3.0, n)
    x[::5] = 1.0
    return w, w * x


@pytest.mark.parametrize("thermal_only", [False, True])
def test_one_workspace_serves_every_chunk_size(thermal_only):
    # one workspace at 3840 points (a full chunk), then 7, then 5000 (it
    # grows): every call equals a fresh one bit for bit, with light-line
    # points and weight-0 lanes in each batch, of a plate that never emits
    # and, under thermal_only, of one that emits at some frequencies only
    # (a RuntimeWarning there would fail the test)
    geom = partly_emitting_geom()
    rng = np.random.default_rng(21)
    work = pr._Workspace()
    for n in (15 * pr._PANEL_CHUNK, 7, 5000):
        w, Q = workspace_batch(n, rng)
        got = pr._bath_channels(geom, w, Q, thermal_only=thermal_only, work=work)
        want = pr._bath_channels(geom, w, Q, thermal_only=thermal_only)
        assert got.shape == want.shape == (len(BREAKDOWN_KEYS), n)
        assert np.array_equal(got, want)
        assert np.any(got != 0.0)


def test_workspace_survives_the_integrands_singularity_errors():
    # a trapped lossless mode (detached baseline) and a vanishing Fresnel
    # denominator (the surface mode Q = omega sqrt(2) of a plate with
    # eps = -2, where eps q + qn = 0) raise the same error, naming the same
    # point, with and without a workspace; the workspace then serves the
    # next call as a fresh one would
    glassy = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=1e-15))
    mirror = EpsilonTable(omega=np.array([1.0]), eps=np.array([-2.0 + 0j]))
    ws = np.array([0.5, 1.2, 2.0])
    cases = ((Geometry(gap=1.0, left=glassy, right=glassy), ws, np.full(3, 0.3),
              "trapped lossless mode"),
             (Geometry(gap=1.0, left=warm_geom().left, right=mirror), ws, ws * math.sqrt(2.0),
              "Fresnel denominator"))
    w, Q = workspace_batch(15 * pr._PANEL_CHUNK, np.random.default_rng(8))
    work = pr._Workspace()
    pr._bath_channels(warm_geom(), w, Q, work=work)
    for geom, bad_w, bad_Q, match in cases:
        points = []
        for kw in ({"work": work}, {}):
            with pytest.raises(SingularityError, match=match) as info:
                pr._bath_channels(geom, bad_w, bad_Q, **kw)
            points.append(info.value.point)
        assert points[0] == points[1]
        got = pr._bath_channels(warm_geom(), w, Q, work=work)
        assert np.array_equal(got, pr._bath_channels(warm_geom(), w, Q))


def test_calls_without_a_workspace_return_their_own_arrays():
    # only the quadrature hands a workspace down; every other caller gets
    # rows that no later call overwrites
    w, Q = workspace_batch(50, np.random.default_rng(3))
    a = pr._bath_channels(warm_geom(), w, Q)
    keep = a.copy()
    b = pr._bath_channels(warm_geom(), w[::-1], Q[::-1])
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, keep)


def engine_panels(rng, n_prop, n_evan, straggler=False):
    """The nodes of one inner-rule chunk: n_prop propagating then n_evan
    evanescent panels over five frequencies, as (frequencies, x shaped
    (panels, 15), each panel's segment, each segment's frequency index).
    With ``straggler``, one propagating node sits at theta = pi/2 - 1e-9,
    where sin(theta) rounds to 1: Q = omega."""
    ws = np.array([0.3, 0.9, 1.7, 2.6, 6.0])
    seg = np.concatenate([np.sort(rng.integers(0, len(ws), n_prop)),
                          len(ws) + np.sort(rng.integers(0, len(ws), n_evan))])
    x = np.concatenate([rng.uniform(0.0, 0.5 * math.pi, (n_prop, 15)),
                        rng.uniform(0.0, 0.99, (n_evan, 15))])
    if straggler:
        x[7, 11] = 0.5 * math.pi - 1e-9
    return ws, x, seg, np.concatenate([np.arange(len(ws))] * 2)


def engine_rows(geom, panels, factors, work):
    """The channel rows of a chunk as `_real_q_integral` makes them: the
    nodes through `_q_nodes` ((panels, 1) omega, (panels, 15) Q and
    dQ/dx), `_bath_channels` with each panel's row of ``factors`` and the
    workspace ``work``, then dQ/dx in place.  Returns (rows, one per
    plate and polarization in each panel's sector, shaped (4, panels,
    15); omega, Q, dQ/dx)."""
    ws, x, seg, owner = panels
    w_seg = ws[owner]
    w, Q, jac = pr._q_nodes(x, seg, len(ws), w_seg, np.maximum(w_seg, 0.5 / geom.gap))
    rows = pr._bath_channels(geom, w, Q, factors=(factors, owner[seg]), work=work)
    rows *= jac
    return rows, w, Q, jac


@pytest.mark.parametrize("thermal_only", [False, True])
@pytest.mark.parametrize("straggler", [False, True])
@pytest.mark.parametrize("plates", ["dissimilar", "identical"])
def test_engine_panels_match_the_point_map(monkeypatch, plates, straggler, thermal_only):
    # the engine hands the channel map its nodes per panel, each panel's
    # frequency factors once and dQ/dx to fold in; its (plate,
    # polarization) rows are the public one-node-per-point map's rows in
    # each node's sector times dQ/dx bit for bit, and the public map's
    # other sector reads 0, for a chunk of both sectors, with and without
    # a light-line straggler (which sends the chunk to the per-node
    # fallback), for one and two plate materials.  The straggler's rows,
    # in a propagating panel, are the public map's evanescent light-line
    # limit.  Without a straggler the chunk makes one stacked Fresnel call
    # per sector, both plates on its leading axis
    geom = default_plates(0.9, 1.0, 0.05) if plates == "dissimilar" else \
        identical_plates(0.9, 1.0, 0.05)
    calls = []

    def spy(*args, **kw):
        calls.append(np.shape(args[2]))
        return _fresnel_coeffs(*args, **kw)

    monkeypatch.setattr(pr, "_fresnel_coeffs", spy)
    panels = engine_panels(np.random.default_rng(37), 40, 30, straggler)
    factors = pr._frequency_factors(geom, panels[0], thermal_only=thermal_only)
    rows, w, Q, jac = engine_rows(geom, panels, factors, pr._Workspace())
    w = np.broadcast_to(w, Q.shape)
    assert np.count_nonzero(Q == w) == int(straggler)
    if not straggler:
        assert calls == [(2, 40, 15), (2, 30, 15)]
    want = pr._bath_channels(geom, w, Q, thermal_only=thermal_only) * jac
    own, other = own_sector(want, w, Q)
    assert rows.shape == (len(pr._PLATES) * len(pr._POLS),) + Q.shape
    assert rows.tobytes() == own.tobytes()
    assert np.all(other == 0.0)
    assert np.all(Q[40:] > w[40:])                                  # evanescent panels
    light = Q == w                                                  # in a propagating panel
    assert np.all((Q[:40] < w[:40]) | light[:40])
    assert rows[:, light].tobytes() == want[1::2, light].tobytes()
    assert np.all(rows[:, light] != 0.0)


def test_steady_pass_hands_the_channel_map_only_sector_runs(monkeypatch):
    # a pass on the default config's plates evaluates every chunk as its
    # two sector runs of (panels, 15) nodes, in the workspace.  The channel
    # map's per-node fallback (the public map, a light-line straggler)
    # gathers its nodes into fresh arrays because no pass reaches it; if this
    # fails, the fallback has traffic and its cost must be measured
    kernel, shapes = pr._channel_kernel, []

    def spy(geom, tables, Q, *args):
        shapes.append(Q.shape)
        return kernel(geom, tables, Q, *args)

    monkeypatch.setattr(pr, "_channel_kernel", spy)
    steady_pressure(default_plates(1.0, 1.0, 0.5), PressureOptions(rel_tol=1e-4))
    assert shapes and all(shape[1] == 15 for shape in shapes)


def test_default_pass_makes_one_lockstep_q_call(monkeypatch):
    # the real axis and the two Euler tail slices are segments of one outer
    # call, which converges in its seed round on the default plates: one
    # lockstep Q call over all 495 frequencies (465 on the real axis, 15 in
    # each slice)
    inner, sizes = pr._inner_q_integral, []

    def spy(geom, omegas, *args):
        sizes.append(len(omegas))
        return inner(geom, omegas, *args)

    monkeypatch.setattr(pr, "_inner_q_integral", spy)
    steady_pressure(default_plates(1.0, 1.0, 0.5), PressureOptions(rel_tol=1e-4))
    assert sizes == [495]


def spy_workspaces(monkeypatch):
    """Record every `_Workspace` that pressure makes from now on, in a
    list that is returned."""
    made = []

    class Recorded(pr._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(pr, "_Workspace", Recorded)
    return made


def test_channel_kernel_keeps_its_arrays_in_its_lockstep_calls_workspace(monkeypatch):
    # each _real_q_integral call makes one workspace and holds the channel
    # rows and the kernel's (polarization, plate) arrays in it: every
    # sector run's Fresnel coefficients come back in one of that
    # workspace's buffers as they stand at the call, so its chunks do not
    # reallocate them.  A second call makes its own
    geom = default_plates(1.0, 1.0, 0.5)
    ws = np.linspace(0.2, 12.0, 24)
    made, coeffs = spy_workspaces(monkeypatch), []

    def spy(*args, **kw):
        r = _fresnel_coeffs(*args, **kw)
        coeffs.append(any(np.shares_memory(r, buf) for buf in made[-1]._bufs.values()))
        return r

    monkeypatch.setattr(pr, "_fresnel_coeffs", spy)
    for call in (1, 2):
        pr._real_q_integral(geom, ws, False, 1e-4, 0.0)
        assert len(made) == call
    assert len(coeffs) > 4 and all(coeffs)
    assert all(set(work._bufs) == {"bath.rows", "kernel.den", "kernel.r", "kernel.mag",
                                   "kernel.rows"} for work in made)


@pytest.mark.parametrize("plates", ["dissimilar", "identical"])
def test_a_pass_makes_one_workspace_per_lockstep_call(monkeypatch, plates):
    # the row producers own the buffers: a steady pass makes one workspace
    # per inner lockstep call and none elsewhere, with the producer's keys
    # alone (the channel rows and kernel arrays, or the round-trip rows)
    geom = default_plates(1.0, 1.0, 0.5) if plates == "dissimilar" else \
        identical_plates(1.0, 1.0, 0.5)
    made, calls = spy_workspaces(monkeypatch), []
    inner = pr._inner_q_integral
    monkeypatch.setattr(pr, "_inner_q_integral", lambda *a: calls.append(1) or inner(*a))
    steady_pressure(geom, PressureOptions(rel_tol=1e-3))
    assert len(made) == len(calls) > 0
    keys = {"bath.rows", "kernel.den", "kernel.r", "kernel.mag", "kernel.rows"} \
        if plates == "dissimilar" else {"line.rows"}
    assert all(set(work._bufs) == keys for work in made)


@pytest.mark.parametrize("omega, Q", [(math.nan, 0.5), (1.0, -0.5), (math.inf, 0.5),
                                      (1.0, math.inf), (1.0, math.nan), (-1.0, 0.5),
                                      (np.array([1.0, 2.0]), np.array([0.5, -math.inf]))])
def test_channel_map_refuses_bad_points(omega, Q):
    # NaN used to come back with RuntimeWarnings, a negative Q as a number,
    # an infinite Q as a Fresnel SingularityError
    for call in (bath_integrand, pr._bath_channels):
        with pytest.raises(DomainError, match="channel map needs finite"):
            call(warm_geom(), omega, Q)


#: Bound on the tracemalloc peak of one warmed `steady_pressure` pass on
#: the default configuration's plates.  Measured with numpy 2.4: 2.72 MB
#: with the real axis and both Euler tail slices in one lockstep Q call
#: whose panels carry only their own sector's four channel rows; 3.02 MB
#: with three calls (the real axis, each slice) and all eight rows a
#: panel, only the row producers' rows and the channel kernel's four
#: (polarization, plate) arrays in a per-lockstep-call workspace; 3.15 MB
#: with every per-node array of the quadrature in one workspace for the
#: whole pass (2.81 MB with every kernel array fresh, 4.14 MB with every
#: kernel temporary in the workspace); 4.87 MB when the inner rules' seed
#: rows stayed alive through a lockstep call, 5.28 MB when the
#: per-segment sums built one flat index over all rows.
_PASS_PEAK_BOUND = 4_700_000


def test_steady_pass_keeps_no_lockstep_temporaries_alive():
    geom, opts = default_plates(1.0, 1.0, 0.5), PressureOptions(rel_tol=1e-4)
    steady_pressure(geom, opts)     # warm the imports and the caches
    tracemalloc.start()
    try:
        steady_pressure(geom, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _PASS_PEAK_BOUND, f"{peak} bytes"


# ---------------------------------------------------------------------------
# steady pressure: calibration oracles
# ---------------------------------------------------------------------------


def test_thermal_detached_baseline_is_blackbody():
    # the l-independent thermal part of the detached-plates pressure is the
    # blackbody radiation pressure pi^2 T^4 / 45 pushing the plates apart.
    # The baseline map (the per-node reference's; the production map
    # subtracts it) lives in the propagating sector Q = omega sin(theta);
    # it is integrated here with scipy quad in omega and a fixed
    # Gauss-Legendre rule in theta, off the steady integrator it calibrates
    T = 1.0
    geom = equal_t_geom(gap=1.0, T=T)
    x, wx = np.polynomial.legendre.leggauss(64)
    theta = 0.25 * math.pi * (x + 1.0)
    weight = 0.25 * math.pi * wx * np.cos(theta)    # dQ = omega cos(theta) dtheta

    def over_theta(w):
        ch = per_node_channels(geom, w, w * np.sin(theta), "baseline", True)
        return w * float(np.sum(ch.sum(axis=0) * weight))

    base, _ = quad(over_theta, 0.0, 24.0, points=[0.5, 1.0, 1.5, 2.0, 3.0], limit=200)
    assert_allclose(base, math.pi ** 2 * T ** 4 / 45.0, rtol=1e-4)


def test_equal_temperature_matches_matsubara():
    geom = equal_t_geom(gap=1.0, T=1.0)
    eq = equilibrium_matsubara(geom, 1.0)
    res = steady_pressure(geom, PressureOptions(rel_tol=3e-4))
    assert eq < 0.0
    assert abs(res.value - eq) <= 1e-3 * abs(eq)


@pytest.mark.parametrize("gap", [0.5, 1.0, 2.0])
def test_nonequilibrium_identical_plates_match_matsubara_half_sum(gap):
    # identical plates at T_L != T_R: the distance-dependent pressure is the
    # mean of the two equilibrium pressures (Antezza et al., PRA 77, 022901
    # (2008)), each from the independent imaginary-frequency sum
    res = steady_pressure(identical_plates(gap, 1.0, 0.3), PressureOptions(rel_tol=1e-3))
    half = 0.5 * (equilibrium_matsubara(equal_t_geom(gap, 1.0), 1.0)
                  + equilibrium_matsubara(equal_t_geom(gap, 0.3), 0.3))
    assert abs(res.value - half) <= 1e-4 * abs(half)


def test_nonequilibrium_pressure_is_linear_in_each_occupation():
    # P is linear in each plate's occupation factor, so changing the right
    # plate's temperature shifts P by the same amount whatever the left's
    opts = PressureOptions(rel_tol=1e-4)
    shift = {}
    for t_left in (1.0, 0.2):
        shift[t_left] = (steady_pressure(identical_plates(1.0, t_left, 0.3), opts).value
                         - steady_pressure(identical_plates(1.0, t_left, 0.6), opts).value)
    assert shift[1.0] != 0.0
    assert abs(shift[1.0] - shift[0.2]) <= 1e-6 * abs(shift[1.0])


@pytest.mark.parametrize("gap, t_left, t_right", [(1.0, 1.0, 0.5), (0.7, 2.0, 0.2),
                                                  (2.0, 1.0, 0.3)])
def test_plate_exchange_identity_for_dissimilar_plates(gap, t_left, t_right):
    # P is linear in each plate's occupation, so exchanging the two
    # temperatures and adding gives P(T_L, T_R) + P(T_R, T_L) =
    # P_eq(T_L) + P_eq(T_R), each P_eq the imaginary-frequency sum of the
    # same dissimilar pair at one temperature.  The deviation, 1.3e-6 to
    # 3.6e-6 of |P(T_L, T_R)| + |P(T_R, T_L)| at these points, is the
    # residue of the Euler tail past omega_max; the reported errors sum
    # to 3.6e-5 to 1.1e-4 of it.  The identity is blind to the part of P
    # that is odd under the exchange.
    opts = PressureOptions(rel_tol=1e-4)
    there = steady_pressure(default_plates(gap, t_left, t_right), opts)
    back = steady_pressure(default_plates(gap, t_right, t_left), opts)
    eq = sum(equilibrium_matsubara(default_plates(gap, T, T), T) for T in (t_left, t_right))
    assert abs(there.value + back.value - eq) <= there.err + back.err


def test_odd_part_matches_an_independent_oracle():
    # the part of P odd under the temperature exchange, dc (K_L - K_R), is
    # half the difference of two thermal_only runs with swapped
    # temperatures (their zero-point parts cancel), at omega_max = 30
    # T_max, where dc has decayed by exp(-30); the oracle integrates its
    # closed form under nested scipy quad and shares no code with
    # steady_pressure (tests/oracles.py)
    opts = PressureOptions(rel_tol=1e-9, omega_max=30.0 * 2.0, thermal_only=True)
    there = steady_pressure(default_plates(1.0, 2.0, 0.3), opts)
    back = steady_pressure(default_plates(1.0, 0.3, 2.0), opts)
    odd = 0.5 * (there.value - back.value)
    assert odd == pytest.approx(odd_part_oracle(default_plates(1.0, 2.0, 0.3)), rel=1e-9)


def test_thermal_only_is_pressure_minus_zero_temperature_pressure():
    # P is linear in each plate's occupation and coth = 1 + (coth - 1), so the
    # thermal-only pressure at (T_L, T_R) is P(T_L, T_R) - P(0, 0)
    opts = PressureOptions(rel_tol=1e-4)
    full = steady_pressure(default_plates(1.0, 1.0, 0.5), opts)
    cold = steady_pressure(default_plates(1.0, 0.0, 0.0), opts)
    thermal = steady_pressure(default_plates(1.0, 1.0, 0.5), replace(opts, thermal_only=True))
    assert thermal.value != 0.0
    assert abs(thermal.value - (full.value - cold.value)) <= full.err + cold.err + thermal.err


def test_err_bounds_the_true_error_over_random_plates():
    # the reported err bounds the distance to the imaginary-frequency sum
    # at equal temperatures, for random lossy plate pairs (acceptance
    # criterion 7's generator), gaps and temperatures
    rng = np.random.default_rng(18)
    opts = PressureOptions(rel_tol=1e-3)
    for _ in range(6):
        gap, T = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 2.0))
        left, right = (replace(rand_lossy(rng), beta_bath=1.0 / T) for _ in range(2))
        geom = Geometry(gap=gap, left=left, right=right)
        res = steady_pressure(geom, opts)
        eq = equilibrium_matsubara(geom, T)
        assert abs(res.value - eq) <= res.err, (geom, res.value, eq, res.err)


def test_err_bounds_the_true_error_on_low_loss_plates():
    # the surface band of a low-loss plate (gamma 1e-3 to 3e-2, below
    # rand_lossy's draws) is a peak of width gamma in the frequency
    # integrand that the outer rule's seeds bracket; identical and
    # dissimilar pairs at one temperature against the imaginary-frequency
    # sum
    rng = np.random.default_rng(32)
    opts = PressureOptions(rel_tol=1e-3)
    for same in (True, False, True, False):
        gap, T = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 2.0))
        left, right = (Material(omega0=float(rng.uniform(0.5, 2.5)),
                                lambda0=float(rng.uniform(0.4, 1.5)),
                                bath=BathModel(kind="ohmic",
                                               gamma=float(10.0 ** rng.uniform(-3.0, -1.5))),
                                beta_bath=1.0 / T) for _ in range(2))
        geom = Geometry(gap=gap, left=left, right=left if same else right)
        res = steady_pressure(geom, opts)
        eq = equilibrium_matsubara(geom, T)
        assert abs(res.value - eq) <= res.err, (geom, res.value, eq, res.err)


def test_outer_seeds_bracket_the_surface_bands_and_the_cavity_periods():
    # five edges around each plate's Re eps = -1 point, at 0, +-1 and +-4
    # widths (gamma), and one cavity edge per round-trip period pi/l up
    # to the cap of 48, none at the half periods
    geom = default_plates(1.7, 1.0, 0.5)
    edges = pr._omega_edges(geom, 18.0)
    assert edges == sorted(set(edges)) and (edges[0], edges[-1]) == (0.0, 18.0)
    for side in (geom.left, geom.right):
        base = math.hypot(side.omega0, side.lambda0 / math.sqrt(2.0))
        lossless = replace(side, bath=BathModel(kind="ohmic", gamma=0.0))
        assert permittivity_fourier(lossless, base).real == pytest.approx(-1.0, abs=1e-12)
        for c in (-4.0, -1.0, 0.0, 1.0, 4.0):
            assert min(abs(e - (base + c * side.bath.gamma)) for e in edges) < 1e-12
    period = math.pi / 1.7
    assert {k * period for k in range(1, 10)} <= set(edges) and 10 * period > 18.0
    assert not {(k + 0.5) * period for k in range(9)} & set(edges)
    far = pr._omega_edges(default_plates(31.6, 1.0, 0.5), 18.0)
    assert 48 * (math.pi / 31.6) in far and 49 * (math.pi / 31.6) not in far


def test_evanescent_rows_resolve_the_critical_wavenumber_off_every_mark():
    # at low omega the soft oscillator's (omega0 = 1.3, lambda0 = 0.8)
    # critical wavenumber kappa_c = omega sqrt(eps - 1), where its plate
    # wavenumber vanishes, is 0.616 omega: off the generic evanescent
    # marks (1/(4 l) .. 4/l, omega, 2 omega).  The theta path's evanescent
    # rows match scipy's adaptive quad_vec with points at each plate's
    # kappa_c, within 1e-3 of rel_tol; without the critical marks they
    # read 3.1e-7 and 6.6e-7 off at these frequencies (rel_tol 1e-4), and
    # now 1e-11
    geom = default_plates(1.0, 1.0, 0.5)
    evan = [i for i, key in enumerate(BREAKDOWN_KEYS) if key[2] == "evanescent"]
    rel_tol = 1e-4
    for w in (0.005, 0.05):
        eps = pr._frequency_factors(geom, np.array([w]))["complex"][1:3, 0]
        edges = [w * cmath.sqrt(e - 1.0).real for e in eps]
        assert edges[1] == pytest.approx(0.616 * w, rel=1e-3)

        def rows(kappa):
            Q = math.hypot(w, kappa)
            return pr._bath_channels(geom, w, Q)[evan] * kappa / Q

        want = quad_vec(rows, 0.0, 30.0 / geom.gap, points=edges, epsabs=0.0, epsrel=1e-12,
                        norm="max")[0]
        got = pr._inner_q_integral(geom, np.array([w]), False, rel_tol, 0.0)[0][evan, 0]
        assert np.abs(got - want).max() <= 1e-3 * rel_tol * np.abs(want).sum(), (w, got, want)


def test_sweep_far_first_inner_call_takes_few_rounds(monkeypatch):
    # the sweep-far plates (l = 2, T = 1 and 0.3, rel_tol 2e-3): without
    # the critical marks the first lockstep Q call took 9 rounds, 4 of
    # them only for the evanescent segments at omega <= 0.02; now 3
    panels, inner, rounds = pr._eval_panels, pr._inner_q_integral, []
    inside = [False]

    def count(*args):
        if inside[0]:
            rounds[-1] += 1
        return panels(*args)

    def spy(*args):
        rounds.append(0)
        inside[0] = True
        try:
            return inner(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(pr, "_eval_panels", count)
    monkeypatch.setattr(pr, "_inner_q_integral", spy)
    steady_pressure(identical_plates(2.0, 1.0, 0.3), PressureOptions(rel_tol=2e-3))
    assert 0 < rounds[0] <= 5, rounds


def test_critical_ladder_leaves_out_rungs_the_seeds_cannot_resolve():
    # at omega = 6e-4 each plate's edge is sharp (|Im kappa_c| = 3.0e-5
    # and 3.6e-5 of Re kappa_c), and its lowest rungs would lie closer
    # than _SEED_MERGE of the span to Re kappa_c in t: `_seed_panels` would
    # keep a rung below Re kappa_c, the first edge of the close group, in
    # its place.  They are left out, so each plate's Re kappa_c is a seed
    # edge (they sat 2.1e-7 and 2.9e-7 off it), its upper rungs stay, and
    # no seed panel is a sliver
    geom = default_plates(1.0, 1.0, 0.5)
    w = np.array([6e-4])
    scale = max(w[0], 0.5 / geom.gap)
    eps = pr._frequency_factors(geom, w)["complex"][1:3]
    kc = w[0] * np.sqrt(eps[:, 0] - 1.0)
    assert np.all(np.abs(kc.imag) < 4e-5 * kc.real)
    marks = pr._critical_marks(w, eps, np.array([scale]))[0]
    marks = marks[~np.isnan(marks)]
    assert len(marks) == (1 + 2 * 3) + (1 + 2 * 2)     # each mark, three and two rungs a side
    t = np.sort(marks / (scale + marks))
    assert np.diff(t).min() > pr._SEED_MERGE
    lo, hi, seg = pr._seed_panels(pr._inner_q_seeds(geom, w, eps), str)
    evan = seg == 1
    assert (hi[evan] - lo[evan]).min() > pr._SEED_MERGE
    # plate L's kappa_c (= 1.00001 omega) merges with the mark at omega
    for tc in kc.real / (scale + kc.real):
        assert np.abs(lo[evan] - tc).min() < 1e-9
    # a gamma = 0 plate, whose Im eps is only the retarded eta shift: one
    # mark where Re eps > 1, none above its resonance where Re eps < 1
    lossless = Material(omega0=1.3, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.0))
    ws = np.array([6e-4, 0.3, 1.2, 1.4, 3.0])
    eps = np.array([plate_eps(lossless, -1j * ws)])
    assert np.all(eps.imag > 0.0)
    for table in (eps, eps.real + 0j):          # and with Im eps = 0 exactly
        found = ~np.isnan(pr._critical_marks(ws, table, np.full(len(ws), 0.5)))
        assert found.sum(axis=1).tolist() == [1, 1, 1, 0, 0]


def test_line_seeds_the_corner_at_small_omega():
    # y = omega and 4 omega, where u = 2 l omega / (1 + 2 l omega) < 1/4:
    # the marks y l >= 1/2 lie far above that corner's scale there
    geom = identical_plates(1.0, 1.0, 0.5)
    w = np.array([0.05, 0.5])
    eps = pr._frequency_factors(geom, w)["complex"][1:2]
    prop = pr._inner_q_seeds(geom, w, eps, line=True)[:2]
    u = [2.0 * y / (1.0 + 2.0 * y) for y in (0.05, 0.2)]
    assert set(prop[0][~np.isnan(prop[0])]) == set(pr._LINE_MARKS) | set(u)
    assert set(prop[1][~np.isnan(prop[1])]) == set(pr._LINE_MARKS)


# ---------------------------------------------------------------------------
# steady pressure: the frequency tail on the contour omega_max + i y
# ---------------------------------------------------------------------------


def real_q_lifshitz(geom, omega):
    """H(omega) = int_0^inf Q q S dQ over real Q by scipy quad, S the sum
    over polarizations of x / (1 - x), x = r_L r_R exp(-2 q l): principal
    roots q = sqrt(Q^2 - omega^2) and qn = sqrt(Q^2 - eps omega^2), no
    eta shift."""
    eps = [complex(plate_eps(side, -1j * omega)) for side in (geom.left, geom.right)]

    def h(Q):
        q = cmath.sqrt(Q * Q - omega * omega)
        r = []
        for e in eps:
            qn = cmath.sqrt(Q * Q - e * omega * omega)
            r.append(((q - qn) / (q + qn), (e * q - qn) / (e * q + qn)))
        trip = cmath.exp(-2.0 * q * geom.gap)
        return Q * q * sum(x / (1.0 - x) for x in (r[0][i] * r[1][i] * trip for i in (0, 1)))

    edges = [0.0, omega.real, 2.0 * abs(omega) + 4.0 / geom.gap, math.inf]
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        re, im = (quad(lambda Q: part(h(Q)), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
                  for part in (np.real, np.imag))
        total += re + 1j * im
    return total


@pytest.mark.parametrize("geom", [identical_plates(2.0, 1.0, 0.3),
                                  default_plates(1.0, 0.7, 0.7)],
                         ids=["identical", "dissimilar-equal-T"])
def test_contour_line_gives_the_real_q_integral(geom):
    # the tail's Q integral, on the line k_z = omega + i y with the
    # residues, is H of the real Q axis at complex omega: weight 1 reads
    # Im H, weight i reads Re H
    ws = np.array([4.0 + 0.3j, 1.3 + 0.05j, 2.5 + 2.0j])
    h = np.array([real_q_lifshitz(geom, w) for w in ws])
    got, _ = pr._contour_line_integral(geom, np.tile(ws, 2), np.repeat([1.0, 1j], len(ws)),
                                       1e-10, 0.0)
    assert_allclose(got, np.concatenate([h.imag, h.real]), rtol=0.0, atol=1e-10 * np.abs(h).max())
    # at real omega it is the real-axis emission summed over the eight
    # channels, -c_bar Im H / (2 pi^2): the tail's sign and normalisation
    # without the Matsubara sum
    ws = np.array([0.5, 1.3, 2.9, 6.0])
    channels, _ = pr._inner_q_integral(geom, ws, False, 1e-10, 0.0)
    weights = -pr._mean_occupation(geom, ws.astype(complex), False) / (2.0 * math.pi ** 2)
    contour, _ = pr._contour_line_integral(geom, ws, weights, 1e-10, 0.0)
    assert_allclose(contour, channels.sum(axis=0), rtol=1e-9, atol=0.0)


def test_contour_tail_lands_on_the_matsubara_half_sum():
    # identical plates far from equilibrium (the sweep-far point): the
    # Euler slices past omega = 18 left +7.9e-6 here; the contour tail
    # from omega = 4 lands at +2.9e-10 (+1.5e-9 with the tail's Q integral
    # on the real axis, whose eta shift moved it by 4.6e-13)
    geom = identical_plates(2.0, 1.0, 0.3)
    res = steady_pressure(geom, PressureOptions(rel_tol=2e-3))
    half = 0.5 * (equilibrium_matsubara(equal_t_geom(2.0, 1.0), 1.0)
                  + equilibrium_matsubara(equal_t_geom(2.0, 0.3), 0.3))
    assert res.omega_max_used == 4.0 and res.tail != 0.0
    assert abs(res.value - half) <= 5e-10 * abs(half)
    # where the contour starts is immaterial: doubling the ceiling moves
    # the value by far less than its reported error
    wider = steady_pressure(geom, PressureOptions(rel_tol=2e-3, omega_max=8.0))
    assert wider.omega_max_used == 8.0
    assert abs(wider.value - res.value) < res.err


@pytest.mark.parametrize("geom, rel_dev", [
    (equal_t_geom(100.0, 1.0), 1e-9), (equal_t_geom(31.6, 1.0), 1e-9),
    (default_plates(31.6, 1.0, 1.0), 1e-3)], ids=["identical-l100", "identical-l31.6",
                                                  "dissimilar-l31.6"])
def test_contour_tail_holds_at_large_gaps(geom, rel_dev):
    # with the tail's Q integral on the real axis, l = 100 raised
    # ConvergenceError in it and l = 31.6 read 7.0e-8 off Matsubara; on
    # the line they read 3.0e-11 and 6.9e-12.  The dissimilar pair's real
    # axis stays on the real Q axis, 5.0e-6 off, within its tolerance
    res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
    eq = equilibrium_matsubara(geom, 1.0)
    assert res.tail != 0.0
    assert abs(res.value - eq) <= rel_dev * abs(eq), (res.value, eq)


@pytest.mark.parametrize("params, omega_max", [((1.0, 1.0, 0.1), 1.2), ((1.0, 1.0, 1e-2), 1.23)],
                         ids=["lossy-1.2", "gamma-1e-2-1.23"])
def test_contour_inside_the_surface_band(monkeypatch, params, omega_max):
    # a ceiling inside the surface band (Re eps = -1 at 1.2247) starts the
    # tail where D_mu may have zeros between the real-Q path and the line.
    # The gamma = 0.1 plates have none there; on the gamma = 1e-2 plates
    # the boxes of the tail's lowest frequencies hold TM zeros (e.g.
    # 0.470 + 1.268i at omega = 1.23 + 8.6e-4 i), all on the line's side
    # of that path, whose residues the value needs.  Either way it matches
    # the default ceiling's
    geom = ohmic_pair(*params, 1.0, 1.0, 1.0)
    counted, box_zeros = [], pr._box_zeros

    def spy(geom, w, *args):
        roots = box_zeros(geom, w, *args)
        if np.iscomplexobj(w):
            counted.append(roots[0])
        return roots

    res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
    monkeypatch.setattr(pr, "_box_zeros", spy)
    low = steady_pressure(geom, PressureOptions(rel_tol=1e-3, omega_max=omega_max))
    assert res.omega_max_used == 4.0 and low.omega_max_used == omega_max
    assert abs(low.value - res.value) <= low.err
    assert bool(counted) == (params[2] < 0.1)


def test_contour_search_refuses_a_crossed_branch_cut():
    # the tail's path moves only where qn's principal root is analytic; a
    # permittivity whose cut enters the searched half-strip is refused
    # (no passive plate seen so far has one: Im((1 - eps) omega^2) < 0
    # up the lines)
    geom, w = equal_t_geom(1.0, 1.0), np.array([1.0 + 0.1j])
    with pytest.raises(SingularityError, match="branch cut"):
        pr._strip_residues(geom, w, np.array([[1.0 - 2.0j]]), np.zeros((2, 1)))


def test_strip_residues_drop_zeros_on_the_far_side_of_the_real_q_path(monkeypatch):
    # at omega = a + i b, b > 0, real Q runs k_z along Re k_z Im k_z = a b,
    # so only the zeros of D_mu with Re k_z Im k_z > a b lie between that
    # path and the line.  No tail box has been seen to hold one on the far
    # side, so the zero test, the count and the search hand back, by hand,
    # one TM root on each side: only the near one's 2 pi p^2 den_L den_R /
    # N' enters
    geom, w = default_plates(1.0, 1.0, 1.0), np.array([3.0 + 0.5j])
    eps = np.array([[complex(plate_eps(side, -1j * w[0]))] for side in (geom.left, geom.right)])
    roots = np.array([2.0 + 1.0j, 1.0 + 1.0j])     # Re k_z Im k_z = 2 and 1, against a b = 1.5
    monkeypatch.setattr(pr, "_strip_may_hold_zeros",
                        lambda *args: np.array([[False], [True]]))
    monkeypatch.setattr(pr, "_box_winding", lambda *args: [(2.0, None, None, None)])
    monkeypatch.setattr(pr, "_box_zeros", lambda *args: (roots, roots.copy()))
    out, err = pr._strip_residues(geom, w, eps, np.zeros((2, 1)))
    _, dn, den = pr._strip_n(geom, w[0], eps[:, 0], roots)
    terms = 2.0 * math.pi * roots * roots * den[1] / dn[1]
    assert np.all(terms != 0.0)
    assert out[1, 0] == np.sum(terms[:1]) and out[0, 0] == 0.0
    assert err[0] == 0.0


#: Largest share |tail| / |value| on acceptance criterion 1's six points.
#: Measured: 2.0e-2 and 5.0e-3 at l = 0.5, 1.7e-2 and 3.2e-3 at l = 1, 0.35
#: and 5.2e-2 at l = 2 (T = 0.1 and 1); the share swings with the cavity
#: phase at the ceiling, the deviation from Matsubara does not.
_TAIL_SHARE_BOUND = 0.4


def test_criterion_1_points_stay_mostly_on_the_real_axis():
    # criterion 1 compares a real-frequency evaluation with the Matsubara
    # sum; the contour part must not carry most of it
    for gap in (0.5, 1.0, 2.0):
        for T in (0.1, 1.0):
            res = steady_pressure(equal_t_geom(gap, T), PressureOptions(rel_tol=3e-4))
            assert abs(res.tail) < _TAIL_SHARE_BOUND * abs(res.value), (gap, T, res.tail)


def test_contour_ceiling_is_not_set_by_the_gap():
    # any ceiling gives the same contour integral, so a small gap does not
    # raise it: l = 0.3 starts the contour at 2 (omega0 + lambda0) = 4, and
    # the former ceiling 4/l lands on the same value within the error
    geom = equal_t_geom(0.3, 0.1)
    res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
    assert res.omega_max_used == 4.0
    wide = steady_pressure(geom, PressureOptions(rel_tol=1e-3, omega_max=4.0 / 0.3))
    assert abs(wide.value - res.value) <= res.err


@pytest.mark.parametrize("gap", [1.78, 3.16])
def test_low_contour_ceiling_raises_no_overflow(gap):
    # a contour starting at omega = 2 meets Q panels whose node spread
    # (resasc) is tiny but positive; the Kronrod error rescaling used to
    # overflow there, which the RuntimeWarning filter turns into a failure
    geom = equal_t_geom(gap, 1.0)
    res = steady_pressure(geom, PressureOptions(rel_tol=1e-2, omega_max=2.0))
    assert res.omega_max_used == 2.0
    assert abs(res.value - equilibrium_matsubara(geom, 1.0)) <= res.err


def test_thermal_only_on_the_contour():
    # coth = 1 + (coth - 1) holds on the complex line too: thermal-only at
    # (T_L, T_R) is P(T_L, T_R) - P(0, 0), both on the contour path (c_bar
    # = 1 at T = 0); T_R = 0.05 puts |omega|/T at 80 and more up the line
    def plates(beta_left, beta_right):
        return Geometry(gap=1.0, left=replace(LOSSY, beta_bath=beta_left),
                        right=replace(LOSSY, beta_bath=beta_right))

    opts = PressureOptions(rel_tol=1e-4)
    warm = plates(1.0, 20.0)
    full = steady_pressure(warm, opts)
    cold = steady_pressure(plates(math.inf, math.inf), opts)
    thermal = steady_pressure(warm, replace(opts, thermal_only=True))
    assert full.tail != 0.0 and cold.tail != 0.0 and thermal.tail != 0.0
    assert abs(thermal.value - (full.value - cold.value)) <= full.err + cold.err + thermal.err
    # on the real axis c_bar is the mean coth; far up a cold line it is 1
    w = np.array([0.5, 3.0, 40.0])
    assert_allclose(pr._mean_occupation(warm, w.astype(complex), False),
                    0.5 * (_coth(0.5 * w) + _coth(10.0 * w)), rtol=1e-14)
    line = 4.0 + 1j * np.array([0.0, 1e3, 1e9])
    assert np.all(pr._mean_occupation(plates(1e3, math.inf), line, True) == 0.0)
    assert np.all(pr._mean_occupation(plates(1e3, math.inf), line, False) == 1.0)


def test_default_config_keeps_the_real_axis_tail():
    # dissimilar plates at T_L != T_R: the ceiling and the Euler slices of
    # the real axis, unchanged
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
    geom = geometry_for(cfg)
    assert not pr._closes_on_contour(geom)
    assert steady_pressure(geom, PressureOptions(rel_tol=1e-3)).omega_max_used == 18.0


def test_euler_tail_slices_take_the_real_axis_part_as_their_floor():
    # a slice far smaller than the pressure meets a tolerance relative to
    # the real-axis part, as the contour tail does; relative to itself the
    # slice at omega_max = 30 did not converge
    geom = default_plates(1.0, 1.0, 0.5)
    opts = PressureOptions(thermal_only=True)
    high = steady_pressure(geom, replace(opts, omega_max=30.0))
    low = steady_pressure(geom, opts)
    assert abs(high.tail) < 1e-12 * abs(high.value)
    assert abs(high.value - low.value) <= high.err + low.err


def test_matsubara_oracle_shape():
    geom = equal_t_geom(gap=1.0, T=1.0)
    p1 = equilibrium_matsubara(geom, 1.0)
    p0 = equilibrium_matsubara(geom, 0.0)
    assert p1 < 0.0 and p0 < 0.0
    # attraction strengthens monotonically with temperature at fixed gap
    assert p1 < p0
    # and decays with separation
    p_far = equilibrium_matsubara(equal_t_geom(gap=3.0, T=1.0), 1.0)
    assert abs(p_far) < abs(p1)


@pytest.mark.parametrize("T", [math.nan, math.inf, -0.5])
def test_matsubara_oracle_refuses_bad_temperatures(T):
    # a NaN term used to reset the settle counter, so the sum ran on toward
    # 200,000 quad calls; T = inf returned -inf
    with pytest.raises(DomainError, match="temperature must be >= 0 and finite"):
        equilibrium_matsubara(equal_t_geom(gap=1.0, T=1.0), T)


def test_polylog3_matches_mpmath_at_bounded_cost():
    # the static (xi = 0) Matsubara term: Li_3 of the static round trip,
    # which nears 1 for mirror plates (1 - 4e-6 at eps = 1e6).  Up to
    # x = 1/2 (the sweep-far plates' rho0 = 1/9 among them) the plain
    # series keeps its bits.  Each value comes within 1e-15 of mpmath's,
    # and no call holds more than 100 kB, where the plain series needs
    # about 60 / (1 - x) terms in one array, 376 MB at 1 - 4e-6.  The
    # points run in increasing x, so a series that grows fails on its
    # bound before it reaches 1 - 4e-8
    import mpmath as mp

    frozen = {0.1: "0x1.9ee0e234b0a47p-4", 1 / 9: "0x1.cda68a1eba852p-4",
              0.25: "0x1.08aa1aa8e6306p-2", 0.5: "0x1.130d9b930d707p-1"}
    assert {x: pr._polylog3(x).hex() for x in frozen} == frozen

    for x in (0.1, 0.5, 0.9, 1 - 4e-6, 1 - 4e-8):
        tracemalloc.start()
        try:
            got = pr._polylog3(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (x, peak)
        with mp.workdps(40):
            want = mp.polylog(3, mp.mpf(x))
            assert abs(float((mp.mpf(got) - want) / want)) < 1e-15, x


def test_ideal_mirror_limit_brackets_lifshitz():
    # dispersionless near-mirror plates approach -pi^2/(240 l^4), from below
    # in |eps|; the deviation shrinks monotonically with growing eps
    T, l = 0.01, 1.0
    target = -math.pi ** 2 / 240.0
    devs = []
    for eps in (1e4, 1e6):
        table = EpsilonTable(omega=np.array([1.0]), eps=np.array([eps + 0.0j]),
                             beta_bath=1.0 / T)
        geom = Geometry(gap=l, left=table, right=table)
        p = equilibrium_matsubara(geom, T)
        devs.append(abs(p - target) / abs(target))
    assert devs[0] <= 0.10
    assert devs[1] < devs[0]


def test_mirror_swap_invariance_of_integrand():
    geom = warm_geom(gap=0.8, t_left=1.0, t_right=0.2)
    sw = Geometry(gap=geom.gap, left=geom.right, right=geom.left)
    for w, Q in ((0.9, 0.4), (2.1, 3.3)):
        a = dict(zip(BREAKDOWN_KEYS, pr._bath_channels(geom, w, Q)))
        b = dict(zip(BREAKDOWN_KEYS, pr._bath_channels(sw, w, Q)))
        for (plate, pol, sector) in BREAKDOWN_KEYS:
            other = ("R" if plate == "L" else "L", pol, sector)
            assert_allclose(a[(plate, pol, sector)], b[other], rtol=1e-12)


# ---------------------------------------------------------------------------
# identical plates: the propagating Q integral on the line k_z = omega + i y
# ---------------------------------------------------------------------------


def ohmic_pair(omega0, lambda0, gamma, gap, t_left=1.0, t_right=0.3):
    """Plates of one ohmic material at temperatures (T_L, T_R)."""
    def plate(T):
        return Material(omega0=omega0, lambda0=lambda0,
                        bath=BathModel(kind="ohmic", gamma=gamma), beta_bath=1.0 / T)
    return Geometry(gap=gap, left=plate(t_left), right=plate(t_right))


def sector_sums(ch, sector):
    """A sector's channels summed over the plates, per polarization."""
    return np.array([sum(ch[BREAKDOWN_KEYS.index((plate, pol, sector))] for plate in ("L", "R"))
                     for pol in ("TE", "TM")])


#: Low-loss surface-band points (Re eps = -1) whose strip 0 < Re k_z <
#: omega, Im k_z > 0 holds one TM zero of D_mu: gamma = 1e-2 and 1e-3 at
#: l = 1 (zeros at 0.560 + 1.736i and 0.064 + 1.889i), and (omega0,
#: lambda0) = (0.5, 2) at gamma = 0.1, whose zero 1.4959 + 0.3382i lies
#: 0.004 from the line.
SURFACE_BAND = [((1.0, 1.0, 1e-2, 1.0), 1.2247), ((1.0, 1.0, 1e-3, 1.0), 1.2247),
                ((0.5, 2.0, 0.1, 1.0), 1.5)]


def random_identical_plates(n):
    rng = np.random.default_rng(26)
    return [((float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
              float(10.0 ** rng.uniform(-1.5, 0.0)), float(rng.uniform(0.5, 5.0))),
             np.sort(rng.uniform(0.1, 4.0, 4))) for _ in range(n)]


@pytest.mark.parametrize("params, ws", random_identical_plates(3) + [
    (params, [0.97 * w, w]) for params, w in SURFACE_BAND],
    ids=["random-0", "random-1", "random-2", "gamma-1e-2", "gamma-1e-3", "strong-coupling"])
def test_line_gives_the_theta_paths_propagating_integrals(params, ws):
    # per polarization, line - evanescent - 2 pi i sum Res is the
    # propagating integral of the real Q axis, within the inner tolerance;
    # at the surface-band points with and without a zero in the strip
    geom, ws, tol = ohmic_pair(*params), np.asarray(ws), 1e-9
    line, _ = pr._line_q_integral(geom, ws, False, tol, 0.0)
    theta, _ = pr._real_q_integral(geom, ws, False, tol, 0.0)
    prop, evan = sector_sums(theta, "propagating"), sector_sums(theta, "evanescent")
    assert np.all(np.abs(sector_sums(line, "propagating") - prop) <= tol * (np.abs(prop)
                                                                           + np.abs(evan)))
    assert_allclose(sector_sums(line, "evanescent"), evan, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("params, w", SURFACE_BAND, ids=["gamma-1e-2", "gamma-1e-3",
                                                         "strong-coupling"])
def test_line_without_the_residues_misses_the_surface_band(monkeypatch, params, w):
    geom, ws = ohmic_pair(*params), np.array([w])
    theta, _ = pr._real_q_integral(geom, ws, False, 1e-9, 0.0)
    monkeypatch.setattr(pr, "_strip_residues", lambda geom, w, eps, peak: (
        np.zeros((2, len(w)), complex), np.zeros(len(w))))
    line, _ = pr._line_q_integral(geom, ws, False, 1e-9, 0.0)
    prop = sector_sums(theta, "propagating")
    miss = np.abs(sector_sums(line, "propagating") - prop)
    assert miss[0] <= 1e-9 * abs(prop[0])       # TE has no zero in the strip
    assert miss[1] > 0.5 * abs(prop[1])


def test_zero_on_the_counted_boundary_raises():
    # the strip of the gamma = 1e-2 surface-band point holds one TM zero;
    # a box whose right edge runs through it cannot be counted
    params, w = SURFACE_BAND[0]
    geom, ws = ohmic_pair(*params), np.array([w])
    eps = np.array([[complex(plate_eps(geom.left, -1j * w))]])
    top = pr._strip_top(geom, ws, eps)
    strip = np.array([[0.0], ws, [0.0], top])
    (winding, *boundary), = pr._box_winding(geom, ws, eps, np.array([1]), strip)
    assert round(winding) == 1
    (zero,), _ = pr._box_zeros(geom, w, eps[:, 0], 1, tuple(strip[:, 0]), 1, boundary)
    assert abs(zero - (0.5601643 + 1.7361740j)) < 1e-7
    with pytest.raises(SingularityError, match="lies on the boundary"):
        pr._box_winding(geom, ws, eps, np.array([1]), np.array([[0.0], [zero.real], [0.0], top]))


def random_passive_plates(rng, n):
    """Ohmic and cutoff plates with gamma from 1e-4 to 1."""
    out = []
    for i in range(n):
        gamma = float(10.0 ** rng.uniform(-4.0, 0.0))
        bath = (BathModel(kind="ohmic", gamma=gamma) if i % 2 else
                BathModel(kind="ohmic_lorentz_cutoff", gamma=gamma,
                          cutoff=float(rng.uniform(5.0, 200.0))))
        out.append(Material(omega0=float(rng.uniform(0.3, 3.0)),
                            lambda0=float(rng.uniform(0.2, 3.0)), bath=bath))
    return out


def test_passive_plates_keep_the_left_edge_off_the_positive_axis():
    # the lemma behind the real-axis zero test: on k_z = i kappa, with qn
    # = p - i s (p, s > 0), Im r_TE = 2 kappa s / |kappa + qn|^2 and Im r_TM
    # = 2 kappa s (Re eps + 2 p^2 / w^2) / |eps kappa + qn|^2 are positive,
    # so x_mu = r_L r_R exp(-2 kappa l) stays off [0, inf); and L_mu = l +
    # 1/n_L + 1/n_R of the corner is never in the closed third quadrant.
    # Frequencies on both sides of each plate's surface band (Re eps = -1)
    rng = np.random.default_rng(36)
    kappa = np.geomspace(1e-6, 1e3, 181)
    for mat in random_passive_plates(rng, 40):
        band = math.hypot(mat.omega0, mat.lambda0 / math.sqrt(2.0))
        for w in band * np.array([0.05, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 20.0]):
            eps = complex(permittivity_fourier(mat, w))
            assert eps.imag > 0.0
            qn = np.sqrt((1.0 - eps) * w * w + kappa * kappa)
            assert np.all(qn.real > 0.0) and np.all(qn.imag < 0.0)
            r_te, r_tm = (kappa - qn) / (kappa + qn), (eps * kappa - qn) / (eps * kappa + qn)
            assert np.all(r_te.imag > 0.0) and np.all(r_tm.imag > 0.0), (mat, w)
            qn0 = cmath.sqrt((1.0 - eps) * w * w)
            for gap in (0.01, 1.0, 20.0):
                geom = Geometry(gap=gap, left=mat, right=mat)
                # far up the edge exp(-2 kappa l) takes x, and first its
                # smaller part, below the smallest double
                x = pr._round_trips(geom, w, np.array([eps]), 1j * kappa,
                                    np.exp(-2.0 * gap * kappa))
                x = x[np.abs(x) > 1e-200]
                assert not np.any((x.imag == 0.0) & (x.real >= 0.0)), (mat, w, gap)
                for n in (qn0, qn0 / eps):
                    corner = gap + 2.0 / n
                    assert not (corner.real <= 0.0 and corner.imag <= 0.0), (mat, w, gap)


def test_real_axis_zero_test_flags_every_box_that_holds_a_zero(monkeypatch):
    # ground truth for the zero test: every box the line's residue search
    # sees, on random low-loss identical plates and the surface-band
    # points, is counted by the argument principle, and each box that
    # holds a zero must be one the test flags.  Measured: 3,312 boxes, 51
    # holding zeros, 208 flagged (422 with the left edge sampled), none
    # missed
    rng = np.random.default_rng(36)
    cases = [(params, np.array([0.97 * w, w])) for params, w in SURFACE_BAND]
    for _ in range(165):
        omega0, lambda0 = rng.uniform(0.5, 2.0, 2)
        gamma, gap = 10.0 ** rng.uniform(-3.5, 0.3), 10.0 ** rng.uniform(-0.5, 1.3)
        band = math.hypot(omega0, lambda0 / math.sqrt(2.0))
        cases.append(((omega0, lambda0, gamma, gap),
                      np.sort(band * (1.0 + rng.uniform(-0.3, 0.3, 10)))))
    seen, residues = [], pr._strip_residues

    def spy(geom, w, eps, peak):
        seen.append((geom, w, eps, peak.copy()))
        return residues(geom, w, eps, peak)

    monkeypatch.setattr(pr, "_strip_residues", spy)
    for params, ws in cases:
        pr._line_q_integral(ohmic_pair(*params), ws, False, 1e-3, 0.0)
    boxes = held = flagged = 0
    for geom, w, eps, peak in seen:
        top = pr._strip_top(geom, w, eps)
        flags = pr._strip_may_hold_zeros(geom, w, eps, top, peak)
        pol, at = np.repeat([0, 1], len(w)), np.tile(np.arange(len(w)), 2)
        strips = np.array([np.zeros(len(at)), w[at], np.zeros(len(at)), top[at]])
        counts = np.array([round(winding) for winding, *_ in
                           pr._box_winding(geom, w[at], eps[:, at], pol, strips)])
        missed = (counts > 0) & ~flags[pol, at]
        assert not missed.any(), (geom, w[at][missed], pol[missed])
        boxes, held, flagged = boxes + len(at), held + np.sum(counts > 0), flagged + flags.sum()
    assert held >= 40 and flagged < 0.1 * boxes, (boxes, held, flagged)


def test_sweep_far_plates_count_no_real_axis_box(monkeypatch):
    # the sweep-far plates (omega0 = lambda0 = 1, gamma = 0.1, l = 2, T =
    # 1 and 0.3, rel_tol 2e-3): with the left edge sampled the zero test
    # flagged 57 (omega, TM) strips in [0.960, 1.145] that hold no zero;
    # with it proved, the argument principle counts no real-axis box
    winding, real = pr._box_winding, []

    def spy(geom, w, *args):
        if not np.iscomplexobj(w):
            real.append(len(w))
        return winding(geom, w, *args)

    monkeypatch.setattr(pr, "_box_winding", spy)
    res = steady_pressure(identical_plates(2.0, 1.0, 0.3), PressureOptions(rel_tol=2e-3))
    assert res.value < 0.0 and sum(real) == 0, real


def sampled_strip_flags(geom, w, eps, top, line_peak):
    """The zero test with every edge sampled: the left edge, the points
    level with r_TM's pole and qn's branch point on both vertical edges,
    the top, the bottom at complex w, and Re L_mu > 0 at the corner."""
    l = geom.gap
    a, b = w.real[:, None], w.imag[:, None]
    w, eps, top = w[:, None], eps[:, :, None], top[:, None]
    u = np.arange(1, pr._STRIP_EDGE_SAMPLES + 1) / (pr._STRIP_EDGE_SAMPLES + 1.0)
    kappa = np.minimum(b + u / (2.0 * l * (1.0 - u)), top)
    level = np.clip(np.abs(np.imag(np.hstack([v for ep in eps for v in (
        w / np.sqrt(ep + 1.0), w * np.sqrt(1.0 - ep))]))), b, top)
    t = np.arange(pr._STRIP_TOP_SAMPLES + 1) / pr._STRIP_TOP_SAMPLES
    edges = [1j * kappa, t * a + 1j * top, 1j * level, a + 1j * level]
    if b.any():
        edges.append(u * a + 1j * b)
    k = np.hstack(edges)
    x = pr._round_trips(geom, w, eps, k, np.exp(2j * l * k))
    peak = np.maximum(np.abs(x).max(axis=-1), line_peak)
    inv = []
    for ep in eps:
        qn0 = np.sqrt((1.0 - ep[:, 0]) * w[:, 0] ** 2)
        inv.append(np.stack([1.0 / qn0, ep[:, 0] / qn0]))
    corner = l + (inv[0] + inv[-1])
    return (peak >= 1.0) | ((b[:, 0] == 0.0) & ~(corner.real > 0.0))


def test_strip_test_samples_the_left_edge_off_the_passive_real_axis():
    # the proof needs a real frequency and Im eps > 0 on both plates; at
    # complex omega (the contour tail) and where a plate has Im eps = 0
    # (real entries, some with r_TM's pole on the left edge) the test
    # samples every edge, and flags what the sampled form flags
    low, default = (Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=1e-2)),
                    Material(omega0=1.3, lambda0=0.8, bath=BathModel(kind="ohmic", gamma=0.2)))
    cases = []
    for gap in (0.5, 1.0, 3.0):
        w = (np.linspace(0.3, 3.0, 12)[:, None] + 1j * np.array([1e-3, 1e-2, 0.1, 1.0])).ravel()
        for plates in ((low,), (low, default)):
            cases.append((gap, w, np.array([[complex(plate_eps(side, -1j * x)) for x in w]
                                            for side in plates])))
        w = np.repeat(np.linspace(0.3, 3.0, 10), 4)
        lossless = np.tile([-3.0, 4.0, 0.5, -1.2], 10) + 0j
        for eps in ([lossless], [lossless, np.tile([-3.0 + 1j, 4.0 + 0.1j, 0.5 + 1e-3j, -1.2], 10)]):
            cases.append((gap, w, np.array(eps)))
    some = 0
    for gap, w, eps in cases:
        geom = Geometry(gap=gap, left=low, right=low if len(eps) == 1 else default)
        top = pr._strip_top(geom, w, eps)
        peak = np.zeros((2, len(w)))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = sampled_strip_flags(geom, w, eps, top, peak)
            assert np.array_equal(pr._strip_may_hold_zeros(geom, w, eps, top, peak), want)
        some += want.any() and not want.all()
    assert some >= 6


def test_line_rows_keep_each_plates_share():
    # every channel of plate a is c_a / (2 c_bar) of the polarization's
    # emission, c_a = coth(omega / 2 T_a), in both sectors
    geom, ws = identical_plates(2.0, 1.0, 0.3), np.array([0.4, 1.1, 2.5])
    ch, _ = pr._line_q_integral(geom, ws, False, 1e-8, 0.0)
    ratio = _coth(0.5 * ws / 1.0) / _coth(0.5 * ws / 0.3)
    for pol in ("TE", "TM"):
        for sector in ("propagating", "evanescent"):
            left = ch[BREAKDOWN_KEYS.index(("L", pol, sector))]
            right = ch[BREAKDOWN_KEYS.index(("R", pol, sector))]
            assert_allclose(left / right, ratio, rtol=1e-12)


def test_inner_points_per_frequency_stay_flat_in_the_gap(monkeypatch):
    # criterion 8's plates at rel_tol 2e-3: the line and evanescent points
    # per real-axis frequency read 204, 193, 199 and 225 at l = 1, 3.16,
    # 10 and 31.6 (67, 62, 61 and 60 of them on the line); on the theta
    # path they read 304, 478, 1214 and 3574.  The spies cover every
    # integrand an inner rule may call, and the floor on the means fails
    # if one of them goes uncounted
    seen = {"points": 0, "frequencies": 0}
    bath, line, inner = pr._bath_channels, pr._line_integrand, pr._inner_q_integral
    evan = pr._evanescent_integrand

    def count_bath(geom, omega, Q, **kw):
        seen["points"] += np.size(Q)
        return bath(geom, omega, Q, **kw)

    def count_line(geom, w, eps, y):
        seen["points"] += np.size(y)
        return line(geom, w, eps, y)

    def count_evan(geom, w, eps, Q):
        seen["points"] += np.size(Q)
        return evan(geom, w, eps, Q)

    def count_inner(geom, omegas, *args):
        seen["frequencies"] += len(omegas)
        return inner(geom, omegas, *args)

    monkeypatch.setattr(pr, "_bath_channels", count_bath)
    monkeypatch.setattr(pr, "_line_integrand", count_line)
    monkeypatch.setattr(pr, "_evanescent_integrand", count_evan)
    monkeypatch.setattr(pr, "_inner_q_integral", count_inner)
    means = []
    for gap in (1.0, 3.16, 10.0, 31.6):
        seen.update(points=0, frequencies=0)
        steady_pressure(equal_t_geom(gap, 1.0), PressureOptions(rel_tol=2e-3))
        means.append(seen["points"] / seen["frequencies"])
    assert max(means) <= 1.5 * min(means), means
    assert min(means) > 150.0, means


@pytest.mark.parametrize("gap, t_right", [(float(g), 1.0) for g in np.geomspace(1.0, 10.0, 5)]
                         + [(2.0, 0.3)],
                         ids=[f"criterion-8-l{g:.3g}" for g in np.geomspace(1.0, 10.0, 5)]
                         + ["sweep-far"])
def test_err_stays_within_the_tolerance_on_identical_plates(gap, t_right):
    # err / (rel_tol |P|) reads 0.02, 0.12, 0.05, 0.10 and 0.06 at
    # criterion 8's gaps and 0.008 on the sweep-far plates (it was 0.10 to
    # 22.3 and 1.21 on the theta path)
    res = steady_pressure(identical_plates(gap, 1.0, t_right), PressureOptions(rel_tol=2e-3))
    assert 0.0 < res.err <= 2e-3 * abs(res.value)


@pytest.mark.parametrize("geom", [default_plates(1.0, 1.0, 0.5), default_plates(1.0, 0.7, 0.7)],
                         ids=["euler-tail", "contour-tail"])
def test_dissimilar_pairs_never_take_the_line(monkeypatch, geom):
    # on the real axis a dissimilar pair keeps the real Q axis, since its
    # plate split is not a function of H; only its contour tail (one bath
    # temperature) reads the line, at complex frequencies
    line, seen = pr._line_integrand, []

    def refuse(*args, **kwargs):
        raise AssertionError("a dissimilar pair reached the line on the real axis")

    def complex_only(geom, w, eps, y):
        if not np.iscomplexobj(w):
            refuse()
        seen.append(np.size(y))
        return line(geom, w, eps, y)

    monkeypatch.setattr(pr, "_line_q_integral", refuse)
    monkeypatch.setattr(pr, "_line_integrand", complex_only)
    assert steady_pressure(geom, PressureOptions(rel_tol=1e-3)).value < 0.0
    assert bool(seen) == pr._closes_on_contour(geom)


@pytest.mark.parametrize("params", [(1.0, 1.0, 0.1, 1.0), (1.0, 1.0, 0.1, 2.0),
                                    SURFACE_BAND[0][0]], ids=["l1", "l2", "gamma-1e-2"])
def test_evanescent_rows_match_the_channel_map(params):
    # C (c_L + c_R) times the round-trip row is the channel map's
    # evanescent rows summed over the plates, per polarization, below and
    # above omega0 and in the surface band (Re eps = -1 at 1.2247).  Next
    # to the light line (1 - x_mu ~ 2 kappa L) and at large Q (q - qn
    # cancels) both forms lose digits: there they differ by up to 2e-13,
    # and each lies up to 1e-12 from a 40-digit evaluation
    geom = ohmic_pair(*params)
    kappa_l = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 10.0])
    for w in (0.5, 1.2247, 2.5):
        edge = np.array([w * (1.0 + 1e-6), math.hypot(w, 30.0 / geom.gap)])
        Q = np.concatenate([np.hypot(w, kappa_l / geom.gap), edge])
        fac = pr._frequency_factors(geom, np.array([w]))
        eps = fac["complex"][1, 0]
        both = fac["share"][:, 0].sum()
        want = sector_sums(pr._bath_channels(geom, w, Q), "evanescent")
        got = both * pr._evanescent_integrand(geom, w, [eps], Q)
        inner = slice(0, len(kappa_l))
        assert_allclose(got[:, inner], want[:, inner], rtol=1e-13, atol=0.0)
        assert_allclose(got[:, len(kappa_l):], want[:, len(kappa_l):], rtol=1e-12, atol=0.0)
        # on the light line dQ/dt = 0 and the row reads 0, not 0 * inf
        assert np.all(pr._evanescent_integrand(geom, w, [eps], np.array([w])) == 0.0)


@pytest.mark.parametrize("thermal_only", [False, True])
def test_identical_plates_never_call_the_channel_map(monkeypatch, thermal_only):
    # both sectors of identical plates come from the round trips, and the
    # plate split is applied after integration
    def refuse(*args, **kwargs):
        raise AssertionError("identical plates reached the channel map")

    monkeypatch.setattr(pr, "_bath_channels", refuse)
    res = steady_pressure(identical_plates(2.0, 1.0, 0.3),
                          PressureOptions(rel_tol=2e-3, thermal_only=thermal_only))
    assert res.value < 0.0 and all(v != 0.0 for v in res.breakdown.values())


def test_thermal_only_keeps_a_cold_plates_channels_exactly_zero():
    # c_a / (c_L + c_R) is exactly 0 for a plate at T = 0 under
    # thermal_only, and 0 rather than NaN where neither plate emits
    def plates(t_left, t_right):
        def plate(T):
            return Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1),
                            beta_bath=1.0 / T if T > 0.0 else math.inf)
        return Geometry(gap=1.0, left=plate(t_left), right=plate(t_right))

    opts = PressureOptions(rel_tol=1e-3, thermal_only=True)
    res = steady_pressure(plates(1.0, 0.0), opts)
    for (plate, pol, sector), v in res.breakdown.items():
        assert (v == 0.0) == (plate == "R"), (plate, pol, sector, v)
    ch, err = pr._line_q_integral(plates(0.0, 0.0), np.array([0.5, 1.3, 2.9]), True, 1e-6, 0.0)
    assert np.all(ch == 0.0) and np.all(err == 0.0)


# ---------------------------------------------------------------------------
# steady pressure: the integrator contract
# ---------------------------------------------------------------------------


def test_steady_pressure_result_contract():
    # breakdown holds the eight real-axis channels on [0, omega_max_used]
    # and tail the part past it, on the real axis (dissimilar plates at
    # T_L != T_R) or on the contour (identical plates)
    for geom in (warm_geom(gap=1.0), identical_plates(1.0, 1.0, 0.5)):
        res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
        assert res.omega_max_used > 0.0
        assert math.isfinite(res.value) and math.isfinite(res.tail) and res.tail != 0.0
        assert res.err >= 0.0
        assert set(res.breakdown) == set(BREAKDOWN_KEYS)
        assert_allclose(math.fsum(res.breakdown.values()) + res.tail, res.value, rtol=1e-12)
        row = res.csv_row(1.0, 1.0, 0.5)
        assert len(row) == 14
        assert row[3] == res.value and row[-1] == 1


def test_steady_pressure_requires_dissipation():
    glassy = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="none", gamma=0.0))
    mute = Material(omega0=1.0, lambda0=0.0)
    for geom in (Geometry(gap=1.0, left=glassy, right=glassy),
                 Geometry(gap=1.0, left=glassy, right=mute)):
        with pytest.raises(DomainError, match="dissipative"):
            steady_pressure(geom)


@pytest.mark.parametrize("left_table", [False, True])
def test_steady_pressure_refuses_table_plates(left_table):
    # a lossless constant table emits nothing, while the lossless limit of
    # an oscillator plate keeps its emission: facing the default lossy
    # plate, an eps = 1.5 table would give +0.125 against the Matsubara
    # -0.0027.  So a table plate is refused, on either side, before the
    # integrand runs
    lossy = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1),
                     beta_bath=1.0)
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([1.5 + 0.0j]), beta_bath=1.0)
    left, right = (table, lossy) if left_table else (lossy, table)
    with pytest.raises(DomainError, match="table plate"):
        steady_pressure(Geometry(gap=1.0, left=left, right=right))


def test_pressure_options_validation():
    with pytest.raises(DomainError):
        PressureOptions(rel_tol=0.5)
    with pytest.raises(DomainError):
        PressureOptions(rel_tol=0.0)


def test_constructors_refuse_values_that_turn_into_wrong_numbers():
    # an infinite oscillator scale gave a causal double root, an infinite
    # friction a ConvergenceError on a NaN residual, and a truthy string
    # for thermal_only silently dropped the zero-point emission
    refused = ((Material, {"omega0": math.inf}), (Material, {"lambda0": math.inf}),
               (Material, {"mass": math.inf}), (BathModel, {"gamma": math.inf}),
               (BathModel, {"cutoff": math.nan}), (BathModel, {"cutoff": 0.0}),
               (PressureOptions, {"thermal_only": "no"}), (PressureOptions, {"thermal_only": 1}))
    for cls, kw in refused:
        with pytest.raises(DomainError):
            cls(**kw)
    assert PressureOptions(thermal_only=np.True_).thermal_only
    assert BathModel(kind="ohmic", cutoff=math.inf).cutoff == math.inf


def test_pressure_options_rejects_infinite_omega_max():
    # an infinite ceiling used to be accepted and overflow in the Q edges
    with pytest.raises(DomainError, match="finite"):
        PressureOptions(omega_max=math.inf)
    assert PressureOptions(omega_max=24.0).omega_max == 24.0


# ---------------------------------------------------------------------------
# the segmented (lockstep) adaptive rule
# ---------------------------------------------------------------------------

_G, _X0 = 1e-3, 0.3137
KNOWN = {
    "smooth": (lambda x: np.exp(x) * np.cos(x), [0.0, 1.0, 2.0],
               0.5 * (math.exp(2.0) * (math.cos(2.0) + math.sin(2.0)) - 1.0)),
    "lorentzian": (lambda x: _G / ((x - _X0) ** 2 + _G ** 2), [-1.0, 0.0, 1.0],
                   math.atan((1.0 - _X0) / _G) + math.atan((1.0 + _X0) / _G)),
    "oscillatory": (lambda x: np.cos(40.0 * x), [0.0, 1.5, 3.0], math.sin(120.0) / 40.0),
}


def segment_integrand(names, seen, ride):
    """f(x, seg) -> (main, ride), one row each: main evaluates
    KNOWN[names[seg]] per node, ride(x, main) rides along; ``seen``
    collects the nodes each segment was evaluated at."""
    def f(x, seg):
        out = np.empty_like(x)
        for j, name in enumerate(names):
            here = seg == j
            out[here] = KNOWN[name][0](x[here])
            if seen is not None:
                seen.setdefault(j, []).append(x[here])
        return out[None], ride(x, out)[None]
    return f


def run_segments(names, rel_tol=1e-9, seen=None, ride=lambda x, main: 2.0 * main, **kw):
    return pr._adaptive_gk(segment_integrand(names, seen, ride),
                           [KNOWN[n][1] for n in names], rel_tol, labels=names.__getitem__, **kw)


def test_seed_edges_a_millionth_of_the_span_apart_are_one_edge():
    # marks that coincide up to a perturbation of the inputs seed no
    # sliver panel; a row keeps its first and last edges
    lo, hi, seg = pr._seed_panels(np.array([[0.0, 1.0, 1.0 + 1e-7, 2.0 - 1e-7, 2.0],
                                            [3.0, 1e-7, 0.0, 1.0, np.nan]]), str)
    assert lo.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert hi.tolist() == [1.0, 2.0, 1.0, 3.0]
    assert seg.tolist() == [0, 0, 1, 1]


def test_a_chain_of_close_seed_marks_merges_against_the_kept_edges():
    # each mark is within _SEED_MERGE of the span of the one before it,
    # but every other mark is farther than that from the last kept edge:
    # the chain keeps one edge per merge width, not only its lowest mark
    lo, hi, seg = pr._seed_panels([[0, 0.6e-6, 1.2e-6, 1.8e-6, 2.4e-6, 1]], str)
    assert lo.tolist() == [0.0, 1.2e-6, 2.4e-6]
    assert hi.tolist() == [1.2e-6, 2.4e-6, 1.0]
    assert seg.tolist() == [0, 0, 0]


def test_segmented_rule_meets_each_segments_own_tolerance():
    names = ("smooth", "lorentzian", "oscillatory", "smooth")
    rel_tol = 1e-9
    (main, ride), err = run_segments(names, rel_tol)
    assert err.shape == (len(names),)
    assert main.shape == ride.shape == (1, len(names))
    assert_allclose(ride, 2.0 * main, rtol=1e-15)
    for j, name in enumerate(names):
        exact = KNOWN[name][2]
        assert abs(main[0, j] - exact) <= err[j], name
        assert err[j] <= rel_tol * abs(main[0, j]), name


def test_ride_rows_never_drive_refinement():
    # a ride row too rough for any panel budget changes nothing about the
    # main row: the same nodes, values and errors as with a smooth ride row
    names = ("smooth", "lorentzian", "oscillatory")
    seen, seen_rough = {}, {}
    (main, _), err = run_segments(names, seen=seen)
    (main_r, ride_r), err_r = run_segments(names, seen=seen_rough,
                                           ride=lambda x, m: np.sin(1e6 * x))
    assert np.array_equal(main_r, main) and np.array_equal(err_r, err)
    for j in range(len(names)):
        assert np.array_equal(np.concatenate(seen_rough[j]), np.concatenate(seen[j]))
    assert np.all(np.isfinite(ride_r))


def test_segmented_rule_segments_are_independent():
    # with no floor, every segment takes the decisions it would take alone:
    # the same nodes in the same order, the same value and error, whoever
    # runs beside it
    names = ("lorentzian", "oscillatory", "smooth", "lorentzian", "oscillatory")
    seen = {}
    (together, _), err = run_segments(names, seen=seen, abs_floor=0.0)
    for j, name in enumerate(names):
        seen1 = {}
        (alone, _), err1 = run_segments((name,), seen=seen1, abs_floor=0.0)
        assert_allclose(together[0, j], alone[0, 0], rtol=1e-14, atol=0.0)
        assert_allclose(err[j], err1[0], rtol=1e-14, atol=0.0)
        assert np.array_equal(np.concatenate(seen[j]), np.concatenate(seen1[0])), name


def test_retired_segments_keep_the_bits_of_a_non_retiring_run(monkeypatch):
    # segments that converge in different rounds retire with totals and
    # errors summed over their panels in array order.  The reference keeps
    # every panel to the end, as a rule without retirement does (each
    # round drops the split panels and appends their left then right
    # halves), and sums the survivors with np.bincount: the same bytes
    batches = []
    real = pr._eval_panels

    def spy(f, lo, hi, seg, **kw):
        got = real(f, lo, hi, seg, **kw)
        batches.append((np.array(lo), np.array(seg), got))
        return got

    monkeypatch.setattr(pr, "_eval_panels", spy)
    names = ("smooth", "lorentzian", "oscillatory", "smooth", "lorentzian")
    (main, ride), err = run_segments(names, rel_tol=1e-12, ride=lambda x, m: m * np.sin(x))

    lo, seg, ((m_rows, r_rows), e, _) = batches[0]
    for new_lo, new_seg, ((new_m, new_r), new_e, _) in batches[1:]:
        half = len(new_lo) // 2
        split = set(zip(new_seg[:half].tolist(), new_lo[:half].tolist()))
        keep = np.array([(s, x) not in split for s, x in zip(seg.tolist(), lo.tolist())])
        lo, seg = np.concatenate([lo[keep], new_lo]), np.concatenate([seg[keep], new_seg])
        m_rows = np.concatenate([m_rows[:, keep], new_m], axis=1)
        r_rows = np.concatenate([r_rows[:, keep], new_r], axis=1)
        e = np.concatenate([e[keep], new_e])

    def sums(rows):
        return np.array([np.bincount(seg, weights=r, minlength=len(names)) for r in rows])

    assert main.tobytes() == sums(m_rows).tobytes()
    assert ride.tobytes() == sums(r_rows).tobytes()
    assert err.tobytes() == np.bincount(seg, weights=e, minlength=len(names)).tobytes()
    last_split = [max(i for i, (_, s, _) in enumerate(batches) if j in s)
                  for j in range(len(names))]
    assert len(set(last_split)) >= 3, last_split


def test_panel_reductions_do_not_depend_on_the_batch():
    # every panel's integrals, error and rounding floor are the same bits
    # whether it is evaluated alone or inside a full chunk of panels (a
    # BLAS matmul reduction is not: it sums a batch in blocks)
    rng = np.random.default_rng(31)
    n = pr._PANEL_CHUNK
    lo = rng.uniform(0.0, 10.0, n)
    hi = lo + rng.uniform(1e-3, 2.0, n)
    seg = np.arange(n)
    scale = np.exp(rng.uniform(-20.0, 20.0, n))

    def f(x, s):
        s = s[:, None]          # one segment per panel, broadcast over its 15 nodes
        wave = scale[s] * np.cos(3.0 * x + s)
        return np.stack([wave, np.exp(-x) * s, wave * x * x]), (np.sin(x) * scale[s])[None]

    (main, ride), err, rnd = pr._eval_panels(f, lo, hi, seg)
    for j in range(n):
        part = slice(j, j + 1)
        (main1, ride1), err1, rnd1 = pr._eval_panels(f, lo[part], hi[part], seg[part])
        assert np.array_equal(main1[:, 0], main[:, j]) and np.array_equal(ride1[:, 0], ride[:, j])
        assert err1[0] == err[j] and rnd1[0] == rnd[j]


def test_each_segment_keeps_its_own_panel_budget():
    # max_panels may be one per segment: two segments of one Lorentzian
    # need the same panels; the one whose budget is below that raises,
    # naming itself and its budget, beside one whose budget lets it
    # converge (as both do under the larger budget)
    f = segment_integrand(("lorentzian", "lorentzian"), None, lambda x, main: main)
    seeds = [KNOWN["lorentzian"][1]] * 2
    (main, _), err = pr._adaptive_gk(f, seeds, 1e-9, max_panels=[1024, 1024],
                                     labels=lambda j: f"segment {j}")
    assert main[0, 0] == main[0, 1] and err[0] == err[1]
    with pytest.raises(ConvergenceError, match=r"^segment 1 did not converge: \d+ panels "
                                               r"\(budget 8\)"):
        pr._adaptive_gk(f, seeds, 1e-9, max_panels=[1024, 8], labels=lambda j: f"segment {j}")
    with pytest.raises(ConvergenceError, match=r"^segment 0 did not converge: \d+ panels "
                                               r"\(budget 8\)"):
        pr._adaptive_gk(f, seeds, 1e-9, max_panels=np.array([8, 1024]),
                        labels=lambda j: f"segment {j}")


def test_segment_stops_at_its_rounding_floor():
    # a target below rounding (50 eps of each panel's integral of |f|) can
    # never be met; each segment stops once its residual is at most twice
    # its rounding floors and reports that residual, which still bounds
    # the true error
    names = ("smooth", "lorentzian", "oscillatory")
    (main, _), err = run_segments(names, rel_tol=1e-17)
    for j, name in enumerate(names):
        assert 0.0 < err[j] < 1e-13, name
        assert abs(main[0, j] - KNOWN[name][2]) <= err[j], name


def test_tight_tolerances_stop_at_the_roundoff_level():
    # on the sweep-far plates these calls used to bisect a stalled sector
    # to its panel budget and raise ConvergenceError
    geom = identical_plates(2.0, 1.0, 0.3)
    ch, err = pr._inner_q_integral(geom, np.array([0.5, 1.3, 2.9, 6.0]), False, 1e-12, 0.0)
    assert np.all(np.isfinite(ch)) and np.all(err > 0.0)
    tight = steady_pressure(geom, PressureOptions(rel_tol=1e-9))
    loose = steady_pressure(geom, PressureOptions(rel_tol=1e-8))
    assert abs(tight.value - loose.value) <= tight.err


@pytest.mark.parametrize("sector", ["propagating", "evanescent"])
def test_inner_convergence_error_names_frequency_and_sector(monkeypatch, sector):
    # a channel map that stays rough on one sector of one frequency exhausts
    # that segment's panel budget; the error names it, not its neighbours
    def rough(geom, omega, Q, **kw):
        w = np.broadcast_to(omega, np.shape(Q))
        bad = (w == 2.5) & ((Q < w) if sector == "propagating" else (Q > w))
        v = np.exp(-Q) + np.where(bad, np.sin(1e6 * Q), 0.0)
        return np.stack([v] * len(BREAKDOWN_KEYS))

    monkeypatch.setattr(pr, "_bath_channels", rough)
    with pytest.raises(ConvergenceError, match=f"{sector} Q integral at omega=2.5 "):
        pr._inner_q_integral(warm_geom(), np.array([1.0, 2.5, 4.0]), False, 1e-6, 0.0)

    # identical plates take the line k_z = omega + i y (in y) and the
    # round-trip evanescent rows (in Q) instead, through the same labels
    def rough_rows(w, x, propagating):
        w = np.broadcast_to(w, np.shape(x))
        bad = (w == 2.5) & ((sector == "propagating") == propagating)
        return np.stack([np.exp(-x) + np.where(bad, np.sin(1e6 * x), 0.0)] * len(pr._POLS))

    monkeypatch.setattr(pr, "_line_integrand", lambda geom, w, eps, y: (
        1j * rough_rows(w, y, True), np.zeros((len(pr._POLS), len(y)))))
    monkeypatch.setattr(pr, "_evanescent_integrand",
                        lambda geom, w, eps, Q: rough_rows(w, Q, False))
    with pytest.raises(ConvergenceError, match=f"{sector} Q integral at omega=2.5 "):
        pr._inner_q_integral(identical_plates(1.0, 1.0, 0.5), np.array([1.0, 2.5, 4.0]),
                             False, 1e-6, 0.0)


@pytest.mark.parametrize("geom, rel_tol", [(identical_plates(2.0, 1.0, 0.3), 2e-3),
                                           (default_plates(1.0, 1.0, 0.5), 1e-4)],
                         ids=["sweep-far", "default"])
def test_chunks_that_straddle_sectors_give_the_same_bits(monkeypatch, geom, rel_tol):
    # chunks of 7 panels cut the propagating and evanescent runs of every
    # round at many places; every chunk's nodes still take their own
    # sector's closed form, so the pass gives the same bits
    def hexes():
        res = steady_pressure(geom, PressureOptions(rel_tol=rel_tol))
        return [float(v).hex() for v in (res.value, res.err, res.tail,
                                          *(res.breakdown[k] for k in BREAKDOWN_KEYS))]

    want = hexes()
    monkeypatch.setattr(pr, "_PANEL_CHUNK", 7)
    assert hexes() == want


def test_inner_integrals_do_not_depend_on_frequency_order():
    # the floor of a lockstep call comes from its running estimates, not
    # from the order in which its frequencies are listed
    geom = warm_geom()
    ws = np.array([0.2, 0.9, 1.3, 2.6, 5.0, 11.0])
    ch, err = pr._inner_q_integral(geom, ws, False, 2.5e-5, 0.0)
    rev, err_rev = pr._inner_q_integral(geom, ws[::-1], False, 2.5e-5, 0.0)
    assert ch.shape == (len(BREAKDOWN_KEYS), len(ws))
    assert_allclose(rev[:, ::-1], ch, rtol=1e-14, atol=0.0)
    assert_allclose(err_rev[::-1], err, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# transient integrands (pole-classifier inputs)
# ---------------------------------------------------------------------------


def test_dof_integrand_structure():
    geom = warm_geom()
    s1, s2 = 0.2 - 0.9j, 0.1 + 1.3j
    total, parts = assemble_dof_integrand(geom, 0.7, s1, s2, parts=True)
    assert len(parts) == 16
    assert_allclose(sum(parts.values()), total, rtol=1e-12)
    plates = {k[0] for k in parts}
    brackets = {k[2] for k in parts}
    pieces = {k[3] for k in parts}
    assert plates == {"L", "R"}
    assert brackets == {"product", "cross"}
    assert pieces == {"electric", "magnetic"}


def test_dof_integrand_decoupled_and_type_errors():
    mute = Material(omega0=1.0, lambda0=0.0, bath=BathModel(kind="ohmic", gamma=0.1))
    geom = Geometry(gap=1.0, left=mute, right=mute)
    assert assemble_dof_integrand(geom, 0.5, 0.3 - 1j, 0.2 + 1j) == 0.0
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([2.0 + 0.0j]))
    geom2 = Geometry(gap=1.0, left=table, right=LOSSY)
    with pytest.raises(DomainError):
        assemble_dof_integrand(geom2, 0.5, 0.3 - 1j, 0.2 + 1j)


def test_ic_integrand_structure():
    geom = warm_geom()
    k = np.array([0.4, 0.3, 1.1])
    s1, s2 = 0.15 - 0.8j, 0.15 + 0.8j
    total, parts = assemble_ic_integrand(geom, k, s1, s2, parts=True)
    assert set(k_[0] for k_ in parts) == {"TE", "TM"}
    assert_allclose(sum(parts.values()), total, rtol=1e-12)
    assert np.isfinite(complex(total).real)
    # the conjugate Laplace pair makes the assembled integrand real up to
    # the retarded regulator
    tot2 = assemble_ic_integrand(geom, k, s1, np.conj(s1))
    assert abs(complex(tot2).imag) <= 1e-9 * max(abs(complex(tot2).real), 1e-300)


def test_ic_integrand_occupation_weight():
    geom = warm_geom()
    k = np.array([0.2, 0.0, 0.9])
    wk = float(np.linalg.norm(k))
    s1, s2 = 0.1 - 0.5j, 0.1 + 0.5j
    cold = assemble_ic_integrand(geom, k, s1, s2, beta_em=math.inf)
    warm = assemble_ic_integrand(geom, k, s1, s2, beta_em=0.5)
    ratio = complex(warm) / complex(cold)
    want = 1.0 / math.tanh(0.5 * wk / 2.0)
    assert_allclose(ratio.real, want, rtol=1e-10)


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(w=st.floats(0.05, 8.0), x=st.floats(0.0, 3.0))
def test_mirror_swap_property(w, x):
    # mirroring the cavity exchanges the two dissimilar plates' channels
    geom = warm_geom(z_field=0.21)
    a = dict(zip(BREAKDOWN_KEYS, pr._bath_channels(geom, w, x * w)))
    b = dict(zip(BREAKDOWN_KEYS, pr._bath_channels(geom.swapped(), w, x * w)))
    scale = max(abs(float(v)) for v in a.values())
    for (plate, pol, sector), v in a.items():
        other = ("R" if plate == "L" else "L", pol, sector)
        assert abs(float(v) - float(b[other])) <= 1e-13 * scale


@settings(max_examples=15, deadline=None)
@given(w=st.floats(0.02, 10.0))
def test_emission_weight_positivity(w):
    # each plate's share C c_a of the emission, C > 0 the measure and c_a
    # its occupation: positive, and the thermal part below the whole
    geom = warm_geom()
    full = pr._frequency_factors(geom, np.array([w]))["share"]
    thermal = pr._frequency_factors(geom, np.array([w]), thermal_only=True)["share"]
    for a in range(2):
        assert full[a][0] >= 0.0
        assert 0.0 <= thermal[a][0] <= full[a][0] + 1e-300


@settings(max_examples=8, deadline=None)
@given(gap=st.floats(0.4, 2.5), T=st.floats(0.05, 2.0))
def test_matsubara_attraction_property(gap, T):
    assert equilibrium_matsubara(equal_t_geom(gap=gap, T=T), T) < 0.0
