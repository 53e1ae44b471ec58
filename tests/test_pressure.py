import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import rand_lossy
from neqlifshitz import pressure as pr
from neqlifshitz import spectral
from neqlifshitz.cli import geometry_for, load_config
from neqlifshitz.em_green import (Geometry, GreenBlock, GreenTerm, XHAT, _fresnel_coeffs,
                                  _s_eff, green_gap_from_plate, ic_z_block, plate_eps, qz)
from neqlifshitz.errors import ConvergenceError, DomainError, SingularityError
from neqlifshitz.material import (BathModel, EpsilonTable, Material, _coth,
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
            amp = sc1 * sc2 * spectral._source_factor(t1, t2) * usrc
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
    # sectors.  The full map is the per-node reference's; the production
    # map equals that reference's difference map bit for bit
    # (test_sector_split_matches_the_per_node_rules)
    cutoff = Material(omega0=1.5, lambda0=0.8, beta_bath=2.0,
                      bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=20.0))
    geom = Geometry(gap=0.9, left=warm_geom().left, right=cutoff, z_field=z_field)
    rng = np.random.default_rng(17)
    for _ in range(80):
        w = float(rng.uniform(0.05, 8.0))
        Q = w * np.concatenate([rng.uniform(0.0, 1.0, 8), rng.uniform(1.0, 4.0, 8)])
        got = per_node_channels(geom, w, Q, "full", False)
        want = symbolic_channels(geom, w, Q)
        scale = max(np.max(np.abs(v)) for v in want.values())
        for key, v in zip(BREAKDOWN_KEYS, got):
            assert np.max(np.abs(v - want[key].real)) <= 1e-12 * scale, (w, key)


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
    sectors' closed forms at every point and masks to pick one.

    Each row is plate a's emission weight times its kernel, with
    G = C Q / (2 Re qn |q + qn|^2) (TE) or C Q (Q^2 + |qn|^2) /
    (2 Re qn |eps q + qn|^2 |s_eff|^2) (TM), the round trip r_L r_R (in
    L, R order) and the locked baseline 1 - |r_L|^2 |r_R|^2, both shared
    by the two emitters; a row is 0 where its plate does not emit.

    kernel = "difference" is the map the production integrand computes;
    "full" (the unsubtracted map) and "baseline" (its detached-plates
    limit, propagating only) are the oracles' side of it."""
    w, Q = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(Q, dtype=float))
    out = np.zeros((len(BREAKDOWN_KEYS),) + Q.shape)
    grid = out.reshape((2, 2, 2) + Q.shape)
    live = w != 0.0
    w, Q = w[live], Q[live]
    s = -1j * w
    prop = Q < w
    q = qz(1.0, s, Q)
    q2 = np.abs(q) ** 2
    light = q == 0.0
    trip = np.exp(-2.0 * q * geom.gap)
    sides = (geom.left, geom.right)
    media, coeffs = [], []
    for side in sides:
        eps = np.asarray(plate_eps(side, s))
        qn = qz(eps, s, Q)
        media.append((eps, qn))
        coeffs.append(_fresnel_coeffs(eps, q, qn, s))
    s_eff2 = np.abs(_s_eff(s)) ** 2
    C = pr.PRESSURE_SIGN * pr._MEASURE
    for i in range(2):
        r_l, r_r = coeffs[0][i], coeffs[1][i]
        cavity = 1.0 / np.where(light, 1.0, np.abs(1.0 - r_l * r_r * trip) ** 2)
        locked = 1.0 / np.where(prop, 1.0 - np.abs(r_l) ** 2 * np.abs(r_r) ** 2, 1.0)
        prop_cavity = {"full": cavity, "baseline": locked, "difference": cavity - locked}[kernel]
        for a, b in ((0, 1), (1, 0)):
            weight = emission_weight(sides[a], w, thermal_only=thermal_only)
            emit = weight != 0.0
            eps, qn = media[a]
            abs_te, abs_tm, abs_qn = coeffs[a][2:]
            den = np.where(emit, 2.0 * qn.real, 1.0)
            G = (C * Q / (den * abs_te ** 2),
                 C * Q * (Q * Q + abs_qn ** 2) / (den * abs_tm ** 2 * s_eff2))[i]
            rb = coeffs[b][i]
            prop_k = 2.0 * G * q2 * (1.0 + np.abs(rb) ** 2) * prop_cavity
            grid[a, i, 0, ...][live] = np.where(prop & emit, weight * prop_k, 0.0)
            if kernel != "baseline":
                eps_b, qn_b = media[b]
                n_a, n_b = (qn, qn_b) if i == 0 else (qn / eps, qn_b / eps_b)
                lim = G / np.abs(geom.gap + 1.0 / n_a + 1.0 / n_b) ** 2
                evan_k = np.where(light, lim, -4.0 * G * q2 * (rb * trip).real * cavity)
                grid[a, i, 1, ...][live] = np.where(~prop & emit, weight * evan_k, 0.0)
    return out


@pytest.mark.parametrize("thermal_only", [False, True])
def test_sector_split_matches_the_per_node_rules(thermal_only):
    # each sector on its own, with the vacuum wavenumber and the round-trip
    # factor in real arithmetic, gives the same bits as the general rules;
    # the batch holds both sectors, points on the light line, omega = 0 and
    # a lossless (gamma = 0) partner plate.  The factors-once path of the
    # inner rule (frequencies in call order, each point's row given) gives
    # the same arrays as a fresh call
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
    lockstep = pr._bath_channels(geom, w_nodes[live], Q_nodes[live], factors=(factors, row))
    assert np.array_equal(lockstep, got[:, live])


def test_sector_runs_match_the_per_node_rules():
    # the inner rules hand the channel map one propagating run of nodes
    # followed by one evanescent run.  A theta node so close to pi/2 that
    # sin(theta) rounds to 1 lands on the light line inside the propagating
    # run: it keeps the evanescent closed form (its light-line limit), as
    # the per-node rules give it, and the runs around it stay exact
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
    got = pr._bath_channels(geom, w, Q, factors=factors)
    assert np.array_equal(got, per_node_channels(geom, w, Q, "difference", False))
    assert np.all(got[0::2, on_light] == 0.0) and np.all(got[1::2, on_light] != 0.0)
    clean = np.setdiff1d(np.arange(w.size), on_light)   # two clean runs
    got = pr._bath_channels(geom, w[clean], Q[clean], factors=(factors[0], row[clean]))
    assert np.array_equal(got, per_node_channels(geom, w[clean], Q[clean], "difference", False))


def test_one_material_runs_its_optics_and_kernels_once(monkeypatch):
    # identical plates at two temperatures run one Fresnel step per sector,
    # and their rows are bit for bit those of the two-material path (forced
    # by declaring the plates different).  The batch holds both sectors and
    # the light line; under thermal_only the cold plate emits below
    # omega = 2 only, so its rows read 0 at the higher frequencies
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
        shared = pr._bath_channels(geom, w, Q, thermal_only=thermal_only)
        assert len(calls) == 2
        with monkeypatch.context() as m:
            m.setattr(pr, "_same_material", lambda geom: False)
            calls.clear()
            apart = pr._bath_channels(geom, w, Q, thermal_only=thermal_only)
            assert len(calls) == 4
        assert shared.tobytes() == apart.tobytes()
        assert np.any(shared[:4] != 0.0)
        cold = shared[4:, w > 2.0]
        assert np.all(cold == 0.0) if thermal_only else np.any(cold != 0.0)


def test_table_pairs_take_the_two_material_path():
    # two tables count as one material only when they are one object, so a
    # pair of equal multi-row tables at two temperatures neither crashes
    # the sameness test nor closes on the contour
    omega = np.array([0.5, 1.0, 2.0])
    rows = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=1.0)
    twin = EpsilonTable(omega=omega, eps=np.full(3, 2.0 + 0j), beta_bath=0.5)
    assert not pr._closes_on_contour(Geometry(gap=1.0, left=rows, right=twin))
    assert pr._frequency_factors(Geometry(gap=1.0, left=rows, right=rows),
                                 np.array([1.0]))["kernel_of"] == (0, 0)
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


#: Bound on the tracemalloc peak of one full-chunk `_bath_channels` call on
#: a warmed workspace.  Measured with numpy 2.4 on the batch below: 64.6 kB
#: with the workspace (the sector index arrays and small masks), 1.32 MB
#: when every per-point array was a fresh temporary (1.96 MB, 512 B per
#: point, on an all-propagating chunk of the default pass).
_CHUNK_PEAK_BOUND = 200_000


def test_warm_workspace_keeps_chunk_sized_temporaries_out_of_the_integrand():
    rng = np.random.default_rng(5)
    n = 15 * pr._PANEL_CHUNK
    ws = np.sort(rng.uniform(0.05, 20.0, 120))
    row = rng.integers(0, len(ws), n)
    w = ws[row]
    Q = w * rng.uniform(0.0, 3.0, n)
    kw = {"factors": (pr._frequency_factors(warm_geom(), ws), row), "work": pr._Workspace()}
    pr._bath_channels(warm_geom(), w, Q, **kw)      # warm the workspace
    tracemalloc.start()
    try:
        pr._bath_channels(warm_geom(), w, Q, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _CHUNK_PEAK_BOUND, f"{peak} bytes for {n} points"


#: Bound on the tracemalloc peak of one warmed `steady_pressure` pass on
#: the default configuration's plates.  Measured with numpy 2.4: 4.48 MB,
#: about 2.5 MB of it the pass's workspace; 4.87 MB when the inner rules'
#: seed rows stayed alive through a lockstep call, 5.28 MB when the
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


# ---------------------------------------------------------------------------
# steady pressure: the frequency tail on the contour omega_max + i y
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("geom", [identical_plates(2.0, 1.0, 0.3),
                                  default_plates(1.0, 0.7, 0.7)],
                         ids=["identical", "dissimilar-equal-T"])
def test_contour_integrand_meets_the_real_axis_channels(geom):
    # at y = 0 the contour integrand's Q integral, -c_bar Im H(-i omega) /
    # (2 pi^2), is the real-axis emission summed over the eight channels:
    # this pins the tail's sign and normalisation without the Matsubara sum
    ws = np.array([0.5, 1.3, 2.9, 6.0])
    channels, _ = pr._inner_q_integral(geom, ws, False, 1e-10, 0.0)
    weights = -pr._mean_occupation(geom, ws.astype(complex), False) / (2.0 * math.pi ** 2)
    contour, _ = pr._contour_q_integral(geom, ws, weights, 1e-10, 0.0)
    assert_allclose(contour, channels.sum(axis=0), rtol=1e-9, atol=0.0)


def test_contour_tail_lands_on_the_matsubara_half_sum():
    # identical plates far from equilibrium (the sweep-far point): the
    # Euler slices past omega = 18 left +7.9e-6 here; the contour tail
    # from omega = 4 lands at -3.5e-8
    geom = identical_plates(2.0, 1.0, 0.3)
    res = steady_pressure(geom, PressureOptions(rel_tol=2e-3))
    half = 0.5 * (equilibrium_matsubara(equal_t_geom(2.0, 1.0), 1.0)
                  + equilibrium_matsubara(equal_t_geom(2.0, 0.3), 0.3))
    assert res.omega_max_used == 4.0 and res.tail != 0.0
    assert abs(res.value - half) <= 1e-6 * abs(half)
    # where the contour starts is immaterial: doubling the ceiling moves
    # the value by far less than its reported error
    wider = steady_pressure(geom, PressureOptions(rel_tol=2e-3, omega_max=8.0))
    assert wider.omega_max_used == 8.0
    assert abs(wider.value - res.value) < res.err


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
        wave = scale[s] * np.cos(3.0 * x + s)
        return np.stack([wave, np.exp(-x) * s, wave * x * x]), (np.sin(x) * scale[s])[None]

    (main, ride), err, rnd = pr._eval_panels(f, lo, hi, seg)
    for j in range(n):
        part = slice(j, j + 1)
        (main1, ride1), err1, rnd1 = pr._eval_panels(f, lo[part], hi[part], seg[part])
        assert np.array_equal(main1[:, 0], main[:, j]) and np.array_equal(ride1[:, 0], ride[:, j])
        assert err1[0] == err[j] and rnd1[0] == rnd[j]


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
        return np.tile(v, (len(BREAKDOWN_KEYS), 1))

    monkeypatch.setattr(pr, "_bath_channels", rough)
    with pytest.raises(ConvergenceError, match=f"{sector} Q integral at omega=2.5 "):
        pr._inner_q_integral(warm_geom(), np.array([1.0, 2.5, 4.0]), False, 1e-6, 0.0)


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
    geom = warm_geom()
    full = pr._frequency_factors(geom, np.array([w]))["weight"]
    thermal = pr._frequency_factors(geom, np.array([w]), thermal_only=True)["weight"]
    for a in range(2):
        assert full[a][0] >= 0.0
        assert 0.0 <= thermal[a][0] <= full[a][0] + 1e-300


@settings(max_examples=8, deadline=None)
@given(gap=st.floats(0.4, 2.5), T=st.floats(0.05, 2.0))
def test_matsubara_attraction_property(gap, T):
    assert equilibrium_matsubara(equal_t_geom(gap=gap, T=T), T) < 0.0
