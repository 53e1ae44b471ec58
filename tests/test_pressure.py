import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from neqlifshitz import pressure as pr
from neqlifshitz import spectral
from neqlifshitz.em_green import (Geometry, GreenBlock, GreenTerm, XHAT,
                                  green_gap_from_plate, ic_z_block)
from neqlifshitz.errors import ConvergenceError, DomainError, SingularityError
from neqlifshitz.material import BathModel, EpsilonTable, Material
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
    return GreenBlock(terms=(term,), s=-1j, Q=np.asarray(float(Q)), qhat=XHAT,
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
        hx, hy = float(block.qhat[0]), float(block.qhat[1])
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
    # limit, not 0 * inf
    geom = warm_geom()
    for w in (0.3, 1.0, 2.7):
        Qs = w * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        ch = pr._bath_channels(geom, w, Qs)
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
    geom = warm_geom()
    ch = pr._bath_channels(geom, 1.2, np.array([0.5, 3.0]))
    assert set(ch) == set(BREAKDOWN_KEYS)
    # sector masks: propagating channels vanish for Q > omega and vice versa
    for (plate, pol, sector), v in ch.items():
        if sector == "propagating":
            assert v[1] == 0.0
        else:
            assert v[0] == 0.0


def test_baseline_kernel_is_propagating_only():
    geom = warm_geom()
    Qs = np.array([0.3, 0.8, 1.1, 2.5])
    ch = pr._bath_channels(geom, 1.0, Qs, kernel="baseline")
    for (plate, pol, sector), v in ch.items():
        if sector == "evanescent":
            assert np.all(v == 0.0)
    total = sum(v for (p, m, s), v in ch.items() if s == "propagating")
    assert np.all(np.isfinite(total.real))
    assert np.any(total.real != 0.0)


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
        weight = pr._emission_weight(geom.side(plate), omega)
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
    # shows the stress is z-independent.  One cutoff-bath plate, both sectors
    cutoff = Material(omega0=1.5, lambda0=0.8, beta_bath=2.0,
                      bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=20.0))
    geom = Geometry(gap=0.9, left=warm_geom().left, right=cutoff, z_field=z_field)
    rng = np.random.default_rng(17)
    for _ in range(80):
        w = float(rng.uniform(0.05, 8.0))
        Q = w * np.concatenate([rng.uniform(0.0, 1.0, 8), rng.uniform(1.0, 4.0, 8)])
        got = pr._bath_channels(geom, w, Q, kernel="full")
        want = symbolic_channels(geom, w, Q)
        scale = max(np.max(np.abs(v)) for v in want.values())
        for key in BREAKDOWN_KEYS:
            assert np.max(np.abs(got[key] - want[key].real)) <= 1e-12 * scale, (w, key)


def test_locked_cavity_is_the_phase_average():
    # the baseline kernel's cavity weight 1/(1 - |r_a r_b|^2) is the average
    # of the full propagating channel over one round-trip period pi/k_z of
    # the gap
    geom = warm_geom()
    w = 1.7
    for Q in (0.4, 1.2):
        kz = math.sqrt(w * w - Q * Q)
        gaps = geom.gap + (math.pi / kz) * np.arange(256) / 256
        base = pr._bath_channels(geom, w, Q, kernel="baseline")
        runs = [symbolic_channels(replace(geom, gap=g), w, Q) for g in gaps]
        for key in BREAKDOWN_KEYS:
            if key[2] == "propagating":
                avg = np.mean([complex(r[key]).real for r in runs])
                assert_allclose(float(base[key]), avg, rtol=1e-12)


def test_difference_kernel_additivity_and_evanescent_decay():
    # full = baseline + difference pointwise; in the evanescent sector the
    # subtracted integrand dies exponentially with the gap (the baseline is
    # zero there, and the full kernel loses its round trips)
    w, Q = 1.3, 0.5
    raw = bath_integrand(warm_geom(gap=2.0), w, Q, kernel="full")
    base = sum(pr._bath_channels(warm_geom(gap=2.0), w, Q, kernel="baseline").values())
    diff = bath_integrand(warm_geom(gap=2.0), w, Q, kernel="difference")
    assert_allclose(raw.real, (base + diff).real, rtol=1e-12)
    w_e, Q_e = 1.0, 1.4
    near = bath_integrand(warm_geom(gap=0.5), w_e, Q_e, kernel="difference")
    far = bath_integrand(warm_geom(gap=8.0), w_e, Q_e, kernel="difference")
    assert abs(far) <= 1e-5 * abs(near)


@pytest.mark.parametrize("kernel", ["full", "baseline", "difference"])
def test_bath_channels_frequency_array_matches_scalar_calls(kernel):
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
    want = [pr._bath_channels(geom, float(w), Q[i], kernel=kernel) for i, w in enumerate(ws)]
    perm = rng.permutation(Q.size)
    flat = pr._bath_channels(geom, np.repeat(ws, x.size)[perm], Q.ravel()[perm],
                             kernel=kernel)
    grid = pr._bath_channels(geom, ws[:, None], Q, kernel=kernel)
    for key in BREAKDOWN_KEYS:
        stacked = np.stack([w[key] for w in want])
        assert grid[key].shape == Q.shape
        assert_allclose(grid[key], stacked, rtol=1e-14, atol=0.0)
        assert_allclose(flat[key], stacked.ravel()[perm], rtol=1e-14, atol=0.0)
        assert np.all(stacked[ws == 0.0] == 0.0)
    if kernel != "baseline":    # the light line is in the evanescent sector
        on_line = sum(w[key][3] for w in want for key in BREAKDOWN_KEYS)
        assert np.isfinite(on_line) and on_line != 0.0


def test_bath_channels_frequency_batch_with_a_partly_lossless_plate():
    # a table plate without loss below omega = 1 emits nothing there (its
    # weight is 0 and, in the propagating sector, so is Re qn); in a batch
    # that mixes both kinds of frequency its channels still read exactly 0
    grid = np.geomspace(0.05, 20.0, 40)
    table = EpsilonTable(omega=grid, eps=3.0 + np.where(grid < 1.0, 0.0, 0.5j),
                         beta_bath=1.0)
    geom = Geometry(gap=1.0, left=table, right=warm_geom().right)
    ws = np.array([0.3, 2.0, 0.6, 5.0])
    Q = ws[:, None] * np.array([0.2, 0.9, 1.4])
    grid_ch = pr._bath_channels(geom, ws[:, None], Q)
    for i, w in enumerate(ws):
        want = pr._bath_channels(geom, float(w), Q[i])
        for key in BREAKDOWN_KEYS:
            assert_allclose(grid_ch[key][i], want[key], rtol=1e-14, atol=0.0)
            if key[0] == "L" and w < 1.0:
                assert np.all(grid_ch[key][i] == 0.0)
    assert np.all(grid_ch[("L", "TE", "propagating")][ws > 1.0, :2] != 0.0)


def test_bath_channels_frequency_batch_still_detects_trapped_modes():
    # with a nearly lossless plate pair, Re eps < 0 between omega0 and
    # sqrt(omega0^2 + lambda0^2) makes |r_a r_b| = 1 to 1e-15: the detached
    # baseline is singular there, and a batch that holds one such point
    # must raise like the scalar call does
    glassy = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=1e-15))
    geom = Geometry(gap=1.0, left=glassy, right=glassy)
    ws, Q = np.array([0.5, 1.2, 2.0]), np.array([0.3, 0.3, 0.3])
    pr._bath_channels(geom, 0.5, 0.3, kernel="baseline")
    with pytest.raises(SingularityError):
        pr._bath_channels(geom, 1.2, 0.3, kernel="baseline")
    with pytest.raises(SingularityError) as info:
        pr._bath_channels(geom, ws, Q, kernel="baseline")
    assert info.value.point == -1.2j
    pr._bath_channels(geom, ws, Q, kernel="full")


# ---------------------------------------------------------------------------
# steady pressure: calibration oracles
# ---------------------------------------------------------------------------


def test_thermal_detached_baseline_is_blackbody():
    # the l-independent thermal part of the detached-plates pressure is the
    # blackbody radiation pressure pi^2 T^4 / 45 pushing the plates apart
    T = 1.0
    geom = equal_t_geom(gap=1.0, T=T)
    opts = PressureOptions(rel_tol=1e-5, omega_max=24.0, thermal_only=True)
    base = pr._steady(geom, opts, "baseline")
    assert_allclose(base.value, math.pi ** 2 * T ** 4 / 45.0, rtol=1e-4)


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
        a = pr._bath_channels(geom, w, Q)
        b = pr._bath_channels(sw, w, Q)
        for (plate, pol, sector) in BREAKDOWN_KEYS:
            other = ("R" if plate == "L" else "L", pol, sector)
            assert_allclose(a[(plate, pol, sector)], b[other], rtol=1e-12)


# ---------------------------------------------------------------------------
# steady pressure: the integrator contract
# ---------------------------------------------------------------------------


def test_steady_pressure_result_contract():
    geom = warm_geom(gap=1.0)
    res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
    assert res.omega_max_used > 0.0
    assert math.isfinite(res.value)
    assert res.err >= 0.0
    assert set(res.breakdown) == set(BREAKDOWN_KEYS)
    assert_allclose(math.fsum(res.breakdown.values()), res.value, rtol=1e-12)
    row = res.csv_row(1.0, 1.0, 0.5)
    assert len(row) == 14
    assert row[3] == res.value and row[-1] == 1


def test_steady_pressure_requires_dissipation():
    shiny = EpsilonTable(omega=np.array([1.0]), eps=np.array([4.0 + 0.0j]))
    geom = Geometry(gap=1.0, left=shiny, right=shiny)
    with pytest.raises(DomainError):
        steady_pressure(geom)


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


def segment_integrand(names, seen=None):
    """Channel-valued f(x, seg) evaluating KNOWN[names[seg]] per node;
    ``seen`` collects the nodes each segment was evaluated at."""
    def f(x, seg):
        out = np.empty_like(x)
        for j, name in enumerate(names):
            here = seg == j
            out[here] = KNOWN[name][0](x[here])
            if seen is not None:
                seen.setdefault(j, []).append(x[here])
        return {"main": out, "_ride": 2.0 * out}
    return f


def run_segments(names, rel_tol=1e-9, seen=None, **kw):
    return pr._adaptive_gk(segment_integrand(names, seen), [KNOWN[n][1] for n in names],
                           rel_tol, labels=list(names), **kw)


def test_segmented_rule_meets_each_segments_own_tolerance():
    names = ("smooth", "lorentzian", "oscillatory", "smooth")
    rel_tol = 1e-9
    totals, err = run_segments(names, rel_tol)
    assert err.shape == (len(names),)
    assert_allclose(totals["_ride"], 2.0 * totals["main"], rtol=1e-15)
    for j, name in enumerate(names):
        exact = KNOWN[name][2]
        assert abs(totals["main"][j] - exact) <= err[j], name
        assert err[j] <= rel_tol * abs(totals["main"][j]), name


def test_segmented_rule_segments_are_independent():
    # with no floor, every segment takes the decisions it would take alone:
    # the same nodes in the same order, the same value and error, whoever
    # runs beside it
    names = ("lorentzian", "oscillatory", "smooth", "lorentzian", "oscillatory")
    seen = {}
    together, err = run_segments(names, seen=seen, abs_floor=0.0)
    for j, name in enumerate(names):
        seen1 = {}
        alone, err1 = run_segments((name,), seen=seen1, abs_floor=0.0)
        assert_allclose(together["main"][j], alone["main"][0], rtol=1e-14, atol=0.0)
        assert_allclose(err[j], err1[0], rtol=1e-14, atol=0.0)
        assert np.array_equal(np.concatenate(seen[j]), np.concatenate(seen1[0])), name


@pytest.mark.parametrize("sector", ["propagating", "evanescent"])
def test_inner_convergence_error_names_frequency_and_sector(monkeypatch, sector):
    # a channel map that stays rough on one sector of one frequency exhausts
    # that segment's panel budget; the error names it, not its neighbours
    def rough(geom, omega, Q, **kw):
        w = np.broadcast_to(omega, np.shape(Q))
        bad = (w == 2.5) & ((Q < w) if sector == "propagating" else (Q > w))
        v = np.exp(-Q) + np.where(bad, np.sin(1e6 * Q), 0.0)
        return {k: v for k in BREAKDOWN_KEYS}

    monkeypatch.setattr(pr, "_bath_channels", rough)
    with pytest.raises(ConvergenceError, match=f"{sector} Q integral at omega=2.5 "):
        pr._inner_q_integral(warm_geom(), np.array([1.0, 2.5, 4.0]), "full",
                             False, 1e-6, 0.0)


def test_inner_integrals_do_not_depend_on_frequency_order():
    # the floor of a lockstep call comes from its running estimates, not
    # from the order in which its frequencies are listed
    geom = warm_geom()
    ws = np.array([0.2, 0.9, 1.3, 2.6, 5.0, 11.0])
    ch, err = pr._inner_q_integral(geom, ws, "difference", False, 2.5e-5, 0.0)
    rev, err_rev = pr._inner_q_integral(geom, ws[::-1], "difference", False,
                                        2.5e-5, 0.0)
    for key in BREAKDOWN_KEYS:
        assert_allclose(rev[key][::-1], ch[key], rtol=1e-14, atol=0.0)
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
    table = EpsilonTable(omega=np.array([1.0]), eps=np.array([2.0 + 1.0j]))
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
    a = pr._bath_channels(geom, w, x * w)
    b = pr._bath_channels(geom.swapped(), w, x * w)
    scale = max(abs(float(v)) for v in a.values())
    for (plate, pol, sector), v in a.items():
        other = ("R" if plate == "L" else "L", pol, sector)
        assert abs(float(v) - float(b[other])) <= 1e-13 * scale


@settings(max_examples=15, deadline=None)
@given(w=st.floats(0.02, 10.0))
def test_emission_weight_positivity(w):
    for side in (LOSSY, LOSSY2):
        full = pr._emission_weight(side, w)
        thermal = pr._emission_weight(side, w, thermal_only=True)
        assert full >= 0.0
        assert 0.0 <= thermal <= full + 1e-300


@settings(max_examples=8, deadline=None)
@given(gap=st.floats(0.4, 2.5), T=st.floats(0.05, 2.0))
def test_matsubara_attraction_property(gap, T):
    assert equilibrium_matsubara(equal_t_geom(gap=gap, T=T), T) < 0.0
