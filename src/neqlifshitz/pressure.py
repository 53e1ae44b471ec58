"""Steady-state Casimir pressure between dissipative half-spaces.

The long-time pressure is carried entirely by the plate baths: each plate
emits into the gap with weight omega^2 * coth(beta omega/2) * Im eps(omega)
(equivalently, pre-identity, via its bath noise kernel), and the zz stress
of the emitted field is the closed-form non-equilibrium Lifshitz integrand
of the two plates' Fresnel coefficients.  The symbolic Green blocks of
:mod:`.em_green`, contracted by :func:`theta_contract`, serve only the
transient integrands at the end of this module (and the tests, as the
oracle of the closed form).  The (omega, Q) integral is done with a
vectorized adaptive Gauss-Kronrod rule, split into propagating (Q < omega)
and evanescent (Q > omega) sectors, with an optional subtraction of the
detached-plates (l -> infinity) baseline so the distance-dependent part is
integrated without the large l-independent radiation terms.

Everything is in natural units (hbar = c = k_B = 1, frequencies in units
of the oscillator scale); pressures come out in those units to the fourth
power.  Negative values mean attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, DomainError, SingularityError
from .material import (EpsilonTable, Material, _coth, _fourier_s,
                       bath_dissipation_fourier, permittivity,
                       permittivity_fourier, qbm_green)
from .em_green import (_s_eff, fresnel, green_gap_from_plate, ic_z_block,
                       plate_eps, qz)

# Overall orientation and scale of the collapsed (omega, Q) measure.  The
# stress contraction is sign-ambiguous on paper; the convention is pinned
# once, here, by two independent oracles that must (and do) agree: the
# detached-plates thermal baseline of two identical plates integrates to the
# blackbody pressure + pi^2 T^4 / 45 per cavity, and the equal-temperature
# distance-dependent pressure reproduces the (attractive) imaginary-axis sum.
PRESSURE_SIGN = 1.0

_MEASURE = 1.0 / (4.0 * math.pi ** 2)

_PLATES = ("L", "R")
_POLS = ("TE", "TM")
_SECTORS = ("propagating", "evanescent")

#: Fixed ordering of the pressure breakdown channels (CSV column order).
BREAKDOWN_KEYS = tuple((p, m, s) for p in _PLATES for m in _POLS for s in _SECTORS)


# ---------------------------------------------------------------------------
# stress contraction of two Green blocks
# ---------------------------------------------------------------------------


def _source_factor(t1, t2):
    """Pairwise source-side z' integral of two terms.

    Terms with src_exp = 0 are already source-integrated and contribute 1;
    plate-referenced exponential pairs integrate over their half-space to
    1/(qn(s1) + qn(s2)), converging toward the respective infinity.
    """
    e = np.asarray(t1.src_exp, dtype=complex) + np.asarray(t2.src_exp, dtype=complex)
    if np.all(e == 0):
        return 1.0
    if t1.z_ref != t2.z_ref:
        raise DomainError("paired source terms must share the reference height")
    if t1.plate == "L":
        if np.any(e.real <= 0):
            raise DomainError("left-plate source integral diverges: Re(qn1+qn2) <= 0")
        return 1.0 / e
    if t1.plate == "R":
        if np.any(e.real >= 0):
            raise DomainError("right-plate source integral diverges: Re(qn1+qn2) <= 0")
        return -1.0 / e
    raise DomainError("gap terms with pending source exponents cannot be contracted")


def theta_contract(block1, block2, s1, s2, source_weight=None, split=False):
    """Coincidence-limit zz-stress contraction of two Green blocks.

    Applies, term pair by term pair, the operator

        Lambda^{ij} (s1 s2 delta^{is} delta^{jm}
                     + eps^{irs} eps^{jlm} d_{r,1} d_{l,2})

    with Lambda = diag(1,1,-1): transverse derivatives act as
    +-i*Q*qhat on each block's parallel phase, z-derivatives as the stored
    exponents, and the two field points coincide at the geometry's
    ``z_field``.  The source indices are contracted with ``source_weight``
    (identity when None) and pending plate-source exponentials are
    integrated in closed form.

    Parameters
    ----------
    block1, block2 : GreenBlock
        Must share Q, qhat and field geometry; block2 is conventionally the
        opposite-phase partner.
    s1, s2 : complex
        Laplace points of the two factors (the electric part carries s1*s2).
    source_weight : (3, 3) array, optional
        Metric for the source-index contraction (e.g. a transverse
        projector); defaults to the identity.
    split : bool
        When true return ``(electric, magnetic)`` instead of their sum.

    Returns
    -------
    complex or ndarray (and a pair of those when ``split``)
    """
    for b in (block1, block2):
        if b.has_delta:
            raise DomainError(
                "blocks carrying a symbolic delta term cannot be contracted at "
                "coincidence; use the source-integrated form instead")
    if not np.array_equal(np.asarray(block1.Q), np.asarray(block2.Q)):
        raise DomainError("contracted blocks must share the transverse wavenumber Q")
    if not np.allclose(block1.qhat, block2.qhat):
        raise DomainError("contracted blocks must share the transverse direction")
    g1, g2 = block1.geom, block2.geom
    if g1.gap != g2.gap or g1.z_field != g2.z_field:
        raise DomainError("contracted blocks must share the field geometry")

    Q = np.asarray(block1.Q, dtype=float)
    z = g1.z_field
    s1 = complex(s1)
    s2 = complex(s2)
    s1s2 = s1 * s2

    def _term_data(block):
        """Per-term field/curl components and z-shifted scalar, hoisted."""
        phase = 1j * block.phase_sign
        hx, hy = float(block.qhat[0]), float(block.qhat[1])
        rows = []
        for t in block.terms:
            if t.step:
                raise DomainError(
                    "step-gated bulk terms are not defined at coincidence")
            f = np.asarray(t.field_vec)
            fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
            kx = (phase * hx) * Q
            ky = (phase * hy) * Q
            ez = np.asarray(t.exp_z, dtype=complex)
            cx = ky * fz - ez * fy
            cy = ez * fx - kx * fz
            cz = kx * fy - ky * fx
            scal = t.scalar if z == 0.0 else t.scalar * np.exp(ez * z)
            rows.append((t, fx, fy, fz, cx, cy, cz, scal))
        return rows

    d1 = _term_data(block1)
    d2 = _term_data(block2)
    elec = np.zeros(Q.shape, dtype=complex)
    mag = np.zeros(Q.shape, dtype=complex)
    for t1, f1x, f1y, f1z, c1x, c1y, c1z, sc1 in d1:
        u1 = np.asarray(t1.src_vec)
        for t2, f2x, f2y, f2z, c2x, c2y, c2z, sc2 in d2:
            u2 = np.asarray(t2.src_vec)
            if source_weight is None:
                usrc = (u1[..., 0] * u2[..., 0] + u1[..., 1] * u2[..., 1]
                        + u1[..., 2] * u2[..., 2])
            else:
                usrc = np.einsum("...i,ij,...j->...", u1,
                                 np.asarray(source_weight), u2)
            amp = sc1 * sc2 * _source_factor(t1, t2) * usrc
            elec += amp * (s1s2 * (f1x * f2x + f1y * f2y - f1z * f2z))
            mag += amp * (c1x * c2x + c1y * c2y - c1z * c2z)
    if Q.ndim == 0:
        elec, mag = complex(elec), complex(mag)
    if split:
        return elec, mag
    return elec + mag


def transverse_projector(k):
    """Projector onto directions transverse to the 3-vector k.

    Idempotent with trace 2; raises on the zero vector.
    """
    k = np.asarray(k, dtype=float)
    wk2 = float(k @ k)
    if wk2 == 0.0:
        raise DomainError("transverse projector undefined for the zero wavevector")
    return np.eye(3) - np.outer(k, k) / wk2


# ---------------------------------------------------------------------------
# bath emission integrand
# ---------------------------------------------------------------------------


def _emission_weight(side, omega, use_fdr=True, thermal_only=False):
    """Per-plate emission weight omega^2 * occupation * Im eps(omega).

    The default path reads the dissipation off the retarded permittivity
    and weights it with coth(beta omega/2); the ``use_fdr=False`` path
    rebuilds the same number from the bath noise kernel and the oscillator
    response (only available for Material plates).  ``thermal_only``
    replaces coth by coth - 1 (pure occupation part, vanishing at T = 0).
    """
    w = float(omega)
    if w == 0.0:
        return 0.0
    beta = side.beta_bath
    if isinstance(side, EpsilonTable):
        if not use_fdr:
            raise DomainError("tabulated plates only support the permittivity path")
        im_eps = complex(side.eps_fourier(w)).imag
    else:
        if not use_fdr:
            if side.lambda0 == 0.0:
                return 0.0
            imd = float(np.imag(bath_dissipation_fourier(side.bath, w)))
            occ = _coth(0.5 * beta * w) if math.isfinite(beta) else 1.0
            if thermal_only:
                occ -= 1.0
            sround = _fourier_s(side, w)
            gg = float(np.real(qbm_green(side, sround) * qbm_green(side, np.conj(sround))))
            return 2.0 * side.lambda0 ** 2 * w * w * occ * imd * gg
        im_eps = float(np.imag(permittivity_fourier(side, w)))
    if im_eps == 0.0:
        return 0.0
    occ = _coth(0.5 * beta * w) if math.isfinite(beta) else 1.0
    if thermal_only:
        occ -= 1.0
    return w * w * occ * im_eps


def _bath_channels(geom, omega, Q, kernel="full", use_fdr=True, thermal_only=False):
    """Per-channel bath integrand at one frequency and a batch of Q.

    Returns a dict over BREAKDOWN_KEYS of real arrays shaped like Q.  The
    values include the full measure (the Q of Q dQ and ``_MEASURE``), so the
    pressure is the plain (omega, Q) double integral of their sum over
    channels.

    Each channel is the closed-form zz stress of the field that plate a
    emits into the gap in one polarization, reflected by the partner plate
    b (Antezza et al., PRA 77, 022901 (2008)).  At s = -i omega, with
    q = qz(1, s, Q), qn = qz(eps_a, s, Q) and D = 1 - r_a r_b exp(-2 q l),

        propagating:  G * 2|q|^2 (1 + |r_b|^2) / |D|^2
        evanescent:   G * (-4|q|^2) Re(r_b exp(-2 q l)) / |D|^2
        G = PRESSURE_SIGN * _MEASURE * w_a(omega) * Q |u|^2 / (8 Re(qn) |qn|^2)

    where w_a is the emission weight, |u_TE|^2 = |t_TE,a|^2 and
    |u_TM|^2 = 4|qn|^2 (Q^2 + |qn|^2) / (|eps_a q + qn|^2 |s_eff|^2) are the
    squared plate-source vectors and 1/(2 Re qn) is their depth integral.
    The symbolic contraction of :func:`theta_contract` over
    :func:`.em_green.green_gap_from_plate` blocks gives the same numbers
    term by term; the tests use it as the oracle.

    kernel = "full" | "baseline" | "difference".  The baseline replaces
    1/|D|^2 by its round-trip phase average 1/(1 - |r_a r_b|^2), the
    detached-plates (l -> infinity) limit, and lives purely in the
    propagating sector (evanescent emission does not survive that limit);
    "difference" is full minus baseline.
    """
    if kernel not in ("full", "baseline", "difference"):
        raise DomainError(f"unknown kernel {kernel!r}")
    Q = np.asarray(Q, dtype=float)
    out = {k: np.zeros(Q.shape) for k in BREAKDOWN_KEYS}
    w0 = float(omega)
    if w0 == 0.0:
        return out
    s = -1j * w0
    prop = Q < w0
    q = np.asarray(qz(1.0, s, Q))
    q2 = np.abs(q) ** 2
    trip = np.exp(-2.0 * q * geom.gap)
    coeffs = {p: fresnel(geom.side(p), s, Q) for p in _PLATES}
    s_eff2 = abs(_s_eff(s)) ** 2

    for a, b in (("L", "R"), ("R", "L")):
        side = geom.side(a)
        weight = _emission_weight(side, w0, use_fdr=use_fdr, thermal_only=thermal_only)
        if weight == 0.0:
            continue
        eps = plate_eps(side, s)
        qn = np.asarray(qz(eps, s, Q))
        qn2 = np.abs(qn) ** 2
        pref = PRESSURE_SIGN * _MEASURE * weight * Q * q2 / (8.0 * qn.real * qn2)
        src = {"TE": np.abs(coeffs[a][2]) ** 2,
               "TM": 4.0 * qn2 * (Q * Q + qn2) / (np.abs(eps * q + qn) ** 2 * s_eff2)}
        for i, pol in enumerate(_POLS):
            ra, rb = coeffs[a][i], coeffs[b][i]
            g = pref * src[pol]
            cavity = 1.0 / np.abs(1.0 - ra * rb * trip) ** 2
            prop_cavity = cavity
            if kernel != "full":
                lock = 1.0 - np.abs(ra * rb) ** 2
                if np.any(prop & (np.abs(lock) < 1e-13)):
                    raise SingularityError("detached-plates cavity weight hits a trapped "
                                           "lossless mode", point=s)
                locked = 1.0 / np.where(prop, lock, 1.0)
                prop_cavity = locked if kernel == "baseline" else cavity - locked
            out[(a, pol, "propagating")] = np.where(
                prop, 2.0 * g * (1.0 + np.abs(rb) ** 2) * prop_cavity, 0.0)
            if kernel != "baseline":
                out[(a, pol, "evanescent")] = np.where(
                    prop, 0.0, -4.0 * g * (rb * trip).real * cavity)
    return out


def bath_integrand(geom, omega, Q, use_fdr=True, kernel="full"):
    """Steady bath-pressure integrand at one (omega, Q) point (or Q batch).

    The sum over plates, polarizations and sectors of the channel map; real
    by construction.  ``use_fdr=False`` switches every Material plate to the
    noise-kernel evaluation path (a cross-check; identical by the
    fluctuation-dissipation identity).
    """
    ch = _bath_channels(geom, omega, Q, kernel=kernel, use_fdr=use_fdr)
    total = sum(ch.values())
    if np.ndim(Q) == 0:
        return float(total)
    return total


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod machinery
# ---------------------------------------------------------------------------

_GK_X = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


def _eval_panels(f, lo, hi):
    """Evaluate a channel-valued integrand on a batch of panels.

    f maps a flat node array to a dict of equal-shape arrays; keys starting
    with "_" ride along (integrated) but do not drive the error estimate.
    Returns (per-panel channel integrals, per-panel error estimates).

    The error estimate is the QUADPACK rescaling of |K15 - G7|: a panel
    whose nodes show large variation about the mean (resasc) is never
    trusted just because the two rules happen to agree, which is what a
    narrow resonance straddled by a single panel produces.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = (mid[:, None] + half[:, None] * _GK_X[None, :]).ravel()
    vals = f(xs)
    ints = {}
    total = 0.0
    for key, v in vals.items():
        v = np.asarray(v).reshape(len(lo), 15)
        ints[key] = (v * _GK_WK).sum(axis=1) * half
        if not (isinstance(key, str) and key.startswith("_")):
            total = total + v
    k15 = (total * _GK_WK).sum(axis=1) * half
    g7 = (total * _GK_WG).sum(axis=1) * half
    raw = np.abs(k15 - g7)
    mean = k15 / (2.0 * half)
    resasc = (np.abs(total - mean[:, None]) * _GK_WK).sum(axis=1) * half
    resabs = (np.abs(total) * _GK_WK).sum(axis=1) * half
    safe = np.maximum(resasc, 1e-300)
    err = np.where((resasc > 0.0) & (raw > 0.0),
                   resasc * np.minimum(1.0, (200.0 * raw / safe) ** 1.5),
                   raw)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return ints, err


def _adaptive_gk(f, edges, rel_tol, abs_floor=0.0, max_panels=1024, label="integral"):
    """Globally adaptive vectorized Gauss-Kronrod over seeded panels.

    Splits the worst panels (in batches) until the summed K15-G7 error
    estimate of the main channels drops below
    rel_tol * max(|total|, abs_floor).  Raises ConvergenceError with the
    worst subinterval when the panel budget runs out.
    """
    edges = sorted({float(e) for e in edges})
    if len(edges) < 2:
        raise DomainError(f"{label}: need at least two panel edges")
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    ch, err = _eval_panels(f, lo, hi)
    while True:
        total = 0.0
        for key, v in ch.items():
            if not (isinstance(key, str) and key.startswith("_")):
                total = total + v.sum()
        scale = max(abs(total), abs_floor)
        bad = err.sum()
        if bad <= rel_tol * scale:
            break
        if len(lo) >= max_panels:
            i = int(np.argmax(err))
            raise ConvergenceError(
                f"{label} did not converge: {len(lo)} panels, residual {bad:.3e} "
                f"vs target {rel_tol * scale:.3e}; worst subinterval "
                f"[{lo[i]:.6g}, {hi[i]:.6g}] with error {err[i]:.3e}")
        # split every panel still carrying a meaningful share of the budget
        room = rel_tol * scale / (2.0 * len(lo))
        order = np.argsort(err)[::-1]
        pick = [i for i in order[:32] if err[i] > room]
        if not pick:
            pick = [int(order[0])]
        pick = np.array(pick, dtype=int)
        mids = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mids])
        new_hi = np.concatenate([mids, hi[pick]])
        nch, nerr = _eval_panels(f, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        err = np.concatenate([err[keep], nerr])
        ch = {k: np.concatenate([v[keep], nch[k]]) for k, v in ch.items()}
    totals = {k: complex(v.sum()) for k, v in ch.items()}
    return totals, float(err.sum())


# ---------------------------------------------------------------------------
# pressure quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureOptions:
    """Quadrature controls for the steady pressure.

    rel_tol bounds the total error estimate relative to the result;
    subtract_infinite_separation integrates the detached-plates difference
    kernel (the distance-dependent pressure); omega_max overrides the
    automatic frequency ceiling; thermal_only keeps only the thermal
    occupation part coth - 1 of each plate's emission (vanishing at T = 0).
    """

    rel_tol: float = 1e-4
    subtract_infinite_separation: bool = True
    omega_max: float = None
    thermal_only: bool = False

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.omega_max is not None and not self.omega_max > 0:
            raise DomainError(f"omega_max must be > 0, got {self.omega_max}")


@dataclass
class PressureResult:
    """Value, error estimate and channel breakdown of one pressure run.

    value is the sum of the eight breakdown entries (plate x polarization
    x sector); err combines the outer and accumulated inner quadrature
    estimates; omega_max_used records the resolved frequency ceiling so a
    later baseline subtraction can reuse it.
    """

    value: float
    err: float
    breakdown: dict
    baseline_subtracted: bool
    omega_max_used: float = 0.0

    def csv_row(self, gap, t_left, t_right):
        """Flat CSV row: l, T_L, T_R, value, err, 8 channels, flag."""
        cells = [gap, t_left, t_right, self.value, self.err]
        cells += [self.breakdown[k] for k in BREAKDOWN_KEYS]
        cells.append(int(self.baseline_subtracted))
        return cells


def _auto_omega_max(geom):
    """Frequency ceiling from the material, thermal and cavity scales.

    The ceiling only has to clear the dissipation hump and leave the
    oscillatory tail in its asymptotic decay; the endpoint-averaged tail
    treatment in the frequency integral removes the truncation residue.
    """
    cands = [18.0, 4.0 / geom.gap]
    cap = math.inf
    for side in (geom.left, geom.right):
        if isinstance(side, EpsilonTable):
            if not side.is_dispersionless:
                cap = min(cap, float(side.omega[-1]))
            continue
        cands.append(4.0 * side.omega0 + 6.0 * side.lambda0)
        if math.isfinite(side.beta_bath):
            cands.append(8.0 / side.beta_bath)
    return min(max(cands), cap)


def _inner_q_edges_prop(geom, omega):
    """theta-substitution edges for the propagating sector Q = omega sin(theta)."""
    marks = {0.0, math.pi / 2}
    # resolve the round-trip oscillation exp(2 i kappa l), kappa = omega cos(theta)
    n_osc = int(min(28, max(6, round(2.0 * omega * geom.gap / math.pi))))
    marks.update(math.pi / 2 * i / n_osc for i in range(1, n_osc))
    for side in (geom.left, geom.right):
        if isinstance(side, Material):
            for kappa in (side.lambda0, side.omega0):
                if 0.0 < kappa < omega:
                    marks.add(math.acos(kappa / omega))
    return sorted(marks)


def _inner_q_integral(geom, omega, kernel, use_fdr, thermal_only, rel_tol,
                      abs_floor):
    """Q-integral of the channel map at fixed omega.

    Propagating sector via Q = omega sin(theta) (removes the edge cusp),
    evanescent tail via the decay variable q = sqrt(Q^2 - omega^2) mapped
    to t in [0, 1) with scale max(omega, 1/(2 l)).
    """
    l = geom.gap
    totals = {k: 0.0 + 0.0j for k in BREAKDOWN_KEYS}
    err = 0.0

    if omega > 0.0:
        def f_prop(thetas):
            Qs = omega * np.sin(thetas)
            jac = omega * np.cos(thetas)
            ch = _bath_channels(geom, omega, Qs, kernel=kernel, use_fdr=use_fdr,
                                thermal_only=thermal_only)
            return {k: v * jac for k, v in ch.items()}

        got, e = _adaptive_gk(f_prop, _inner_q_edges_prop(geom, omega),
                              rel_tol, abs_floor=abs_floor, max_panels=512,
                              label=f"propagating Q integral at omega={omega:.4g}")
        for k in BREAKDOWN_KEYS:
            totals[k] += got[k]
        err += e

    if kernel != "baseline":
        scale = max(omega, 0.5 / l)
        q_cap = 320.0 / l
        t_cap = q_cap / (scale + q_cap)
        marks = {0.0, t_cap}
        for q in (0.25 / l, 0.5 / l, 1.0 / l, 2.0 / l, 4.0 / l, omega, 2 * omega):
            if 0.0 < q < q_cap:
                marks.add(q / (scale + q))

        def f_evan(ts):
            qs = scale * ts / (1.0 - ts)
            Qs = np.hypot(omega, qs)
            jac = (qs / np.maximum(Qs, 1e-300)) * scale / (1.0 - ts) ** 2
            ch = _bath_channels(geom, omega, Qs, kernel=kernel, use_fdr=use_fdr,
                                thermal_only=thermal_only)
            return {k: v * jac for k, v in ch.items()}

        got, e = _adaptive_gk(f_evan, sorted(marks), rel_tol,
                              abs_floor=abs_floor, max_panels=512,
                              label=f"evanescent Q integral at omega={omega:.4g}")
        for k in BREAKDOWN_KEYS:
            totals[k] += got[k]
        err += e
    return totals, err


def _surface_band_marks(side, omega_max):
    """Edges bracketing the Re eps = -1 band of one plate.

    The evanescent TM channel resonates where the permittivity crosses -1
    (gap-split surface modes); the resulting spike in the frequency
    integrand is narrower than the generic panel seeding and must carry
    its own edges, otherwise a single Gauss-Kronrod panel can straddle it
    with a deceptively small error estimate.
    """
    marks = []
    if isinstance(side, Material):
        if side.lambda0 <= 0.0:
            return marks
        base = math.hypot(side.omega0, side.lambda0 / math.sqrt(2.0))
        width = max(side.bath.gamma, 1e-3)
        offsets = (-4.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
        marks = [base + c * width for c in offsets]
    elif isinstance(side, EpsilonTable) and not side.is_dispersionless:
        re_p1 = side.eps.real + 1.0
        for i in np.nonzero(np.diff(np.sign(re_p1)))[0]:
            a, b = float(side.omega[i]), float(side.omega[i + 1])
            marks += [a, 0.5 * (a + b), b]
    return [m for m in marks if 0.0 < m < omega_max]


def _omega_edges(geom, omega_max):
    marks = {0.0, omega_max}
    for side in (geom.left, geom.right):
        marks.update(_surface_band_marks(side, omega_max))
        if isinstance(side, Material):
            for m in (0.25 * side.omega0, 0.5 * side.omega0, side.omega0,
                      1.5 * side.omega0, 2.0 * side.omega0, 3.0 * side.omega0,
                      side.omega0 + side.lambda0):
                if 0.0 < m < omega_max:
                    marks.add(m)
            if math.isfinite(side.beta_bath):
                t = 1.0 / side.beta_bath
                for m in (0.5 * t, t, 3.0 * t, 8.0 * t):
                    if 0.0 < m < omega_max:
                        marks.add(m)
    # seed the cavity oscillation scale pi/(2l) up to a cap; adaptivity
    # refines past it
    step = math.pi / (2.0 * geom.gap)
    k = 1
    while k * step < omega_max and k <= 48:
        marks.add(k * step)
        k += 1
    return sorted(marks)


def _steady(geom, opts, kernel):
    if not (geom.left.has_loss or geom.right.has_loss):
        raise DomainError("steady pressure needs at least one dissipative plate "
                          "(Im eps > 0 somewhere)")
    omega_max = opts.omega_max if opts.omega_max is not None else _auto_omega_max(geom)
    inner_tol = opts.rel_tol / 4.0
    state = {"scale": 0.0}

    def f_out(ws):
        out = {k: np.zeros(ws.shape, dtype=complex) for k in BREAKDOWN_KEYS}
        out["_inner"] = np.zeros(ws.shape, dtype=complex)
        for i, w in enumerate(np.asarray(ws, dtype=float)):
            floor = 1e-3 * inner_tol * state["scale"]
            ch, e = _inner_q_integral(geom, float(w), kernel, True,
                                      opts.thermal_only, inner_tol, floor)
            mag = abs(sum(ch.values()))
            state["scale"] = max(state["scale"], mag)
            for k in BREAKDOWN_KEYS:
                out[k][i] = ch[k]
            out["_inner"][i] = e
        return out

    totals, outer_err = _adaptive_gk(
        f_out, _omega_edges(geom, omega_max), opts.rel_tol / 2.0,
        abs_floor=1e-14 / geom.gap ** 4, max_panels=1024,
        label="frequency integral")

    table_cap = math.inf
    for side in (geom.left, geom.right):
        if isinstance(side, EpsilonTable) and not side.is_dispersionless:
            table_cap = min(table_cap, float(side.omega[-1]))
    half = math.pi / (2.0 * geom.gap)
    if kernel == "difference" and omega_max + 2.0 * half <= table_cap:
        # Past the material scales the subtracted integrand is dominated by
        # a decaying cavity round-trip oscillation cos(2 omega l + phi):
        # truncating at omega_max leaves a conditionally convergent tail of
        # size ~amplitude/(2l).  Averaging the partial integral over the
        # next two half-period endpoints (Euler weights 3/4 and 1/4 on the
        # half-period slices) cancels that tail through its first two
        # orders.
        slices = []
        for j in (0, 1):
            sl, e = _adaptive_gk(
                f_out, [omega_max + j * half, omega_max + (j + 1) * half],
                opts.rel_tol / 2.0, abs_floor=1e-14 / geom.gap ** 4,
                max_panels=64, label="frequency tail slice")
            outer_err += e
            slices.append(sl)
        for k in list(totals):
            totals[k] = totals[k] + 0.75 * slices[0][k] + 0.25 * slices[1][k]
        resid = sum(slices[0][k] + slices[1][k] for k in BREAKDOWN_KEYS)
        outer_err += 0.5 * abs(resid)

    inner_err = abs(totals.pop("_inner"))
    raw = sum(totals.values())
    value = float(raw.real)
    err = outer_err + inner_err
    scale = max(abs(value), 1e-14 / geom.gap ** 4)
    if abs(raw.imag) > 1e-8 * scale:
        raise ConvergenceError(
            f"pressure reality check failed: Im = {raw.imag:.3e} vs value {value:.3e}")
    breakdown = {k: float(v.real) for k, v in totals.items()}
    value = math.fsum(breakdown.values())
    return PressureResult(value=value, err=float(err), breakdown=breakdown,
                          baseline_subtracted=(kernel == "difference"),
                          omega_max_used=float(omega_max))


def steady_pressure(geom, opts=None):
    """Steady-state pressure carried by the plate baths.

    Integrates the bath emission channels over (omega, Q) with nested
    adaptive Gauss-Kronrod panels.  With
    ``opts.subtract_infinite_separation`` (default) the detached-plates
    baseline is subtracted inside the integrand, yielding the
    distance-dependent pressure (negative = attraction); otherwise the raw
    channel integral up to omega_max is returned, whose l-independent part
    retains the physical ultraviolet sensitivity of the total radiation
    pressure on each interface.
    """
    opts = opts or PressureOptions()
    kernel = "difference" if opts.subtract_infinite_separation else "full"
    return _steady(geom, opts, kernel)


def regularize(raw, geom, opts=None):
    """Subtract the detached-plates baseline from a raw pressure result.

    Idempotent: an already-subtracted result is returned unchanged.  The
    baseline is integrated with the same frequency ceiling the raw run
    resolved, so raw = regularized + baseline holds to quadrature accuracy
    *on the raw scale* -- the raw value is dominated by the l-independent
    radiation background, so the cancellation leaves the small
    distance-dependent remainder with an absolute error of order
    rel_tol * |raw|.  For precision work integrate the subtracted kernel
    directly (``subtract_infinite_separation=True``, the default), which
    avoids the cancellation entirely.
    """
    if raw.baseline_subtracted:
        return replace(raw)
    opts = opts or PressureOptions()
    if raw.omega_max_used and opts.omega_max is None:
        opts = replace(opts, omega_max=raw.omega_max_used)
    base = _steady(geom, opts, "baseline")
    breakdown = {k: raw.breakdown[k] - base.breakdown[k] for k in BREAKDOWN_KEYS}
    return PressureResult(value=math.fsum(breakdown.values()),
                          err=raw.err + base.err,
                          breakdown=breakdown,
                          baseline_subtracted=True,
                          omega_max_used=raw.omega_max_used)


# ---------------------------------------------------------------------------
# equilibrium oracle (imaginary-axis sum)
# ---------------------------------------------------------------------------


def _eps_imag_axis(side, xi):
    """Permittivity on the positive real Laplace axis (real there)."""
    if isinstance(side, (int, float, complex)):
        return complex(side).real
    if isinstance(side, EpsilonTable):
        return float(np.real(side.eps_laplace(xi)))
    if xi == 0.0:
        return 1.0 + side.lambda0 ** 2 / side.omega0 ** 2
    return float(np.real(permittivity(side, complex(xi))))


def _matsubara_inner(geom, xi):
    """kappa-integral of the round-trip sum at one imaginary frequency."""
    l = geom.gap
    e1 = _eps_imag_axis(geom.left, xi)
    e2 = _eps_imag_axis(geom.right, xi)

    def f(kappa):
        k1 = math.sqrt(kappa * kappa + (e1 - 1.0) * xi * xi)
        k2 = math.sqrt(kappa * kappa + (e2 - 1.0) * xi * xi)
        rte = ((kappa - k1) / (kappa + k1)) * ((kappa - k2) / (kappa + k2))
        rtm = ((e1 * kappa - k1) / (e1 * kappa + k1)) * ((e2 * kappa - k2) / (e2 * kappa + k2))
        out = 0.0
        for rho in (rte, rtm):
            x = rho * math.exp(-2.0 * kappa * l)
            out += x / (1.0 - x)
        return kappa * kappa * out

    val, _ = integrate.quad(f, xi, math.inf, limit=200)
    return val


def _polylog3(x):
    """Li_3 on [0, 1) by plain series (geometric tail)."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"Li3 series needs 0 <= x < 1, got {x}")
    if x == 0.0:
        return 0.0
    n = max(64, int(60.0 / max(1e-12, -math.log(x))) + 1)
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum(x ** k / k ** 3))


def equilibrium_matsubara(geom, T, opts=None):
    """Equilibrium pressure oracle: imaginary-frequency round-trip sum.

    P(l, T) = -(T/pi) * sum'_j integral_{xi_j}^inf dkappa kappa^2
              sum_mu rho_mu e^{-2 kappa l} / (1 - rho_mu e^{-2 kappa l}),

    xi_j = 2 pi j T, primed sum halving j = 0 (where only the TM round
    trip survives, summed in closed form); T = 0 falls back to the
    continuous integral.  Negative (attractive) for identical passive
    plates.
    """
    if T < 0:
        raise DomainError(f"temperature must be >= 0, got {T}")
    rel = opts.rel_tol if opts is not None else 1e-9
    l = geom.gap
    if T == 0.0:
        val, _ = integrate.quad(lambda xi: _matsubara_inner(geom, xi), 0.0, math.inf,
                                limit=200)
        return -val / (2.0 * math.pi ** 2)
    e10 = _eps_imag_axis(geom.left, 0.0)
    e20 = _eps_imag_axis(geom.right, 0.0)
    rho0 = ((e10 - 1.0) / (e10 + 1.0)) * ((e20 - 1.0) / (e20 + 1.0))
    acc = 0.5 * _polylog3(rho0) / (4.0 * l ** 3)
    quiet = 0
    j = 1
    while True:
        term = _matsubara_inner(geom, 2.0 * math.pi * j * T)
        acc += term
        if abs(term) <= rel * abs(acc):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
        j += 1
        if j > 200000:
            raise ConvergenceError("imaginary-frequency sum did not settle")
    return -(T / math.pi) * acc


# ---------------------------------------------------------------------------
# transient integrand builders (analytic-structure study)
# ---------------------------------------------------------------------------


def assemble_dof_integrand(geom, Q, s1, s2, parts=False):
    """Two-Laplace integrand of the plate-oscillator transient pressure.

    Product of the oscillator bracket

        (s1^2 G(s1) - 1)(s2^2 G(s2) - 1) + omega0^2 s1 s2 G(s1) G(s2)

    with the plate-source stress contraction, summed over plates, with the
    per-plate prefactor -(1/8 pi) lambda0^2 m/(2 omega0) coth(beta_dof
    omega0/2).  The transverse measure d^2Q/(2 pi)^2, the two Bromwich
    measures and the time factor e^{(s1+s2)(t - t_i)} stay external: this
    object is what the pole-order classifiers probe.

    With ``parts`` also returns the dict keyed
    (plate, pol, "product"|"cross", "electric"|"magnetic").
    """
    s1 = complex(s1)
    s2 = complex(s2)
    total = 0.0 + 0.0j
    pieces = {}
    for plate in _PLATES:
        side = geom.side(plate)
        if not isinstance(side, Material):
            raise DomainError("oscillator integrands need Material plates")
        if side.lambda0 == 0.0:
            continue
        g1 = qbm_green(side, s1)
        g2 = qbm_green(side, s2)
        brackets = {
            "product": (s1 * s1 * g1 - 1.0) * (s2 * s2 * g2 - 1.0),
            "cross": side.omega0 ** 2 * s1 * s2 * g1 * g2,
        }
        pref = (-1.0 / (8.0 * math.pi)) * side.lambda0 ** 2 * side.mass \
            / (2.0 * side.omega0) * _coth(0.5 * side.beta_dof * side.omega0)
        b1 = green_gap_from_plate(geom, plate, s1, Q, phase_sign=+1)
        b2 = green_gap_from_plate(geom, plate, s2, Q, phase_sign=-1)
        for pol in _POLS:
            elec, mag = theta_contract(b1.filtered(pol), b2.filtered(pol), s1, s2,
                                       split=True)
            for bname, bval in brackets.items():
                for tname, tval in (("electric", elec), ("magnetic", mag)):
                    v = pref * bval * tval
                    pieces[(plate, pol, bname, tname)] = v
                    total = total + v
    if parts:
        return total, pieces
    return total


def assemble_ic_integrand(geom, k, s1, s2, beta_em=math.inf, parts=False):
    """Two-Laplace integrand of the initial-field transient pressure.

    For one photon wavevector k = (kx, ky, kz) (rotated so the transverse
    part lies along x; the plates are isotropic) this evaluates

        -(1/8 pi) / (2 w_k (2 pi)^3) * coth(beta_em w_k / 2) * (s1 s2 + w_k^2)
          * Theta[ ... transverse-projected pair of plane-wave source
                   integrals ... ]

    leaving d^3k, the Bromwich measures and the time factor external.
    ``beta_em`` is the initial field temperature (inf = vacuum).  With
    ``parts`` also returns the dict keyed (pol, "electric"|"magnetic").
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError("k must be a 3-vector")
    wk = float(np.linalg.norm(k))
    if wk == 0.0:
        raise DomainError("the zero wavevector carries no initial mode")
    s1 = complex(s1)
    s2 = complex(s2)
    Q = math.hypot(k[0], k[1])
    kz = float(k[2])
    k_eff = np.array([Q, 0.0, kz])
    proj = transverse_projector(k_eff)
    occ = _coth(0.5 * beta_em * wk) if math.isfinite(beta_em) else 1.0
    pref = (-1.0 / (8.0 * math.pi)) * occ * (s1 * s2 + wk * wk) \
        / (2.0 * wk * (2.0 * math.pi) ** 3)
    b1 = ic_z_block(geom, s1, Q, kz, phase_sign=+1)
    b2 = ic_z_block(geom, s2, Q, kz, phase_sign=-1)
    total = 0.0 + 0.0j
    pieces = {}
    for pol in _POLS:
        elec, mag = theta_contract(b1.filtered(pol), b2.filtered(pol), s1, s2,
                                   source_weight=proj, split=True)
        for tname, tval in (("electric", elec), ("magnetic", mag)):
            v = pref * tval
            pieces[(pol, tname)] = v
            total = total + v
    if parts:
        return total, pieces
    return total
