"""Steady-state Casimir pressure between dissipative half-spaces.

The long-time pressure is carried entirely by the plate baths: each plate
emits into the gap with weight omega^2 * coth(beta omega/2) * Im eps(omega)
(equivalently, pre-identity, via its bath noise kernel), and the zz stress
of the emitted field is the closed-form non-equilibrium Lifshitz integrand
of the two plates' Fresnel coefficients.  The product is the
distance-dependent pressure: the integrand is the channel map minus its
detached-plates (l -> infinity) baseline, so the large l-independent
radiation terms, whose integral grows without bound with the frequency
ceiling, never enter.  The (omega, Q) integral is done with a vectorized
adaptive Gauss-Kronrod rule, split into propagating (Q < omega) and
evanescent (Q > omega) sectors.  The module also holds the equilibrium
oracle, the imaginary-frequency sum.

This module builds no symbolic Green block: the blocks of
:mod:`.em_green` and their stress contraction
(:func:`.spectral.theta_contract`) serve the transient study in
:mod:`.spectral`, and in the tests the oracle of the closed form.

The inner Q integrals of the frequency nodes of one outer round run in
lockstep, up to ``_OMEGA_GROUP`` frequencies at a time: both sectors of
every frequency are independent segments of one adaptive rule, and each
round evaluates all panels being split with one integrand call per chunk
of ``_PANEL_CHUNK`` panels, so memory stays bounded however many panels
a round holds.  Each segment keeps its own error test, panel budget and
ConvergenceError; its absolute floor is ``_INNER_FLOOR * rel_tol`` times
the largest inner integral among the frequencies already finished and the
running estimates of its own lockstep call.

Everything is in natural units (hbar = c = k_B = 1, frequencies in units
of the oscillator scale); pressures come out in those units to the fourth
power.  Negative values mean attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, DomainError, SingularityError
from .material import (EpsilonTable, Material, _coth, _fourier_s,
                       bath_dissipation_fourier, permittivity,
                       permittivity_fourier, qbm_green)
from .em_green import _fresnel_coeffs, _s_eff, plate_eps, qz

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
# bath emission integrand
# ---------------------------------------------------------------------------


def _emission_weight(side, omega, use_fdr=True, thermal_only=False):
    """Per-plate emission weight omega^2 * occupation * Im eps(omega).

    The default path reads the dissipation off the retarded permittivity
    and weights it with coth(beta omega/2); the ``use_fdr=False`` path
    rebuilds the same number from the bath noise kernel and the oscillator
    response (only available for Material plates).  ``thermal_only``
    replaces coth by coth - 1 (pure occupation part, vanishing at T = 0).
    Elementwise for an array of frequencies (a float for a scalar one);
    omega = 0 carries no emission.
    """
    if isinstance(side, EpsilonTable) and not use_fdr:
        raise DomainError("tabulated plates only support the permittivity path")
    w = np.asarray(omega, dtype=float)
    out = np.zeros(w.shape)
    live = w != 0.0
    if live.any():
        w = w[live]
        beta = side.beta_bath
        occ = _coth(0.5 * beta * w) if math.isfinite(beta) else np.ones(w.shape)
        if thermal_only:
            occ = occ - 1.0
        if use_fdr:
            out[live] = w * w * occ * np.imag(permittivity_fourier(side, w))
        elif side.lambda0 != 0.0:
            imd = np.imag(bath_dissipation_fourier(side.bath, w))
            sround = _fourier_s(side, w)
            gg = np.real(qbm_green(side, sround) * qbm_green(side, np.conj(sround)))
            out[live] = 2.0 * side.lambda0 ** 2 * w * w * occ * imd * gg
    return float(out) if out.ndim == 0 else out


def _bath_channels(geom, omega, Q, kernel="full", use_fdr=True, thermal_only=False):
    """Per-channel bath integrand on a batch of (omega, Q) points.

    omega is one frequency or an array of them broadcast against Q (the
    inner Q integrals of many frequencies run through one call).  Returns
    a dict over BREAKDOWN_KEYS of real arrays of the broadcast shape.  The
    values include the full measure (the Q of Q dQ and ``_MEASURE``), so
    the pressure is the plain (omega, Q) double integral of their sum over
    channels.  Factors of omega alone (each plate's permittivity and
    emission weight, |s_eff|^2) are evaluated once per distinct frequency
    of the call and gathered per point; points at omega = 0 carry no
    emission and read 0.

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
    On the light line Q = omega, q = 0 and r_a = r_b = -1, so |q|^2 and D
    vanish together; there D ~ 2q (l + 1/n_a + 1/n_b) with n = qn (TE) or
    qn/eps (TM), and the evanescent channel takes its limit
    G / |l + 1/n_a + 1/n_b|^2 instead of 0 * inf.
    The symbolic contraction of :func:`.spectral.theta_contract` over
    :func:`.em_green.green_gap_from_plate` blocks gives the same numbers
    term by term; the tests use it as the oracle.

    kernel = "full" | "baseline" | "difference".  The baseline replaces
    1/|D|^2 by its round-trip phase average 1/(1 - |r_a r_b|^2), the
    detached-plates (l -> infinity) limit, and lives purely in the
    propagating sector (evanescent emission does not survive that limit);
    "difference" is full minus baseline and is what `steady_pressure`
    integrates.  The "full" map is finite point by point, but with the
    zero-point emission included its integral grows as omega_max^4.
    """
    if kernel not in ("full", "baseline", "difference"):
        raise DomainError(f"unknown kernel {kernel!r}")
    w, Q = np.broadcast_arrays(np.asarray(omega, dtype=float),
                               np.asarray(Q, dtype=float))
    out = {k: np.zeros(Q.shape) for k in BREAKDOWN_KEYS}
    live = w != 0.0
    if not live.any():
        return out
    w, Q = w[live], Q[live]
    w_u, at = np.unique(w, return_inverse=True)     # distinct frequencies
    s_u = -1j * w_u
    s = s_u[at]
    prop = Q < w
    q = qz(1.0, s, Q)
    q2 = np.abs(q) ** 2
    light = q == 0.0    # Q = omega: |q|^2 and D vanish together
    on_light = bool(light.any())
    trip = np.exp(-2.0 * q * geom.gap)
    media = {}      # plate -> (eps, qn), eps evaluated once per frequency
    coeffs = {}
    for p in _PLATES:
        eps = np.asarray(plate_eps(geom.side(p), s_u))[at]
        qn = qz(eps, s, Q)
        media[p] = (eps, qn)
        coeffs[p] = _fresnel_coeffs(eps, q, qn, s)
    s_eff2 = (np.abs(_s_eff(s_u)) ** 2)[at]

    for a, b in (("L", "R"), ("R", "L")):
        weight = _emission_weight(geom.side(a), w_u, use_fdr=use_fdr,
                                  thermal_only=thermal_only)[at]
        emit = weight != 0.0    # pref = 0 there, also where Re qn = 0
        if not emit.any():
            continue
        eps, qn = media[a]
        qn2 = np.abs(qn) ** 2
        pref = PRESSURE_SIGN * _MEASURE * weight * Q \
            / np.where(emit, 8.0 * qn.real * qn2, 1.0)
        src = {"TE": np.abs(coeffs[a][2]) ** 2,
               "TM": 4.0 * qn2 * (Q * Q + qn2) / (np.abs(eps * q + qn) ** 2 * s_eff2)}
        for i, pol in enumerate(_POLS):
            ra, rb = coeffs[a][i], coeffs[b][i]
            g = pref * src[pol] * q2
            d2 = np.abs(1.0 - ra * rb * trip) ** 2
            cavity = 1.0 / (np.where(light, 1.0, d2) if on_light else d2)
            prop_cavity = cavity
            if kernel != "full":
                lock = 1.0 - np.abs(ra * rb) ** 2
                trapped = prop & emit & (np.abs(lock) < 1e-13)
                if np.any(trapped):
                    raise SingularityError("detached-plates cavity weight hits a trapped "
                                           "lossless mode", point=s[trapped][0])
                locked = 1.0 / np.where(prop, lock, 1.0)
                prop_cavity = locked if kernel == "baseline" else cavity - locked
            out[(a, pol, "propagating")][live] = np.where(
                prop, 2.0 * g * (1.0 + np.abs(rb) ** 2) * prop_cavity, 0.0)
            if kernel != "baseline":
                evan = np.where(prop, 0.0, -4.0 * g * (rb * trip).real * cavity)
                if on_light:
                    eps_b, qn_b = media[b]
                    n_a, n_b = (qn, qn_b) if pol == "TE" else (qn / eps, qn_b / eps_b)
                    lim = pref * src[pol] / np.abs(geom.gap + 1.0 / n_a + 1.0 / n_b) ** 2
                    evan = np.where(light, lim, evan)
                out[(a, pol, "evanescent")][live] = evan
    return out


def bath_integrand(geom, omega, Q, use_fdr=True, kernel="full"):
    """Steady bath-pressure integrand at one (omega, Q) point (or a batch).

    The sum over plates, polarizations and sectors of the channel map; real
    by construction.  ``use_fdr=False`` switches every Material plate to the
    noise-kernel evaluation path (a cross-check; identical by the
    fluctuation-dissipation identity).
    """
    ch = _bath_channels(geom, omega, Q, kernel=kernel, use_fdr=use_fdr)
    total = sum(ch.values())
    return float(total) if total.ndim == 0 else total


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


#: Panels per integrand call in `_eval_panels` (15 nodes each).
_PANEL_CHUNK = 256

#: Most frequencies whose inner Q integrals run in one lockstep call.
_OMEGA_GROUP = 60


def _eval_panels(f, lo, hi, seg):
    """Evaluate a channel-valued integrand on a batch of panels.

    f maps (flat node array, segment index of each node) to a dict of
    equal-shape arrays; keys starting with "_" ride along (integrated) but
    do not drive the error estimate.  The panels go to f in chunks of
    ``_PANEL_CHUNK``, each reduced to its per-panel integrals and errors
    before the next, so memory does not grow with the batch.  Returns
    (per-panel channel integrals, per-panel error estimates).

    The error estimate is the QUADPACK rescaling of |K15 - G7|: a panel
    whose nodes show large variation about the mean (resasc) is never
    trusted just because the two rules happen to agree, which is what a
    narrow resonance straddled by a single panel produces.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    ints = {}
    err = np.empty(n)
    for c in range(0, n, _PANEL_CHUNK):
        part = slice(c, min(c + _PANEL_CHUNK, n))
        m = part.stop - part.start
        mid = 0.5 * (lo[part] + hi[part])
        half = 0.5 * (hi[part] - lo[part])
        xs = (mid[:, None] + half[:, None] * _GK_X[None, :]).ravel()
        vals = f(xs, np.repeat(seg[part], 15))
        total = 0.0
        for key, v in vals.items():
            v = np.asarray(v).reshape(m, 15)
            if key not in ints:
                ints[key] = np.empty(n)
            ints[key][part] = (v * _GK_WK).sum(axis=1) * half
            if not (isinstance(key, str) and key.startswith("_")):
                total = total + v
        k15 = (total * _GK_WK).sum(axis=1) * half
        g7 = (total * _GK_WG).sum(axis=1) * half
        raw = np.abs(k15 - g7)
        mean = k15 / (2.0 * half)
        resasc = (np.abs(total - mean[:, None]) * _GK_WK).sum(axis=1) * half
        resabs = (np.abs(total) * _GK_WK).sum(axis=1) * half
        safe = np.maximum(resasc, 1e-300)
        e = np.where((resasc > 0.0) & (raw > 0.0),
                     resasc * np.minimum(1.0, (200.0 * raw / safe) ** 1.5),
                     raw)
        err[part] = np.maximum(e, 50.0 * np.finfo(float).eps * resabs)
    return ints, err


def _adaptive_gk(f, segments, rel_tol, abs_floor=0.0, max_panels=1024, *, labels):
    """Globally adaptive vectorized Gauss-Kronrod over independent segments.

    Each segment is one integral, given by its seed panel edges and named
    by its entry in ``labels``; f(x, seg) evaluates the integrand at nodes
    x of segments seg.  The segments run in lockstep: every round
    evaluates the panels being split in all segments with one
    `_eval_panels` call (which feeds f fixed-size chunks, so memory stays
    bounded), but each segment follows the QUADPACK K15/G7 rule
    (Piessens et al., 1983) exactly as if it ran alone:

    * it has converged, for good, once its summed error estimate is at most
      rel_tol * max(|I_j|, floor), I_j its summed main channels;
    * otherwise it splits its worst 32 panels whose error exceeds
      room = rel_tol * max(|I_j|, floor) / (2 * its panel count), or its
      worst panel when none does;
    * it raises ConvergenceError, naming its label and worst subinterval,
      when it reaches ``max_panels`` panels unconverged.

    ``abs_floor`` is a number or a callable mapping the current per-segment
    totals I to the floor (the inner Q integrals use the latter, see
    `_inner_q_integral`).  A single integral, such as the outer frequency
    integral or a tail slice, is the one-segment case.
    Returns ({channel: per-segment totals}, per-segment error estimates).
    """
    nseg = len(segments)
    lo, hi, seg = [], [], []
    for j, edges in enumerate(segments):
        edges = sorted({float(e) for e in edges})
        if len(edges) < 2:
            raise DomainError(f"{labels[j]}: need at least two panel edges")
        lo += edges[:-1]
        hi += edges[1:]
        seg += [j] * (len(edges) - 1)
    lo, hi, seg = np.array(lo), np.array(hi), np.array(seg, dtype=np.intp)
    ch, err = _eval_panels(f, lo, hi, seg)
    done = np.zeros(nseg, dtype=bool)
    while True:
        total = 0.0
        for key, v in ch.items():
            if not (isinstance(key, str) and key.startswith("_")):
                total = total + v
        sums = np.bincount(seg, weights=total, minlength=nseg)
        bad = np.bincount(seg, weights=err, minlength=nseg)
        floor = abs_floor(sums) if callable(abs_floor) else abs_floor
        target = rel_tol * np.maximum(np.abs(sums), floor)
        done |= bad <= target
        if done.all():
            break
        count = np.bincount(seg, minlength=nseg)
        stuck = ~done & (count >= max_panels)
        if stuck.any():
            j = int(np.argmax(stuck))
            mine = np.flatnonzero(seg == j)
            i = mine[np.argmax(err[mine])]
            raise ConvergenceError(
                f"{labels[j]} did not converge: {count[j]} panels, residual "
                f"{bad[j]:.3e} vs target {target[j]:.3e}; worst subinterval "
                f"[{lo[i]:.6g}, {hi[i]:.6g}] with error {err[i]:.3e}")
        # per open segment, split every panel still carrying a meaningful
        # share of its budget: rank its panels by error, worst first
        room = target / (2.0 * count)
        open_ = np.flatnonzero(~done[seg])
        order = open_[np.lexsort((-err[open_], seg[open_]))]
        owner = seg[order]
        rank = np.arange(len(order)) - np.searchsorted(owner, owner)
        pick = (rank < 32) & (err[order] > room[owner])
        lone = np.ones(nseg, dtype=bool)
        lone[owner[pick]] = False
        pick |= (rank == 0) & lone[owner]
        pick = order[pick]
        mids = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mids])
        new_hi = np.concatenate([mids, hi[pick]])
        new_seg = np.concatenate([seg[pick], seg[pick]])
        nch, nerr = _eval_panels(f, new_lo, new_hi, new_seg)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        seg = np.concatenate([seg[keep], new_seg])
        err = np.concatenate([err[keep], nerr])
        ch = {k: np.concatenate([v[keep], nch[k]]) for k, v in ch.items()}
    totals = {k: np.bincount(seg, weights=v, minlength=nseg) for k, v in ch.items()}
    return totals, bad


# ---------------------------------------------------------------------------
# pressure quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureOptions:
    """Quadrature controls for the steady pressure.

    rel_tol bounds the total error estimate relative to the result;
    omega_max overrides the automatic frequency ceiling; thermal_only keeps
    only the thermal occupation part coth - 1 of each plate's emission
    (vanishing at T = 0).
    """

    rel_tol: float = 1e-4
    omega_max: float = None
    thermal_only: bool = False

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.omega_max is not None and not 0 < self.omega_max < math.inf:
            raise DomainError(f"omega_max must be finite and > 0, got {self.omega_max}")


@dataclass
class PressureResult:
    """Value, error estimate and channel breakdown of one pressure run.

    value is the sum of the eight breakdown entries (plate x polarization
    x sector); err combines the outer and accumulated inner quadrature
    estimates; omega_max_used records the resolved frequency ceiling.
    """

    value: float
    err: float
    breakdown: dict
    omega_max_used: float = 0.0

    def csv_row(self, gap, t_left, t_right):
        """Flat CSV row: l, T_L, T_R, value, err, 8 channels, and a constant
        1 in the ``baseline_subtracted`` column kept for existing readers."""
        cells = [gap, t_left, t_right, self.value, self.err]
        cells += [self.breakdown[k] for k in BREAKDOWN_KEYS]
        cells.append(1)
        return cells


def _table_cap(geom):
    """Highest frequency that every dispersive tabulated plate covers
    (inf when no plate is one)."""
    cap = math.inf
    for side in (geom.left, geom.right):
        if isinstance(side, EpsilonTable) and not side.is_dispersionless:
            cap = min(cap, float(side.omega[-1]))
    return cap


def _auto_omega_max(geom):
    """Frequency ceiling from the material, thermal and cavity scales.

    The ceiling only has to clear the dissipation hump and leave the
    oscillatory tail in its asymptotic decay; the endpoint-averaged tail
    treatment in the frequency integral removes the truncation residue.
    It never exceeds the tabulated plates' range (`_table_cap`).
    """
    cands = [18.0, 4.0 / geom.gap]
    for side in (geom.left, geom.right):
        if isinstance(side, Material):
            cands.append(4.0 * side.omega0 + 6.0 * side.lambda0)
            if math.isfinite(side.beta_bath):
                cands.append(8.0 / side.beta_bath)
    return min(max(cands), _table_cap(geom))


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


def _inner_q_edges_evan(geom, omega):
    """Seed edges of the evanescent sector in its decay variable t in [0, 1)."""
    l = geom.gap
    scale = max(omega, 0.5 / l)
    q_cap = 320.0 / l
    marks = {0.0, q_cap / (scale + q_cap)}
    for q in (0.25 / l, 0.5 / l, 1.0 / l, 2.0 / l, 4.0 / l, omega, 2 * omega):
        if 0.0 < q < q_cap:
            marks.add(q / (scale + q))
    return sorted(marks)


#: The inner integrals' absolute floor is this fraction of rel_tol times
#: the largest inner integral seen so far.
_INNER_FLOOR = 1e-3


def _inner_q_integral(geom, omegas, kernel, thermal_only, rel_tol, floor_scale):
    """Q-integrals of the channel map at an array of frequencies, in lockstep.

    Propagating sector via Q = omega sin(theta) (removes the edge cusp),
    evanescent tail via the decay variable q = sqrt(Q^2 - omega^2) mapped
    to t in [0, 1) with scale max(omega, 1/(2 l)).  Both sectors of every
    frequency are independent segments of one `_adaptive_gk` call, so each
    round evaluates every panel still being split with one integrand call
    per chunk, while each sector keeps its own error test, panel budget and
    ConvergenceError.  The absolute floor of every segment is
    ``_INNER_FLOOR * rel_tol`` times the largest |inner integral| among
    ``floor_scale`` (that of the frequencies already finished) and the
    running estimates of this call, so it does not depend on the order in
    which the frequencies of one call are listed.

    Returns ({channel: per-frequency integrals}, per-frequency errors).
    """
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    todo = [("propagating", i, w) for i, w in enumerate(omegas.tolist()) if w > 0.0]
    if kernel != "baseline":
        todo += [("evanescent", i, w) for i, w in enumerate(omegas.tolist())]
    if not todo:
        return {k: np.zeros(n) for k in BREAKDOWN_KEYS}, np.zeros(n)
    segments = [(_inner_q_edges_prop if sector == "propagating" else _inner_q_edges_evan)
                (geom, w) for sector, _, w in todo]
    labels = [f"{sector} Q integral at omega={w:.4g}" for sector, _, w in todo]
    owner = np.array([i for _, i, _ in todo], dtype=np.intp)
    evan = np.array([sector == "evanescent" for sector, _, _ in todo])
    w_seg = omegas[owner]
    decay = np.maximum(w_seg, 0.5 / geom.gap)

    def f(x, seg):
        w = w_seg[seg]
        ev = evan[seg]
        Qs = w * np.sin(x)
        jac = w * np.cos(x)
        if ev.any():
            sc, ts = decay[seg[ev]], x[ev]
            qs = sc * ts / (1.0 - ts)
            Qe = np.hypot(w[ev], qs)
            Qs[ev] = Qe
            jac[ev] = (qs / np.maximum(Qe, 1e-300)) * sc / (1.0 - ts) ** 2
        ch = _bath_channels(geom, w, Qs, kernel=kernel, thermal_only=thermal_only)
        return {k: v * jac for k, v in ch.items()}

    def floor(totals):
        running = np.abs(np.bincount(owner, weights=totals, minlength=n)).max()
        return _INNER_FLOOR * rel_tol * max(floor_scale, running)

    got, err = _adaptive_gk(f, segments, rel_tol, abs_floor=floor,
                            max_panels=512, labels=labels)
    totals = {k: np.bincount(owner, weights=got[k], minlength=n)
              for k in BREAKDOWN_KEYS}
    return totals, np.bincount(owner, weights=err, minlength=n)


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
    """Outer frequency integral of the inner Q integrals, plus the tail.

    The outer rule runs at rel_tol/2 (a one-segment `_adaptive_gk`); its
    integrand hands the frequency nodes of each round, ``_OMEGA_GROUP`` at a
    time, to `_inner_q_integral`, which runs their Q integrals in lockstep
    at rel_tol/4 with the floor described there, fed by the largest inner
    integral finished so far.  The inner error estimates ride along as the
    "_inner" channel and enter ``err``.  kernel is "difference" (the
    product, see `steady_pressure`) or "baseline" (the detached-plates
    pressure itself, which the blackbody calibration integrates).
    """
    if not (geom.left.has_loss or geom.right.has_loss):
        raise DomainError("steady pressure needs at least one dissipative plate "
                          "(Im eps > 0 somewhere)")
    omega_max = opts.omega_max if opts.omega_max is not None else _auto_omega_max(geom)
    inner_tol = opts.rel_tol / 4.0
    state = {"scale": 0.0}      # largest |inner integral| finished so far

    def f_out(ws, seg):
        out = {k: np.empty(ws.shape) for k in BREAKDOWN_KEYS}
        out["_inner"] = np.empty(ws.shape)
        for c in range(0, len(ws), _OMEGA_GROUP):
            group = slice(c, c + _OMEGA_GROUP)
            ch, e = _inner_q_integral(geom, ws[group], kernel, opts.thermal_only,
                                      inner_tol, state["scale"])
            mag = np.abs(sum(ch[k] for k in BREAKDOWN_KEYS))
            state["scale"] = max(state["scale"], float(mag.max()))
            for k in BREAKDOWN_KEYS:
                out[k][group] = ch[k]
            out["_inner"][group] = e
        return out

    floor = 1e-14 / geom.gap ** 4
    got, outer_err = _adaptive_gk(
        f_out, [_omega_edges(geom, omega_max)], opts.rel_tol / 2.0,
        abs_floor=floor, max_panels=1024, labels=["frequency integral"])
    totals = {k: float(v[0]) for k, v in got.items()}
    outer_err = float(outer_err[0])

    half = math.pi / (2.0 * geom.gap)
    if kernel == "difference" and omega_max + 2.0 * half <= _table_cap(geom):
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
                f_out, [[omega_max + j * half, omega_max + (j + 1) * half]],
                opts.rel_tol / 2.0, abs_floor=floor, max_panels=64,
                labels=["frequency tail slice"])
            outer_err += float(e[0])
            slices.append({k: float(v[0]) for k, v in sl.items()})
        for k in list(totals):
            totals[k] = totals[k] + 0.75 * slices[0][k] + 0.25 * slices[1][k]
        resid = sum(slices[0][k] + slices[1][k] for k in BREAKDOWN_KEYS)
        outer_err += 0.5 * abs(resid)

    err = outer_err + abs(totals.pop("_inner"))
    return PressureResult(value=math.fsum(totals.values()), err=float(err),
                          breakdown=totals, omega_max_used=float(omega_max))


def steady_pressure(geom, opts=None):
    """Distance-dependent steady-state pressure carried by the plate baths.

    Integrates the bath emission channels minus their detached-plates
    baseline over (omega, Q) with nested adaptive Gauss-Kronrod panels
    (negative = attraction).  The baseline, the l-independent radiation
    pressure on each interface, is subtracted inside the integrand: it
    carries no information about the gap, and with the zero-point emission
    included its integral grows as omega_max^4.
    """
    return _steady(geom, opts or PressureOptions(), "difference")


# ---------------------------------------------------------------------------
# equilibrium oracle (imaginary-axis sum)
# ---------------------------------------------------------------------------


def _eps_imag_axis(side, xi):
    """Permittivity on the positive real Laplace axis (real there)."""
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


#: Relative size of the last three Matsubara terms at which the sum stops.
_MATSUBARA_REL_TOL = 1e-9


def equilibrium_matsubara(geom, T):
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
        if abs(term) <= _MATSUBARA_REL_TOL * abs(acc):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
        j += 1
        if j > 200000:
            raise ConvergenceError("imaginary-frequency sum did not settle")
    return -(T / math.pi) * acc
