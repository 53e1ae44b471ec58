"""Steady-state Casimir pressure between dissipative half-spaces.

The long-time pressure is carried entirely by the plate baths: each plate
emits into the gap with weight omega^2 * coth(beta omega/2) * Im eps(omega)
(equivalently, pre-identity, via its bath noise kernel), and the zz stress
of the emitted field is the closed-form non-equilibrium Lifshitz integrand
of the two plates' Fresnel coefficients (Antezza et al., PRA 77, 022901
(2008)).  The product is the distance-dependent pressure, and the
integrand computes only that one map: the emission channels minus their
detached-plates (l -> infinity) baseline, so the large l-independent
radiation terms, whose integral grows without bound with the frequency
ceiling, never enter.  Each channel is a plate's weight times a kernel
of the two materials and the gap alone, so plates of one material at two
temperatures evaluate their optics and kernels once per point.

The (omega, Q) integral is nested adaptive Gauss-Kronrod, and two rules
serve the real axis and the tail alike.  The outer frequency rule
(`_frequency_rule`) hands all the nodes of each round to one call of the
lockstep Q driver (`_q_integrals`): the propagating (Q < Re omega) and
evanescent sectors of every frequency are independent segments of one
adaptive rule, each with its own error test, panel budget and
ConvergenceError, and each retires, its totals stored, in the round it
converges.  Each round evaluates all panels being split with one
integrand call per chunk of ``_PANEL_CHUNK`` panels, so memory stays
bounded; a chunk holds one propagating run of nodes then one evanescent
run, which the node and channel maps read as slices.  Up to the
real-axis ceiling omega_max the Q integrand is the eight channels
(`_inner_q_integral`; rows in BREAKDOWN_KEYS order), with the factors of
the frequency alone (permittivities and emission weights) evaluated once
per lockstep call.  Past it, where the emission is the
mean occupation times the Lifshitz function H (identical plates up to
their temperatures, or one bath temperature), the tail closes on the
line omega_max + i y (`_contour_tail`), its integrand read off the
optics record of :mod:`.em_green` continued off the axis; otherwise two
Euler-weighted real-axis slices close it.

The module also holds the equilibrium oracle, the imaginary-frequency sum;
it imports scipy.integrate on first use, so the steady path runs without
loading scipy, and the contour tail is never built from it.  It builds no
symbolic Green block: the blocks of :mod:`.em_green` and their stress
contraction (:func:`.spectral.theta_contract`) serve the transient study in
:mod:`.spectral`, and in the tests the oracle of the closed form.

Each `steady_pressure` call owns one `_Workspace` and hands it through
every lockstep call to the inner rules (`_adaptive_gk`, `_eval_panels`),
the node mapping and the channel map (`_bath_channels`,
`_sector_channels`, `.em_green._fresnel_coeffs`).  Every per-node array
of a chunk is written into one of its reused buffers with ``out=``
ufuncs, in the same operation order as fresh arrays, so a chunk
allocates nothing of its size and the heap is not trimmed and faulted
back in between chunks.  Rows taken from a workspace are valid until the
next call with the same workspace; a call made without one (as every
caller outside the quadrature does) makes a fresh one, so what it
returns is its caller's alone.  The outer rules take none, since their
nodes must outlive the inner rules' chunks; the contour integrand, about
a tenth of the points, allocates fresh arrays.

Everything is in natural units (hbar = c = k_B = 1, frequencies in units
of the oscillator scale); pressures come out in those units to the fourth
power.  Negative values mean attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .material import (EpsilonTable, _coth, _fourier_s, bath_dissipation_fourier,
                       permittivity, qbm_green)
from .em_green import _fresnel_coeffs, _optics, _s_eff, _same_material, plate_eps

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


def _frequency_factors(geom, w, use_fdr=True, thermal_only=False):
    """Factors of the channel map that depend on the frequency alone.

    w is an array of positive frequencies.  Returns a dict of arrays over
    w: the Laplace points s = -i w, w^2, |s_eff|^2 and, per plate in
    _PLATES order, the permittivity eps = eps(s), eps s^2 and the emission
    weight w^2 * occupation * Im eps; ``kernel_of`` names each plate's
    kernel, (0, 0) when the plates are one material (`_same_material`,
    whose permittivity is then evaluated once), else (0, 1).
    `_bath_channels` gathers them per point.

    The occupation is coth(beta w/2), or coth - 1 (the pure occupation
    part, vanishing at T = 0) under ``thermal_only``.  The weight reads
    Im eps off the permittivity above; ``use_fdr=False`` rebuilds it from
    the bath noise kernel and the oscillator response instead (the same
    number by the fluctuation-dissipation identity; Material plates only).
    """
    s = -1j * w
    w2 = w * w
    kernel_of = (0, 0) if _same_material(geom) else (0, 1)
    eps, weight = [], []
    for side, k in zip((geom.left, geom.right), kernel_of):
        e = eps[k] if k < len(eps) else np.asarray(plate_eps(side, s))
        beta = side.beta_bath
        occ = _coth(0.5 * beta * w) if math.isfinite(beta) else np.ones(w.shape)
        if thermal_only:
            occ = occ - 1.0
        if use_fdr:
            wt = w2 * occ * np.imag(e)
        elif isinstance(side, EpsilonTable):
            raise DomainError("tabulated plates only support the permittivity path")
        elif side.lambda0 != 0.0:
            imd = np.imag(bath_dissipation_fourier(side.bath, w))
            sround = _fourier_s(side, w)
            gg = np.real(qbm_green(side, sround) * qbm_green(side, np.conj(sround)))
            wt = 2.0 * side.lambda0 ** 2 * w * w * occ * imd * gg
        else:
            wt = np.zeros(w.shape)
        eps.append(e)
        weight.append(wt)
    return {"s": s, "w2": w2, "s_eff2": np.abs(_s_eff(s)) ** 2, "eps": tuple(eps),
            "es2": tuple(e * s * s for e in eps), "weight": tuple(weight),
            "kernel_of": kernel_of}


def _axis_qz(x, out):
    """`qz` at s = -i w, w > 0, from x = eps s^2 + Q^2, point by point,
    into ``out``: the principal root, and -i sqrt(-x) on the lossless
    branch x < 0."""
    np.sqrt(x, out=out)
    neg = (x.imag == 0.0) & (x.real < 0.0)
    if neg.any():
        out[neg] = -1j * np.sqrt(-x.real[neg])
    return out


class _Workspace:
    """Reused per-node buffers of the steady integrand (see the module
    docstring for who owns one).

    ``take(key, n, dtype)`` returns the first n elements of the 1-d buffer
    named ``key`` (one dtype per key), grown when a call needs more; the
    contents are whatever its last user left.  An array taken from a
    workspace is valid until the next take of the same key.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, key, n, dtype=float):
        buf = self._bufs.get(key)
        if buf is None or len(buf) < n:
            buf = self._bufs[key] = np.empty(n, dtype)
        return buf[:n]


def _bath_channels(geom, omega, Q, use_fdr=True, thermal_only=False, factors=None,
                   work=None):
    """Per-channel bath integrand on a batch of (omega, Q) points: the
    emission channel map minus its detached-plates baseline, the map that
    `steady_pressure` integrates.

    omega is one frequency or an array of them broadcast against Q (the
    inner Q integrals of many frequencies run through one call).  Returns
    a real array of shape (8,) + the broadcast shape, one row per channel
    in BREAKDOWN_KEYS order.  The values include the full measure (the Q
    of Q dQ and ``_MEASURE``), so the pressure is the plain (omega, Q)
    double integral of the sum of the rows.  Points at omega = 0 carry no
    emission and read 0; negative frequencies are refused.

    The factors of omega alone come from `_frequency_factors`.  ``factors``
    is the pair (its dict, the row of each point's frequency in it, shaped
    like the flattened points), as `_inner_q_integral` passes it once per
    call; it then rules over use_fdr and thermal_only.  Without it they
    are evaluated at the distinct nonzero frequencies of the call.  The
    propagating (Q < omega) and evanescent points are evaluated apart,
    each sector with its own closed form only (`_sector_channels`); a
    sector whose points form one contiguous run, as in the inner rules'
    chunks, is read and written as a slice, any other is gathered and
    scattered by index.  The test is per point, so a point of a
    propagating run that lands on the light line takes the evanescent
    form.

    ``work`` is the `_Workspace` of the steady pass that owns this call;
    every per-point array, the returned rows included, lives in its
    buffers, so the rows are valid until the next call with the same
    workspace.  Without one (`bath_integrand`, tests) the call makes a
    fresh workspace, and what it returns is its caller's alone.

    Each channel is plate a's emission weight w_a(omega) times a kernel
    K_a, the closed-form zz stress of the field that plate a emits into
    the gap in one polarization, reflected by the partner plate b
    (Antezza et al., PRA 77, 022901 (2008)).  At s = -i omega, with
    q = qz(1, s, Q), qn = qz(eps_a, s, Q) and D = 1 - r_L r_R exp(-2 q l),

        channel = w_a(omega) * K_a(omega, Q)
        propagating:  K_a = G * 2|q|^2 (1 + |r_b|^2) (1/|D|^2 - 1/(1 - |r_L|^2 |r_R|^2))
        evanescent:   K_a = G * (-4|q|^2) Re(r_b exp(-2 q l)) / |D|^2
        G_TE = C Q / (2 Re(qn) |q + qn|^2)
        G_TM = C Q (Q^2 + |qn|^2) / (2 Re(qn) |eps_a q + qn|^2 |s_eff|^2)

    where C = PRESSURE_SIGN * _MEASURE.  G is Q |u|^2 / (8 Re(qn) |qn|^2)
    with |qn|^2 cancelled: |u_TE|^2 = |t_TE,a|^2 = 4|qn|^2 / |q + qn|^2
    and |u_TM|^2 = 4|qn|^2 (Q^2 + |qn|^2) / (|eps_a q + qn|^2 |s_eff|^2)
    are the squared plate-source vectors and 1/(2 Re qn) is their depth
    integral.  The kernel depends on the two materials and the gap only,
    so plates of one material (`_same_material`, at any two temperatures)
    share it, and the cavity factor 1/|D|^2 serves both emitters.
    On the light line Q = omega, q = 0 and r_L = r_R = -1, so |q|^2 and D
    vanish together; there D ~ 2q (l + 1/n_a + 1/n_b) with n = qn (TE) or
    qn/eps (TM), and the evanescent kernel takes its limit
    G / |l + 1/n_a + 1/n_b|^2 instead of 0 * inf.
    The subtracted 1/(1 - |r_L|^2 |r_R|^2) is the round-trip phase average
    of 1/|D|^2, the detached-plates (l -> infinity) baseline; it lives in
    the propagating sector only (evanescent emission does not survive that
    limit), and a trapped lossless mode (|r_L r_R| = 1 where a plate
    emits) makes it singular: SingularityError.  Without the subtraction
    the map, zero-point emission included, would integrate to a value
    growing as omega_max^4.  The tests check the unsubtracted map and the
    baseline against the symbolic contraction of
    :func:`.spectral.theta_contract`, the phase average and the blackbody
    pressure.
    """
    w, Q = np.broadcast_arrays(np.asarray(omega, dtype=float),
                               np.asarray(Q, dtype=float))
    if np.any(w < 0.0):
        raise DomainError("the channel map needs frequencies omega >= 0")
    if work is None:
        work = _Workspace()
    n_rows, n = len(BREAKDOWN_KEYS), Q.size
    out = work.take("bath.rows", n_rows * n).reshape((n_rows,) + Q.shape)
    out.fill(0.0)
    w, Q, rows = w.ravel(), Q.ravel(), out.reshape(n_rows, -1)
    live = np.not_equal(w, 0.0, out=work.take("bath.live", n, bool))
    if not live.any():
        return out
    if factors is None:
        w_u, at = np.unique(w, return_inverse=True)
        zero = int(w_u[0] == 0.0)       # omega = 0 takes no row
        factors = (_frequency_factors(geom, w_u[zero:], use_fdr=use_fdr,
                                      thermal_only=thermal_only), at - zero)
    fac, at = factors
    prop = np.less(Q, w, out=work.take("bath.prop", n, bool))
    prop &= live
    evan = np.logical_not(prop, out=work.take("bath.evan", n, bool))
    evan &= live
    for sector, mask in enumerate((prop, evan)):
        sel = _run(mask)
        if sel is None:
            sel = np.flatnonzero(mask)
            at_s = at.take(sel, out=work.take("bath.at", sel.size, np.intp), mode="clip")
            Q_s = Q.take(sel, out=work.take("bath.Q", sel.size), mode="clip")
        else:
            at_s, Q_s = at[sel], Q[sel]
        if Q_s.size:
            rows[sector::2][:, sel] = _sector_channels(geom, fac, at_s, Q_s, sector == 0, work)
    return out


def _run(mask):
    """The True entries of a boolean array as a slice when they form one
    contiguous run (or there are none), else None."""
    k = int(np.count_nonzero(mask))
    start = int(np.argmax(mask)) if k else 0
    return slice(start, start + k) if mask[start:start + k].all() else None


def _sector_channels(geom, fac, at, Q, propagating, work):
    """The four channels of one sector (rows in plate x polarization order)
    at points that all lie in it, each point's frequency at row ``at`` of
    the `_frequency_factors` dict ``fac``; see `_bath_channels`.

    On the real axis the vacuum wavenumber is real arithmetic: q =
    -i sqrt(omega^2 - Q^2) with the round-trip factor exp(-2 q l) a pure
    phase in the propagating sector, q = sqrt(Q^2 - omega^2) in the
    evanescent one.  Both equal `qz` and `np.exp` bit for bit, and the
    real root k is |q| exactly, so the Fresnel step takes it as is.

    Each row is the emission weight times a kernel.  The Fresnel step and
    the kernels run once per plate material (``fac["kernel_of"]``), each
    polarization's cavity factor once for both emitters, and |r|^2 once
    per material and polarization.  The sector's constant (2 or -4) is
    folded into the prefactor G: a power of two, so every row keeps the
    bits of the formula as written.  A row is exactly 0 where its plate
    does not emit.

    Every per-point array, the returned rows included, is a row of a slab
    of the workspace ``work``; a row whose array is dead is lent to a
    later one where the comments say so.
    """
    n = len(Q)
    kernel_of = fac["kernel_of"]
    n_mat = kernel_of[1] + 1
    q, trip, s, eps, x, c = work.take("sector.complex", 6 * n, complex).reshape(6, n)
    qn = work.take("sector.qn", n_mat * n, complex).reshape(n_mat, n)
    Q2, k, q2, s_eff2, h, den, tmp, cavity, lock = work.take("sector.real", 9 * n).reshape(9, n)
    weight = work.take("sector.weight", 2 * n).reshape(2, n)
    base = work.take("sector.base", n_mat * 2 * n).reshape(n_mat, 2, n)    # G |q|^2 per pol
    r2 = work.take("sector.r2", n_mat * n).reshape(n_mat, n)
    light, trapped, emitting, *emit = work.take("sector.flags", 5 * n, bool).reshape(5, n)
    out = work.take("sector.rows", len(_PLATES) * len(_POLS) * n).reshape(
        len(_PLATES), len(_POLS), n)

    def gather(table, into):
        return table.take(at, out=into, mode="clip")

    np.multiply(Q, Q, out=Q2)
    gather(fac["w2"], k)
    if propagating:
        np.sqrt(np.subtract(k, Q2, out=k), out=k)
        np.multiply(-1j, k, out=q)
        phase, cos = tmp, cavity    # lent until the cavity step
        np.multiply(np.multiply(2.0, k, out=phase), geom.gap, out=phase)
        np.cos(phase, out=cos)
        np.add(cos, np.multiply(1j, np.sin(phase, out=phase), out=trip), out=trip)
    else:
        np.sqrt(np.subtract(Q2, k, out=k), out=k)
        np.add(k, 0j, out=q)
        np.multiply(np.multiply(-2.0, q, out=trip), geom.gap, out=trip)
        np.exp(trip, out=trip)      # a real exp is 1 ulp off
    np.multiply(k, k, out=q2)
    np.equal(k, 0.0, out=light)     # Q = omega: |q|^2 and D vanish together
    on_light = bool(light.any())
    gather(fac["s"], s)
    coeffs = []                     # per material: (r_TE, r_TM, |q + qn|, |eps q + qn|, |qn|)
    for m in range(n_mat):
        gather(fac["eps"][m], eps)
        _axis_qz(np.add(gather(fac["es2"][m], x), Q2, out=x), qn[m])
        coeffs.append(_fresnel_coeffs(eps, q, qn[m], s, work, m, abs_q=k))

    emits = []
    for a in range(len(_PLATES)):
        np.not_equal(gather(fac["weight"][a], weight[a]), 0.0, out=emit[a])
        emits.append(bool(emit[a].any()))
    if not any(emits):
        out.fill(0.0)
        return out.reshape(len(_PLATES) * len(_POLS), n)
    np.logical_or(emit[0], emit[1], out=emitting)
    # a kernel is needed where a plate of its material emits; G = 0 there
    # also where Re qn = 0 (no loss, no weight), so den is 1 elsewhere
    live = [emitting] if n_mat == 1 else emit
    needed = {kernel_of[a] for a in range(len(_PLATES)) if emits[a]}

    # G = C Q / (2 Re qn |q + qn|^2) (TE) and C Q (Q^2 + |qn|^2) /
    # (2 Re qn |eps q + qn|^2 |s_eff|^2) (TM), C the measure and the
    # sector's constant; the light-line limit reads G before |q|^2
    gather(fac["s_eff2"], s_eff2)
    np.multiply(PRESSURE_SIGN * _MEASURE * (2.0 if propagating else -4.0), Q, out=h)
    g_light = {}
    for m in needed:
        abs_te, abs_tm, abs_qn = coeffs[m][2:]
        g_te, g_tm = base[m]
        np.multiply(2.0, qn[m].real, out=den)
        if not live[m].all():
            np.copyto(den, 1.0, where=~live[m])
        np.divide(h, np.multiply(den, np.square(abs_te, out=g_te), out=g_te), out=g_te)
        np.multiply(h, np.add(Q2, np.square(abs_qn, out=g_tm), out=g_tm), out=g_tm)
        np.multiply(np.multiply(den, np.square(abs_tm, out=tmp), out=tmp), s_eff2, out=tmp)
        np.divide(g_tm, tmp, out=g_tm)
        if on_light and not propagating:
            g_light[m] = base[m][:, light] * -0.25      # exact: undoes the -4
        np.multiply(base[m], q2, out=base[m])

    for i, pol in enumerate(_POLS):
        r_mat = [coeffs[m][i] for m in range(n_mat)]
        r_l, r_r = r_mat[kernel_of[0]], r_mat[kernel_of[1]]
        np.multiply(np.multiply(r_l, r_r, out=c), trip, out=c)
        np.subtract(1.0, c, out=c)
        np.square(np.abs(c, out=cavity), out=cavity)
        if on_light:
            np.copyto(cavity, 1.0, where=light)
        np.divide(1.0, cavity, out=cavity)
        if propagating:
            for m in range(n_mat):
                np.square(np.abs(r_mat[m], out=r2[m]), out=r2[m])
            np.subtract(1.0, np.multiply(r2[kernel_of[0]], r2[kernel_of[1]], out=lock), out=lock)
            np.less(np.abs(lock, out=tmp), 1e-13, out=trapped)
            if np.logical_and(emitting, trapped, out=trapped).any():
                raise SingularityError("detached-plates cavity weight hits a "
                                       "trapped lossless mode", point=s[trapped][0])
            np.subtract(cavity, np.divide(1.0, lock, out=lock), out=cavity)
        for a, b in ((0, 1), (1, 0)):
            m = kernel_of[a]
            if m != a or m not in needed:
                continue            # plate L's kernel serves, or no plate emits with it
            row = out[a, i]
            if propagating:
                bounce = np.add(1.0, r2[kernel_of[b]], out=tmp)
                np.multiply(np.multiply(base[m][i], bounce, out=row), cavity, out=row)
                continue
            re_trip = np.multiply(r_mat[kernel_of[b]], trip, out=c).real
            np.multiply(np.multiply(base[m][i], re_trip, out=row), cavity, out=row)
            if on_light:
                qn_a, qn_b = qn[m][light], qn[kernel_of[b]][light]
                if pol == "TM":
                    qn_a = qn_a / fac["eps"][m][at[light]]
                    qn_b = qn_b / fac["eps"][kernel_of[b]][at[light]]
                row[light] = g_light[m][i] / np.abs(geom.gap + 1.0 / qn_a + 1.0 / qn_b) ** 2
        for a in reversed(range(len(_PLATES))):     # R first: it may read L's kernel
            row = out[a, i]
            if not emits[a]:
                row.fill(0.0)
                continue
            np.multiply(weight[a], out[0, i] if kernel_of[a] == 0 else row, out=row)
            if not emit[a].all():
                np.copyto(row, 0.0, where=~emit[a])
    return out.reshape(len(_PLATES) * len(_POLS), n)


def bath_integrand(geom, omega, Q, use_fdr=True):
    """Bath-pressure integrand summed at one (omega, Q) point (or a batch).

    The sum over plates, polarizations and sectors of the channel map of
    `_bath_channels`, baseline subtracted: the integrand of
    `steady_pressure`, real by construction.  ``use_fdr=False`` switches
    every Material plate to the noise-kernel evaluation path (a
    cross-check; identical by the fluctuation-dissipation identity).
    """
    total = _bath_channels(geom, omega, Q, use_fdr=use_fdr).sum(axis=0)
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


def _eval_panels(f, lo, hi, seg, work=None):
    """Evaluate a row-valued integrand on a batch of panels.

    f maps (flat node array, segment index of each node) to a pair
    (main, ride) of arrays with one row per integrated quantity and one
    column per node: the sum of the main rows drives the error estimate,
    the ride rows are only integrated.  The panels go to f in chunks of
    ``_PANEL_CHUNK``, each reduced to its per-panel integrals and errors
    before the next, so memory does not grow with the batch.  Returns
    ((main, ride) per-panel integrals, shaped (rows, panels), per-panel
    error estimates, per-panel rounding floors 50 eps resabs), in the
    order of the batch.

    The panels go to f in a stable order by segment, so a chunk holds
    its segments' nodes in segment order: the inner rules number the
    propagating sectors first (`_q_integrals`), so each of their chunks
    is one propagating run of nodes followed by one evanescent run.

    The per-node arrays of a chunk (the nodes handed to f, their summed
    main rows and its deviations) live in the `_Workspace` ``work``: the steady pass's, handed
    down by `_inner_q_integral` through `_adaptive_gk`, or a fresh one for
    this call.  f may return rows that live in the same workspace; they
    are consumed before the next chunk.

    The error estimate is the QUADPACK rescaling of |K15 - G7|: a panel
    whose nodes show large variation about the mean (resasc) is never
    trusted just because the two rules happen to agree, which is what a
    narrow resonance straddled by a single panel produces.

    Every weighted sum over a panel's 15 nodes is one `np.einsum`
    reduction, which sums each panel in the same order whatever else is
    in its chunk: a panel gets the same integral, error and rounding
    floor bit for bit alone or in a batch (a BLAS ``matmul`` does not).
    """
    if work is None:
        work = _Workspace()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    order = np.argsort(seg, kind="stable")
    ints = None
    err, rnd = np.empty(n), np.empty(n)
    for c in range(0, n, _PANEL_CHUNK):
        part = order[c:c + _PANEL_CHUNK]
        m = len(part)
        mid = 0.5 * (lo[part] + hi[part])
        half = 0.5 * (hi[part] - lo[part])
        xs = work.take("gk.x", m * 15).reshape(m, 15)
        np.add(mid[:, None], np.multiply(half[:, None], _GK_X, out=xs), out=xs)
        segs = work.take("gk.seg", m * 15, np.intp).reshape(m, 15)
        segs[...] = seg[part, None]
        rows = [np.reshape(v, (len(v), m, 15)) for v in f(xs.ravel(), segs.ravel())]
        if ints is None:
            ints = [np.empty((len(v), n)) for v in rows]
        for out, v in zip(ints, rows):
            out[:, part] = np.einsum("rmk,k->rm", v, _GK_WK) * half
        total = np.sum(rows[0], axis=0, out=work.take("gk.total", m * 15).reshape(m, 15))
        tmp = work.take("gk.tmp", m * 15).reshape(m, 15)
        k15 = np.einsum("mk,k->m", total, _GK_WK) * half
        g7 = np.einsum("mk,k->m", total, _GK_WG) * half
        raw = np.abs(k15 - g7)
        mean = k15 / (2.0 * half)
        dev = np.abs(np.subtract(total, mean[:, None], out=tmp), out=tmp)
        resasc = np.einsum("mk,k->m", dev, _GK_WK) * half
        resabs = np.einsum("mk,k->m", np.abs(total, out=tmp), _GK_WK) * half
        safe = np.maximum(resasc, 1e-300)
        # min(1, x)**1.5 == min(1, x**1.5), and the clamped ratio cannot
        # overflow when resasc is tiny
        e = np.where((resasc > 0.0) & (raw > 0.0),
                     resasc * (np.minimum(200.0 * raw, safe) / safe) ** 1.5,
                     raw)
        rnd[part] = 50.0 * np.finfo(float).eps * resabs
        err[part] = np.maximum(e, rnd[part])
    return ints, err, rnd


def _segment_sums(seg, rows, nseg):
    """np.bincount(seg, row, nseg) for every row of ``rows`` (an array or
    an iterable of rows), shaped (rows, nseg): each bin is summed in index
    order, so a segment's sums depend only on the order of its own
    panels."""
    return np.array([np.bincount(seg, weights=row, minlength=nseg)
                     for row in rows]).reshape(-1, nseg)


def _seed_panels(segments, labels):
    """The seed panels (lo, hi, seg) of `_adaptive_gk`'s segment rows, in
    row order and, within a row, in ascending order of the edges."""
    marks = np.sort(np.asarray(segments, dtype=float), axis=1)     # NaN sorts last
    new = ~np.isnan(marks)
    new[:, 1:] &= marks[:, 1:] != marks[:, :-1]
    few = np.flatnonzero(new.sum(axis=1) < 2)
    if few.size:
        raise DomainError(f"{labels(few[0])}: need at least two panel edges")
    owner, col = np.nonzero(new)
    edges = marks[owner, col]
    inner = owner[1:] == owner[:-1]     # consecutive edges of one segment
    return edges[:-1][inner], edges[1:][inner], owner[:-1][inner]


def _adaptive_gk(f, segments, rel_tol, abs_floor=0.0, max_panels=1024, *, labels,
                 work=None):
    """Globally adaptive vectorized Gauss-Kronrod over independent segments.

    Each segment is one integral, given by one row of seed panel edges in
    ``segments`` (a 2-d array; a row's edges may come in any order and
    repeat, and NaN pads a row shorter than the longest) and named by
    ``labels(j)``, j its row (called only to word an error); f(x, seg)
    evaluates the integrand at nodes x of segments seg and returns the
    pair (main, ride) described in `_eval_panels`.  The segments run in
    lockstep: every round evaluates the panels being split in all
    segments with one `_eval_panels` call (which feeds f fixed-size
    chunks, so memory stays bounded), but each segment follows the
    QUADPACK K15/G7 rule (Piessens et al., 1983) exactly as if it ran
    alone:

    * it has converged, for good, once its summed error estimate is at most
      rel_tol * max(|I_j|, floor), I_j its summed main rows, or at most
      twice its panels' summed rounding floors (QUADPACK's roundoff stop),
      and keeps that estimate as its error;
    * otherwise it splits its worst 32 panels whose error exceeds
      room = rel_tol * max(|I_j|, floor) / (2 * its panel count), or its
      worst panel when none does;
    * it raises ConvergenceError, naming its label and worst subinterval,
      when it reaches ``max_panels`` panels unconverged.

    A segment retires in the round it converges: its totals and error are
    stored, each summed over its panels in their array order, and its
    panels leave the arrays before the next evaluation.  The panels of
    the open segments keep their relative order (kept panels, then the
    left and the right halves of the split ones), so every sum, error and
    decision has the bits it would have if no segment retired.

    The ride rows never enter these decisions.  ``abs_floor`` is a number
    or a callable mapping the current per-segment totals I (those of
    retired segments included) to the floor (the inner Q integrals use
    the latter, see `_inner_q_integral`).  A single integral, such as the
    outer frequency integral or a tail slice, is the one-segment case.
    ``work`` is the `_Workspace` handed to every `_eval_panels` call (see
    there).  Returns ((main, ride) per-segment totals, shaped (rows,
    segments), per-segment error estimates).
    """
    lo, hi, seg = _seed_panels(segments, labels)
    nseg = len(segments)
    del segments                # frees a caller's temporary seed rows before round 0
    (main, ride), err, rnd = _eval_panels(f, lo, hi, seg, work=work)
    totals = [np.zeros((len(main), nseg)), np.zeros((len(ride), nseg))]
    sums, bad = np.zeros(nseg), np.zeros(nseg)
    done = np.zeros(nseg, dtype=bool)
    while True:
        open_sums = np.bincount(seg, weights=main.sum(axis=0), minlength=nseg)
        open_bad = np.bincount(seg, weights=err, minlength=nseg)
        sums = np.where(done, sums, open_sums)
        bad = np.where(done, bad, open_bad)
        floor = abs_floor(sums) if callable(abs_floor) else abs_floor
        target = rel_tol * np.maximum(np.abs(sums), floor)
        ends = ~done & ((bad <= target)
                        | (bad <= 2.0 * np.bincount(seg, weights=rnd, minlength=nseg)))
        if ends.any():
            gone = ends[seg]
            for total, rows in zip(totals, (main, ride)):
                total[:, ends] = _segment_sums(seg[gone], (r[gone] for r in rows), nseg)[:, ends]
            done |= ends
        if done.all():
            break
        count = np.bincount(seg, minlength=nseg)
        stuck = ~done & (count >= max_panels)
        if stuck.any():
            j = int(np.argmax(stuck))
            mine = np.flatnonzero(seg == j)
            i = mine[np.argmax(err[mine])]
            raise ConvergenceError(
                f"{labels(j)} did not converge: {count[j]} panels, residual "
                f"{bad[j]:.3e} vs target {target[j]:.3e}; worst subinterval "
                f"[{lo[i]:.6g}, {hi[i]:.6g}] with error {err[i]:.3e}")
        # per open segment, split every panel still carrying a meaningful
        # share of its budget: rank its panels by error, worst first
        keep = ~done[seg]
        open_ = np.flatnonzero(keep)
        order = open_[np.lexsort((-err[open_], seg[open_]))]
        owner = seg[order]
        rank = np.arange(len(order)) - np.searchsorted(owner, owner)
        pick = (rank < 32) & (err[order] > target[owner] / (2.0 * count[owner]))
        lone = np.ones(nseg, dtype=bool)
        lone[owner[pick]] = False
        pick |= (rank == 0) & lone[owner]
        pick = order[pick]
        mids = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mids])
        new_hi = np.concatenate([mids, hi[pick]])
        new_seg = np.concatenate([seg[pick], seg[pick]])
        keep[pick] = False      # the retired segments' panels and the split ones leave
        lo, hi, seg, err, rnd = lo[keep], hi[keep], seg[keep], err[keep], rnd[keep]
        main, ride = main[:, keep], ride[:, keep]
        (new_main, new_ride), nerr, nrnd = _eval_panels(f, new_lo, new_hi, new_seg, work=work)
        lo = np.concatenate([lo, new_lo])
        hi = np.concatenate([hi, new_hi])
        seg = np.concatenate([seg, new_seg])
        err = np.concatenate([err, nerr])
        rnd = np.concatenate([rnd, nrnd])
        main = np.concatenate([main, new_main], axis=1)
        ride = np.concatenate([ride, new_ride], axis=1)
    return tuple(totals), bad


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

    breakdown holds the eight real-axis channels (plate x polarization x
    sector) integrated over [0, omega_max_used], the resolved real-axis
    ceiling; tail is the part past it, and value = fsum(breakdown) + tail
    (to rounding).  The tail is the contour integral up omega_max_used +
    i y where the plates' emission continues off the real axis (see
    `steady_pressure`), else the Euler-weighted real-axis slices.

    err is the sum of the outer estimate on [0, omega_max_used],
    |integrated inner| (the inner Q errors integrated over omega with the
    channels' weights) and the tail's estimate: on the contour, its outer
    estimate plus its integrated inner errors; on the real axis, the
    estimates of the two slices plus 0.5 |resid|, resid the summed
    channels of both slices.
    """

    value: float
    err: float
    breakdown: dict
    omega_max_used: float = 0.0
    tail: float = 0.0

    def csv_row(self, gap, t_left, t_right):
        """Flat CSV row: l, T_L, T_R, value, err, 8 channels, and a constant
        1 in the ``baseline_subtracted`` column kept for existing readers."""
        cells = [gap, t_left, t_right, self.value, self.err]
        cells += [self.breakdown[k] for k in BREAKDOWN_KEYS]
        cells.append(1)
        return cells


def _auto_omega_max(geom):
    """Real-axis frequency ceiling from the material, thermal and gap scales.

    Where the tail closes on the contour (`_closes_on_contour`) any
    ceiling gives the same integral, so it is set by cost:
    max(2 (omega0 + lambda0), 4 T) over both plates keeps the resonance
    bands and the thermal hump on the real axis and starts the contour
    where its occupation varies by at most exp(-4) up the line.  The gap
    sets no term: a 4/l term cost 10-41% more real-axis points at l = 0.3
    and 0.5 and gained no accuracy (measured against the Matsubara sum).
    Elsewhere the Euler slices need the oscillatory cavity tail in its
    asymptotic decay: max(18, 4/l, 4 omega0 + 6 lambda0, 8 T).
    """
    if _closes_on_contour(geom):
        cands = []
        for side in (geom.left, geom.right):
            cands.append(2.0 * (side.omega0 + side.lambda0))
            if math.isfinite(side.beta_bath):
                cands.append(4.0 / side.beta_bath)
        return max(cands)
    cands = [18.0, 4.0 / geom.gap]
    for side in (geom.left, geom.right):
        cands.append(4.0 * side.omega0 + 6.0 * side.lambda0)
        if math.isfinite(side.beta_bath):
            cands.append(8.0 / side.beta_bath)
    return max(cands)


def _inner_q_seeds(geom, omegas):
    """Seed edges of the inner Q integrals of an array of frequencies.

    One row per segment, the propagating sector of every positive
    frequency first, then the evanescent sector of every frequency, as a
    NaN-padded 2-d array for `_adaptive_gk`.

    * propagating, in theta with Q = omega sin(theta): 0, pi/2, the
      round-trip oscillation exp(2 i kappa l), kappa = omega cos(theta), in
      round(2 omega l / pi) steps (at least 6, at most 28), and
      acos(kappa/omega) for each material kappa (lambda0, omega0) below
      omega;
    * evanescent, in the decay variable t in [0, 1) with q = scale t/(1 - t)
      and scale = max(omega, 1/(2 l)): the cap 320/l and the scales 1/(4 l)
      .. 4/l, omega and 2 omega below it.
    """
    l = geom.gap
    w_p = omegas[omegas > 0.0][:, None]
    n_osc = np.clip(np.rint(2.0 * w_p * l / math.pi), 6, 28)
    i = np.arange(1, 28)
    theta = np.where(i < n_osc, math.pi / 2 * i / n_osc, np.nan)
    kappa = np.array([kappa for side in (geom.left, geom.right)
                      for kappa in (side.lambda0, side.omega0)], dtype=float)
    below = (kappa > 0.0) & (kappa < w_p)
    acos = np.full(below.shape, np.nan)     # math.acos: the marks' floats as ever
    acos[below] = [math.acos(r) for r in (kappa / w_p)[below].tolist()]
    prop = np.hstack([np.tile([0.0, math.pi / 2], (len(w_p), 1)), theta, acos])

    scale = np.maximum(omegas, 0.5 / l)[:, None]
    q_cap = 320.0 / l
    qs = np.hstack([np.tile([0.25 / l, 0.5 / l, 1.0 / l, 2.0 / l, 4.0 / l], (len(omegas), 1)),
                    omegas[:, None], 2 * omegas[:, None]])
    evan = np.hstack([np.zeros_like(scale), q_cap / (scale + q_cap),
                      np.where((qs > 0.0) & (qs < q_cap), qs / (scale + qs), np.nan)])
    pad = prop.shape[1] - evan.shape[1]
    return np.vstack([prop, np.pad(evan, ((0, 0), (0, pad)), constant_values=np.nan)])


#: The inner integrals' absolute floor is this fraction of rel_tol times
#: the largest inner integral seen so far.
_INNER_FLOOR = 1e-3


def _q_nodes(x, seg, n_prop, w_seg, decay, work):
    """The inner rules' node mapping: nodes x of segments seg to Q.

    ``w_seg`` and ``decay`` are per segment: its (real) frequency omega
    and its decay scale.  Segments below ``n_prop`` are propagating, and
    their nodes must come first (`_eval_panels` orders each chunk so): x
    is theta with Q = omega sin(theta) there; the evanescent nodes after
    them are t in [0, 1) with sqrt(Q^2 - omega^2) = decay t/(1 - t).
    Returns the arrays (omega, Q, dQ/dx) over the nodes, rows of the
    `_Workspace` ``work`` valid until its next call.
    """
    m = x.size
    w, Qs, jac = work.take("node.real", 3 * m).reshape(3, m)
    w_seg.take(seg, out=w, mode="clip")
    lead = _run(np.less(seg, n_prop, out=work.take("node.lead", m, bool)))
    if lead is None or lead.start:
        raise ValueError("the propagating nodes must lead the chunk (see _eval_panels)")
    k = lead.stop
    if k:
        wp, tp, v = w[:k], x[:k], work.take("node.prop", k)
        np.multiply(wp, np.sin(tp, out=v), out=Qs[:k])
        np.multiply(wp, np.cos(tp, out=v), out=jac[:k])
    if k < m:
        sc, rest, qs, d = work.take("node.evan", 4 * (m - k)).reshape(4, m - k)
        ts, Qe = x[k:], Qs[k:]
        decay.take(seg[k:], out=sc, mode="clip")
        np.subtract(1.0, ts, out=rest)
        np.divide(np.multiply(sc, ts, out=qs), rest, out=qs)
        np.hypot(w[k:], qs, out=Qe)
        np.divide(qs, np.maximum(Qe, 1e-300, out=d), out=d)
        np.divide(np.multiply(d, sc, out=d), np.square(rest, out=rest), out=jac[k:])
    return w, Qs, jac


def _q_integrals(geom, omegas, rows, rel_tol, floor, label, work):
    """The lockstep Q driver: both sectors of every real frequency in
    ``omegas`` are independent segments of one `_adaptive_gk` call (seed
    edges `_inner_q_seeds`, nodes `_q_nodes`, at most 512 panels each), so
    each round evaluates every panel still being split with one integrand
    call per chunk, while each sector keeps its own error test, panel
    budget and ConvergenceError, named by ``label(i, sector)``.  The
    propagating segments come first, so each chunk (`_eval_panels`) is
    one propagating run of nodes followed by one evanescent run, and the
    node map and the channel map read each run as a slice.

    ``rows(w, Q, jac, at)`` gives the integrand rows at the nodes from
    their frequency w = omegas[at], Q and dQ/dx (arrays in ``work``, see
    `_q_nodes`); ``floor`` is the absolute floor, a number or a callable of the
    per-frequency running totals.  Returns (integrals shaped (rows,
    n_omega), per-frequency errors).
    """
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    pos = np.flatnonzero(omegas > 0.0)
    owner = np.concatenate([pos, np.arange(n)])
    evan = np.arange(len(owner)) >= len(pos)
    w_seg = omegas[owner]
    decay = np.maximum(w_seg, 0.5 / geom.gap)

    def f(x, seg):
        w, Q, jac = _q_nodes(x, seg, len(pos), w_seg, decay, work)
        at = owner.take(seg, out=work.take("node.at", x.size, np.intp), mode="clip")
        return rows(w, Q, jac, at), np.empty((0, x.size))

    def abs_floor(totals):
        return floor(np.bincount(owner, weights=totals, minlength=n))

    (got, _), err = _adaptive_gk(f, _inner_q_seeds(geom, omegas), rel_tol,
                                 abs_floor=abs_floor if callable(floor) else floor,
                                 max_panels=512, work=work,
                                 labels=lambda j: label(owner[j], _SECTORS[int(evan[j])]))
    return _segment_sums(owner, got, n), np.bincount(owner, weights=err, minlength=n)


def _inner_q_integral(geom, omegas, thermal_only, rel_tol, floor_scale, work=None):
    """Q-integrals of the difference channel map at an array of frequencies,
    in lockstep (`_q_integrals`): (channel integrals shaped (8, n_omega) in
    BREAKDOWN_KEYS order, per-frequency errors).

    The absolute floor of every segment is ``_INNER_FLOOR * rel_tol``
    times the largest |inner integral| among ``floor_scale`` (that of the
    frequencies already finished) and the running estimates of this call,
    so it does not depend on the order in which the frequencies of one
    call are listed.  The factors of omega alone (`_frequency_factors`)
    are evaluated once per call.  ``work`` is the `_Workspace` of the
    steady pass (a fresh one without it); the channel rows, Jacobian
    applied in place, live in it until its next chunk.
    """
    if work is None:
        work = _Workspace()
    omegas = np.asarray(omegas, dtype=float)
    live = omegas != 0.0
    factors = _frequency_factors(geom, omegas[live], thermal_only=thermal_only)
    row = np.cumsum(live) - 1       # each frequency's row of the factors

    def rows(w, Q, jac, at):
        fac_row = row.take(at, out=work.take("node.row", at.size, np.intp), mode="clip")
        ch = _bath_channels(geom, w, Q, factors=(factors, fac_row), work=work)
        ch *= jac
        return ch

    def floor(running):
        return _INNER_FLOOR * rel_tol * max(floor_scale, np.abs(running).max())

    return _q_integrals(geom, omegas, rows, rel_tol, floor,
                        lambda i, sector: f"{sector} Q integral at omega={omegas[i]:.4g}", work)


def _frequency_rule(nodes, edges, rel_tol, floor, max_panels, label):
    """The outer frequency rule: one `_adaptive_gk` segment seeded with
    ``edges``, whose nodes go to ``nodes`` as `_eval_panels` chunks them.
    A round of this rule (its seeds, or at most 64 split halves) fits one
    chunk, so each round makes one ``nodes`` call: one lockstep Q call.

    nodes(x) returns (rows shaped (n_rows, len(x)), the inner errors at
    x); the rows drive the error test, the inner errors ride along.  The
    rule takes no workspace (see the module docstring).  Returns (the
    n_rows integrals then the integrated inner error, as one array; the
    outer error estimate).
    """
    def f(x, seg):
        main, inner = nodes(x)
        return main, inner[None]

    (main, inner), e = _adaptive_gk(f, [edges], rel_tol, abs_floor=floor,
                                    max_panels=max_panels, labels=lambda j: label)
    return np.append(main, inner), float(e[0])


# ---------------------------------------------------------------------------
# the frequency tail on a contour
# ---------------------------------------------------------------------------


def _closes_on_contour(geom):
    """Whether the tail past the real-axis ceiling closes on the contour.

    With c = coth(beta omega/2) per plate, c_bar = (c_L + c_R)/2 and
    dc = (c_L - c_R)/2, the Q-integrated emission is c_bar (K_L + K_R) +
    dc (K_L - K_R), K_a plate a's kernel without its occupation.  Only the
    c_bar part is analytic in the upper half omega-plane off the imaginary
    axis; the dc part vanishes identically when the plates are the same
    material apart from their temperatures (K_L = K_R) or share one bath
    temperature (dc = 0).
    """
    return geom.left.beta_bath == geom.right.beta_bath or _same_material(geom)


def _mean_occupation(geom, omega, thermal_only):
    """c_bar = (coth(beta_L omega/2) + coth(beta_R omega/2))/2 at complex
    frequencies with Re omega > 0, or the mean of coth - 1 under
    ``thermal_only``.  Written through e = exp(-beta omega), |e| < 1, so
    it cannot overflow; a plate at T = 0 adds 1 (0 under thermal_only).
    """
    total = np.zeros(np.shape(omega), complex)
    for side in (geom.left, geom.right):
        if math.isfinite(side.beta_bath):
            e = np.exp(-side.beta_bath * omega)
            total += (2.0 * e if thermal_only else 1.0 + e) / (1.0 - e)
        elif not thermal_only:
            total += 1.0
    return 0.5 * total


def _contour_integrand(geom, omega, Q):
    """h(omega, Q) = Q q sum_mu x_mu / (1 - x_mu), the Q integrand of H.

    At s = -i omega (omega complex, Im omega >= 0, broadcast against Q),
    q = qz(1, s, Q) and x_mu = r_mu,L r_mu,R exp(-2 q l), the round trip
    of polarization mu.  H(s) = int_0^inf h dQ is the Lifshitz function of
    the T = 0 imaginary-frequency integral, continued to complex s; its
    boundary value at real omega gives the equal-occupation real-axis
    emission, sum over channels of `_bath_channels` integrated over Q =
    -c_bar Im H(-i omega) / (2 pi^2) (the fluctuation-dissipation form of
    Antezza et al., PRA 77, 022901 (2008)).
    """
    q, plates = _optics(geom, -1j * np.asarray(omega, dtype=complex), Q)
    trip = np.exp(-2.0 * geom.gap * q)
    total = 0.0
    for r_l, r_r in zip(plates["L"][2], plates["R"][2]):
        x = r_l * r_r * trip
        total = total + x / (1.0 - x)
    return Q * q * total


def _contour_q_integral(geom, omegas, weights, rel_tol, floor, work=None):
    """Q integrals of Im(weight h(omega, Q)) at complex frequencies, in
    lockstep (see `_contour_integrand` for h).

    omegas have Re omega > 0; the weight of each folds in its path
    direction, occupation and outer Jacobian.  The driver `_q_integrals`
    runs both sectors, split at Q = Re omega, at ``rel_tol`` with the
    constant absolute floor ``floor``.  Returns (integrals, errors), one
    per frequency.
    """
    if work is None:
        work = _Workspace()
    omegas = np.asarray(omegas, dtype=complex)
    weights = np.asarray(weights, dtype=complex)

    def rows(w, Q, jac, at):
        return np.imag(weights[at] * jac * _contour_integrand(geom, omegas[at], Q))[None]

    got, err = _q_integrals(geom, omegas.real, rows, rel_tol, floor,
                            lambda i, sector: f"contour Q integral at omega={omegas[i]:.4g}",
                            work)
    return got[0], err


def _contour_tail(geom, omega_c, rel_tol, thermal_only, scale, work=None):
    """The frequency integral past omega_c, closed on the line omega_c + i y.

    c_bar H is analytic for Re omega > 0 and Im omega >= 0 (the poles of
    coth lie on the imaginary axis, those of H in the lower half-plane),
    and decays like exp(-2 y l) up the line, so

        P_tail = -(1/2 pi^2) Re int_0^inf dy c_bar(omega_c + i y) H(y - i omega_c)

    with y = u/(l (1 - u)), u in [0, 1).  The outer rule in u
    (`_frequency_rule`) and the Q integrals of its nodes
    (`_contour_q_integral`) all run at ``rel_tol`` with the absolute
    floor ``scale``, |P| of the real-axis part: the u-integral of the
    floor is ``scale`` itself.  Returns (P_tail, its error estimate: the
    outer estimate plus the integrated inner errors).
    """
    l = geom.gap

    def nodes(u):
        rest = 1.0 - u
        omega = omega_c + 1j * (u / (l * rest))
        weights = (-1j / (2.0 * math.pi ** 2 * l)) * _mean_occupation(geom, omega, thermal_only) \
            / (rest * rest)
        got, err = _contour_q_integral(geom, omega, weights, rel_tol, scale, work)
        return got[None], err

    marks = [0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 1.0]     # y l = 1/4 .. 4
    (tail, inner), e = _frequency_rule(nodes, marks, rel_tol, scale, 1024, "contour tail")
    return float(tail), float(e + abs(inner))


def _surface_band_marks(side, omega_max):
    """Edges bracketing the Re eps = -1 band of one plate.

    The evanescent TM channel resonates where the permittivity crosses -1
    (gap-split surface modes); the resulting spike in the frequency
    integrand is narrower than the generic panel seeding and must carry
    its own edges, otherwise a single Gauss-Kronrod panel can straddle it
    with a deceptively small error estimate.
    """
    if side.lambda0 <= 0.0:
        return []
    base = math.hypot(side.omega0, side.lambda0 / math.sqrt(2.0))
    width = max(side.bath.gamma, 1e-3)
    offsets = (-4.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    return [m for m in (base + c * width for c in offsets) if 0.0 < m < omega_max]


def _omega_edges(geom, omega_max):
    marks = {0.0, omega_max}
    for side in (geom.left, geom.right):
        marks.update(_surface_band_marks(side, omega_max))
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


def steady_pressure(geom, opts=None):
    """Distance-dependent steady-state pressure carried by the plate baths.

    Integrates the bath emission channels minus their detached-plates
    baseline over (omega, Q) with nested adaptive Gauss-Kronrod panels
    (negative = attraction).  The baseline, the l-independent radiation
    pressure on each interface, is subtracted inside the integrand: it
    carries no information about the gap, and with the zero-point emission
    included its integral grows as omega_max^4.

    The outer frequency rule on [0, omega_max] (`_frequency_rule`) runs at
    rel_tol/2 and hands its nodes to `_inner_q_integral` at rel_tol/4,
    with the floor described there, fed by the largest inner integral
    finished so far; the channel rows drive the outer error test, and the
    integrated inner errors enter ``err`` (see `PressureResult`).

    Past omega_max, identical plates (up to their temperatures) and plates
    at one bath temperature close the tail on the line omega_max + i y
    (`_contour_tail`, at rel_tol/4 with |P| of the real-axis part as its
    floor), where it decays like exp(-2 y l).  Dissimilar plates at
    T_L != T_R keep the real-axis ceiling of 18 and the Euler slices,
    whose residue is about 1e-6 of the result.

    Both plates must be `Material` oscillators, at least one of them
    lossy (DomainError otherwise): a table plate, one constant real
    permittivity, emits nothing where the lossless limit of an oscillator
    plate keeps its emission, and would give a wrong pressure.
    """
    opts = opts or PressureOptions()
    if isinstance(geom.left, EpsilonTable) or isinstance(geom.right, EpsilonTable):
        raise DomainError("steady pressure needs oscillator plates: a table plate is "
                          "one constant real permittivity and emits nothing, where "
                          "the lossless limit of an oscillator plate still does")
    if not (geom.left.has_loss or geom.right.has_loss):
        raise DomainError("steady pressure needs at least one dissipative plate "
                          "(Im eps > 0 somewhere)")
    omega_max = opts.omega_max if opts.omega_max is not None else _auto_omega_max(geom)
    inner_tol = opts.rel_tol / 4.0
    state = {"scale": 0.0}      # largest |inner integral| finished so far
    work = _Workspace()         # the inner rules' per-node buffers, for the whole pass

    def nodes(ws):
        main, inner = _inner_q_integral(geom, ws, opts.thermal_only, inner_tol, state["scale"],
                                        work)
        state["scale"] = max(state["scale"], float(np.abs(main.sum(axis=0)).max()))
        return main, inner

    def integrate(edges, max_panels, label):
        return _frequency_rule(nodes, edges, opts.rel_tol / 2.0, 1e-14 / geom.gap ** 4,
                               max_panels, label)

    totals, outer_err = integrate(_omega_edges(geom, omega_max), 1024, "frequency integral")
    channels = totals[:-1]
    breakdown = dict(zip(BREAKDOWN_KEYS, channels.tolist()))
    if _closes_on_contour(geom):
        main = math.fsum(channels)
        tail, tail_err = _contour_tail(geom, omega_max, opts.rel_tol / 4.0, opts.thermal_only,
                                       abs(main), work)
        return PressureResult(value=main + tail,
                              err=float(outer_err + abs(totals[-1]) + tail_err),
                              breakdown=breakdown, omega_max_used=float(omega_max), tail=tail)
    # Dissimilar plates at T_L != T_R: the (coth_L - coth_R) part of the
    # emission does not continue off the real axis, and splitting it off
    # needs per-plate kernels with the occupation factored out.  The tail
    # stays on the real axis: past the material scales the subtracted
    # integrand is dominated by a decaying cavity round-trip oscillation
    # cos(2 omega l + phi), and averaging the partial integral over the
    # next two half-period endpoints (Euler weights 3/4 and 1/4 on the
    # half-period slices) cancels its first two orders, leaving about 1e-6
    # of the result.  The default configuration takes this branch, and
    # perfbench/reference.json was made by it; moving it waits for that
    # split and a regenerated reference.
    half = math.pi / (2.0 * geom.gap)
    (s0, e0), (s1, e1) = [integrate([omega_max + j * half, omega_max + (j + 1) * half],
                                    64, "frequency tail slice") for j in (0, 1)]
    full = totals + 0.75 * s0 + 0.25 * s1
    outer_err = outer_err + e0 + e1 + 0.5 * abs(sum(s0[:-1] + s1[:-1]))
    return PressureResult(value=math.fsum(full[:-1]), err=float(outer_err + abs(full[-1])),
                          breakdown=breakdown, omega_max_used=float(omega_max),
                          tail=math.fsum(0.75 * s0[:-1] + 0.25 * s1[:-1]))


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
    from scipy import integrate

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
        from scipy import integrate

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
