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
ceiling, never enter.  Each channel is a plate's share of the emission
(its occupation, up to the measure) times a kernel of the two plates'
reflection coefficients and the gap alone, in the reflection form, which
carries no baseline term (`_bath_channels`).

The (omega, Q) integral is nested adaptive Gauss-Kronrod, and two rules
serve the real axis and the tail alike.  The outer frequency rule
(`_frequency_rule`; on dissimilar plates at T_L != T_R its segments are
[0, omega_max] and the two Euler tail slices) hands all the nodes of each
round to one call of the lockstep Q driver (`_q_integrals`): the Q
segments of every frequency are independent segments of one adaptive
rule, each with its own error test, panel budget and ConvergenceError,
and each retires, its totals stored, in the round it converges.  Each
round evaluates all panels being split with one integrand call per chunk
of ``_PANEL_CHUNK`` panels, so memory stays bounded.  A chunk's nodes
come shaped (panels, 15); whatever depends on a panel's frequency alone
(the frequency itself, its decay scale and contour weight, and its row
of the `_frequency_factors` tables, evaluated once per lockstep call) is
read once per panel and broadcast over its nodes.  Up to the real-axis
ceiling omega_max the Q integrand of dissimilar plates is the four
(plate x polarization) channels on the real Q axis (`_real_q_integral`),
one kernel (`_channel_kernel`) for the engine and the public per-point
map alike (`_bath_channels`, four rows in BREAKDOWN_KEYS order): one
Fresnel call per sector (Q < omega propagating, else evanescent) with
both plates on its leading axis, and the rows from r_L, r_R and the
round trip x = r_L r_R exp(2 i k_z l) of each polarization.  Each
frequency's two sectors are two segments, the propagating ones first,
so a chunk is one propagating run of panels then one evanescent run,
which the node and channel maps read as slices, and a panel carries only
its own sector's rows.  The seeds of the evanescent sector mark each
plate's critical wavenumber kappa_c = omega sqrt(eps - 1), where the
plate wavenumber vanishes, with a ladder of marks out from it where the
plate's loss leaves that edge sharp, read off the same permittivity
tables (`_inner_q_seeds`, `_critical_marks`).  Plates of one material
(`_same_material`) integrate one row per polarization instead, the
round-trip sum of the Lifshitz function H weighted by both plates'
occupations, and split the plates after integration
(`_line_q_integral`); they never call the channel map.  Their Q
integral leaves the real axis: with k_z = sqrt(omega^2 - Q^2) it closes
on the line k_z = omega + i y, one segment per frequency, where the
cavity round trip decays like exp(-2 y l) instead of oscillating, plus
the residues at the zeros of D_mu between the line and the real-Q path,
so its cost per frequency does not grow with the gap; omega stays
real.  Past the ceiling, where the emission is the mean occupation
times the Lifshitz function H (identical plates up to their
temperatures, or one bath temperature), the tail closes on the line
omega_max + i y (`_contour_tail`), and each of its complex frequencies
omega takes the real axis's rule: one segment on the line k_z = omega +
i y and the residues of the zeros of D_mu between it and the real-Q
path (`_contour_line_integral`), for both plates' Fresnel coefficients;
otherwise two Euler-weighted real-axis slices close it.

The module also holds the equilibrium oracle, the imaginary-frequency sum;
it imports scipy.integrate on first use, so the steady path runs without
loading scipy, and the contour tail is never built from it.  It builds no
symbolic Green block: the blocks of :mod:`.em_green` and their stress
contraction (:func:`.spectral.theta_contract`) serve the transient study in
:mod:`.spectral`, and in the tests the oracle of the closed form.

The quadrature engine (`_adaptive_gk`, `_eval_panels`, `_q_nodes`,
`_q_integrals`) computes in fresh arrays.  Only the row producers keep
buffers: each `_real_q_integral` and `_line_q_integral` call owns one
`_Workspace` until it returns, and each chunk's rows overwrite the last
chunk's there (consumed by `_eval_panels` in between), so a pass does
not fault those pages in again at every chunk.  `_real_q_integral`
hands it to the channel map (`_bath_channels`, `_channel_rows`,
`_channel_kernel`) for the rows and the kernel's four (polarization,
plate) arrays: the Fresnel denominators, the coefficients, their moduli
and its rows.  A channel-map call without one (as every caller outside
the quadrature makes) makes its own, so what it returns is its caller's.
The hot path checks nothing the engine guarantees: the public entries
refuse bad points (DomainError), the engine's own nodes skip the test.
The lockstep Q rules (`_q_integrals` and its seeds, `_real_q_integral`,
`_line_q_integral`) take only positive real frequencies, as the outer
rule hands them (interior Gauss-Kronrod nodes, never omega = 0).

Everything is in natural units (hbar = c = k_B = 1, frequencies in units
of the oscillator scale); pressures come out in those units to the fourth
power.  Negative values mean attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .material import EpsilonTable, _coth, fdr_weight, permittivity
from .em_green import _fresnel_coeffs, plate_eps
from .winding import _WINDING_SLACK, box_winding

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
BREAKDOWN_KEYS = tuple((p, m) for p in _PLATES for m in _POLS)


# ---------------------------------------------------------------------------
# bath emission integrand
# ---------------------------------------------------------------------------


def _same_material(geom):
    """Whether the two plates are one material, up to their temperatures.

    Then every optical quantity of plate R (permittivity, wavenumber,
    Fresnel coefficients, emission kernel) equals plate L's bit for bit:
    the Q integrals take the round-trip form (`_line_q_integral`), the
    tail closes on the contour (`_closes_on_contour`), and the round
    trips there read one permittivity (`_round_trips`).  A table plate
    counts as the same only when both plates are one object: a table has
    no ``beta_dof``, and the arrays of a multi-row table make dataclass
    ``==`` ambiguous.
    """
    left, right = geom.left, geom.right
    if isinstance(left, EpsilonTable) or isinstance(right, EpsilonTable):
        return left is right
    return replace(left, beta_bath=right.beta_bath, beta_dof=right.beta_dof) == right


def _frequency_factors(geom, w, use_fdr=True, thermal_only=False):
    """Factors of the channel map that depend on the frequency alone.

    w is an array of positive frequencies.  Returns a dict of two tables
    with one column per frequency, which the channel map gathers at its
    groups' rows (`_channel_rows`): ``complex`` stacks the Laplace
    points s = -i w, the permittivity eps = eps(s) of each plate and eps
    s^2 of each, plates in _PLATES order; ``real`` stacks w^2 and, per
    plate, its share of the emission, s_a = C w_a / (w^2 Im eps_a), also
    viewed as ``share``.  C = PRESSURE_SIGN * _MEASURE, and w_a = w^2 *
    occupation * Im eps_a is the plate's emission weight, so s_a is C
    times its occupation; s_a = 0 where Im eps_a = 0 (such a plate emits
    nothing).

    The occupation is coth(beta w/2), or coth - 1 (the pure occupation
    part, vanishing at T = 0) under ``thermal_only``.  The weight reads
    Im eps off the permittivity above; ``use_fdr=False`` rebuilds it from
    the bath noise kernel and the oscillator response (`fdr_weight`, the
    same number by the fluctuation-dissipation identity; Material plates
    only), so the shares carry that identity into the integrand.
    """
    s = -1j * w
    w2 = w * w
    cplx = np.empty((1 + 2 * len(_PLATES), len(w)), complex)
    real = np.zeros((1 + len(_PLATES), len(w)))
    cplx[0] = s
    real[0] = w2
    for i, side in enumerate((geom.left, geom.right)):
        e = np.asarray(plate_eps(side, s))
        occ = _coth(0.5 * side.beta_bath * w)      # 1 at T = 0
        if thermal_only:
            occ = occ - 1.0
        if use_fdr:
            wt = w2 * occ * np.imag(e)
        elif isinstance(side, EpsilonTable):
            raise DomainError("tabulated plates only support the permittivity path")
        else:
            wt = w2 * occ * fdr_weight(side, w)
        cplx[1 + i] = e
        cplx[1 + len(_PLATES) + i] = e * s * s
        im = np.imag(e)
        np.divide((PRESSURE_SIGN * _MEASURE) * wt, w2 * im, out=real[1 + i], where=im != 0.0)
    return {"complex": cplx, "real": real, "share": real[1:]}


def _axis_qz(x):
    """`qz` at s = -i w, w > 0, from x = eps s^2 + Q^2, point by point:
    the principal root, and -i sqrt(-x) on the lossless branch x < 0."""
    root = np.sqrt(x)
    lossless = x.imag == 0.0
    if np.count_nonzero(lossless):
        lossless &= x.real < 0.0
        root[lossless] = -1j * np.sqrt(-x.real[lossless])
    return root


class _Workspace:
    """Reused row buffers of one row producer's lockstep call:
    ``bath.rows`` and ``kernel.*`` of `_real_q_integral`, ``line.rows``
    of `_line_q_integral` (see the module docstring).

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
    `steady_pressure` integrates for dissimilar plates (`_real_q_integral`).
    Plates of one material integrate its sum over the plates in the
    round-trip form instead (`_line_q_integral`); the map is their
    pointwise reference.

    omega is one frequency or an array of them broadcast against Q.  Returns
    a real array of shape (4,) + the broadcast shape, one row per channel
    (plate x polarization) in BREAKDOWN_KEYS order, each point's in the
    closed form of its sector (Q < omega propagating, else evanescent).
    The values include the full measure (the Q of Q dQ and
    ``_MEASURE``), so the pressure is the plain (omega, Q) double
    integral of the sum of the rows.  Points at omega = 0 carry no
    emission and read 0; a negative, NaN or infinite omega, or a NaN,
    infinite or negative Q, raises DomainError.

    This is the engine's entry to the map (the benchmark tracer counts
    the integrand's points here); `_channel_rows` evaluates it.  Called
    with its points alone, the factors of omega alone
    (`_frequency_factors`) are evaluated at each point of nonzero
    frequency.  ``factors`` is the pair (that dict, the row of each
    panel's frequency in it), as `_real_q_integral` passes it once per
    lockstep call; it then rules over use_fdr and thermal_only, and the
    points are taken as they come, unchecked (Q (panels, nodes), omega
    the (panels, 1) column): the engine form.

    ``work`` is the `_Workspace` of the `_real_q_integral` call that
    owns this call; the rows of a chunk live in its buffers until the
    next call with it.  Without one (`bath_integrand`, tests) the call
    makes a fresh workspace, and what it returns is its caller's alone.

    Each channel is plate a's share s_a = C c_a of the emission (C =
    PRESSURE_SIGN * _MEASURE, c_a its occupation, 0 where Im eps_a = 0;
    see `_frequency_factors`) times a kernel of the two plates'
    reflection coefficients r_L, r_R and the gap: the closed-form zz
    stress of the field that plate a emits into the gap in one
    polarization, reflected by the partner plate b (Antezza et al., PRA
    77, 022901 (2008)).  At s = -i omega, with k_z = sqrt(omega^2 - Q^2),
    q = -i k_z and the round trip x = r_L r_R exp(-2 q l) per
    polarization (`.em_green._fresnel_coeffs`; q = qz(1, s, Q)),

        propagating (k_z = k):       s_a Q k (1 +- A) Re[x / (1 - x)],
                                     + for plate L, - for R, A = (|r_R|^2
                                     - |r_L|^2) / (1 - |r_L|^2 |r_R|^2)
        evanescent (k_z = i kappa):  -2 s_a Q kappa Im(r_a) Re(r_b)
                                     exp(-2 kappa l) / |1 - x|^2

    The emission channel itself, in the propagating sector, is s_a Q k (1
    - |r_a|^2) (1 + |r_b|^2) / (2 |1 - x|^2), and its detached-plates (l
    -> infinity) baseline is its round-trip phase average, with 1/(1 -
    |r_L|^2 |r_R|^2) for the cavity factor; their difference is the row
    above, since Re[x / (1 - x)] = sum_{n >= 1} Re x^n averages to 0.
    Evanescent emission does not survive that limit.  Without the
    subtraction the map, zero-point emission included, would integrate to
    a value growing as omega_max^4.  A trapped lossless mode (1 - |r_L|^2
    |r_R|^2 below 1e-13 where a plate emits) makes A and the baseline
    singular: SingularityError.  On the light line Q = omega, kappa = 0
    and r_L = r_R = -1, so kappa and 1 - x vanish together; there 1 - x ~
    2 kappa (l + 1/n_L + 1/n_R) with n = qn (TE) or qn/eps (TM), qn =
    qz(eps, s, Q), and the evanescent row takes its limit s_a Q Im(1/n_a)
    / |l + 1/n_L + 1/n_R|^2 instead of 0 * inf.  A plate with eps = 1
    (lambda0 = 0), where qn = 0 there too, reflects nothing (r = 0), and
    the rows read 0.  Plates of one material
    have A = 0 and Im(r_a) Re(r_b) = Im(r^2) / 2, so their rows summed
    over the plates are the round-trip integrand of `_line_q_integral`
    on the real Q axis.  The tests check this map plus the baseline, and
    the source-vector form of the emission channels, against the symbolic
    contraction of :func:`.spectral.theta_contract`, the phase average,
    the blackbody pressure and a 40-digit evaluation.
    """
    if work is None:
        work = _Workspace()
    if factors is not None:
        return _channel_rows(geom, factors, np.asarray(omega, dtype=float),
                             np.asarray(Q, dtype=float), work)
    w, Q = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(Q, dtype=float))
    for name, v in (("omega", w), ("Q", Q)):
        bad = ~(v >= 0.0) | (v == math.inf)       # NaN fails v >= 0
        if bad.any():
            raise DomainError(f"the channel map needs finite {name} >= 0, "
                              f"got {name}={v[bad].flat[0]}")
    live = w.ravel() != 0.0         # omega = 0 takes no row
    factors = (_frequency_factors(geom, w.ravel()[live], use_fdr=use_fdr,
                                  thermal_only=thermal_only), np.cumsum(live) - 1)
    rows = _channel_rows(geom, factors, w.reshape(-1, 1), Q.reshape(-1, 1), work)
    return rows.reshape((len(BREAKDOWN_KEYS),) + Q.shape)


def _channel_rows(geom, factors, w, Q, work):
    """The channel rows of `_bath_channels` at groups of nodes: Q shaped
    (groups, nodes), w the (groups, 1) column of their frequencies and
    ``factors`` the pair (the `_frequency_factors` dict, each group's row
    in it).  Returns each node's four rows, (plate, polarization) of the
    sector of its closed form, shaped (4, groups, nodes), C ordered.

    The inner rules' chunks, one propagating (Q < omega) run of groups
    then one evanescent run at nonzero frequencies, are evaluated in
    place: each run's factors are gathered once and take its sector's
    closed form through one `_channel_kernel` call, and the rows live in
    ``work``.  Any other layout (the public map's points, a chunk with a
    light-line straggler Q = omega in a propagating panel) is evaluated
    node by node, gathered into fresh arrays: one kernel call per sector
    on the nodes at nonzero frequencies, Q >= omega (the straggler, whose
    rows count toward its panel's) taking the evanescent form; nodes at
    omega = 0 read 0.
    """
    fac, at = factors
    g, p = Q.shape
    prop = Q < w
    k = int(np.count_nonzero(prop[:, 0]))
    if np.count_nonzero(w) == g and np.count_nonzero(prop[:k]) == k * p == np.count_nonzero(prop):
        rows = work.take("bath.rows", len(_PLATES) * len(_POLS) * g * p).reshape(
            len(_PLATES), len(_POLS), g, p)
        for sector, run in enumerate((slice(0, k), slice(k, g))):
            if run.stop > run.start:
                # take(), not tab[:, idx]: that gather comes back F-ordered
                tables = tuple(tab.take(at[run], axis=1) for tab in (fac["complex"], fac["real"]))
                _channel_kernel(geom, tables, Q[run], sector == 0, rows[:, :, run], work)
        return rows.reshape(-1, g, p)
    w, Q, at = (np.broadcast_to(a, (g, p)).ravel() for a in (w, Q, at[:, None]))
    rows = np.zeros((len(_PLATES), len(_POLS), g * p))
    live = w != 0.0
    for sector, pick in enumerate((live & (Q < w), live & (Q >= w))):
        if pick.any():
            out = np.empty((len(_PLATES), len(_POLS), np.count_nonzero(pick), 1))
            tables = tuple(tab[:, at[pick]] for tab in (fac["complex"], fac["real"]))
            _channel_kernel(geom, tables, Q[pick, None], sector == 0, out, work)
            rows[:, :, pick] = out[..., 0]
    return rows.reshape(-1, g, p)


def _channel_kernel(geom, tables, Q, propagating, out, work):
    """The four channels of one sector (plate x polarization) at groups of
    nodes that all lie in it, written into ``out``, shaped (2, 2) + Q's
    (groups, nodes) shape: the reflection forms of `_bath_channels`.

    ``tables`` is (complex, real): the `_frequency_factors` tables with
    one column per group, each factor read as a (groups, 1) column
    broadcast over the group's nodes.

    On the real axis the vacuum wavenumber is real arithmetic: q =
    -i sqrt(omega^2 - Q^2) with the round-trip factor exp(-2 q l) a pure
    phase in the propagating sector (k > 0 there, since Q < omega), q =
    sqrt(Q^2 - omega^2) in the evanescent one.  Both equal `qz` and
    `np.exp` bit for bit.  The two plates share one Fresnel call
    (`.em_green._fresnel_coeffs`), their permittivities on its leading
    axis, and the rows are their shares times per-polarization terms of
    r_L, r_R and x = r_L r_R exp(-2 q l), in plain numpy.  A row is
    exactly 0 where its plate does not emit.

    ``work`` is the `_Workspace` that `_channel_rows` hands down (that of
    its `_real_q_integral` call, or a public call's own): the Fresnel
    step's denominators, coefficients and moduli, and the rows before the
    shares, are its (2, 2) + Q.shape buffers ``kernel.*``, written with
    ``out=`` in the operation order of fresh arrays; the smaller
    temporaries are fresh.
    """
    cplx, real = tables
    s, eps, es2 = cplx[0, :, None], cplx[1:3, :, None], cplx[3:, :, None]
    w2, share = real[0, :, None], real[1:, :, None]
    Q2 = Q * Q
    if propagating:
        k = np.sqrt(w2 - Q2)
        q = -1j * k
        phase = 2.0 * k * geom.gap
        trip = np.cos(phase) + 1j * np.sin(phase)
    else:
        k = np.sqrt(Q2 - w2)
        q = k + 0j
        trip = np.exp(-2.0 * q * geom.gap)     # a real exp is 1 ulp off
        light = k == 0.0                # Q = omega: kappa and 1 - x vanish together
        on_light = np.count_nonzero(light)
    qn = _axis_qz(es2 + Q2)
    if not propagating and on_light:
        # q = qn = 0 there only on a plate with eps = 1, which reflects
        # nothing: its r is 0, not the light-line limit -1
        void = light & (qn == 0.0)
        qn[void] = 1.0
    shape = (len(_POLS), len(_PLATES)) + Q.shape
    den, r, mag = (work.take("kernel." + key, math.prod(shape), dtype).reshape(shape)
                   for key, dtype in (("den", complex), ("r", complex), ("mag", float)))
    r = _fresnel_coeffs(eps, q, qn, s, out=(den, r, mag))   # (polarization, plate, ...)
    if not propagating and on_light:
        r[:, void] = 0.0
    emit = share != 0.0
    if not np.count_nonzero(emit):
        out.fill(0.0)
        return out
    x = r[:, 0] * r[:, 1] * trip
    if propagating:
        r2 = np.square(np.abs(r, out=mag), out=mag)
        lock = 1.0 - r2[:, 0] * r2[:, 1]
        trapped = (np.abs(lock) < 1e-13) & (emit[0] | emit[1])
        if np.count_nonzero(trapped):
            raise SingularityError("detached-plates cavity weight hits a trapped lossless mode",
                                   point=np.broadcast_to(s, trapped.shape)[trapped][0])
        # where lock = 0 no plate emits: A reads 0 there
        A = np.divide(r2[:, 1] - r2[:, 0], lock, out=np.zeros(lock.shape), where=lock != 0.0)
        h = Q * k * np.real(x / (1.0 - x))
        # (plate, polarization, ...).  Taken here, with the sector's
        # temporaries live, the buffer lands above them on the heap on
        # the pass's first call: taken before the Fresnel step instead,
        # a warm default pass faulted 580-1,400 pages, against 190-500
        rows = work.take("kernel.rows", r.size).reshape(shape)
        np.multiply(np.add(1.0, A, out=rows[0]), h, out=rows[0])
        np.multiply(np.subtract(1.0, A, out=rows[1]), h, out=rows[1])
    else:
        cavity = np.square(np.abs(1.0 - x))
        if on_light:
            np.copyto(cavity, 1.0, where=light)
        h = -2.0 * Q * k * trip.real / cavity
        rows = work.take("kernel.rows", r.size).reshape(shape)
        swapped = rows.swapaxes(0, 1)   # (polarization, plate, ...), as r
        np.multiply(np.multiply(r.imag, r.real[:, ::-1], out=swapped), h[:, None], out=swapped)
        if on_light:                    # (polarization, plate, nodes)
            light &= ~void.any(axis=0)  # a plate that reflects nothing leaves the rows 0
            inv = _inverse_n(qn[:, light], np.broadcast_to(eps, qn.shape)[:, light])
            rows[:, :, light] = Q[light] * inv.imag.swapaxes(0, 1) \
                / np.abs(geom.gap + inv[:, 0] + inv[:, 1]) ** 2
    np.multiply(share[:, None], rows, out=out)
    if np.count_nonzero(emit) < emit.size:
        np.copyto(out, 0.0, where=~emit[:, None])
    return out


def bath_integrand(geom, omega, Q, use_fdr=True):
    """Bath-pressure integrand summed at one (omega, Q) point (or a batch).

    The sum over plates and polarizations of the channel map of
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

def _eval_panels(f, lo, hi, seg):
    """Evaluate a row-valued integrand on a batch of panels.

    f maps (the nodes, shaped (panels, 15), one row per panel; the
    segment index of each panel, one per panel) to a pair (main, ride) of
    arrays with one row per integrated quantity over the nodes, shaped
    (rows, panels, 15) or (rows, panels * 15): the sum of the main rows
    drives the error estimate, the ride rows are only integrated.  A
    panel's nodes share its segment, so f reads whatever depends on the
    segment alone once per panel and broadcasts it over the panel's 15
    nodes.  The panels go to f in chunks of ``_PANEL_CHUNK``, each
    reduced to its per-panel integrals and errors before the next, so
    memory does not grow with the batch.  Returns
    ((main, ride) per-panel integrals, shaped (rows, panels), per-panel
    error estimates, per-panel rounding floors 50 eps resabs), in the
    order of the batch.

    The panels go to f in a stable order by segment, so a chunk holds
    its segments' panels in segment order: the real-axis inner rule
    numbers the propagating sectors first (`_q_integrals`), so each of
    its chunks is one propagating run of panels followed by one
    evanescent run; the outer rule's are the real axis's then the Euler
    tail slices'.

    The rule's own arrays are fresh.  f may return rows that live in its
    own buffers (the row producers' `_Workspace`): each chunk's rows are
    consumed before f is called for the next.

    The error estimate is the QUADPACK rescaling of |K15 - G7|: a panel
    whose nodes show large variation about the mean (resasc) is never
    trusted just because the two rules happen to agree, which is what a
    narrow resonance straddled by a single panel produces.

    Every weighted sum over a panel's 15 nodes is one `np.einsum`
    reduction, which sums each panel in the same order whatever else is
    in its chunk: a panel gets the same integral, error and rounding
    floor bit for bit alone or in a batch (a BLAS ``matmul`` does not).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    order = np.argsort(seg, kind="stable")
    ints = None
    err, rnd = np.empty(n), np.empty(n)
    for c in range(0, n, _PANEL_CHUNK):
        part = order[c:c + _PANEL_CHUNK]
        lo_p, hi_p = lo[part], hi[part]
        half = 0.5 * (hi_p - lo_p)
        mid = 0.5 * (lo_p + hi_p)
        rows = [np.reshape(v, (len(v), len(part), 15))
                for v in f(mid[:, None] + half[:, None] * _GK_X, seg[part])]
        if ints is None:
            ints = [np.empty((len(v), n)) for v in rows]
        for out, v in zip(ints, rows):
            if len(v):
                out[:, part] = np.einsum("rmk,k->rm", v, _GK_WK) * half
        total = np.sum(rows[0], axis=0)
        k15 = np.einsum("mk,k->m", total, _GK_WK) * half
        g7 = np.einsum("mk,k->m", total, _GK_WG) * half
        dev = np.abs(total - (k15 / (2.0 * half))[:, None])
        resasc = np.einsum("mk,k->m", dev, _GK_WK) * half
        resabs = np.einsum("mk,k->m", np.abs(total), _GK_WK) * half
        raw = np.abs(k15 - g7)
        safe = np.maximum(resasc, 1e-300)
        # min(1, x)**1.5 == min(1, x**1.5), and the clamped ratio cannot
        # overflow when resasc is tiny
        e = np.where((resasc > 0.0) & (raw > 0.0),
                     resasc * (np.minimum(200.0 * raw, safe) / safe) ** 1.5, raw)
        rnd[part] = floor = 50.0 * np.finfo(float).eps * resabs
        err[part] = np.maximum(e, floor)
    return ints, err, rnd


#: Seed edges of one segment closer than this fraction of its span are one
#: edge (`_seed_panels`).
_SEED_MERGE = 1e-6


def _seed_panels(segments, labels):
    """The seed panels (lo, hi, seg) of `_adaptive_gk`'s segment rows, in
    row order and, within a row, in ascending order of the edges.

    An edge within ``_SEED_MERGE`` of its row's span of the last edge
    kept before it, or of the row's last edge, is dropped, so marks that
    coincide up to a perturbation of the inputs seed no sliver panel; the
    row's first and last edges always stay."""
    marks = np.sort(np.asarray(segments, dtype=float), axis=1)     # NaN sorts last
    last = np.nanmax(marks, axis=1)[:, None]
    tol = _SEED_MERGE * (last - marks[:, :1])
    later = marks[:, 1:]
    seen, prev = None, marks[:, :-1]
    while True:
        new = ~np.isnan(marks)
        new[:, 1:] &= ((later - prev > tol) & (last - later > tol)
                       | (later == last) & (prev != last))
        # unless two edges in a row drop, the edge before is the last kept
        if np.array_equal(new, seen) or seen is None and not (
                ~new[:, 1:-1] & ~new[:, 2:] & ~np.isnan(later[:, 1:])).any():
            break
        seen, prev = new, np.maximum.accumulate(np.where(new, marks, -np.inf), axis=1)[:, :-1]
    few = np.flatnonzero(new.sum(axis=1) < 2)
    if few.size:
        raise DomainError(f"{labels(few[0])}: need at least two panel edges")
    owner, col = np.nonzero(new)
    edges = marks[owner, col]
    inner = owner[1:] == owner[:-1]     # consecutive edges of one segment
    return edges[:-1][inner], edges[1:][inner], owner[:-1][inner]


def _adaptive_gk(f, segments, rel_tol, abs_floor=0.0, max_panels=1024, *, labels):
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
    * it raises ConvergenceError, naming its label, budget and worst
      subinterval, when it reaches its ``max_panels`` panels unconverged.

    A segment retires in the round it converges: its totals and error are
    stored, each summed over its panels in their array order, and its
    panels leave the arrays before the next evaluation.  The panels of
    the open segments keep their relative order (kept panels, then the
    left and the right halves of the split ones), so every sum, error and
    decision has the bits it would have if no segment retired.

    rel_tol and max_panels are each a number or one per segment.  The
    ride rows never enter these decisions.  ``abs_floor`` is a number,
    one per segment, or a callable mapping the current per-segment
    totals I (those of retired segments included) to those (as the
    inner Q integrals and the outer rule use it, see `_q_integrals` and
    `steady_pressure`).  The contour tail is the one-segment case.
    Its arrays are fresh; f owns whatever buffers its rows live in (see
    `_eval_panels`).  Returns ((main, ride) per-segment totals, shaped
    (rows, segments), per-segment error estimates).
    """
    lo, hi, seg = _seed_panels(segments, labels)
    nseg = len(segments)
    budget = np.broadcast_to(max_panels, nseg)
    del segments                # frees a caller's temporary seed rows before round 0
    (main, ride), err, rnd = _eval_panels(f, lo, hi, seg)
    # each panel's main-row sum is taken once, over the batch that
    # evaluated it, as numpy sums a batch: rows in sequence for two or more
    # panels, as one reduction for a one-panel seed, whose sum serves
    # round 0 alone
    psum = main.sum(axis=0)
    totals = [np.zeros((len(main), nseg)), np.zeros((len(ride), nseg))]
    sums, bad = np.zeros(nseg), np.zeros(nseg)
    done = np.zeros(nseg, dtype=bool)
    while True:
        open_sums = np.bincount(seg, weights=psum, minlength=nseg)
        open_bad = np.bincount(seg, weights=err, minlength=nseg)
        sums = np.where(done, sums, open_sums)
        bad = np.where(done, bad, open_bad)
        floor = abs_floor(sums) if callable(abs_floor) else abs_floor
        target = rel_tol * np.maximum(np.abs(sums), floor)
        ends = ~done & ((bad <= target)
                        | (bad <= 2.0 * np.bincount(seg, weights=rnd, minlength=nseg)))
        if ends.any():
            gone = ends[seg]        # each bin sums its own panels in index order
            for total, rows in zip(totals, (main, ride)):
                for t, r in zip(total, rows):
                    t[ends] = np.bincount(seg[gone], weights=r[gone], minlength=nseg)[ends]
            done |= ends
        if done.all():
            break
        count = np.bincount(seg, minlength=nseg)
        stuck = ~done & (count >= budget)
        if stuck.any():
            j = int(np.argmax(stuck))
            mine = np.flatnonzero(seg == j)
            i = mine[np.argmax(err[mine])]
            raise ConvergenceError(
                f"{labels(j)} did not converge: {count[j]} panels (budget {budget[j]}), "
                f"residual {bad[j]:.3e} vs target {target[j]:.3e}; worst subinterval "
                f"[{lo[i]:.6g}, {hi[i]:.6g}] with error {err[i]:.3e}")
        # per open segment, split its worst 32 panels still carrying a
        # meaningful share of its budget, or its worst panel when none
        # does: rank those panels (all of a segment's in the second case)
        # by error, worst first, ties in panel order
        keep = ~done[seg]
        big = keep & (err > target[seg] / (2.0 * count[seg]))
        lone = ~done
        lone[seg[big]] = False
        ranked = np.flatnonzero(big | lone[seg])
        order = ranked[np.lexsort((-err[ranked], seg[ranked]))]
        owner = seg[order]
        rank = np.arange(len(order)) - np.searchsorted(owner, owner)
        pick = order[((rank < 32) & big[order]) | (rank == 0)]
        mids = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mids])
        new_hi = np.concatenate([mids, hi[pick]])
        new_seg = np.concatenate([seg[pick], seg[pick]])
        keep[pick] = False      # the retired segments' panels and the split ones leave
        lo, hi, seg, err, rnd = lo[keep], hi[keep], seg[keep], err[keep], rnd[keep]
        main, ride, psum = main[:, keep], ride[:, keep], psum[keep]
        (new_main, new_ride), nerr, nrnd = _eval_panels(f, new_lo, new_hi, new_seg)
        lo = np.concatenate([lo, new_lo])
        hi = np.concatenate([hi, new_hi])
        seg = np.concatenate([seg, new_seg])
        err = np.concatenate([err, nerr])
        rnd = np.concatenate([rnd, nrnd])
        psum = np.concatenate([psum, new_main.sum(axis=0)])
        main = np.concatenate([main, new_main], axis=1)
        ride = np.concatenate([ride, new_ride], axis=1)
    return tuple(totals), bad


# ---------------------------------------------------------------------------
# pressure quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureOptions:
    """Quadrature controls for the steady pressure.

    rel_tol sets the tolerances of the nested rules (see
    `steady_pressure`): the outer frequency rule runs at rel_tol/2, each
    frequency's inner Q integral at rel_tol/4 of its own value, the line
    k_z = omega + i y of one-material plates at 1/100 of that, and the
    tail at rel_tol/4 (the Euler slices at rel_tol/2), with |P| of the
    real-axis part as its floor.  The result's err is their summed
    estimate (see `PressureResult`); it is not bounded by rel_tol |P|,
    and can exceed it without a ConvergenceError on dissimilar plates at
    large gaps and near a sign change of P.  omega_max overrides the
    automatic frequency ceiling; thermal_only (a bool) keeps only the
    thermal occupation part coth - 1 of each plate's emission (vanishing
    at T = 0).
    """

    rel_tol: float = 1e-4
    omega_max: float = None
    thermal_only: bool = False

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.omega_max is not None and not 0 < self.omega_max < math.inf:
            raise DomainError(f"omega_max must be finite and > 0, got {self.omega_max}")
        if not isinstance(self.thermal_only, (bool, np.bool_)):
            raise DomainError(f"thermal_only must be a bool, got {self.thermal_only!r}")


@dataclass
class PressureResult:
    """Value, error estimate and channel breakdown of one pressure run.

    breakdown holds the four real-axis channels (plate x polarization)
    integrated over [0, omega_max_used], the resolved real-axis ceiling;
    tail is the part past it, and value = fsum(breakdown) + tail (to
    rounding).  The tail is the contour integral up omega_max_used + i y
    where the plates' emission continues off the real axis (see
    `steady_pressure`), else the Euler-weighted real-axis slices.  For
    plates of one material the Q integrals are one row per polarization,
    both plates together, and each plate's channels are its share c_a /
    (c_L + c_R) of the integrals, c_a its occupation, taken after the Q
    integration (`_line_q_integral`); other pairs integrate their four
    channels as they are.

    err is the sum of the outer estimate on [0, omega_max_used],
    |integrated inner| (the inner Q errors integrated over omega with the
    channels' weights) and the tail's estimate: on the contour, its outer
    estimate plus its integrated inner errors, each the error of the line
    k_z = omega + i y plus that of its residues; on the real axis, the
    estimates of the two slices plus 0.5 |resid|, resid the summed
    channels of both slices.  The inner error of a frequency sums its two
    sectors' estimates; for plates of one material it is the line's
    estimate plus the residues'.
    """

    value: float
    err: float
    breakdown: dict
    omega_max_used: float = 0.0
    tail: float = 0.0

    def csv_row(self, gap, t_left, t_right):
        """Flat CSV row: l, T_L, T_R, value, err, 4 channels, and a constant
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


def _inner_q_seeds(geom, omegas, eps, line=False):
    """Seed edges of the inner Q integrals of an array of frequencies.

    One row per segment, as a NaN-padded 2-d array for `_adaptive_gk`:
    under ``line`` the line k_z = omega + i y of every frequency, in u in
    [0, 1) with y = u / (2 l (1 - u)): ``_LINE_MARKS``, and y = omega and
    4 omega where u(omega) < 1/4, the scale of the corner k_z -> 0 that
    the marks at y l >= 1/2 miss at small omega.  Otherwise the
    propagating sector of every frequency, then its evanescent sector:

    * propagating, in theta with Q = omega sin(theta): 0, pi/2, the
      round-trip oscillation exp(2 i kappa l), kappa = omega cos(theta), in
      round(2 omega l / pi) steps (at least 6, at most 28), and
      acos(kappa/omega) for each material kappa (lambda0, omega0) below
      omega;
    * evanescent, in the decay variable t in [0, 1) with kappa = sqrt(Q^2 -
      omega^2) = scale t/(1 - t) and scale = max(omega, 1/(2 l)): the cap
      320/l, the scales 1/(4 l) .. 4/l, omega and 2 omega below it, and
      each material's critical wavenumber (`_critical_marks`).  ``eps``
      holds one row of permittivities eps(omegas) per plate material, as
      the lockstep rules tabulate them (`_frequency_factors`), so the
      seeds evaluate no permittivity.
    """
    l = geom.gap
    w_p = omegas[:, None]
    if line:
        u = 2.0 * l * w_p / (1.0 + 2.0 * l * w_p)
        corner = np.where(u < 0.25, np.hstack([w_p, 4.0 * w_p]), np.nan)
        return np.hstack([np.tile(_LINE_MARKS, (len(w_p), 1)),
                          2.0 * l * corner / (1.0 + 2.0 * l * corner)])
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
    critical = _critical_marks(omegas, eps, scale[:, 0])
    qs = np.hstack([np.tile([0.25 / l, 0.5 / l, 1.0 / l, 2.0 / l, 4.0 / l], (len(omegas), 1)),
                    omegas[:, None], 2 * omegas[:, None], critical])
    evan = np.hstack([np.zeros_like(scale), q_cap / (scale + q_cap),
                      np.where(qs < q_cap, qs / (scale + qs), np.nan)])
    width = max(prop.shape[1], evan.shape[1])
    return np.vstack([np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=np.nan)
                      for rows in (prop, evan)])


#: A plate's critical wavenumber is a sharp edge of the evanescent rows,
#: and gets the ladder of `_critical_marks`, where its width |Im kappa_c|
#: is below this fraction of Re kappa_c (and at least ``_SEED_MERGE`` of
#: it: a narrower edge is as sharp as a lossless one to the seed edges).
_CRITICAL_SHARP = 0.03
#: Ratio of successive rungs of that ladder.
_CRITICAL_RUNG = 8.0


def _critical_marks(omegas, eps, scale):
    """Evanescent seed marks at each material's critical wavenumber, in
    kappa = sqrt(Q^2 - omega^2): one column per mark, NaN where a
    frequency has none.

    The plate wavenumber sqrt(eps omega^2 - Q^2) vanishes at kappa_c =
    omega sqrt(eps - 1) (principal root), a square-root edge of the
    evanescent rows that only the plate's loss blurs, to a width w =
    |Im kappa_c|.  Where Re eps > 1, that is Re kappa_c > w, each
    material marks Re kappa_c and, where the edge is sharp (``_SEED_MERGE``
    <= w / Re kappa_c < ``_CRITICAL_SHARP``), the geometric ladder Re
    kappa_c +- w ``_CRITICAL_RUNG``^j, j = 0, 1, ..., every offset below
    Re kappa_c / 2, so the adaptive rule finds the edge resolved at each
    scale from its width up instead of zooming in on it round by round.
    A lossless plate (w = 0, or the width of the retarded eta shift of a
    gamma = 0 plate) gets the single mark.  ``scale`` holds the evanescent
    rows' decay scales, kappa = scale t/(1 - t): a rung closer
    to Re kappa_c in t than twice ``_SEED_MERGE`` is left out, since
    `_seed_panels` keeps the first edge of a close pair, so a rung below
    Re kappa_c would take its place.  Where Re eps <= 1 the loss
    blurs the edge past its own position: a mark there only added points
    (4.5% on the default config's point).
    """
    kc = omegas * np.sqrt(np.asarray(eps) - 1.0)
    re, width = kc.real, np.abs(kc.imag)
    sharp = (width >= _SEED_MERGE * re) & (width < _CRITICAL_SHARP * re)
    room = np.divide(0.5 * re, width, out=np.ones_like(re), where=sharp)
    rungs = int(np.ceil(np.log(room.max()) / math.log(_CRITICAL_RUNG)))
    offset = width[..., None] * _CRITICAL_RUNG ** np.arange(rungs)
    # a rung's distance from Re kappa_c in t is at least 2/3 of this
    shift = offset * (scale / np.square(scale + re))[..., None]
    offset[~(sharp[..., None] & (offset < 0.5 * re[..., None])
             & (shift > 2.0 * _SEED_MERGE))] = np.nan
    marks = re[..., None] + np.concatenate([np.zeros_like(re)[..., None], -offset, offset],
                                           axis=-1)
    marks[~(re > width)] = np.nan
    return np.moveaxis(marks, 0, 1).reshape(len(omegas), -1)


#: The inner integrals' absolute floor is this fraction of rel_tol times
#: the largest inner integral seen so far.
_INNER_FLOOR = 1e-3


def _q_nodes(x, seg, n_prop, w_seg, decay, line=False):
    """The inner rules' node mapping: nodes x, shaped (panels, 15), of
    panels of segments seg to Q.

    ``w_seg`` and ``decay`` are per segment: its (real) frequency omega
    and its decay scale, each read once per panel.  Under ``line`` every
    segment is the line k_z = omega + i y of its frequency, and x is u
    with y = decay u / (1 - u) (y and dy/du take the places of Q and
    dQ/dx; ``decay`` is 1/(2 l) there).  Otherwise segments below
    ``n_prop`` are propagating, and their panels must come first
    (`_eval_panels` orders each chunk so): x is theta with Q = omega
    sin(theta) there; the evanescent nodes after them are t in [0, 1)
    with sqrt(Q^2 - omega^2) = decay t/(1 - t).  Returns (omega, the
    (panels, 1) column of the panels' frequencies, then Q and dQ/dx over
    the nodes), fresh arrays: each panel's frequency and decay scale are
    read once and broadcast over its nodes.
    """
    w, c = w_seg[seg][:, None], decay[seg][:, None]
    if line:                        # y = u c / (1 - u), dy/du = c / (1 - u)^2
        rest = 1.0 - x
        return w, c * x / rest, c / np.square(rest)
    k = int(np.count_nonzero(seg < n_prop))
    if np.count_nonzero(seg[:k] < n_prop) < k:
        raise ValueError("the propagating panels must lead the chunk (see _eval_panels)")
    Q, jac = np.empty((2,) + x.shape)
    Q[:k] = w[:k] * np.sin(x[:k])
    jac[:k] = w[:k] * np.cos(x[:k])
    rest = 1.0 - x[k:]
    qs = c[k:] * x[k:] / rest
    Q[k:] = np.hypot(w[k:], qs)
    jac[k:] = qs / np.maximum(Q[k:], 1e-300) * c[k:] / np.square(rest)
    return w, Q, jac


def _q_integrals(geom, omegas, eps, rows, rel_tol, floor_scale, line=False):
    """The lockstep Q driver: the Q segments of every frequency in
    ``omegas`` (real and > 0) are independent segments of one
    `_adaptive_gk` call (seed edges `_inner_q_seeds`, nodes `_q_nodes`, at
    most 512 panels each), so each round evaluates every panel still
    being split with one integrand call per chunk, while each segment
    keeps its own error test, panel budget and ConvergenceError, named by
    its frequency.  On the real Q axis a frequency has two segments, its
    propagating and evanescent sectors, the propagating ones first, so
    each chunk (`_eval_panels`) is one propagating run of panels followed
    by one evanescent run, and the node map and the channel map read each
    run as a slice.  Under ``line`` a frequency has one segment, the line
    k_z = omega + i y, at ``_LINE_TOL`` times rel_tol (see
    `_line_q_integral`).

    ``eps`` holds one row of permittivities at ``omegas`` per plate
    material, the seeds' critical wavenumbers (`_inner_q_seeds`).
    ``rows(w, Q, jac, at)`` gives the integrand rows at the nodes from
    the (panels, 1) column of their frequencies w = omegas[at], at one
    frequency index per panel (also its column of the
    `_frequency_factors` tables), and Q and dQ/dx shaped (panels, 15)
    (see `_q_nodes`): n_rows rows of each panel's segment.  Its own
    arrays are fresh; ``rows`` may keep its rows in its own `_Workspace`
    (see `_eval_panels`).

    The absolute floor of every segment is ``_INNER_FLOOR * rel_tol``
    times the largest |inner integral| among ``floor_scale`` (that of the
    frequencies already finished) and the running per-frequency totals of
    this call, so it does not depend on the order in which the
    frequencies of one call are listed.  Returns (integrals shaped
    (n_rows, n_omega), errors shaped (n_omega,)), each frequency's
    segments summed.
    """
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    sectors = 1 if line else len(_SECTORS)
    owner = np.tile(np.arange(n), sectors)
    w_seg = omegas[owner]
    decay = np.full(n, 0.5 / geom.gap) if line else np.maximum(w_seg, 0.5 / geom.gap)

    def f(x, seg):
        return rows(*_q_nodes(x, seg, n, w_seg, decay, line), owner[seg]), \
            np.empty((0,) + x.shape)

    def abs_floor(totals):
        running = np.bincount(owner, weights=totals, minlength=n)
        return _INNER_FLOOR * rel_tol * max(floor_scale, np.abs(running).max())

    def label(j):
        return f"{_SECTORS[j // n]} Q integral at omega={omegas[owner[j]]:.4g}"

    (got, _), err = _adaptive_gk(f, _inner_q_seeds(geom, omegas, eps, line),
                                 _LINE_TOL * rel_tol if line else rel_tol,
                                 abs_floor=abs_floor, max_panels=512, labels=label)
    return got.reshape(len(got), sectors, n).sum(axis=1), err.reshape(sectors, n).sum(axis=0)


def _inner_q_integral(geom, omegas, thermal_only, rel_tol, floor_scale):
    """Q-integrals of the difference channel map at an array of frequencies,
    in lockstep (`_q_integrals`): (channel integrals shaped (4, n_omega) in
    BREAKDOWN_KEYS order, per-frequency errors).

    Plates of one material (`_same_material`) integrate the round-trip
    sum per polarization on the line k_z = omega + i y, and split the
    plates after integration (`_line_q_integral`); other pairs integrate
    the channel map in both sectors on the real Q axis
    (`_real_q_integral`).  Both rules are described there.
    """
    rule = _line_q_integral if _same_material(geom) else _real_q_integral
    return rule(geom, omegas, thermal_only, rel_tol, floor_scale)


def _real_q_integral(geom, omegas, thermal_only, rel_tol, floor_scale):
    """`_inner_q_integral` with both sectors on the real Q axis, the
    propagating one in theta (`_inner_q_seeds`), with the absolute floor
    of `_q_integrals`.  The factors of omega alone (`_frequency_factors`)
    are evaluated once per call at the frequencies as given, and each
    panel hands the channel map its frequency's column and takes the
    four channels of its sector.  The call owns one `_Workspace` and
    hands it to the channel map: each chunk's channel rows, Jacobian
    applied in place, and the kernel's arrays live in it until the next
    chunk, and it is dropped when the call returns.  A frequency's
    integrals and error are the sums of its two sectors'.
    """
    work = _Workspace()
    factors = _frequency_factors(geom, np.asarray(omegas, dtype=float),
                                 thermal_only=thermal_only)

    def rows(w, Q, jac, at):
        ch = _bath_channels(geom, w, Q, factors=(factors, at), work=work)
        ch *= jac
        return ch

    return _q_integrals(geom, omegas, factors["complex"][1:1 + len(_PLATES)], rows,
                        rel_tol, floor_scale)


# ---------------------------------------------------------------------------
# identical plates: the propagating Q integral on the line k_z = omega + i y
# ---------------------------------------------------------------------------

#: Seed edges of the line k_z = omega + i y, in u in [0, 1) with
#: y = u / (2 l (1 - u)): y l = 0, 1/2, 3/2, 9/2 and infinity.
_LINE_MARKS = np.array([0.0, 0.5, 0.75, 0.9, 1.0])
#: Relative tolerance of the line segments, as a fraction of the inner
#: tolerance.  The line carries the value of identical plates, and its
#: integrated error is budgeted per frequency, against an integrand that
#: changes sign over omega: at the inner tolerance itself the reported
#: error reached 12 rel_tol |P| on criterion 8's plates (l = 10, rel_tol
#: 2e-3); at 1/100 of it at most 0.6, for 11% more line points.
_LINE_TOL = 0.01
#: Samples of the searched box's left edge k_z = i kappa in the zero test
#: (`_strip_may_hold_zeros`) where passivity does not prove it, at kappa =
#: Im omega + u / (2 l (1 - u)) for u evenly spaced in (0, 1), those below
#: the box's top, and, at complex omega, of its bottom edge at k_z = u Re
#: omega + i Im omega.
_STRIP_EDGE_SAMPLES = 24
#: Samples of the box's top edge in the same test.
_STRIP_TOP_SAMPLES = 4
#: Decay e^-x of the round trip above the asymptotic Fresnel bound that
#: sets the box's top (`_strip_top`).
_STRIP_TOP_DECAY = 10.0
#: Fraction of its edges by which a box cuts off the corner k_z = 0, the
#: zero that D_mu has for every pair.
_CORNER_CUT = 1e-9
#: Newton on a counted zero (`_box_zeros`) takes at most
#: ``_NEWTON_STEPS`` steps, stopping once a step falls to 1e-15 of the
#: root, and accepts the root when its last step is at most ``_ROOT_TOL``
#: of it; a box whose root fails is halved, at most ``_MAX_HALVINGS``
#: deep.
_NEWTON_STEPS = 60
_ROOT_TOL = 1e-10
_MAX_HALVINGS = 40


def _plate_fresnel(w, ep, k):
    """qn = sqrt((1 - eps) w^2 - k_z^2), the principal root, and per
    polarization (TE, TM) the numerator and denominator a - qn and a + qn
    of r_mu, a = q (TE) or eps q (TM), q = -i k_z, for the plate of
    permittivity ``ep`` at gap wavenumbers k."""
    q = -1j * k
    qn = np.sqrt((1.0 - ep) * (w * w) - k * k)
    return qn, [(a - qn, a + qn) for a in (q, ep * q)]


def _inverse_n(qn, eps):
    """1/n_mu per polarization (TE, TM) on a leading axis, n = qn (TE) or
    qn/eps (TM): the light-line limit of r_mu, where q = 0, r_mu ~
    -1 + 2 q/n_mu."""
    return np.stack([1.0 / qn, 1.0 / (qn / eps)])


def _round_trips(geom, w, eps, k, phase):
    """x_mu = r_mu,L r_mu,R exp(2 i k_z l) at gap wavenumbers k_z
    (broadcast against the frequencies w and each permittivity), per
    polarization on a leading axis (TE, TM): what the line and the zero
    test read.  ``eps`` holds one permittivity per plate material on its
    leading axis: plate L's alone for plates of one material
    (`_same_material`), which take r_mu^2, else (eps_L, eps_R).
    ``phase`` is exp(2 i k_z l), which the line builds as exp(2 i w l)
    exp(-2 y l): one real exponential per node, not a complex one.

    r_TE = (q - qn)/(q + qn) and r_TM = (eps q - qn)/(eps q + qn), with
    q = -i k_z and qn = sqrt((1 - eps) w^2 - k_z^2) the principal root
    (`_plate_fresnel`).  At real w, Im qn^2 = -Im eps w^2 - 2 Re k_z Im
    k_z < 0 in the closed first quadrant (Im eps > 0), so the root is
    analytic there; at complex w `_strip_residues` checks it."""
    r = [[num / den for num, den in _plate_fresnel(w, ep, k)[1]] for ep in eps]
    x = np.empty((len(_POLS),) + np.broadcast_shapes(r[0][0].shape, np.shape(phase)), complex)
    for i in range(len(_POLS)):
        np.multiply(r[0][i] * r[-1][i], phase, out=x[i])
    return x


def _line_integrand(geom, w, eps, y):
    """k_z^2 x_mu / (1 - x_mu) on the line k_z = w + i y, per
    polarization, shaped (2,) + y's shape, and the largest |x_mu| of each
    row of y (the panels' nodes), shaped (2, rows): the integrand of the
    line at real w (`_line_q_integral`, which takes its imaginary part)
    and at complex w (`_contour_line_integral`), and its share of the
    zero test."""
    k = w + 1j * y
    x = _round_trips(geom, w, eps, k,
                     np.exp((2j * geom.gap) * w) * np.exp((-2.0 * geom.gap) * y))
    return k * k * x / (1.0 - x), np.abs(x).max(axis=-1)


def _strip_top(geom, w, eps):
    """The top Y of the box 0 < Re k_z < Re w, Im w < Im k_z < Y searched
    for zeros of D_mu = 1 - x_mu, per frequency.

    Far from the origin r_TE -> 0 and r_TM -> (eps - 1)/(eps + 1); r_TM
    has its pole at k_z^2 = w^2/(eps + 1), and qn nears -i k_z once
    |k_z|^2 >> |1 - eps| |w|^2.  Past twice both scales |x_mu| <~
    4 |r_TM,L r_TM,R| exp(-2 l Im k_z), so the top adds the height where
    that falls to exp(-``_STRIP_TOP_DECAY``).  It lies above 2 |w|, so
    above the box's bottom."""
    far = np.max([np.maximum(np.abs(w / np.sqrt(ep + 1.0)),
                             np.abs(w) * np.sqrt(1.0 + np.abs(1.0 - ep))) for ep in eps], axis=0)
    rho = [np.abs((ep - 1.0) / (ep + 1.0)) for ep in eps]
    return 2.0 * far + (np.log1p(4.0 * rho[0] * rho[-1]) + _STRIP_TOP_DECAY) / (2.0 * geom.gap)


def _strip_may_hold_zeros(geom, w, eps, top, line_peak):
    """Whether the box of each frequency w = a + i b, 0 < Re k_z < a,
    b < Im k_z < top, may hold a zero of D_mu, per polarization: (2, n)
    booleans.

    By the symmetric form of Rouche's theorem (Glicksberg, Amer. Math.
    Monthly 83, 186 (1976)), D_mu = 1 - x_mu has as many zeros inside a
    contour as 1 has, none, when x_mu stays off [1, inf) on it.  The
    right and top edges are sampled: ``line_peak``, the largest |x_mu| at
    the line's quadrature nodes, ``_STRIP_TOP_SAMPLES`` + 1 points of the
    top edge and the points of the right edge level with r_TM's pole,
    where |x_TM| peaks, and with the branch point qn = 0, where guided
    waves of low-loss plates crowd.

    At real w (b = 0) the bottom edge is the real axis, where |x_mu| =
    |r_mu|^2 < 1 (passive plates) save at the corner k_z = 0, where x_mu =
    1: there x_mu ~ 1 - 2 q L_mu, L_mu = l + 1/n_L + 1/n_R with n = qn
    (TE) or qn/eps (TM) at k_z = 0.  Where both plates have Im eps(w) > 0
    the left edge is proved, not sampled: on k_z = i kappa, with qn = p -
    i s (p, s > 0), Im r_TE = 2 kappa s / |kappa + qn|^2 > 0 and Im r_TM =
    2 kappa s (Re eps + 2 p^2 / w^2) / |eps kappa + qn|^2 > 0, so x_mu =
    r_L r_R exp(-2 kappa l) stays off [0, inf); and q = -i k_z lies in the
    closed fourth quadrant next to the corner, so x_mu reaches [1, inf)
    there only if L_mu lies in the closed third quadrant.  Elsewhere (a
    complex w, or a plate with Im eps(w) = 0) the left edge is sampled
    too, at ``_STRIP_EDGE_SAMPLES`` points k_z = i kappa and at the
    points level with the pole and the branch point, and so, when b > 0,
    is the bottom edge (``_STRIP_EDGE_SAMPLES`` points); at real w the
    corner then needs Re L_mu > 0, which keeps |x_mu| < 1 next to it.  A
    frequency is flagged unless every sample stays below 1 and its corner
    passes."""
    l = geom.gap
    a, b = w.real[:, None], w.imag[:, None]
    w, eps, top = w[:, None], eps[:, :, None], top[:, None]
    level = np.clip(np.abs(np.imag(np.hstack([v for ep in eps for v in (
        w / np.sqrt(ep + 1.0), w * np.sqrt(1.0 - ep))]))), b, top)
    t = np.arange(_STRIP_TOP_SAMPLES + 1) / _STRIP_TOP_SAMPLES

    def peak_at(at, k):
        return np.abs(_round_trips(geom, w[at], eps[:, at], k,
                                   np.exp((2j * l) * k))).max(axis=-1)

    peak = np.maximum(peak_at(slice(None), np.hstack([t * a + 1j * top, a + 1j * level])),
                      line_peak)
    passive = (b[:, 0] == 0.0) & np.all(eps[:, :, 0].imag > 0.0, axis=0)
    sampled = np.flatnonzero(~passive)
    if len(sampled):
        u = np.arange(1, _STRIP_EDGE_SAMPLES + 1) / (_STRIP_EDGE_SAMPLES + 1.0)
        bs = b[sampled]
        left = [1j * np.minimum(bs + u / (2.0 * l * (1.0 - u)), top[sampled]),
                1j * level[sampled]]
        if b.any():
            left.append(u * a[sampled] + 1j * bs)
        peak[:, sampled] = np.maximum(peak[:, sampled], peak_at(sampled, np.hstack(left)))
    inv = [_inverse_n(np.sqrt((1.0 - ep[:, 0]) * w[:, 0] ** 2), ep[:, 0]) for ep in eps]
    corner = l + (inv[0] + inv[-1])
    third = (corner.real <= 0.0) & (corner.imag <= 0.0)
    return (peak >= 1.0) | np.where(passive, third, (b[:, 0] == 0.0) & ~(corner.real > 0.0))


def _strip_n(geom, w, eps, k):
    """N_mu = den_L den_R - num_L num_R exp(2 i k_z l) = den_L den_R D_mu,
    r_mu = num/den per plate, dN_mu/dk_z and den_L den_R at gap
    wavenumbers k, per polarization on a leading axis (``eps`` as in
    `_round_trips`): D_mu's zeros without r_TM's poles, and its analytic
    derivative."""
    e = np.exp((2j * geom.gap) * k)
    plates = []
    for ep in eps:
        qn, pairs = _plate_fresnel(w, ep, k)
        dqn = -k / qn
        # per polarization: num, den and their derivatives
        plates.append([(num, den, da - dqn, da + dqn)
                       for (num, den), da in zip(pairs, (-1j, -1j * ep))])
    n, dn, den = np.empty((3, len(_POLS)) + plates[0][0][0].shape, complex)
    for i in range(len(_POLS)):
        (num_l, den_l, dnum_l, dden_l), (num_r, den_r, dnum_r, dden_r) = \
            plates[0][i], plates[-1][i]
        nn = num_l * num_r
        den[i] = den_l * den_r
        n[i] = den[i] - nn * e
        dn[i] = dden_l * den_r + den_l * dden_r - e * (
            dnum_l * num_r + num_l * dnum_r + (2j * geom.gap) * nn)
    return n, dn, den


def _box_winding(geom, w, eps, pol, boxes):
    """`winding.box_winding` from 8 steps per edge of N_mu / k_z (`_strip_n`;
    the division removes the zero every pair has at the corner k_z = 0,
    which the boxes cut off), one box per (frequency, polarization) pair,
    ``boxes`` shaped (4, pairs): per pair, the winding and the boundary's
    points, N_mu and N_mu'; SingularityError for a zero on a boundary."""
    def sample(at, k):
        n, dn, _ = _strip_n(geom, w[at], eps[:, at], k)
        pick = np.arange(len(at))
        n, dn = n[pol[at], pick], dn[pol[at], pick]
        return n / k, dn / n - 1.0 / k, n, dn

    return box_winding(sample, boxes, 8, _CORNER_CUT, lambda j: SingularityError(
        f"a zero of D_mu lies on the boundary of the strip searched at omega={w[j]:.6g}",
        point=complex(w[j])))


def _box_zeros(geom, w, eps, i, box, count, boundary, depth=0):
    """The ``count`` zeros of D_mu (polarization i) inside ``box``, whose
    resolved boundary is ``boundary`` (points, N_mu and N_mu' there, see
    `_box_winding`).  A box with one zero starts Newton on N, with the
    analytic N', from the zero's first moment (1/2 pi i) times the
    boundary integral of k N'/N (trapezoid rule).  A box with more
    zeros, or whose Newton root is not converged and inside it, is halved
    across its longer side and each half with zeros searched alone;
    SingularityError when the halves do not add up to ``count`` or the
    search goes ``_MAX_HALVINGS`` deep.  Returns (roots, the roots one Newton
    step before)."""
    x0, x1, y0, y1 = box
    if count == 1:
        k, n, dn = boundary
        f = k * dn / n
        root = np.sum(0.5 * (np.roll(k, -1) - k) * (f + np.roll(f, -1))) / (2j * math.pi)
        prev, step = root, math.inf
        with np.errstate(all="ignore"):
            for _ in range(_NEWTON_STEPS):
                nn, dd, _ = _strip_n(geom, w, eps, root)
                step = nn[i] / dd[i]
                prev, root = root, root - step
                if not abs(step) > 1e-15 * abs(root):
                    break
        if x0 < root.real < x1 and y0 < root.imag < y1 and abs(step) <= _ROOT_TOL * abs(root):
            return np.array([root]), np.array([prev])
    if depth >= _MAX_HALVINGS:
        raise SingularityError(f"the strip at omega={w:.6g} counts {count} zeros of D_mu that "
                               "Newton cannot separate", point=complex(w))
    if x1 - x0 >= y1 - y0:
        halves = [(x0, 0.5 * (x0 + x1), y0, y1), (0.5 * (x0 + x1), x1, y0, y1)]
    else:
        halves = [(x0, x1, y0, 0.5 * (y0 + y1)), (x0, x1, 0.5 * (y0 + y1), y1)]
    found, before, total = [np.empty(0, complex)], [np.empty(0, complex)], 0
    for half, (winding, *rest) in zip(halves, _box_winding(
            geom, np.array([w, w]), np.stack([eps, eps], axis=1), np.array([i, i]),
            np.array(halves).T)):
        c = int(round(winding))
        total += c
        if c > 0:
            r, p = _box_zeros(geom, w, eps, i, half, c, rest, depth + 1)
            found.append(r)
            before.append(p)
    if total != count:
        raise SingularityError(f"the strip at omega={w:.6g} counts {count} zeros of D_mu but "
                               f"its halves count {total}", point=complex(w))
    return np.concatenate(found), np.concatenate(before)


def _strip_residues(geom, w, eps, line_peak):
    """-2 pi i times the residues of i k_z^2 x_mu / (1 - x_mu) at the
    zeros of D_mu between the real-Q path and the line, summed per
    polarization and frequency: the complex (2, n) terms that the line
    integral misses, and one error estimate per frequency, their change
    over the last Newton step.

    For w = a + i b, b >= 0, real Q runs k_z = sqrt(w^2 - Q^2) along
    Re k_z Im k_z = a b from w up to i infinity, and the zeros that count
    lie in R = {0 < Re k_z < a, Re k_z Im k_z > a b}; at real w, the strip
    0 < Re k_z < w, Im k_z > 0.  They are searched in the box 0 < Re k_z
    < a, b < Im k_z < top (`_strip_top`), which holds every zero of R,
    and kept when they lie in R.  At a zero p of N = den_L den_R - num_L
    num_R e (`_strip_n`) the residue is i p^2 den_L(p) den_R(p) / N'(p),
    so each zero adds 2 pi p^2 den_L den_R / N'.  Only the boxes that
    `_strip_may_hold_zeros` flags are counted, by the argument principle
    on their boundary (`_box_winding`, all flagged pairs at once), and
    only those that count zeros are searched (`_box_zeros`).

    Moving the path over R needs qn = sqrt((1 - eps) w^2 - k_z^2) analytic
    there and on the box.  With A = (1 - eps) w^2, the principal root's
    cut runs, in the first quadrant, through the points k_z^2 = A + t,
    t >= 0: where Im A > 0, the curve Re k_z Im k_z = Im A / 2 from
    sqrt(A) to the right.  A frequency whose curve enters the half-strip
    0 < Re k_z < a, Im k_z > b raises SingularityError; at real w, Im A =
    -Im eps w^2 <= 0 and no curve exists."""
    out = np.zeros((len(_POLS), len(w)), complex)
    err = np.zeros(len(w))
    if not len(w):
        return out, err
    a, b = w.real, w.imag
    for ep in eps:
        big_a = (1.0 - ep) * (w * w)
        c = 0.5 * big_a.imag
        x0 = np.sqrt(big_a).real
        cut = (c > 0.0) & (x0 < a) & (x0 * b < c)
        if cut.any():
            j = int(np.argmax(cut))
            raise SingularityError("the branch cut of the plate wavenumber crosses the zero "
                                   f"search at omega={w[j]:.6g}", point=complex(w[j]))
    top = _strip_top(geom, w, eps)
    pol, at = np.nonzero(_strip_may_hold_zeros(geom, w, eps, top, line_peak))
    boxes = np.array([np.zeros(len(at)), a[at], b[at], top[at]])
    for i, j, box, (winding, *boundary) in zip(
            pol, at, boxes.T, _box_winding(geom, w[at], eps[:, at], pol, boxes)):
        count = int(round(winding))
        if count < 0 or abs(winding - count) > _WINDING_SLACK:
            raise SingularityError(f"the zero count of D_mu reads {winding:.6g} at "
                                   f"omega={w[j]:.6g}", point=complex(w[j]))
        if count:
            roots, before = _box_zeros(geom, w[j], eps[:, j], i, tuple(box), count, boundary)
            inside = roots.real * roots.imag > a[j] * b[j]
            terms = []
            for p in (roots[inside], before[inside]):
                _, dn, den = _strip_n(geom, w[j], eps[:, j], p)
                terms.append(np.sum(2.0 * math.pi * p * p * den[i] / dn[i]))
            out[i, j] = terms[0]
            err[j] += abs(terms[0] - terms[1])
    return out, err


def _line_q_integral(geom, omegas, thermal_only, rel_tol, floor_scale):
    """`_inner_q_integral` for plates of one material: the round-trip sum
    on the line k_z = omega + i y, and the plates split after integration.

    With h = Q q S, q = -i k_z and S = sum_mu x_mu / (1 - x_mu) the
    round-trip sum (`_round_trips`), the Q-integrated emission of
    polarization mu is -c_bar Im H_mu / (2 pi^2), H_mu the integral of
    its h over real Q (Antezza et al., PRA 77, 022901 (2008)), and plate
    a's share is c_a / (2 c_bar), c_a its occupation.  In k_z =
    sqrt(omega^2 - Q^2), h dQ = i k_z^2 S dk_z, and real Q runs k_z from
    omega to 0, then up the imaginary axis.  Closed on the line omega +
    i y, where the round trip decays like exp(-2 y l),

        H_mu = line - 2 pi i sum Res,

    the residues at the zeros of D_mu in the strip 0 < Re k_z < omega,
    Im k_z > 0 (`_strip_residues`, which serves the complex frequencies
    of the contour tail alike, `_contour_line_integral`).  The line is
    one lockstep segment per frequency, in u with y = u / (2 l (1 - u))
    (`_inner_q_seeds`).  Its rows are one per polarization: C (c_L +
    c_R) times Im(k_z^2 x_mu / (1 - x_mu)) dy/du (`_line_integrand`),
    C c_a = PRESSURE_SIGN * _MEASURE * c_a the plates' share rows of
    `_frequency_factors`.  After integration the rows take off the
    residues, and each plate takes c_a / (c_L + c_R) of every row (0
    where neither plate emits): the channels come out in BREAKDOWN_KEYS
    order.  A frequency's error is the line's estimate plus the
    residues'.  Each frequency (> 0, see the module docstring) reads its
    permittivity and the shares off its column of the
    `_frequency_factors` tables.  The call owns one `_Workspace`, which
    keeps each chunk's rows until the next chunk and is dropped when the
    call returns.
    """
    work = _Workspace()
    omegas = np.asarray(omegas, dtype=float)
    factors = _frequency_factors(geom, omegas, thermal_only=thermal_only)
    share = factors["share"]        # per plate and frequency: C c_a
    eps, both = factors["complex"][1:2], share.sum(axis=0)
    peak = np.zeros((len(_POLS), len(omegas)))

    def rows(w, Q, jac, at):
        out = work.take("line.rows", len(_POLS) * Q.size).reshape((len(_POLS),) + Q.shape)
        g, top = _line_integrand(geom, w, eps[:, at, None], Q)
        np.maximum.at(peak, (slice(None), at), top)
        g = g.imag
        g *= jac
        return np.multiply(both[at][:, None], g, out=out)

    got, err = _q_integrals(geom, omegas, eps, rows, rel_tol, floor_scale, line=True)
    res, res_err = _strip_residues(geom, omegas, eps, peak)
    got -= both * res.imag
    split = np.divide(share, both, out=np.zeros_like(share), where=both != 0.0)
    err += np.abs(share).sum(axis=0) * res_err
    return (split[:, None] * got).reshape(len(BREAKDOWN_KEYS), len(omegas)), err


def _frequency_rule(nodes, segments, rel_tol, floor, max_panels, labels):
    """The outer frequency rule: `_adaptive_gk` over the NaN-padded rows
    of seed edges ``segments``, whose nodes go to ``nodes`` as
    `_eval_panels` chunks them.  A round of this rule (its seeds, or at
    most 64 split halves per segment, three segments at most) fits one
    chunk, so each round makes one ``nodes`` call: one lockstep Q call.

    nodes(x) returns (rows shaped (n_rows, len(x)), the inner errors at
    x); the rows drive the error test, the inner errors ride along.
    Returns (the n_rows integrals then the integrated inner error, shaped
    (n_rows + 1, segments); each segment's outer error estimate).
    """
    def f(x, seg):
        main, inner = nodes(x.ravel())
        return main, inner[None]

    (main, inner), e = _adaptive_gk(f, segments, rel_tol, abs_floor=floor,
                                    max_panels=max_panels, labels=labels)
    return np.vstack([main, inner]), e


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
    temperature (dc = 0).  In both cases the tail's Q integrals take the
    line k_z = omega + i y (`_contour_line_integral`), which reads H
    alone.  The first case alone also lets the propagating Q integral of
    real omega leave the real axis (`_line_q_integral`): there each
    plate's share c_a / (2 c_bar) of the analytic emission is its whole
    emission, whereas the plate split of a dissimilar pair at one
    temperature is not a function of H.
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


def _contour_line_integral(geom, omegas, weights, rel_tol, floor):
    """Im(weight H(omega)) at complex frequencies omega = a + i b, b >= 0,
    in lockstep: the Q integrals of the contour tail.

    H(omega) = int_0^inf Q q S dQ over real Q, with q = -i k_z, k_z =
    sqrt(omega^2 - Q^2) and S the round-trip sum (`_round_trips`), is the
    Lifshitz function continued off the real axis (`_line_q_integral`
    takes it at real omega).  In k_z, Q q S dQ = i k_z^2 S dk_z along the
    hyperbola Re k_z Im k_z = a b from omega up to i infinity; closed on
    the line k_z = omega + i y, where the round trip decays like
    exp(-2 (b + y) l),

        H = -int_0^inf k_z^2 S dy - 2 pi i sum Res,

    the residues at the zeros of D_mu between the two paths
    (`_strip_residues`).  The line is one lockstep segment per frequency,
    in u with y = u / (2 l (1 - u)) from `_LINE_MARKS`, as on the real
    axis, at ``_LINE_TOL`` times ``rel_tol`` with the constant absolute
    floor ``floor``; its row is the sum over the polarizations of Im(-w
    k_z^2 x_mu / (1 - x_mu) dy/du) (`_line_integrand`), w the weight, which
    folds in the path direction, the occupation and the outer Jacobian.
    Plates of one material read one permittivity, any other pair both.
    Returns (integrals, errors), one per frequency: the error is the
    line's estimate plus |weight| times the residues'.  The arrays are
    fresh, no workspace.
    """
    omegas = np.asarray(omegas, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    sides = (geom.left,) if _same_material(geom) else (geom.left, geom.right)
    eps = np.array([plate_eps(side, -1j * omegas) for side in sides])
    c = 0.5 / geom.gap
    peak = np.zeros((len(_POLS), len(omegas)))

    def f(u, seg):
        rest = 1.0 - u
        g, top = _line_integrand(geom, omegas[seg, None], eps[:, seg, None], c * u / rest)
        np.maximum.at(peak, (slice(None), seg), top)
        jac = (-c * weights[seg, None]) / (rest * rest)
        return np.imag(jac * (g[0] + g[1]))[None], np.empty((0,) + u.shape)

    (got, _), err = _adaptive_gk(f, np.tile(_LINE_MARKS, (len(omegas), 1)),
                                 _LINE_TOL * rel_tol, abs_floor=floor, max_panels=512,
                                 labels=lambda j: f"contour line at omega={omegas[j]:.4g}")
    res, res_err = _strip_residues(geom, omegas, eps, peak)
    return got[0] + np.imag(weights * res.sum(axis=0)), err + np.abs(weights) * res_err


def _contour_tail(geom, omega_c, rel_tol, thermal_only, scale):
    """The frequency integral past omega_c, closed on the line omega_c + i y.

    c_bar H is analytic for Re omega > 0 and Im omega >= 0 (the poles of
    coth lie on the imaginary axis, those of H in the lower half-plane),
    and decays like exp(-2 y l) up the line, so

        P_tail = -(1/2 pi^2) Re int_0^inf dy c_bar(omega_c + i y) H(omega_c + i y)

    with y = u/(l (1 - u)), u in [0, 1).  The outer rule in u
    (`_frequency_rule`) runs at ``rel_tol`` and the Q integrals of its
    nodes (`_contour_line_integral`: the line k_z = omega + i y and the
    residues, the real axis's rule) at ``_LINE_TOL`` times it, all with
    the absolute floor ``scale``, |P| of the real-axis part: the
    u-integral of the floor is ``scale`` itself.  Returns (P_tail, its
    error estimate: the outer estimate plus the integrated inner errors,
    each the line's estimate plus the residues').
    """
    l = geom.gap

    def nodes(u):
        rest = 1.0 - u
        omega = omega_c + 1j * (u / (l * rest))
        weights = (-1j / (2.0 * math.pi ** 2 * l)) * _mean_occupation(geom, omega, thermal_only) \
            / (rest * rest)
        got, err = _contour_line_integral(geom, omega, weights, rel_tol, scale)
        return got[None], err

    marks = [0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 1.0]     # y l = 1/4 .. 4
    (tail, inner), e = _frequency_rule(nodes, [marks], rel_tol, scale, 1024,
                                       lambda j: "contour tail")
    return float(tail[0]), float(e[0] + abs(inner[0]))


def _surface_band_marks(side, omega_max):
    """Edges bracketing the Re eps = -1 band of one plate.

    The evanescent TM channel resonates where the permittivity crosses -1
    (gap-split surface modes); the resulting spike in the frequency
    integrand is narrower than the generic panel seeding and must carry
    its own edges, otherwise a single Gauss-Kronrod panel can straddle it
    with a deceptively small error estimate.  Five edges, at 0, +-1 and
    +-4 widths (the plate's gamma, at least 1e-3) from the crossing, put
    the peak on an edge and its shoulders and wings in panels of their
    own; the adaptive rule splits what these leave unresolved.
    """
    if side.lambda0 <= 0.0:
        return []
    base = math.hypot(side.omega0, side.lambda0 / math.sqrt(2.0))
    width = max(side.bath.gamma, 1e-3)
    return [m for m in (base + c * width for c in (-4.0, -1.0, 0.0, 1.0, 4.0))
            if 0.0 < m < omega_max]


def _omega_edges(geom, omega_max):
    """Seed edges of the outer frequency rule on [0, omega_max].

    Each family marks a feature of the frequency integrand that one
    Gauss-Kronrod panel could straddle with a small error estimate:

    * surface band: five edges per plate around its Re eps = -1 point
      (`_surface_band_marks`), the narrow TM surface-mode peak;
    * material: 0.25, 0.5, 1, 1.5, 2 and 3 omega0 per plate, its
      resonance and shoulders, and omega0 + lambda0, above the band
      where Re eps < 0;
    * thermal: 0.5, 1, 3 and 8 T per plate at finite T, where its
      occupation turns over from the classical 2T/omega to the
      zero-point 1;
    * cavity: k pi/l for k = 1 .. 48, one edge per period of the round
      trip exp(2 i omega l) that ripples the integrand past the material
      scales; adaptivity refines past the cap.

    Returns the sorted edges, 0 and omega_max included.
    """
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
    step = math.pi / geom.gap
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
    with the floor described at `_q_integrals`, fed by the largest inner integral
    finished so far; the channel rows drive the outer error test, and the
    integrated inner errors enter ``err`` (see `PressureResult`).

    Past omega_max, identical plates (up to their temperatures) and plates
    at one bath temperature close the tail on the line omega_max + i y
    (`_contour_tail`, at rel_tol/4 with |P| of the real-axis part as its
    floor), where it decays like exp(-2 y l); each of its frequencies
    takes its Q integral on the line k_z = omega + i y with the residues
    between that line and the real-Q path.  Dissimilar plates at
    T_L != T_R keep the real-axis ceiling of 18 and the Euler slices,
    whose residue is about 1e-6 of the result, two more segments of the
    outer rule's call (64 panels each); like the contour tail, they take
    |P| of the real-axis part (its running sum) as their floor.

    Plates of one material (up to their temperatures) take each
    frequency's Q integral on the line k_z = omega + i y with the strip's
    residues (`_line_q_integral`), at 1/100 of the inner tolerance
    (``_LINE_TOL``); other pairs take it on the real Q axis.
    A zero of D_mu that the searched box's boundary cannot resolve, or a
    branch cut of a plate wavenumber across the box of a tail frequency,
    raises SingularityError.

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

    def nodes(ws):
        main, inner = _inner_q_integral(geom, ws, opts.thermal_only, inner_tol, state["scale"])
        state["scale"] = max(state["scale"], float(np.abs(main.sum(axis=0)).max()))
        return main, inner

    # Dissimilar plates at T_L != T_R: the (coth_L - coth_R) part of the
    # emission does not continue off the real axis, and splitting it off needs
    # per-plate kernels with the occupation factored out.  The tail stays on
    # the real axis: past the material scales the subtracted integrand is
    # dominated by a decaying cavity round-trip oscillation
    # cos(2 omega l + phi), and averaging the partial integral over the next
    # two half-period endpoints (Euler weights 3/4 and 1/4 on the half-period
    # slices, two more segments of the outer call) cancels its first two
    # orders, leaving about 1e-6 of the result.  The default configuration
    # takes this branch, and perfbench/reference.json was made by it; moving it
    # waits for that split and a regenerated reference.  Like the contour tail,
    # each slice takes |P| of the real-axis part (its running sum) as its
    # absolute floor: a slice far smaller than the result need not meet a
    # tolerance relative to itself.
    contour = _closes_on_contour(geom)
    edges = _omega_edges(geom, omega_max)
    segments, half = [edges], math.pi / (2.0 * geom.gap)
    if not contour:
        segments += [[omega_max + j * half, omega_max + (j + 1) * half]
                     + [math.nan] * (len(edges) - 2) for j in (0, 1)]

    def floor(sums):
        return np.r_[1e-14 / geom.gap ** 4, np.full(len(sums) - 1, abs(sums[0]))]

    labels = ("frequency integral", "frequency tail slice", "frequency tail slice")
    totals, errs = _frequency_rule(nodes, segments, opts.rel_tol / 2.0, floor,
                                   [1024, 64, 64][:len(segments)], labels.__getitem__)
    channels = totals[:-1, 0]
    breakdown = dict(zip(BREAKDOWN_KEYS, channels.tolist()))
    main = math.fsum(channels)
    if contour:
        tail, tail_err = _contour_tail(geom, omega_max, opts.rel_tol / 4.0, opts.thermal_only,
                                       abs(main))
        return PressureResult(value=main + tail,
                              err=float(errs[0] + abs(totals[-1, 0]) + tail_err),
                              breakdown=breakdown, omega_max_used=float(omega_max), tail=tail)
    s0, s1 = totals[:, 1], totals[:, 2]
    full = totals[:, 0] + 0.75 * s0 + 0.25 * s1
    outer_err = errs[0] + errs[1] + errs[2] + 0.5 * abs(sum(s0[:-1] + s1[:-1]))
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


#: zeta(3 - k) / k! for k = 4, 6, .., 18, the terms of Li_3(e^mu) past mu^3
#: in `_polylog3` (the odd ones vanish): zeta(1 - 2m) = -B_2m / (2m), B_n
#: the Bernoulli numbers, over (2m + 2)!.  They shrink like (mu / 2 pi)^k:
#: for |mu| <= ln 2 the last is 1e-19 of the sum.
_LI3_LOG_COEFFS = (-1 / 288, 1 / 86400, -1 / 10160640, 1 / 870912000, -1 / 63228211200,
                   691 / 2855960819712000, -1 / 251073478656000,
                   3617 / 52243369438740480000)


def _polylog3(x):
    """Li_3 on [0, 1): the plain series (geometric tail) up to x = 1/2,
    above it the expansion in mu = ln x, convergent for |mu| < 2 pi,

        Li_3(e^mu) = zeta(3) + zeta(2) mu + (3/2 - ln(-mu)) mu^2 / 2
                     + sum_{k >= 3} zeta(3 - k) mu^k / k!,

    whose cost does not grow as x nears 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"Li3 series needs 0 <= x < 1, got {x}")
    if x == 0.0:
        return 0.0
    if x <= 0.5:
        n = max(64, int(60.0 / -math.log(x)) + 1)
        k = np.arange(1, n + 1, dtype=float)
        return float(np.sum(x ** k / k ** 3))
    mu = math.log(x)
    rest = 0.0
    for c in reversed(_LI3_LOG_COEFFS):
        rest = rest * mu * mu + c
    rest = mu ** 3 * (mu * rest - 1.0 / 12.0)
    return 1.2020569031595942 + (math.pi ** 2 / 6.0 * mu
                                 + ((1.5 - math.log(-mu)) * mu * mu / 2.0 + rest))


#: Relative size of the last three Matsubara terms at which the sum stops.
_MATSUBARA_REL_TOL = 1e-9


def equilibrium_matsubara(geom, T):
    """Equilibrium pressure oracle: imaginary-frequency round-trip sum.

    P(l, T) = -(T/pi) * sum'_j integral_{xi_j}^inf dkappa kappa^2
              sum_mu rho_mu e^{-2 kappa l} / (1 - rho_mu e^{-2 kappa l}),

    xi_j = 2 pi j T, primed sum halving j = 0 (where only the TM round
    trip survives, summed in closed form); T = 0 falls back to the
    continuous integral.  Negative (attractive) for identical passive
    plates.  A negative, NaN or infinite T raises DomainError.
    """
    if not 0 <= T < math.inf:       # a NaN term would reset the settle counter forever
        raise DomainError(f"temperature must be >= 0 and finite, got {T}")
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
