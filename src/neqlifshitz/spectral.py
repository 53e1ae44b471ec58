"""Analytic-structure toolkit for the cavity response.

Root finding and classification for the oscillator response and the
plate-mode radicands, imaginary-axis scans of the multiple-reflection
denominator, branch-point inventory, removability verification for the
candidate gap modes at s = +-i*sqrt(Q^2 + kz^2), Talbot-contour Laplace
inversion of the oscillator kernel, and shrinking-radius Laurent tooling
that classifies the origin behaviour of the transient integrands.  Only
the Talbot inversion needs mpmath, which it imports on first use.

The transient integrands themselves live here too: the oscillator
(`assemble_dof_integrand`) and initial-field (`assemble_ic_integrand`)
pressures are zz-stress contractions (`theta_contract`) of the symbolic
Green blocks of :mod:`.em_green`.  Each block reduces to one pair of 3x3
coincidence tensors with one source factor, so a contracted pair costs
one trace pair.  The steady pressure (:mod:`.pressure`) needs none of
this: it integrates the closed form those contractions reduce to.

Conventions
-----------
* Everything lives on the retarded sheet: square roots follow the same
  branch prescription as the field blocks (`em_green.qz`), so on-axis
  evaluations are boundary values from Re(s) > 0.
* ``PoleReport.causal`` is True only when every root satisfies
  Re(s) < -tol.  Marginal spectra (lossless plates, gamma = 0) are
  reported with ``causal=False`` and ``marginal=True``, not rejected.
* First-order origin poles of the transient integrands are *reported
  and discarded*: their double residue is the time derivative of the
  causal step that switches the coupling on, not steady physics.  Every
  origin report records the discarded residue under ``"switch_on"``
  with ``"discarded": True`` so the rule stays visible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .em_green import (_PLATES, _POLS, _block_s, _from_plate_blocks, dmu, ic_z_block,
                       ic_z_integral, qz)
from .errors import ConvergenceError, DomainError, SingularityError
from .material import EpsilonTable, Material, _coth, qbm_green
from .winding import box_winding

METHOD_ANALYTIC = "analytic_quadratic"
METHOD_NEWTON = "newton_polish"

_RE_TOL = 1e-12

# Numerical settings of the toolkit, read when the functions run.

#: A minimum of |D_mu| at or below this on the imaginary axis is a
#: property violation.
DMU_FLOOR = 1e-3
#: Talbot contour nodes at small t; the count grows with t.
TALBOT_NODES = 64
#: Most Talbot contour nodes one point may take: a longer time raises
#: ConvergenceError instead of building ever larger fixtures (one point of
#: 954 nodes takes about 0.55 s; the tests reach 572, at t = 300).
TALBOT_MAX_NODES = 1024
#: Richardson start radius of the modified-mode check, in units of
#: max(omega_k, 1).
MODE_RADIUS = 3e-5
#: Normalized size below which the mode's numerator and denominator
#: count as zero.
MODE_TOL_ZERO = 1e-8
#: Largest cross-direction spread of the mode limit, relative to the
#: tensor scale.
MODE_TOL_LIMIT = 1e-6
#: Origin classification rings: radii RING_R0, RING_R0/RING_SHRINK, ...
#: (RING_COUNT of them), RING_POINTS angles each.
RING_R0 = 1e-2
RING_SHRINK = 4.0
RING_COUNT = 4
RING_POINTS = 8
#: Largest distance of a fitted log-log slope from the integer order.
SLOPE_TOL = 0.25
#: The fixed partner point of the origin reports' ring samples.
ORIGIN_PROBE = 0.31 + 0.23j
#: Radius and points per variable of the origin reports' Laurent torus.
TORUS_RADIUS = 5e-3
TORUS_POINTS = 12
#: Largest relative net divergent Laurent coefficient that counts as
#: cancelled.
CANCEL_TOL = 1e-5


# ----------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class PoleReport:
    """Roots of a response denominator: (s, order, residue-or-None) triples.

    ``causal`` is True when every root lies strictly left of the
    imaginary axis; ``marginal`` flags spectra whose rightmost roots sit
    exactly on it (lossless oscillators).  ``method`` names the finder.
    """

    roots: tuple
    causal: bool
    method: str
    marginal: bool = False

    @property
    def max_re(self):
        return max((s.real for s, _, _ in self.roots), default=-math.inf)

    def as_report(self):
        """JSON-friendly dict (consumed by the command-line verifier)."""
        return {
            "roots": [
                {
                    "s": [s.real, s.imag],
                    "order": order,
                    "residue": None if res is None else [res.real, res.imag],
                }
                for s, order, res in self.roots
            ],
            "causal": self.causal,
            "marginal": self.marginal,
            "method": self.method,
        }


@dataclass(frozen=True)
class BranchInventory:
    """Square-root branch cuts: (kind, (endpoint, endpoint)) entries.

    ``gap_sqrt`` is the finite vertical interval (+iQ, -iQ) of the gap
    wavenumber; ``plate_sqrt`` entries pair the odd-order zeros (and,
    for coupled oscillator plates, the simple response poles) of the
    plate radicand eps(s) s^2 + Q^2 into vertical segments.  Cutoff
    baths add one short real-axis segment: a radicand zero pinned just
    left of the real response pole.  All plate segments sit in
    Re(s) <= 0 for lossy plates.
    """

    cuts: tuple

    def as_report(self):
        return {
            "cuts": [
                {"kind": kind, "endpoints": [[a.real, a.imag], [b.real, b.imag]]}
                for kind, (a, b) in self.cuts
            ]
        }


@dataclass(frozen=True)
class DmuScan:
    """Imaginary-axis scan of |D_mu|; unpacks as (min_abs, argmin)."""

    min_abs: float
    argmin: float
    floor: float
    violation: bool
    pol: str
    Q: float
    n_points: int
    n_skipped: int = 0

    def __iter__(self):
        return iter((self.min_abs, self.argmin))

    def as_report(self):
        return {
            "min_abs": self.min_abs,
            "argmin": self.argmin,
            "floor": self.floor,
            "violation": self.violation,
            "pol": self.pol,
            "Q": self.Q,
            "n_points": self.n_points,
            "n_skipped": self.n_skipped,
        }


@dataclass(frozen=True)
class ModifiedModeCheck:
    """0/0 verdict at s = +-i*omega_k; unpacks to the 4-tuple contract.

    ``num_zero``/``den_zero`` are the normalized magnitudes of the
    vanishing numerator/denominator pair at the exact root (worst of the
    two signs), ``lhopital_limit`` the Richardson-extrapolated limit of
    the source-integrated tensor trace at +i*omega_k, ``spread`` the
    worst cross-direction disagreement relative to the tensor scale.
    """

    num_zero: float
    den_zero: float
    lhopital_limit: complex
    removable: bool
    spread: float
    omega_k: float

    def __iter__(self):
        return iter((self.num_zero, self.den_zero, self.lhopital_limit,
                     self.removable))

    def as_report(self):
        return {
            "num_zero": self.num_zero,
            "den_zero": self.den_zero,
            "lhopital_limit": [self.lhopital_limit.real, self.lhopital_limit.imag],
            "removable": self.removable,
            "spread": self.spread,
            "omega_k": self.omega_k,
        }


@dataclass(frozen=True)
class OriginOrder:
    """Shrinking-radius classification of a pole at the origin.

    ``order`` is the pole order (0 = regular or vanishing), ``coeff``
    the leading Laurent coefficient c_{-order} from an angular mean at
    the smallest radius, ``slope`` the fitted log-log growth rate
    (close to -order when resolved).
    """

    order: int
    coeff: complex
    slope: float
    resolved: bool


# ----------------------------------------------------------------------
# polynomial helpers


def qbm_char_poly(mat):
    """Cleared-denominator polynomial of the oscillator response.

    ``none``/``ohmic`` kinds give s^2 + gamma*s + omega0^2; the cutoff
    kind clears its s + cutoff denominator into the cubic
    (s^2 + omega0^2)(s + cutoff) + gamma*cutoff*s.
    """
    w2 = mat.omega0 ** 2
    bath = mat.bath
    if bath.kind in ("none", "ohmic"):
        g = bath.gamma if bath.kind == "ohmic" else 0.0
        return np.array([1.0, g, w2])
    lam = bath.cutoff
    return np.array([1.0, lam, w2 + bath.gamma * lam, lam * w2])


def _response_numerator_poly(mat):
    if mat.bath.kind == "ohmic_lorentz_cutoff":
        return np.array([1.0, mat.bath.cutoff])
    return np.array([1.0])


def _horner(coeffs, x):
    """The polynomial ``coeffs`` (highest power first) at x, by Horner's
    rule in Python arithmetic: the same operations, in the same order, as
    ``np.polyval`` on a scalar."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _newton_polish(coeffs, roots, max_iter=48):
    """Polish companion-matrix roots on the polynomial itself."""
    coeffs = [float(c) for c in coeffs]
    deriv = [float(c) for c in np.polyder(coeffs)]
    mags = [abs(c) for c in coeffs]
    out = []
    for s0 in np.atleast_1d(roots):
        s = complex(s0)
        for _ in range(max_iter):
            p = _horner(coeffs, s)
            scale = _horner(mags, abs(s)) + 1e-300
            if abs(p) <= 1e-14 * scale:
                break
            dp = _horner(deriv, s)
            if dp == 0:
                break
            step = p / dp
            s -= step
            if abs(step) <= 1e-16 * (1.0 + abs(s)):
                break
        p = _horner(coeffs, s)
        scale = _horner(mags, abs(s)) + 1e-300
        # multiple roots flatten the residual floor to ~eps**(order/…);
        # accept those, reject genuine stagnation far from a root
        if abs(p) > 1e-9 * scale:
            raise ConvergenceError(
                f"root polish stalled at s = {s} with |p(s)| = {abs(p):.3e}")
        out.append(s)
    return out


def _cluster_roots(roots, rtol=3e-6):
    """Group nearly coincident roots into (center, order) pairs."""
    rem = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
    groups = []
    while rem:
        seed = rem.pop(0)
        members = [seed]
        scale = max(1.0, abs(seed))
        keep = []
        for z in rem:
            if abs(z - seed) <= rtol * scale:
                members.append(z)
            else:
                keep.append(z)
        rem = keep
        center = sum(members) / len(members)
        groups.append((center, len(members)))
    return groups


def _conjugate_closed(groups, rtol=1e-9):
    """Snap root groups of a real polynomial into exact conjugate pairs."""
    scale = max([1.0] + [abs(s) for s, _ in groups])
    out = []
    upper = []
    for s, order in groups:
        if abs(s.imag) <= rtol * scale:
            out.append((complex(s.real, 0.0), order))
        elif s.imag > 0:
            upper.append((s, order))
    for s, order in upper:
        out.append((s, order))
        out.append((s.conjugate(), order))
    out.sort(key=lambda g: (g[0].real, g[0].imag))
    return out


def _causal_flags(roots):
    """(causal, marginal) from a root list; tolerance scales with |s|."""
    if not roots:
        return True, False
    scale = max(1.0, max(abs(s) for s, _, _ in roots))
    mx = max(s.real for s, _, _ in roots)
    causal = mx < -_RE_TOL * scale
    marginal = (not causal) and mx <= _RE_TOL * scale
    return causal, marginal


def winding_count(coeffs, re_lo, re_hi, im_lo, im_hi):
    """Argument-principle root count of a polynomial inside a rectangle
    (`winding.box_winding` on p and p'/p; one box takes fewer rounds from
    32 steps per edge), exact unless a root sits on the contour
    (SingularityError)."""
    slope = np.polyder(coeffs)
    on_contour = SingularityError("a root sits on the counting contour")

    def sample(_, z):
        vals = np.polyval(coeffs, z)
        if not vals.all():
            raise on_contour
        return vals, np.polyval(slope, z) / vals

    box = np.array([[re_lo], [re_hi], [im_lo], [im_hi]], dtype=float)
    (winding, _), = box_winding(sample, box, 32, 0.0, lambda _: on_contour)
    return int(round(winding))


def _verify_count(coeffs, groups):
    """Check the grouped root count against an argument-principle count."""
    degree = len(np.trim_zeros(np.atleast_1d(coeffs), "f")) - 1
    total = sum(order for _, order in groups)
    if total != degree:
        raise ConvergenceError(
            f"root grouping lost multiplicity: {total} of {degree}")
    span = max([1.0] + [abs(s) for s, _ in groups]) * 1.8 + 1.0
    counted = winding_count(coeffs, -span, span, -span, span)
    if counted != degree:
        raise ConvergenceError(
            f"winding count {counted} disagrees with degree {degree}")


# ----------------------------------------------------------------------
# oscillator-response poles


def find_qbm_poles(mat):
    """Locate the poles of the oscillator response kernel.

    Quadratic kinds are solved in closed form; the cutoff cubic is
    companion-matrix seeded, Newton polished and winding-verified.
    Residues accompany simple roots; a critically damped double root
    reports ``order=2`` with the residue slot absent.
    """
    bath = mat.bath
    w0 = mat.omega0
    if bath.kind == "none" or bath.gamma == 0.0:
        res = -0.5j / w0
        roots = ((complex(0.0, w0), 1, res),
                 (complex(0.0, -w0), 1, res.conjugate()))
        return PoleReport(roots=roots, causal=False, method=METHOD_ANALYTIC,
                          marginal=True)
    if bath.kind == "ohmic":
        g = bath.gamma
        disc = 0.25 * g * g - w0 * w0
        if abs(disc) <= 1e-14 * w0 * w0:
            roots = ((complex(-0.5 * g, 0.0), 2, None),)
        elif disc > 0:
            pair = (-0.5 * g + math.sqrt(disc), -0.5 * g - math.sqrt(disc))
            roots = tuple((complex(sj, 0.0), 1, complex(1.0 / (2.0 * sj + g)))
                          for sj in pair)
        else:
            s1 = complex(-0.5 * g, math.sqrt(-disc))
            r1 = 1.0 / (2.0 * s1 + g)
            roots = ((s1.conjugate(), 1, r1.conjugate()), (s1, 1, r1))
        causal, marginal = _causal_flags(roots)
        return PoleReport(roots=roots, causal=causal, method=METHOD_ANALYTIC,
                          marginal=marginal)
    coeffs = qbm_char_poly(mat)
    polished = _newton_polish(coeffs, np.roots(coeffs))
    groups = _conjugate_closed(_cluster_roots(polished))
    _verify_count(coeffs, groups)
    numer = _response_numerator_poly(mat)
    dpoly = np.polyder(coeffs)
    roots = []
    for s0, order in groups:
        residue = None
        if order == 1:
            residue = complex(np.polyval(numer, s0) / np.polyval(dpoly, s0))
        roots.append((s0, order, residue))
    roots = tuple(roots)
    causal, marginal = _causal_flags(roots)
    return PoleReport(roots=roots, causal=causal, method=METHOD_NEWTON,
                      marginal=marginal)


# ----------------------------------------------------------------------
# plate-mode roots and branch inventory


def _transverse_q(Q):
    """A transverse wavenumber as a float; DomainError unless finite and >= 0."""
    Q = float(Q)
    if not 0.0 <= Q < math.inf:
        raise DomainError(f"Q must be finite and >= 0, got {Q}")
    return Q


def plate_mode_roots(side, Q, kz=0.0):
    """Roots of eps(s) s^2 + Q^2 + kz^2 = 0, cleared of denominators.

    With kz = 0 these are the zeros of the plate radicand (branch-point
    candidates of the plate wavenumber); with kz != 0 they locate the
    would-be plate-region mode denominators qn = -+ i kz.  Lossy plates
    put every root strictly in the left half-plane; lossless ones are
    marginal.  Every root of the cleared polynomial is a genuine
    radicand zero: a cancellation against the clearing denominator
    would need lambda0^2 N(s) s^2 to vanish at a response pole, and
    neither s = 0 nor the numerator zero is one.  Q must be finite and
    >= 0, and kz finite (DomainError).
    """
    Q = _transverse_q(Q)
    kz = float(kz)
    if not math.isfinite(kz):
        raise DomainError(f"kz must be finite, got {kz}")
    big_c = Q ** 2 + kz ** 2
    if isinstance(side, EpsilonTable):
        eps0 = complex(side.eps[0])
        if eps0 == 0:
            raise DomainError("zero permittivity has no plate modes")
        if big_c == 0.0:
            roots = ((0.0j, 2, None),)
        else:
            v = cmath.sqrt(-big_c / eps0)
            roots = _conjugate_closed([(v, 1), (-v, 1)])
            roots = tuple((s, o, None) for s, o in roots)
        causal, marginal = _causal_flags(roots)
        return PoleReport(roots=roots, causal=causal,
                          method=METHOD_ANALYTIC, marginal=marginal)
    if not isinstance(side, Material):
        raise DomainError(f"unsupported plate description {type(side).__name__}")
    if side.lambda0 == 0.0:
        if big_c == 0.0:
            roots = ((0.0j, 2, None),)
        else:
            w = math.sqrt(big_c)
            roots = ((complex(0.0, -w), 1, None), (complex(0.0, w), 1, None))
        return PoleReport(roots=roots, causal=False, method=METHOD_ANALYTIC,
                          marginal=True)
    denom = qbm_char_poly(side)
    eps_num = np.polyadd(denom,
                         side.lambda0 ** 2 * _response_numerator_poly(side))
    poly = np.polyadd(np.polymul(eps_num, [1.0, 0.0, 0.0]), big_c * denom)
    polished = _newton_polish(poly, np.roots(poly))
    groups = _conjugate_closed(_cluster_roots(polished))
    _verify_count(poly, groups)
    roots = tuple((s0, order, None) for s0, order in groups)
    causal, marginal = _causal_flags(roots)
    return PoleReport(roots=roots, causal=causal, method=METHOD_NEWTON,
                      marginal=marginal)


def branch_inventory(geom, Q):
    """Catalogue the square-root branch cuts at transverse wavenumber Q.

    The gap wavenumber contributes the finite vertical interval with
    endpoints +-iQ (a point for Q = 0).  Each plate contributes the
    odd-order zeros of its radicand eps(s) s^2 + Q^2, plus — for plates
    with a coupled oscillator — the simple response poles, around which
    the radicand also changes sign.  Endpoints are paired into vertical
    segments (conjugate pairs; leftover real points pair consecutively).
    """
    Q = _transverse_q(Q)
    cuts = [("gap_sqrt", (complex(0.0, Q), complex(0.0, -Q)))]
    for plate in ("L", "R"):
        side = geom.side(plate)
        points = [s0 for s0, order, _ in plate_mode_roots(side, Q).roots
                  if order % 2 == 1]
        if isinstance(side, Material) and side.lambda0 != 0.0:
            points.extend(s0 for s0, order, _ in find_qbm_poles(side).roots
                          if order % 2 == 1)
        for pair in _pair_vertical(points):
            cuts.append(("plate_sqrt", pair))
    return BranchInventory(cuts=tuple(cuts))


def _pair_vertical(points, rtol=1e-9):
    """Pair branch points into segments: conjugates first, then reals."""
    scale = max([1.0] + [abs(p) for p in points])
    upper = sorted((p for p in points if p.imag > rtol * scale),
                   key=lambda z: (z.real, z.imag))
    lower = [p for p in points if p.imag < -rtol * scale]
    reals = sorted(p.real for p in points if abs(p.imag) <= rtol * scale)
    pairs = []
    for u in upper:
        if not lower:
            raise ConvergenceError("unpaired complex branch point")
        j = min(range(len(lower)), key=lambda i: abs(lower[i] - u.conjugate()))
        pairs.append((u, lower.pop(j)))
    if lower:
        raise ConvergenceError("unpaired complex branch point")
    if len(reals) % 2:
        raise ConvergenceError("odd number of real branch points")
    for a, b in zip(reals[0::2], reals[1::2]):
        pairs.append((complex(a, 0.0), complex(b, 0.0)))
    return pairs


# ----------------------------------------------------------------------
# imaginary-axis scan of the multiple-reflection denominator


def scan_dmu_imaginary_axis(geom, pol, Q, omega_grid):
    """Minimum of |D_mu| along s = i*omega over a real frequency grid.

    The grid must be finite, sorted, straddle zero and resolve the gap
    round-trip phase (spacing <= pi/(8 l)), and Q finite and >= 0
    (DomainError otherwise).  A minimum at or below
    ``DMU_FLOOR`` is recorded as a property violation in the result, not
    raised.  Grid points on the gap branch points |omega| = Q (see
    `branch_inventory`), where q = 0 makes r_mu = -1 and D_mu = 0 for
    every material, and isolated grid points landing on a response pole
    of a lossless material are skipped and counted.  A grid point within
    4 ulps of the grid's largest |omega| of a branch point is one that
    rounding moved off it (``np.linspace`` places its points to about
    that), and is skipped as the branch point.
    """
    Q = _transverse_q(Q)
    grid = np.asarray(omega_grid, dtype=float).ravel()
    if not np.all(np.isfinite(grid)):
        raise DomainError("omega_grid must be finite")
    if grid.size < 2:
        raise DomainError("scan needs at least two frequencies")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("omega_grid must be strictly increasing")
    if grid[0] > 0.0 or grid[-1] < 0.0:
        raise DomainError("omega_grid must straddle zero")
    step = float(np.max(np.diff(grid)))
    if step > math.pi / (8.0 * geom.gap) * (1.0 + 1e-12):
        raise DomainError(
            f"grid spacing {step:.4g} too coarse for the round-trip phase "
            f"pi/l = {math.pi / geom.gap:.4g} (need >= 8 points per period)")
    live = np.abs(np.abs(grid) - Q) > 4.0 * np.spacing(np.abs(grid).max())
    if not live.any():
        raise DomainError("omega_grid holds only the gap branch points |omega| = Q")
    skipped = grid.size - int(np.count_nonzero(live))
    vals = np.full(grid.shape, np.nan)
    try:
        vals[live] = np.abs(dmu(geom, 1j * grid[live], Q, pol))
    except SingularityError:
        for i in np.flatnonzero(live):
            try:
                vals[i] = abs(dmu(geom, complex(0.0, grid[i]), Q, pol))
            except SingularityError:
                skipped += 1
        if skipped == grid.size:
            raise
    i0 = int(np.nanargmin(vals))
    min_abs = float(vals[i0])
    return DmuScan(min_abs=min_abs, argmin=float(grid[i0]), floor=DMU_FLOOR,
                   violation=bool(min_abs <= DMU_FLOOR), pol=pol, Q=Q,
                   n_points=int(grid.size), n_skipped=skipped)


# ----------------------------------------------------------------------
# modified-mode removability


def modified_mode_check(geom, Q, kz):
    """Verify that s = +-i*sqrt(Q^2 + kz^2) is removable, not a pole.

    At each sign the vanishing gap denominator q_z -+ i kz and its
    matching two-term numerator are evaluated exactly at the root (both
    must be zero to ``MODE_TOL_ZERO`` after normalization).  The limit
    of the source-integrated tensor is then extrapolated with two
    Richardson levels (radii r, r/2, r/4 with r = MODE_RADIUS *
    max(omega_k, 1)) along four approach directions confined to
    Re(s) >= 0 — the root sits on the gap branch cut, so left-half
    approaches would change sheet — and must agree across directions to
    ``MODE_TOL_LIMIT`` of the tensor scale.
    Disagreement yields ``removable=False`` with the data.  The 24
    approach points (2 signs x 4 directions x 3 radii) share one
    `ic_z_block` build.  Q must be finite and >= 0, and kz finite and
    nonzero (DomainError).
    """
    Q = _transverse_q(Q)
    kz = float(kz)
    if not math.isfinite(kz):
        raise DomainError(f"kz must be finite, got {kz}")
    if kz == 0.0:
        raise DomainError("kz = 0 puts the candidate mode on the gap branch "
                          "point +-iQ; the check needs omega_k > Q")
    wk = math.hypot(Q, kz)
    z = geom.z_field
    length = geom.gap
    r0 = MODE_RADIUS * max(wk, 1.0)
    sign = np.array([+1.0, -1.0])
    s_star = 1j * wk * sign
    q = qz(1.0, s_star, Q)
    cp = q + 1j * kz
    cm = q - 1j * kz
    # the vanishing denominator: cm on the z' > z branch, which decays
    # upward, else cp on the z' < z branch, which decays downward
    upper = np.abs(cm) <= np.abs(cp)
    c_root = np.where(upper, cm, cp)
    edge = np.where(upper, 1.0, -1.0)
    den_zero = float(np.max(np.abs(c_root) / (np.abs(q) + abs(kz))))
    numerator = (-np.exp(1j * kz * z)
                 + np.exp(-c_root * length / 2.0) * np.exp(edge * q * z))
    num_zero = float(np.max(np.abs(numerator)))  # both pieces are unimodular
    dirs = np.array([1.0 + 0.0j, cmath.exp(0.25j * math.pi),
                     cmath.exp(-0.25j * math.pi), 1.0j])
    dirs = np.where(sign[:, None] > 0, dirs, dirs.conj())
    steps = r0 * np.array([1.0, 0.5, 0.25])
    t = ic_z_integral(geom, s_star[:, None, None] + steps * dirs[..., None], Q, kz)
    extrap = (8.0 * t[:, :, 2] - 6.0 * t[:, :, 1] + t[:, :, 0]) / 3.0
    mean = extrap.mean(axis=1)
    scale = np.maximum(1.0, np.max(np.abs(mean), axis=(-2, -1)))
    worst = np.max(np.abs(extrap - mean[:, None]), axis=(-3, -2, -1)) / scale
    spread = float(np.max(worst))
    limit_trace = complex(np.trace(mean[0]))
    removable = (num_zero <= MODE_TOL_ZERO and den_zero <= MODE_TOL_ZERO
                 and spread <= MODE_TOL_LIMIT)
    return ModifiedModeCheck(num_zero=num_zero, den_zero=den_zero,
                             lhopital_limit=limit_trace, removable=removable,
                             spread=spread, omega_k=wk)


# ----------------------------------------------------------------------
# Talbot inversion of the oscillator kernel


_TALBOT_CACHE = {}
#: Bits the fixed-point node sum carries beyond the working precision.
_TALBOT_GUARD = 32


def _fixed(z, bits):
    """(re, im) integers nearest to z * 2**bits, for an mpmath number z
    at the working precision."""
    import mpmath as mp

    return (int(mp.nint(mp.ldexp(mp.re(z), bits))),
            int(mp.nint(mp.ldexp(mp.im(z), bits))))


def _fixed_float(x, bits):
    """floor(x * 2**bits) for a float x, exact for x above 2**(52 - bits)."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den


def _talbot_fixtures(n_eff):
    """Nodes and canonical factors of the fixed cot-shaped contour, cached
    per node count.

    Node k = 0 .. n_eff - 1 sits at s_k = r * base_k: base_0 = 1 (the
    node s = r, quadrature weight w_0 = 1/2) and base_k = theta_k (cot
    theta_k + i), theta_k = pi k / n_eff, with w_k = 1 + i sigma_k.  At
    the canonical radius r = 2M/(5t) the time factor exp(t s_k) is
    exp((2M/5) base_k), so the node factor f_k = exp(t s_k) w_k is a
    constant.  All of it is computed once in mpmath at max(35, 25 +
    int(0.2 n_eff)) digits (the first call imports mpmath).  Per node,
    b = base_k, b^2, b^3, f = f_k and f b are taken from those mpmath
    values and kept as (re, im) Python integers scaled by 2**bits, bits
    the working precision plus ``_TALBOT_GUARD``: `_talbot_point` forms
    the kernel's polynomials in s = r b from them.  Nodes whose factor
    rounds to zero (far down the left tail it is below 2**-bits) are
    dropped here.  Returns (bits, nodes), one flat 10-tuple (b, b^2, b^3,
    f, f b) per kept node.
    """
    fx = _TALBOT_CACHE.get(n_eff)
    if fx is None:
        import mpmath as mp

        with mp.workdps(max(35, 25 + int(0.2 * n_eff))):
            bits = mp.mp.prec + _TALBOT_GUARD
            rt = mp.mpf(2 * n_eff) / 5
            base, weight = [mp.mpf(1)], [mp.mpf(0.5)]
            for k in range(1, n_eff):
                th = mp.pi * k / n_eff
                ct = mp.cot(th)
                base.append(th * (ct + 1j))
                weight.append(1 + 1j * (th + (th * ct - 1) * ct))
            nodes = []
            for b, w in zip(base, weight):
                f = mp.e ** (rt * b) * w
                if _fixed(f, bits) != (0, 0):
                    nodes.append(tuple(x for v in (b, b * b, b * b * b, f, f * b)
                                       for x in _fixed(v, bits)))
            fx = (bits, nodes)
        _TALBOT_CACHE[n_eff] = fx
    return fx


_NODE_ANGLES = {}


def _min_node_gap(n_eff, r, poles):
    """Smallest distance of a contour node from a pole, relative to
    1 + |pole|, for each radius of r (a float or an array of them) on the
    contour of n_eff nodes; shaped like r.  The nodes r and r theta_k (cot
    theta_k + i) round as on one radius at a time; the node angles theta_k
    and cot theta_k + i are cached per node count."""
    angles = _NODE_ANGLES.get(n_eff)
    if angles is None:
        th = np.pi * np.arange(1, n_eff) / n_eff
        angles = _NODE_ANGLES[n_eff] = (th, 1.0 / np.tan(th) + 1j)
    th, cot_i = angles
    r = np.asarray(r, dtype=float)[..., None, None]
    nodes = np.concatenate([r + 0.0j, r * th * cot_i], axis=-1)     # (..., 1, nodes)
    scale = np.array([1.0 + abs(p) for p in poles])
    return (np.abs(nodes - np.array(poles)[:, None]).min(axis=-1) / scale).min(axis=-1)


def _talbot_node_count(t, r_floor, shift=0):
    """The node count of the contour at time t > 0, ``shift`` counts past
    the first one: max(TALBOT_NODES, ceil(2.5 t r_floor)) + shift, or
    ConvergenceError (naming t and the count) past TALBOT_MAX_NODES."""
    n_eff = max(TALBOT_NODES, int(math.ceil(2.5 * t * r_floor))) + shift
    if n_eff > TALBOT_MAX_NODES:
        raise ConvergenceError(
            f"Talbot inversion at t={t:.6g} needs {n_eff} contour nodes, more than "
            f"TALBOT_MAX_NODES = {TALBOT_MAX_NODES}")
    return n_eff


def _talbot_contours(t, r_floor, poles):
    """(n_eff, r) of the contour of each time of the 1-d array t > 0.

    Each time starts at its first node count (`_talbot_node_count`) with
    the canonical radius r = 2M/(5t); one `_min_node_gap` call per first
    count checks all of its times.  A time with a node within 1e-6 of a
    pole moves to the next node count, with its own canonical radius and
    nodes, and raises SingularityError if eight counts in a row fail; no
    count may pass ``TALBOT_MAX_NODES``.
    """
    counts = np.array([_talbot_node_count(ti, r_floor) for ti in t.tolist()], dtype=int)
    radii = 2.0 * counts / (5.0 * t)
    gaps = np.empty(t.shape)
    for n_eff in np.unique(counts).tolist():
        at = counts == n_eff
        gaps[at] = _min_node_gap(n_eff, radii[at], poles)
    contours = list(zip(counts.tolist(), radii.tolist()))
    for i in np.flatnonzero(~(gaps > 1e-6)).tolist():    # NaN refuses too
        ti = float(t[i])
        for shift in range(1, 8):
            n_eff = _talbot_node_count(ti, r_floor, shift)
            r = 2.0 * n_eff / (5.0 * ti)
            if _min_node_gap(n_eff, r, poles) > 1e-6:
                contours[i] = (n_eff, r)
                break
        else:
            raise SingularityError(
                "inversion contour cannot avoid a response pole",
                point=min(poles, key=lambda p: abs(p)))
    return contours


def _talbot_point(mat, t, n_eff, r):
    """G(t) = (r/M) sum_k Re(f_k F(s_k)), f_k = exp(t s_k) w_k the node
    factors of `_talbot_fixtures` and F = N/D the kernel transform:
    (s + L) / ((s^2 + omega0^2)(s + L) + gamma L s) for the cutoff bath,
    1 / (s^2 + gamma s + omega0^2) otherwise (gamma = 0 without a bath).

    The sum runs in Python integers scaled by 2**bits.  At s = r b, D and
    f N are polynomials in r whose coefficients are per-t scalars (r, r^2,
    r^3, gamma r, L r^2, (omega0^2 + gamma L) r, from the exact ratio of
    the float r) times the per-node powers b, b^2, b^3, f and f b of
    `_talbot_fixtures`: 8 integer products per node for the ohmic kernel,
    14 for the cutoff one.  Each term Re(f N conj(D)) / |D|^2 takes one
    floor division, and the result one correctly rounded true division.
    The contour, n_eff nodes at the canonical radius r = 2M/(5t), comes
    from `_talbot_contours`.
    """
    bits, nodes = _talbot_fixtures(n_eff)
    num, den = r.as_integer_ratio()     # r = num / 2**e exactly
    e = den.bit_length() - 1
    r1, r2, r3 = ((num ** j << bits) >> (j * e) for j in (1, 2, 3))
    bath = mat.bath
    w0 = _fixed_float(mat.omega0, bits)
    w2 = (w0 * w0) >> bits
    g = _fixed_float(bath.gamma, bits)
    total = 0
    if bath.kind == "ohmic_lorentz_cutoff":
        # N = r b + L, D = r^3 b^3 + L r^2 b^2 + (w2 + g L) r b + L w2
        lam = _fixed_float(bath.cutoff, bits)
        lr2 = (lam * r2) >> bits
        wr = ((w2 + ((g * lam) >> bits)) * num) >> e
        lw2 = (lam * w2) >> bits
        for br, bi, b2r, b2i, b3r, b3i, fr, fi, fbr, fbi in nodes:
            dr = ((r3 * b3r + lr2 * b2r + wr * br) >> bits) + lw2
            di = (r3 * b3i + lr2 * b2i + wr * bi) >> bits
            nr, ni = (r1 * fbr + lam * fr) >> bits, (r1 * fbi + lam * fi) >> bits
            total += ((nr * dr + ni * di) << bits) // (dr * dr + di * di)
    else:
        # N = 1, D = r^2 b^2 + g r b + w2
        gr = (g * num) >> e
        for br, bi, b2r, b2i, _, _, fr, fi, _, _ in nodes:
            dr = ((r2 * b2r + gr * br) >> bits) + w2
            di = (r2 * b2i + gr * bi) >> bits
            total += ((fr * dr + fi * di) << bits) // (dr * dr + di * di)
    return total * num / ((n_eff * den) << bits)


def invert_laplace_qbm(mat, t_grid):
    """Time-domain oscillator kernel by fixed-contour Laplace inversion.

    The cot-shaped contour uses ``TALBOT_NODES`` points with the canonical
    radius 2M/(5t); the node count grows with t so the contour keeps
    enclosing the response poles.  The node weights grow like e^(2M/5),
    which double precision cannot cancel, so the node sum runs in
    fixed-point Python integers 32 bits finer than a working precision
    sized to the node count.  Its nodes and factors come from mpmath
    (imported on first use), once per node count.  t = 0 returns the
    exact boundary value 0 of the retarded kernel.  Every time's contour
    is fixed before any point is summed, and one node-gap check covers
    all times that share a first node count.  A contour node landing on
    a pole moves the point to the next node count, whose canonical
    contour has other nodes; the inversion raises only if eight node
    counts in a row fail.  A time whose node count would exceed
    ``TALBOT_MAX_NODES`` raises ConvergenceError; the grid's last,
    longest time is checked first.  The grid must be finite, >= 0 and
    sorted ascending (DomainError).
    """
    t = np.asarray(t_grid, dtype=float)
    flat = t.ravel()
    if flat.size == 0:
        return np.zeros(t.shape)
    if not np.all(np.isfinite(flat)):
        raise DomainError("t_grid must be finite")
    if np.any(flat < 0.0):
        raise DomainError("the retarded kernel needs t >= 0")
    if np.any(np.diff(flat) < 0.0):
        raise DomainError("t_grid must be sorted ascending")
    poles = [s0 for s0, _, _ in find_qbm_poles(mat).roots]
    im_max = max(abs(p.imag) for p in poles)
    r_floor = (2.4 / math.pi) * im_max
    _talbot_node_count(float(flat[-1]), r_floor)     # the longest time fails first
    out = np.zeros(flat.shape)      # t = 0 keeps the boundary value 0
    live = np.flatnonzero(flat)
    for i, (n_eff, r) in zip(live.tolist(), _talbot_contours(flat[live], r_floor, poles)):
        out[i] = _talbot_point(mat, float(flat[i]), n_eff, r)
    return out.reshape(t.shape)


# ----------------------------------------------------------------------
# stress contraction of two Green blocks


def _source_factor(src1, src2):
    """Pairwise source-side z' integral of two blocks' terms, from the
    source data (plate, z_ref, src_exp) `_coincidence` returns.

    Terms with src_exp = 0 are already source-integrated and contribute 1;
    plate-referenced exponential pairs integrate over their half-space to
    1/(qn(s1) + qn(s2)), converging toward the respective infinity.
    """
    (plate, z_ref1, exp1), (_, z_ref2, exp2) = src1, src2
    e = np.asarray(exp1, dtype=complex) + np.asarray(exp2, dtype=complex)
    if np.all(e == 0):
        return 1.0
    if z_ref1 != z_ref2:
        raise DomainError("paired source terms must share the reference height")
    if plate == "L":
        if np.any(e.real <= 0):
            raise DomainError("left-plate source integral diverges: Re(qn1+qn2) <= 0")
        return 1.0 / e
    if plate == "R":
        if np.any(e.real >= 0):
            raise DomainError("right-plate source integral diverges: Re(qn1+qn2) <= 0")
        return -1.0 / e
    raise DomainError("gap terms with pending source exponents cannot be contracted")


_LAMBDA = np.array([1.0, 1.0, -1.0])


def _coincidence(block):
    """Source data and coincidence tensors (src, F, C) of one block.

    With z = the geometry's ``z_field``,

        F = sum_t scalar_t e^{exp_z z} f_t (x) u_t
        C = sum_t scalar_t e^{exp_z z} (curl f_t) (x) u_t,

    where the curl of the plane-wave factor takes the transverse
    derivative as +-i*Q*xhat on the block's parallel phase (the y
    derivative is zero) and z-derivatives as the term's exp_z.  F and C
    are shaped broadcast(block.s, Q) + (3, 3).  The terms' field and
    source vectors, scalars and exp_z are stacked once on a leading term
    axis, and each tensor is one outer product summed over that axis,
    which adds the terms in block order, as a term-by-term sum does.
    ``src`` = (plate, z_ref, src_exp) of the block's first term is the
    source of every term: either all terms are source-integrated (src_exp
    = 0, as in an ``ic_z_block``) or all share one (plate, z_ref,
    src_exp) (as in a from-plate block); any other block raises
    DomainError.  It is None for a block without terms, whose tensors
    are zero.
    """
    Q = np.asarray(block.Q, dtype=float)
    shape = np.broadcast_shapes(np.shape(block.s), Q.shape)
    terms = block.terms
    if not terms:
        return None, np.zeros(shape + (3, 3), dtype=complex), \
            np.zeros(shape + (3, 3), dtype=complex)
    rep = terms[0]
    integrated = all(np.all(np.asarray(t.src_exp) == 0) for t in terms)
    for t in terms:
        if t.step:
            raise DomainError("step-gated bulk terms are not defined at coincidence")
        if not (integrated or (t.plate == rep.plate and t.z_ref == rep.z_ref
                               and (t.src_exp is rep.src_exp
                                    or np.array_equal(t.src_exp, rep.src_exp)))):
            raise DomainError("a contracted block's terms must all be source-integrated "
                              "or share one plate, reference height and source exponent")
    z = block.geom.z_field
    kx = 1j * block.phase_sign * Q

    def stack(values, tail=()):
        want = shape + tail
        return np.array([v if np.shape(v) == want else np.broadcast_to(v, want)
                         for v in values])

    f = stack([t.field_vec for t in terms], (3,))
    u = stack([t.src_vec for t in terms], (3,))
    ez = stack([t.exp_z for t in terms]).astype(complex, copy=False)
    scal = stack([t.scalar for t in terms])
    if z != 0.0:
        scal = scal * np.exp(ez * z)
    su = scal[..., None] * u
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    curl = np.stack((-(ez * fy), ez * fx - kx * fz, kx * fy), axis=-1)
    F = (f[..., :, None] * su[..., None, :]).sum(axis=0)
    C = (curl[..., :, None] * su[..., None, :]).sum(axis=0)
    return (rep.plate, rep.z_ref, rep.src_exp), F, C


def _contract(co1, co2, s1, s2, source_weight=None):
    """(electric, magnetic) stress contraction of two blocks' coincidence data.

    The contraction is bilinear in the terms and every term pair shares
    the blocks' source factor sf, so it is sf * sum_i Lambda_i
    (X1 W X2^T)_ii with X = F (electric, times s1 s2) or X = C
    (magnetic): one source factor and one trace pair per block pair.
    Coincidence data and Laplace points broadcast against each other
    elementwise: the origin reports hand it two halves gathered onto the
    208 (s1, s2) pairs they read, so one call contracts all of them.
    """
    (src1, F1, C1), (src2, F2, C2) = co1, co2
    if source_weight is not None:
        F1 = F1 @ source_weight
        C1 = C1 @ source_weight
    sf = 1.0 if src1 is None or src2 is None else _source_factor(src1, src2)
    elec = sf * ((_LAMBDA[:, None] * F1) * F2).sum(axis=(-2, -1))
    mag = sf * ((_LAMBDA[:, None] * C1) * C2).sum(axis=(-2, -1))
    return s1 * s2 * elec, mag


def theta_contract(block1, block2, s1, s2, source_weight=None, split=False):
    """Coincidence-limit zz-stress contraction of two Green blocks.

    Applies, summed over every term pair, the operator

        Lambda^{ij} (s1 s2 delta^{is} delta^{jm}
                     + eps^{irs} eps^{jlm} d_{r,1} d_{l,2})

    with Lambda = diag(1,1,-1): transverse derivatives act as
    +-i*Q*xhat on each block's parallel phase, z-derivatives as the stored
    exponents, and the two field points coincide at the geometry's
    ``z_field``.  The source indices are contracted with ``source_weight``
    (identity when None) and pending plate-source exponentials are
    integrated in closed form.

    The operator is bilinear, and the source factor of a term pair depends
    only on (src_exp1 + src_exp2, plate, z_ref).  Every term of a block
    the program builds shares that source (see ``_coincidence``), so each
    block reduces to two 3x3 coincidence tensors and the pair sum to one
    source factor times one trace per tensor pair.

    Parameters
    ----------
    block1, block2 : GreenBlock
        Must share Q and field geometry; block2 is conventionally the
        opposite-phase partner.  Each block's terms must all be
        source-integrated or share one (plate, z_ref, src_exp).
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
    g1, g2 = block1.geom, block2.geom
    if g1.gap != g2.gap or g1.z_field != g2.z_field:
        raise DomainError("contracted blocks must share the field geometry")

    weight = None if source_weight is None else np.asarray(source_weight)
    elec, mag = _contract(_coincidence(block1), _coincidence(block2), s1, s2, weight)
    if np.ndim(elec) == 0:
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


# ----------------------------------------------------------------------
# transient integrands
#
# Both transient integrands are a sum over pairs of factors, one depending
# on s1 alone and one on s2 alone.  Each is split into a per-variable half
# (the Green blocks' coincidence data plus the s-only prefactors) and a
# pair step returning the parts.  A half takes one Laplace point or an
# array of them, and the pair step broadcasts two halves against each
# other elementwise, so a caller sampling many (s1, s2) pairs builds each
# variable's blocks once per point set, gathers both halves onto the
# pairs it reads (`_take`) and contracts them in one step.  The s2 half
# (phase_sign = -1) follows exactly from an s1 half: the isotropic plates
# are invariant under the mirror x -> -x (`_mirror_half`), and the
# retarded blocks obey Schwarz reflection (`_conj_half`).


def _dof_half(geom, Q, s, phase_sign):
    """One Laplace variable's factor of the oscillator-transient integrand.

    Returns (s, {plate: (s^2 G(s) - 1, s G(s), {pol: coincidence data})})
    over the coupled Material plates; phase_sign is +1 for the s1 factor
    and -1 for its s2 partner.  s is one Laplace point or an array of
    them, broadcast against Q.  Both plates' blocks come from one optics
    record and one set of gap vectors.
    """
    s = _block_s(s)
    for side in (geom.left, geom.right):
        if not isinstance(side, Material):
            raise DomainError("oscillator integrands need Material plates")
    coupled = [p for p in _PLATES if geom.side(p).lambda0 != 0.0]
    blocks = _from_plate_blocks(geom, coupled, s, Q, phase_sign) if coupled else {}
    plates = {}
    for plate, block in blocks.items():
        g = qbm_green(geom.side(plate), s)
        plates[plate] = (s * s * g - 1.0, s * g,
                         {pol: _coincidence(block.filtered(pol)) for pol in _POLS})
    return s, plates


#: R F R for the mirror R = diag(-1, 1, 1), as elementwise signs on F.
_MIRROR = np.outer([-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0])


def _mirror_half(half):
    """The phase_sign = -1 half at the points of a phase_sign = +1 half.

    The mirror R = diag(-1, 1, 1) maps the parallel phase +Q x to -Q x and
    leaves the isotropic plates unchanged, so the -1 blocks' coincidence
    tensors are R F R and, the curl being a pseudovector, -R C R.  Both are
    sign flips, exact in floating point; the brackets s^2 G - 1 and s G and
    the source data (plate, z_ref, qn(s)) do not depend on the phase.
    """
    s, plates = half
    return s, {plate: (a, b, {pol: (src, F * _MIRROR, C * -_MIRROR)
                              for pol, (src, F, C) in co.items()})
               for plate, (a, b, co) in plates.items()}


def _dof_pair(geom, half1, half2):
    """Oscillator-transient integrand parts from its s1 and s2 halves,
    keyed (plate, pol, "product"|"cross", "electric"|"magnetic"); array
    halves broadcast against each other."""
    (s1, plates1), (s2, plates2) = half1, half2
    pieces = {}
    for plate, (a1, b1, co1) in plates1.items():
        a2, b2, co2 = plates2[plate]
        side = geom.side(plate)
        brackets = {"product": a1 * a2, "cross": side.omega0 ** 2 * b1 * b2}
        pref = (-1.0 / (8.0 * math.pi)) * side.lambda0 ** 2 * side.mass \
            / (2.0 * side.omega0) * _coth(0.5 * side.beta_dof * side.omega0)
        for pol in _POLS:
            elec, mag = _contract(co1[pol], co2[pol], s1, s2)
            for bname, bval in brackets.items():
                for tname, tval in (("electric", elec), ("magnetic", mag)):
                    pieces[(plate, pol, bname, tname)] = pref * bval * tval
    return pieces


def _point_parts(pieces, shape):
    """Parts of a pair step on one-point halves, shaped like Q.

    The halves of a scalar (s1, s2) are built on one-point arrays, so
    they round exactly as the origin reports' array builds, the probe's
    included (the scalar block path rounds differently, which shows in
    parts that cancel at small |s|).
    """
    return {key: np.reshape(v, shape)[()] for key, v in pieces.items()}


def assemble_dof_integrand(geom, Q, s1, s2, parts=False):
    """Two-Laplace integrand of the plate-oscillator transient pressure.

    Product of the oscillator bracket

        (s1^2 G(s1) - 1)(s2^2 G(s2) - 1) + omega0^2 s1 s2 G(s1) G(s2)

    with the plate-source stress contraction, summed over plates, with the
    per-plate prefactor -(1/8 pi) lambda0^2 m/(2 omega0) coth(beta_dof
    omega0/2).  The transverse measure d^2Q/(2 pi)^2, the two Bromwich
    measures and the time factor e^{(s1+s2)(t - t_i)} stay external: this
    object is what the pole-order classifiers probe.

    Evaluated as the pair step of two per-variable halves (`_dof_half` at
    s1 and s2), each built on a one-point array: the scalar case of the
    halves the origin report takes on whole arrays of Laplace points,
    with the same rounding.  Both halves are built directly, so this is
    the independent check of the report's mirrored s2 half.

    With ``parts`` also returns the dict keyed
    (plate, pol, "product"|"cross", "electric"|"magnetic").
    """
    pieces = _point_parts(_dof_pair(geom, _dof_half(geom, Q, [s1], +1),
                                    _dof_half(geom, Q, [s2], -1)), np.shape(Q))
    total = sum(pieces.values(), 0.0 + 0.0j)
    return (total, pieces) if parts else total


def _ic_wavevector(k):
    """(Q, kz, w_k) of a photon wavevector, rotated into the x-z plane."""
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError("k must be a 3-vector")
    if not np.all(np.isfinite(k)):
        raise DomainError(f"k must be finite, got {k.tolist()}")
    wk = float(np.linalg.norm(k))
    if wk == 0.0:
        raise DomainError("the zero wavevector carries no initial mode")
    return math.hypot(k[0], k[1]), float(k[2]), wk


def _ic_half(geom, k, s, phase_sign):
    """One Laplace variable's factor of the initial-field integrand.

    Returns (s, {pol: coincidence data of the plane-wave-weighted block});
    s is one Laplace point or an array of them.
    """
    Q, kz, _ = _ic_wavevector(k)
    s = _block_s(s)
    block = ic_z_block(geom, s, Q, kz, phase_sign=phase_sign)
    return s, {pol: _coincidence(block.filtered(pol)) for pol in _POLS}


def _conj_half(half):
    """The phase_sign = -1 half at conj(s) from a phase_sign = +1 `_ic_half`
    at s.

    The retarded blocks obey Schwarz reflection, G(conj s) = conj G(s), and
    conjugating the plane wave's phase e^{i(Q x + kz z)} gives the -1
    partner's, so its coincidence tensors are the conjugates.  The source
    data (src_exp = 0, every term source-integrated) carries over.
    """
    s, co = half
    return s.conj(), {pol: (src, F.conj(), C.conj()) for pol, (src, F, C) in co.items()}


def _ic_pair(k, half1, half2, beta_em=math.inf):
    """Initial-field integrand parts from its s1 and s2 halves, keyed
    (pol, "electric"|"magnetic"); array halves broadcast against each
    other.  A NaN or non-positive beta_em raises DomainError (inf, the
    vacuum, is allowed), as a plate's ``beta_bath`` does."""
    if not beta_em > 0:             # NaN fails too
        raise DomainError(f"beta_em must be > 0 (inf allowed), got {beta_em}")
    Q, kz, wk = _ic_wavevector(k)
    (s1, co1), (s2, co2) = half1, half2
    proj = transverse_projector(np.array([Q, 0.0, kz]))
    occ = _coth(0.5 * beta_em * wk) if math.isfinite(beta_em) else 1.0
    pref = (-1.0 / (8.0 * math.pi)) * occ * (s1 * s2 + wk * wk) \
        / (2.0 * wk * (2.0 * math.pi) ** 3)
    pieces = {}
    for pol in _POLS:
        elec, mag = _contract(co1[pol], co2[pol], s1, s2, source_weight=proj)
        pieces[(pol, "electric")] = pref * elec
        pieces[(pol, "magnetic")] = pref * mag
    return pieces


def assemble_ic_integrand(geom, k, s1, s2, beta_em=math.inf, parts=False):
    """Two-Laplace integrand of the initial-field transient pressure.

    For one photon wavevector k = (kx, ky, kz) (rotated so the transverse
    part lies along x; the plates are isotropic) this evaluates

        -(1/8 pi) / (2 w_k (2 pi)^3) * coth(beta_em w_k / 2) * (s1 s2 + w_k^2)
          * Theta[ ... transverse-projected pair of plane-wave source
                   integrals ... ]

    leaving d^3k, the Bromwich measures and the time factor external.
    ``beta_em`` is the inverse initial field temperature (inf = vacuum;
    NaN or <= 0 raises DomainError).

    Evaluated as the pair step of two per-variable halves (`_ic_half` at
    s1 and s2), each built on a one-point array: the scalar case of the
    halves the origin report takes on whole arrays of Laplace points,
    with the same rounding.  Both halves are built directly, so this is
    the independent check of the report's conjugated s2 half.  With
    ``parts`` also returns the dict keyed (pol, "electric"|"magnetic").
    """
    pieces = _point_parts(_ic_pair(k, _ic_half(geom, k, [s1], +1),
                                   _ic_half(geom, k, [s2], -1), beta_em=beta_em), ())
    total = sum(pieces.values(), 0.0 + 0.0j)
    return (total, pieces) if parts else total


# ----------------------------------------------------------------------
# origin classification of the transient integrands


def _classify_samples(vals, radii, angles):
    """Pole orders at s = 0 of a stack of functions from their ring samples.

    ``vals`` holds each function on the rings of `_ring_samples`, shaped
    (functions, RING_COUNT, RING_POINTS).  The order is the rounded
    log-log decay rate of the median |f| over the last three rings, and
    the coefficient the angular mean of s^order f(s) on the smallest
    ring.  A function that vanishes on every ring is regular (order 0,
    slope inf); one that vanishes on some rings only is unresolved.
    Returns the arrays (order, coeff, slope, resolved), one entry per
    function.
    """
    mags = np.median(np.abs(vals), axis=-1)
    tiny = mags < 1e-280
    slopes = np.diff(np.log(np.where(tiny, 1.0, mags))) / np.diff(np.log(radii))
    slope = np.mean(slopes[:, -2:], axis=-1)
    order = np.maximum(0, np.rint(-slope)).astype(int)
    resolved = np.where(order == 0, -slope <= SLOPE_TOL,
                        np.abs(-slope - order) <= SLOPE_TOL)
    coeff = np.mean(vals[:, -1] * (radii[-1] * np.exp(1j * angles)) ** order[:, None],
                    axis=-1)
    vanishing, zero = tiny.any(axis=-1), tiny.all(axis=-1)
    order[vanishing] = 0
    coeff[vanishing] = 0.0
    slope = np.where(zero, math.inf, np.where(vanishing, math.nan, slope))
    return order, coeff, slope, np.where(vanishing, zero, resolved)


def classify_origin_order(f):
    """Pole order of ``f`` at s = 0 by shrinking-radius evaluation.

    Samples |f| on the rings RING_R0, RING_R0/RING_SHRINK, ... (angles
    offset from the axes), fits the log-log growth rate and rounds it to
    the pole order; the leading Laurent coefficient is the angular mean
    of s^order f(s) on the smallest ring.  ``resolved`` is False when the
    fitted slope is not within SLOPE_TOL of an integer — the caller
    decides whether that is an error.  This is the one-function case of
    the classifier the origin reports run on all their parts at once.
    """
    radii, angles, pts = _ring_samples()
    vals = np.array([complex(f(s)) for s in pts.flat]).reshape((1,) + pts.shape)
    return OriginOrder(*(a[0].item() for a in _classify_samples(vals, radii, angles)))


def expected_dof_origin_orders(pol, bracket, piece):
    """Per-variable origin pole orders of one oscillator-transient part.

    The inverse Laplace powers live in the transverse-magnetic mode
    vectors, so only TM channels can be singular; the magnetic
    contraction curls both factors, which removes those mode-vector
    poles, and the cross bracket carries an explicit s1 s2 that does
    the same.  What survives is a single first-order pole per variable
    in the product-bracket TM electric channel — the part whose double
    residue is the discarded switch-on term.
    """
    if pol == "TM" and bracket == "product" and piece == "electric":
        return (1, 1)
    return (0, 0)


def expected_ic_origin_orders(pol, piece):
    """Per-variable origin pole orders of one initial-field part.

    The source-integrated gap tensor is origin-regular — the
    longitudinal 1/s^2 of its zz delta term cancels against the bulk
    TM column — so no initial-field part carries an origin pole and
    the initial-field switch-on residue vanishes.
    """
    return (0, 0)


def _ring_samples():
    """Radii, angles and the (RING_COUNT, RING_POINTS) array of ring points."""
    radii = np.array([RING_R0 * RING_SHRINK ** (-j) for j in range(RING_COUNT)])
    angles = 2.0 * np.pi * (np.arange(RING_POINTS) + 0.5) / RING_POINTS
    return radii, angles, radii[:, None] * np.exp(1j * angles)


_DIVERGENT_ORDERS = ((-2, -2), (-2, -1), (-1, -2))


def _laurent_coefficients(ring, tables):
    """Torus Laurent coefficients of a stack of two-variable functions.

    ``tables`` holds each function on ring x ring, shaped (functions, n,
    n), ring the TORUS_POINTS points of |s| = TORUS_RADIUS.  Returns, per
    order (m, n) of the four time-relevant ones, the coefficients c_mn
    of every function, and the median over the torus of the summed
    magnitudes, which calibrates how large a coefficient of each order
    *could* be given the observed integrand size.
    """
    coeffs = {mn: np.mean(tables * np.outer(ring ** (-mn[0]), ring ** (-mn[1])),
                          axis=(-2, -1))
              for mn in _DIVERGENT_ORDERS + ((-1, -1),)}
    return coeffs, float(np.median(sum(np.abs(tables))))


def _cancellation_record(coeffs, rows, f_scale):
    """Absence of time-growing Laurent content across the group ``rows``
    of the parts whose Laurent coefficients `_laurent_coefficients` gave.

    A coefficient of order (m, n) belonging to a genuine pole of the
    observed integrand size f_scale would be ~ f_scale * r^(m+n) with
    r = TORUS_RADIUS, so each net coefficient is compared against the
    larger of that reference and the summed per-part magnitudes (the
    latter catches large contributions cancelling between parts); it
    vanishes when the ratio is at most CANCEL_TOL.  The first-order
    double residue is reported as the discarded switch-on term, with
    its strength on the same scale (~1 for a genuine pole, ~0 for
    none).

    At TORUS_RADIUS = 5e-3 the ``rel`` values of about 1e-17 to 1e-13
    (every coefficient of the initial-field report, c22 of the oscillator
    one) are rounding noise, not measured residuals: the parts cancel
    down to the rounding floor of their sums, and building the same
    blocks through `em_green`'s scalar path instead of on arrays moves
    those values by up to 6x.  They show that the divergent content
    cancels to that floor, not how small it is below it.
    """
    record = {}
    ok = True
    for mn in _DIVERGENT_ORDERS:
        group = coeffs[mn][rows].tolist()
        total = sum(group)
        parts_scale = sum(abs(c) for c in group)
        ref = max(parts_scale, f_scale * TORUS_RADIUS ** (-mn[0] - mn[1]))
        rel = abs(total) / ref if ref > 0.0 else 0.0
        vanishes = rel <= CANCEL_TOL
        ok = ok and vanishes
        record[f"c{-mn[0]}{-mn[1]}"] = {
            "total": [total.real, total.imag],
            "parts_scale": parts_scale,
            "rel": rel,
            "vanishes": vanishes,
        }
    switch_on = sum(coeffs[(-1, -1)][rows].tolist())
    ref11 = f_scale * TORUS_RADIUS ** 2
    record["switch_on"] = {
        "residue": [switch_on.real, switch_on.imag],
        "strength": abs(switch_on) / ref11 if ref11 > 0.0 else 0.0,
        "discarded": True,
        "reason": "first-order origin pole: time derivative of the causal "
                  "switch-on step, removed from steady assembly",
    }
    return record, ok


def _take(half, idx):
    """A half (nested tuples and dicts of per-point arrays and constants)
    at the points ``idx`` of its leading axis; constants pass through."""
    if isinstance(half, dict):
        return {key: _take(v, idx) for key, v in half.items()}
    if isinstance(half, tuple):
        return tuple(_take(v, idx) for v in half)
    return half[idx] if np.ndim(half) else half


def _origin_report(halves, pair, expected):
    """Classification and Laurent coefficients shared by the two origin reports.

    ``halves(s)`` returns both Laplace variables' factors of the integrand
    (s1's, phase_sign +1, and s2's, -1) on a 1-d array of points, ``pair(h1,
    h2)`` the parts dict of two halves broadcast against each other, and
    ``expected(key)`` the expected per-variable orders of the part ``key``.
    A report reads the integrand at 208 (s1, s2) pairs: each of the
    RING_COUNT x RING_POINTS ring points against ORIGIN_PROBE in either
    variable, and the TORUS_POINTS x TORUS_POINTS torus.  Both halves are
    taken once, on one flat array of the 45 points those pairs use, then
    gathered onto the pairs by an index array per variable, and one pair
    step evaluates every part on the 208 pairs only.  Each part's ring
    samples and torus table are read out of that step; all parts are
    classified as one stack.  Returns (parts report keyed "|"-joined,
    whether every part matches, sorted part keys, Laurent coefficients per
    order with one entry per part, integrand scale).
    """
    radii, angles, ring = _ring_samples()
    n = TORUS_POINTS
    ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    torus = TORUS_RADIUS * np.exp(1j * ang)
    pts = np.concatenate([ring.ravel(), [ORIGIN_PROBE], torus])
    p = ring.size       # the probe's index
    on_ring, at_probe, on_torus = np.arange(p), np.full(p, p), np.arange(p + 1, pts.size)
    idx1 = np.concatenate([on_ring, at_probe, np.repeat(on_torus, n)])
    idx2 = np.concatenate([at_probe, on_ring, np.tile(on_torus, n)])
    h1, h2 = halves(pts)
    parts = pair(_take(h1, idx1), _take(h2, idx2))
    keys = sorted(parts)
    m = idx1.size   # (parts, m), also for a report without parts
    table = np.reshape([np.broadcast_to(parts[key], (m,)) for key in keys], (-1, m))
    samples = table[:, :2 * p].reshape(-1, 2, p).swapaxes(0, 1).reshape((-1,) + ring.shape)
    order, _, slope, resolved = (a.reshape(2, -1).T.tolist() for a in
                                 _classify_samples(samples, radii, angles))
    parts_report = {}
    all_match = True
    for key, o, sl, ok in zip(keys, order, slope, resolved):
        want = expected(key)
        match = tuple(o) == want and all(ok)
        all_match = all_match and match
        parts_report["|".join(key)] = {
            "order": o,
            "slope": sl,
            "expected": list(want),
            "matches": match,
        }
    coeffs, f_scale = _laurent_coefficients(torus, table[:, 2 * p:].reshape(-1, n, n))
    return parts_report, all_match, keys, coeffs, f_scale


def dof_origin_report(geom, Q):
    """Origin taxonomy of the oscillator-transient integrand at one Q.

    Classifies every (plate, pol, bracket, piece) part in each Laplace
    variable against the expected order table, verifies per plate that
    the divergent Laurent coefficients c_{-2,-2}, c_{-2,-1}, c_{-1,-2}
    cancel across the plate's parts, and records the surviving
    first-order double residue as the discarded switch-on term.  The
    returned dict is JSON-ready; ``"taxonomy_ok"`` summarizes it.
    ``"steady_after_discard"`` is 0.0 by the discard rule, not a measured
    value: once the switch-on residue is discarded, the rule leaves no
    time-independent term.

    The report reads the integrand at 208 (s1, s2) pairs (two rings of
    32 points against the probe, a 12 x 12 torus).  Its Green blocks are
    built once, on one array of the 45 points those pairs use: one s1
    half holding a `green_gap_from_plate` block per coupled plate from one
    optics record.  The s2 half at the same points is its mirror image
    (`_mirror_half`), with the same brackets s^2 G - 1 and s G and source
    exponents.  Both halves are gathered onto the 208 pairs, and one pair
    step contracts them there.  `assemble_dof_integrand` builds both
    halves directly and checks these tables.  Q must be finite and >= 0
    (DomainError).
    """
    Q = _transverse_q(Q)

    def halves(s):
        h1 = _dof_half(geom, Q, s, +1)
        return h1, _mirror_half(h1)

    parts_report, all_match, keys, coeffs, f_scale = _origin_report(
        halves, lambda h1, h2: _dof_pair(geom, h1, h2),
        lambda key: expected_dof_origin_orders(*key[1:]))
    plates_report = {}
    cancel_ok = True
    for plate in ("L", "R"):
        rows = [i for i, key in enumerate(keys) if key[0] == plate]
        if not rows:
            continue
        record, ok = _cancellation_record(coeffs, rows, f_scale)
        cancel_ok = cancel_ok and ok
        plates_report[plate] = record
    return {
        "kind": "dof_origin",
        "Q": Q,
        "probe": [ORIGIN_PROBE.real, ORIGIN_PROBE.imag],
        "radius": TORUS_RADIUS,
        "scale": f_scale,
        "parts": parts_report,
        "plates": plates_report,
        "steady_after_discard": 0.0,
        "taxonomy_ok": bool(all_match and cancel_ok),
    }


def ic_origin_report(geom, k, beta_em=math.inf):
    """Origin taxonomy of the initial-field integrand at one wavevector.

    Same structure as the oscillator-transient report with parts keyed
    (pol, piece); the candidate modes away from the origin are covered
    separately by `modified_mode_check`.  One `ic_z_block` build on the
    45 points the 208 sampled pairs use and on their conjugates (90
    points) gives both halves: the s1 half at the points, and the s2 half
    as the conjugate of the s1 half at the conjugate points (Schwarz
    reflection, `_conj_half`).  One pair step contracts the two halves
    gathered onto the 208 pairs; `assemble_ic_integrand` builds both
    halves directly and checks these tables.  Every component of k must
    be finite, and beta_em as in `assemble_ic_integrand` (DomainError).
    ``"steady_after_discard"`` is 0.0 by the discard rule, not a measured
    value.
    """
    def halves(s):
        both = _ic_half(geom, k, np.concatenate([s, s.conj()]), +1)
        return _take(both, slice(None, s.size)), _conj_half(_take(both, slice(s.size, None)))

    parts_report, all_match, keys, coeffs, f_scale = _origin_report(
        halves, lambda h1, h2: _ic_pair(k, h1, h2, beta_em=beta_em),
        lambda key: expected_ic_origin_orders(*key))
    record, cancel_ok = _cancellation_record(coeffs, slice(None), f_scale)
    return {
        "kind": "ic_origin",
        "k": [float(k[0]), float(k[1]), float(k[2])],
        "probe": [ORIGIN_PROBE.real, ORIGIN_PROBE.imag],
        "radius": TORUS_RADIUS,
        "scale": f_scale,
        "parts": parts_report,
        "total": record,
        "steady_after_discard": 0.0,
        "taxonomy_ok": bool(all_match and cancel_ok),
    }
