"""Analytic-structure toolkit for the cavity response.

Root finding and classification for the oscillator response and the
plate-mode radicands, imaginary-axis scans of the multiple-reflection
denominator, branch-point inventory, removability verification for the
candidate gap modes at s = +-i*sqrt(Q^2 + kz^2), Talbot-contour Laplace
inversion of the oscillator kernel, and shrinking-radius Laurent tooling
that classifies the origin behaviour of the transient integrands.

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

import mpmath as mp
import numpy as np

from .em_green import dmu, ic_z_integral, qz
from .errors import ConvergenceError, DomainError, SingularityError
from .material import EpsilonTable, Material
from .pressure import _dof_half, _dof_pair, _ic_half, _ic_pair

METHOD_ANALYTIC = "analytic_quadratic"
METHOD_WINDING = "contour_winding"
METHOD_NEWTON = "newton_polish"

_RE_TOL = 1e-12


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
    (close to -order when resolved), ``drift`` the relative change of
    ``coeff`` across the two smallest radii.
    """

    order: int
    coeff: complex
    slope: float
    resolved: bool
    drift: float


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


def _newton_polish(coeffs, roots, max_iter=48):
    """Polish companion-matrix roots on the polynomial itself."""
    deriv = np.polyder(coeffs)
    mags = np.abs(np.asarray(coeffs))
    out = []
    for s0 in np.atleast_1d(roots):
        s = complex(s0)
        for _ in range(max_iter):
            p = np.polyval(coeffs, s)
            scale = np.polyval(mags, abs(s)) + 1e-300
            if abs(p) <= 1e-14 * scale:
                break
            dp = np.polyval(deriv, s)
            if dp == 0:
                break
            step = p / dp
            s -= step
            if abs(step) <= 1e-16 * (1.0 + abs(s)):
                break
        p = np.polyval(coeffs, s)
        scale = np.polyval(mags, abs(s)) + 1e-300
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


def winding_count(coeffs, re_lo, re_hi, im_lo, im_hi, n_per_edge=800):
    """Argument-principle root count of a polynomial inside a rectangle.

    Phase increments along the boundary are accumulated edge by edge;
    the sampling is doubled until every increment is well inside
    (-pi, pi), so the count is exact unless a root sits on the contour
    (which raises).
    """
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    n = int(n_per_edge)
    for _ in range(5):
        pts = np.concatenate([
            np.linspace(corners[i], corners[i + 1], n, endpoint=False)
            for i in range(4)
        ])
        vals = np.polyval(coeffs, pts)
        scale = np.polyval(np.abs(np.asarray(coeffs)), np.abs(pts)) + 1e-300
        if np.any(np.abs(vals) <= 1e-13 * scale):
            raise SingularityError("a root sits on the counting contour")
        ph = np.angle(vals)
        dph = np.diff(np.concatenate([ph, ph[:1]]))
        dph -= 2.0 * np.pi * np.round(dph / (2.0 * np.pi))
        if np.max(np.abs(dph)) < 1.5:
            return int(round(float(np.sum(dph)) / (2.0 * np.pi)))
        n *= 2
    raise ConvergenceError("winding count did not stabilize on the rectangle")


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


def plate_mode_roots(side, Q, kz=0.0):
    """Roots of eps(s) s^2 + Q^2 + kz^2 = 0, cleared of denominators.

    With kz = 0 these are the zeros of the plate radicand (branch-point
    candidates of the plate wavenumber); with kz != 0 they locate the
    would-be plate-region mode denominators qn = -+ i kz.  Lossy plates
    put every root strictly in the left half-plane; lossless ones are
    marginal.  Every root of the cleared polynomial is a genuine
    radicand zero: a cancellation against the clearing denominator
    would need lambda0^2 N(s) s^2 to vanish at a response pole, and
    neither s = 0 nor the numerator zero is one.
    """
    big_c = float(Q) ** 2 + float(kz) ** 2
    if isinstance(side, EpsilonTable):
        if not side.is_dispersionless:
            raise DomainError("plate-mode roots need an analytic permittivity;"
                              " a dispersive table has no off-axis continuation")
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
    Q = float(Q)
    if Q < 0:
        raise DomainError("Q must be >= 0")
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


def scan_dmu_imaginary_axis(geom, pol, Q, omega_grid, floor=1e-3):
    """Minimum of |D_mu| along s = i*omega over a real frequency grid.

    The grid must be sorted, straddle zero and resolve the gap
    round-trip phase (spacing <= pi/(8 l)).  A minimum at or below
    ``floor`` is recorded as a property violation in the result, not
    raised; isolated grid points landing on a response pole of a
    lossless material are skipped and counted.
    """
    grid = np.asarray(omega_grid, dtype=float).ravel()
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
    skipped = 0
    try:
        vals = np.abs(dmu(geom, 1j * grid, Q, pol))
    except SingularityError:
        vals = np.full(grid.shape, np.nan)
        for i, w in enumerate(grid):
            try:
                vals[i] = abs(dmu(geom, complex(0.0, w), Q, pol))
            except SingularityError:
                skipped += 1
        if skipped == grid.size:
            raise
    i0 = int(np.nanargmin(vals))
    min_abs = float(vals[i0])
    return DmuScan(min_abs=min_abs, argmin=float(grid[i0]), floor=float(floor),
                   violation=bool(min_abs <= floor), pol=pol, Q=float(Q),
                   n_points=int(grid.size), n_skipped=skipped)


# ----------------------------------------------------------------------
# modified-mode removability


def modified_mode_check(geom, Q, kz, radius=None, tol_zero=1e-8,
                        tol_limit=1e-6):
    """Verify that s = +-i*sqrt(Q^2 + kz^2) is removable, not a pole.

    At each sign the vanishing gap denominator q_z -+ i kz and its
    matching two-term numerator are evaluated exactly at the root (both
    must be zero to ``tol_zero`` after normalization).  The limit of
    the source-integrated tensor is then extrapolated with two
    Richardson levels (radii r, r/2, r/4) along four approach
    directions confined to Re(s) >= 0 — the root sits on the gap
    branch cut, so left-half approaches would change sheet — and must
    agree across directions to ``tol_limit`` of the tensor scale.
    Disagreement yields ``removable=False`` with the data.
    """
    Q = float(Q)
    kz = float(kz)
    if Q < 0.0:
        raise DomainError("Q must be >= 0")
    if kz == 0.0:
        raise DomainError("kz = 0 puts the candidate mode on the gap branch "
                          "point +-iQ; the check needs omega_k > Q")
    wk = math.hypot(Q, kz)
    z = geom.z_field
    length = geom.gap
    r0 = (3e-5 if radius is None else float(radius)) * max(wk, 1.0)
    num_zero = 0.0
    den_zero = 0.0
    spread = 0.0
    limit_trace = 0.0 + 0.0j
    for sign in (+1.0, -1.0):
        s_star = complex(0.0, sign * wk)
        q = complex(qz(1.0, s_star, Q))
        cp = q + 1j * kz
        cm = q - 1j * kz
        if abs(cm) <= abs(cp):
            c_root, edge = cm, +1.0   # z' > z branch decays upward
        else:
            c_root, edge = cp, -1.0   # z' < z branch decays downward
        den_zero = max(den_zero, abs(c_root) / (abs(q) + abs(kz)))
        numerator = (-cmath.exp(1j * kz * z)
                     + cmath.exp(-c_root * length / 2.0) * cmath.exp(edge * q * z))
        num_zero = max(num_zero, abs(numerator))  # both pieces are unimodular
        dirs = (1.0 + 0.0j, cmath.exp(0.25j * math.pi),
                cmath.exp(-0.25j * math.pi), 1.0j)
        if sign < 0:
            dirs = tuple(d.conjugate() for d in dirs)
        extrap = []
        for d in dirs:
            t1 = np.asarray(ic_z_integral(geom, s_star + r0 * d, Q, kz))
            t2 = np.asarray(ic_z_integral(geom, s_star + 0.5 * r0 * d, Q, kz))
            t3 = np.asarray(ic_z_integral(geom, s_star + 0.25 * r0 * d, Q, kz))
            extrap.append((8.0 * t3 - 6.0 * t2 + t1) / 3.0)
        mean = sum(extrap) / len(extrap)
        scale = max(1.0, float(np.max(np.abs(mean))))
        worst = max(float(np.max(np.abs(v - mean))) for v in extrap) / scale
        spread = max(spread, worst)
        if sign > 0:
            limit_trace = complex(np.trace(mean))
    removable = (num_zero <= tol_zero and den_zero <= tol_zero
                 and spread <= tol_limit)
    return ModifiedModeCheck(num_zero=num_zero, den_zero=den_zero,
                             lhopital_limit=limit_trace, removable=removable,
                             spread=spread, omega_k=wk)


# ----------------------------------------------------------------------
# Talbot inversion of the oscillator kernel


_TALBOT_CACHE = {}


def _talbot_fixtures(n_nodes, dps):
    """Contour geometry for the fixed cot-shaped contour, cached per dps.

    ``base[k]`` is s_k/r, ``weight[k] = 1 + i*sigma_k`` the quadrature
    factor and ``expo[k] = exp((2M/5) base[k])`` the time factor valid
    whenever r keeps its canonical value 2M/(5t).
    """
    key = (n_nodes, dps)
    fx = _TALBOT_CACHE.get(key)
    if fx is None:
        base, weight, expo = [], [], []
        rt = mp.mpf(2 * n_nodes) / 5
        for k in range(1, n_nodes):
            th = mp.pi * k / n_nodes
            ct = mp.cot(th)
            b = th * (ct + 1j)
            base.append(b)
            weight.append(1 + 1j * (th + (th * ct - 1) * ct))
            expo.append(mp.e ** (rt * b))
        fx = (base, weight, expo, mp.e ** rt)
        _TALBOT_CACHE[key] = fx
    return fx


def _mp_response(mat, s):
    """Oscillator kernel transform evaluated in arbitrary precision."""
    w2 = mp.mpf(mat.omega0) ** 2
    bath = mat.bath
    if bath.kind == "ohmic_lorentz_cutoff":
        lam = mp.mpf(bath.cutoff)
        g = mp.mpf(bath.gamma)
        return (s + lam) / ((s * s + w2) * (s + lam) + g * lam * s)
    g = mp.mpf(bath.gamma) if bath.kind == "ohmic" else mp.mpf(0)
    return 1 / (s * s + g * s + w2)


def _min_node_gap(n_nodes, r, poles):
    th = np.pi * np.arange(1, n_nodes) / n_nodes
    nodes = np.concatenate([[r + 0.0j], r * th * (1.0 / np.tan(th) + 1j)])
    return min(float(np.min(np.abs(nodes - p))) / (1.0 + abs(p))
               for p in poles)


def _talbot_point(mat, t, n_nodes, r_floor, poles):
    n_eff = max(n_nodes, int(math.ceil(2.5 * t * r_floor)))
    r_canon = 2.0 * n_eff / (5.0 * t)
    r = r_canon
    for _ in range(8):
        if _min_node_gap(n_eff, r, poles) > 1e-6:
            break
        r *= 1.0917
    else:
        raise SingularityError(
            "inversion contour cannot avoid a response pole",
            point=min(poles, key=lambda p: abs(p)))
    dps = max(35, 25 + int(0.2 * n_eff))
    with mp.workdps(dps):
        base, weight, expo, expo0 = _talbot_fixtures(n_eff, dps)
        rm = mp.mpf(r)
        tm = mp.mpf(t)
        canonical = (r == r_canon)
        total = mp.mpf(0.5) * _mp_response(mat, rm) * \
            (expo0 if canonical else mp.e ** (rm * tm))
        total = mp.re(total)
        for k in range(n_eff - 1):
            s = rm * base[k]
            efac = expo[k] if canonical else mp.e ** (tm * s)
            total += mp.re(efac * _mp_response(mat, s) * weight[k])
        return float(total * rm / n_eff)


def invert_laplace_qbm(mat, t_grid, n_nodes=64):
    """Time-domain oscillator kernel by fixed-contour Laplace inversion.

    The cot-shaped contour uses ``n_nodes`` points with the canonical
    radius 2M/(5t); the node count grows with t so the contour keeps
    enclosing the response poles, and the summation runs in arbitrary
    precision sized to the node count (the node weights grow like
    e^(2M/5), which double precision cannot cancel).  t = 0 returns the
    exact boundary value 0 of the retarded kernel.  A contour node
    landing on a pole triggers automatic radius re-scaling and raises
    only if the contour cannot be freed.
    """
    t = np.asarray(t_grid, dtype=float)
    flat = t.ravel()
    if flat.size == 0:
        return np.zeros(t.shape)
    if np.any(flat < 0.0):
        raise DomainError("the retarded kernel needs t >= 0")
    if np.any(np.diff(flat) < 0.0):
        raise DomainError("t_grid must be sorted ascending")
    poles = [s0 for s0, _, _ in find_qbm_poles(mat).roots]
    im_max = max(abs(p.imag) for p in poles)
    r_floor = (2.4 / math.pi) * im_max
    out = np.empty(flat.shape)
    for i, ti in enumerate(flat):
        out[i] = 0.0 if ti == 0.0 else _talbot_point(
            mat, float(ti), int(n_nodes), r_floor, poles)
    return out.reshape(t.shape)


# ----------------------------------------------------------------------
# origin classification of the transient integrands


def _order_from_samples(vals, radii, angles, slope_tol=0.25):
    """Classify pole order from |f| decay across shrinking radii."""
    vals = np.asarray(vals, dtype=complex)
    mags = np.median(np.abs(vals), axis=1)
    if np.all(mags < 1e-280):
        return OriginOrder(order=0, coeff=0.0j, slope=math.inf,
                           resolved=True, drift=0.0)
    if np.any(mags < 1e-280):
        return OriginOrder(order=0, coeff=0.0j, slope=math.nan,
                           resolved=False, drift=math.nan)
    slopes = np.diff(np.log(mags)) / np.diff(np.log(radii))
    p_hat = float(np.mean(slopes[-2:]))
    order_f = -p_hat
    order = max(0, int(round(order_f)))
    if order == 0:
        resolved = order_f <= slope_tol
    else:
        resolved = abs(order_f - order) <= slope_tol
    ring = np.exp(1j * angles)
    c_last = complex(np.mean(vals[-1] * (radii[-1] * ring) ** order))
    c_prev = complex(np.mean(vals[-2] * (radii[-2] * ring) ** order))
    denom = max(abs(c_last), abs(c_prev))
    drift = abs(c_last - c_prev) / denom if denom > 0.0 else 0.0
    return OriginOrder(order=order, coeff=c_last, slope=p_hat,
                       resolved=bool(resolved), drift=float(drift))


def classify_origin_order(f, r0=1e-2, shrink=4.0, n_radii=4, n_theta=8,
                          slope_tol=0.25):
    """Pole order of ``f`` at s = 0 by shrinking-radius evaluation.

    Samples |f| on rings r0, r0/shrink, ... (angles offset from the
    axes), fits the log-log growth rate and rounds it to the pole
    order; the leading Laurent coefficient is the angular mean of
    s^order f(s) on the smallest ring.  ``resolved`` is False when the
    fitted slope is not near an integer — the caller decides whether
    that is an error.
    """
    radii = np.array([r0 * shrink ** (-j) for j in range(n_radii)])
    angles = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    vals = np.array([[complex(f(complex(r * math.cos(a), r * math.sin(a))))
                      for a in angles] for r in radii])
    return _order_from_samples(vals, radii, angles, slope_tol)


def origin_laurent_2d(f2, orders, radius=5e-3, n_theta=12):
    """Laurent coefficients c_{mn} of f2(s1, s2) at the double origin.

    Double angular means on the torus |s1| = |s2| = radius.  Aliased
    contributions enter at relative size radius**n_theta, far below the
    working tolerance for any sensible parameters.
    """
    ang = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    ring = radius * np.exp(1j * ang)
    f_tab = np.empty((n_theta, n_theta), dtype=complex)
    for a, s1 in enumerate(ring):
        for b, s2 in enumerate(ring):
            f_tab[a, b] = f2(complex(s1), complex(s2))
    return {
        (m, n): complex(np.mean(f_tab * np.outer(ring ** (-m), ring ** (-n))))
        for m, n in orders
    }


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


def _ring_samples(r0, shrink, n_radii, n_theta):
    radii = np.array([r0 * shrink ** (-j) for j in range(n_radii)])
    angles = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    pts = [complex(r * math.cos(a), r * math.sin(a))
           for r in radii for a in angles]
    return radii, angles, pts


def _classify_parts(half, pair, probe, r0=1e-2, shrink=4.0, n_radii=4,
                    n_theta=8, slope_tol=0.25):
    """Classify every part of a two-variable integrand in each variable.

    ``half(s, phase_sign)`` builds one variable's factor (+1 for s1, -1
    for s2) and ``pair(h1, h2)`` returns the parts dict of the pair; one
    pair classifies all parts at once.  Each ring point and the probe get
    their factor built once per variable.
    """
    radii, angles, pts = _ring_samples(r0, shrink, n_radii, n_theta)
    orders = {}
    for var in (0, 1):
        if var == 0:
            fixed = half(probe, -1)
            rows = [pair(half(s, +1), fixed) for s in pts]
        else:
            fixed = half(probe, +1)
            rows = [pair(fixed, half(s, -1)) for s in pts]
        for key in rows[0]:
            vals = np.array([row[key] for row in rows]).reshape(
                len(radii), len(angles))
            orders.setdefault(key, [None, None])[var] = _order_from_samples(
                vals, radii, angles, slope_tol)
    return orders


_DIVERGENT_ORDERS = ((-2, -2), (-2, -1), (-1, -2))


def _torus_tables(half, pair, keys, radius, n_theta):
    """Every part of the integrand on the torus |s1| = |s2| = radius.

    Returns the ring of n_theta points and, per part, the (s1, s2) table
    over it; each ring point's s1 and s2 factors are built once.
    """
    ang = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    ring = radius * np.exp(1j * ang)
    halves1 = [half(complex(s), +1) for s in ring]
    halves2 = [half(complex(s), -1) for s in ring]
    tabs = {key: np.empty((n_theta, n_theta), dtype=complex) for key in keys}
    for a, h1 in enumerate(halves1):
        for b, h2 in enumerate(halves2):
            parts = pair(h1, h2)
            for key in keys:
                tabs[key][a, b] = parts[key]
    return ring, tabs


def _origin_tables(half, pair, keys, radius, n_theta):
    """Torus Laurent tables for every part, plus the integrand scale.

    Returns per-part coefficients c_mn for the four time-relevant
    orders and the median of the summed part magnitudes on the torus,
    which calibrates how large a coefficient of each order *could* be
    given the observed integrand size.
    """
    ring, tabs = _torus_tables(half, pair, keys, radius, n_theta)
    weights = {mn: np.outer(ring ** (-mn[0]), ring ** (-mn[1]))
               for mn in _DIVERGENT_ORDERS + ((-1, -1),)}
    coeffs = {key: {mn: complex(np.mean(tabs[key] * w))
                    for mn, w in weights.items()} for key in keys}
    f_scale = float(np.median(sum(np.abs(tabs[key]) for key in keys)))
    return coeffs, f_scale


def _cancellation_record(coeffs, keys, cancel_tol, f_scale, radius):
    """Absence of time-growing Laurent content across a group of parts.

    A coefficient of order (m, n) belonging to a genuine pole of the
    observed integrand size f_scale would be ~ f_scale * radius^(m+n),
    so each net coefficient is compared against the larger of that
    reference and the summed per-part magnitudes (the latter catches
    large contributions cancelling between parts).  The first-order
    double residue is reported as the discarded switch-on term, with
    its strength on the same scale (~1 for a genuine pole, ~0 for
    none).
    """
    record = {}
    ok = True
    for mn in _DIVERGENT_ORDERS:
        total = sum(coeffs[key][mn] for key in keys)
        parts_scale = sum(abs(coeffs[key][mn]) for key in keys)
        ref = max(parts_scale, f_scale * radius ** (-mn[0] - mn[1]))
        rel = abs(total) / ref if ref > 0.0 else 0.0
        vanishes = rel <= cancel_tol
        ok = ok and vanishes
        record[f"c{-mn[0]}{-mn[1]}"] = {
            "total": [total.real, total.imag],
            "parts_scale": parts_scale,
            "rel": rel,
            "vanishes": vanishes,
        }
    switch_on = sum(coeffs[key][(-1, -1)] for key in keys)
    ref11 = f_scale * radius ** 2
    record["switch_on"] = {
        "residue": [switch_on.real, switch_on.imag],
        "strength": abs(switch_on) / ref11 if ref11 > 0.0 else 0.0,
        "discarded": True,
        "reason": "first-order origin pole: time derivative of the causal "
                  "switch-on step, removed from steady assembly",
    }
    return record, ok


def dof_origin_report(geom, Q, probe=0.31 + 0.23j, radius=5e-3, n_theta=12,
                      cancel_tol=1e-5):
    """Origin taxonomy of the oscillator-transient integrand at one Q.

    Classifies every (plate, pol, bracket, piece) part in each Laplace
    variable against the expected order table, verifies per plate that
    the divergent Laurent coefficients c_{-2,-2}, c_{-2,-1}, c_{-1,-2}
    cancel across the plate's parts, and records the surviving
    first-order double residue as the discarded switch-on term.  The
    returned dict is JSON-ready; ``"taxonomy_ok"`` summarizes it.

    The integrand is sampled at 208 (s1, s2) pairs (two rings of 32
    points against the probe, a 12 x 12 torus) but its Green blocks are
    built once per distinct Laplace point and phase: 90 per-variable
    halves, each holding one `green_gap_from_plate` block per coupled
    plate.
    """
    def half(s, phase_sign):
        return _dof_half(geom, Q, s, phase_sign)

    def pair(h1, h2):
        return _dof_pair(geom, h1, h2, parts=True)[1]

    orders = _classify_parts(half, pair, probe)
    parts_report = {}
    all_match = True
    for (plate, pol, bracket, piece), (o1, o2) in sorted(orders.items()):
        want = expected_dof_origin_orders(pol, bracket, piece)
        match = (o1.order, o2.order) == want and o1.resolved and o2.resolved
        all_match = all_match and match
        parts_report["|".join((plate, pol, bracket, piece))] = {
            "order": [o1.order, o2.order],
            "slope": [o1.slope, o2.slope],
            "expected": list(want),
            "matches": match,
        }
    keys = sorted(orders)
    coeffs, f_scale = _origin_tables(half, pair, keys, radius, n_theta)
    plates_report = {}
    cancel_ok = True
    for plate in ("L", "R"):
        plate_keys = [k for k in keys if k[0] == plate]
        if not plate_keys:
            continue
        record, ok = _cancellation_record(coeffs, plate_keys, cancel_tol,
                                          f_scale, radius)
        cancel_ok = cancel_ok and ok
        plates_report[plate] = record
    return {
        "kind": "dof_origin",
        "Q": float(Q),
        "probe": [probe.real, probe.imag],
        "radius": radius,
        "scale": f_scale,
        "parts": parts_report,
        "plates": plates_report,
        "steady_after_discard": 0.0,
        "taxonomy_ok": bool(all_match and cancel_ok),
    }


def ic_origin_report(geom, k, beta_em=math.inf, probe=0.31 + 0.23j,
                     radius=5e-3, n_theta=12, cancel_tol=1e-5):
    """Origin taxonomy of the initial-field integrand at one wavevector.

    Same structure as the oscillator-transient report with parts keyed
    (pol, piece); the candidate modes away from the origin are covered
    separately by `modified_mode_check`.  As there, each Green block
    (`ic_z_block`) is built once per distinct Laplace point and phase:
    90 builds for the 208 sampled pairs.
    """
    def half(s, phase_sign):
        return _ic_half(geom, k, s, phase_sign)

    def pair(h1, h2):
        return _ic_pair(k, h1, h2, beta_em=beta_em, parts=True)[1]

    orders = _classify_parts(half, pair, probe)
    parts_report = {}
    all_match = True
    for (pol, piece), (o1, o2) in sorted(orders.items()):
        want = expected_ic_origin_orders(pol, piece)
        match = (o1.order, o2.order) == want and o1.resolved and o2.resolved
        all_match = all_match and match
        parts_report["|".join((pol, piece))] = {
            "order": [o1.order, o2.order],
            "slope": [o1.slope, o2.slope],
            "expected": list(want),
            "matches": match,
        }
    keys = sorted(orders)
    coeffs, f_scale = _origin_tables(half, pair, keys, radius, n_theta)
    record, cancel_ok = _cancellation_record(coeffs, keys, cancel_tol,
                                             f_scale, radius)
    return {
        "kind": "ic_origin",
        "k": [float(k[0]), float(k[1]), float(k[2])],
        "probe": [probe.real, probe.imag],
        "radius": radius,
        "scale": f_scale,
        "parts": parts_report,
        "total": record,
        "steady_after_discard": 0.0,
        "taxonomy_ok": bool(all_match and cancel_ok),
    }
