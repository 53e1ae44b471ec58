"""Laplace-domain EM Green-tensor blocks for two parallel half-spaces.

Geometry: plates fill z < -l/2 (left, index 1) and z > +l/2 (right,
index 2); the gap is vacuum and the origin sits mid-gap.  After a Fourier
transform in the transverse plane every block is a finite sum of terms

    scalar * exp(exp_z * z) * exp(src_exp * (z_src - z_ref)) * f ⊗ u

over polarizations mu in {TE, TM}, which is kept symbolic (GreenTerm /
GreenBlock) so that z-derivatives act exactly term by term.

Conventions: q_z = sqrt(eps(s) s^2 + Q^2) with the principal branch and a
retarded shift s -> s + eta realizing boundary values from Re s > 0;
polarization vectors e_TE = Qhat x zhat and
e_TM[+-] = (Q zhat -+ i q_z Qhat) / (sqrt(eps) i s), where [+] propagates
toward +z.  In every transmitted term the sqrt(eps) of e_TM cancels
against the one in t^TM; the assembled source vectors below use the
cancelled form and are single-valued across the sqrt(eps) cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, SingularityError
from .material import ETA_REL, EpsilonTable, Material, permittivity

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])

_PLATES = ("L", "R")


@dataclass(frozen=True)
class Geometry:
    """Two half-spaces separated by a vacuum gap.

    Parameters
    ----------
    gap : float
        Separation l > 0.
    left, right : Material or EpsilonTable
        Plate responses (z < -l/2 and z > +l/2).
    z_field : float
        Field evaluation height, strictly inside the gap.
    """

    gap: float
    left: object = field(default_factory=Material)
    right: object = field(default_factory=Material)
    z_field: float = 0.0

    def __post_init__(self):
        if not self.gap > 0:
            raise DomainError(f"gap must be > 0, got {self.gap}")
        if not (-self.gap / 2 < self.z_field < self.gap / 2):
            raise DomainError(
                f"z_field = {self.z_field} not inside the gap (-{self.gap/2}, {self.gap/2})")
        for side in (self.left, self.right):
            if not isinstance(side, (Material, EpsilonTable)):
                raise DomainError(f"plate must be Material or EpsilonTable, got {type(side)!r}")

    def side(self, plate):
        if plate not in _PLATES:
            raise DomainError(f"plate must be 'L' or 'R', got {plate!r}")
        return self.left if plate == "L" else self.right

    def boundary(self, plate):
        return -self.gap / 2 if plate == "L" else self.gap / 2

    def swapped(self):
        """Mirror image about z = 0."""
        return Geometry(gap=self.gap, left=self.right, right=self.left,
                        z_field=-self.z_field)


def plate_eps(side, s):
    """Permittivity of one plate at the Laplace point s.

    Materials evaluate their oscillator response (marginal, gamma = 0
    materials get the retarded eta shift); dispersionless tables extend to
    any s, dispersive tables only supply Fourier boundary values s = -i w.
    Raw numbers pass through as a fixed permittivity (oracle use).
    """
    if isinstance(side, (int, float, complex)):
        return complex(side)
    s_arr = np.asarray(s, dtype=complex)
    if isinstance(side, EpsilonTable):
        if side.is_dispersionless:
            return side.eps_laplace(s)
        scale = np.maximum(np.abs(s_arr), 1.0)
        if np.any(np.abs(s_arr.real) > 1e-6 * scale):
            raise DomainError(
                "dispersive epsilon tables only provide boundary values at s = -i*omega")
        return side.eps_fourier(np.asarray(1j * s_arr).real)
    if not (side.bath.gamma > 0):
        s_arr = s_arr + ETA_REL * np.maximum(np.abs(s_arr), 1.0)
    return permittivity(side, s_arr if s_arr.ndim else complex(s_arr))


def qz(eps, s, Q):
    """z-wavenumber sqrt(eps*s^2 + Q^2), retarded branch, Re >= 0.

    Away from the imaginary s-axis the shift s -> s + eta (eta = 1e-9
    relative) keeps evaluation on the retarded side of the branch cut.
    Exactly on the axis (s = -i w, the physical boundary values) the limit
    eta -> 0+ is taken analytically: arguments off the negative real axis
    use the principal square root, and real-negative arguments (vacuum or
    lossless propagating sector) resolve to -i sign(w) sqrt(|.|), i.e.
    qz(-i w) = -i sqrt(w^2 - Q^2) exactly, with no parasitic damping of
    the gap phase factors.
    """
    s = np.asarray(s, dtype=complex)
    on_axis = (s.real == 0) & (s.imag != 0)
    s_eff = np.where(on_axis, s, s + ETA_REL * np.maximum(np.abs(s), 1.0))
    x = np.asarray(eps, dtype=complex) * s_eff * s_eff \
        + np.asarray(Q, dtype=float) ** 2
    out = np.sqrt(x)
    neg = on_axis & (x.imag == 0) & (x.real < 0)
    if np.any(neg):
        out = np.where(neg, 1j * np.sign(s.imag) * np.sqrt(-x.real + 0j), out)
    return out if out.ndim else complex(out)


def _s_eff(s):
    """The common retarded evaluation point used inside every block."""
    return s + ETA_REL * max(abs(s), 1.0)


def polarization_vectors(eps, s, Q, qhat=XHAT, sign=+1):
    """TE and TM unit polarization vectors for one medium.

    Parameters
    ----------
    eps : complex
        Medium permittivity at s.
    s : complex
        Laplace variable (s = 0 raises: the TM 1/s is a tracked pole).
    Q : float or ndarray
        Transverse wavenumber magnitude(s).
    qhat : 3-vector
        Transverse unit direction (z-component must vanish).
    sign : +1 or -1
        Propagation toward +z / -z for the TM vector.

    Returns
    -------
    (e_te, e_tm) : ndarray pair, shape Q.shape + (3,)
        Bilinear normalization e.e = 1 (no conjugation).
    """
    if s == 0:
        raise SingularityError("polarization vectors undefined at s = 0", point=0.0)
    qhat = np.asarray(qhat, dtype=float)
    if abs(qhat[2]) > 1e-12 or abs(qhat @ qhat - 1.0) > 1e-12:
        raise DomainError("qhat must be a transverse unit vector")
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(qz(eps, s, Q))
    e_te = np.broadcast_to(np.cross(qhat, ZHAT), Q.shape + (3,))
    e_tm = (np.multiply.outer(Q, ZHAT) - sign * 1j * np.multiply.outer(q, qhat)) \
        / (np.sqrt(complex(eps)) * 1j * _s_eff(s))
    return e_te, e_tm


def fresnel(side, s, Q):
    """Interface coefficients between the vacuum gap and one plate.

    Returns
    -------
    (r_te, r_tm, t_te, t_tm)
        Reflection seen from the gap and plate->gap transmission:
        r_TE = (q - qn)/(q + qn), r_TM = (eps q - qn)/(eps q + qn),
        t_TE = 2 qn/(q + qn),     t_TM = 2 sqrt(eps) qn/(eps q + qn).
    """
    eps = plate_eps(side, s)
    q = np.asarray(qz(1.0, s, Q))
    qn = np.asarray(qz(eps, s, Q))
    return _fresnel_coeffs(eps, q, qn, s)


def _fresnel_coeffs(eps, q, qn, s):
    """`fresnel` from a plate's permittivity and the two z-wavenumbers.

    For callers that need eps and qn themselves as well; raises the same
    SingularityError when a denominator vanishes.
    """
    den_te = q + qn
    den_tm = eps * q + qn
    scale = np.abs(q) + np.abs(qn)
    if np.any(np.abs(den_te) <= 1e-14 * scale) or np.any(np.abs(den_tm) <= 1e-14 * scale):
        raise SingularityError(f"Fresnel denominator vanishes at s={s}", point=s)
    r_te = (q - qn) / den_te
    r_tm = (eps * q - qn) / den_tm
    t_te = 2.0 * qn / den_te
    t_tm = 2.0 * np.sqrt(np.asarray(eps, dtype=complex)) * qn / den_tm
    return r_te, r_tm, t_te, t_tm


def dmu(geom, s, Q, pol):
    """Multiple-reflection denominator D_mu = 1 - r1 r2 exp(-2 q_z l)."""
    i = 0 if pol == "TE" else 1
    r1 = fresnel(geom.left, s, Q)[i]
    r2 = fresnel(geom.right, s, Q)[i]
    q = np.asarray(qz(1.0, s, Q))
    return 1.0 - r1 * r2 * np.exp(-2.0 * q * geom.gap)


# ---------------------------------------------------------------------------
# symbolic blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenTerm:
    """One exponential term of a Green-tensor block.

    The term contributes
    scalar * exp(exp_z*z) * exp(src_exp*(z_src - z_ref)) * field_vec (x) src_vec,
    optionally gated by ``step`` relative to the source height.
    """

    pol: str                      # "TE" | "TM"
    plate: str                    # "L" | "R" | "gap"
    tag: str                      # direct / reflected / bulk+ / S1.. bookkeeping
    field_vec: np.ndarray         # (..., 3)
    src_vec: np.ndarray           # (..., 3)
    scalar: np.ndarray            # (...,)
    exp_z: np.ndarray             # (...,) field z-exponent
    src_exp: np.ndarray = 0.0     # (...,) source z-exponent
    z_ref: float = 0.0            # source reference height
    step: str = ""                # "", "z>zs", "z<zs"


@dataclass(frozen=True)
class GreenBlock:
    """Sum-of-exponentials Green-tensor block at fixed (s, Q, qhat).

    ``phase_sign`` records whether the block lives at transverse wavevector
    +Q*qhat or -Q*qhat (the sign enters the polarization vectors and the
    transverse derivatives of the stress contraction).  ``delta_scalar``
    carries the symbolic -zz*delta(z - z_src)/s^2 bulk term, never
    evaluated at coincidence.
    """

    terms: tuple
    s: complex
    Q: np.ndarray
    qhat: np.ndarray
    phase_sign: int
    geom: Geometry
    z_src: float = None
    has_delta: bool = False
    delta_scalar: complex = 0.0

    def filtered(self, pol=None, tags=None):
        keep = tuple(t for t in self.terms
                     if (pol is None or t.pol == pol)
                     and (tags is None or t.tag in tags))
        return replace(self, terms=keep)

    def evaluate(self, z, z_src=None):
        """Assemble the 3x3 tensor at field height z (and source height z_src).

        z_src defaults to the block's own source height (bulk/scattered
        blocks) or to the plate boundary reference (plate-source blocks,
        where the default gives the boundary value of the source factor).
        The symbolic delta term is excluded.
        """
        if z_src is None:
            z_src = self.z_src
        out = 0.0
        for t in self.terms:
            w = 1.0
            if t.step:
                if z_src is None:
                    raise DomainError("step-gated term needs a source height")
                if t.step == "z>zs":
                    w = 1.0 if z > z_src else (0.5 if z == z_src else 0.0)
                else:
                    w = 1.0 if z < z_src else (0.5 if z == z_src else 0.0)
            if w == 0.0:
                continue
            amp = t.scalar * np.exp(t.exp_z * z)
            if z_src is not None and not np.all(t.src_exp == 0.0):
                amp = amp * np.exp(t.src_exp * (z_src - t.z_ref))
            amp = np.asarray(amp)
            out = out + w * amp[..., None, None] * (
                t.field_vec[..., :, None] * t.src_vec[..., None, :])
        return out


def _gap_vectors(s, Q, qhat, phase_sign, q=None):
    """Vacuum polarization vectors of a block at wavevector phase_sign*Q*qhat."""
    qv = phase_sign * np.asarray(qhat, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if q is None:
        q = np.asarray(qz(1.0, s, Q))
    e_te = np.broadcast_to(np.cross(qv, ZHAT), Q.shape + (3,))
    scale = 1.0 / (1j * _s_eff(s))
    qz_part = np.multiply.outer(Q, ZHAT) * scale
    qv_part = np.multiply.outer(q, qv) * (1j * scale)
    return qv, e_te, qz_part - qv_part, qz_part + qv_part


def _plate_source_vecs(side, s, Q, qv, updown):
    """Assembled t_n^mu * e_mu^(n)[updown] with the sqrt(eps) cancelled.

    TE: 2 qn/(q + qn) * (qv x zhat)
    TM: 2 qn (Q zhat - updown*i*qn*qv) / ((eps q + qn) (i s))
    """
    eps = plate_eps(side, s)
    q = np.asarray(qz(1.0, s, Q))
    qn = np.asarray(qz(eps, s, Q))
    te = (2.0 * qn / (q + qn))[..., None] * np.cross(qv, ZHAT)
    tm = (np.multiply.outer(np.asarray(Q, dtype=float), ZHAT)
          - updown * 1j * np.multiply.outer(qn, qv)) \
        * (2.0 * qn / ((eps * q + qn) * 1j * _s_eff(s)))[..., None]
    return te, tm


def _gap_source_vecs(side, s, Q, qv, updown):
    """Assembled t~_n^mu * e_mu^(n)[updown] for gap->plate transmission.

    The gap-side transmission t~ carries 2q in place of 2qn; the same
    sqrt(eps) cancellation applies.
    """
    eps = plate_eps(side, s)
    q = np.asarray(qz(1.0, s, Q))
    qn = np.asarray(qz(eps, s, Q))
    te = (2.0 * q / (q + qn))[..., None] * np.cross(qv, ZHAT)
    tm = (np.multiply.outer(np.asarray(Q, dtype=float), ZHAT)
          - updown * 1j * np.multiply.outer(qn, qv)) \
        * (2.0 * q / ((eps * q + qn) * 1j * _s_eff(s)))[..., None]
    return te, tm


def _emission_parts(geom, plate, s, Q, phase_sign):
    """Shared geometry/Fresnel data of the gap-from-plate blocks."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(qz(1.0, s, Q))
    side = geom.side(plate)
    f_own = fresnel(side, s, Q)
    f_other = fresnel(geom.side("R" if plate == "L" else "L"), s, Q)
    eps = plate_eps(side, s)
    qn = np.asarray(qz(eps, s, Q))
    qv, e_te, e_tm_up, e_tm_dn = _gap_vectors(s, Q, qhat=XHAT,
                                              phase_sign=phase_sign, q=q)
    updown = +1 if plate == "L" else -1
    src_te = f_own[2][..., None] * np.cross(qv, ZHAT)
    src_tm = (np.multiply.outer(Q, ZHAT)
              - updown * 1j * np.multiply.outer(qn, qv)) \
        * (2.0 * qn / ((eps * q + qn) * 1j * _s_eff(s)))[..., None]
    if plate == "L":
        direct_vecs = {"TE": e_te, "TM": e_tm_up}
        refl_vecs = {"TE": e_te, "TM": e_tm_dn}
        direct_exp, refl_exp, src_exp = -q, +q, +qn
    else:
        direct_vecs = {"TE": e_te, "TM": e_tm_dn}
        refl_vecs = {"TE": e_te, "TM": e_tm_up}
        direct_exp, refl_exp, src_exp = +q, -q, -qn
    return dict(Q=Q, q=q, qn=qn, f_own=f_own, f_other=f_other,
                src_te=src_te, src_tm=src_tm, direct_vecs=direct_vecs,
                refl_vecs=refl_vecs, direct_exp=direct_exp, refl_exp=refl_exp,
                src_exp=src_exp)


def _emission_terms(geom, plate, p):
    """Assemble the direct/reflected GreenTerms from _emission_parts data."""
    q, qn = p["q"], p["qn"]
    ex = np.exp(-q * geom.gap)               # one full gap crossing
    d_te = 1.0 - p["f_own"][0] * p["f_other"][0] * ex * ex
    d_tm = 1.0 - p["f_own"][1] * p["f_other"][1] * ex * ex
    decay_near = np.exp(-q * geom.gap / 2)   # boundary -> mid-gap offset
    decay_far = decay_near * ex              # after one far-plate bounce
    terms = []
    for pol, dvec, rvec, svec, d_pol, r_far in (
            ("TE", p["direct_vecs"]["TE"], p["refl_vecs"]["TE"], p["src_te"],
             d_te, p["f_other"][0]),
            ("TM", p["direct_vecs"]["TM"], p["refl_vecs"]["TM"], p["src_tm"],
             d_tm, p["f_other"][1])):
        pref = -1.0 / (2.0 * qn * d_pol)
        terms.append(GreenTerm(pol=pol, plate=plate, tag="direct",
                               field_vec=dvec, src_vec=svec,
                               scalar=pref * decay_near + 0j,
                               exp_z=p["direct_exp"] + 0j, src_exp=p["src_exp"],
                               z_ref=geom.boundary(plate)))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="reflected",
                               field_vec=rvec, src_vec=svec,
                               scalar=pref * r_far * decay_far + 0j,
                               exp_z=p["refl_exp"] + 0j, src_exp=p["src_exp"],
                               z_ref=geom.boundary(plate)))
    return tuple(terms)


def green_gap_from_plate(geom, plate, s, Q, phase_sign=+1):
    """Green block: field point in the gap, source point inside one plate.

    Two terms per polarization: the transmitted wave runs straight to the
    field point (tag "direct") or once more off the far plate (tag
    "reflected"); the cavity factor 1/D_mu resums further round trips.
    The source z-dependence stays symbolic, referenced to the plate
    boundary: exp(q_n * distance-into-plate).

    These blocks feed the transient integrands and the plate-source
    integrals; the steady pressure uses the closed form they contract to
    (see the pressure module), and the tests check one against the other.
    """
    p = _emission_parts(geom, plate, s, Q, phase_sign)
    terms = _emission_terms(geom, plate, p)
    return GreenBlock(terms=terms, s=complex(s), Q=p["Q"], qhat=XHAT,
                      phase_sign=phase_sign, geom=geom)


def green_gap_bulk_scattered(geom, s, Q, z_src, phase_sign=+1):
    """Green block: both points in the gap (bulk + scattered pieces).

    Bulk: the free two-sided decay plus the symbolic
    -zz*delta(z-z')/s^2 term (flagged, never evaluated).  Scattered: the
    four once-or-more reflected paths, each resummed by 1/D_mu.
    """
    Q = np.asarray(Q, dtype=float)
    l = geom.gap
    if not (-l / 2 < z_src < l / 2):
        raise DomainError(f"source height {z_src} outside the gap")
    q = np.asarray(qz(1.0, s, Q))
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)
    r1 = fresnel(geom.left, s, Q)[:2]
    r2 = fresnel(geom.right, s, Q)[:2]
    d = {"TE": dmu(geom, s, Q, "TE"), "TM": dmu(geom, s, Q, "TM")}
    pref = -1.0 / (2.0 * q)

    terms = []
    for ipol, pol in enumerate(("TE", "TM")):
        up = e_te if pol == "TE" else e_up
        dn = e_te if pol == "TE" else e_dn
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk+",
                               field_vec=up, src_vec=up, scalar=pref + 0j,
                               exp_z=-q + 0j, src_exp=+q, step="z>zs"))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk-",
                               field_vec=dn, src_vec=dn, scalar=pref + 0j,
                               exp_z=+q + 0j, src_exp=-q, step="z<zs"))
        rr = r1[ipol] * r2[ipol] / d[pol]
        # S1: up at z after r2 then r1 round trips;  S2: down-source, r1, up
        # S3: up-source, r2, down;                   S4: down after r1 then r2
        terms.append(GreenTerm(pol=pol, plate="gap", tag="S1",
                               field_vec=up, src_vec=up,
                               scalar=pref * rr * np.exp(-2.0 * q * l) + 0j,
                               exp_z=-q + 0j, src_exp=+q))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="S2",
                               field_vec=up, src_vec=dn,
                               scalar=pref * r1[ipol] / d[pol] * np.exp(-q * l) + 0j,
                               exp_z=-q + 0j, src_exp=-q))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="S3",
                               field_vec=dn, src_vec=up,
                               scalar=pref * r2[ipol] / d[pol] * np.exp(-q * l) + 0j,
                               exp_z=+q + 0j, src_exp=+q))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="S4",
                               field_vec=dn, src_vec=dn,
                               scalar=pref * rr * np.exp(-2.0 * q * l) + 0j,
                               exp_z=+q + 0j, src_exp=-q))
    return GreenBlock(terms=tuple(terms), s=complex(s), Q=Q, qhat=XHAT,
                      phase_sign=phase_sign, geom=geom, z_src=z_src,
                      has_delta=True, delta_scalar=-1.0 / _s_eff(s) ** 2)


def green_plate_from_gap(geom, plate, s, Q, z_src, phase_sign=+1):
    """Green block: field point inside one plate, source in the gap.

    Reciprocal partner of green_gap_from_plate (used to check
    G^{ij}(x,x') = G^{ji}(x',x)): the source's down/up waves reach the
    interface directly or via the far plate, then transmit into the plate
    with the gap-side coefficient.
    """
    Q = np.asarray(Q, dtype=float)
    l = geom.gap
    if not (-l / 2 < z_src < l / 2):
        raise DomainError(f"source height {z_src} outside the gap")
    q = np.asarray(qz(1.0, s, Q))
    side = geom.side(plate)
    other = geom.side("R" if plate == "L" else "L")
    qn = np.asarray(qz(plate_eps(side, s), s, Q))
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)
    r_other = fresnel(other, s, Q)[:2]
    d = {"TE": dmu(geom, s, Q, "TE"), "TM": dmu(geom, s, Q, "TM")}

    if plate == "L":
        fld_te, fld_tm = _gap_source_vecs(side, s, Q, qv, updown=-1)
        fld_exp = +qn
        near_src, far_src = {"TE": e_te, "TM": e_dn}, {"TE": e_te, "TM": e_up}
        near_exp, far_exp = -q, +q
    else:
        fld_te, fld_tm = _gap_source_vecs(side, s, Q, qv, updown=+1)
        fld_exp = -qn
        near_src, far_src = {"TE": e_te, "TM": e_up}, {"TE": e_te, "TM": e_dn}
        near_exp, far_exp = +q, -q

    terms = []
    for ipol, pol in enumerate(("TE", "TM")):
        fvec = fld_te if pol == "TE" else fld_tm
        pref = -np.exp(qn * l / 2) / (2.0 * q * d[pol])
        terms.append(GreenTerm(pol=pol, plate=plate, tag="direct",
                               field_vec=fvec, src_vec=near_src[pol],
                               scalar=pref * np.exp(-q * l / 2) + 0j,
                               exp_z=fld_exp + 0j, src_exp=near_exp + 0j))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="reflected",
                               field_vec=fvec, src_vec=far_src[pol],
                               scalar=pref * r_other[ipol] * np.exp(-3.0 * q * l / 2) + 0j,
                               exp_z=fld_exp + 0j, src_exp=far_exp + 0j))
    return GreenBlock(terms=tuple(terms), s=complex(s), Q=Q, qhat=XHAT,
                      phase_sign=phase_sign, geom=geom, z_src=z_src)


def z_integrated_pair(geom, plate, s1, s2, Q):
    """Closed-form plate integral of a product of two from-plate blocks.

    Integrates over the source coordinate inside ``plate``::

        T^{jk} = int_plate dz' G^{jb}(z1, z', +Q, s1) G^{kb}(z1, z', -Q, s2)
               = [boundary blocks contracted over b] / (qn(s1) + qn(s2))

    since both source factors decay like exp(qn * depth).  Requires
    Re(qn(s1) + qn(s2)) > 0.
    """
    side = geom.side(plate)
    qn1 = np.asarray(qz(plate_eps(side, s1), s1, Q))
    qn2 = np.asarray(qz(plate_eps(side, s2), s2, Q))
    den = qn1 + qn2
    if np.any(den.real <= 0):
        raise DomainError("plate z-integral diverges: Re(qn(s1)+qn(s2)) <= 0")
    b1 = green_gap_from_plate(geom, plate, s1, Q, phase_sign=+1)
    b2 = green_gap_from_plate(geom, plate, s2, Q, phase_sign=-1)
    z = geom.z_field
    t1 = b1.evaluate(z)          # source factor at the boundary = 1
    t2 = b2.evaluate(z)
    return np.einsum("...jb,...kb->...jk", t1, t2) / den[..., None, None]


def _finite_exp_integral(c, length):
    """int_{-L/2}^{+L/2} exp(c z) dz = 2 sinh(c L/2)/c, stable near c = 0."""
    x = np.atleast_1d(np.asarray(c, dtype=complex)) * (length / 2.0)
    if np.any(np.abs(x.real) > 300.0):
        raise DomainError("finite-layer source integral overflows; |Re c|*l too large")
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = length * (1.0 + xs * xs / 6.0 + xs ** 4 / 120.0)
    xl = x[~small]
    out[~small] = length * np.sinh(xl) / xl
    return out if np.ndim(c) else complex(out[0])


def ic_z_block(geom, s, Q, kz, phase_sign=+1):
    """Symbolic form of the plane-wave-weighted source integral.

    Returns a GreenBlock whose terms represent
    int dz' G^{jb}(z1, z', phase_sign*Q*qhat, s) exp(i phase_sign*kz*z'),
    with src_exp = 0 (the source coordinate is integrated out) and the
    closed-form gap/plate denominators folded into the scalars.  The
    sign of the exponent kz follows phase_sign so that the partner block
    of a pressure contraction is obtained with phase_sign = -1.
    """
    Q = np.asarray(Q, dtype=float)
    kz_eff = phase_sign * kz
    l = geom.gap
    q = np.asarray(qz(1.0, s, Q))
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)

    terms = []
    # --- source in the plates: boundary value / (qn -+ i kz)
    for plate, sgn in (("L", +1), ("R", -1)):
        blk = green_gap_from_plate(geom, plate, s, Q, phase_sign=phase_sign)
        qn = np.asarray(qz(plate_eps(geom.side(plate), s), s, Q))
        den = qn + sgn * 1j * kz_eff
        if np.any(np.abs(den) <= 1e-13 * (np.abs(qn) + abs(kz))):
            raise SingularityError(
                f"plate source integral hits a root of qn {'+' if sgn>0 else '-'} i kz",
                point=complex(s))
        factor = np.exp(-sgn * 1j * kz_eff * l / 2) / den
        for t in blk.terms:
            terms.append(replace(t, scalar=t.scalar * factor, src_exp=0.0, z_ref=0.0))

    # --- source in the gap: bulk two-sided pieces
    cp = q + 1j * kz_eff          # denominator of the z' < z branch
    cm = q - 1j * kz_eff          # denominator of the z' > z branch
    for den, name in ((cp, "bulk+"), (cm, "bulk-")):
        if np.any(np.abs(den) <= 1e-13 * (np.abs(q) + abs(kz))):
            raise SingularityError(
                f"gap source integral hits the modified-mode root in {name}",
                point=complex(s))
    for pol, up, dn in (("TE", e_te, e_te), ("TM", e_up, e_dn)):
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk+",
                               field_vec=up, src_vec=up,
                               scalar=-1.0 / (2.0 * q * cp) + 0j,
                               exp_z=1j * kz_eff + 0.0 * q))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk+edge",
                               field_vec=up, src_vec=up,
                               scalar=np.exp(-cp * l / 2) / (2.0 * q * cp) + 0j,
                               exp_z=-q + 0j))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk-",
                               field_vec=dn, src_vec=dn,
                               scalar=-1.0 / (2.0 * q * cm) + 0j,
                               exp_z=1j * kz_eff + 0.0 * q))
        terms.append(GreenTerm(pol=pol, plate="gap", tag="bulk-edge",
                               field_vec=dn, src_vec=dn,
                               scalar=np.exp(-cm * l / 2) / (2.0 * q * cm) + 0j,
                               exp_z=+q + 0j))
    # the zz delta term integrates to a regular plane wave
    terms.append(GreenTerm(pol="TM", plate="gap", tag="delta",
                           field_vec=np.broadcast_to(ZHAT, Q.shape + (3,)),
                           src_vec=np.broadcast_to(ZHAT, Q.shape + (3,)),
                           scalar=(-1.0 / _s_eff(s) ** 2) * np.ones_like(q),
                           exp_z=1j * kz_eff + 0.0 * q))

    # --- source in the gap: scattered pieces, entire functions of kz
    sc = green_gap_bulk_scattered(geom, s, Q, z_src=0.0, phase_sign=phase_sign)
    f_up = _finite_exp_integral(+q + 1j * kz_eff, l)    # src_exp = +q terms
    f_dn = _finite_exp_integral(-q + 1j * kz_eff, l)    # src_exp = -q terms
    for t in sc.terms:
        if not t.tag.startswith("S"):
            continue
        fac = f_up if t.tag in ("S1", "S3") else f_dn
        terms.append(replace(t, scalar=t.scalar * fac, src_exp=0.0))

    return GreenBlock(terms=tuple(terms), s=complex(s), Q=Q, qhat=XHAT,
                      phase_sign=phase_sign, geom=geom)


def ic_z_integral(geom, s, Q, kz):
    """Closed-form value of int dz' G^{jb}(z1, z', Q, s) exp(i kz z').

    Returns the (j, b) tensor at z1 = geom.z_field, delta term included.
    The roots of the gap denominators q_z ± i kz (at s = ±i sqrt(Q²+kz²))
    and of the plate denominators are guarded: landing on one raises a
    SingularityError — they are analyzed, not evaluated (see spectral).
    """
    return ic_z_block(geom, s, Q, kz, phase_sign=+1).evaluate(geom.z_field)
