"""Laplace-domain EM Green-tensor blocks for two parallel half-spaces.

Geometry: plates fill z < -l/2 (left, index 1) and z > +l/2 (right,
index 2); the gap is vacuum and the origin sits mid-gap.  After a Fourier
transform in the transverse plane every block is a finite sum of terms

    scalar * exp(exp_z * z) * exp(src_exp * (z_src - z_ref)) * f ⊗ u

over polarizations mu in {TE, TM}, which is kept symbolic (GreenTerm /
GreenBlock) so that z-derivatives act exactly term by term.  The stress
contraction of two blocks (`spectral.theta_contract`) and the transient
integrands built on it live in :mod:`.spectral`; the steady pressure
(:mod:`.pressure`) uses only the Fresnel coefficients and wavenumbers of
this module.

Conventions: q_z = sqrt(eps(s) s^2 + Q^2) with the principal branch and a
retarded shift s -> s + eta realizing boundary values from Re s > 0;
polarization vectors e_TE = Qhat x zhat and
e_TM[+-] = (Q zhat -+ i q_z Qhat) / (sqrt(eps) i s), where [+] propagates
toward +z.  In every transmitted term the sqrt(eps) of e_TM cancels
against the one in t^TM; the assembled source vectors below use the
cancelled form and are single-valued across the sqrt(eps) cut.
"""

from __future__ import annotations

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
    materials get the retarded eta shift); a table is one constant at
    every s.  Raw numbers pass through as a fixed permittivity (oracle use).
    """
    if isinstance(side, (int, float, complex)):
        return complex(side)
    if isinstance(side, EpsilonTable):
        return side.eps_laplace(s)
    s_arr = np.asarray(s, dtype=complex)
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
    """The common retarded evaluation point used inside every block.

    Elementwise for an array of Laplace points.
    """
    if np.ndim(s):
        return s + ETA_REL * np.maximum(np.abs(s), 1.0)
    return s + ETA_REL * max(abs(s), 1.0)


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
    t_tm = 2.0 * np.sqrt(np.asarray(eps, dtype=complex)) * qn / (eps * q + qn)
    return _fresnel_coeffs(eps, q, qn, s)[:3] + (t_tm,)


def _fresnel_coeffs(eps, q, qn, s, work=None, tag=None, abs_q=None):
    """(r_TE, r_TM, t_TE, |eps q + qn|, |qn|) of `fresnel` from a plate's
    permittivity and the two z-wavenumbers.

    The bare t_TM is left out: the assembled source vectors cancel its
    sqrt(eps) (see `_source_vecs`); the moduli of the TM denominator and
    of qn, both needed for the singularity test, come along for the
    steady integrand's sources.  ``abs_q`` is |q| when the caller already
    has it (the same q serves both plates).  Raises the same
    SingularityError as `fresnel` when a denominator vanishes (s may be an
    array of Laplace points broadcast against q; the error names the first
    bad one).

    With a workspace ``work`` (the steady integrand's, see
    `pressure._Workspace`; q and qn then 1-d arrays of one length) every
    array is written into its buffers: the five results into those keyed
    by ``tag``, so each plate keeps its own until the next call with the
    same tag.
    """
    out = dict.fromkeys(("eq", "den_te", "den_tm", "r_te", "r_tm", "t_te", "scale", "abs",
                         "abs_qn", "abs_tm", "bad", "bad_tm"))     # None: a fresh array
    if work is not None:
        n = len(q)
        out.update(zip(("eq", "den_te", "den_tm"),
                       work.take("fresnel.complex", 3 * n, complex).reshape(3, n)))
        out.update(zip(("r_te", "r_tm", "t_te"),
                       work.take(("fresnel.coeffs", tag), 3 * n, complex).reshape(3, n)))
        out.update(zip(("scale", "abs"), work.take("fresnel.real", 2 * n).reshape(2, n)))
        out.update(zip(("abs_qn", "abs_tm"),
                       work.take(("fresnel.moduli", tag), 2 * n).reshape(2, n)))
        out.update(zip(("bad", "bad_tm"), work.take("fresnel.flags", 2 * n, bool).reshape(2, n)))
    eq = np.multiply(eps, q, out=out["eq"])
    den_te = np.add(q, qn, out=out["den_te"])
    den_tm = np.add(eq, qn, out=out["den_tm"])
    if abs_q is None:
        abs_q = np.abs(q, out=out["scale"])
    abs_qn = np.abs(qn, out=out["abs_qn"])
    scale = np.multiply(1e-14, np.add(abs_q, abs_qn, out=out["scale"]), out=out["scale"])
    bad = np.less_equal(np.abs(den_te, out=out["abs"]), scale, out=out["bad"])
    abs_tm = np.abs(den_tm, out=out["abs_tm"])
    bad = np.logical_or(bad, np.less_equal(abs_tm, scale, out=out["bad_tm"]), out=out["bad"])
    if np.any(bad):
        pt = _first_bad(s, bad)
        raise SingularityError(f"Fresnel denominator vanishes at s={pt}", point=pt)
    r_te = np.divide(np.subtract(q, qn, out=out["r_te"]), den_te, out=out["r_te"])
    r_tm = np.divide(np.subtract(eq, qn, out=out["r_tm"]), den_tm, out=out["r_tm"])
    t_te = np.divide(np.multiply(2.0, qn, out=out["t_te"]), den_te, out=out["t_te"])
    return r_te, r_tm, t_te, abs_tm, abs_qn


def _plate_fresnel(geom, s, Q, _fresnel=None):
    """Per plate (left, right), (r_TE, r_TM, t_TE, eps, qn) at (s, Q).

    Each plate's permittivity and z-wavenumber ride along with its Fresnel
    coefficients, so the block builders never evaluate them again.
    ``_fresnel`` is the pair a caller already computed for this same
    (geom, s, Q); it is returned as is.
    """
    if _fresnel is not None:
        return _fresnel
    q = np.asarray(qz(1.0, s, Q))
    pair = []
    for side in (geom.left, geom.right):
        eps = plate_eps(side, s)
        qn = np.asarray(qz(eps, s, Q))
        pair.append(_fresnel_coeffs(eps, q, qn, s)[:3] + (eps, qn))
    return tuple(pair)


def _block_s(s):
    """A block's Laplace point(s): a complex scalar, or a complex array."""
    return complex(s) if np.ndim(s) == 0 else np.asarray(s, dtype=complex)


def _first_bad(s, bad):
    """The first Laplace point flagged by ``bad`` (s broadcasts against it)."""
    return np.broadcast_to(s, np.shape(bad))[bad].flat[0] if np.ndim(s) else complex(s)


def dmu(geom, s, Q, pol, _fresnel=None):
    """Multiple-reflection denominator D_mu = 1 - r1 r2 exp(-2 q_z l).

    ``_fresnel`` is the private `_plate_fresnel` pair at the same (s, Q),
    for block builders that already hold it.
    """
    i = 0 if pol == "TE" else 1
    f_left, f_right = _plate_fresnel(geom, s, Q, _fresnel)
    r1 = f_left[i]
    r2 = f_right[i]
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

    ``s`` is one complex Laplace point or an array of them; an array
    broadcasts against Q, and every term's arrays carry the broadcast
    shape of the two (plus the vector axis for field and source vectors).

    ``phase_sign`` records whether the block lives at transverse wavevector
    +Q*qhat or -Q*qhat (the sign enters the polarization vectors and the
    transverse derivatives of the stress contraction).  ``delta_scalar``
    carries the symbolic -zz*delta(z - z_src)/s^2 bulk term, never
    evaluated at coincidence.
    """

    terms: tuple
    s: complex                    # or ndarray of Laplace points
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
    """Vacuum polarization vectors of a block at wavevector phase_sign*Q*qhat.

    s (one point or an array) broadcasts against Q; the vectors are shaped
    broadcast(s, Q) + (3,).
    """
    qv = phase_sign * np.asarray(qhat, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if q is None:
        q = np.asarray(qz(1.0, s, Q))
    e_te = np.broadcast_to(np.cross(qv, ZHAT), q.shape + (3,))
    scale = np.asarray(1.0 / (1j * _s_eff(s)))[..., None]
    qz_part = np.multiply.outer(Q, ZHAT) * scale
    qv_part = np.multiply.outer(q, qv) * (1j * scale)
    return qv, e_te, qz_part - qv_part, qz_part + qv_part


def _source_vecs(eps, q, qn, s, Q, qv, updown, num):
    """Assembled t^mu * e_mu^(n)[updown] of one plate, sqrt(eps) cancelled.

    eps, q and qn are the plate's permittivity and the gap and plate
    z-wavenumbers at (s, Q), s one point or an array broadcast against Q.  num is the numerator of the transmission
    coefficient: 2 qn for plate->gap, 2 q for gap->plate.

        TE: num/(q + qn) * (qv x zhat)
        TM: num (Q zhat - updown*i*qn*qv) / ((eps q + qn) (i s))
    """
    te = (num / (q + qn))[..., None] * np.cross(qv, ZHAT)
    tm = (np.multiply.outer(np.asarray(Q, dtype=float), ZHAT)
          - updown * 1j * np.multiply.outer(qn, qv)) \
        * (num / ((eps * q + qn) * 1j * _s_eff(s)))[..., None]
    return te, tm


def green_gap_from_plate(geom, plate, s, Q, phase_sign=+1, _fresnel=None):
    """Green block: field point in the gap, source point inside one plate.

    Two terms per polarization: the transmitted wave runs straight to the
    field point (tag "direct") or once more off the far plate (tag
    "reflected"); the cavity factor 1/D_mu resums further round trips.
    The source z-dependence stays symbolic, referenced to the plate
    boundary: exp(q_n * distance-into-plate).

    These blocks feed the transient integrands (:mod:`.spectral`) and the
    plate-source integrals; the steady pressure uses the closed form they
    contract to (see the pressure module), and the tests check one
    against the other.
    s may be one Laplace point or an array broadcast against Q.
    ``_fresnel`` is the private `_plate_fresnel` pair at the same
    (s, Q), for builders that already hold it.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(qz(1.0, s, Q))
    f_left, f_right = _plate_fresnel(geom, s, Q, _fresnel)
    f_own, f_other = (f_left, f_right) if plate == "L" else (f_right, f_left)
    eps, qn = f_own[3], f_own[4]
    qv, e_te, e_tm_up, e_tm_dn = _gap_vectors(s, Q, qhat=XHAT,
                                              phase_sign=phase_sign, q=q)
    updown = +1 if plate == "L" else -1
    src_te, src_tm = _source_vecs(eps, q, qn, s, Q, qv, updown, 2.0 * qn)
    if plate == "L":
        direct_tm, refl_tm = e_tm_up, e_tm_dn
        direct_exp, refl_exp, src_exp = -q, +q, +qn
    else:
        direct_tm, refl_tm = e_tm_dn, e_tm_up
        direct_exp, refl_exp, src_exp = +q, -q, -qn
    ex = np.exp(-q * geom.gap)               # one full gap crossing
    decay_near = np.exp(-q * geom.gap / 2)   # boundary -> mid-gap offset
    decay_far = decay_near * ex              # after one far-plate bounce
    z_ref = geom.boundary(plate)
    terms = []
    for i, pol, dvec, rvec, svec in ((0, "TE", e_te, e_te, src_te),
                                     (1, "TM", direct_tm, refl_tm, src_tm)):
        r_far = f_other[i]
        pref = -1.0 / (2.0 * qn * (1.0 - f_own[i] * r_far * ex * ex))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="direct",
                               field_vec=dvec, src_vec=svec,
                               scalar=pref * decay_near + 0j,
                               exp_z=direct_exp + 0j, src_exp=src_exp,
                               z_ref=z_ref))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="reflected",
                               field_vec=rvec, src_vec=svec,
                               scalar=pref * r_far * decay_far + 0j,
                               exp_z=refl_exp + 0j, src_exp=src_exp,
                               z_ref=z_ref))
    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q, qhat=XHAT,
                      phase_sign=phase_sign, geom=geom)


def green_gap_bulk_scattered(geom, s, Q, z_src, phase_sign=+1, _fresnel=None):
    """Green block: both points in the gap (bulk + scattered pieces).

    Bulk: the free two-sided decay plus the symbolic
    -zz*delta(z-z')/s^2 term (flagged, never evaluated).  Scattered: the
    four once-or-more reflected paths, each resummed by 1/D_mu.
    s may be one Laplace point or an array broadcast against Q.
    ``_fresnel`` is the private `_plate_fresnel` pair at the same
    (s, Q), for builders that already hold it.
    """
    Q = np.asarray(Q, dtype=float)
    l = geom.gap
    if not (-l / 2 < z_src < l / 2):
        raise DomainError(f"source height {z_src} outside the gap")
    q = np.asarray(qz(1.0, s, Q))
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)
    pair = _plate_fresnel(geom, s, Q, _fresnel)
    r1 = pair[0][:2]
    r2 = pair[1][:2]
    d = {"TE": dmu(geom, s, Q, "TE", _fresnel=pair),
         "TM": dmu(geom, s, Q, "TM", _fresnel=pair)}
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
    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q, qhat=XHAT,
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
    pair = _plate_fresnel(geom, s, Q)
    own, other = (pair[0], pair[1]) if plate == "L" else (pair[1], pair[0])
    eps, qn = own[3], own[4]
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)
    r_other = other[:2]
    d = {"TE": dmu(geom, s, Q, "TE", _fresnel=pair),
         "TM": dmu(geom, s, Q, "TM", _fresnel=pair)}
    updown = -1 if plate == "L" else +1
    fld_te, fld_tm = _source_vecs(eps, q, qn, s, Q, qv, updown, 2.0 * q)

    if plate == "L":
        fld_exp = +qn
        near_src, far_src = {"TE": e_te, "TM": e_dn}, {"TE": e_te, "TM": e_up}
        near_exp, far_exp = -q, +q
    else:
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

    The two plates' Fresnel coefficients, permittivities and
    z-wavenumbers are evaluated once per build and shared by every
    sub-block.  s may be an array of Laplace points broadcast against Q:
    one build then covers them all, and a point on a plate or gap
    denominator root raises a SingularityError naming the first such
    point.
    """
    Q = np.asarray(Q, dtype=float)
    kz_eff = phase_sign * kz
    l = geom.gap
    q = np.asarray(qz(1.0, s, Q))
    qv, e_te, e_up, e_dn = _gap_vectors(s, Q, qhat=XHAT, phase_sign=phase_sign)
    pair = _plate_fresnel(geom, s, Q)

    terms = []
    # --- source in the plates: boundary value / (qn -+ i kz)
    for (plate, sgn), optics in zip((("L", +1), ("R", -1)), pair):
        blk = green_gap_from_plate(geom, plate, s, Q, phase_sign=phase_sign,
                                   _fresnel=pair)
        qn = optics[4]
        den = qn + sgn * 1j * kz_eff
        bad = np.abs(den) <= 1e-13 * (np.abs(qn) + abs(kz))
        if np.any(bad):
            pt = _first_bad(s, bad)
            raise SingularityError(
                f"plate source integral hits a root of qn {'+' if sgn>0 else '-'} i kz"
                f" at s={pt}", point=pt)
        factor = np.exp(-sgn * 1j * kz_eff * l / 2) / den
        for t in blk.terms:
            terms.append(replace(t, scalar=t.scalar * factor, src_exp=0.0, z_ref=0.0))

    # --- source in the gap: bulk two-sided pieces
    cp = q + 1j * kz_eff          # denominator of the z' < z branch
    cm = q - 1j * kz_eff          # denominator of the z' > z branch
    for den, name in ((cp, "bulk+"), (cm, "bulk-")):
        bad = np.abs(den) <= 1e-13 * (np.abs(q) + abs(kz))
        if np.any(bad):
            pt = _first_bad(s, bad)
            raise SingularityError(
                f"gap source integral hits the modified-mode root in {name} at s={pt}",
                point=pt)
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
                           field_vec=np.broadcast_to(ZHAT, q.shape + (3,)),
                           src_vec=np.broadcast_to(ZHAT, q.shape + (3,)),
                           scalar=(-1.0 / _s_eff(s) ** 2) * np.ones_like(q),
                           exp_z=1j * kz_eff + 0.0 * q))

    # --- source in the gap: scattered pieces, entire functions of kz
    sc = green_gap_bulk_scattered(geom, s, Q, z_src=0.0, phase_sign=phase_sign,
                                  _fresnel=pair)
    f_up = _finite_exp_integral(+q + 1j * kz_eff, l)    # src_exp = +q terms
    f_dn = _finite_exp_integral(-q + 1j * kz_eff, l)    # src_exp = -q terms
    for t in sc.terms:
        if not t.tag.startswith("S"):
            continue
        fac = f_up if t.tag in ("S1", "S3") else f_dn
        terms.append(replace(t, scalar=t.scalar * fac, src_exp=0.0))

    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q, qhat=XHAT,
                      phase_sign=phase_sign, geom=geom)


def ic_z_integral(geom, s, Q, kz):
    """Closed-form value of int dz' G^{jb}(z1, z', Q, s) exp(i kz z').

    Returns the (j, b) tensor at z1 = geom.z_field, delta term included.
    The roots of the gap denominators q_z ± i kz (at s = ±i sqrt(Q²+kz²))
    and of the plate denominators are guarded: landing on one raises a
    SingularityError — they are analyzed, not evaluated (see spectral).
    For an array of s broadcast against Q the tensors are stacked on the
    broadcast shape.
    """
    return ic_z_block(geom, s, Q, kz, phase_sign=+1).evaluate(geom.z_field)
