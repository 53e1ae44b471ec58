"""Laplace-domain EM Green-tensor blocks for two parallel half-spaces.

Geometry: plates fill z < -l/2 (left, index 1) and z > +l/2 (right,
index 2); the gap is vacuum and the origin sits mid-gap.  After a Fourier
transform in the transverse plane every block is a finite sum of terms

    scalar * exp(exp_z * z) * exp(src_exp * (z_src - z_ref)) * f ⊗ u

over polarizations mu in {TE, TM}, which is kept symbolic (GreenTerm /
GreenBlock) so that z-derivatives act exactly term by term.  The plates
are isotropic, so every block lies at transverse wavevector
phase_sign*Q*xhat.  Each build evaluates its optics once, in one private
record (`_optics`: the gap wavenumber and, per plate, the permittivity,
wavenumber and Fresnel coefficients at (s, Q)), and every term reads from
it.  The stress contraction of two blocks (`spectral.theta_contract`) and
the transient integrands built on it live in :mod:`.spectral`; the steady
pressure (:mod:`.pressure`) uses only the Fresnel coefficients and
wavenumbers of this module.

Conventions: q_z = sqrt(eps(s) s^2 + Q^2) with the principal branch and a
retarded shift s -> s + eta realizing boundary values from Re s > 0;
with qv = phase_sign*xhat, polarization vectors e_TE = qv x zhat and
e_TM[+-] = (Q zhat -+ i q_z qv) / (sqrt(eps) i s), where [+] propagates
toward +z.  In every transmitted term the sqrt(eps) of e_TM cancels
against the one in t^TM; the assembled source vectors below use the
cancelled form and are single-valued across the sqrt(eps) cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, SingularityError
from .material import EpsilonTable, Material, _eta_shift, permittivity

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])

_PLATES = ("L", "R")
_POLS = ("TE", "TM")


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
        if not 0 < self.gap < math.inf:
            raise DomainError(f"gap must be > 0 and finite, got {self.gap}")
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
        s_arr = _eta_shift(s_arr)
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
    s_eff = np.where(on_axis, s, _eta_shift(s))
    x = np.asarray(eps, dtype=complex) * s_eff * s_eff \
        + np.asarray(Q, dtype=float) ** 2
    out = np.sqrt(x)
    neg = on_axis & (x.imag == 0) & (x.real < 0)
    if np.any(neg):
        out = np.where(neg, 1j * np.sign(s.imag) * np.sqrt(-x.real + 0j), out)
    return out if out.ndim else complex(out)


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
    r_te, r_tm = _fresnel_coeffs(eps, q, qn, s)
    t_te = 2.0 * qn / (q + qn)
    t_tm = 2.0 * np.sqrt(np.asarray(eps, dtype=complex)) * qn / (eps * q + qn)
    return r_te, r_tm, t_te, t_tm


def _fresnel_coeffs(eps, q, qn, s, out=None):
    """The reflection coefficients r = (r_TE, r_TM) of `fresnel` from a
    plate's permittivity and the two z-wavenumbers, the two polarizations
    stacked on a leading axis.

    The transmission coefficients are left out: the assembled source
    vectors cancel the sqrt(eps) of t_TM (see `_source_vecs`), and the
    steady integrand reads the reflection coefficients alone.  eps, q and
    qn broadcast against each other, so eps and qn may carry a leading
    axis of plates over one shared q.  Raises the same SingularityError as
    `fresnel` when a denominator vanishes (s broadcasts against the
    points; the error names the first bad one, in the order of the
    broadcast points).

    ``out`` is (den, r, mag), three buffers shaped (2,) + the broadcast
    shape (den and r complex, mag real), as the steady pass's channel
    kernel hands them from its workspace (`pressure._channel_kernel`);
    without it the three are fresh.  den takes the denominators, mag
    their moduli, and r, returned in its buffer, the numerators and then
    the quotient.
    """
    eq = eps * q
    if out is None:
        shape = (2,) + np.broadcast_shapes(np.shape(eq), np.shape(qn))
        out = (np.empty(shape, complex), np.empty(shape, complex), np.empty(shape))
    den, r, mag = out
    np.add(q, qn, out=den[0, ...])
    np.add(eq, qn, out=den[1, ...])
    bad = np.abs(den, out=mag) <= 1e-14 * (np.abs(q) + np.abs(qn))
    if np.count_nonzero(bad):
        pt = _first_bad(s, bad[0] | bad[1])
        raise SingularityError(f"Fresnel denominator vanishes at s={pt}", point=pt)
    np.subtract(q, qn, out=r[0, ...])
    np.subtract(eq, qn, out=r[1, ...])
    return np.divide(r, den, out=r)


def _optics(geom, s, Q):
    """The optics record (q, plates) that one block build shares: the gap
    z-wavenumber q and plates[plate] = (eps, qn, r) per plate, r the
    Fresnel coefficients (r_TE, r_TM) stacked on a leading axis.

    qz runs once for the gap, and plate_eps, qz and `_fresnel_coeffs` once
    per plate.  A Fresnel denominator root raises SingularityError naming
    the first such point of s.
    """
    q = np.asarray(qz(1.0, s, Q))
    plates = {}
    for plate in _PLATES:
        eps = plate_eps(geom.side(plate), s)
        qn = np.asarray(qz(eps, s, Q))
        plates[plate] = (eps, qn, _fresnel_coeffs(eps, q, qn, s))
    return q, plates


def _block_s(s):
    """A block's Laplace point(s): a complex scalar, or a complex array."""
    return complex(s) if np.ndim(s) == 0 else np.asarray(s, dtype=complex)


def _first_bad(s, bad):
    """The first Laplace point flagged by ``bad`` (s broadcasts against it)."""
    return np.broadcast_to(s, np.shape(bad))[bad].flat[0] if np.ndim(s) else complex(s)


def dmu(geom, s, Q, pol):
    """Multiple-reflection denominator D_mu = 1 - r1 r2 exp(-2 q_z l).

    A pol other than "TE" or "TM" raises DomainError.
    """
    if pol not in _POLS:
        raise DomainError(f"pol must be 'TE' or 'TM', got {pol!r}")
    return _dmu(geom, _optics(geom, s, Q), _POLS.index(pol))


def _dmu(geom, optics, i):
    """D_mu of `dmu` from an optics record, for polarization index i."""
    q, plates = optics
    return 1.0 - plates["L"][2][i] * plates["R"][2][i] * np.exp(-2.0 * q * geom.gap)


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
    """Sum-of-exponentials Green-tensor block at fixed (s, Q).

    ``s`` is one complex Laplace point or an array of them; an array
    broadcasts against Q, and every term's arrays carry the broadcast
    shape of the two (plus the vector axis for field and source vectors).

    ``phase_sign`` records whether the block lives at transverse wavevector
    +Q*xhat or -Q*xhat (the sign enters the polarization vectors and the
    transverse derivatives of the stress contraction).  ``delta_scalar``
    carries the symbolic -zz*delta(z - z_src)/s^2 bulk term, never
    evaluated at coincidence.
    """

    terms: tuple
    s: complex                    # or ndarray of Laplace points
    Q: np.ndarray
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


def _gap_vectors(s, Q, q, phase_sign):
    """Vacuum polarization vectors of a block at wavevector
    phase_sign*Q*xhat, from the gap wavenumber q: per polarization the
    (up, down) pair of `_POLS` order, (e_TE, e_TE) and (e_TM[+], e_TM[-]).

    s (one point or an array) broadcasts against Q; the vectors are shaped
    broadcast(s, Q) + (3,).
    """
    e_te = np.broadcast_to(np.array([0.0, -phase_sign, 0.0]), q.shape + (3,))  # qv x zhat
    scale = np.asarray(1.0 / (1j * _eta_shift(s)))[..., None]
    qz_part = np.multiply.outer(Q, ZHAT) * scale
    qv_part = np.multiply.outer(q, phase_sign * XHAT) * (1j * scale)
    return (e_te, e_te), (qz_part - qv_part, qz_part + qv_part)


def _source_vecs(eps, q, qn, s, Q, phase_sign, updown, num):
    """Assembled t^mu * e_mu^(n)[updown] of one plate, sqrt(eps) cancelled.

    eps, q and qn are the plate's permittivity and the gap and plate
    z-wavenumbers at (s, Q), s one point or an array broadcast against Q.
    num is the numerator of the transmission coefficient: 2 qn for
    plate->gap, 2 q for gap->plate.  With qv = phase_sign*xhat,

        TE: num/(q + qn) * (qv x zhat)
        TM: num (Q zhat - updown*i*qn*qv) / ((eps q + qn) (i s))
    """
    te = (num / (q + qn))[..., None] * np.array([0.0, -phase_sign, 0.0])
    tm = (np.multiply.outer(np.asarray(Q, dtype=float), ZHAT)
          - updown * 1j * np.multiply.outer(qn, phase_sign * XHAT)) \
        * (num / ((eps * q + qn) * 1j * _eta_shift(s)))[..., None]
    return te, tm


def _from_plate_terms(geom, plate, s, Q, optics, vectors, phase_sign, factor=None):
    """The direct and reflected terms per polarization of a from-plate
    block (see `green_gap_from_plate`), from the build's optics record
    and gap vectors.  With ``factor``, the plate-source integral of
    `ic_z_block`, the terms come source-integrated: each scalar times
    ``factor``, with src_exp = 0 and z_ref = 0."""
    q, plates = optics
    eps, qn, r_own = plates[plate]
    r_far = plates["R" if plate == "L" else "L"][2]
    updown = +1 if plate == "L" else -1
    src = _source_vecs(eps, q, qn, s, Q, phase_sign, updown, 2.0 * qn)
    if plate == "L":
        direct_exp, refl_exp, src_exp = -q, +q, +qn
    else:
        direct_exp, refl_exp, src_exp = +q, -q, -qn
    z_ref = geom.boundary(plate)
    if factor is not None:
        src_exp = z_ref = 0.0
    ex = np.exp(-q * geom.gap)               # one full gap crossing
    decay_near = np.exp(-q * geom.gap / 2)   # boundary -> mid-gap offset
    decay_far = decay_near * ex              # after one far-plate bounce
    terms = []
    for i, (pol, (up, dn)) in enumerate(zip(_POLS, vectors)):
        dvec, rvec = (up, dn) if plate == "L" else (dn, up)
        pref = -1.0 / (2.0 * qn * (1.0 - r_own[i] * r_far[i] * ex * ex))
        scalars = pref * decay_near + 0j, pref * r_far[i] * decay_far + 0j
        if factor is not None:
            scalars = tuple(sc * factor for sc in scalars)
        terms.append(GreenTerm(pol=pol, plate=plate, tag="direct",
                               field_vec=dvec, src_vec=src[i],
                               scalar=scalars[0], exp_z=direct_exp + 0j,
                               src_exp=src_exp, z_ref=z_ref))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="reflected",
                               field_vec=rvec, src_vec=src[i],
                               scalar=scalars[1], exp_z=refl_exp + 0j,
                               src_exp=src_exp, z_ref=z_ref))
    return terms


def _from_plate_blocks(geom, plates, s, Q, phase_sign):
    """{plate: from-plate block} for the named plates, all built from one
    optics record and one set of gap vectors."""
    Q = np.asarray(Q, dtype=float)
    optics = _optics(geom, s, Q)
    vectors = _gap_vectors(s, Q, optics[0], phase_sign)
    return {plate: GreenBlock(terms=tuple(_from_plate_terms(geom, plate, s, Q, optics,
                                                            vectors, phase_sign)),
                              s=_block_s(s), Q=Q, phase_sign=phase_sign, geom=geom)
            for plate in plates}


def green_gap_from_plate(geom, plate, s, Q, phase_sign=+1):
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
    s may be one Laplace point or an array broadcast against Q.  A plate
    other than "L" or "R" raises DomainError.
    """
    geom.side(plate)
    return _from_plate_blocks(geom, (plate,), s, Q, phase_sign)[plate]


def _scattered_terms(geom, optics, i, up, dn, integrals=None):
    """The scattered terms S1..S4 of polarization index i of a gap-source
    block, from the build's optics record and that polarization's gap
    vectors: the four once-or-more reflected paths, each resummed by
    1/D_mu, with the source exponents kept symbolic.  With ``integrals``,
    the gap-source integrals (f_up, f_dn) of `ic_z_block` for the src_exp
    = +q and -q terms, the terms come source-integrated: each scalar times
    its integral, with src_exp = 0."""
    q, plates = optics
    l, pol = geom.gap, _POLS[i]
    pref = -1.0 / (2.0 * q)
    r1, r2, d = plates["L"][2][i], plates["R"][2][i], _dmu(geom, optics, i)
    rr = r1 * r2 / d
    # S1: up at z after r2 then r1 round trips;  S2: down-source, r1, up
    # S3: up-source, r2, down;                   S4: down after r1 then r2
    s1 = s4 = pref * rr * np.exp(-2.0 * q * l) + 0j
    s2 = pref * r1 / d * np.exp(-q * l) + 0j
    s3 = pref * r2 / d * np.exp(-q * l) + 0j
    e_up, e_dn = +q, -q
    if integrals is not None:
        f_up, f_dn = integrals
        s1, s2, s3, s4 = s1 * f_up, s2 * f_dn, s3 * f_up, s4 * f_dn
        e_up = e_dn = 0.0
    return [GreenTerm(pol=pol, plate="gap", tag="S1", field_vec=up, src_vec=up,
                      scalar=s1, exp_z=-q + 0j, src_exp=e_up),
            GreenTerm(pol=pol, plate="gap", tag="S2", field_vec=up, src_vec=dn,
                      scalar=s2, exp_z=-q + 0j, src_exp=e_dn),
            GreenTerm(pol=pol, plate="gap", tag="S3", field_vec=dn, src_vec=up,
                      scalar=s3, exp_z=+q + 0j, src_exp=e_up),
            GreenTerm(pol=pol, plate="gap", tag="S4", field_vec=dn, src_vec=dn,
                      scalar=s4, exp_z=+q + 0j, src_exp=e_dn)]


def green_gap_bulk_scattered(geom, s, Q, z_src, phase_sign=+1):
    """Green block: both points in the gap (bulk + scattered pieces).

    Bulk: the free two-sided decay plus the symbolic
    -zz*delta(z-z')/s^2 term (flagged, never evaluated).  Scattered: the
    four once-or-more reflected paths, each resummed by 1/D_mu.
    s may be one Laplace point or an array broadcast against Q.
    """
    Q = np.asarray(Q, dtype=float)
    l = geom.gap
    if not (-l / 2 < z_src < l / 2):
        raise DomainError(f"source height {z_src} outside the gap")
    optics = _optics(geom, s, Q)
    q = optics[0]
    pref = -1.0 / (2.0 * q)

    terms = []
    for i, (up, dn) in enumerate(_gap_vectors(s, Q, q, phase_sign)):
        terms.append(GreenTerm(pol=_POLS[i], plate="gap", tag="bulk+",
                               field_vec=up, src_vec=up, scalar=pref + 0j,
                               exp_z=-q + 0j, src_exp=+q, step="z>zs"))
        terms.append(GreenTerm(pol=_POLS[i], plate="gap", tag="bulk-",
                               field_vec=dn, src_vec=dn, scalar=pref + 0j,
                               exp_z=+q + 0j, src_exp=-q, step="z<zs"))
        terms += _scattered_terms(geom, optics, i, up, dn)
    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q,
                      phase_sign=phase_sign, geom=geom, z_src=z_src,
                      has_delta=True, delta_scalar=-1.0 / _eta_shift(s) ** 2)


def green_plate_from_gap(geom, plate, s, Q, z_src, phase_sign=+1):
    """Green block: field point inside one plate, source in the gap.

    Reciprocal partner of green_gap_from_plate (used to check
    G^{ij}(x,x') = G^{ji}(x',x)): the source's down/up waves reach the
    interface directly or via the far plate, then transmit into the plate
    with the gap-side coefficient.  s may be one Laplace point or an
    array broadcast against Q.  A plate other than "L" or "R" raises
    DomainError.
    """
    geom.side(plate)
    Q = np.asarray(Q, dtype=float)
    l = geom.gap
    if not (-l / 2 < z_src < l / 2):
        raise DomainError(f"source height {z_src} outside the gap")
    optics = _optics(geom, s, Q)
    q, plates = optics
    eps, qn, _ = plates[plate]
    r_far = plates["R" if plate == "L" else "L"][2]
    updown = -1 if plate == "L" else +1
    fld = _source_vecs(eps, q, qn, s, Q, phase_sign, updown, 2.0 * q)
    if plate == "L":
        fld_exp, near_exp, far_exp = +qn, -q, +q
    else:
        fld_exp, near_exp, far_exp = -qn, +q, -q

    terms = []
    for i, (pol, (up, dn)) in enumerate(zip(_POLS, _gap_vectors(s, Q, q, phase_sign))):
        near_src, far_src = (dn, up) if plate == "L" else (up, dn)
        pref = -np.exp(qn * l / 2) / (2.0 * q * _dmu(geom, optics, i))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="direct",
                               field_vec=fld[i], src_vec=near_src,
                               scalar=pref * np.exp(-q * l / 2) + 0j,
                               exp_z=fld_exp + 0j, src_exp=near_exp + 0j))
        terms.append(GreenTerm(pol=pol, plate=plate, tag="reflected",
                               field_vec=fld[i], src_vec=far_src,
                               scalar=pref * r_far[i] * np.exp(-3.0 * q * l / 2) + 0j,
                               exp_z=fld_exp + 0j, src_exp=far_exp + 0j))
    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q,
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
    int dz' G^{jb}(z1, z', phase_sign*Q*xhat, s) exp(i phase_sign*kz*z'),
    with src_exp = 0 (the source coordinate is integrated out) and the
    closed-form gap/plate denominators folded into the scalars.  The
    sign of the exponent kz follows phase_sign so that the partner block
    of a pressure contraction is obtained with phase_sign = -1.

    One optics record (`_optics`) and one set of gap vectors serve every
    term, and each term is built source-integrated in one step: the plate
    and scattered term builders fold the source integrals into their
    scalars.
    s may be an array of Laplace points broadcast against Q:
    one build then covers them all, and a point on a plate or gap
    denominator root raises a SingularityError naming the first such
    point.
    """
    Q = np.asarray(Q, dtype=float)
    kz_eff = phase_sign * kz
    l = geom.gap
    optics = _optics(geom, s, Q)
    q, plates = optics
    vectors = _gap_vectors(s, Q, q, phase_sign)

    terms = []
    # --- source in the plates: boundary value / (qn -+ i kz)
    for plate, sgn in (("L", +1), ("R", -1)):
        qn = plates[plate][1]
        den = qn + sgn * 1j * kz_eff
        bad = np.abs(den) <= 1e-13 * (np.abs(qn) + abs(kz))
        if np.any(bad):
            pt = _first_bad(s, bad)
            raise SingularityError(
                f"plate source integral hits a root of qn {'+' if sgn>0 else '-'} i kz"
                f" at s={pt}", point=pt)
        factor = np.exp(-sgn * 1j * kz_eff * l / 2) / den
        terms += _from_plate_terms(geom, plate, s, Q, optics, vectors, phase_sign, factor)

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
    for pol, (up, dn) in zip(_POLS, vectors):
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
                           scalar=(-1.0 / _eta_shift(s) ** 2) * np.ones_like(q),
                           exp_z=1j * kz_eff + 0.0 * q))

    # --- source in the gap: scattered pieces, entire functions of kz
    integrals = (_finite_exp_integral(+q + 1j * kz_eff, l),    # src_exp = +q terms
                 _finite_exp_integral(-q + 1j * kz_eff, l))    # src_exp = -q terms
    for i, (up, dn) in enumerate(vectors):
        terms += _scattered_terms(geom, optics, i, up, dn, integrals)

    return GreenBlock(terms=tuple(terms), s=_block_s(s), Q=Q,
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
