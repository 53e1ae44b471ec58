"""Dissipative dielectric model: one internal oscillator per half-space,
linearly damped by a thermal bath.

Everything is expressed through the retarded Laplace-domain response

    G(s) = 1 / (s**2 + omega0**2 - 2*D(s)),        eps(s) = 1 + lambda0**2 * G(s)

with D(s) the bath dissipation kernel.  Fourier-domain quantities follow from
s -> -i*omega (retarded boundary values).  Natural units: hbar = c = kB = 1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SingularityError

BATH_KINDS = ("none", "ohmic", "ohmic_lorentz_cutoff")

# Retarded prescription: marginal (gamma = 0) responses are evaluated at
# s + eta with eta relative to the local frequency scale.
ETA_REL = 1e-9


def _eta_shift(s):
    """The retarded evaluation point s + eta, eta = ETA_REL * max(|s|, 1):
    elementwise for an array of Laplace points, a scalar for a scalar."""
    if np.ndim(s):
        return s + ETA_REL * np.maximum(np.abs(s), 1.0)
    return s + ETA_REL * max(abs(s), 1.0)


@dataclass(frozen=True)
class BathModel:
    """Dissipation kernel attached to a plate's internal oscillator.

    Parameters
    ----------
    kind : str
        One of ``"none"``, ``"ohmic"`` (2*D(s) = -gamma*s) or
        ``"ohmic_lorentz_cutoff"`` (2*D(s) = -gamma*s*cutoff/(s + cutoff)).
    gamma : float
        Friction coefficient, finite and >= 0.
    cutoff : float
        Lorentz-Drude cutoff of the spectral density (only used by the
        cutoff kind, where it must be finite), > 0.
    """

    kind: str = "ohmic"
    gamma: float = 0.1
    cutoff: float = math.inf

    def __post_init__(self):
        if self.kind not in BATH_KINDS:
            raise DomainError(f"unknown bath kind {self.kind!r}; expected one of {BATH_KINDS}")
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError(f"bath gamma must be finite and >= 0, got {self.gamma}")
        if self.kind == "ohmic_lorentz_cutoff" and not 0.0 < self.cutoff < math.inf:
            raise DomainError(f"ohmic_lorentz_cutoff needs a finite positive cutoff, got {self.cutoff}")
        if not self.cutoff > 0.0:
            raise DomainError(f"bath cutoff must be > 0 (inf allowed), got {self.cutoff}")
        if self.kind == "none" and self.gamma != 0.0:
            raise DomainError("bath kind 'none' must have gamma = 0")


@dataclass(frozen=True)
class Material:
    """Half-space material: oscillator (omega0, mass, coupling lambda0)
    plus its bath and the two inverse temperatures.

    ``beta_bath`` weights the steady noise; ``beta_dof`` only enters the
    transient initial-condition integrands.  ``math.inf`` means T = 0.
    The static dissipation shift vanishes for both supported kernels
    (D(0) = 0), so omega0 is the observed resonance and
    eps(0) = 1 + lambda0**2/omega0**2 exactly.
    """

    omega0: float = 1.0
    lambda0: float = 1.0
    mass: float = 1.0
    bath: BathModel = field(default_factory=BathModel)
    beta_bath: float = math.inf
    beta_dof: float = math.inf

    def __post_init__(self):
        if not 0 < self.omega0 < math.inf:
            raise DomainError(f"omega0 must be finite and > 0, got {self.omega0}")
        if not 0 <= self.lambda0 < math.inf:
            raise DomainError(f"lambda0 must be finite and >= 0, got {self.lambda0}")
        if not 0 < self.mass < math.inf:
            raise DomainError(f"mass must be finite and > 0, got {self.mass}")
        for name in ("beta_bath", "beta_dof"):
            b = getattr(self, name)
            if not b > 0:
                raise DomainError(f"{name} must be > 0 (inf allowed), got {b}")

    @property
    def has_loss(self):
        return self.bath.kind != "none" and self.bath.gamma > 0 and self.lambda0 > 0


def bath_dissipation(bath, s):
    """Laplace-domain dissipation kernel D(s).

    Conventions: the oscillator Green function denominator is
    s**2 + omega0**2 - 2*D(s), so the ohmic kernel 2*D(s) = -gamma*s
    yields the familiar s**2 + gamma*s + omega0**2.

    Parameters
    ----------
    bath : BathModel
    s : complex or ndarray

    Returns
    -------
    complex or ndarray
        D(s); vanishes at s = 0 for every supported kind.
    """
    s = np.asarray(s, dtype=complex) if isinstance(s, np.ndarray) else complex(s)
    if bath.kind == "none":
        return 0.0 * s
    if bath.kind == "ohmic":
        return -0.5 * bath.gamma * s
    # ohmic_lorentz_cutoff: 2D(s) = -gamma*s*L/(s+L)
    return -0.5 * bath.gamma * s * bath.cutoff / (s + bath.cutoff)


def qbm_green(mat, s):
    """Retarded oscillator Green function G(s) = 1/(s^2 + omega0^2 - 2 D(s)).

    G(0) = 1/omega0^2 > 0 and dG/dt(0+) = 1 in the time domain.  Raises
    SingularityError when s lands on a pole.
    """
    s_arr = np.asarray(s, dtype=complex)
    den = s_arr * s_arr + mat.omega0**2 - 2.0 * bath_dissipation(mat.bath, s_arr)
    scale = np.abs(s_arr) ** 2 + mat.omega0**2
    bad = np.abs(den) <= 1e-14 * scale
    if np.any(bad):
        pt = s_arr[bad].flat[0] if s_arr.ndim else complex(s_arr)
        raise SingularityError(f"oscillator response pole at s = {pt}", point=pt)
    out = 1.0 / den
    return out if s_arr.ndim else complex(out)


def permittivity(mat, s):
    """eps(s) = 1 + lambda0^2 G(s) on the Laplace domain."""
    return 1.0 + mat.lambda0**2 * qbm_green(mat, s)


def _fourier_s(mat, omega):
    """Laplace point for the retarded Fourier boundary value of ``mat``.

    Lossy materials are evaluated exactly at s = -i*omega; marginal ones
    (gamma = 0) need the eta-prescription to stay retarded.
    """
    s = -1j * np.asarray(omega, dtype=float)
    return s if mat.bath.gamma > 0 else _eta_shift(s)


def permittivity_fourier(mat, omega):
    """Retarded Fourier permittivity eps_bar(omega) = eps(s = -i omega).

    Accepts a Material or an EpsilonTable.  Passive: Im eps_bar(omega) >= 0
    for omega > 0, and eps_bar(-omega) = conj(eps_bar(omega)).
    """
    if isinstance(mat, EpsilonTable):
        return mat.eps_fourier(omega)
    out = permittivity(mat, _fourier_s(mat, omega))
    return out


def bath_dissipation_fourier(bath, omega):
    """D_bar(omega) = D(s = -i omega); Im D_bar(omega) >= 0 for omega > 0."""
    return bath_dissipation(bath, -1j * np.asarray(omega, dtype=float))


def _coth(x):
    """coth(x) elementwise; overflow-safe, +-1 beyond |x| ~ 20."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = np.abs(x) > 20.0
    out[big] = np.sign(x[big])
    out[~big] = 1.0 / np.tanh(x[~big])
    return out


def noise_fourier(mat, omega):
    """Steady bath noise weight N_bar(omega) = coth(beta_bath*omega/2) Im D_bar(omega).

    Even in omega and >= 0.  At omega = 0 the classical plateau
    gamma/beta_bath is returned (its T = 0 limit is 0); at beta = inf the
    coth degenerates to sign(omega).
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    beta = mat.beta_bath
    im_d = np.imag(bath_dissipation_fourier(mat.bath, omega_arr))
    if math.isinf(beta):
        out = np.sign(omega_arr) * im_d
    else:
        out = np.empty_like(omega_arr)
        zero = omega_arr == 0.0
        # lim_{w->0} coth(beta w/2) Im D_bar(w) = (2/beta) * d Im D_bar/dw (0)
        out[zero] = (2.0 / beta) * _im_dbar_slope0(mat.bath)
        nz = ~zero
        out[nz] = _coth(0.5 * beta * omega_arr[nz]) * im_d[nz]
    return out if np.ndim(omega) else float(out[0])


def _im_dbar_slope0(bath):
    """d Im D_bar / d omega at omega = 0 (= gamma/2 for both ohmic kernels)."""
    if bath.kind == "none":
        return 0.0
    return 0.5 * bath.gamma  # cutoff kind: gamma*L^2/(2(L^2+0)) = gamma/2


def fdr_epsilon_identity(mat, omega):
    """Both sides of the permittivity fluctuation-dissipation identity.

    Returns
    -------
    (lhs, rhs) : tuple of float
        lhs = Im eps_bar(omega);
        rhs = 2 * lambda0^2 * Im D_bar(omega) * G(-i omega) * G(+i omega).
        The identity is exact for every dissipative material.
    """
    w = float(omega)
    lhs = float(np.imag(permittivity_fourier(mat, w)))
    gg = qbm_green(mat, _fourier_s(mat, w)) * qbm_green(mat, np.conj(_fourier_s(mat, w)))
    rhs = 2.0 * mat.lambda0**2 * float(np.imag(bath_dissipation_fourier(mat.bath, w))) * float(np.real(gg))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Tabulated permittivities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonTable:
    """A plate of one constant real permittivity, given as a table.

    Every row must carry the same eps, and it must be real.  A
    frequency-dependent table determines eps neither below its first row
    nor off the real axis, where the Matsubara sum, the plate-mode roots
    and the Green blocks need it; a constant complex eps has no causal
    continuation at all (the Matsubara sum would read only its real part,
    and eps(s) could not be both one constant at s = +-i w and Hermitian
    in w).  Both are refused here.  The constant is eps at every Laplace
    point and every real frequency.  ``beta_bath`` is the temperature
    weight used when the table stands in for a plate.
    """

    omega: np.ndarray
    eps: np.ndarray
    beta_bath: float = math.inf

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        ep = np.asarray(self.eps, dtype=complex)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "eps", ep)
        if om.ndim != 1 or om.size < 1 or ep.shape != om.shape:
            raise DomainError("table needs matching 1-d omega and eps arrays")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(ep))):
            raise DomainError("table values must be finite")
        if np.any(om <= 0) or np.any(np.diff(om) <= 0):
            raise DomainError("table frequencies must be positive and strictly increasing")
        if np.any(ep != ep[0]):
            k = int(np.argmax(ep != ep[0]))
            raise DomainError(
                f"table rows disagree: eps({om[k]:g}) = {ep[k]:g} but "
                f"eps({om[0]:g}) = {ep[0]:g}; a table plate is one constant permittivity")
        if ep[0].imag != 0.0:
            raise DomainError(
                f"table permittivity must be real, got eps = {ep[0]:g}: a constant "
                f"complex eps has no causal continuation")
        if not self.beta_bath > 0:
            raise DomainError(f"beta_bath must be > 0, got {self.beta_bath}")

    def eps_fourier(self, omega):
        """eps_bar(omega): the constant."""
        if np.ndim(omega) == 0:
            return complex(self.eps[0])
        return np.full(np.shape(omega), self.eps[0])

    def eps_laplace(self, s):
        """eps(s) at any Laplace point: the constant."""
        return complex(self.eps[0]) + 0.0 * np.asarray(s, dtype=complex)


def load_epsilon_table(text, beta_bath=math.inf):
    """Parse an epsilon table from CSV text.

    Format: three numeric columns ``omega, re_eps, im_eps`` per line;
    blank lines and ``#`` comments ignored.  Raises ConfigError with the
    offending line number on malformed input, DomainError on invalid data.
    """
    if isinstance(text, bytes):
        text = text.decode()
    rows = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p for p in line.replace(",", " ").split() if p]
        if len(parts) != 3:
            raise ConfigError(f"expected 3 columns (omega, re_eps, im_eps), got {len(parts)}", line=lineno)
        try:
            w, re_e, im_e = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"non-numeric field: {exc}", line=lineno) from None
        rows.append((w, re_e, im_e))
    if not rows:
        raise ConfigError("table is empty")
    arr = np.array(rows, dtype=float)
    return EpsilonTable(omega=arr[:, 0], eps=arr[:, 1] + 1j * arr[:, 2], beta_bath=beta_bath)
