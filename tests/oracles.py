"""An independent oracle of the steady pressure's non-equilibrium part.

P is linear in each plate's occupation c_a = coth(omega / 2 T_a).  With
c_bar = (c_L + c_R)/2 and dc = (c_L - c_R)/2 it splits into an even part,
c_bar (K_L + K_R), which the Matsubara sum checks, and the odd part dc (K_L
- K_R), which changes sign with the plates' temperatures and which no
equilibrium oracle sees.  `odd_part_oracle` integrates the odd part from
its closed form in plain Python (cmath) under nested
`scipy.integrate.quad`, so it shares no code with `steady_pressure`: not
the permittivity, the Fresnel coefficients, the channel kernel nor the
quadrature.  It shares the derivation: the closed forms are checked
pointwise against the stress contraction in tests/test_pressure.py.

With k = k_z the gap wavenumber, k_n = sqrt(eps omega^2 - Q^2) the
plate's (principal root), r_TE = (k - k_n)/(k + k_n), r_TM = (eps k -
k_n)/(eps k + k_n), x = r_L r_R exp(2 i k l) and C = 1/(4 pi^2), the rows
of K_L - K_R per polarization are

* propagating, k in [0, omega]: 2 C k^2 A Re[x / (1 - x)] dk, with A =
  (|r_R|^2 - |r_L|^2) / (1 - |r_L|^2 |r_R|^2);
* evanescent, k = i kappa, kappa in [0, inf): -2 C kappa^2 exp(-2 kappa l)
  Im(r_L conj(r_R)) / |1 - x|^2 dkappa.

Natural units (hbar = c = k_B = 1).  Plates are ohmic Lorentz
oscillators, eps = 1 + lambda0^2 / (omega0^2 - omega^2 - i gamma omega).
"""

import cmath
import math

from scipy.integrate import quad

C = 1.0 / (4.0 * math.pi ** 2)
#: Relative tolerances of the inner (Q) and the outer (omega) rules.
INNER_TOL = 1e-11
OUTER_TOL = 1e-10
#: The omega integral runs to this many times the hotter temperature;
#: dc decays like exp(-omega / T_max) past it.
OMEGA_CAP = 30.0
#: The evanescent integral runs to this many decay lengths 1/(2 l).
KAPPA_CAP = 40.0


def _eps(side, w):
    if side.bath.kind != "ohmic":
        raise ValueError("the oracle writes out ohmic plates only")
    return 1.0 + side.lambda0 ** 2 / (side.omega0 ** 2 - w * w - 1j * side.bath.gamma * w)


def _reflections(eps, w, k):
    kn = cmath.sqrt(eps * w * w - w * w + k * k)
    return (k - kn) / (k + kn), (eps * k - kn) / (eps * k + kn)


def _propagating(k, w, eps_l, eps_r, gap):
    phase = cmath.exp(2j * k * gap)
    total = 0.0
    for a, b in zip(_reflections(eps_l, w, k), _reflections(eps_r, w, k)):
        x = a * b * phase
        aa, bb = abs(a) ** 2, abs(b) ** 2
        total += (bb - aa) / (1.0 - aa * bb) * (x / (1.0 - x)).real
    return 2.0 * C * k * k * total


def _evanescent(kappa, w, eps_l, eps_r, gap):
    decay = math.exp(-2.0 * kappa * gap)
    total = 0.0
    for a, b in zip(_reflections(eps_l, w, 1j * kappa), _reflections(eps_r, w, 1j * kappa)):
        total += (a * b.conjugate()).imag / abs(1.0 - a * b * decay) ** 2
    return -2.0 * C * kappa * kappa * decay * total


def _half_dc(side_l, side_r, w):
    """dc = (coth(w / 2 T_L) - coth(w / 2 T_R)) / 2, written through
    exp(-w / T) so that it neither overflows nor cancels at large w."""
    def occ(side):
        if math.isinf(side.beta_bath):
            return 0.0
        e = math.exp(-side.beta_bath * w)
        return 2.0 * e / (1.0 - e)
    return 0.5 * (occ(side_l) - occ(side_r))


def odd_kernel(geom, w):
    """(K_L - K_R)(omega): both sectors, both polarizations."""
    eps_l, eps_r = _eps(geom.left, w), _eps(geom.right, w)
    args = (w, eps_l, eps_r, geom.gap)
    prop = quad(_propagating, 0.0, w, args=args, epsabs=0.0, epsrel=INNER_TOL, limit=200)[0]
    # the evanescent rows have their square-root edge at each plate's
    # critical wavenumber omega sqrt(eps - 1)
    edges = [w * cmath.sqrt(e - 1.0).real for e in (eps_l, eps_r)]
    cap = KAPPA_CAP / geom.gap
    evan = quad(_evanescent, 0.0, cap, args=args, epsabs=0.0, epsrel=INNER_TOL, limit=200,
                points=[e for e in edges if 0.0 < e < cap])[0]
    return prop + evan


def odd_part_oracle(geom):
    """The odd part dc (K_L - K_R) of the steady pressure, integrated over
    omega in [0, 30 T_max]: half the difference between the pressures at
    (T_L, T_R) and at (T_R, T_L)."""
    t_max = max(1.0 / side.beta_bath for side in (geom.left, geom.right))
    top = OMEGA_CAP * t_max
    marks = set()
    for side in (geom.left, geom.right):
        band = math.hypot(side.omega0, side.lambda0 / math.sqrt(2.0))
        marks.update((side.omega0, band, side.omega0 + side.lambda0))
    return quad(lambda w: _half_dc(geom.left, geom.right, w) * odd_kernel(geom, w), 0.0, top,
                epsabs=0.0, epsrel=OUTER_TOL, limit=400,
                points=sorted(m for m in marks if 0.0 < m < top))[0]
