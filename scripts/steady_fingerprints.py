#!/usr/bin/env python3
"""Bit-level fingerprints of the steady pressure engine.

Prints one line per case of a fixed list: the float.hex of every number
the case returns and the integrand points it evaluated, as channel-map +
contour points (counted by wrapping ``pressure._bath_channels``, the size
of its Q, and ``pressure._line_integrand`` at the complex frequencies of
``pressure._contour_line_integral``, the size of its y).  A case whose
plates are one material evaluates no channel map: its real axis takes
the line k_z = omega + i y of the propagating sector and the round-trip
form of the evanescent one, and its line gets ``line=`` and ``evan=``
columns of those points (``pressure._line_integrand`` at real
frequencies, the size of its y, and ``pressure._evanescent_integrand``,
the size of its Q).  The ``freqs=`` column counts the real-axis
frequencies the case hands ``pressure._inner_q_integral``, the outer
rule's nodes on [0, omega_max] and in the Euler tail slices, so a change
to the outer seeds shows its cost.  A `steady_pressure` case
returns value, err, tail, omega_max_used and the eight channels in
BREAKDOWN_KEYS order; a lockstep Q case returns its channel integrals and
per-frequency errors.  Two checkouts that print the same text compute
the same bits, so a change to the quadrature that claims to move no
number is checked by diffing this output before and after it.  The
``point-map`` case calls the channel map itself on a fixed batch of
points and returns its rows, the ``point-map-high`` case does so on the
dissimilar plates at high frequencies, where the round trip x is small,
and the ``straggler`` case calls it as the inner rules do, on one chunk
of panels with and without a light-line node in its propagating run
(the engine's rows, one per plate and polarization in each panel's
sector).  The ``dissimilar-euler-multiround`` case is a low-loss pair
whose real axis takes rounds after its seed round, so the Euler slices,
segments of the same outer call, read a running floor there.  The
``dissimilar-T1-critical`` case is the default plates at one temperature,
whose soft plate's critical wavenumber omega sqrt(eps - 1) ~ 0.616 omega
at low omega lies off the generic evanescent seed marks (1/(4 l) .. 4/l,
omega, 2 omega), so only its own critical marks seed it.  The
``zero-count`` case counts the zeros of D_mu in the full TE and TM
strips of the surface-band plates by the argument principle and returns
the windings and each strip's boundary samples, so the counter's bits
are diffed directly:

    PYTHONPATH=src python3 scripts/steady_fingerprints.py > before.txt

``--case NAME`` (repeatable) runs only the named cases.  Natural units
(hbar = c = kB = 1).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from neqlifshitz import cli, pressure
from neqlifshitz.em_green import Geometry, plate_eps
from neqlifshitz.material import BathModel, Material
from neqlifshitz.pressure import BREAKDOWN_KEYS, PressureOptions, steady_pressure

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
OMEGAS = np.array([0.5, 1.3, 2.9, 6.0])


def plate(omega0, lambda0, gamma, temperature):
    return Material(omega0=omega0, lambda0=lambda0,
                    bath=BathModel(kind="ohmic", gamma=gamma),
                    beta_bath=math.inf if temperature == 0 else 1.0 / temperature)


def identical(gap, t_left, t_right):
    """The sweep-far and acceptance plates (omega0 = lambda0 = 1, gamma = 0.1)."""
    return Geometry(gap=gap, left=plate(1.0, 1.0, 0.1, t_left),
                    right=plate(1.0, 1.0, 0.1, t_right))


def dissimilar(gap, t_left, t_right):
    """The plates of configs/default.cfg at temperatures (T_L, T_R)."""
    return Geometry(gap=gap, left=plate(1.0, 1.0, 0.1, t_left),
                    right=plate(1.3, 0.8, 0.2, t_right))


def steady(geom, opts):
    res = steady_pressure(geom, opts)
    return [res.value, res.err, res.tail, res.omega_max_used,
            *(res.breakdown[k] for k in BREAKDOWN_KEYS)]


def _steady(geom, **opts):
    return lambda: steady(geom, PressureOptions(**opts))


def default_config():
    cfg = cli.load_config(DEFAULT_CFG)
    return steady(cli.geometry_for(cfg), cli._pressure_options(cfg))


def _lockstep(rule, *args):
    """A lockstep Q case: its integrals, then its per-frequency errors.
    ``rule`` names the `pressure` function, looked up when the case runs
    so that the counting wrappers see the call."""
    return lambda: np.concatenate([np.ravel(a) for a in getattr(pressure, rule)(*args)])


def point_map():
    """The rows of the public channel map on identical, then dissimilar
    plates, each without and with thermal_only, at omega = 0, on the
    light line Q = omega and in both sectors."""
    w = np.repeat(np.append(0.0, OMEGAS[:3]), 6)
    Q = np.where(w > 0.0, w, 1.0) * np.tile([0.0, 0.3, 0.999, 1.0, 1.7, 3.0], 4)
    return [pressure._bath_channels(geom, w, Q, thermal_only=thermal_only)
            for geom in (identical(1.0, 1.0, 0.3), dissimilar(1.0, 1.0, 0.3))
            for thermal_only in (False, True)]


def point_map_high():
    """The rows of the public channel map on the dissimilar plates at
    omega = 8, 12 and 17, in both sectors and on the light line Q =
    omega."""
    w = np.repeat([8.0, 12.0, 17.0], 6)
    Q = w * np.tile([0.0, 0.3, 0.9, 1.0, 1.1, 2.0], 3)
    return pressure._bath_channels(dissimilar(1.0, 1.0, 0.5), w, Q)


def straggler():
    """The channel rows of one inner-rule chunk on the default plates:
    three propagating panels of 15 theta nodes (Q = omega sin(theta)),
    then three evanescent panels (sqrt(Q^2 - omega^2) = decay t/(1 - t)),
    with each panel's frequency factors; one row per plate and
    polarization, each panel's sector's.  First with the last node of the
    second panel at theta = pi/2 - 1e-9, where sin(theta) rounds to 1 and
    Q = omega, then with that node at its place on the grid."""
    geom = dissimilar(1.0, 1.0, 0.5)
    ws = OMEGAS[:3, None]
    t = np.linspace(0.02, 0.97, 15)
    decay = np.maximum(ws, 0.5 / geom.gap)
    Q_e = np.hypot(ws, decay * t / (1.0 - t))
    factors = (pressure._frequency_factors(geom, OMEGAS[:3]), np.tile(np.arange(3), 2))
    rows = []
    for light in (True, False):
        theta = np.tile(np.linspace(0.05, 1.5, 15), (3, 1))
        if light:
            theta[1, -1] = 0.5 * math.pi - 1e-9
        Q = np.vstack([ws * np.sin(theta), Q_e])
        rows.append(pressure._bath_channels(geom, np.vstack([ws, ws]), Q, factors=factors))
    return rows


def zero_count():
    """The windings of N_mu / k_z along the full TE and TM strips 0 <
    Re k_z < omega, 0 < Im k_z < top (`pressure._strip_top`) of the
    surface-band plates (omega0 = lambda0 = 1, gamma = 1e-2, l = 1) at
    omega = 1.2247, where Re eps = -1, then each strip's number of
    boundary samples."""
    geom = Geometry(gap=1.0, left=plate(1.0, 1.0, 1e-2, 1.0), right=plate(1.0, 1.0, 1e-2, 0.3))
    w = np.full(2, 1.2247)
    eps = plate_eps(geom.left, -1j * w)[None]
    strips = np.array([np.zeros(2), w, np.zeros(2), pressure._strip_top(geom, w, eps)])
    counts = pressure._box_winding(geom, w, eps, np.arange(2), strips)
    return [winding for winding, *_ in counts] + [len(k) for _, k, *_ in counts]


CASES = {
    "sweep-far": _steady(identical(2.0, 1.0, 0.3), rel_tol=2e-3),
    "sweep-far-3e-4": _steady(identical(2.0, 1.0, 0.3), rel_tol=3e-4),
    "criterion-1-l2-T0.1": _steady(identical(2.0, 0.1, 0.1), rel_tol=3e-4),
    "dissimilar-T0.7-contour": _steady(dissimilar(1.0, 0.7, 0.7)),
    "dissimilar-T1-critical": _steady(dissimilar(1.0, 1.0, 1.0)),
    "dissimilar-euler": _steady(dissimilar(0.7, 2.0, 0.2)),
    "dissimilar-euler-multiround": _steady(Geometry(gap=1.0, left=plate(1.0, 1.0, 1e-2, 1.0),
                                                    right=plate(1.3, 0.8, 2e-2, 0.3))),
    "identical-T0": _steady(identical(1.0, 0.0, 0.0), rel_tol=1e-3),
    "thermal-only-contour": _steady(identical(1.0, 1.0, 0.5), rel_tol=1e-3, thermal_only=True),
    "thermal-only-euler": _steady(dissimilar(1.0, 1.0, 0.5), rel_tol=1e-3, thermal_only=True),
    "omega-max-8-contour": _steady(identical(1.0, 1.0, 0.5), rel_tol=1e-3, omega_max=8.0),
    "omega-max-8-euler": _steady(dissimilar(1.0, 1.0, 0.5), rel_tol=1e-3, omega_max=8.0),
    "default-config": default_config,
    "surface-band-gamma-1e-2": _steady(Geometry(gap=1.0, left=plate(1.0, 1.0, 1e-2, 1.0),
                                                right=plate(1.0, 1.0, 1e-2, 0.3)), rel_tol=1e-3),
    **{f"criterion-8-l{g:.4g}": _steady(identical(float(g), 1.0, 1.0), rel_tol=2e-3)
       for g in np.geomspace(1.0, 10.0, 5)},
    "inner-q": _lockstep("_inner_q_integral", dissimilar(1.0, 1.0, 0.5), OMEGAS, False,
                         1e-10, 0.0),
    "line-q": _lockstep("_inner_q_integral", identical(1.0, 1.0, 0.5), OMEGAS, False,
                        1e-10, 0.0),
    "point-map": point_map,
    "point-map-high": point_map_high,
    "straggler": straggler,
    "contour-q": _lockstep("_contour_line_integral", identical(1.0, 1.0, 0.5),
                           OMEGAS + 0.7j, np.ones(len(OMEGAS)), 1e-10, 0.0),
    "zero-count": zero_count,
}


def _hex(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


def fingerprint(name):
    """The case's line: its name, its numbers in float.hex and its points."""
    points = {"_bath_channels": 0, "contour": 0, "_line_integrand": 0,
              "_evanescent_integrand": 0, "_inner_q_integral": 0}
    wrapped = ("_bath_channels", "_line_integrand", "_evanescent_integrand",
               "_inner_q_integral")
    originals = {key: getattr(pressure, key) for key in wrapped}

    def counting(key, sizes):
        def wrapper(*args, **kwargs):
            # the line at a complex frequency is the contour tail's
            tally = "contour" if key == "_line_integrand" and np.iscomplexobj(args[1]) else key
            points[tally] += int(np.broadcast(*sizes(args)).size)
            return originals[key](*args, **kwargs)
        return wrapper

    pressure._bath_channels = counting("_bath_channels", lambda a: (a[2],))
    pressure._line_integrand = counting("_line_integrand", lambda a: (a[3],))
    pressure._evanescent_integrand = counting("_evanescent_integrand", lambda a: (a[3],))
    pressure._inner_q_integral = counting("_inner_q_integral", lambda a: (a[1],))
    try:
        numbers = CASES[name]()
    finally:
        for key, fn in originals.items():
            setattr(pressure, key, fn)
    counts = f"{points['_bath_channels']}+{points['contour']} freqs={points['_inner_q_integral']}"
    if points["_line_integrand"]:
        counts += f" line={points['_line_integrand']} evan={points['_evanescent_integrand']}"
    return f"{name} points={counts} {_hex(numbers)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", choices=list(CASES),
                        help="run only this case (repeatable; default all)")
    args = parser.parse_args(argv)
    for name in args.case or CASES:
        print(fingerprint(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
