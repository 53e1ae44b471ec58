#!/usr/bin/env python3
"""Bit-level fingerprints of the steady pressure engine.

Prints one line per case of a fixed list: the float.hex of every number
the case returns and the integrand points it evaluated, as real-axis +
contour points (counted by wrapping ``pressure._bath_channels``, the size
of its Q, and ``pressure._contour_integrand``).  A `steady_pressure` case
returns value, err, tail, omega_max_used and the eight channels in
BREAKDOWN_KEYS order; a lockstep Q case returns its channel integrals and
per-frequency errors.  Two checkouts that print the same text compute
the same bits, so a change to the quadrature that claims to move no
number is checked by diffing this output before and after it:

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
from neqlifshitz.em_green import Geometry
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
    """A lockstep Q case: its integrals, then its per-frequency errors."""
    return lambda: np.concatenate([np.ravel(a) for a in rule(*args)])


CASES = {
    "sweep-far": _steady(identical(2.0, 1.0, 0.3), rel_tol=2e-3),
    "sweep-far-3e-4": _steady(identical(2.0, 1.0, 0.3), rel_tol=3e-4),
    "criterion-1-l2-T0.1": _steady(identical(2.0, 0.1, 0.1), rel_tol=3e-4),
    "dissimilar-T0.7-contour": _steady(dissimilar(1.0, 0.7, 0.7)),
    "dissimilar-euler": _steady(dissimilar(0.7, 2.0, 0.2)),
    "identical-T0": _steady(identical(1.0, 0.0, 0.0), rel_tol=1e-3),
    "thermal-only-contour": _steady(identical(1.0, 1.0, 0.5), rel_tol=1e-3, thermal_only=True),
    "thermal-only-euler": _steady(dissimilar(1.0, 1.0, 0.5), rel_tol=1e-3, thermal_only=True),
    "omega-max-8-contour": _steady(identical(1.0, 1.0, 0.5), rel_tol=1e-3, omega_max=8.0),
    "omega-max-8-euler": _steady(dissimilar(1.0, 1.0, 0.5), rel_tol=1e-3, omega_max=8.0),
    "default-config": default_config,
    **{f"criterion-8-l{g:.4g}": _steady(identical(float(g), 1.0, 1.0), rel_tol=2e-3)
       for g in np.geomspace(1.0, 10.0, 5)},
    "inner-q": _lockstep(pressure._inner_q_integral, dissimilar(1.0, 1.0, 0.5), OMEGAS, False,
                         1e-10, 0.0),
    "contour-q": _lockstep(pressure._contour_q_integral, identical(1.0, 1.0, 0.5),
                           OMEGAS + 0.7j, np.ones(len(OMEGAS)), 1e-10, 0.0),
}


def _hex(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


def fingerprint(name):
    """The case's line: its name, its numbers in float.hex and its points."""
    points = {"_bath_channels": 0, "_contour_integrand": 0}
    originals = {key: getattr(pressure, key) for key in points}

    def counting(key, sizes):
        def wrapper(*args, **kwargs):
            points[key] += int(np.broadcast(*sizes(args)).size)
            return originals[key](*args, **kwargs)
        return wrapper

    pressure._bath_channels = counting("_bath_channels", lambda a: (a[2],))
    pressure._contour_integrand = counting("_contour_integrand", lambda a: (a[1], a[2]))
    try:
        numbers = CASES[name]()
    finally:
        for key, fn in originals.items():
            setattr(pressure, key, fn)
    counts = f"{points['_bath_channels']}+{points['_contour_integrand']}"
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
