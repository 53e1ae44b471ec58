#!/usr/bin/env python3
"""Scan the left plate temperature through and past equilibrium.

Holds the geometry and the right plate temperature fixed while T_L runs
over a linear grid, emitting the steady pressure and the per-plate
channel sums.  The channel sums ``from_left`` and ``from_right`` cover
the real axis [0, omega_max]; ``tail`` is the part past the ceiling
``omega_max``, so from_left + from_right + tail is the pressure.  The
scan crosses T_L = T_R, where the result must agree
with the equilibrium value, so the printed column ``delta_eq`` (pressure
minus the value at the closest-to-equal point) shows how the imbalance
pushes the force away from the Lifshitz point.

Natural units (hbar = c = kB = 1).
"""

import argparse
import sys

import numpy as np

from neqlifshitz.em_green import Geometry
from neqlifshitz.material import BathModel, Material
from neqlifshitz.pressure import PressureOptions, steady_pressure


def plate(omega0, lambda0, gamma, temperature):
    return Material(omega0=omega0, lambda0=lambda0,
                    bath=BathModel(kind="ohmic", gamma=gamma),
                    beta_bath=np.inf if temperature == 0 else 1.0 / temperature)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gap", type=float, default=1.0)
    parser.add_argument("--t-right", type=float, default=0.5)
    parser.add_argument("--t-min", type=float, default=0.1)
    parser.add_argument("--t-max", type=float, default=1.5)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--lambda0", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=0.1)
    parser.add_argument("--rel-tol", type=float, default=1e-3)
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    right = plate(args.omega0, args.lambda0, args.gamma, args.t_right)
    opts = PressureOptions(rel_tol=args.rel_tol)
    temps = np.linspace(args.t_min, args.t_max, args.points)
    rows = []
    for t_left in temps:
        left = plate(args.omega0, args.lambda0, args.gamma, float(t_left))
        res = steady_pressure(Geometry(gap=args.gap, left=left, right=right), opts)
        from_left, from_right = (sum(v for (p, _, _), v in res.breakdown.items() if p == side)
                                 for side in ("L", "R"))
        rows.append((float(t_left), res.value, res.err, from_left, from_right, res.tail,
                     res.omega_max_used))

    i_eq = int(np.argmin(np.abs(temps - args.t_right)))
    p_eq = rows[i_eq][1]
    lines = ["T_L,pressure,err,from_left,from_right,tail,omega_max,delta_eq"]
    for t_left, value, err, from_left, from_right, tail, omega_max in rows:
        lines.append(f"{t_left!r},{value!r},{err!r},{from_left!r},"
                     f"{from_right!r},{tail!r},{omega_max!r},{value - p_eq!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
