"""Command-line front end: config parsing, sweeps, reports and CSV export.

Configuration grammar
---------------------
Line-oriented ``section.key = value`` pairs; blank lines and ``#``
comments are ignored.  Values are parsed as bool (``true``/``false``),
int, float or string, in that order.  ``_SCHEMA`` states every key's
type, default and range; this list repeats it.  A float key takes an
int, a str key reads any value as text, and every number must be finite.
Material and BathModel check the material ranges, PressureOptions the
options ranges.  ``table:PATH`` is relative to the config file::

    geometry
      l             float  required           > 0
      left, right   str    required           material name or table:PATH
      T_L, T_R      float  0.0                >= 0
    material.<name>
      omega0, mass  float  1.0                > 0
      lambda0       float  1.0                >= 0
      bath          str    ohmic              none | ohmic | ohmic_lorentz_cutoff
      gamma         float  0.1 (0 if none)    >= 0, and 0 if bath = none
      cutoff        float  inf                > 0 for ohmic_lorentz_cutoff
    sweep (optional; without it the geometry is evaluated at one point)
      variable      str    required           l | T_L | T_R
      start, stop   float  required           > 0
      points        int    required           >= 1
      spacing       str    linear             linear | log
    options
      rel_tol       float  1e-4               (0, 1e-2]
      omega_max     float  automatic          > 0
      thermal_only  bool   false
      subtract_infinite_separation
                    bool   true               true (always subtracted)
    output
      path          str    stdout             (--out overrides it)
    units
      si_scale_hz   float  unset              > 0 Hz; adds SI columns (m, Pa)
    epsilon
      material      str    geometry.left      material name or table:PATH
      omega_min     float  -10.0              < epsilon.omega_max
      omega_max     float  10.0
      points        int    401                >= 2
    poles
      material      str    geometry.left      material name
    verify
      samples       int    12                 >= 1
      seed          int    0                  >= 0
      T_eq          float  T_L or T_R or 0.5  >= 0

All quantities are in natural units (hbar = c = kB = 1).  Every CSV
starts with ``#`` header comments embedding the tool version and the
full resolved configuration, and floats are written in round-trip
format, so identical configs produce byte-identical files.

Exit codes: 0 success, 1 property failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .em_green import Geometry
from .errors import ConfigError, DomainError, NeqLifshitzError
from .material import (BathModel, Material, fdr_epsilon_identity,
                       load_epsilon_table, permittivity_fourier)
from .pressure import (BREAKDOWN_KEYS, PressureOptions, equilibrium_matsubara,
                       steady_pressure)
from .spectral import find_qbm_poles, modified_mode_check, scan_dmu_imaginary_axis

HBAR_SI = 1.054571817e-34   # J s
C_SI = 299792458.0          # m / s

_REQUIRED = object()   # no default: the key must be given
_RANGE_OPS = {">": operator.gt, ">=": operator.ge}

# section -> key -> (type, default, range).  A callable default is computed
# from the values resolved before it (the flat dotted values, or the
# material's own fields).  A range is "> x" / ">= x", a tuple of allowed
# values, or None where nothing is checked or the object load_config builds
# from the value (Material, BathModel, PressureOptions) checks it.
_SCHEMA = {
    "geometry": {
        "l": (float, _REQUIRED, "> 0"),
        "left": (str, _REQUIRED, None),
        "right": (str, _REQUIRED, None),
        "T_L": (float, 0.0, ">= 0"),
        "T_R": (float, 0.0, ">= 0"),
    },
    "material": {   # material.<name>.<field>
        "omega0": (float, Material.omega0, None),
        "lambda0": (float, Material.lambda0, None),
        "mass": (float, Material.mass, None),
        "bath": (str, BathModel.kind, None),
        "gamma": (float, lambda m: 0.0 if m["bath"] == "none" else BathModel.gamma,
                  None),
        "cutoff": (float, BathModel.cutoff, None),
    },
    "sweep": {
        "variable": (str, _REQUIRED, ("l", "T_L", "T_R")),
        "start": (float, _REQUIRED, "> 0"),
        "stop": (float, _REQUIRED, "> 0"),
        "points": (int, _REQUIRED, ">= 1"),
        "spacing": (str, "linear", ("linear", "log")),
    },
    "options": {
        "rel_tol": (float, PressureOptions.rel_tol, None),
        "omega_max": (float, PressureOptions.omega_max, None),
        "thermal_only": (bool, PressureOptions.thermal_only, None),
        "subtract_infinite_separation": (bool, True, None),
    },
    "output": {"path": (str, None, None)},
    "units": {"si_scale_hz": (float, None, "> 0")},
    "epsilon": {
        "material": (str, lambda v: v["geometry.left"], None),
        "omega_min": (float, -10.0, None),
        "omega_max": (float, 10.0, None),
        "points": (int, 401, ">= 2"),
    },
    "poles": {"material": (str, lambda v: v["geometry.left"], None)},
    "verify": {
        "samples": (int, 12, ">= 1"),
        "seed": (int, 0, ">= 0"),
        "T_eq": (float, lambda v: v["geometry.T_L"] or v["geometry.T_R"] or 0.5,
                 ">= 0"),
    },
}


@dataclass
class RunConfig:
    """Typed view of one parsed configuration file."""

    gap: float
    left: str
    right: str
    t_left: float
    t_right: float
    materials: dict     # name -> resolved field dict
    tables: dict        # "table:PATH" -> EpsilonTable
    sweep: dict         # resolved sweep block, or None
    options: dict       # the options keys the file sets
    si_scale_hz: float
    values: dict        # dotted key -> resolved value (no material keys)
    echo: tuple         # resolved key=value pairs


def _parse_value(text):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_entries(text):
    """``section.key = value`` lines -> list of (dotted key, value, line)."""
    entries = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if "." not in key:
            raise ConfigError(f"key {key!r} has no section prefix", line=lineno)
        if not value:
            raise ConfigError(f"missing value for {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first at line {seen[key]})",
                              line=lineno)
        seen[key] = lineno
        entries.append((key, _parse_value(value), lineno))
    return entries


def _check(key, value, spec, line):
    """One entry against its schema row: type, finiteness and range."""
    kind, _, rng = spec
    if kind is str:
        value = str(value)
    elif kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}", line=line)
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}", line=line)
    if isinstance(rng, tuple) and value not in rng:
        raise ConfigError(f"{key} must be one of {', '.join(rng)}", line=line)
    if isinstance(rng, str):
        op, bound = rng.split()
        if not _RANGE_OPS[op](value, float(bound)):
            raise ConfigError(f"{key} must be {rng}, got {value!r}", line=line)
    return value


def _resolve(table, given, prefix, out):
    """Add every key of ``table`` to ``out``: given, else the default."""
    for sub, (_, default, _) in table.items():
        key = prefix + sub
        if key in given:
            out[key] = given[key]
        else:
            out[key] = default(out) if callable(default) else default
    return out


def _material(fields, beta):
    bath = BathModel(kind=fields["bath"], gamma=fields["gamma"],
                     cutoff=fields["cutoff"])
    return Material(omega0=fields["omega0"], lambda0=fields["lambda0"],
                    mass=fields["mass"], bath=bath, beta_bath=beta)


def load_config(path):
    """Parse and validate a config file into a RunConfig.

    Every entry is checked against ``_SCHEMA``; materials, pressure
    options, material names and table paths are resolved eagerly, so
    every configuration error surfaces here with a line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    entries = parse_entries(text)

    # checked values, and their lines ("material.<name>": its first line)
    given, mat_given, lines = {}, {}, {}
    for key, value, line in entries:
        lines[key] = line
        section, _, sub = key.partition(".")
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r} in {key!r}", line=line)
        if section != "material":
            if sub not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key}", line=line)
            given[key] = _check(key, value, _SCHEMA[section][sub], line)
            continue
        name, dot, fld = sub.partition(".")
        if not dot:
            raise ConfigError(f"material keys look like material.<name>.<field>,"
                              f" got {key}", line=line)
        if fld not in _SCHEMA["material"]:
            raise ConfigError(f"unknown material field {fld!r}", line=line)
        mat_given.setdefault(name, {})[fld] = _check(
            key, value, _SCHEMA["material"][fld], line)
        lines.setdefault(f"material.{name}", line)

    sweeping = any(key.startswith("sweep.") for key in given)
    values = {}
    for section, table in _SCHEMA.items():
        if section != "material" and (section != "sweep" or sweeping):
            _resolve(table, given, section + ".", values)
    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"{key} is required")

    materials = {}
    for name, fields in mat_given.items():
        materials[name] = _resolve(_SCHEMA["material"], fields, "", {})
        try:
            _material(materials[name], math.inf)
        except DomainError as exc:
            raise ConfigError(f"material {name!r}: {exc}",
                              line=lines[f"material.{name}"])

    tables = {}
    for key in ("geometry.left", "geometry.right", "epsilon.material",
                "poles.material"):   # a material name or table:PATH
        ref, line = values[key], lines.get(key)
        if not ref.startswith("table:"):
            if ref not in materials:
                raise ConfigError(f"{key} references undefined material {ref!r}",
                                  line=line)
        elif ref not in tables:
            tpath = (path.parent / ref[len("table:"):].strip()).resolve()
            if not tpath.is_file():
                raise ConfigError(f"table file {tpath} does not exist", line=line)
            try:
                tables[ref] = load_epsilon_table(tpath.read_text())
            except DomainError as exc:
                raise ConfigError(f"table {tpath}: {exc}", line=line)

    options = {key.split(".", 1)[1]: value for key, value in given.items()
               if key.startswith("options.")}
    if not options.pop("subtract_infinite_separation", True):
        raise ConfigError(
            "options.subtract_infinite_separation must be true: without the "
            "detached-plates baseline the raw integral grows as omega_max^4 "
            "and has no limit", line=lines["options.subtract_infinite_separation"])
    for key, value in options.items():
        try:
            PressureOptions(**{key: value})
        except DomainError as exc:
            raise ConfigError(f"options.{key}: {exc}", line=lines[f"options.{key}"])
    if not values["epsilon.omega_min"] < values["epsilon.omega_max"]:
        raise ConfigError("epsilon.omega_min must be < epsilon.omega_max",
                          line=lines.get("epsilon.omega_min",
                                         lines.get("epsilon.omega_max")))

    sweep = ({sub: values[f"sweep.{sub}"] for sub in _SCHEMA["sweep"]}
             if sweeping else None)
    echo = tuple(sorted(f"{key} = {value}" for key, value, _ in entries))
    return RunConfig(gap=values["geometry.l"], left=values["geometry.left"],
                     right=values["geometry.right"], t_left=values["geometry.T_L"],
                     t_right=values["geometry.T_R"], materials=materials,
                     tables=tables, sweep=sweep, options=options,
                     si_scale_hz=values["units.si_scale_hz"], values=values,
                     echo=echo)


def _side(cfg, ref, temperature):
    """The plate named by ``ref`` with its bath at ``temperature``."""
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    if ref.startswith("table:"):
        return replace(cfg.tables[ref], beta_bath=beta)
    return _material(cfg.materials[ref], beta)


def geometry_for(cfg, gap=None, t_left=None, t_right=None):
    """Geometry at one (possibly sweep-overridden) parameter point."""
    t_l = cfg.t_left if t_left is None else t_left
    t_r = cfg.t_right if t_right is None else t_right
    return Geometry(gap=cfg.gap if gap is None else gap,
                    left=_side(cfg, cfg.left, t_l),
                    right=_side(cfg, cfg.right, t_r))


def _pressure_options(cfg, args):
    opts = dict(cfg.options)
    if getattr(args, "rel_tol", None) is not None:
        opts["rel_tol"] = args.rel_tol
    return PressureOptions(**opts)


def _sweep_points(cfg):
    """(l, T_L, T_R) of every point of the sweep, or the one configured."""
    point = [cfg.gap, cfg.t_left, cfg.t_right]
    sw = cfg.sweep
    if sw is None:
        return [tuple(point)]
    spaced = np.geomspace if sw["spacing"] == "log" else np.linspace
    grid = ([sw["start"]] if sw["points"] == 1
            else spaced(sw["start"], sw["stop"], sw["points"]))
    axis = _SCHEMA["sweep"]["variable"][2].index(sw["variable"])  # l, T_L, T_R
    out = []
    for x in grid:
        point[axis] = float(x)
        out.append(tuple(point))
    return out


# ----------------------------------------------------------------------
# output helpers


def _fmt(x):
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _header_lines(cfg, command):
    lines = [f"# neqlifshitz {__version__}", f"# command: {command}"]
    lines += [f"# config: {pair}" for pair in cfg.echo]
    return lines


def _emit(text, args):
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _si_pressure(si_scale_hz):
    """(length, pressure) SI conversion factors for one frequency scale."""
    w0 = 2.0 * math.pi * si_scale_hz
    return C_SI / w0, HBAR_SI * w0 ** 4 / C_SI ** 3


# ----------------------------------------------------------------------
# commands


def cmd_pressure(cfg, args):
    opts = _pressure_options(cfg, args)
    cols = ["l", "T_L", "T_R", "pressure", "err"]
    cols += ["_".join(k) for k in BREAKDOWN_KEYS]
    cols.append("baseline_subtracted")
    if cfg.si_scale_hz:
        cols += ["l_m", "pressure_Pa"]
    rows = []
    summary = [f"{'l':>10} {'T_L':>8} {'T_R':>8} {'pressure':>16} {'err':>10}"]
    for gap, t_l, t_r in _sweep_points(cfg):
        geom = geometry_for(cfg, gap, t_l, t_r)
        res = steady_pressure(geom, opts)
        cells = res.csv_row(gap, t_l, t_r)
        if cfg.si_scale_hz:
            l_si, p_si = _si_pressure(cfg.si_scale_hz)
            cells += [gap * l_si, res.value * p_si]
        rows.append(",".join(_fmt(c) for c in cells))
        summary.append(f"{gap:>10.6g} {t_l:>8.4g} {t_r:>8.4g} "
                       f"{res.value:>16.8e} {res.err:>10.2e}")
    text = "\n".join(_header_lines(cfg, "pressure") + [",".join(cols)] + rows)
    _emit(text + "\n", args)
    if getattr(args, "out", None):
        print("\n".join(summary))
    return 0


def cmd_epsilon(cfg, args):
    grid = np.linspace(cfg.values["epsilon.omega_min"],
                       cfg.values["epsilon.omega_max"], cfg.values["epsilon.points"])
    mat = _side(cfg, cfg.values["epsilon.material"], 0.0)
    eps = np.asarray(permittivity_fourier(mat, grid))
    cols = "omega,re_eps,im_eps"
    rows = [",".join((_fmt(float(w)), _fmt(float(e.real)), _fmt(float(e.imag))))
            for w, e in zip(grid, eps)]
    if cfg.si_scale_hz:
        cols += ",omega_Hz"
        rows = [r + "," + _fmt(float(w) * cfg.si_scale_hz)
                for r, w in zip(rows, grid)]
    text = "\n".join(_header_lines(cfg, "epsilon") + [cols] + rows)
    _emit(text + "\n", args)
    return 0


def cmd_poles(cfg, args):
    name = cfg.values["poles.material"]
    if name not in cfg.materials:
        raise ConfigError(f"poles.material {name!r} is a table, not an oscillator "
                          f"material")
    rep = find_qbm_poles(_side(cfg, name, 0.0))
    doc = {"version": __version__, "material": name, "poles": rep.as_report()}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    for s, order, _ in rep.roots:
        tag = " (marginal)" if rep.marginal else ""
        print(f"pole s = {s.real:+.9g}{s.imag:+.9g}j  order {order}{tag}",
              file=sys.stderr)
    return 0


def _equilibrium_deviation(geom, T, opts):
    """Steady pressure at T_L = T_R = T, Matsubara sum, relative deviation."""
    steady = steady_pressure(geom, opts).value
    eq = equilibrium_matsubara(geom, T)
    return steady, eq, abs(steady - eq) / max(abs(eq), 1e-300)


def _verify_properties(cfg, args):
    """Property records for cmd_verify, in deterministic order."""
    opts = _pressure_options(cfg, args)
    records = []

    def record(name, ok, margin, detail, explanation=None):
        rec = {"name": name, "pass": bool(ok), "margin": float(margin),
               "detail": detail}
        if explanation and not ok:
            rec["explanation"] = explanation
        records.append(rec)

    geom = geometry_for(cfg)
    for label, side in (("left", geom.left), ("right", geom.right)):
        if not isinstance(side, Material) or side.lambda0 == 0.0:
            continue
        rep = find_qbm_poles(side)
        record(f"causality_{label}", rep.causal, -rep.max_re,
               {"max_re": rep.max_re, "marginal": rep.marginal,
                "n_poles": len(rep.roots)},
               explanation="response poles on the imaginary axis (zero "
                           "damping): the retarded kernel is marginal, "
                           "steady-state emission is ill-defined")
        if side.bath.gamma == 0.0:
            record(f"fdr_identity_{label}", True, math.nan,
                   {"skipped": "no bath dissipation: identity is void"})
            continue
        ws = np.geomspace(0.05, 20.0, 40)
        dev = 0.0
        for w in ws:
            lhs, rhs = fdr_epsilon_identity(side, float(w))
            dev = max(dev, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        record(f"fdr_identity_{label}", dev <= 1e-10, dev,
               {"n_frequencies": len(ws), "max_rel_dev": dev},
               explanation="bath noise and permittivity dissipation disagree")

    try:
        grid = np.linspace(-20.0, 20.0, 4001)
        worst = math.inf
        arg = None
        for Q in (0.377, 0.733, 1.191, 2.413):
            for pol in ("TE", "TM"):
                scan = scan_dmu_imaginary_axis(geom, pol, Q, grid)
                if scan.min_abs < worst:
                    worst = scan.min_abs
                    arg = {"Q": Q, "pol": pol, "omega": scan.argmin}
        record("dmu_floor", worst > 1e-3, worst,
               {"floor": 1e-3, "worst_case": arg},
               explanation="multiple-reflection denominator approaches zero "
                           "on the imaginary axis")
    except NeqLifshitzError as exc:
        record("dmu_floor", True, math.nan, {"skipped": str(exc)})

    coupled = any(not isinstance(side, Material) or side.lambda0 != 0.0
                  for side in (geom.left, geom.right))
    if not coupled:
        record("modified_modes", True, math.nan,
               {"skipped": "no plate coupling: the gap spectrum has no "
                           "candidate poles"})
    else:
        try:
            rng = np.random.default_rng(cfg.values["verify.seed"])
            n = cfg.values["verify.samples"]
            worst_spread = 0.0
            all_removable = True
            for _ in range(n):
                Q = float(rng.uniform(0.05, 2.5))
                kz = float(rng.uniform(0.25, 2.5)) * (1 if rng.random() < 0.5 else -1)
                chk = modified_mode_check(geom, Q, kz)
                worst_spread = max(worst_spread, chk.spread)
                all_removable = all_removable and chk.removable
            record("modified_modes", all_removable and worst_spread <= 1e-6,
                   worst_spread, {"samples": n, "max_spread": worst_spread},
                   explanation="a candidate gap mode failed the removability test")
        except NeqLifshitzError as exc:
            record("modified_modes", True, math.nan, {"skipped": str(exc)})

    t_eq = cfg.values["verify.T_eq"]
    geom_eq = geometry_for(cfg, t_left=t_eq, t_right=t_eq)
    lossy = any(getattr(side, "has_loss", False)
                for side in (geom_eq.left, geom_eq.right))
    if not lossy:
        if not coupled:
            record("equal_t_reduction", True, 0.0,
                   {"T": t_eq, "steady": 0.0, "matsubara": 0.0,
                    "note": "decoupled plates: pressure identically zero"})
        else:
            record("equal_t_reduction", False, math.inf,
                   {"T": t_eq},
                   explanation="lossless coupled plates: marginal response "
                               "poles leave the steady emission weights "
                               "undefined, no equilibrium limit to compare")
        return records
    opts_eq = replace(opts, rel_tol=max(opts.rel_tol, 3e-4))
    steady, eq, dev = _equilibrium_deviation(geom_eq, t_eq, opts_eq)
    if abs(eq) < 1e-12:
        dev = abs(steady)
        ok = dev <= 1e-10
    else:
        ok = dev <= 1e-3
    record("equal_t_reduction", ok, dev,
           {"T": t_eq, "steady": steady, "matsubara": eq},
           explanation="steady pressure does not reduce to the "
                       "imaginary-frequency sum at equal temperatures")
    return records


def cmd_verify(cfg, args):
    records = _verify_properties(cfg, args)
    all_pass = all(r["pass"] for r in records)
    doc = {"version": __version__, "all_pass": all_pass,
           "properties": records}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    for r in records:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"{status} {r['name']} (margin {r['margin']:.3g})",
              file=sys.stderr)
    return 0 if all_pass else 1


def cmd_compare_eq(cfg, args):
    if cfg.t_left != cfg.t_right:
        raise ConfigError("compare-eq needs T_L == T_R in the geometry block")
    tol = args.rel_tol if args.rel_tol is not None else 1e-3
    steady, eq, dev = _equilibrium_deviation(geometry_for(cfg), cfg.t_left,
                                             _pressure_options(cfg, args))
    cols = "l,T,steady,matsubara,rel_dev"
    row = ",".join(_fmt(x) for x in (cfg.gap, cfg.t_left, steady, eq, dev))
    text = "\n".join(_header_lines(cfg, "compare-eq") + [cols, row])
    _emit(text + "\n", args)
    print(f"steady    = {steady:.10e}\n"
          f"matsubara = {eq:.10e}\n"
          f"rel dev   = {dev:.3e} (tolerance {tol:g})", file=sys.stderr)
    return 0 if dev <= tol else 1


# ----------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neqlifshitz",
        description="Steady-state pressure between dissipative half-spaces "
                    "at independent temperatures.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "pressure": "sweep the steady pressure and export CSV",
        "epsilon": "tabulate a material's retarded permittivity",
        "poles": "report the response poles of a material",
        "verify": "run the analytic-structure property suite",
        "compare-eq": "steady pressure vs the imaginary-frequency sum",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=None,
                       help="write CSV/report here instead of stdout")
        p.add_argument("--rel-tol", type=float, default=None,
                       help="override options.rel_tol (for compare-eq: the "
                            "match threshold, default 1e-3)")
    return parser


_DISPATCH = {
    "pressure": cmd_pressure,
    "epsilon": cmd_epsilon,
    "poles": cmd_poles,
    "verify": cmd_verify,
    "compare-eq": cmd_compare_eq,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is None and cfg.values["output.path"]:
        args.out = cfg.values["output.path"]
    try:
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NeqLifshitzError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
