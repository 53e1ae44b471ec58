"""Command-line front end: config parsing, sweeps, reports and CSV export.

Configuration grammar
---------------------
Line-oriented ``section.key = value`` pairs; blank lines and ``#``
comments are ignored.  Values are parsed as bool (``true``/``false``),
int, float or string, in that order.  Sections:

``geometry``
    ``l`` (gap, required), ``left``/``right`` (material name or
    ``table:PATH`` with PATH relative to the config file), ``T_L``,
    ``T_R`` (plate bath temperatures, default 0), ``beta_em``
    (optional initial-field inverse temperature; recorded for the
    transient integrand reports).
``material.<name>``
    ``omega0``, ``lambda0``, ``mass``, ``bath`` (``none`` | ``ohmic`` |
    ``ohmic_lorentz_cutoff``), ``gamma``, ``cutoff``.
``sweep``
    ``variable`` (``l`` | ``T_L`` | ``T_R``), ``start``, ``stop``,
    ``points``, ``spacing`` (``linear`` | ``log``).  Optional; without
    it the geometry is evaluated at a single point.
``options``
    Quadrature controls: ``rel_tol``, ``omega_max``, ``thermal_only``.
    The pressure is always the distance-dependent part; the key
    ``subtract_infinite_separation`` is still read, and only ``true`` is
    accepted.
``output``
    ``path`` — CSV destination (overridden by ``--out``).
``units``
    ``si_scale_hz`` — one natural frequency unit in Hz; enables SI echo
    columns (lengths in m, pressures in Pa).
``epsilon`` / ``poles`` / ``verify``
    Command tuning: ``epsilon.material``, ``epsilon.omega_min``,
    ``epsilon.omega_max``, ``epsilon.points``; ``poles.material``;
    ``verify.samples``, ``verify.seed``, ``verify.T_eq``.

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
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .em_green import Geometry
from .errors import ConfigError, NeqLifshitzError
from .material import (BathModel, Material, fdr_epsilon_identity,
                       load_epsilon_table, permittivity_fourier)
from .pressure import (BREAKDOWN_KEYS, PressureOptions, equilibrium_matsubara,
                       steady_pressure)
from .spectral import find_qbm_poles, modified_mode_check, scan_dmu_imaginary_axis

HBAR_SI = 1.054571817e-34   # J s
C_SI = 299792458.0          # m / s

_SECTIONS = {"geometry", "material", "sweep", "options", "output", "units",
             "epsilon", "poles", "verify"}
_GEOMETRY_KEYS = {"l", "left", "right", "T_L", "T_R", "beta_em"}
_MATERIAL_KEYS = {"omega0", "lambda0", "mass", "bath", "gamma", "cutoff"}
_SWEEP_KEYS = {"variable", "start", "stop", "points", "spacing"}
_OPTIONS_KEYS = {"rel_tol", "subtract_infinite_separation", "omega_max",
                 "thermal_only"}
_OUTPUT_KEYS = {"path"}
_UNITS_KEYS = {"si_scale_hz"}
_EPSILON_KEYS = {"material", "omega_min", "omega_max", "points"}
_POLES_KEYS = {"material"}
_VERIFY_KEYS = {"samples", "seed", "T_eq"}


@dataclass
class RunConfig:
    """Typed view of one parsed configuration file."""

    gap: float
    left: str
    right: str
    t_left: float = 0.0
    t_right: float = 0.0
    beta_em: float = math.inf
    materials: dict = field(default_factory=dict)   # name -> field dict
    tables: dict = field(default_factory=dict)      # path key -> EpsilonTable
    sweep: dict = None
    options: dict = field(default_factory=dict)
    output_path: str = None
    si_scale_hz: float = None
    command_opts: dict = field(default_factory=dict)
    echo: tuple = ()                                # resolved key=value pairs


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


def _expect(value, types, key, line):
    if types is float and isinstance(value, (int, bool)) \
            and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        want = types.__name__ if isinstance(types, type) else "value"
        raise ConfigError(f"{key} must be a {want}, got {value!r}", line=line)
    return value


def load_config(path):
    """Parse and validate a config file into a RunConfig.

    Referenced material names and table paths are resolved eagerly, so
    every configuration error surfaces here with a line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    entries = parse_entries(text)

    blocks = {}
    for key, value, line in entries:
        section = key.split(".", 1)[0]
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} in {key!r}", line=line)
        blocks.setdefault(section, {})[key.split(".", 1)[1]] = (value, line)

    def block(name, allowed):
        out = {}
        for sub, (value, line) in blocks.get(name, {}).items():
            if sub not in allowed:
                raise ConfigError(f"unknown key {name}.{sub}", line=line)
            out[sub] = (value, line)
        return out

    geo = block("geometry", _GEOMETRY_KEYS)
    for req in ("l", "left", "right"):
        if req not in geo:
            raise ConfigError(f"geometry.{req} is required")
    gap = _expect(geo["l"][0], float, "geometry.l", geo["l"][1])
    if not gap > 0:
        raise ConfigError("geometry.l must be > 0", line=geo["l"][1])
    t_left = _expect(geo.get("T_L", (0.0, 0))[0], float, "geometry.T_L",
                     geo.get("T_L", (0.0, 0))[1])
    t_right = _expect(geo.get("T_R", (0.0, 0))[0], float, "geometry.T_R",
                      geo.get("T_R", (0.0, 0))[1])
    if t_left < 0 or t_right < 0:
        raise ConfigError("plate temperatures must be >= 0")
    beta_em = _expect(geo.get("beta_em", (math.inf, 0))[0], float,
                      "geometry.beta_em", geo.get("beta_em", (math.inf, 0))[1])

    materials = {}
    for sub, (value, line) in blocks.get("material", {}).items():
        if "." not in sub:
            raise ConfigError(f"material keys look like material.<name>.<field>,"
                              f" got material.{sub}", line=line)
        name, fld = sub.split(".", 1)
        if fld not in _MATERIAL_KEYS:
            raise ConfigError(f"unknown material field {fld!r}", line=line)
        materials.setdefault(name, {})[fld] = (value, line)

    tables = {}
    sides = {}
    for side_key in ("left", "right"):
        ref, line = geo[side_key]
        ref = str(ref)
        if ref.startswith("table:"):
            rel = ref[len("table:"):].strip()
            tpath = (path.parent / rel).resolve()
            if not tpath.is_file():
                raise ConfigError(f"table file {tpath} does not exist", line=line)
            if ref not in tables:
                tables[ref] = load_epsilon_table(tpath.read_text())
        elif ref not in materials:
            raise ConfigError(f"geometry.{side_key} references undefined "
                              f"material {ref!r}", line=line)
        sides[side_key] = ref

    # validate material blocks eagerly by constructing each once
    for name in sorted(materials):
        try:
            _build_material(materials, name, 0.0)
        except NeqLifshitzError as exc:
            raise ConfigError(f"material {name!r}: {exc}")

    sweep = None
    sw = block("sweep", _SWEEP_KEYS)
    if sw:
        for req in ("variable", "start", "stop", "points"):
            if req not in sw:
                raise ConfigError(f"sweep.{req} is required when sweeping")
        variable = _expect(sw["variable"][0], str, "sweep.variable",
                           sw["variable"][1])
        if variable not in ("l", "T_L", "T_R"):
            raise ConfigError("sweep.variable must be one of l, T_L, T_R",
                              line=sw["variable"][1])
        start = _expect(sw["start"][0], float, "sweep.start", sw["start"][1])
        stop = _expect(sw["stop"][0], float, "sweep.stop", sw["stop"][1])
        points = _expect(sw["points"][0], int, "sweep.points", sw["points"][1])
        spacing = _expect(sw.get("spacing", ("linear", 0))[0], str,
                          "sweep.spacing", sw.get("spacing", ("linear", 0))[1])
        if spacing not in ("linear", "log"):
            raise ConfigError("sweep.spacing must be linear or log")
        if not (start > 0 and stop > 0):
            raise ConfigError("sweep range must be positive")
        if points < 1:
            raise ConfigError("sweep.points must be >= 1")
        sweep = {"variable": variable, "start": start, "stop": stop,
                 "points": points, "spacing": spacing}

    opt_types = {"rel_tol": float, "subtract_infinite_separation": bool,
                 "omega_max": float, "thermal_only": bool}
    opt_block = block("options", _OPTIONS_KEYS)
    options = {k: _expect(v, opt_types[k], f"options.{k}", line)
               for k, (v, line) in opt_block.items()}
    if not options.pop("subtract_infinite_separation", True):
        raise ConfigError(
            "options.subtract_infinite_separation must be true: without the "
            "detached-plates baseline the raw integral grows as omega_max^4 "
            "and has no limit", line=opt_block["subtract_infinite_separation"][1])
    out_block = block("output", _OUTPUT_KEYS)
    output_path = out_block.get("path", (None, 0))[0]
    if output_path is not None:
        output_path = str(output_path)
    units = block("units", _UNITS_KEYS)
    si_scale = units.get("si_scale_hz", (None, 0))[0]
    if si_scale is not None:
        si_scale = _expect(si_scale, float, "units.si_scale_hz",
                           units["si_scale_hz"][1])
        if not si_scale > 0:
            raise ConfigError("units.si_scale_hz must be > 0")

    cmd_types = {"epsilon.material": str, "epsilon.omega_min": float,
                 "epsilon.omega_max": float, "epsilon.points": int,
                 "poles.material": str, "verify.samples": int,
                 "verify.seed": int, "verify.T_eq": float}
    command_opts = {}
    for section, allowed in (("epsilon", _EPSILON_KEYS), ("poles", _POLES_KEYS),
                             ("verify", _VERIFY_KEYS)):
        for sub, (value, line) in block(section, allowed).items():
            key = f"{section}.{sub}"
            command_opts[key] = _expect(value, cmd_types[key], key, line)

    echo = tuple(sorted(f"{key} = {value}" for key, value, _ in entries))
    return RunConfig(gap=gap, left=sides["left"], right=sides["right"],
                     t_left=t_left, t_right=t_right, beta_em=beta_em,
                     materials={n: {f: v for f, (v, _) in flds.items()}
                                for n, flds in materials.items()},
                     tables=tables, sweep=sweep, options=options,
                     output_path=output_path, si_scale_hz=si_scale,
                     command_opts=command_opts, echo=echo)


def _build_material(materials, name, temperature):
    flds = materials[name]

    def get(fld, default):
        v = flds.get(fld, default)
        return v[0] if isinstance(v, tuple) else v

    kind = get("bath", "ohmic")
    gamma = float(get("gamma", 0.1 if kind != "none" else 0.0))
    cutoff = float(get("cutoff", math.inf))
    bath = BathModel(kind=str(kind), gamma=gamma, cutoff=cutoff)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    return Material(omega0=float(get("omega0", 1.0)),
                    lambda0=float(get("lambda0", 1.0)),
                    mass=float(get("mass", 1.0)), bath=bath, beta_bath=beta)


def _side(cfg, which, temperature):
    ref = cfg.left if which == "left" else cfg.right
    if ref.startswith("table:"):
        return replace(cfg.tables[ref],
                       beta_bath=math.inf if temperature == 0.0
                       else 1.0 / temperature)
    return _build_material(cfg.materials, ref, temperature)


def geometry_for(cfg, gap=None, t_left=None, t_right=None):
    """Geometry at one (possibly sweep-overridden) parameter point."""
    t_l = cfg.t_left if t_left is None else t_left
    t_r = cfg.t_right if t_right is None else t_right
    return Geometry(gap=cfg.gap if gap is None else gap,
                    left=_side(cfg, "left", t_l),
                    right=_side(cfg, "right", t_r))


def _pressure_options(cfg, args):
    opts = dict(cfg.options)
    if getattr(args, "rel_tol", None) is not None:
        opts["rel_tol"] = args.rel_tol
    return PressureOptions(**opts)


def _sweep_points(cfg):
    if cfg.sweep is None:
        return [(cfg.gap, cfg.t_left, cfg.t_right)]
    sw = cfg.sweep
    if sw["points"] == 1:
        grid = np.array([sw["start"]])
    elif sw["spacing"] == "log":
        grid = np.geomspace(sw["start"], sw["stop"], sw["points"])
    else:
        grid = np.linspace(sw["start"], sw["stop"], sw["points"])
    out = []
    for x in grid:
        x = float(x)
        if sw["variable"] == "l":
            out.append((x, cfg.t_left, cfg.t_right))
        elif sw["variable"] == "T_L":
            out.append((cfg.gap, x, cfg.t_right))
        else:
            out.append((cfg.gap, cfg.t_left, x))
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
    name = cfg.command_opts.get("epsilon.material", cfg.left)
    w_lo = float(cfg.command_opts.get("epsilon.omega_min", -10.0))
    w_hi = float(cfg.command_opts.get("epsilon.omega_max", 10.0))
    n = int(cfg.command_opts.get("epsilon.points", 401))
    if not w_hi > w_lo or n < 2:
        raise ConfigError("epsilon range needs omega_max > omega_min and points >= 2")
    if name.startswith("table:"):
        mat = cfg.tables[name]
    elif name in cfg.materials:
        mat = _build_material(cfg.materials, name, 0.0)
    else:
        raise ConfigError(f"epsilon.material references undefined material {name!r}")
    grid = np.linspace(w_lo, w_hi, n)
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
    name = cfg.command_opts.get("poles.material", cfg.left)
    if name not in cfg.materials:
        raise ConfigError(f"poles.material references undefined material {name!r}")
    mat = _build_material(cfg.materials, name, 0.0)
    rep = find_qbm_poles(mat)
    doc = {"version": __version__, "material": name, "poles": rep.as_report()}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    for s, order, _ in rep.roots:
        tag = " (marginal)" if rep.marginal else ""
        print(f"pole s = {s.real:+.9g}{s.imag:+.9g}j  order {order}{tag}",
              file=sys.stderr)
    return 0


class _Trivial(Exception):
    """A verify property that does not apply to this configuration."""


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
    plates = [("left", geom.left), ("right", geom.right)]

    for label, side in plates:
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

    coupled_any = any(not isinstance(side, Material) or side.lambda0 != 0.0
                      for side in (geom.left, geom.right))
    try:
        if not coupled_any:
            raise _Trivial("no plate coupling: the gap spectrum has no "
                           "candidate poles")
        rng = np.random.default_rng(int(cfg.command_opts.get("verify.seed", 0)))
        n = int(cfg.command_opts.get("verify.samples", 12))
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
    except (_Trivial, NeqLifshitzError) as exc:
        record("modified_modes", True, math.nan, {"skipped": str(exc)})

    t_eq = float(cfg.command_opts.get(
        "verify.T_eq", cfg.t_left or cfg.t_right or 0.5))
    geom_eq = geometry_for(cfg, t_left=t_eq, t_right=t_eq)
    lossy = any(getattr(side, "has_loss", False)
                for side in (geom_eq.left, geom_eq.right))
    coupled = any(not isinstance(side, Material) or side.lambda0 != 0.0
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
    steady = steady_pressure(geom_eq, opts_eq)
    eq = equilibrium_matsubara(geom_eq, t_eq)
    if abs(eq) < 1e-12:
        ok = abs(steady.value) <= 1e-10
        dev = abs(steady.value)
    else:
        dev = abs(steady.value - eq) / abs(eq)
        ok = dev <= 1e-3
    record("equal_t_reduction", ok, dev,
           {"T": t_eq, "steady": steady.value, "matsubara": eq},
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
    geom = geometry_for(cfg)
    opts = _pressure_options(cfg, args)
    steady = steady_pressure(geom, opts)
    eq = equilibrium_matsubara(geom, cfg.t_left)
    dev = abs(steady.value - eq) / max(abs(eq), 1e-300)
    cols = "l,T,steady,matsubara,rel_dev"
    row = ",".join(_fmt(x) for x in
                   (cfg.gap, cfg.t_left, steady.value, eq, dev))
    text = "\n".join(_header_lines(cfg, "compare-eq") + [cols, row])
    _emit(text + "\n", args)
    print(f"steady    = {steady.value:.10e}\n"
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
    if args.out is None and cfg.output_path:
        args.out = cfg.output_path
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
