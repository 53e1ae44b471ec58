"""In-memory span tracing around the package's layer boundaries.

The package carries no instrumentation of its own.  `Tracer.install`
replaces each boundary function with a timing wrapper in every
``neqlifshitz`` namespace that holds a binding to it (``pressure.fresnel``
and ``em_green.fresnel`` are separate bindings of one function), and
`Tracer.uninstall` puts the originals back.  A boundary that no longer
exists is reported as absent instead of failing the run.

Each call becomes one span ``(id, parent, op, name, start, end, self)``;
self time is the span's duration minus the durations of its direct child
spans.  Spans stay in memory until `Tracer.write_spans`.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, layer).  Several functions may share one layer; a
# layer's self time is the sum of its functions' self times.
BOUNDARIES = (
    ("neqlifshitz.cli", "main", "cli.command"),
    ("neqlifshitz.cli", "load_config", "cli.load_config"),
    ("neqlifshitz.pressure", "steady_pressure", "pressure.outer"),
    ("neqlifshitz.pressure", "_inner_q_integral", "pressure.inner"),
    ("neqlifshitz.pressure", "_bath_channels", "pressure.integrand"),
    ("neqlifshitz.pressure", "theta_contract", "pressure.contract"),
    ("neqlifshitz.pressure", "_adaptive_gk", "pressure.quad"),
    ("neqlifshitz.pressure", "_eval_panels", "pressure.quad"),
    ("neqlifshitz.pressure", "equilibrium_matsubara", "pressure.matsubara"),
    ("neqlifshitz.pressure", "_matsubara_inner", "pressure.matsubara"),
    ("neqlifshitz.em_green", "fresnel", "em_green.fresnel"),
    ("neqlifshitz.em_green", "gap_emission_pair", "em_green.blocks"),
    ("neqlifshitz.em_green", "green_gap_from_plate", "em_green.blocks"),
    ("neqlifshitz.em_green", "green_gap_bulk_scattered", "em_green.blocks"),
    ("neqlifshitz.em_green", "green_plate_from_gap", "em_green.blocks"),
    ("neqlifshitz.em_green", "z_integrated_pair", "em_green.blocks"),
    ("neqlifshitz.em_green", "ic_z_block", "em_green.blocks"),
    ("neqlifshitz.em_green", "ic_z_integral", "em_green.blocks"),
    ("neqlifshitz.material", "permittivity", "material"),
    ("neqlifshitz.material", "qbm_green", "material"),
    ("neqlifshitz.spectral", "find_qbm_poles", "spectral.poles"),
    ("neqlifshitz.spectral", "invert_laplace_qbm", "spectral.talbot"),
    ("neqlifshitz.spectral", "scan_dmu_imaginary_axis", "spectral.dmu_scan"),
    ("neqlifshitz.spectral", "modified_mode_check", "spectral.modified_modes"),
    ("neqlifshitz.spectral", "dof_origin_report", "spectral.dof_origin"),
    ("neqlifshitz.spectral", "ic_origin_report", "spectral.ic_origin"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in BOUNDARIES))


def _points(args, indices):
    """Element count of the broadcast of the given positional arguments."""
    if len(args) <= max(indices):
        return 1
    return int(np.broadcast(*(args[i] for i in indices)).size)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # open frames: [span id, start, child time]
        self.names = []
        self.op = 0
        self.absent = []
        self._installed = []     # (namespace, attribute, original)
        self.calls = defaultdict(int)       # function name -> calls
        self.self_s = defaultdict(float)    # function name -> self time
        self.total_s = defaultdict(float)   # function name -> inclusive time
        self.points = defaultdict(int)      # function name -> Q points
        self.failures = defaultdict(int)    # function name -> raised errors
        self._raised = None
        self.quad_frames = []    # per open _adaptive_gk: panels seen so far
        self.quad = {"seed_panels": 0, "split_panels": 0, "rounds": 0}

    # -- installation -------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "neqlifshitz" or name.startswith("neqlifshitz.")}
        for modname, attr, _layer in BOUNDARIES:
            home = modules.get(modname)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(fn, f"{modname.rsplit('.', 1)[-1]}.{attr}")
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, fn in reversed(self._installed):
            setattr(mod, key, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        on_enter = {
            "pressure._bath_channels": lambda a: self._count_points(name, a, (2,)),
            "em_green.fresnel": lambda a: self._count_points(name, a, (1, 2)),
            "pressure._adaptive_gk": lambda a: self.quad_frames.append(0),
            "pressure._eval_panels": self._count_panels,
        }.get(name)
        is_quad = name == "pressure._adaptive_gk"
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            start = clock()
            stack.append([len(spans), start, 0.0])
            spans.append(None)      # reserve the id; parents precede children
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._raised:     # count where it was raised
                    self._raised = exc
                    self.failures[name] += 1
                raise
            finally:
                end = clock()
                sid, _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                parent = stack[-1][0] if stack else -1
                spans[sid] = (sid, parent, self.op, idx, start, end, dur - child)
                self.calls[name] += 1
                self.self_s[name] += dur - child
                self.total_s[name] += dur
                if is_quad:
                    self.quad_frames.pop()

        return wrapper

    def _count_points(self, name, args, indices):
        self.points[name] += _points(args, indices)

    def _count_panels(self, args):
        """Seeds are the first batch of each _adaptive_gk; later batches
        hold two halves per split panel."""
        n = int(np.size(args[1])) if len(args) > 1 else 0
        if not self.quad_frames:
            return
        if self.quad_frames[-1] == 0:
            self.quad["seed_panels"] += n
        else:
            self.quad["split_panels"] += n
            self.quad["rounds"] += 1
        self.quad_frames[-1] += n

    # -- reporting ----------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and self times, keyed like BENCHMARK.json."""
        by_layer = defaultdict(list)
        for modname, attr, layer in BOUNDARIES:
            by_layer[layer].append(f"{modname.rsplit('.', 1)[-1]}.{attr}")

        def calls(*names):
            return sum(self.calls[n] for n in names)

        def self_time(layer):
            return sum(self.self_s[n] for n in by_layer[layer])

        m = {}
        pts = self.points["pressure._bath_channels"]
        m["pressure.integrand.calls"] = (calls("pressure._bath_channels"), "count")
        m["pressure.integrand.points"] = (pts, "count")
        m["pressure.integrand.self_s"] = (self_time("pressure.integrand"), "s")
        m["pressure.integrand.us_per_point"] = (
            1e6 * self.total_s["pressure._bath_channels"] / pts if pts else 0.0, "us")
        m["pressure.inner.calls"] = (calls("pressure._inner_q_integral"), "count")
        m["pressure.inner.self_s"] = (self_time("pressure.inner"), "s")
        seeds, halves = self.quad["seed_panels"], self.quad["split_panels"]
        evaluated = seeds + halves
        m["pressure.quad.panels_evaluated"] = (evaluated, "count")
        m["pressure.quad.kept_ratio"] = (
            (seeds + halves / 2) / evaluated if evaluated else 0.0, "ratio")
        m["pressure.quad.rounds"] = (self.quad["rounds"], "count")
        m["pressure.quad.failures"] = (self.failures["pressure._adaptive_gk"], "count")
        m["pressure.quad.self_s"] = (self_time("pressure.quad"), "s")
        m["pressure.outer.calls"] = (calls("pressure.steady_pressure"), "count")
        m["pressure.outer.self_s"] = (self_time("pressure.outer"), "s")
        m["pressure.contract.calls"] = (calls("pressure.theta_contract"), "count")
        m["pressure.contract.self_s"] = (self_time("pressure.contract"), "s")
        m["pressure.matsubara.calls"] = (calls("pressure.equilibrium_matsubara"), "count")
        m["pressure.matsubara.terms"] = (calls("pressure._matsubara_inner"), "count")
        m["pressure.matsubara.self_s"] = (self_time("pressure.matsubara"), "s")
        m["em_green.fresnel.calls"] = (calls("em_green.fresnel"), "count")
        m["em_green.fresnel.points"] = (self.points["em_green.fresnel"], "count")
        m["em_green.fresnel.self_s"] = (self_time("em_green.fresnel"), "s")
        m["em_green.blocks.calls"] = (calls(*by_layer["em_green.blocks"]), "count")
        m["em_green.blocks.self_s"] = (self_time("em_green.blocks"), "s")
        m["material.calls"] = (calls(*by_layer["material"]), "count")
        m["material.self_s"] = (self_time("material"), "s")
        for layer in LAYERS:
            if layer.startswith("spectral."):
                m[f"{layer}.calls"] = (calls(*by_layer[layer]), "count")
                m[f"{layer}.self_s"] = (self_time(layer), "s")
        m["cli.load_config.self_s"] = (self_time("cli.load_config"), "s")
        m["cli.command.self_s"] = (self_time("cli.command"), "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def write_spans(self, path):
        """One CSV line per span: id, parent, op, name, start, end, self."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s,self_s\n")
            for sid, parent, op, idx, start, end, own in self.spans:
                fh.write(f"{sid},{parent},{op},{self.names[idx]},"
                         f"{start:.9f},{end:.9f},{own:.9f}\n")
