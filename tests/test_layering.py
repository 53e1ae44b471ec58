"""Layering of the package: the steady-pressure module is the closed-form
bath integral and its quadrature; the symbolic Green-block layer (block
builders, stress contraction, transient integrands) lives beside the
analytic-structure study in ``spectral``, which needs nothing from
``pressure``.  The heavy dependencies load only where they are used:
scipy.integrate for the Matsubara oracle, mpmath for the Talbot
inversion."""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from neqlifshitz import em_green, material, pressure, spectral, winding
from neqlifshitz.material import BathModel, Material

BLOCK_LAYER = ("green_gap_from_plate", "ic_z_block", "theta_contract",
               "assemble_dof_integrand", "assemble_ic_integrand")
REPO = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.integrate", "mpmath")


def _fresh_python(code):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pressure_binds_no_block_layer_name():
    bound = set(vars(pressure))
    assert not bound & set(BLOCK_LAYER)
    assert not [name for name in bound if name.startswith("assemble_")]


def test_spectral_binds_nothing_from_pressure():
    leaks = [name for name, value in vars(spectral).items()
             if value is pressure
             or getattr(value, "__module__", None) == pressure.__name__]
    assert not leaks
    for node in ast.walk(ast.parse(inspect.getsource(spectral))):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rsplit(".", 1)[-1] != "pressure"
        elif isinstance(node, ast.Import):
            assert all(not a.name.endswith("pressure") for a in node.names)


def test_steady_commands_load_neither_scipy_integrate_nor_mpmath(tmp_path):
    cfg = REPO / "configs" / "default.cfg"
    code = f"""
import json, sys
from neqlifshitz import cli
codes = [cli.main([cmd, "--config", {str(cfg)!r},
                   "--out", {str(tmp_path)!r} + "/" + cmd])
         for cmd in ("pressure", "epsilon", "poles")]
print(json.dumps([codes, [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    codes, loaded = _fresh_python(code)
    assert codes == [0, 0, 0]
    assert loaded == []


ORACLE_INPUTS = """
from neqlifshitz.em_green import Geometry
from neqlifshitz.material import BathModel, Material
mat = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
geom = Geometry(gap=1.0, left=mat, right=mat)
t = [0.0, 0.5, 2.0]
"""


def test_oracle_and_inversion_import_their_dependencies_on_first_use():
    # a fresh interpreter calls the Matsubara oracle and the Talbot
    # inversion first; each loads its dependency then, and both return
    # the values of the same calls made here
    code = ORACLE_INPUTS + f"""
import json, sys
from neqlifshitz.pressure import equilibrium_matsubara
from neqlifshitz.spectral import invert_laplace_qbm
seen = [[m for m in {HEAVY!r} if m in sys.modules]]
p = equilibrium_matsubara(geom, 1.0)
seen.append([m for m in {HEAVY!r} if m in sys.modules])
k = invert_laplace_qbm(mat, t).tolist()
seen.append([m for m in {HEAVY!r} if m in sys.modules])
print(json.dumps([p, k, seen]))
"""
    p, k, seen = _fresh_python(code)
    assert seen == [[], ["scipy.integrate"], list(HEAVY)]
    scope = {}
    exec(ORACLE_INPUTS, scope)
    assert p == pressure.equilibrium_matsubara(scope["geom"], 1.0)
    assert k == spectral.invert_laplace_qbm(scope["mat"], scope["t"]).tolist()


def test_quadrature_signatures_read_by_the_benchmark_tracer():
    # perfbench/tracing.py reads these positionally: the panels of a batch
    # from _eval_panels' lo, the points of an integrand call from
    # _bath_channels' Q
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for fn, head in ((pressure._eval_panels, ["f", "lo", "hi", "seg"]),
                     (pressure._bath_channels, ["geom", "omega", "Q"])):
        params = list(inspect.signature(fn).parameters.values())[:len(head)]
        assert [p.name for p in params] == head
        assert all(p.kind in positional for p in params)


def _reachable(module, start):
    """Names of ``module``'s top-level functions that ``start`` reaches
    through the names its body (and theirs, transitively) reads."""
    defs = {node.name: node for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        todo.extend(node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name))
    return seen


def test_quadrature_engine_keeps_no_buffers():
    # the generic rules and the node map compute in fresh arrays: nothing
    # they reach names the row producers' _Workspace or takes a workspace
    defs = {node.name: node for node in ast.parse(inspect.getsource(pressure)).body
            if isinstance(node, ast.FunctionDef)}
    for start in ("_adaptive_gk", "_eval_panels", "_q_integrals", "_q_nodes"):
        reached = _reachable(pressure, start)
        assert start in reached
        for name in reached:
            fn = defs[name]
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            assert "work" not in params and "_Workspace" not in names, (start, name)


def test_contour_tail_is_built_apart_from_the_matsubara_oracle():
    # the tail is checked against the imaginary-frequency sum, so it must
    # not be made of it
    reached = _reachable(pressure, "_contour_tail")
    assert {"_contour_line_integral", "_line_integrand", "_strip_residues",
            "_mean_occupation"} <= reached
    assert not reached & {"_matsubara_inner", "equilibrium_matsubara", "_eps_imag_axis"}


def test_contour_path_loads_neither_scipy_integrate_nor_mpmath():
    code = ORACLE_INPUTS + f"""
import json, sys
from neqlifshitz.pressure import PressureOptions, steady_pressure
res = steady_pressure(geom, PressureOptions(rel_tol=1e-3))
print(json.dumps([res.tail, [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    tail, loaded = _fresh_python(code)
    assert tail != 0.0
    assert loaded == []


def test_one_zero_counter_serves_the_poles_and_the_strip():
    # the argument-principle loop lives in `winding`, which needs numpy and
    # the package's errors at most and binds nothing of the modules it serves
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(winding))):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"numpy", ".errors"}, imported
    served = (em_green, pressure, spectral)
    assert not [name for name, value in vars(winding).items()
                if any(value is m for m in served)
                or getattr(value, "__module__", None) in {m.__name__ for m in served}]
    # the polynomial count and the strip's count keep no loop of their
    # own, and both run the shared one
    for fn in (spectral.winding_count, pressure._box_winding):
        tree = ast.parse(inspect.getsource(fn))
        assert not [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))], fn
    loop, calls = winding.box_winding.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is loop:
            calls.append(frame.f_back.f_code.co_name)

    mat = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=1e-2))
    geom, w = em_green.Geometry(gap=1.0, left=mat, right=mat), np.array([1.2247])
    sys.setprofile(profile)
    try:
        spectral.winding_count(np.poly([0.5j, -0.5j]), -1, 1, -1, 1)
        pressure._box_winding(geom, w, em_green.plate_eps(mat, -1j * w)[None], np.array([1]),
                              np.array([[0.0], w, [0.0], [3.0]]))
    finally:
        sys.setprofile(None)
    assert calls == ["winding_count", "_box_winding"]


def _spelling(module, text):
    """Names of ``module``'s top-level functions whose source holds ``text``:
    each function's lines, sliced once from the module's (a per-node
    ``ast.get_source_segment`` re-splits the whole source every call)."""
    source = inspect.getsource(module)
    lines = source.splitlines(keepends=True)
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and text in "".join(lines[node.lineno - 1:node.end_lineno])}


def test_each_consolidated_formula_has_one_definition():
    # the plate optics at a gap wavenumber, the light-line limit, the FDR
    # weight, the retarded prescription and the root pipeline each live in
    # one helper, which every caller reaches
    for module, helper, callers in (
            (pressure, "_plate_fresnel", ("_round_trips", "_strip_n")),
            (pressure, "_inverse_n", ("_channel_kernel", "_strip_may_hold_zeros")),
            (material, "fdr_weight", ("fdr_epsilon_identity",)),
            (material, "_retarded_s", ("_fourier_s", "fdr_weight", "permittivity_fourier")),
            (spectral, "_root_groups", ("find_qbm_poles", "plate_mode_roots")),
            (spectral, "_pole_report", ("find_qbm_poles", "plate_mode_roots"))):
        for caller in callers:
            assert helper in _reachable(module, caller), (caller, helper)
    # the callers in other modules read the helper itself
    assert pressure.fdr_weight is material.fdr_weight
    assert em_green._retarded_s is material._retarded_s
    for module, caller, helper in ((pressure, "_frequency_factors", "fdr_weight"),
                                   (em_green, "plate_eps", "_retarded_s")):
        assert {helper} <= {n.id for n in ast.walk(ast.parse(inspect.getsource(
            getattr(module, caller)))) if isinstance(n, ast.Name)}, (caller, helper)
    # and no other function spells the formula out
    for module, text, helper in (
            (pressure, "np.sqrt((1.0 - ep) * (w * w) - k * k)", "_plate_fresnel"),
            (pressure, "1.0 / (qn / ", "_inverse_n"),
            (pressure, "qbm_green", None),
            (material, "np.conj(s)", "fdr_weight"),
            (material, "gamma > 0 else", "_retarded_s"),
            (em_green, "gamma > 0", None),
            (spectral, "_newton_polish(poly", "_root_groups"),
            (spectral, "PoleReport(", "_pole_report"),
            (spectral, "_NODE_ANGLES", None)):
        assert _spelling(module, text) == ({helper} if helper else set()), text
