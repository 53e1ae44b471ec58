"""Layering of the package: the steady-pressure module is the closed-form
bath integral and its quadrature; the symbolic Green-block layer (block
builders, stress contraction, transient integrands) lives beside the
analytic-structure study in ``spectral``, which needs nothing from
``pressure``."""

import ast
import inspect

from neqlifshitz import pressure, spectral

BLOCK_LAYER = ("green_gap_from_plate", "ic_z_block", "theta_contract",
               "assemble_dof_integrand", "assemble_ic_integrand")


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
