"""Steady-state Casimir pressure between dissipative half-spaces at
independent temperatures, with the analytic-structure toolkit used to
establish which contributions survive at late times.

Natural units throughout: hbar = c = kB = 1.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NeqLifshitzError,
    SingularityError,
)
from .material import (
    BathModel,
    EpsilonTable,
    Material,
    bath_dissipation,
    fdr_epsilon_identity,
    load_epsilon_table,
    noise_fourier,
    permittivity,
    permittivity_fourier,
    qbm_green,
)
from .em_green import Geometry, dmu, fresnel, qz
from .pressure import (
    BREAKDOWN_KEYS,
    PressureOptions,
    PressureResult,
    bath_integrand,
    equilibrium_matsubara,
    steady_pressure,
)
from .spectral import (
    branch_inventory,
    dof_origin_report,
    find_qbm_poles,
    ic_origin_report,
    invert_laplace_qbm,
    modified_mode_check,
    plate_mode_roots,
    scan_dmu_imaginary_axis,
)

__version__ = "0.1.0"

__all__ = [
    "BREAKDOWN_KEYS",
    "BathModel",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EpsilonTable",
    "Geometry",
    "Material",
    "NeqLifshitzError",
    "PressureOptions",
    "PressureResult",
    "SingularityError",
    "bath_dissipation",
    "bath_integrand",
    "branch_inventory",
    "dmu",
    "dof_origin_report",
    "equilibrium_matsubara",
    "fdr_epsilon_identity",
    "find_qbm_poles",
    "fresnel",
    "ic_origin_report",
    "invert_laplace_qbm",
    "load_epsilon_table",
    "modified_mode_check",
    "noise_fourier",
    "permittivity",
    "permittivity_fourier",
    "plate_mode_roots",
    "qbm_green",
    "qz",
    "scan_dmu_imaginary_axis",
    "steady_pressure",
    "__version__",
]
