"""Numerical laboratory for the grafted-collar model: a flat cylinder glued
to hyperbolic strips, its Fourier-mode fields, geodesic variations, and the
boundary-term and area identities that drive the injectivity mechanism."""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GraftLabError,
    SolvabilityError,
)
from .geometry import (
    GraftedCollar,
    conformal_modulus,
    conformal_modulus_quadrature,
    grafted_length,
    gudermannian,
    total_area,
    total_area_quadrature,
)
from .identities import (
    IdentityReport,
    SolvedConfiguration,
    arc_length_derivative,
    area_derivative_analytic,
    area_derivative_geometric,
    area_derivative_report,
    boundary_term_closed,
    boundary_term_quadrature,
    determinant_floor,
    extended_boundary_term,
    master_identity,
    per_mode_determinant,
    slice_condition,
    slice_residual,
    solve_configuration,
)
from .spectral import (
    FourierSolution,
    TraceModes,
    harmonicity_bound,
    harmonicity_residual,
)
from .variation import (
    amend_variation,
    geodesic_oracle,
    hyperbolic_neumann,
    matched_global_field,
    pinned_means,
    solve_flat_variation,
)

__version__ = "0.1.0"

# the imported names, without the submodules that importing them binds here
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
