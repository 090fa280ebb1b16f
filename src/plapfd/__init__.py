"""Explicit finite differences for the parabolic p-Laplace equation.

Monotone discretizations of ``d/dt u = div(|grad u|^(p-2) grad u) + f``
for ``p >= 2``: stencil construction and the pointwise nonlinearity
(:mod:`plapfd.operators`), explicit time stepping with Hoelder-aware step
size rules (:mod:`plapfd.stepping`), Barenblatt reference solutions
(:mod:`plapfd.exact`), mollifier constants (:mod:`plapfd.mollifier`), and
error/property analysis (:mod:`plapfd.analysis`). The ``plapfd`` console
script exposes the same functionality from the shell.
"""

from .analysis import (
    ConsistencyRow,
    ErrorRow,
    PropertyReport,
    PropertyResult,
    barenblatt_error_row,
    consistency_table,
    convergence_study,
    observed_order,
    run_property_suite,
    sup_error,
)
from .errors import BlowUpError, ConfigurationError
from .exact import (
    BarenblattSolution,
    barenblatt_constants,
    barenblatt_data,
    barenblatt_eval,
    barenblatt_lipschitz,
    barenblatt_solution,
    plap_quadratic_oracle,
)
from .mollifier import (
    REFERENCE_BOUNDS,
    MollifierConstants,
    check_jp_taylor_bound,
    mollifier_constants,
    profile_tau,
    profile_tau_d1,
    profile_tau_d2,
)
from .operators import (
    GridField,
    Stencil,
    apply_dp,
    apply_dp_grid,
    couple_h_to_r,
    dpd_constant,
    grid_axis,
    jp,
    sample_on_grid,
    stencil_1d,
    stencil_ball,
    unit_ball_volume,
)
from .stepping import (
    HolderData,
    SchemeConfig,
    Trajectory,
    constant_data,
    explicit_step,
    iter_levels,
    oscillatory_data,
    plan_config,
    solve,
    sqrt_cusp_data,
    stencil_for,
    tent_data,
    theoretical_step_bound,
    time_interpolate,
)

__version__ = "0.1.0"

__all__ = [
    "BarenblattSolution",
    "BlowUpError",
    "ConfigurationError",
    "ConsistencyRow",
    "ErrorRow",
    "GridField",
    "HolderData",
    "MollifierConstants",
    "PropertyReport",
    "PropertyResult",
    "REFERENCE_BOUNDS",
    "SchemeConfig",
    "Stencil",
    "Trajectory",
    "apply_dp",
    "apply_dp_grid",
    "barenblatt_constants",
    "barenblatt_data",
    "barenblatt_error_row",
    "barenblatt_eval",
    "barenblatt_lipschitz",
    "barenblatt_solution",
    "check_jp_taylor_bound",
    "consistency_table",
    "constant_data",
    "convergence_study",
    "couple_h_to_r",
    "dpd_constant",
    "explicit_step",
    "grid_axis",
    "iter_levels",
    "jp",
    "mollifier_constants",
    "observed_order",
    "oscillatory_data",
    "plan_config",
    "plap_quadratic_oracle",
    "profile_tau",
    "profile_tau_d1",
    "profile_tau_d2",
    "run_property_suite",
    "sample_on_grid",
    "solve",
    "sqrt_cusp_data",
    "stencil_1d",
    "stencil_ball",
    "stencil_for",
    "sup_error",
    "tent_data",
    "theoretical_step_bound",
    "time_interpolate",
    "unit_ball_volume",
]
