"""Parallel-navigation pursuit as time-optimal motion in a Finsler metric.

The package is organized by layer:

- :mod:`parnav.metric`: the navigation metric, its domain, closed-form
  gradients and fundamental tensor;
- :mod:`parnav.geodesics`: the one planar geodesic flow (closed-form
  spray and RK4 step), the Berwald connection, geodesic integration,
  action integrals, Euler-Lagrange residuals;
- :mod:`parnav.kinematics`: engagement simulation under the
  parallel-navigation law, reparametrization, diagnostics;
- :mod:`parnav.optimal`: Pontryagin-style optimality certificates, the
  time-optimal course (a closed-form chord in constant fields, geodesic
  shooting in planar linear ones), closed-form interception,
  monotonicity checks;
- :mod:`parnav.cli`: the ``parnav`` command.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    InfeasibleControlError,
    InvalidInputError,
    OutOfDomainError,
    ParnavError,
    PartialCurveError,
    UnreachableError,
)
from .metric import (
    ConstantField,
    LinearField,
    MetricValue,
    NavMetric,
    NavMetricParams,
)
from .geodesics import (
    CurveRecord,
    action_integral,
    berwald_coefficients,
    curve_from_arrays,
    euler_lagrange_residual,
    integrate_geodesic,
    spray_coefficients,
)
from .kinematics import (
    ConstantVelocity,
    PiecewiseConstant,
    Scenario,
    SimResult,
    Waypoints,
    collinearity_defect,
    pn_lead_angle,
    relative_course,
    reparametrize_unit_F,
    simulate,
)
from .optimal import (
    InterceptSolution,
    MonotonicityReport,
    OptimalityReport,
    lengths_over_lead_angles,
    maximized_hamiltonian,
    monotonicity_check,
    nonmaneuvering_intercept,
    optimal_trajectory,
    pmp_check,
    pursuer_ode_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
