"""Time-optimality of parallel-navigation courses.

Unit-F parametrized courses are candidates for minimizers of elapsed
pursuit time.  This module provides the Pontryagin-style certificate:
the control Hamiltonian

    H(r, p, delta, X) = <p, X> - F_delta(r, X)

with the lead angle as the control, its pointwise maximum over
``delta``, the adjoint consistency check ``dp/dt = -dH*/dr`` along a
candidate course, and a shooting solver that produces the time-optimal
course itself by integrating zero-lead geodesics.  Because ``F_delta >=
F_0`` pointwise (the lead angle only burns speed on sideways motion),
the maximum is in closed form at ``delta* = 0``, and the zero-lead
course is optimal; the inequality is also exposed here as a sampling
check.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    OutOfDomainError,
    UnreachableError,
)
from .geodesics import (
    CurveRecord,
    _PlanarFlow,
    _flow_curve,
    _planar_vector,
    _time_derivative,
    _trapezoid,
    curve_from_arrays,
    # unused here, but perfbench's tracer wraps them under this module
    euler_lagrange_residual,
    spray_coefficients,
)
from .kinematics import _MAX_STEPS, Scenario, ConstantVelocity, _length, _resolve_speed, pn_lead_angle
from .metric import ConstantField, NavMetric, NavMetricParams

__all__ = [
    "OptimalityReport",
    "MonotonicityReport",
    "InterceptSolution",
    "maximized_hamiltonian",
    "pmp_check",
    "optimal_trajectory",
    "monotonicity_check",
    "lengths_over_lead_angles",
    "pursuer_ode_residual",
    "nonmaneuvering_intercept",
]

# shooting: horizon in chord lengths; launch-angle increment of the fan that
# replaces a shot which left the metric domain; cap on the shots per course;
# cap on a shot's end-point iterations (139 at most measured on the hard draws);
# the probe shots' step is t_hat / _PROBE_DIVISOR
_HORIZON_FACTOR = 3.0
_FAN_STEP = 0.05
_MAX_SHOTS = 80
_MAX_END_STEPS = 200
_PROBE_DIVISOR = 64.0


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded exactly like ``a @ b`` on the rows."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def maximized_hamiltonian(metric: NavMetric, x, p, direction) -> tuple[float, float]:
    """Maximize ``H = <p, X> - F_delta(x, X)`` over the lead angle at one course point.

    ``X`` is ``direction`` rescaled to unit zero-lead length, whatever
    ``metric``'s own ``delta``.  ``F_delta = |X|^2 / (v_M cos(delta) |X| - <X, v_T>)``
    only grows as ``|delta|`` grows, so the maximum is at ``delta* = 0``, where
    ``F_0(x, X) = 1``.  Returns ``(<p, d> / F_0(x, d) - 1, 0.0)`` for ``d =
    direction``; raises :class:`OutOfDomainError` where ``F_0`` does not close.
    """
    d = np.asarray(direction, dtype=float)
    return float(np.asarray(p, dtype=float) @ d) / metric.with_delta(0.0).F(x, d) - 1.0, 0.0


@dataclass(frozen=True)
class OptimalityReport:
    """Summary of the Pontryagin certificate along one course."""

    max_unit_defect: float
    max_hamiltonian: float
    max_control_gap: float
    max_adjoint_residual: float
    max_el_residual: float
    passed: bool
    hamiltonians: np.ndarray
    control_gaps: np.ndarray
    adjoint_residuals: np.ndarray
    el_residuals: np.ndarray
    max_abs_delta_star = 0.0  # the lead angle's maximum is delta* = 0 in closed form

    def summary(self) -> dict:
        """The record's keys: every field but the per-node arrays, and ``max_abs_delta_star``."""
        doc = {k: v for k, v in vars(self).items() if not isinstance(v, np.ndarray)}
        return {**doc, "max_abs_delta_star": self.max_abs_delta_star}


def pmp_check(metric: NavMetric, curve: CurveRecord) -> OptimalityReport:
    """Run the full optimality certificate on a unit-F course, at zero lead.

    Everything is evaluated with ``metric``'s field at zero lead angle,
    whatever its own ``delta``.  The course must be unit-F parametrized
    to 1e-6 (anything else is a usage error, not a failed certificate).
    Costates are the canonical momenta ``p = F dF/dv``.  The maximized
    Hamiltonian is :func:`maximized_hamiltonian`'s closed form, ``H* =
    <p, v>/F - 1`` at ``delta* = 0``; since ``<p, v> = F^2`` (Euler's
    theorem), ``H* = F - 1`` and the control gap ``H* - H(delta = 0)`` is
    exactly ``-(F - 1)^2``.  The adjoint residual is ``|dp/dt + dH*/dx|``,
    where ``dH*/dx = -dF_0/dx`` at fixed ``v`` by the envelope theorem
    (Danskin, *The Theory of Max-Min*, 1967).  ``F``'s gradients are
    closed forms (:meth:`NavMetric.gradients_many`); only ``dp/dt`` is a
    difference on the curve grid, which needs three nodes at least, and it
    also gives the Euler-Lagrange residual of ``L = F^2``, ``2 |dp/dt - F
    dF/dx|``.  The course passes when ``|H*|`` is at most 1e-4, the control
    gap at most 1e-6, and the adjoint and Euler-Lagrange residuals (per unit
    length, and so reported) times the start range ``|x0|`` at most 1e-4,
    so that the verdict does not depend on the unit of length.
    """
    unit_defect = float(np.max(np.abs(curve.F_values - 1.0)))
    if not np.isfinite(unit_defect) or unit_defect > 1e-6:
        raise InvalidInputError(
            f"course is not unit-F parametrized (max |F - 1| = {unit_defect:.3g})"
        )
    metric = metric.with_delta(0.0)
    X, V = curve.positions, curve.velocities
    F, dFdv, dFdx = metric.gradients_many(X, V)
    P = F[:, None] * dFdv
    pV = _row_dots(P, V)
    hams = pV / F - 1.0
    gaps = hams - (pV - F)
    dPdt = _time_derivative(P, curve.times)
    adj = np.linalg.norm(dPdt - dFdx, axis=1)
    # euler_lagrange_residual(metric, curve, energy_scale=1.0) bit for bit: its momenta are 2P
    el = 2.0 * np.linalg.norm(dPdt - F[:, None] * dFdx, axis=1)
    max_ham, max_gap, max_adj, max_el = (float(np.max(a)) for a in (np.abs(hams), np.abs(gaps), adj, el))
    range0 = _length(X[0])

    return OptimalityReport(
        max_unit_defect=unit_defect,
        max_hamiltonian=max_ham,
        max_control_gap=max_gap,
        max_adjoint_residual=max_adj,
        max_el_residual=max_el,
        passed=max_ham <= 1e-4 and max_gap <= 1e-6 and max_adj * range0 <= 1e-4 and max_el * range0 <= 1e-4,
        hamiltonians=hams,
        control_gaps=gaps,
        adjoint_residuals=adj,
        el_residuals=el,
    )


# ---------------------------------------------------------------------------
# Time-optimal course by shooting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Shot:
    """One geodesic shot: states ``(x1, x2, y1, y2)`` on the step grid, ending at its first done point."""

    times: list
    states: list
    miss: float  # signed perpendicular offset of the end point
    hit: bool
    phi: float  # launch angle


def _shoot(metric: NavMetric, flow, x0: np.ndarray, phi: float, step: float, n_max: int, eps: float) -> _Shot | None:
    """Fire the unit-F geodesic from ``x0`` at angle ``phi`` on ``flow``, ``metric``'s planar flow (2-d constant
    or linear field), until it is done: inside the hit sphere or no longer approaching the target.

    A state is done exactly where its margin ``m = min(|x| - eps, -<x, y>/|y|)`` is not positive.  The march
    stops at the first done node; Illinois regula falsi on ``m`` over that step (the secant point, or the
    midpoint where the secant leaves the bracket; Dowell & Jarratt, BIT 11, 1971), to a bracket of
    ``1e-12 step``, puts the last node on the done end of the bracket: the contact for a hit, the closest
    approach for a miss.  None if a stage leaves the domain, ``n_max`` steps do not get done, the bracket is
    still open after ``_MAX_END_STEPS`` iterations, or the end point is off unit F by more than 1e-3 (RK4 lost
    the geodesic, so its miss is noise).
    """

    def margin(z) -> float:
        x1, x2, y1, y2 = z
        return min(math.sqrt(x1 * x1 + x2 * x2) - eps, -(x1 * y1 + x2 * y2) / math.sqrt(y1 * y1 + y2 * y2))

    u = np.array([math.cos(phi), math.sin(phi)])
    try:
        z = (*x0.tolist(), *metric.unit_vector(x0, u).tolist())
        times, states = [0.0], [z]
        for k in range(1, n_max + 1):
            z = x1, x2, y1, y2 = flow.step(states[-1], step)
            if math.sqrt(x1 * x1 + x2 * x2) <= eps or x1 * y1 + x2 * y2 >= 0.0:  # margin(z) <= 0, short-circuited
                break
            times.append(k * step)
            states.append(z)
        else:
            return None
        # z is the done state at hi; the end left in place twice in a row (kept: 1 lo, -1 hi) has its margin halved
        lo, hi, m_lo, m_hi, kept, n_end = 0.0, step, margin(states[-1]), margin(z), 0, 0
        while hi - lo > 1e-12 * step:
            if n_end == _MAX_END_STEPS:
                return None
            n_end += 1
            t = hi - m_hi * (hi - lo) / (m_hi - m_lo)
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
            z_t = flow.step(states[-1], t)
            m_t = margin(z_t)
            if m_t <= 0.0:
                hi, z, m_hi, m_lo, kept = t, z_t, m_t, (0.5 * m_lo if kept == 1 else m_lo), 1
            else:
                lo, m_lo, m_hi, kept = t, m_t, (0.5 * m_hi if kept == -1 else m_hi), -1
        if not abs(metric.F(z[:2], z[2:]) - 1.0) <= 1e-3:
            return None
    except OutOfDomainError:
        return None
    times.append(times[-1] + hi)
    states.append(z)
    x1, x2, y1, y2 = z
    ny = math.sqrt(y1 * y1 + y2 * y2)
    return _Shot(times, states, x1 * (y2 / ny) - x2 * (y1 / ny), math.sqrt(x1 * x1 + x2 * x2) <= eps, phi)


def _next_launch_angle(misses: list[tuple[float, float]], phi_aim: float, r0: float) -> float:
    """Launch angle where the measured misses put the root of the signed miss.

    ``misses`` holds ``(phi, signed miss)`` in firing order.  A single
    miss gives the straight-line Newton guess: a straight course launched
    at ``phi`` misses by ``-r0 sin(phi - phi_aim)``, so in a zero-gradient
    field the guess is exact.  Misses all on one side give a secant step
    through the newest two.  Once the newest miss has partners on the
    other side, regula falsi runs against the nearest of them in angle,
    whose miss is halved for every further shot in a row on the newest
    one's side (the Illinois rule, Dowell & Jarratt, BIT 11, 1971).
    Returns NaN when two misses are equal and give no step.
    """
    phi_b, m_b = misses[-1]
    if len(misses) == 1:
        s = math.sin(phi_b - phi_aim) + m_b / r0
        return phi_aim + math.asin(min(1.0, max(-1.0, s)))
    far = [(phi, m) for phi, m in misses if m * m_b < 0.0]
    if far:
        phi_a, m_a = min(far, key=lambda shot: abs(shot[0] - phi_b))
        run = next(k for k, (_, m) in enumerate(reversed(misses)) if m * m_b < 0.0)
        m_a *= 0.5 ** (run - 1)
    else:
        phi_a, m_a = misses[-2]
    if m_a == m_b:
        return math.nan
    return phi_b - m_b * (phi_b - phi_a) / (m_b - m_a)


def _hitting_shot(metric: NavMetric, flow, x0: np.ndarray, eps: float, step: float, n_max: int, phi=None) -> _Shot:
    """Shoot on the launch angle until a geodesic enters the hit sphere.

    The first shot is at the launch angle ``phi``, or at the aim at the
    origin when ``phi`` is None; each later angle comes from the misses
    measured so far (:func:`_next_launch_angle`: Newton guess, then secant,
    then Illinois regula falsi once the target is bracketed).  No angle is
    fired twice.  When a shot leaves the metric domain (:func:`_shoot`
    returns None), or the proposed angle was fired already or lies a right
    angle or more off the aim (such a course recedes from its start), the
    next unused angle of the fan ``phi_aim +- k _FAN_STEP`` is shot instead.
    After ``_MAX_SHOTS`` shots it raises :class:`ConvergenceError` naming
    the best miss and its angle.
    """
    phi_aim = math.atan2(-x0[1], -x0[0])
    r0 = _length(x0)
    fan = (phi_aim + sgn * k * _FAN_STEP for k in itertools.count(1) for sgn in (1.0, -1.0))
    fired: set[float] = set()
    misses: list[tuple[float, float]] = []  # (phi, signed miss) of the shots that stayed in the domain
    phi = phi_aim if phi is None else phi
    for _ in range(_MAX_SHOTS):
        fired.add(phi)
        s = _shoot(metric, flow, x0, phi, step, n_max, eps)
        if s is not None:
            if s.hit:
                return s
            misses.append((phi, s.miss))
            phi = _next_launch_angle(misses, phi_aim, r0)
        if phi in fired or not abs(phi - phi_aim) < 0.5 * math.pi:
            # the fan's angles are distinct and at most _MAX_SHOTS are fired, so this draws _MAX_SHOTS + 1 at most
            phi = next(p for p in fan if p not in fired)
    if not misses:
        raise ConvergenceError(f"all {_MAX_SHOTS} geodesic shots left the metric domain")
    phi, miss = min(misses, key=lambda shot: abs(shot[1]))
    raise ConvergenceError(
        f"no geodesic shot entered the hit sphere in {_MAX_SHOTS} shots; "
        f"best |miss| {abs(miss):.3g} at launch angle {phi:.6g} rad"
    )


def _require_arrival(t_f: float, t_max: float) -> None:
    """Raise :class:`UnreachableError` for a course that arrives after ``t_max``."""
    if t_f > t_max:
        raise UnreachableError(f"the zero-lead course reaches the target at t={t_f:.6g}, after t_max={t_max:.6g}")


def optimal_trajectory(scenario: Scenario, field=None, *, step: float | None = None) -> CurveRecord:
    """Time-optimal course from ``-r0`` to the hit sphere at zero lead angle.

    The course is a geodesic of the zero-lead navigation metric; the
    returned record is parametrized by time (equivalently, by metric
    length).  In a constant field, whose only geodesic to the origin is the
    straight chord, the course is that chord in closed form on the shooter's
    grid, laid out in the scenario's own dimension, and no geodesic is shot;
    otherwise it is found by shooting on the launch angle:
    :func:`_hitting_shot` aims on probe shots of step ``t_hat / 64``, then
    one search at ``step`` makes the course.  Its first shot is at the
    probes' hitting angle; should that shot miss or leave the domain, the
    search goes on from there.  If the probes find no hitting angle, the
    search at ``step`` starts from the aim at the origin, as it does alone
    for a ``step`` of ``t_hat / 64`` or more.  :class:`UnreachableError` is
    raised when the course cannot reach the target: in a constant field,
    when the chord does not close or its closed-form time to the hit sphere,
    ``F_0(x0, -x0) (|x0| - eps) / |x0|``, exceeds ``t_max``; in any other
    field, when the hitting geodesic arrives after ``t_max``.
    :class:`ConvergenceError` is raised when no shot enters the hit sphere
    (see :func:`_hitting_shot`), or when the course strays from unit F by
    more than 1e-9.  ``field``, a :class:`ConstantField` or :class:`LinearField`,
    overrides the target velocity field (defaults to the scenario's constant
    program); non-constant programs require an explicit field.  Shots take 2-d
    linear fields.  Any other field object, a linear field not in 2-d, a field
    whose dimension is not the scenario's, a ``step`` not
    positive and finite or over the step budget (1e7 a shot), and magnitudes
    under which ``t_hat``, the step, the horizon or the chord's contact time
    overflow or underflow raise :class:`InvalidInputError`.  The default
    step is ``t_hat / 512`` with ``t_hat = F_0(x0, -x0)``, or ``|x0| / v_M``
    in a linear field whose straight chord does not close.
    """
    if step is not None and not (0.0 < step < math.inf):
        raise InvalidInputError(f"step must be positive and finite, got {step!r}")
    if field is None:
        if not isinstance(scenario.program, ConstantVelocity):
            raise InvalidInputError("non-constant programs need an explicit velocity field")
        field = ConstantField(scenario.program.vector)

    x0 = -scenario.r0.astype(float)
    metric = NavMetric(NavMetricParams(scenario.v_m, 0.0), field)
    constant = isinstance(field, ConstantField)
    flow = None if constant else _PlanarFlow(metric)  # refuses every field but a 2-d constant or linear one
    if metric.dim != x0.size:
        raise InvalidInputError(f"a {metric.dim}-d field cannot steer a {x0.size}-d course")
    eps = scenario.hit_radius

    # time scale: metric length of the straight chord to the origin, or its pursuer time where it does not close
    with np.errstate(over="ignore", invalid="ignore"):  # magnitudes that overflow here are refused below
        range0 = _length(x0)
        chord = metric.value(x0, -x0)
        t_hat = chord.value if chord.in_domain else range0 / scenario.v_m
        if step is None:
            step = t_hat / 512.0
        horizon = _HORIZON_FACTOR * t_hat
        t_contact = t_hat * (range0 - eps) / range0  # the chord's time to the hit sphere
    if not all(0.0 < v < math.inf for v in (t_hat, step, horizon, t_contact)):
        raise InvalidInputError(
            f"the course's time scales overflow or underflow (t_hat {t_hat!r}, step {step!r}, "
            f"contact time {t_contact!r}): rescale lengths or speeds"
        )
    if constant and not chord.in_domain:
        raise UnreachableError("the straight zero-lead course does not close on the target")
    horizon_steps = horizon / step
    if horizon_steps > _MAX_STEPS:  # every shot keeps its states
        raise InvalidInputError(f"step {step!r} lets a shot exceed the step budget of {_MAX_STEPS:.3g}")
    if constant:
        # the chord is the course, in closed form on the shooter's grid: nodes k step before contact,
        # then the contact at F_0(x0, -x0) (|x0| - eps) / |x0|
        _require_arrival(t_contact, scenario.t_max)
        grid = step * np.arange(math.ceil(t_contact / step) + 1)
        times = np.append(grid[grid < t_contact], t_contact)
        y0 = metric.unit_vector(x0, -x0 / range0)
        curve = curve_from_arrays(metric, times, x0 + times[:, None] * y0, np.tile(y0, (times.size, 1)))
    else:
        probe, phi = t_hat / _PROBE_DIVISOR, None
        if step < probe:  # aim on probe shots; the search at the asked-for step starts from their angle
            with contextlib.suppress(ConvergenceError):
                phi = _hitting_shot(metric, flow, x0, eps, probe, math.ceil(horizon / probe)).phi
        shot = _hitting_shot(metric, flow, x0, eps, step, math.ceil(horizon_steps), phi)
        curve = _flow_curve(metric, shot.times, shot.states)
    unit_defect = float(np.max(np.abs(curve.F_values - 1.0)))
    if not unit_defect <= 1e-9:
        raise ConvergenceError(f"the hitting geodesic is not unit-F parametrized (max |F - 1| = {unit_defect:.3g})")
    _require_arrival(float(curve.times[-1]), scenario.t_max)
    return curve


# ---------------------------------------------------------------------------
# Lead-angle monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst violation of ``F_delta >= F_0`` over sampled evaluations."""

    max_violation: float
    n_pairs: int
    worst_point: tuple | None


def monotonicity_check(
    metric: NavMetric,
    n_samples: int = 2000,
    seed: int = 0,
    y_scale: float = 1.0,
) -> MonotonicityReport:
    """Sample ``(x, y, delta)``, with ``|delta| <= 1.3``, and measure ``max(F_0 - F_delta)``.

    Only pairs where both values are defined are compared; the maximum
    should be <= 0 up to roundoff.  Points whose zero-lead value is
    undefined are redrawn.
    """
    rng = np.random.default_rng(seed)
    zero = metric.with_delta(0.0)
    worst, worst_point, n_pairs = -math.inf, None, 0
    for _ in range(50 * n_samples):
        if n_pairs == n_samples:
            break
        x, y, d = rng.normal(size=metric.dim), rng.normal(size=metric.dim) * y_scale, rng.uniform(-1.3, 1.3)
        f0, fd = zero.value(x, y), metric.with_delta(d).value(x, y)
        # where F_delta is undefined it is +inf, so the inequality holds trivially
        if f0.in_domain and fd.in_domain:
            n_pairs, gap = n_pairs + 1, f0.value - fd.value
            if gap > worst:
                worst, worst_point = gap, (x, y, d)
    if n_pairs == 0:
        raise InvalidInputError("no in-domain samples drawn; check the scales")
    return MonotonicityReport(max_violation=float(worst), n_pairs=n_pairs, worst_point=worst_point)


def lengths_over_lead_angles(metric: NavMetric, curve: CurveRecord, deltas) -> np.ndarray:
    """Metric length of a fixed curve under a sweep of lead angles.

    Raises :class:`OutOfDomainError` if any requested lead angle loses
    the curve (the zero-lead length is then not comparable).
    """
    X, Y, t = curve.positions, curve.velocities, curve.times
    return np.array([_trapezoid(metric.with_delta(d).F_many(X, Y), t) for d in np.asarray(deltas, dtype=float)])


# ---------------------------------------------------------------------------
# Second-order pursuit equation
# ---------------------------------------------------------------------------


def pursuer_ode_residual(
    metric: NavMetric,
    pursuer_curve: CurveRecord,
    target_curve: CurveRecord,
    course_curve: CurveRecord,
    deltas=None,
    variant: str = "quadratic",
) -> np.ndarray:
    """Node-wise defect of the second-order pursuit equation.

    Checks ``d2 r_M / dt2 + 2 G(x, dx/dt) = D v_T / Dt`` on a shared time
    grid.  One :class:`parnav.geodesics._PlanarFlow` of the node's lead-angle
    metric gives the spray ``G = -accel / 2`` and the Berwald connection
    ``G^i_jk``, both at the course's node ``(x, v)``; the covariant rate of the
    target velocity ``Y`` is ``dY/dt + G^i_jk Y^j Y^k`` (variant="quadratic")
    or ``dY/dt + G^i_jk v^j Y^k`` (variant="affine").  For a spatially constant
    target velocity both sides vanish along exact parallel-navigation runs.
    """
    if variant not in ("quadratic", "affine"):
        raise InvalidInputError(f"unknown variant {variant!r}")
    for other in (target_curve, course_curve):  # one grid: node times agree to 1e-12 of the largest
        if other.times.shape != pursuer_curve.times.shape or not np.allclose(
            other.times, pursuer_curve.times, rtol=0.0, atol=1e-12 * float(np.max(np.abs(pursuer_curve.times)))
        ):
            raise InvalidInputError("curves must share one time grid")
    N = pursuer_curve.n_nodes
    deltas = np.zeros(N) if deltas is None else np.asarray(deltas, dtype=float)
    if deltas.shape != (N,):
        raise InvalidInputError(f"deltas must hold one lead angle per node: shape ({N},), got {deltas.shape}")

    lhs = _time_derivative(_time_derivative(pursuer_curve.positions, pursuer_curve.times), pursuer_curve.times)
    Y = target_curve.velocities
    rhs = _time_derivative(Y, course_curve.times)
    for i, (x, v, delta) in enumerate(zip(course_curve.positions, course_curve.velocities, deltas)):
        flow = _PlanarFlow(metric.with_delta(float(delta)))
        xv = (*_planar_vector(x, "x"), *_planar_vector(v, "y"))
        lhs[i] -= flow.accel(*xv)  # + 2 G
        rhs[i] += np.einsum("ijk,j,k->i", flow.berwald(*xv), Y[i] if variant == "quadratic" else v, Y[i])
    return np.linalg.norm(lhs - rhs, axis=1)


# ---------------------------------------------------------------------------
# Closed-form straight-line interception
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterceptSolution:
    """Constant-bearing solution against a non-maneuvering target."""

    delta: float
    t_f: float
    closing_speed: float


def nonmaneuvering_intercept(
    range0: float,
    target_speed: float,
    theta0: float = 0.0,
    ratio: float | None = None,
    pursuer_speed: float | None = None,
) -> InterceptSolution:
    """Closed-form lead angle and interception time for a straight target.

    The lead angle freezes the sight line; the range then shrinks at the
    constant rate ``v_M cos(delta) - v_T cos(theta0)``.  Raises
    :class:`InfeasibleControlError` if no real lead angle exists and
    :class:`UnreachableError` if the feasible lead angle does not close
    the range.
    """
    if not (range0 > 0.0):
        raise InvalidInputError("range0 must be positive")
    if target_speed < 0.0:
        raise InvalidInputError("target speed must be non-negative")
    v_m = _resolve_speed(ratio, pursuer_speed, target_speed)
    if target_speed == 0.0:
        return InterceptSolution(delta=0.0, t_f=range0 / v_m, closing_speed=v_m)
    K = v_m / target_speed
    delta = pn_lead_angle(theta0, K)
    closing = v_m * math.cos(delta) - target_speed * math.cos(theta0)
    if closing <= 0.0:
        raise UnreachableError(
            f"parallel navigation never closes (range rate {-closing:.6g} >= 0)"
        )
    return InterceptSolution(delta=delta, t_f=range0 / closing, closing_speed=closing)
