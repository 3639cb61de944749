"""Optimality layer: maximized Hamiltonian, certificate, shooting, monotonicity, ODE residual."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parnav import (
    ConstantField,
    ConstantVelocity,
    ConvergenceError,
    InfeasibleControlError,
    InvalidInputError,
    LinearField,
    NavMetric,
    NavMetricParams,
    OutOfDomainError,
    ParnavError,
    PiecewiseConstant,
    Scenario,
    UnreachableError,
    curve_from_arrays,
    euler_lagrange_residual,
    integrate_geodesic,
    lengths_over_lead_angles,
    maximized_hamiltonian,
    monotonicity_check,
    nonmaneuvering_intercept,
    numdiff,
    optimal,
    optimal_trajectory,
    pmp_check,
    pursuer_ode_residual,
    simulate,
)
from parnav.geodesics import _PlanarFlow
from parnav.kinematics import _engagement_plane
from parnav.optimal import _next_launch_angle
from scripts.hard_draws import solve
from tests.conftest import CLOSING, DELTA0, THETA0
from tests.draws import (SPACE, convex_shear, hard_shear, orthogonal, orthogonals, rotate, scale_lengths,
                         scale_speeds, shoot_shear)
from tests.reference import geodesic_field, rk4_step, spray_many


def _chord_curve(metric, x0, horizon, n):
    y0 = metric.unit_vector(np.asarray(x0, dtype=float), -np.asarray(x0, dtype=float))
    t = np.linspace(0.0, horizon, n)
    pos = np.asarray(x0, dtype=float)[None, :] + t[:, None] * y0[None, :]
    vel = np.repeat(y0[None, :], n, axis=0)
    return curve_from_arrays(metric, t, pos, vel)


def test_maximized_hamiltonian_prefers_zero_lead(example_metric):
    x0 = np.array([-1000.0, 0.0])
    curve = _chord_curve(example_metric, x0, 6.0, 3)
    p = example_metric.fundamental_tensor(x0, curve.velocities[0]) @ curve.velocities[0]
    h, dstar = maximized_hamiltonian(example_metric, x0, p, curve.velocities[0])
    assert abs(h) < 1e-6
    assert dstar == 0.0


def _reference_golden(score, a, b, tol):
    """Golden-section search one point at a time: ``(score, x)``, the best of the last three points."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = score(x1), score(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = score(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = score(x1)
    xm = 0.5 * (a + b)
    return max((f1, x1), (f2, x2), (score(xm), xm))


def _reference_scan(score, grid_size=181, refine_tol=1e-8):
    """The lead-angle scan one angle at a time: ``score(delta)`` is H or -inf."""
    grid = np.linspace(-math.pi / 2.0, math.pi / 2.0, grid_size + 2)[1:-1]
    vals = [score(float(d)) for d in grid]
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        raise OutOfDomainError("no lead angle closes")
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    h, d = _reference_golden(score, a, b, refine_tol)
    return (vals[i], float(grid[i])) if vals[i] > h else (h, d)


def _scalar_score(metric, x, p, direction):
    """``delta -> H`` through ``NavMetric.value``, one lead angle at a time."""
    X = metric.with_delta(0.0).unit_vector(x, direction)
    pX = float(p @ X)

    def score(delta):
        mv = metric.with_delta(delta).value(x, X)
        return pX - mv.value if mv.in_domain else -math.inf

    return score


unit = st.floats(-1.0, 1.0)


@settings(max_examples=60)
@given(
    dim=st.sampled_from([2, 3]),
    shear=st.booleans(),
    v_m=st.floats(0.5, 300.0),
    delta=st.floats(-1.5, 1.5),
    field=st.lists(unit, min_size=12, max_size=12),
    q=st.lists(unit, min_size=9, max_size=9),
)
def test_batched_scan_matches_reference(dim, shear, v_m, delta, field, q):
    """The closed-form maximum matches the lead-angle scan, one angle at a time: flat
    and shear, 2-d and 3-d, whatever the metric's own lead angle; rows with
    ``<d, v_T> > 0`` lose the large lead angles (-inf scan entries)."""
    x, p, d = (np.array(q[k : k + dim]) for k in (0, 3, 6))
    if shear:
        f = LinearField(shoot_shear.base * np.array(field[:dim]),
                        shoot_shear.gradient * np.reshape(field[3 : 3 + dim * dim], (dim, dim)))
        metric = NavMetric(NavMetricParams(2.0, delta), f)
        x = 2.0 * x
    else:
        metric = NavMetric(NavMetricParams(v_m, delta), ConstantField(0.9 * v_m * np.array(field[:dim]) / 2.0))
        x, p = 1e3 * x, p / v_m
    # well inside the domain, where F_0 at the unit velocity rounds to 1 within a few ulp
    c = metric.params.v_m
    assume(np.linalg.norm(d) > 1e-3 and metric.with_delta(0.0).value(x, d).denominator > 1e-2 * c * np.linalg.norm(d))
    h, dstar = maximized_hamiltonian(metric, x, p, d)
    h_ref, _ = _reference_scan(_scalar_score(metric, x, p, d))
    assert dstar == 0.0
    assert abs(h - h_ref) <= 1e-12


def test_batched_scan_with_out_of_domain_grid_entries():
    # closing needs cos(delta) > 0.9: all but the central ~50 scan angles score -inf
    metric = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([0.9, 0.0]))
    X = np.array([[-5.0, 0.0], [-5.0, 1.0], [3.0, -2.0]])
    P = np.array([[1.0, 0.2], [-0.5, 0.3], [0.1, 0.1]])
    D = np.array([[1.0, 0.0], [1.0, 0.1], [0.2, 1.0]])
    for x, p, d in zip(X, P, D):
        h, dstar = maximized_hamiltonian(metric, x, p, d)
        h_ref, d_ref = _reference_scan(_scalar_score(metric, x, p, d))
        assert dstar == 0.0
        assert abs(d_ref) <= 2e-8
        assert abs(h - h_ref) <= 1e-12


def test_maximized_hamiltonian_raises_where_the_direction_does_not_close():
    # the target outruns the pursuer along d: no lead angle closes, zero lead included
    metric = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([1.5, 0.0]))
    x, p, d = np.zeros(2), np.ones(2), np.array([1.0, 0.0])
    with pytest.raises(OutOfDomainError):
        maximized_hamiltonian(metric, x, p, d)
    with pytest.raises(OutOfDomainError):
        _reference_scan(_scalar_score(metric, x, p, d))


def test_pmp_check_requires_unit_course(example_metric):
    curve = _chord_curve(example_metric, np.array([-1000.0, 0.0]), 6.0, 41)
    bad = curve_from_arrays(example_metric, curve.times, curve.positions, 2.0 * curve.velocities)
    with pytest.raises(InvalidInputError):
        pmp_check(example_metric, bad)


def test_pmp_certificate_on_straight_course(example_metric):
    curve = _chord_curve(example_metric, np.array([-1000.0, 0.0]), 6.0, 121)
    report = pmp_check(example_metric, curve)
    assert report.passed
    assert report.max_hamiltonian < 1e-8
    assert report.max_abs_delta_star == 0.0
    assert report.max_adjoint_residual < 1e-8
    assert report.max_el_residual < 1e-8
    summary = report.summary()
    assert summary["passed"] is True


def test_pmp_certificate_on_shear_geodesic(shear_metric, shear_start):
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    report = pmp_check(shear_metric, curve)
    assert report.passed
    assert report.max_hamiltonian < 1e-4
    assert report.max_adjoint_residual < 1e-4
    assert report.max_el_residual < 1e-4


def test_envelope_adjoint_matches_re_maximizing_stencil(shear_metric, shear_start):
    """Oracle for the adjoint: central differences of H* in x, re-maximized by the reference scan at x +- h e_k."""
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    report = pmp_check(shear_metric, curve)
    X, V, n = curve.positions, curve.velocities, curve.dim
    F, dFdv, dFdx = shear_metric.gradients_many(X, V)
    P = F[:, None] * dFdv
    hx = 1e-5 * (1.0 + np.linalg.norm(X, axis=1))
    grad = np.empty_like(X)
    for i, k in itertools.product(range(curve.n_nodes), range(n)):
        shift = hx[i] * np.eye(n)[k]
        up, _ = _reference_scan(_scalar_score(shear_metric, X[i] + shift, P[i], V[i]))
        down, _ = _reference_scan(_scalar_score(shear_metric, X[i] - shift, P[i], V[i]))
        grad[i, k] = (up - down) / (2.0 * hx[i])
    adj = np.linalg.norm(np.gradient(P, curve.times, axis=0, edge_order=2) + grad, axis=1)
    # dH*/dx = -dF_0/dx; measured 1.3e-11 against |dF/dx| up to 0.27
    assert np.max(np.abs(grad + dFdx)) <= 1e-9
    assert np.max(np.abs(report.adjoint_residuals - adj)) <= 1e-9


def test_certificate_of_linear_field_calls_no_finite_difference(shear_metric, shear_start, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate's derivatives must not difference")

    for name in numdiff.__all__:
        if callable(getattr(numdiff, name)):
            monkeypatch.setattr(numdiff, name, forbidden)
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    assert pmp_check(shear_metric, curve).passed
    assert np.all(np.isfinite(euler_lagrange_residual(shear_metric, curve)))
    assert np.all(np.isfinite(shear_metric.fundamental_tensor(x0, y0)))


# --- shooting -----------------------------------------------------------------


def test_optimal_trajectory_straight_case(example_scenario, example_metric):
    curve = optimal_trajectory(example_scenario)
    # with zero lead the relative speed along the chord is 200 - 100/2 = 150,
    # so the 999.5 units to the hit sphere take 999.5/150
    assert curve.times[-1] == pytest.approx((1000.0 - 0.5) / 150.0, rel=1e-9)
    assert float(np.max(np.abs(curve.F_values - 1.0))) < 1e-9
    # straightness: every node sits on the launch ray
    d0 = curve.velocities[0] / np.linalg.norm(curve.velocities[0])
    rel = curve.positions - curve.positions[0]
    cross = rel[:, 0] * d0[1] - rel[:, 1] * d0[0]
    assert float(np.max(np.abs(cross))) < 1e-6
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("hit_radius", [1e-3, 1e-2])
def test_optimal_trajectory_small_hit_sphere(hit_radius):
    """The contact search must not step over a sphere smaller than one step."""
    sc = Scenario.nonmaneuvering(1000.0, 100.0, THETA0, ratio=2.0, hit_radius=hit_radius)
    assert simulate(sc).termination == "intercept"
    curve = optimal_trajectory(sc)
    assert curve.times[-1] == pytest.approx((1000.0 - hit_radius) / 150.0, rel=1e-9)


def test_optimal_trajectory_stationary_target():
    sc = Scenario.stationary(1000.0, 200.0)
    curve = optimal_trajectory(sc)
    assert curve.times[-1] == pytest.approx((1000.0 - 0.5) / 200.0, rel=1e-9)


def test_optimal_beats_feedback_law(example_scenario):
    res = simulate(example_scenario)
    curve = optimal_trajectory(example_scenario)
    assert curve.times[-1] < res.t_f


def test_optimal_trajectory_three_dimensional():
    res = simulate(SPACE)
    curve = optimal_trajectory(SPACE)
    assert curve.dim == 3
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(0.5, rel=1e-6)
    assert curve.times[-1] < res.t_f
    assert float(np.max(np.abs(curve.F_values - 1.0))) < 1e-6


def test_optimal_trajectory_unreachable():
    sc = Scenario.nonmaneuvering(1000.0, 100.0, 0.0, ratio=0.8, t_max=10.0)
    with pytest.raises(UnreachableError):
        optimal_trajectory(sc)


def test_optimal_trajectory_arrives_before_the_line_of_sight_chase():
    # pure pursuit needs about 8.33 here (Bouguer), the zero-lead geodesic 999.5/150
    sc = Scenario.nonmaneuvering(1000.0, 100.0, THETA0, ratio=2.0, t_max=8.0)
    curve = optimal_trajectory(sc)
    assert curve.times[-1] == pytest.approx((1000.0 - 0.5) / 150.0, rel=1e-9)
    with pytest.raises(UnreachableError):
        optimal_trajectory(sc.with_(t_max=6.0))


def test_optimal_trajectory_slower_pursuer_on_a_closing_chord():
    # K = 0.8 never catches by pure pursuit, but the chord closes at 80 + 100/2 = 130
    sc = Scenario.nonmaneuvering(1000.0, 100.0, math.radians(120.0), ratio=0.8)
    curve = optimal_trajectory(sc)
    assert curve.times[-1] == pytest.approx((1000.0 - 0.5) / 130.0, rel=1e-9)


@settings(max_examples=50)
@given(
    r=st.floats(10.0, 2000.0),
    bearing=st.floats(-math.pi, math.pi),
    v_t=st.floats(0.0, 300.0),
    heading=st.floats(-math.pi, math.pi),
    v_m=st.floats(50.0, 400.0),
    hit=st.floats(1e-3, 1.0),
    t_max=st.floats(0.1, 60.0),
)
def test_constant_field_course_is_the_chord_or_unreachable(r, bearing, v_t, heading, v_m, hit, t_max):
    r0 = r * np.array([math.cos(bearing), math.sin(bearing)])
    v = v_t * np.array([math.cos(heading), math.sin(heading)])
    sc = Scenario(r0=r0, program=ConstantVelocity.from_vector(v), v_m=v_m, hit_radius=hit, t_max=t_max)
    # the straight chord x0 = -r0 -> origin closes at the rate v_m - <r0/r, v_T>
    den = v_m * r - float(r0 @ v)
    t_chord = r * (r - hit) / den if den > 0.0 else math.inf
    assume(abs(t_chord - t_max) > 1e-9 * t_max)
    if t_chord <= t_max:
        assert optimal_trajectory(sc).times[-1] == pytest.approx(t_chord, rel=1e-9)
    else:
        with pytest.raises(UnreachableError):
            optimal_trajectory(sc)


def test_late_constant_field_chord_is_unreachable_before_any_shot(example_scenario, monkeypatch):
    def no_shot(*args):
        raise AssertionError("a geodesic was shot")

    monkeypatch.setattr(optimal, "_shoot", no_shot)
    # the chord arrives at 999.5/150 = 6.66333
    with pytest.raises(UnreachableError, match=r"t=6\.66333, after t_max=6"):
        optimal_trajectory(example_scenario.with_(t_max=6.0))


# (r0, target velocity, v_m, hit radius): 2-d and 3-d constant-field engagements
_CHORDS = [
    ([1000.0, 0.0], [50.0, 86.60254037844386], 200.0, 0.5),
    ([-340.0, 1250.0], [-120.0, 35.0], 260.0, 0.01),
    ([800.0, -300.0, 250.0], [60.0, 70.0, -20.0], 235.0, 0.5),
    ([-90.0, 40.0, 700.0], [0.0, 150.0, 10.0], 410.0, 2.0),
]


@pytest.mark.parametrize("r0, v, v_m, hit", _CHORDS)
def test_constant_field_course_is_the_hitting_shot_in_closed_form(monkeypatch, r0, v, v_m, hit):
    sc = Scenario(r0=np.array(r0), program=ConstantVelocity.from_vector(np.array(v)), v_m=v_m, hit_radius=hit)
    basis = _engagement_plane(sc.r0, sc.program.vector)[0] if sc.dim == 3 else np.eye(2)
    planar, field = rotate(sc, ConstantField(np.array(v)), basis)  # into the engagement plane
    metric, x0 = NavMetric(NavMetricParams(v_m, 0.0), field), -planar.r0
    step = metric.F(x0, -x0) / 512.0
    shot = optimal._hitting_shot(metric, _PlanarFlow(metric), x0, hit, step, 3 * 512 + 1)
    shot_positions = np.array(shot.states)[:, :2] @ basis

    monkeypatch.setattr(optimal, "_shoot", lambda *args: pytest.fail("a geodesic was shot"))
    course = optimal_trajectory(sc)
    assert course.n_nodes == len(shot.times)
    assert abs(course.times[-1] - shot.times[-1]) <= 1e-12 * shot.times[-1]
    assert np.max(np.abs(course.positions - shot_positions)) <= 1e-12 * np.linalg.norm(r0)
    assert np.all(np.diff(course.times) > 0.0) and np.max(np.abs(course.F_values - 1.0)) <= 1e-12


def _certified(sc, field):
    """The course of ``sc`` in ``field`` and its certificate's summary."""
    course = optimal_trajectory(sc, field)
    return course, pmp_check(NavMetric(NavMetricParams(sc.v_m), field), course).summary()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("r0, v, v_m, hit", _CHORDS)
def test_constant_field_course_turns_with_the_scenario(r0, v, v_m, hit, seed):
    sc = Scenario(r0=np.array(r0), program=ConstantVelocity.from_vector(np.array(v)), v_m=v_m, hit_radius=hit)
    Q = orthogonal(np.random.default_rng(seed).normal(size=(sc.dim, sc.dim)))
    field = ConstantField(np.array(v))
    (course, report), (turned, turned_report) = _certified(sc, field), _certified(*rotate(sc, field, Q))
    assert turned.n_nodes == course.n_nodes
    assert abs(turned.times[-1] - course.times[-1]) <= 1e-12 * course.times[-1]
    assert np.max(np.abs(turned.positions - course.positions @ Q.T)) <= 1e-12 * np.linalg.norm(r0)
    assert turned_report["passed"] is report["passed"] is True
    for key, value in report.items():
        assert turned_report[key] == pytest.approx(value, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_shear_course_turns_with_the_scenario(shear_metric, seed):
    Q = orthogonal(np.random.default_rng(seed).normal(size=(2, 2)))
    sc, field = _shear_scenario(0.05), shear_metric.field
    (course, report), (turned, turned_report) = _certified(sc, field), _certified(*rotate(sc, field, Q))
    assert turned.n_nodes == course.n_nodes
    assert abs(turned.times[-1] - course.times[-1]) <= 1e-9 * course.times[-1]
    assert np.max(np.abs(turned.positions - course.positions @ Q.T)) <= 1e-9 * np.linalg.norm(sc.r0)
    assert turned_report["passed"] is report["passed"] is True
    for key, value in report.items():
        assert turned_report[key] == pytest.approx(value, rel=0.0, abs=1e-10)


def test_linear_field_course_starts_where_the_straight_chord_does_not_close():
    # the chord's own direction x0 -> origin does not close here, so its metric length cannot set the step;
    # |x0| / v_M does, and the fan finds an angle that closes
    field = LinearField(
        [0.1023746488161782, 0.08831370694455004],
        [[-0.4806914627102765, -0.18555066912561968], [-1.1320327892508888, -0.9017201364010465]],
    )
    sc = Scenario(r0=np.array([-2.6343681319356302, -0.7022333250408812]), program=ConstantVelocity(0.0, 0.0),
                  v_m=2.0, hit_radius=0.01)
    metric = NavMetric(NavMetricParams(2.0), field)
    assert not metric.value(-sc.r0, sc.r0).in_domain
    curve = optimal_trajectory(sc, field)
    assert curve.n_nodes == 812
    assert curve.times[-1] == pytest.approx(2.15867, rel=1e-5)
    assert np.max(np.abs(curve.F_values - 1.0)) <= 1e-9
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(0.01, rel=1e-9)


def _log_shots(patch, veto=lambda n: False):
    """Record ``(launch angle, step)`` of every shot ``_shoot`` is asked for; shot ``n`` (1-based) returns None if vetoed."""
    real, fired = optimal._shoot, []

    def logged(metric, f, x0, phi, step, *rest):
        fired.append((phi, step))
        return None if veto(len(fired)) else real(metric, f, x0, phi, step, *rest)

    patch.setattr(optimal, "_shoot", logged)
    return fired


def _shear_scenario(hit_radius):
    """The c09 shear engagement; its field is ``shear_metric.field``."""
    return Scenario(r0=np.array([1.6, -0.9]), program=ConstantVelocity(0.1, 0.0), v_m=2.0, hit_radius=hit_radius)


@pytest.mark.parametrize("length_scale", [1e-3, 1.0, 1e6])
def test_certificate_verdict_has_no_unit_of_length(shear_metric, length_scale):
    # the c09 course in other units of length: its residuals scale as 1/length_scale, its verdict must not
    sc, field = scale_lengths(_shear_scenario(0.05), shear_metric.field, length_scale)
    course, report = _certified(sc, field)
    assert course.n_nodes == 449
    assert report["passed"]


@pytest.mark.parametrize("case", ["c09-shear", "3-d-chord"])
def test_certificate_el_residuals_are_the_public_function_bit_for_bit(shear_metric, case):
    if case == "c09-shear":
        metric, curve = shear_metric, optimal_trajectory(_shear_scenario(0.05), shear_metric.field)
    else:
        sc = Scenario(r0=np.array([800.0, -300.0, 250.0]), program=ConstantVelocity.from_vector([60.0, 70.0, -20.0]), v_m=235.0)
        metric, curve = NavMetric(NavMetricParams(sc.v_m), ConstantField(sc.program.vector)), optimal_trajectory(sc)
    el = pmp_check(metric, curve).el_residuals
    np.testing.assert_array_equal(el, euler_lagrange_residual(metric, curve, energy_scale=1.0))


@pytest.mark.parametrize("hit_radius", [0.05, 0.01])
def test_shear_course_takes_at_most_three_shots(shear_metric, monkeypatch, hit_radius):
    # the alternating fan and bisection fired 13 and 18 shots here: at most three probes aim the course,
    # then one shot at the course's own step marches it
    sc = _shear_scenario(hit_radius)
    t_hat = shear_metric.F(-sc.r0, sc.r0)
    fired = _log_shots(monkeypatch)
    curve = optimal_trajectory(sc, shear_metric.field)
    probes = [phi for phi, step in fired if step == t_hat / optimal._PROBE_DIVISOR]
    assert 1 <= len(probes) <= 3
    assert fired[len(probes):] == [(probes[-1], t_hat / 512.0)]
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(hit_radius, rel=1e-9)


def test_shot_leaving_the_domain_is_replaced_by_the_next_fan_angle(shear_metric, monkeypatch):
    fired = _log_shots(monkeypatch, veto=lambda n: n == 2)  # the Newton guess, a probe
    curve = optimal_trajectory(_shear_scenario(0.01), shear_metric.field)
    assert fired[2] == (fired[0][0] + optimal._FAN_STEP, fired[0][1])
    assert len(set(fired)) == len(fired)  # no angle is fired twice at one step
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(0.01, rel=1e-9)


def _fine_search_only(patch):
    """Make no probe coarser than the default step t_hat / 512, so the solve is the search at that step alone."""
    patch.setattr(optimal, "_PROBE_DIVISOR", 512.0)


def _same_course(a, b):
    for name in ("times", "positions", "velocities", "F_values"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("outcome", ["misses", "leaves-the-domain"])
def test_course_search_goes_on_from_the_probes_angle(shear_metric, monkeypatch, outcome):
    # the first shot at the course's step, at the probes' hitting angle, fails: the search at that step goes on
    # from it instead of starting again from the aim at the origin, and still ends on a unit-F hit
    sc = _shear_scenario(0.01)
    x0 = -sc.r0
    step = shear_metric.F(x0, -x0) / 512.0
    real, fired = optimal._shoot, []

    def first_course_shot_fails(metric, f, x0, phi, h, *rest):
        fired.append((phi, h))
        shot = real(metric, f, x0, phi, h, *rest)
        if h == step and sum(s == step for _, s in fired) == 1:
            return dataclasses.replace(shot, hit=False) if outcome == "misses" else None
        return shot

    monkeypatch.setattr(optimal, "_shoot", first_course_shot_fails)
    curve = optimal_trajectory(sc, shear_metric.field)
    probes, course = ([phi for phi, h in fired if (h == step) == fine] for fine in (False, True))
    assert course[0] == probes[-1]
    assert course[1] != math.atan2(-x0[1], -x0[0])
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(0.01, rel=1e-9)
    assert np.max(np.abs(curve.F_values - 1.0)) <= 1e-9


def _miss_grows_with_the_step(metric, f, x0, phi, step, *rest):
    """A shot that never hits; its best miss, and so the refusal's message, tells the step apart."""
    return optimal._Shot([], [], 0.5 + 1e3 * step + phi * phi, False, phi)


@pytest.mark.parametrize("case", ["course", "error"])
def test_probe_search_that_fails_falls_back_to_the_fine_search(shear_metric, monkeypatch, case):
    sc = _shear_scenario(0.01)
    probe = shear_metric.F(-sc.r0, sc.r0) / optimal._PROBE_DIVISOR
    real = optimal._hitting_shot

    def probes_fail(metric, f, x0, eps, step, n_max, phi=None):
        if step == probe:
            raise ConvergenceError("no probe entered the hit sphere")
        return real(metric, f, x0, eps, step, n_max, phi)

    # "error": no shot ever hits, so the probe search raises with a message of its own
    monkeypatch.setattr(optimal, *(("_shoot", _miss_grows_with_the_step) if case == "error" else ("_hitting_shot", probes_fail)))

    def solve():
        try:
            return optimal_trajectory(sc, shear_metric.field)
        except ConvergenceError as exc:
            return str(exc)

    got = solve()
    _fine_search_only(monkeypatch)
    fine = solve()
    if case == "error":
        with pytest.raises(ConvergenceError) as probe_error:
            real(None, None, -sc.r0, sc.hit_radius, probe, 1)
        assert fine.startswith("no geodesic shot entered the hit sphere") and str(probe_error.value) != fine
        assert got == fine
    else:
        _same_course(got, fine)


def test_hard_draw_slice_keeps_its_solves_within_its_steps():
    # the first 60 seed-7 draws of scripts/hard_draws.py, whose fields cross the metric's non-convex part:
    # 58 are solved and draws 0 and 57 refused; the bounds are the RK4 step totals the shooter takes on them
    # with the course search seeded by the probes' angle, so a change that spends more must say so here
    rows = [solve(*draw) for draw in hard_shear.draws(7, 60)]
    solved = {k for k, row in enumerate(rows) if row["status"] == "solved"}
    assert solved >= set(range(60)) - {0, 57}
    assert sum(rows[k]["rk4_steps"] for k in solved) <= 63_909
    assert sum(row["rk4_steps"] for row in rows) - sum(rows[k]["rk4_steps"] for k in solved) <= 35_983


@settings(max_examples=40)
@given(draw=convex_shear.strategy())
def test_probe_aimed_course_hits_on_unit_F_in_convex_fields(draw):
    # in a convex_shear field RK4 follows the geodesic: the course must hit, on unit F
    sc, field = draw
    curve = optimal_trajectory(sc, field)
    assert np.linalg.norm(curve.positions[-1]) == pytest.approx(sc.hit_radius, rel=1e-9)
    assert np.max(np.abs(curve.F_values - 1.0)) <= 1e-9


_PINNED_DRAWS = shoot_shear.draws(0, 20)


@pytest.mark.parametrize("k", range(len(_PINNED_DRAWS)))
def test_probe_aimed_course_matches_the_fine_search(monkeypatch, k):
    # the first 500 draws of this generator all agree to 1e-9; where the probes' first hitting angle and the
    # fine search's differ, the first-hit rule picks another crossing of the sphere (t_f can move by 1e-4), so
    # these draws are pinned rather than drawn by a property
    sc, field = _PINNED_DRAWS[k]
    course = optimal_trajectory(sc, field)
    _fine_search_only(monkeypatch)
    fine = optimal_trajectory(sc, field)
    assert course.n_nodes == fine.n_nodes
    assert course.times[-1] == pytest.approx(fine.times[-1], rel=1e-9)


def test_shot_end_point_takes_few_re_steps(shear_metric, monkeypatch):
    # Illinois regula falsi on the margin min(|x| - eps, -<x, y>/|y|): the bisection it replaces took 40
    # re-steps a shot; without the Illinois halving the secant creeps from one end and takes far more
    calls = [0]
    real_step, real_shoot, re_steps = _PlanarFlow.step, optimal._shoot, []

    def counted_step(flow, z, h):
        calls[0] += 1
        return real_step(flow, z, h)

    def counted_shoot(*args):
        before = calls[0]
        shot = real_shoot(*args)
        if shot is not None:
            re_steps.append(calls[0] - before - (len(shot.states) - 1))  # beyond one step per full-step node
        return shot

    monkeypatch.setattr(_PlanarFlow, "step", counted_step)
    monkeypatch.setattr(optimal, "_shoot", counted_shoot)
    for sc, field in [*_PINNED_DRAWS, (_shear_scenario(0.05), shear_metric.field)]:
        optimal_trajectory(sc, field)
    assert len(re_steps) > len(_PINNED_DRAWS)
    assert np.mean(re_steps) <= 16 and max(re_steps) <= 40


def test_shot_whose_end_point_bracket_stays_open_past_the_cap_is_dropped(shear_metric, shear_start, monkeypatch):
    x0, (y1, y2) = shear_start[0], shear_start[1]
    flow, args = _PlanarFlow(shear_metric), (x0, math.atan2(y2, y1), 0.01, 1000, 0.01)
    assert optimal._shoot(shear_metric, flow, *args) is not None  # a miss, its closest approach found
    monkeypatch.setattr(optimal, "_MAX_END_STEPS", 2)
    assert optimal._shoot(shear_metric, flow, *args) is None


def test_illinois_steps_pull_a_stuck_bracket_end():
    # on a convex miss plain regula falsi keeps one end and creeps; the Illinois rule moves it
    def miss(phi):
        return math.exp(3.0 * phi) - 2.0

    root = math.log(2.0) / 3.0
    misses = [(0.0, miss(0.0)), (1.0, miss(1.0))]
    for _ in range(12):
        phi = _next_launch_angle(misses, 0.0, 1.0)
        if abs(phi - root) < 1e-14:
            break
        misses.append((phi, miss(phi)))
    assert phi == pytest.approx(root, abs=1e-14)


@settings(max_examples=25)
@given(draw=shoot_shear.strategy())
def test_shooter_hits_from_outside_or_raises_a_solver_error(draw):
    sc, field = draw
    with pytest.MonkeyPatch.context() as patch:
        fired = _log_shots(patch)
        try:
            curve = optimal_trajectory(sc, field, step=0.05)
        except (ConvergenceError, OutOfDomainError, UnreachableError):
            return
    assert len(set(fired)) == len(fired)
    ranges = np.linalg.norm(curve.positions, axis=1)
    assert ranges[-1] == pytest.approx(sc.hit_radius, rel=1e-9)
    assert np.all(ranges[:-1] > sc.hit_radius)


def _answer(sc, field):
    """``(refusal, course, summary)``: a solve's class of refusal (it sets the exit code) and None twice, or None,
    its course and its certificate's summary."""
    try:
        return None, *_certified(sc, field)
    except ParnavError as exc:
        return type(exc), None, None


_GRID_RESIDUALS = ("max_adjoint_residual", "max_el_residual")


def _assert_turned_certificate(sc, field, course, report, moved_report):
    """A course turned at roundoff keeps its certificate: the adjoint and EL maxima, differences of the momenta
    over a step, to the roundoff scale ``eps n max|p| / h`` of ``n`` nodes and step ``h``, the others to 1e-11.

    That scale was 2.5e-11 to 7.6e-11 over 300 seeded ``convex_shear`` draws under 3 random orthogonal maps each,
    and the maxima moved by at most 0.025 of it there; the pinned draw below moves the EL maximum by 0.39 of it."""
    F, dFdv, _ = NavMetric(NavMetricParams(sc.v_m), field).gradients_many(course.positions, course.velocities)
    p = np.max(np.linalg.norm(F[:, None] * dFdv, axis=1))
    roundoff = np.finfo(float).eps * course.n_nodes * p / (course.times[1] - course.times[0])
    for key, value in report.items():
        bound = roundoff if key in _GRID_RESIDUALS else 1e-11
        assert moved_report[key] == pytest.approx(value, rel=0.0, abs=bound)


@pytest.mark.parametrize("transform", ["rotate", "scale_lengths", "scale_speeds"])
@settings(max_examples=60)
@given(draw=convex_shear.strategy(), data=st.data())
def test_answer_turns_and_scales_with_the_scenario(transform, draw, data):
    # the metric is built from v_M, v_T and |y|: a rotation or reflection Q leaves t_f as it is and takes the
    # positions to Q positions, lengths times lam take them to lam t_f and lam positions and speeds times mu t_f to
    # t_f / mu, on as many nodes and with the same verdict
    sc, field = draw
    Q, lam, mu = np.eye(2), 1.0, 1.0
    factors = st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)
    if transform == "rotate":
        Q = data.draw(orthogonals(2))
        moved = rotate(sc, field, Q)
    elif transform == "scale_lengths":
        lam = data.draw(factors)
        moved = scale_lengths(sc, field, lam)
    else:
        mu = data.draw(factors)
        moved = scale_speeds(sc, field, mu)
    refusal, course, report = _answer(sc, field)
    moved_refusal, moved_course, moved_report = _answer(*moved)
    assert moved_refusal == refusal
    if refusal is None:
        assert (moved_course.n_nodes, moved_report["passed"]) == (course.n_nodes, report["passed"])
        assert moved_course.times[-1] * mu / lam == pytest.approx(course.times[-1], rel=1e-12)
        mapped = lam * course.positions @ Q.T
        assert np.max(np.abs(moved_course.positions - mapped)) <= 1e-13 * lam * np.linalg.norm(sc.r0)
    if refusal is None and transform == "rotate":
        _assert_turned_certificate(sc, field, course, report, moved_report)


def test_reflected_course_keeps_its_certificate_to_the_roundoff_scale():
    # a convex_shear draw that a reflection moves by 1.7e-11 in the EL maximum (1.5e-11 to 3.2e-11, both on 496
    # nodes), over an absolute 1e-11 but within the roundoff scale 4.4e-11
    sc = Scenario(r0=np.array([0.6939343937069004, 1.0807387851628427]), program=ConstantVelocity.from_vector(
        [0.125, 0.0]), v_m=2.0, hit_radius=0.04515491028971929, t_max=10.0)
    field = LinearField([0.125, 0.0], [[0.0, 0.0], [0.0, 6.103515625e-05]])
    course, report = _certified(sc, field)
    moved, moved_report = _certified(*rotate(sc, field, np.diag([-1.0, 1.0])))
    assert moved.n_nodes == course.n_nodes == 496
    assert abs(moved_report["max_el_residual"] - report["max_el_residual"]) > 1e-11
    _assert_turned_certificate(sc, field, course, report, moved_report)


def test_optimal_trajectory_needs_field_for_maneuvers():
    sc = Scenario(
        r0=np.array([500.0, 0.0]),
        program=PiecewiseConstant([(1.0, 50.0, 0.0)]),
        v_m=200.0,
    )
    with pytest.raises(InvalidInputError):
        optimal_trajectory(sc)


@pytest.mark.parametrize("step", [1e-7, 5e-324])
def test_step_over_the_budget_is_rejected_before_any_shot(example_scenario, monkeypatch, step):
    def no_shot(*args):
        raise AssertionError("a geodesic was shot")

    monkeypatch.setattr(optimal, "_shoot", no_shot)
    # every shot may take 3 t_hat / step steps and keeps them all: 2e8 here, and inf at 5e-324
    with pytest.raises(InvalidInputError, match="step budget of 1e\\+07"):
        optimal_trajectory(example_scenario, step=step)


# --- the float-only planar geodesic flow --------------------------------------------


def _planar_metric(v_m, delta, constant, field):
    """A 2-d field in shoot-shear's ranges, from six numbers in [-1, 1]."""
    base = shoot_shear.base * np.array(field[:2])
    f = ConstantField(base) if constant else LinearField(base, shoot_shear.gradient * np.reshape(field[2:], (2, 2)))
    return NavMetric(NavMetricParams(v_m, delta), f)


planar = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)


@settings(max_examples=200)
@given(
    v_m=st.sampled_from([2.0, 0.5]),  # these fields outrun 0.5 in places: the domain gate
    delta=st.floats(-0.6, 0.6),
    constant=st.booleans(),
    field=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    x=planar,
    y=planar,
)
def test_planar_flow_matches_spray_many(v_m, delta, constant, field, x, y):
    m = _planar_metric(v_m, delta, constant, field)
    x, y = 2.0 * np.array(x), 2.0 * np.array(y)
    assume(np.linalg.norm(y) > 1e-3)
    flow = _PlanarFlow(m)
    try:
        G = spray_many(m, x[None, :], y[None, :])[0]
    except OutOfDomainError:
        with pytest.raises(OutOfDomainError):
            flow.accel(*x, *y)
        return
    # relative to |G|, or to the size |y|^2 |dv_T/dx| / c of the closed form's terms where
    # they cancel; measured worst 3.9e-14 of |G| over 3000 uniform draws, 39 of them gated by both
    grad = 0.0 if constant else np.linalg.norm(m.field.gradient)
    scale = max(np.linalg.norm(G), float(y @ y) * grad / (v_m * math.cos(delta)))
    assert np.linalg.norm(-0.5 * np.array(flow.accel(*x, *y)) - G) <= 1e-12 * scale


@settings(max_examples=100)
@given(
    delta=st.floats(-0.6, 0.6),
    constant=st.booleans(),
    field=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    x=planar,
    y=planar,
    h=st.floats(1e-3, 0.1),
)
def test_planar_rk4_step_matches_the_numpy_stepper(delta, constant, field, x, y, h):
    m = _planar_metric(2.0, delta, constant, field)
    z = np.array((x, y)) * 2.0
    assume(np.linalg.norm(z[1]) > 1e-3)
    ref = rk4_step(geodesic_field(m), z, h).ravel()
    got = np.array(_PlanarFlow(m).step(tuple(z.ravel().tolist()), h))
    # measured worst 1.7e-16 over 3000 uniform draws
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "v_t, y, error",
    [
        ([0.5, 0.0], [1.0, 0.0], OutOfDomainError),  # 1 - 2s = 0: a pole of the spray
        ([0.75, 0.25], [1.0, 0.0], OutOfDomainError),  # 1 + 2|b|^2 - 3s = 0: the other pole
        ([2.0, 0.0], [1.0, 0.0], OutOfDomainError),  # does not close
        ([0.5, 0.0], [math.nan, 0.0], OutOfDomainError),
        ([0.5, 0.0], [0.0, 0.0], InvalidInputError),
    ],
)
def test_planar_flow_gates_its_stages(v_t, y, error):
    # at x = (-1, 0) the gradient adds nothing, so v_T(x) = v_T and b = v_T (c = 1)
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField(v_t, [[0.0, 0.3], [0.0, 0.0]]))
    with pytest.raises(error):
        _PlanarFlow(m).accel(-1.0, 0.0, *y)


@pytest.mark.parametrize("v_t", [[0.5, 0.0], [0.75, 0.25]])
def test_shot_launched_onto_a_pole_of_the_spray_is_dropped(v_t):
    # launched along x1 from (-1, 0), the first stage sits exactly on the pole
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField(v_t, [[0.0, 0.3], [0.0, 0.0]]))
    assert optimal._shoot(m, _PlanarFlow(m), np.array([-1.0, 0.0]), 0.0, 0.1, 10, 0.01) is None


def test_shot_leaving_the_domain_is_dropped():
    # the course of test_partial_curve_on_domain_exit, aimed at the origin: step 4 leaves the domain
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField([0.0, 0.0], [[0.0, 4.0], [-4.0, 0.0]]))
    assert optimal._shoot(m, _PlanarFlow(m), np.array([-1.0, 0.0]), 0.0, 0.5, 20, 0.01) is None


def test_shot_refinement_leaving_the_domain_is_dropped():
    # the march stays in the domain, but an RK4 step inside its last step does not: the shot is
    # dropped (or ends elsewhere), it does not abort the solve with OutOfDomainError
    m = NavMetric(
        NavMetricParams(2.0, 0.0),
        LinearField(
            [-0.05492369411735343, 0.0045482589579532995],
            [[-0.09619514146883779, -0.5909027195420594], [-0.66472316369768, -0.7353912370376262]],
        ),
    )
    x0 = np.array([1.9945814458448525, 0.6790224879952991])
    step = m.F(x0, -x0) / 512.0
    shot = optimal._shoot(m, _PlanarFlow(m), x0, -2.8122424259854664, step, 1536, 0.01)
    assert shot is None or isinstance(shot, optimal._Shot)

    # a flow that leaves the domain on every partial step: the end-point search itself is dropped
    flow = _PlanarFlow(m)
    full_step = flow.step

    def partial_steps_leave(z, h):
        if h != step:
            raise OutOfDomainError("partial step")
        return full_step(z, h)

    flow.step = partial_steps_leave
    assert optimal._shoot(m, flow, x0, -2.8122424259854664, step, 1536, 0.01) is None


def test_shot_whose_end_point_is_off_unit_F_is_dropped():
    # a strongly non-convex shear: the march stays on unit F, but its last step runs into a pole of the spray
    # and RK4 ends it at |y| ~ 1e18, off unit F by 1e17; that miss (2e6 to 3e6, depending on the end-point
    # rule) is noise, and it used to steer the launch-angle search off this draw's hitting shots
    m = NavMetric(
        NavMetricParams(2.0, 0.0),
        LinearField(
            [0.07707716871977444, 0.17581419485882044],
            [[-0.8717662762978042, -0.19463123780835567], [0.7566150671881096, -1.1657491447569346]],
        ),
    )
    x0 = np.array([-0.3062530737181294, -2.002726663846248])
    step = float(np.linalg.norm(x0)) / 2.0 / 512.0  # the chord does not close: t_hat = |x0| / v_M
    assert optimal._shoot(m, _PlanarFlow(m), x0, 2.0190537608416137, step, 1536, 0.00842157822548752) is None


@pytest.mark.parametrize("offset, hit", [(-0.3, True), (0.0, False)], ids=["hit", "miss"])
def test_shot_ends_at_its_first_done_point(shear_metric, offset, hit):
    # 1e-12 step before its last node the course is still outside the sphere and approaching; at
    # the node a hit is inside the sphere, and a miss has stopped approaching (closest approach)
    x0, eps = np.array([-1.6, 0.9]), 0.05
    step = shear_metric.F(x0, -x0) / 512.0
    flow = _PlanarFlow(shear_metric)
    shot = optimal._shoot(shear_metric, flow, x0, math.atan2(-x0[1], -x0[0]) + offset, step, 2000, eps)
    assert shot.hit is hit

    def range_and_rate(z):
        x1, x2, y1, y2 = z
        return math.sqrt(x1 * x1 + x2 * x2), x1 * y1 + x2 * y2

    tau = shot.times[-1] - shot.times[-2]
    assert 0.0 < tau <= step
    r_before, rate_before = range_and_rate(flow.step(shot.states[-2], tau - 1e-12 * step))
    r_end, rate_end = range_and_rate(shot.states[-1])
    assert r_before > eps and rate_before < 0.0
    if hit:
        assert r_end <= eps and rate_end < 0.0
    else:
        assert r_end > eps and rate_end >= 0.0
        assert abs(abs(shot.miss) - r_end) <= 1e-12 * r_end


class _AnyField:
    """A field object ``NavMetric`` accepts but the shooter does not know."""

    dim = 2

    def many(self, X):
        return np.zeros_like(X)


@pytest.mark.parametrize("field", [_AnyField(), LinearField([0.1, 0.0, 0.0], np.zeros((3, 3)))])
def test_shooter_takes_only_planar_constant_or_linear_fields(field):
    sc = Scenario(r0=np.array([1.6, -0.9]), program=ConstantVelocity(0.1, 0.0), v_m=2.0)
    with pytest.raises(InvalidInputError, match="2-d constant or linear field"):
        optimal_trajectory(sc, field)


@pytest.mark.parametrize("r0, field", [
    ([1.6, -0.9], ConstantField([0.1, 0.0, 0.0])),
    ([1.6, -0.9, 0.4], LinearField([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]])),
])
def test_field_of_another_dimension_than_the_scenario_is_refused(r0, field):
    sc = Scenario(r0=np.array(r0), program=ConstantVelocity.from_vector(np.zeros(len(r0))), v_m=2.0)
    with pytest.raises(InvalidInputError, match="cannot steer"):
        optimal_trajectory(sc, field)


# --- monotonicity ----------------------------------------------------------------


def test_monotonicity_sampled(shear_metric):
    report = monotonicity_check(shear_metric, n_samples=2000, seed=0, y_scale=2.0)
    assert report.n_pairs == 2000
    assert report.max_violation <= 0.0


def test_lengths_over_lead_angles(example_metric):
    curve = _chord_curve(example_metric, np.array([-1000.0, 0.0]), 6.0, 121)
    grid = np.linspace(-1.2, 1.2, 50)
    lengths = lengths_over_lead_angles(example_metric, curve, grid)
    L0 = lengths_over_lead_angles(example_metric, curve, np.array([0.0]))[0]
    assert np.all(lengths >= L0 - 1e-12)
    with pytest.raises(OutOfDomainError):
        lengths_over_lead_angles(example_metric, curve, np.array([1.5]))


# --- second-order pursuit equation ------------------------------------------------


def _pursuit_curves(scenario, metric):
    """Pursuer, target and course curves of a simulated run on every 80th node, and its lead angles."""
    res = simulate(scenario)
    sl = slice(0, res.n_nodes - 1, 80)
    t = res.times[sl]
    course = curve_from_arrays(metric, t, -res.r[sl], (res.v_m - res.v_t)[sl])
    pursuer = curve_from_arrays(metric, t, res.r_m[sl], res.v_m[sl])
    target = curve_from_arrays(metric, t, res.r_t[sl], res.v_t[sl])
    return pursuer, target, course, res.delta[sl]


def test_pursuer_ode_residual_flat(example_scenario, example_metric):
    pursuer, target, course, deltas = _pursuit_curves(example_scenario, example_metric)
    for variant in ("quadratic", "affine"):
        resid = pursuer_ode_residual(example_metric, pursuer, target, course, deltas=deltas, variant=variant)
        assert float(np.max(resid)) < 1e-6


def test_pursuer_ode_residual_grid_mismatch(example_scenario, example_metric):
    res = simulate(example_scenario)
    t = res.times[:40]
    course = curve_from_arrays(example_metric, t, -res.r[:40], (res.v_m - res.v_t)[:40])
    pursuer = curve_from_arrays(example_metric, t, res.r_m[:40], res.v_m[:40])
    target_t = res.times[10:50]
    target = curve_from_arrays(example_metric, target_t, res.r_t[10:50], res.v_t[10:50])
    with pytest.raises(InvalidInputError):
        pursuer_ode_residual(example_metric, pursuer, target, course)


def test_pursuer_ode_residual_grid_mismatch_at_a_picosecond_scale(example_scenario, example_metric):
    """Grids half a step apart do not share a grid, whatever the unit of time."""
    pursuer, target, course, _ = _pursuit_curves(example_scenario, example_metric)
    pursuer, course = (dataclasses.replace(c, times=1e-12 * c.times) for c in (pursuer, course))
    shifted = dataclasses.replace(target, times=1e-12 * (target.times + 0.5 * target.times[1]))
    assert pursuer_ode_residual(example_metric, pursuer, dataclasses.replace(shifted, times=pursuer.times), course).size
    with pytest.raises(InvalidInputError, match="one time grid"):
        pursuer_ode_residual(example_metric, pursuer, shifted, course)


@pytest.mark.parametrize("keep", [slice(0, 1), slice(0, -1)], ids=["length-1", "length-N-1"])
def test_pursuer_ode_residual_needs_one_delta_per_node(example_scenario, example_metric, keep):
    pursuer, target, course, deltas = _pursuit_curves(example_scenario, example_metric)
    # a single angle must not leave the nodes past the first unwritten
    with pytest.raises(InvalidInputError, match="one lead angle per node"):
        pursuer_ode_residual(example_metric, pursuer, target, course, deltas=deltas[keep])


def test_time_derivatives_need_three_nodes(example_metric):
    curve = _chord_curve(example_metric, np.array([-1000.0, 0.0]), 6.0, 2)
    for residual in (
        lambda: euler_lagrange_residual(example_metric, curve),
        lambda: pursuer_ode_residual(example_metric, curve, curve, curve),
        lambda: pmp_check(example_metric, curve),
    ):
        with pytest.raises(InvalidInputError, match="3 course nodes or more, got 2"):
            residual()


# --- closed form -------------------------------------------------------------------


def test_closed_form_feasibility_gates():
    with pytest.raises(InfeasibleControlError):
        nonmaneuvering_intercept(1000.0, 100.0, math.pi / 2.0, ratio=0.5)
    with pytest.raises(UnreachableError):
        nonmaneuvering_intercept(1000.0, 100.0, 0.0, ratio=0.8)
    with pytest.raises(InvalidInputError):
        nonmaneuvering_intercept(-1.0, 100.0, 0.0, ratio=2.0)
    with pytest.raises(InvalidInputError):
        nonmaneuvering_intercept(1000.0, 100.0, 0.0)


def test_closed_form_lead_angle_scales():
    sol = nonmaneuvering_intercept(1000.0, 100.0, THETA0, ratio=2.0)
    assert sol.delta == pytest.approx(DELTA0, rel=1e-15)
    assert sol.closing_speed == pytest.approx(CLOSING, rel=1e-15)
