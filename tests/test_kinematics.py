"""Engagement simulation: guidance law, terminations, reparametrization, 3-d."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parnav import (
    ConstantVelocity,
    InfeasibleControlError,
    InvalidInputError,
    PiecewiseConstant,
    Scenario,
    Waypoints,
    collinearity_defect,
    nonmaneuvering_intercept,
    pn_lead_angle,
    polar_rates,
    reconstruct_pursuer,
    relative_course,
    reparametrize_unit_F,
    simulate,
    target_path,
)
from tests.conftest import CLOSING, DELTA0, TF_SPHERE, THETA0


# --- guidance law -----------------------------------------------------------


def test_lead_angle_frozen_value():
    assert pn_lead_angle(THETA0, 2.0) == pytest.approx(DELTA0, rel=1e-15)
    assert pn_lead_angle(0.0, 2.0) == 0.0


def test_lead_angle_infeasible():
    with pytest.raises(InfeasibleControlError):
        pn_lead_angle(math.pi / 2.0, 0.5)
    with pytest.raises(InfeasibleControlError):
        pn_lead_angle(math.pi / 2.0, 1.0)  # boundary counts as infeasible


@given(
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
    ratio=st.floats(1.01, 10.0),
)
def test_lead_angle_cancels_transverse_rate(theta, ratio):
    assume(abs(math.sin(theta)) < ratio * (1.0 - 1e-9))
    d = pn_lead_angle(theta, ratio)
    assert abs(d) < math.pi / 2.0
    assert ratio * math.sin(d) == pytest.approx(math.sin(theta), abs=1e-12)


def test_polar_rates_frozen():
    rdot, lamdot = polar_rates(100.0, 200.0, THETA0, DELTA0, 1000.0)
    assert rdot == pytest.approx(50.0 - 50.0 * math.sqrt(13.0), rel=1e-14)
    assert lamdot == pytest.approx(0.0, abs=1e-16)


# --- target programs ---------------------------------------------------------


def test_constant_velocity_from_vector():
    p = ConstantVelocity.from_vector([3.0, 4.0])
    assert p.initial_speed == pytest.approx(5.0)
    np.testing.assert_allclose(p.vector, [3.0, 4.0])
    q = ConstantVelocity.from_vector([1.0, 2.0, 2.0])
    assert q.dim == 3 and q.initial_speed == pytest.approx(3.0)


def test_piecewise_holds_last_leg():
    legs = [(1.0, 10.0, 0.0), (2.0, 5.0, math.pi / 2.0)]
    p = PiecewiseConstant(legs)
    segs = p.planar_segments(0.0, 0.0)
    # position at t = 10 extrapolates the second leg: 10 + 0, then 7s upward
    last = segs[-1]
    t = 10.0
    x = last.px + (t - last.t0) * last.vx
    y = last.py + (t - last.t0) * last.vy
    assert x == pytest.approx(10.0, abs=1e-12)
    assert y == pytest.approx(5.0 * 9.0, abs=1e-12)


def test_waypoints_must_start_at_r0():
    w = Waypoints([(0.0, 0.0), (10.0, 0.0)], speed=5.0)
    with pytest.raises(InvalidInputError):
        w.planar_segments(100.0, 0.0)


# --- scenario validation ------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        Scenario(r0=np.array([0.1, 0.0]), program=ConstantVelocity(1.0, 0.0), v_m=2.0)
    with pytest.raises(InvalidInputError):
        Scenario(r0=np.array([1.0, 2.0, 3.0]), program=ConstantVelocity(1.0, 0.0), v_m=2.0)
    with pytest.raises(InvalidInputError):
        Scenario.nonmaneuvering(100.0, 1.0, 0.0)  # neither ratio nor speed
    with pytest.raises(InvalidInputError):
        Scenario.nonmaneuvering(100.0, 1.0, 0.0, ratio=2.0, pursuer_speed=2.0)
    sc = Scenario.nonmaneuvering(100.0, 10.0, 0.3, ratio=2.0)
    assert sc.speed_ratio == pytest.approx(2.0)
    assert sc.with_(t_max=5.0).t_max == 5.0
    assert Scenario.stationary(100.0, 3.0).speed_ratio is None


@pytest.mark.parametrize("key", ["dt", "t_max", "hit_radius"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_scenario_rejects_non_finite_steps(key, value):
    # construction only: simulate with t_max = inf against this receding target would never time out
    with pytest.raises(InvalidInputError, match="positive and finite"):
        Scenario.nonmaneuvering(100.0, 10.0, 0.0, ratio=0.5, **{key: value})


# --- simulation ---------------------------------------------------------------


def test_reference_engagement(example_scenario):
    res = simulate(example_scenario)
    assert res.termination == "intercept" and res.intercept
    assert res.t_f == pytest.approx(TF_SPHERE, rel=1e-9)
    assert float(np.max(np.abs(res.delta - DELTA0))) < 1e-12
    assert float(np.max(np.abs(res.lam - res.lam[0]))) < 1e-12
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-12
    rn = np.linalg.norm(res.r, axis=1)
    assert np.all(np.diff(rn) < 0.0)
    assert rn[-1] == pytest.approx(example_scenario.hit_radius, rel=1e-9)
    np.testing.assert_allclose(res.r, res.r_t - res.r_m, atol=1e-9)
    assert np.all(np.diff(res.times) > 0.0)


def test_stationary_target_time():
    res = simulate(Scenario.stationary(1000.0, 200.0))
    assert res.termination == "intercept"
    assert res.t_f == pytest.approx((1000.0 - 0.5) / 200.0, rel=1e-12)


def test_infeasible_control_at_start():
    sc = Scenario.nonmaneuvering(1000.0, 100.0, math.pi / 2.0, ratio=0.5)
    res = simulate(sc)
    assert res.termination == "infeasible-control"
    assert not res.intercept
    assert res.n_nodes == 1
    assert math.isnan(res.delta[0]) and math.isnan(res.F[0])


def test_timeout_hits_t_max_exactly():
    sc = Scenario.nonmaneuvering(1000.0, 100.0, 0.0, ratio=0.8, t_max=1.0)
    res = simulate(sc)
    assert res.termination == "timeout"
    assert res.t_f == 1.0


@settings(max_examples=10)
@given(
    ratio=st.floats(1.1, 4.0),
    theta_deg=st.floats(0.0, 150.0),
)
def test_simulated_time_matches_closed_form(ratio, theta_deg):
    theta = math.radians(theta_deg)
    assume(abs(math.sin(theta)) < ratio * 0.98)
    sol_delta = math.asin(math.sin(theta) / ratio)
    closing = 10.0 * ratio * math.cos(sol_delta) - 10.0 * math.cos(theta)
    assume(closing > 1.0)
    sc = Scenario.nonmaneuvering(100.0, 10.0, theta, ratio=ratio, dt=1e-2, hit_radius=0.1)
    res = simulate(sc)
    assert res.termination == "intercept"
    assert res.t_f == pytest.approx((100.0 - 0.1) / closing, rel=1e-8)


def test_piecewise_target_keeps_unit_f():
    legs = [(1.5, 100.0, 0.5), (1.5, 80.0, -0.8), (10.0, 60.0, 2.0)]
    sc = Scenario(r0=np.array([800.0, 0.0]), program=PiecewiseConstant(legs), v_m=220.0)
    res = simulate(sc)
    assert res.termination == "intercept"
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-12


def test_waypoint_target_intercepted():
    pts = [(500.0, 0.0), (500.0, 300.0), (200.0, 300.0)]
    sc = Scenario(r0=np.array([500.0, 0.0]), program=Waypoints(pts, speed=60.0), v_m=150.0)
    res = simulate(sc)
    assert res.termination == "intercept"
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-12


# --- derived outputs ----------------------------------------------------------


def test_reparametrize_unit_f(example_scenario):
    res = simulate(example_scenario)
    rep = reparametrize_unit_F(res)
    assert rep.parameter_rate is not None
    np.testing.assert_allclose(rep.F, 1.0, atol=0.0)
    # F was already 1, so the new parameter equals elapsed time
    np.testing.assert_allclose(rep.times, res.times, rtol=1e-12)
    again = reparametrize_unit_F(rep)
    np.testing.assert_allclose(again.times, rep.times, rtol=1e-12)
    np.testing.assert_allclose(again.v_m, rep.v_m, rtol=1e-12)


def test_reparametrize_needs_closing_range():
    sc = Scenario.nonmaneuvering(1000.0, 100.0, 0.0, ratio=0.8, t_max=1.0)
    res = simulate(sc)  # range grows: the run times out
    with pytest.raises(InvalidInputError):
        reparametrize_unit_F(res)


def test_relative_course_and_reconstruction(example_scenario):
    res = simulate(example_scenario)
    course = relative_course(res)
    np.testing.assert_allclose(course.positions, -res.r, atol=0.0)
    np.testing.assert_allclose(course.velocities, res.v_m - res.v_t, atol=0.0)
    np.testing.assert_allclose(course.F_values, res.F, atol=0.0)
    rebuilt = reconstruct_pursuer(course, res.r_t)
    np.testing.assert_allclose(rebuilt, res.r_m, atol=1e-9)


def test_target_path_matches_recorded(example_scenario):
    res = simulate(example_scenario)
    np.testing.assert_allclose(target_path(example_scenario, res.times), res.r_t, atol=1e-9)


def test_collinearity_defect_small_on_parallel_run(example_scenario):
    res = simulate(example_scenario)
    d = collinearity_defect(res)
    assert float(np.nanmax(d)) < 1e-12


# --- 3-d engagements ----------------------------------------------------------


def test_three_dimensional_intercept():
    sc = Scenario(
        r0=np.array([800.0, 300.0, 500.0]),
        program=ConstantVelocity.from_vector([30.0, -40.0, 10.0]),
        v_m=150.0,
    )
    res = simulate(sc)
    assert res.termination == "intercept"
    assert np.linalg.norm(res.r[-1]) == pytest.approx(0.5, rel=1e-6)
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-9
    # motion stays in the engagement plane spanned by r0 and v_T
    normal = np.cross(sc.r0, sc.program.vector)
    normal /= np.linalg.norm(normal)
    offsets = res.r @ normal
    assert float(np.max(np.abs(offsets))) < 1e-9 * np.linalg.norm(sc.r0)


def test_three_dimensional_needs_constant_program():
    with pytest.raises(InvalidInputError):
        Scenario(
            r0=np.array([100.0, 0.0, 0.0]),
            program=PiecewiseConstant([(1.0, 10.0, 0.0)]),
            v_m=50.0,
        )


# --- closed form ---------------------------------------------------------------


def test_closed_form_reference_values():
    sol = nonmaneuvering_intercept(1000.0, 100.0, THETA0, ratio=2.0)
    assert sol.delta == pytest.approx(DELTA0, rel=1e-15)
    assert sol.closing_speed == pytest.approx(CLOSING, rel=1e-15)
    assert sol.t_f == pytest.approx(1000.0 / CLOSING, rel=1e-15)


def test_closed_form_tail_chase_and_stationary():
    sol = nonmaneuvering_intercept(1000.0, 100.0, 0.0, ratio=2.0)
    assert sol.delta == 0.0
    assert sol.t_f == pytest.approx(10.0, rel=1e-15)
    still = nonmaneuvering_intercept(1000.0, 0.0, pursuer_speed=200.0)
    assert still.t_f == pytest.approx(5.0, rel=1e-15)
    assert still.closing_speed == 200.0
