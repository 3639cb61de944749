"""Engagement simulation: guidance law, terminations, reparametrization, 3-d."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parnav import kinematics
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
    relative_course,
    reparametrize_unit_F,
    simulate,
)
from tests.conftest import CLOSING, DELTA0, TF_SPHERE, THETA0
from tests.draws import PIECEWISE, SPACE, WAYPOINTS, orthogonals, rotate
from tests.reference import polar_rates, reconstruct_pursuer, simulate_rk4, target_path


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


@pytest.mark.parametrize("r0, first, starts", [
    ((1000.0, 0.0), (1000.009, 0.0), False),
    ((1000.0, 0.0), (1000.0, 0.0099), False),
    ((1000.0, 0.0), (1000.0000005, 0.0), True),
    ((1e-3, 2e-3), (1e-3, 2e-3 + 1e-10), False),  # inside an absolute 1e-9
    ((1e-3, 2e-3), (1e-3, 2e-3 + 1e-13), True),
])
def test_first_waypoint_is_r0_to_1e_9_of_the_range(r0, first, starts):
    w = Waypoints([first, (0.0, 0.0)], speed=5.0)
    if starts:
        assert w.planar_segments(*r0)[0].px == first[0]
    else:
        with pytest.raises(InvalidInputError, match="first waypoint"):
            w.planar_segments(*r0)


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


@pytest.mark.parametrize("t_max", [20.0, 13.0])
def test_timeout_run_ends_on_its_last_due_node(t_max):
    # the target outruns the pursuer; node times summed in order drift from k dt by a few 1e-11 at the end,
    # which must not add a node a few 1e-11 before t_max
    sc = Scenario(r0=np.array([100.0, 0.0]), program=ConstantVelocity(3.0, 0.0), v_m=2.0, dt=1e-4, t_max=t_max)
    res = simulate(sc)
    assert res.termination == "timeout"
    assert res.n_nodes == round(t_max / sc.dt) + 1
    assert res.t_f == pytest.approx(t_max, rel=1e-9)


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
    res = simulate(PIECEWISE)
    assert res.termination == "intercept"
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-12


def test_waypoint_target_intercepted():
    res = simulate(WAYPOINTS)
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
    res = simulate(SPACE)
    assert res.termination == "intercept"
    assert np.linalg.norm(res.r[-1]) == pytest.approx(0.5, rel=1e-6)
    assert float(np.max(np.abs(res.F - 1.0))) < 1e-9
    # motion stays in the engagement plane spanned by r0 and v_T
    normal = np.cross(SPACE.r0, SPACE.program.vector)
    normal /= np.linalg.norm(normal)
    offsets = res.r @ normal
    assert float(np.max(np.abs(offsets))) < 1e-9 * np.linalg.norm(SPACE.r0)


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


# --- closed-form legs -----------------------------------------------------------

ANGLES = st.floats(-math.pi, math.pi)


@st.composite
def engagements(draw, kind: str) -> Scenario:
    """A scenario of one program kind, at most ~2k nodes long at dt = 1e-3."""
    range0 = draw(st.floats(20.0, 500.0))
    v_t = draw(st.floats(50.0, 300.0))
    steps = {"dt": 1e-3, "hit_radius": 10.0 ** draw(st.floats(-4.0, 0.0)), "t_max": draw(st.floats(0.5, 2.0))}
    bearing = draw(ANGLES)
    r0 = range0 * np.array([math.cos(bearing), math.sin(bearing)])
    if kind in ("c2", "c3"):
        v_m = draw(st.floats(0.6, 3.0)) * v_t
        sc = Scenario(r0=r0, program=ConstantVelocity(v_t, draw(ANGLES)), v_m=v_m, **steps)
        return sc if kind == "c2" else rotate(sc, None, draw(orthogonals(3))[:, :2])[0]  # lifted into space
    v_m = draw(st.floats(1.2, 3.0)) * v_t
    top = min(300.0, v_m / 1.2)  # every leg stays feasible and closing
    n = draw(st.integers(2, 4))
    if kind == "pw":
        legs = [(draw(st.floats(0.1, 0.8)), v_t if k == 0 else draw(st.floats(50.0, top)), draw(ANGLES))
                for k in range(n)]
        return Scenario(r0=r0, program=PiecewiseConstant(legs), v_m=v_m, **steps)
    pts = [r0]
    for _ in range(n):
        heading = draw(ANGLES)
        pts.append(pts[-1] + draw(st.floats(20.0, 200.0)) * np.array([math.cos(heading), math.sin(heading)]))
    return Scenario(r0=r0, program=Waypoints(pts, speed=v_t), v_m=v_m, **steps)


@pytest.mark.parametrize("kind", ["c2", "c3", "pw", "wp"])
@settings(max_examples=25)
@given(data=st.data())
def test_closed_form_matches_feedback_integration(kind, data):
    """Each leg in closed form lands where RK4 of the guidance law does, on the same nodes."""
    scenario = data.draw(engagements(kind))
    res, ref = simulate(scenario), simulate_rk4(scenario)
    assert res.termination == ref.termination
    assert res.n_nodes == ref.n_nodes
    grid = res.n_nodes - (1 if res.intercept else 0)  # contact: closed form against bisection
    np.testing.assert_array_equal(res.times[:grid], ref.times[:grid])
    assert res.t_f == pytest.approx(ref.t_f, rel=1e-8)
    scale = float(np.linalg.norm(scenario.r0))
    assert float(np.max(np.abs(res.r - ref.r))) <= 1e-8 * scale


def test_step_budget_horizon_stays_bounded():
    """A horizon of _MAX_STEPS nodes with contact after 1 s lays out only the first second."""
    dt = 1e-3
    sc = Scenario.stationary(200.5, 200.0, dt=dt, t_max=kinematics._MAX_STEPS * dt)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = simulate(sc)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.termination == "intercept"
    assert res.t_f == pytest.approx(1.0, rel=1e-12)
    assert elapsed < 1.0
    assert peak < 50e6


def test_closing_legs_hold_F_at_exactly_one(example_scenario):
    """F is identically 1 under parallel navigation; the polar closing speed keeps it without rounding."""
    for sc in (example_scenario, Scenario.stationary(1000.0, 200.0), PIECEWISE, WAYPOINTS, SPACE):
        res = simulate(sc)
        assert res.termination == "intercept"
        assert np.all(res.F == 1.0)


def test_long_leg_continues_across_chunks(monkeypatch):
    """Laying a leg out a few nodes at a time changes no bit of the run."""
    legs = [(0.0123, 100.0, 0.5), (0.05, 80.0, -0.8), (10.0, 60.0, 2.0)]
    for sc in (Scenario(r0=np.array([80.0, 0.0]), program=PiecewiseConstant(legs), v_m=220.0),
               Scenario.nonmaneuvering(1000.0, 100.0, 0.0, ratio=0.8, t_max=0.1)):
        whole = simulate(sc)
        monkeypatch.setattr(kinematics, "_CHUNK", 7)
        chunked = simulate(sc)
        monkeypatch.undo()
        assert chunked.termination == whole.termination
        for name in ("times", "r", "r_m", "r_t", "v_m", "lam", "F"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))


@settings(max_examples=20)
@given(data=st.data())
def test_three_dimensional_run_is_the_lifted_planar_run(data):
    sc = data.draw(engagements("c3"))
    basis = kinematics._engagement_plane(sc.r0, sc.program.vector)[0]
    planar, _ = rotate(sc, None, basis)
    res, flat = simulate(sc), simulate(planar)
    assert res.termination == flat.termination
    np.testing.assert_array_equal(res.times, flat.times)
    for name in ("r", "r_m", "r_t", "v_m", "v_t"):
        np.testing.assert_array_equal(getattr(res, name), getattr(flat, name) @ basis)
    for name in ("lam", "theta", "delta", "F"):
        np.testing.assert_array_equal(getattr(res, name), getattr(flat, name))


@pytest.mark.parametrize("kind", ["c2", "c3", "pw", "wp"])
@settings(max_examples=15)
@given(data=st.data())
def test_rotation_leaves_the_run_unchanged(kind, data):
    sc = data.draw(engagements(kind))
    turned, _ = rotate(sc, None, data.draw(orthogonals(sc.dim)))
    res, rot = simulate(sc), simulate(turned)
    assert rot.termination == res.termination
    assert rot.n_nodes == res.n_nodes
    assert rot.t_f == pytest.approx(res.t_f, rel=1e-12)
