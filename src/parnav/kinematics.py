"""Pursuit kinematics under the parallel-navigation law.

The pursuer moves at constant speed ``v_M`` and steers so that the
component of its velocity perpendicular to the line of sight matches the
target's: ``v_M sin(delta) = v_T sin(theta)``, where ``theta`` is the
angle from the line of sight to the target velocity and ``delta`` the
pursuer's lead angle, both measured counterclockwise.  This keeps the
line of sight's orientation fixed, so the range vector shrinks along a
fixed direction and the relative course is a straight chase in the
rotating-free frame.

:func:`simulate` integrates the pursuer with fixed-step RK4 and a
contact-refinement pass that brackets the interception time to ~1e-9 of
a step.  The inner loop is deliberately scalar-float: per-stage numpy
round-trips would dominate the cost of sweeping scenario grids.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InfeasibleControlError, InvalidInputError
from .geodesics import CurveRecord

__all__ = [
    "ConstantVelocity",
    "PiecewiseConstant",
    "Waypoints",
    "Scenario",
    "SimResult",
    "pn_lead_angle",
    "polar_rates",
    "simulate",
    "reparametrize_unit_F",
    "relative_course",
    "reconstruct_pursuer",
    "target_path",
    "collinearity_defect",
]


# ---------------------------------------------------------------------------
# Target programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Segment:
    """One constant-velocity stretch of a compiled target program."""

    t0: float
    px: float
    py: float
    vx: float
    vy: float
    speed: float
    ch: float  # heading cosine (1, 0 for a stationary stretch)
    sh: float


def _make_segment(t0, px, py, vx, vy) -> _Segment:
    speed = math.hypot(vx, vy)
    if speed > 0.0:
        ch, sh = vx / speed, vy / speed
    else:
        ch, sh = 1.0, 0.0
    return _Segment(t0, px, py, vx, vy, speed, ch, sh)


class ConstantVelocity:
    """Target that holds one velocity forever."""

    def __init__(self, speed: float, heading: float):
        if speed < 0.0:
            raise InvalidInputError("target speed must be non-negative")
        self.vector = np.array([speed * math.cos(heading), speed * math.sin(heading)])
        self.dim = 2

    @classmethod
    def from_vector(cls, v) -> "ConstantVelocity":
        obj = cls.__new__(cls)
        obj.vector = np.asarray(v, dtype=float)
        if obj.vector.ndim != 1 or obj.vector.size not in (2, 3):
            raise InvalidInputError("velocity vector must be 2- or 3-dimensional")
        obj.dim = obj.vector.size
        return obj

    @property
    def initial_speed(self) -> float:
        return float(np.linalg.norm(self.vector))

    def planar_segments(self, r0x: float, r0y: float) -> list[_Segment]:
        if self.dim != 2:
            raise InvalidInputError("3-d programs must be projected before compilation")
        return [_make_segment(0.0, r0x, r0y, float(self.vector[0]), float(self.vector[1]))]


class PiecewiseConstant:
    """Target that flies a sequence of (duration, speed, heading) legs.

    The final leg is held forever regardless of its stated duration.
    """

    def __init__(self, legs: Sequence[tuple[float, float, float]]):
        if not legs:
            raise InvalidInputError("piecewise program needs at least one leg")
        for duration, speed, _ in legs:
            if not (duration > 0.0):
                raise InvalidInputError("leg durations must be positive")
            if speed < 0.0:
                raise InvalidInputError("leg speeds must be non-negative")
        self.legs = [(float(d), float(s), float(h)) for d, s, h in legs]
        self.dim = 2

    @property
    def initial_speed(self) -> float:
        return self.legs[0][1]

    def planar_segments(self, r0x: float, r0y: float) -> list[_Segment]:
        segs = []
        t, px, py = 0.0, r0x, r0y
        for duration, speed, heading in self.legs:
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
            segs.append(_make_segment(t, px, py, vx, vy))
            px += vx * duration
            py += vy * duration
            t += duration
        return segs


class Waypoints:
    """Target that traverses absolute waypoints at one speed, then holds.

    The first waypoint must coincide with the scenario's initial target
    position; the target parks at the last waypoint.
    """

    def __init__(self, points: Sequence[Sequence[float]], speed: float):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 2:
            raise InvalidInputError("waypoints must be an (n >= 2, 2) array")
        if not (speed > 0.0):
            raise InvalidInputError("waypoint speed must be positive")
        if np.any(np.linalg.norm(np.diff(self.points, axis=0), axis=1) == 0.0):
            raise InvalidInputError("consecutive waypoints must be distinct")
        self.speed = float(speed)
        self.dim = 2

    @property
    def initial_speed(self) -> float:
        return self.speed

    def planar_segments(self, r0x: float, r0y: float) -> list[_Segment]:
        if not np.allclose(self.points[0], (r0x, r0y), atol=1e-9):
            raise InvalidInputError("first waypoint must equal the scenario's initial target position")
        segs = []
        t = 0.0
        for a, b in zip(self.points[:-1], self.points[1:]):
            leg = b - a
            length = float(np.linalg.norm(leg))
            vx, vy = self.speed * leg[0] / length, self.speed * leg[1] / length
            segs.append(_make_segment(t, float(a[0]), float(a[1]), vx, vy))
            t += length / self.speed
        last = self.points[-1]
        segs.append(_make_segment(t, float(last[0]), float(last[1]), 0.0, 0.0))
        return segs


# ---------------------------------------------------------------------------
# Scenario and results
# ---------------------------------------------------------------------------

_MAX_STEPS = 1e7  # the step budget: the most steps a scenario's t_max/dt, or one geodesic shot, may take


@dataclass(frozen=True)
class Scenario:
    """An engagement: initial geometry, target program, pursuer speed.

    Positions are inertial with the pursuer starting at the origin, so
    ``r0`` is both the initial target position and the initial range
    vector.  3-d scenarios require a constant-velocity program and are
    integrated in the plane spanned by ``r0`` and the target velocity.
    """

    r0: np.ndarray
    program: object
    v_m: float
    dt: float = 1e-3
    hit_radius: float = 0.5
    t_max: float = 60.0

    def __post_init__(self):
        r0 = np.asarray(self.r0, dtype=float)
        object.__setattr__(self, "r0", r0)
        if r0.ndim != 1 or r0.size not in (2, 3):
            raise InvalidInputError("r0 must be a 2- or 3-vector")
        if not np.all(np.isfinite(r0)):
            raise InvalidInputError("r0 must be finite")
        if not (self.v_m > 0.0 and math.isfinite(self.v_m)):
            raise InvalidInputError("pursuer speed must be positive")
        if not all(0.0 < v < math.inf for v in (self.dt, self.t_max, self.hit_radius)):
            raise InvalidInputError("dt, t_max and hit_radius must be positive and finite")
        if float(np.linalg.norm(r0)) <= self.hit_radius:
            raise InvalidInputError("initial range must exceed the hit radius")
        if r0.size == 3 and getattr(self.program, "dim", 2) != 3:
            raise InvalidInputError("3-d scenarios need a 3-d constant-velocity program")
        if r0.size == 2 and getattr(self.program, "dim", 2) != 2:
            raise InvalidInputError("2-d scenarios need a planar program")

    @classmethod
    def nonmaneuvering(
        cls,
        range0: float,
        target_speed: float,
        theta0: float = 0.0,
        ratio: float | None = None,
        pursuer_speed: float | None = None,
        **kw,
    ) -> "Scenario":
        """Target at ``(range0, 0)`` flying straight at angle ``theta0`` off the sight line."""
        if not (range0 > 0.0):
            raise InvalidInputError("range0 must be positive")
        if target_speed < 0.0:
            raise InvalidInputError("target speed must be non-negative")
        v_m = _resolve_speed(ratio, pursuer_speed, target_speed)
        # lambda0 = 0 by construction, so the absolute heading equals theta0
        return cls(r0=np.array([range0, 0.0]), program=ConstantVelocity(target_speed, theta0), v_m=v_m, **kw)

    @classmethod
    def stationary(cls, range0: float, pursuer_speed: float, **kw) -> "Scenario":
        return cls.nonmaneuvering(range0, 0.0, 0.0, pursuer_speed=pursuer_speed, **kw)

    @property
    def dim(self) -> int:
        return self.r0.size

    @property
    def speed_ratio(self) -> float | None:
        """``v_M / v_T`` using the program's initial speed; None for a stationary target."""
        s = self.program.initial_speed
        return self.v_m / s if s > 0.0 else None

    def with_(self, **kw) -> "Scenario":
        return dc_replace(self, **kw)


def _resolve_speed(ratio, pursuer_speed, target_speed) -> float:
    if (ratio is None) == (pursuer_speed is None):
        raise InvalidInputError("give exactly one of ratio and pursuer_speed")
    if pursuer_speed is not None:
        return float(pursuer_speed)
    if target_speed <= 0.0:
        raise InvalidInputError("a speed ratio needs a moving target")
    return float(ratio) * float(target_speed)


@dataclass(frozen=True)
class SimResult:
    """Struct-of-arrays record of one simulated engagement.

    ``r`` is the range vector ``r_T - r_M``.  ``lam``, ``theta`` and
    ``delta`` are in-plane angles (for 3-d runs they live in the
    engagement plane).  ``F`` is the navigation-metric value of the
    relative course at each node; it is NaN on a node where the control
    was infeasible or the course left the metric's domain.
    ``parameter_rate`` is None for plain time-parametrized output and
    holds ``ds/dt`` per node after reparametrization, in which case the
    velocity columns are derivatives with respect to the new parameter.
    """

    scenario: Scenario
    times: np.ndarray
    r: np.ndarray
    r_m: np.ndarray
    r_t: np.ndarray
    v_m: np.ndarray
    v_t: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    delta: np.ndarray
    F: np.ndarray
    termination: str
    intercept: bool
    parameter_rate: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @property
    def t_f(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# Guidance law
# ---------------------------------------------------------------------------


def pn_lead_angle(theta: float, ratio: float) -> float:
    """Lead angle ``delta = asin(sin(theta) / K)`` for speed ratio ``K``.

    Raises :class:`InfeasibleControlError` when ``|sin theta| >= K``; the
    boundary case is rejected too, since ``delta = pi/2`` leaves the
    pursuer with no closing velocity.
    """
    if not (ratio > 0.0):
        raise InvalidInputError("speed ratio must be positive")
    s = math.sin(theta)
    if abs(s) >= ratio:
        raise InfeasibleControlError(
            f"|sin(theta)| = {abs(s):.6g} >= K = {ratio:.6g}: no real lead angle"
        )
    return math.asin(s / ratio)


def polar_rates(
    target_speed: float, pursuer_speed: float, theta: float, delta: float, r: float
) -> tuple[float, float]:
    """Range and sight-line rates ``(dr/dt, dlambda/dt)`` at one instant."""
    if not (r > 0.0):
        raise InvalidInputError("range must be positive")
    rdot = target_speed * math.cos(theta) - pursuer_speed * math.cos(delta)
    lamdot = (target_speed * math.sin(theta) - pursuer_speed * math.sin(delta)) / r
    return rdot, lamdot


# ---------------------------------------------------------------------------
# Simulation core
# ---------------------------------------------------------------------------


class _Infeasible(Exception):
    pass


class _AtTarget(Exception):
    pass


class _PlanarCore:
    """Scalar-float integrator state for one planar engagement."""

    def __init__(self, r0x, r0y, segments, v_m, dt, eps, t_max):
        self.segs = segments
        self.starts = [s.t0 for s in segments]
        self.v_m = v_m
        self.dt = dt
        self.eps = eps
        self.t_max = t_max
        self.r0x, self.r0y = r0x, r0y

    # -- stage evaluations (floats only; exceptions mark the rare exits) ----

    def _vel(self, t, px, py, seg) -> tuple[float, float]:
        dtseg = t - seg.t0
        gx = seg.px + seg.vx * dtseg - px
        gy = seg.py + seg.vy * dtseg - py
        rn2 = gx * gx + gy * gy
        if rn2 < 1e-60:
            raise _AtTarget
        rn = math.sqrt(rn2)
        cl, sl = gx / rn, gy / rn
        if seg.speed > 0.0:
            sth = seg.sh * cl - seg.ch * sl
            sd = seg.speed * sth / self.v_m
            if abs(sd) >= 1.0:
                raise _Infeasible
            cd = math.sqrt(1.0 - sd * sd)
        else:
            sd, cd = 0.0, 1.0
        vm = self.v_m
        return vm * (cl * cd - sl * sd), vm * (sl * cd + cl * sd)

    def _substep(self, t, px, py, h, seg) -> tuple[float, float]:
        v1x, v1y = self._vel(t, px, py, seg)
        hh = 0.5 * h
        v2x, v2y = self._vel(t + hh, px + hh * v1x, py + hh * v1y, seg)
        v3x, v3y = self._vel(t + hh, px + hh * v2x, py + hh * v2y, seg)
        v4x, v4y = self._vel(t + h, px + h * v3x, py + h * v3y, seg)
        s = h / 6.0
        return px + s * (v1x + 2.0 * (v2x + v3x) + v4x), py + s * (v1y + 2.0 * (v2y + v3y) + v4y)

    def _rates(self, t, px, py, seg):
        """Range and range-rate at (t, pursuer position); rate None if the stage aborts."""
        dtseg = t - seg.t0
        tx = seg.px + seg.vx * dtseg
        ty = seg.py + seg.vy * dtseg
        gx, gy = tx - px, ty - py
        rn = math.hypot(gx, gy)
        try:
            pvx, pvy = self._vel(t, px, py, seg)
        except (_Infeasible, _AtTarget):
            return rn, None
        rdot = (gx * (seg.vx - pvx) + gy * (seg.vy - pvy)) / rn if rn > 0.0 else 0.0
        return rn, rdot

    # -- contact refinement ---------------------------------------------

    def _walk_to_contact(self, t, px, py, span, seg):
        """Earliest contact time/position inside [t, t + span], or None.

        Advances in sub-steps sized from the current range rate so every
        RK4 evaluation stays on the approach side of the crossing (a
        stage that straddles the sight-line reversal sees reversed
        feedback and is worthless), then bisects the last clean bracket
        down to ~1e-9 of the step for the earliest point with
        ``|r| <= hit_radius``.
        """
        eps = self.eps
        tau, ax, ay = 0.0, px, py  # clean-side anchor
        try:
            for _ in range(200):
                rn, rdot = self._rates(t + tau, ax, ay, seg)
                if rn <= eps:
                    return tau, ax, ay  # anchor already inside (first sub-step overshoot)
                if rdot is None or rdot >= 0.0:
                    return None
                # aim at range eps/2 assuming the current rate, capped at the step end
                sub = min((rn - 0.5 * eps) / (-rdot), span - tau)
                if sub <= 0.0:
                    return None
                bx, by = self._substep(t + tau, ax, ay, sub, seg)
                # |r| at the sub-step end decides whether it crossed into the sphere
                rn2, _ = self._rates(t + tau + sub, bx, by, seg)
                if rn2 <= eps:
                    return self._bisect_contact_pair(t, ax, ay, tau, tau + sub, seg)
                if tau + sub >= span:
                    return None  # reached the step end still outside the sphere
                tau, ax, ay = tau + sub, bx, by
        except (_Infeasible, _AtTarget):
            return None
        return None

    def _bisect_contact_pair(self, t, ax, ay, lo, hi, seg):
        """Bisect [lo, hi] (anchor at lo outside, hi inside) for the earliest contact."""
        eps = self.eps
        tol = 1e-9 * self.dt
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            mx, my = self._substep(t + lo, ax, ay, mid - lo, seg)
            rn, _ = self._rates(t + mid, mx, my, seg)
            if rn <= eps:
                hi = mid
            else:
                lo, ax, ay = mid, mx, my
        fx, fy = self._substep(t + lo, ax, ay, hi - lo, seg)
        return hi, fx, fy

    # -- main loop --------------------------------------------------------

    def run(self):
        segs, starts = self.segs, self.starts
        v_m, dt, eps, t_max = self.v_m, self.dt, self.eps, self.t_max
        t, mx, my = 0.0, 0.0, 0.0
        idx = 0
        rows = []  # (t, gx, gy, mx, my, tx, ty, pvx, pvy, vtx, vty, lam, th, de, F)
        termination = None
        intercept = False
        t_edge = t_max - 1e-12 * max(1.0, t_max)

        while True:
            while idx + 1 < len(segs) and t >= starts[idx + 1] - 1e-9 * max(1.0, abs(starts[idx + 1])):
                idx += 1
            seg = segs[idx]
            dtseg = t - seg.t0
            tx = seg.px + seg.vx * dtseg
            ty = seg.py + seg.vy * dtseg
            gx, gy = tx - mx, ty - my
            rn = math.hypot(gx, gy)

            if rn < 1e-30:  # exactly on top of the target: angles undefined
                rows.append((t, gx, gy, mx, my, tx, ty,
                             math.nan, math.nan, seg.vx, seg.vy, math.nan, math.nan, math.nan, math.nan))
                termination, intercept = "intercept", True
                break

            lam = math.atan2(gy, gx)
            cl, sl = gx / rn, gy / rn
            if seg.speed > 0.0:
                sth = seg.sh * cl - seg.ch * sl
                cth = seg.ch * cl + seg.sh * sl
                th = math.atan2(sth, cth)
                sd = seg.speed * sth / v_m
            else:
                th, sd = 0.0, 0.0

            feasible = abs(sd) < 1.0
            if feasible:
                cd = math.sqrt(1.0 - sd * sd)
                de = math.asin(sd)
                pvx = v_m * (cl * cd - sl * sd)
                pvy = v_m * (sl * cd + cl * sd)
                vcx, vcy = pvx - seg.vx, pvy - seg.vy
                nvc = math.hypot(vcx, vcy)
                den = v_m * cd * nvc - (vcx * seg.vx + vcy * seg.vy)
                F = (nvc * nvc / den) if den > 0.0 else math.nan
                rows.append((t, gx, gy, mx, my, tx, ty, pvx, pvy, seg.vx, seg.vy, lam, th, de, F))
            else:
                rows.append((t, gx, gy, mx, my, tx, ty,
                             math.nan, math.nan, seg.vx, seg.vy, lam, th, math.nan, math.nan))

            if rn <= eps:
                termination, intercept = "intercept", True
                break
            if not feasible:
                termination = "infeasible-control"
                break
            if den <= 0.0:
                termination = "domain-exit"
                break
            if t >= t_edge:
                termination = "timeout"
                break

            span = dt
            if idx + 1 < len(segs):
                span = min(span, starts[idx + 1] - t)
            span = min(span, t_max - t)

            rdot = (gx * (seg.vx - pvx) + gy * (seg.vy - pvy)) / rn
            if rdot < 0.0 and rn + 1.25 * span * rdot <= eps:
                hit = self._walk_to_contact(t, mx, my, span, seg)
                if hit is not None:
                    tau, mx, my = hit
                    t = t + tau
                    continue  # next node lands inside the hit sphere

            try:
                mx, my = self._substep(t, mx, my, span, seg)
            except _Infeasible:
                termination = "infeasible-control"
                break
            except _AtTarget:
                hit = self._walk_to_contact(t, mx, my, span, seg)
                if hit is None:
                    raise ConvergenceError("stage evaluation collapsed onto the target without contact")
                tau, mx, my = hit
                t = t + tau
                continue
            t = t + span

        return rows, termination, intercept


def _engagement_basis(r0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal (2, 3) basis of the plane spanned by r0 and v."""
    e1 = r0 / np.linalg.norm(r0)
    h = v - (v @ e1) * e1
    nh = np.linalg.norm(h)
    if nh > 1e-12 * max(1.0, float(np.linalg.norm(v))):
        e2 = h / nh
    else:  # collinear geometry: any unit vector orthogonal to e1 will do
        probe = np.eye(3)[int(np.argmin(np.abs(e1)))]
        e2 = probe - (probe @ e1) * e1
        e2 /= np.linalg.norm(e2)
    return np.stack([e1, e2])


def _engagement_plane(r0: np.ndarray, v: np.ndarray):
    """``(basis, basis @ r0, basis @ v)``: a 3-d ``r0`` and velocity in their own plane.

    ``basis`` is :func:`_engagement_basis`; plane arrays lift back to 3-d
    as ``arr @ basis``.
    """
    basis = _engagement_basis(r0, v)
    return basis, basis @ r0, basis @ v


def simulate(scenario: Scenario) -> SimResult:
    """Integrate the engagement until contact, infeasibility, or timeout.

    Interception is declared as soon as the range enters the hit sphere
    ``|r| <= hit_radius``; if that happens inside a step, the crossing
    time is refined so the final node sits on the sphere to ~1e-9 of a
    step.  On timeout the final node lands exactly at ``t_max``.
    """
    basis, r0, program = None, scenario.r0, scenario.program
    if scenario.dim == 3:
        basis, r0, v = _engagement_plane(r0, program.vector)
        program = ConstantVelocity.from_vector(v)
    r0x, r0y = float(r0[0]), float(r0[1])
    segs = program.planar_segments(r0x, r0y)

    core = _PlanarCore(r0x, r0y, segs, scenario.v_m, scenario.dt, scenario.hit_radius, scenario.t_max)
    rows, termination, intercept = core.run()

    arr = np.asarray(rows, dtype=float)
    times = arr[:, 0]
    if termination == "timeout":
        times[-1] = scenario.t_max  # snap the ulp-level drift of accumulated steps
    g = arr[:, 1:3]
    m = arr[:, 3:5]
    tpos = arr[:, 5:7]
    pv = arr[:, 7:9]
    tv = arr[:, 9:11]

    if basis is not None:
        g, m, tpos, pv, tv = (a @ basis for a in (g, m, tpos, pv, tv))

    return SimResult(
        scenario=scenario,
        times=times,
        r=g,
        r_m=m,
        r_t=tpos,
        v_m=pv,
        v_t=tv,
        lam=arr[:, 11],
        theta=arr[:, 12],
        delta=arr[:, 13],
        F=arr[:, 14],
        termination=termination,
        intercept=intercept,
    )


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def reparametrize_unit_F(result: SimResult) -> SimResult:
    """Re-parametrize a closing run by metric length ``s``, making F = 1.

    The node positions are untouched; the new parameter is
    ``s(t) = integral_0^t F dt'`` (trapezoidal) and all velocity columns
    are divided by the local rate ``ds/dt = F``, so the course velocity
    has unit metric length at every node.  Idempotent: a second
    application is the identity.  Requires a strictly closing run with
    finite positive F everywhere.
    """
    rn = np.linalg.norm(result.r, axis=1)
    if not np.all(np.diff(rn) < 0.0):
        raise InvalidInputError("reparametrization needs a strictly closing trajectory")
    F = result.F
    if not np.all(np.isfinite(F)) or np.any(F <= 0.0):
        raise InvalidInputError("reparametrization needs finite positive metric values")

    dt = np.diff(result.times)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (F[1:] + F[:-1]) * dt)])
    rate = F.copy()
    if result.parameter_rate is not None:
        rate = rate * result.parameter_rate

    return SimResult(
        scenario=result.scenario,
        times=s,
        r=result.r,
        r_m=result.r_m,
        r_t=result.r_t,
        v_m=result.v_m / F[:, None],
        v_t=result.v_t / F[:, None],
        lam=result.lam,
        theta=result.theta,
        delta=result.delta,
        F=F / F,
        termination=result.termination,
        intercept=result.intercept,
        parameter_rate=rate,
    )


def relative_course(result: SimResult) -> CurveRecord:
    """The pursuer-relative course ``x = r_M - r_T`` as a curve record.

    The course runs from ``-r0`` toward the origin; its velocity is
    ``v_M - v_T`` in whatever parametrization the result carries, and the
    metric values are the recorded per-node F.
    """
    return CurveRecord(
        times=result.times,
        positions=-result.r,
        velocities=result.v_m - result.v_t,
        F_values=result.F,
    )


def reconstruct_pursuer(course: CurveRecord, target_positions) -> np.ndarray:
    """Recover pursuer positions ``r_M = r_T + x`` from a relative course."""
    target_positions = np.asarray(target_positions, dtype=float)
    if target_positions.shape != course.positions.shape:
        raise InvalidInputError("target positions must match the course grid")
    return target_positions + course.positions


def target_path(scenario: Scenario, times) -> np.ndarray:
    """Target positions at the given times under the scenario's program."""
    times = np.asarray(times, dtype=float)
    if scenario.dim == 3:
        return scenario.r0[None, :] + times[:, None] * scenario.program.vector[None, :]
    segs = scenario.program.planar_segments(float(scenario.r0[0]), float(scenario.r0[1]))
    starts = [s.t0 for s in segs]
    out = np.empty((times.size, 2))
    for i, t in enumerate(times):
        k = bisect.bisect_right(starts, t + 1e-12) - 1
        seg = segs[max(k, 0)]
        out[i] = (seg.px + seg.vx * (t - seg.t0), seg.py + seg.vy * (t - seg.t0))
    return out


def collinearity_defect(result: SimResult) -> np.ndarray:
    """Per-node ``|r x rdot| / (|r| |rdot|)``: zero iff the sight line is frozen.

    Under exact parallel navigation the range vector only scales, so the
    cross product of ``r`` with its rate vanishes identically; the defect
    measures how far a recorded run deviates.  Nodes with a vanishing
    rate (or range) give NaN.
    """
    v = result.v_t - result.v_m
    if result.r.shape[1] == 2:
        cross = np.abs(result.r[:, 0] * v[:, 1] - result.r[:, 1] * v[:, 0])
    else:
        cross = np.linalg.norm(np.cross(result.r, v), axis=1)
    den = np.linalg.norm(result.r, axis=1) * np.linalg.norm(v, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0.0, cross / den, np.nan)
