"""Pursuit kinematics under the parallel-navigation law.

The pursuer moves at constant speed ``v_M`` and steers so that the
component of its velocity perpendicular to the line of sight matches the
target's: ``v_M sin(delta) = v_T sin(theta)``, where ``theta`` is the
angle from the line of sight to the target velocity and ``delta`` the
pursuer's lead angle, both measured counterclockwise.  This keeps the
line of sight's orientation fixed, so the range vector shrinks along a
fixed direction and the relative course is a straight chase in the
rotating-free frame.

:func:`simulate` therefore needs no integrator.  On each
constant-velocity target leg the sight-line direction, theta, delta, the
pursuer velocity, F and the closing speed are constants, evaluated once
at the leg's first node; the range falls linearly, so every node of the
leg and the contact time inside the last step follow in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleControlError, InvalidInputError
from .geodesics import CurveRecord

__all__ = [
    "ConstantVelocity",
    "PiecewiseConstant",
    "Waypoints",
    "Scenario",
    "SimResult",
    "pn_lead_angle",
    "simulate",
    "reparametrize_unit_F",
    "relative_course",
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
        # relative to the start range, so the check means the same in any unit of length
        if not math.hypot(self.points[0, 0] - r0x, self.points[0, 1] - r0y) <= 1e-9 * math.hypot(r0x, r0y):
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
        if math.hypot(*r0) <= self.hit_radius:  # no overflow on the way to a finite range
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
    """One simulated engagement: its node table and how it ended.

    ``table`` holds one row per node in the CLI's column order: the time
    ``t``, then the range vector ``r = r_T - r_M``, the pursuer and target
    positions ``r_m``, ``r_t`` and velocities ``v_m``, ``v_t`` (each
    ``dim`` columns), then ``lam``, ``theta``, ``delta`` and ``F``.  The
    named arrays are views of its columns.  ``lam``, ``theta`` and
    ``delta`` are in-plane angles (for 3-d runs they live in the
    engagement plane).  ``F`` is the navigation-metric value of the
    relative course at each node; it is NaN on a node where the control
    was infeasible or the course left the metric's domain.  After
    reparametrization the first column is the metric length ``s``, the
    velocity columns are derivatives with respect to it, and a last
    column holds ``ds/dt`` (``parameter_rate``, None before).
    """

    scenario: Scenario
    table: np.ndarray
    termination: str
    intercept: bool

    def _vector(self, k: int) -> np.ndarray:
        d = self.scenario.dim
        return self.table[:, 1 + k * d : 1 + (k + 1) * d]

    def _scalar(self, k: int) -> np.ndarray:
        return self.table[:, 1 + 5 * self.scenario.dim + k]

    times = property(lambda self: self.table[:, 0])
    r = property(lambda self: self._vector(0))
    r_m = property(lambda self: self._vector(1))
    r_t = property(lambda self: self._vector(2))
    v_m = property(lambda self: self._vector(3))
    v_t = property(lambda self: self._vector(4))
    lam = property(lambda self: self._scalar(0))
    theta = property(lambda self: self._scalar(1))
    delta = property(lambda self: self._scalar(2))
    F = property(lambda self: self._scalar(3))

    @property
    def parameter_rate(self) -> np.ndarray | None:
        return self._scalar(4) if self.table.shape[1] > 5 + 5 * self.scenario.dim else None

    @property
    def n_nodes(self) -> int:
        return self.table.shape[0]

    @property
    def t_f(self) -> float:
        return float(self.table[-1, 0])


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


# ---------------------------------------------------------------------------
# Simulation core
# ---------------------------------------------------------------------------

class _Leg(NamedTuple):
    """A constant-velocity target leg from its first node on.

    The sight line holds its direction ``(ux, uy)``, so the range falls
    linearly from ``rho0`` at ``t0`` at the closing speed, and every
    other per-node quantity stays at its value in ``consts``.
    """

    seg: _Segment
    t0: float
    rho0: float
    ux: float
    uy: float
    closing: float  # -d|r|/dt
    consts: tuple  # (pvx, pvy, vtx, vty, lam, theta, delta, F)

    def range_at(self, times):
        return self.rho0 - self.closing * (times - self.t0)

    def fill(self, out, times, rho) -> None:
        """Rows ``(t, r, r_M, r_T, v_M, v_T, lam, theta, delta, F)`` into ``out``, with ``r = rho * u``."""
        seg = self.seg
        out[:, 0] = times
        out[:, 1] = self.ux * rho
        out[:, 2] = self.uy * rho
        out[:, 5] = seg.px + seg.vx * (times - seg.t0)
        out[:, 6] = seg.py + seg.vy * (times - seg.t0)
        np.subtract(out[:, 5:7], out[:, 1:3], out=out[:, 3:5])
        out[:, 7:] = self.consts


def _start_leg(seg, t, mx, my, v_m, eps):
    """The guidance law at a leg's first node: ``(leg, termination)``.

    ``termination`` is None unless the run ends on this node because the
    control is infeasible or the course leaves the metric's domain; the
    intercept rule comes first.
    """
    dtseg = t - seg.t0
    tx = seg.px + seg.vx * dtseg
    ty = seg.py + seg.vy * dtseg
    gx, gy = tx - mx, ty - my
    rn = math.hypot(gx, gy)
    lam = math.atan2(gy, gx)
    cl, sl = gx / rn, gy / rn
    if seg.speed > 0.0:
        sth = seg.sh * cl - seg.ch * sl
        cth = seg.ch * cl + seg.sh * sl
        th = math.atan2(sth, cth)
        sd = seg.speed * sth / v_m
    else:
        th, cth, sd = 0.0, 1.0, 0.0
    if abs(sd) >= 1.0:
        consts = (math.nan, math.nan, seg.vx, seg.vy, lam, th, math.nan, math.nan)
        return _Leg(seg, t, rn, cl, sl, math.nan, consts), "intercept" if rn <= eps else "infeasible-control"
    cd = math.sqrt(1.0 - sd * sd)
    pvx = v_m * (cl * cd - sl * sd)
    pvy = v_m * (sl * cd + cl * sd)
    closing = v_m * cd - seg.speed * cth
    if closing > 0.0:  # the relative velocity is closing * u, so F = 1 exactly
        den, F = closing, 1.0
    else:  # F has no unit: speeds over the power of two 2^e above them, exact, so that no square over- or underflows
        e = math.frexp(max(v_m, seg.speed))[1]
        vm, vx, vy, vcx, vcy = (math.ldexp(a, -e) for a in (v_m, seg.vx, seg.vy, pvx - seg.vx, pvy - seg.vy))
        nvc = math.hypot(vcx, vcy)
        den = vm * cd * nvc - (vcx * vx + vcy * vy)
        F = (nvc * nvc / den) if den > 0.0 else math.nan
    leg = _Leg(seg, t, rn, cl, sl, closing, (pvx, pvy, seg.vx, seg.vy, lam, th, math.asin(sd), F))
    return leg, "domain-exit" if den <= 0.0 and rn > eps else None


def _planar_run(segs, v_m, dt, eps, t_max):
    """Node table and termination of a planar engagement, leg by leg in closed form.

    Nodes sit ``dt`` apart, summed in order from the previous node, with a
    short step onto each leg start and onto ``t_max``; a node within 1e-9
    of a leg start, relative to it, switches to that leg, and one within
    1e-9 of ``t_max``, relative to it, ends the run.  Contact inside a
    step ends the run on a node at the contact time, on the hit sphere.
    The stretches of nodes are laid out as times and ranges, then written
    into one (n, 15) table in :meth:`_Leg.fill`'s column order.
    """
    # A node time is a sum of dt steps, each rounded to half an ulp of the running time, so its drift is
    # relative to the time: 1e-9 of it covers the rounding of the step budget's 1e7 steps, both at a leg
    # start and at t_max (dt 1e-4 drifts by 3.3e-11 over 20).  A node that falls short of t_edge is not lost
    # either: the run takes one short step onto t_max after it.
    switch = [s.t0 - 1e-9 * s.t0 for s in segs[1:]] + [math.inf]
    t_edge = t_max - 1e-9 * t_max
    t, mx, my = 0.0, 0.0, 0.0
    idx, leg = 0, None
    stretches = []  # (leg, times, ranges)
    # Each pass ends its leg (stepping short onto the next one's start), steps short onto t_max or ends the run,
    # on horizon/dt + 2 nodes at most: t_max/dt bounds them, capped at _MAX_STEPS by the CLI, not by simulate.
    while True:
        while t >= switch[idx]:  # len(segs) - 1 times in a whole run at most: idx only grows, and the last switch is inf
            idx, leg = idx + 1, None
        if leg is None:
            leg, termination = _start_leg(segs[idx], t, mx, my, v_m, eps)
            if termination is not None:
                stretches.append((leg, np.array([t]), leg.rho0))
                break
        s_next = segs[idx + 1].t0 if idx + 1 < len(segs) else math.inf
        horizon = min(s_next, t_max) - t
        if leg.closing > 0.0:
            horizon = min(horizon, (leg.range_at(t) - eps) / leg.closing)
        n = int(max(horizon / dt, 0.0)) + 2
        times = np.add.accumulate(np.concatenate(([t], np.full(n, dt))))
        rho = leg.range_at(times)
        span = np.minimum(np.minimum(dt, s_next - times), t_max - times)
        tau = (rho - eps) / leg.closing if leg.closing > 0.0 else np.full_like(rho, math.inf)
        event = (times >= switch[idx]) | (rho <= eps) | (times >= t_edge) | (tau <= span) | (span < dt)
        j = int(np.flatnonzero(event)[0])
        if times[j] >= switch[idx]:
            stretches.append((leg, times[:j], rho[:j]))
            t = float(times[j])
        else:
            stretches.append((leg, times[: j + 1], rho[: j + 1]))
            if rho[j] <= eps:
                termination = "intercept"
                break
            if times[j] >= t_edge:
                termination = "timeout"
                break
            if tau[j] <= span[j]:
                stretches.append((leg, times[j : j + 1] + tau[j], eps))
                termination = "intercept"
                break
            t = float(times[j] + span[j])
        node = np.empty((1, 15))
        leg.fill(node, np.array([t]), leg.range_at(t))
        mx, my = node[0, 3:5].tolist()
    table = np.empty((sum(times.size for _, times, _ in stretches), 15))
    a = 0
    for leg, times, rho in stretches:
        leg.fill(table[a : a + times.size], times, rho)
        a += times.size
    return table, termination


def _engagement_plane(r0: np.ndarray, v: np.ndarray):
    """``(basis, basis @ r0, basis @ v)``: a 3-d ``r0`` and velocity in their own plane.

    ``basis`` is an orthonormal (2, 3) basis of the plane spanned by ``r0`` and
    ``v``, led by ``r0 / |r0|``; plane arrays lift back to 3-d as ``arr @ basis``.
    Raises :class:`InvalidInputError` when ``|r0|`` overflows or underflows,
    so that the basis or the in-plane start ``(|r0|, 0)`` is lost.
    """
    with np.errstate(all="ignore"):  # such magnitudes are refused below
        e1 = r0 / np.linalg.norm(r0)
        h = v - (v @ e1) * e1
        nh = np.linalg.norm(h)
        if nh > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            e2 = h / nh
        else:  # collinear geometry: any unit vector orthogonal to e1 will do
            probe = np.eye(3)[int(np.argmin(np.abs(e1)))]
            e2 = probe - (probe @ e1) * e1
            e2 /= np.linalg.norm(e2)
        basis = np.stack([e1, e2])
        start = basis @ r0
    if not (np.all(np.isfinite(basis)) and 0.0 < start[0] < math.inf):
        raise InvalidInputError(f"|r0| of {r0.tolist()} overflows or underflows in the engagement plane: "
                                "rescale lengths or speeds")
    return basis, start, basis @ v


def simulate(scenario: Scenario) -> SimResult:
    """Run the engagement until contact, infeasibility, domain exit or timeout.

    Parallel navigation freezes the sight line, so each constant-velocity
    target leg is a straight chase in closed form: the guidance law is
    evaluated once at the leg's first node and the range falls linearly
    at the closing speed.  Nodes are ``dt`` apart.  Interception is
    declared as soon as the range enters the hit sphere
    ``|r| <= hit_radius``; contact inside a step is solved in closed form
    and the final node sits on the sphere.  On timeout the final node
    lands on ``t_max``, to within 1e-9 of it.
    """
    basis, r0, program = None, scenario.r0, scenario.program
    if scenario.dim == 3:
        basis, r0, v = _engagement_plane(r0, program.vector)
        program = ConstantVelocity.from_vector(v)
    r0x, r0y = float(r0[0]), float(r0[1])
    segs = program.planar_segments(r0x, r0y)

    table, termination = _planar_run(segs, scenario.v_m, scenario.dt, scenario.hit_radius, scenario.t_max)
    if termination == "timeout":
        table[-1, 0] = scenario.t_max  # snap the ulp-level drift of accumulated steps
    if basis is not None:  # lift the five planar vectors into the 3-d table's columns
        lifted = np.empty((table.shape[0], 20))
        lifted[:, 0] = table[:, 0]
        for k in range(5):
            np.matmul(table[:, 1 + 2 * k : 3 + 2 * k], basis, out=lifted[:, 1 + 3 * k : 4 + 3 * k])
        lifted[:, 16:] = table[:, 11:]
        table = lifted
    return SimResult(scenario, table, termination, termination == "intercept")


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
    if not np.all(np.diff(_norm(list(result.r.T))) < 0.0):
        raise InvalidInputError("reparametrization needs a strictly closing trajectory")
    F = result.F
    if not np.all(np.isfinite(F)) or np.any(F <= 0.0):
        raise InvalidInputError("reparametrization needs finite positive metric values")

    d = result.scenario.dim
    table = np.empty((result.n_nodes, 6 + 5 * d))
    table[0, 0] = 0.0
    np.cumsum(0.5 * (F[1:] + F[:-1]) * np.diff(result.times), out=table[1:, 0])
    table[:, 1 : 4 + 5 * d] = result.table[:, 1 : 4 + 5 * d]
    table[:, 1 + 3 * d : 1 + 5 * d] /= F[:, None]  # v_m and v_t
    np.divide(F, F, out=table[:, 4 + 5 * d])
    if result.parameter_rate is None:
        table[:, 5 + 5 * d] = F
    else:
        np.multiply(F, result.parameter_rate, out=table[:, 5 + 5 * d])
    return dc_replace(result, table=table)


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


def collinearity_defect(result: SimResult) -> np.ndarray:
    """Per-node ``|r x rdot| / (|r| |rdot|)``: zero iff the sight line is frozen.

    Under exact parallel navigation the range vector only scales, so the
    cross product of ``r`` with its rate vanishes identically; the defect
    measures how far a recorded run deviates.  Nodes with a vanishing
    rate (or range) give NaN.  The defect has no unit, so a node whose
    products overflow or underflow is taken at powers of two of ``r`` and
    ``rdot`` (:func:`_scaled_rows`).
    """
    r = list(result.r.T)
    v = [vt - vm for vt, vm in zip(result.v_t.T, result.v_m.T)]
    defect, den = _sight_line_defect(r, v)
    odd = _abnormal(den)
    if odd is not None:
        defect[odd] = _sight_line_defect(*(_scaled_rows([c[odd] for c in a])[0] for a in (r, v)))[0]
    return defect


def _sight_line_defect(r, v):
    """``(|r x v| / (|r| |v|), |r| |v|)`` row-wise from the component columns, NaN where a norm is 0."""
    with np.errstate(all="ignore"):
        if len(r) == 2:
            cross = np.abs(r[0] * v[1] - r[1] * v[0])
        else:  # np.cross's products and differences, in its order
            cross = np.sqrt(sum(c * c for c in [r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2],
                                                r[0] * v[1] - r[1] * v[0]]))
        den = _norm(r) * _norm(v)
        return np.where(den > 0.0, cross / den, np.nan), den


_TINY = np.finfo(float).tiny  # the smallest normal float


def _abnormal(x: np.ndarray) -> np.ndarray | None:
    """The mask of the entries of ``x`` that are not normal floats (0, subnormal, infinite or NaN), or None."""
    return None if x.min() >= _TINY and x.max() < np.inf else ~((x >= _TINY) & (x < np.inf))


def _scaled_rows(components: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """``(columns, e)``: each row of the component columns over ``2^e``, the power of two that takes its largest
    |component| into [0.5, 1).  That is exact, and no square of such a row overflows or underflows."""
    e = np.frexp(np.max(np.abs(components), axis=0))[1]
    return [np.ldexp(c, -e) for c in components], e


def _norm(components: list[np.ndarray]) -> np.ndarray:
    """Row norms from the component columns, the squares summed in order as ``np.linalg.norm(axis=1)`` sums them;
    a row whose squares overflow or underflow is summed at its power of two (:func:`_scaled_rows`) and scaled back."""
    with np.errstate(over="ignore", under="ignore"):
        total = components[0] * components[0]
        for c in components[1:]:
            total += c * c
    norm, odd = np.sqrt(total), _abnormal(total)
    if odd is not None:
        scaled, e = _scaled_rows([c[odd] for c in components])
        norm[odd] = np.ldexp(np.sqrt(sum(c * c for c in scaled)), e)
    return norm
