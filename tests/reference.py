"""Independent references for the package's fast paths.

``parnav.geodesics._PlanarFlow`` evaluates the Chern-Shen spray and
steps RK4 on Python floats.  These are the same formulas written once
more, batched and in any dimension, so tests can hold the float flow to
an independent evaluation of each.

``parnav.kinematics.simulate`` writes each constant-velocity target leg
in closed form.  :func:`simulate_rk4` is the simulator's earlier feedback
integrator, scalar RK4 of the guidance law with a sub-stepping contact
walk and bisection, so tests can hold the closed form to the law it
solves.  :func:`polar_rates`, :func:`reconstruct_pursuer` and
:func:`target_path` are the engagement identities the tests check runs
against.

``parnav.cli.write_csv`` renders the first float of each run of equal ones
down the columns of a whole table with the numpy kernel of ``parnav._floatfmt`` and assembles the file as
one byte buffer.  The row-wise tables and writer at the end of this
module are the CLI's earlier format, one ``repr(float(v))`` per cell,
joined row by row, so tests can hold the kernel and the columnar writer
to the same bytes.
"""

import bisect
import math

import numpy as np

from parnav import ConvergenceError, InvalidInputError, OutOfDomainError
from parnav.kinematics import ConstantVelocity, SimResult, _engagement_plane


def spray_many(metric, X, Y) -> np.ndarray:
    """Row-wise geodesic spray ``G^i(x, y)`` of the navigation metric, in closed form.

    The Matsumoto-form spray of Chern & Shen (*Riemann-Finsler Geometry*,
    2005) documented on ``_PlanarFlow``.  Rows that do not close on the
    target raise :class:`OutOfDomainError`, a zero velocity
    :class:`InvalidInputError`; a field without a Jacobian gives zeros.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    ny = np.sqrt(np.add.reduce(Y * Y, axis=1))
    if (ny == 0.0).any():
        raise InvalidInputError("metric is undefined at the zero velocity")
    V = metric.field.many(X)
    yv = np.einsum("ij,ij->i", Y, V)
    c = metric.params.v_m * metric.params.cos_delta
    if (c * ny - yv <= 0.0).any():
        raise OutOfDomainError("batch contains a non-closing velocity")
    J = metric.field.jacobian(X)
    if J is None:
        return np.zeros_like(Y)
    A = J / c  # db_i/dx^j
    Ay = (A @ Y[:, :, None])[:, :, 0]
    s_i0 = 0.5 * (Ay - (Y[:, None, :] @ A)[:, 0, :])
    b = V / c
    s = yv / (c * ny)
    Q = 1.0 / (1.0 - 2.0 * s)
    r_00 = np.einsum("ij,ij->i", Y, Ay)
    s_0 = np.einsum("ij,ij->i", b, s_i0)
    Psi = 1.0 / (1.0 + 2.0 * np.einsum("ij,ij->i", b, b) - 3.0 * s)
    k = (r_00 - 2.0 * Q * ny * s_0) * Psi  # Theta = (1 - 4s) Psi / 2
    return (ny * Q)[:, None] * s_i0 + k[:, None] * (b + (0.5 * (1.0 - 4.0 * s) / ny)[:, None] * Y)


def rk4_step(f, z, h: float) -> np.ndarray:
    """One classical RK4 step of ``z' = f(z)``."""
    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def geodesic_field(metric):
    """``z = (x, y) -> (y, -2 G(x, y))`` on ``(2, n)`` arrays, by :func:`spray_many`."""
    return lambda z: np.array((z[1], -2.0 * spray_many(metric, z[0][None, :], z[1][None, :])[0]))


# ---------------------------------------------------------------------------
# Engagements
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


def simulate_rk4(scenario) -> SimResult:
    """The engagement integrated node by node with :class:`_PlanarCore`."""
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
        times[-1] = scenario.t_max
    cols = [arr[:, k:k + 2] for k in (1, 3, 5, 7, 9)]
    if basis is not None:
        cols = [a @ basis for a in cols]
    return SimResult(scenario, times, *cols, arr[:, 11], arr[:, 12], arr[:, 13], arr[:, 14],
                     termination, intercept)


def polar_rates(
    target_speed: float, pursuer_speed: float, theta: float, delta: float, r: float
) -> tuple[float, float]:
    """Range and sight-line rates ``(dr/dt, dlambda/dt)`` at one instant."""
    if not (r > 0.0):
        raise InvalidInputError("range must be positive")
    rdot = target_speed * math.cos(theta) - pursuer_speed * math.cos(delta)
    lamdot = (target_speed * math.sin(theta) - pursuer_speed * math.sin(delta)) / r
    return rdot, lamdot


def reconstruct_pursuer(course, target_positions) -> np.ndarray:
    """Recover pursuer positions ``r_M = r_T + x`` from a relative course."""
    target_positions = np.asarray(target_positions, dtype=float)
    if target_positions.shape != course.positions.shape:
        raise InvalidInputError("target positions must match the course grid")
    return target_positions + course.positions


def target_path(scenario, times) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# CLI tables
# ---------------------------------------------------------------------------


def sim_rows(result) -> tuple[list, list]:
    """Header and per-node rows of a simulation table, in the CLI's column order."""
    axes = "xyz"[: result.r.shape[1]]
    header = ["s" if result.parameter_rate is not None else "t"]
    for name in ("r", "rm", "rt", "vm", "vt"):
        header += [f"{name}_{c}" for c in axes]
    header += ["lam", "theta", "delta", "F"]
    if result.parameter_rate is not None:
        header.append("dsdt")
    rows = []
    for i in range(result.n_nodes):
        row = [result.times[i]]
        for arr in (result.r, result.r_m, result.r_t, result.v_m, result.v_t):
            row.extend(arr[i])
        row += [result.lam[i], result.theta[i], result.delta[i], result.F[i]]
        if result.parameter_rate is not None:
            row.append(result.parameter_rate[i])
        rows.append(row)
    return header, rows


def curve_rows(curve) -> tuple[list, list]:
    """Header and per-node rows of an optimal-course table."""
    axes = "xyz"[: curve.dim]
    header = ["t"] + [f"x_{c}" for c in axes] + [f"v_{c}" for c in axes] + ["F"]
    rows = [[curve.times[i], *curve.positions[i], *curve.velocities[i], curve.F_values[i]]
            for i in range(curve.n_nodes)]
    return header, rows


def csv_text(header, rows) -> str:
    """The header line, then ``",".join(repr(float(v)) for v in row)`` per row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
