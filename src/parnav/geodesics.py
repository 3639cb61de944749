"""The one planar geodesic flow of the navigation metric.

Every geodesic the package builds is planar: :class:`_PlanarFlow` holds a
2-d constant or linear field as floats and gives the geodesic
acceleration ``-2 G(x, y)``, Chern-Shen's closed-form spray, and one
classical RK4 step on states ``(x1, x2, y1, y2)``.  The shooter in
:mod:`parnav.optimal` and :func:`integrate_geodesic` march the same
step; :func:`spray_coefficients` is ``-accel / 2`` and the Berwald
connection ``G^i_jk`` its y-Hessian, in closed form from the same
algebra.  Any other field raises :class:`InvalidInputError`.  The
Euler-Lagrange residual's partials of ``F`` are closed forms of the
metric (``gradients_many``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfDomainError, PartialCurveError
from .metric import ConstantField, LinearField

__all__ = [
    "CurveRecord",
    "curve_from_arrays",
    "spray_coefficients",
    "berwald_coefficients",
    "integrate_geodesic",
    "action_integral",
    "euler_lagrange_residual",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class CurveRecord:
    """A sampled curve ``t -> x(t)`` with velocities and metric values.

    ``times`` must be strictly increasing; ``F_values`` holds
    ``F(x_i, v_i)`` at each node (NaN allowed only if the caller put it
    there deliberately).
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    F_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        f = np.asarray(self.F_values, dtype=float)
        if t.ndim != 1 or p.ndim != 2 or v.shape != p.shape or f.shape != t.shape:
            raise InvalidInputError("curve arrays have inconsistent shapes")
        if p.shape[0] != t.size or t.size < 2:
            raise InvalidInputError("a curve needs at least two nodes")
        if not np.all(np.diff(t) > 0.0):
            raise InvalidInputError("curve times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise InvalidInputError("curve arrays contain non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "F_values", f)

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def curve_from_arrays(metric, times, positions, velocities) -> CurveRecord:
    """Build a :class:`CurveRecord`, evaluating F at every node in one batch."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    F_values = metric.F_many(positions, velocities)
    return CurveRecord(np.asarray(times, dtype=float), positions, velocities, F_values)


def _jet_mul(f, g) -> np.ndarray:
    """The product rule on jets in y: arrays ``[value, gradient (2), Hessian (4, row-major)]``."""
    o = f[1:3, None] * g[1:3]
    h = f[0] * g + g[0] * f
    h[0], h[3:] = f[0] * g[0], h[3:] + (o + o.T).ravel()
    return h


def _jet_inv(f) -> np.ndarray:
    """The jet of ``1 / f``."""
    r = 1.0 / f[0]
    h = -r * r * f
    h[0], h[3:] = r, h[3:] + 2.0 * r * r * r * (f[1:3, None] * f[1:3]).ravel()
    return h


class _PlanarFlow:
    """The geodesic flow of a planar navigation metric, on Python floats.

    ``F`` is ``1/c`` (``c = v_M cos delta``) times the Matsumoto metric
    ``alpha phi(beta/alpha)``, ``phi(s) = 1/(1 - s)``, with ``alpha = |y|``,
    ``beta = <b, y>`` and ``b = v_T(x)/c``; a constant factor leaves the
    spray alone.  For Euclidean alpha, Chern & Shen (*Riemann-Finsler
    Geometry*, 2005) give, with ``s = beta/alpha``,

        G^i = alpha Q s^i_0 + (r_00 - 2 Q alpha s_0) (Psi b^i + Theta y^i / alpha),
        Q = 1/(1 - 2s),  Psi = 1/(1 + 2|b|^2 - 3s),  Theta = (1 - 4s)/(2(1 + 2|b|^2 - 3s)),

    where ``r_ij`` and ``s_ij`` are the symmetric and skew parts of
    ``db_i/dx^j`` (the field gradient over ``c``), ``s^i_0 = s_ij y^j``,
    ``s_0 = b^i s_ij y^j`` and ``r_00 = r_ij y^i y^j``; a constant field has
    zero spray.  A one-row numpy evaluation costs about ten times these
    float stages.  Every stage is gated:
    :class:`OutOfDomainError` where ``c|y| - <y, v_T>`` is not positive (or
    NaN) or ``1 - 2s`` or ``1 + 2|b|^2 - 3s`` is zero, a pole of the spray;
    :class:`InvalidInputError` at ``y = 0``.
    """

    def __init__(self, metric):
        field = metric.field
        if not isinstance(field, (ConstantField, LinearField)) or field.dim != 2:
            raise InvalidInputError("the geodesic flow needs a 2-d constant or linear field")
        self.c = metric.params.v_m * metric.params.cos_delta
        self.base = (field.value if isinstance(field, ConstantField) else field.base).tolist()
        self.grad = self.A = None  # dv_T/dx and db/dx = (dv_T/dx)/c, row-major, of a linear field
        if isinstance(field, LinearField):
            self.grad, self.A = field.gradient.ravel().tolist(), (field.gradient / self.c).ravel().tolist()

    def accel(self, x1, x2, y1, y2) -> tuple[float, float]:
        """``-2 G(x, y)``, zero in a constant field."""
        ny = math.sqrt(y1 * y1 + y2 * y2)
        if ny == 0.0:
            raise InvalidInputError("metric is undefined at the zero velocity")
        c, (v1, v2), g = self.c, self.base, self.grad
        if g is not None:
            v1, v2 = v1 + (g[0] * x1 + g[1] * x2), v2 + (g[2] * x1 + g[3] * x2)
        yv = y1 * v1 + y2 * v2
        den = c * ny - yv
        if not den > 0.0:
            raise OutOfDomainError(f"a geodesic stage does not close on the target (denominator {den:.6g})")
        if self.A is None:
            return 0.0, 0.0
        a11, a12, a21, a22 = self.A
        ay1, ay2 = a11 * y1 + a12 * y2, a21 * y1 + a22 * y2
        s1, s2 = 0.5 * (ay1 - (y1 * a11 + y2 * a21)), 0.5 * (ay2 - (y1 * a12 + y2 * a22))
        b1, b2 = v1 / c, v2 / c
        s = yv / (c * ny)
        den_q, den_psi = 1.0 - 2.0 * s, 1.0 + 2.0 * (b1 * b1 + b2 * b2) - 3.0 * s
        if den_q == 0.0 or den_psi == 0.0:
            raise OutOfDomainError("a geodesic stage sits on a pole of the spray")
        q, psi, t = 1.0 / den_q, 1.0 / den_psi, 0.5 * (1.0 - 4.0 * s) / ny
        k = ((y1 * ay1 + y2 * ay2) - 2.0 * q * ny * (b1 * s1 + b2 * s2)) * psi
        return -2.0 * (ny * q * s1 + k * (b1 + t * y1)), -2.0 * (ny * q * s2 + k * (b2 + t * y2))

    def berwald(self, x1, x2, y1, y2) -> np.ndarray:
        """``B[i, j, k] = d2 G^i / dy^j dy^k`` of ``G = -accel / 2``, behind accel's gates; zero in a constant field.

        ``G = |y| Q S + k (b + T y)`` with ``S = W y`` (``W`` the skew part of ``db/dx``), ``k = (r_00 - 2 Q |y|
        s_0) Psi`` and ``T = (1 - 4s) / (2|y|)``.  Each factor is carried as its jet in y (value, gradient and
        Hessian) through the product rule, so B is exactly symmetric in (j, k).
        """
        self.accel(x1, x2, y1, y2)  # raises where the spray does
        if self.A is None:
            return np.zeros((2, 2, 2))
        (v1, v2), g = self.base, self.grad
        b = np.array([v1 + (g[0] * x1 + g[1] * x2), v2 + (g[2] * x1 + g[3] * x2)]) / self.c
        A, y, ny = np.reshape(self.A, (2, 2)), np.array([y1, y2]), math.sqrt(y1 * y1 + y2 * y2)
        R, W, u, one = A + A.T, 0.5 * (A - A.T), y / ny, np.eye(7)[0]

        def jet(value, gradient, hessian=(0.0,) * 4):
            return np.concatenate(([value], gradient, hessian))

        norm = jet(ny, u, ((np.eye(2) - np.outer(u, u)) / ny).ravel())
        inv_norm = _jet_inv(norm)
        s = _jet_mul(jet(b @ y, b), inv_norm)
        nq = _jet_mul(norm, _jet_inv(one - 2.0 * s))
        psi = _jet_inv((1.0 + 2.0 * (b @ b)) * one - 3.0 * s)
        k = _jet_mul(jet(y @ A @ y, R @ y, R.ravel()) - 2.0 * _jet_mul(nq, jet(b @ W @ y, W.T @ b)), psi)
        kt = _jet_mul(k, _jet_mul(0.5 * (one - 4.0 * s), inv_norm))
        G = [_jet_mul(nq, jet(W[i] @ y, W[i])) + b[i] * k + _jet_mul(kt, jet(y[i], np.eye(2)[i])) for i in range(2)]
        return np.array([Gi[3:].reshape(2, 2) for Gi in G])

    def step(self, z, h: float) -> tuple:
        """One classical RK4 step of ``(x, y)' = (y, -2 G)`` from ``z = (x1, x2, y1, y2)``."""
        x1, x2, y1, y2 = z
        hh = 0.5 * h
        p1, p2 = self.accel(x1, x2, y1, y2)
        u1, u2 = y1 + hh * p1, y2 + hh * p2
        q1, q2 = self.accel(x1 + hh * y1, x2 + hh * y2, u1, u2)
        v1, v2 = y1 + hh * q1, y2 + hh * q2
        r1, r2 = self.accel(x1 + hh * u1, x2 + hh * u2, v1, v2)
        w1, w2 = y1 + h * r1, y2 + h * r2
        s1, s2 = self.accel(x1 + h * v1, x2 + h * v2, w1, w2)
        k = h / 6.0
        return (x1 + k * (y1 + 2.0 * u1 + 2.0 * v1 + w1), x2 + k * (y2 + 2.0 * u2 + 2.0 * v2 + w2),
                y1 + k * (p1 + 2.0 * q1 + 2.0 * r1 + s1), y2 + k * (p2 + 2.0 * q2 + 2.0 * r2 + s2))


def _flow_curve(metric, times, states) -> CurveRecord:
    """:func:`curve_from_arrays` on a list of flow states ``(x1, x2, y1, y2)``."""
    Z = np.array(states)
    return curve_from_arrays(metric, times, Z[:, :2].copy(), Z[:, 2:].copy())


def _planar_vector(v, name: str) -> list:
    """``v`` as a list of two finite floats, or :class:`InvalidInputError`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} must be a finite 2-vector")
    return v.tolist()


def _time_derivative(A, times) -> np.ndarray:
    """``dA/dt`` by second-order differences along axis 0, one-sided at both ends; needs three nodes."""
    if len(times) < 3:
        raise InvalidInputError(f"time derivatives need 3 course nodes or more, got {len(times)}: use a smaller --step")
    return np.gradient(A, times, axis=0, edge_order=2)


def spray_coefficients(metric, x, y) -> np.ndarray:
    """Geodesic spray ``G^i(x, y)``: ``-1/2`` the acceleration of the metric's :class:`_PlanarFlow`."""
    a1, a2 = _PlanarFlow(metric).accel(*_planar_vector(x, "x"), *_planar_vector(y, "y"))
    return np.array([-0.5 * a1, -0.5 * a2])


def berwald_coefficients(metric, x, y) -> np.ndarray:
    """Berwald connection ``B[i, j, k] = d2 G^i / (dy^j dy^k)``: :meth:`_PlanarFlow.berwald`."""
    return _PlanarFlow(metric).berwald(*_planar_vector(x, "x"), *_planar_vector(y, "y"))


def _covariant_rate(metrics, curve: CurveRecord, Y: np.ndarray, variant: str) -> np.ndarray:
    """Covariant rate of a vector field ``Y(t)`` along a curve, node ``i``'s connection taken from ``metrics[i]``.

    variant="quadratic" returns ``dY/dt + G^i_jk(x, v) Y^j Y^k`` and
    variant="affine" returns ``dY/dt + G^i_jk(x, v) v^j Y^k``, where the
    connection is evaluated along the curve's own velocity ``v``.  Both
    are returned on the curve's time grid.
    """
    if variant not in ("quadratic", "affine"):
        raise InvalidInputError(f"unknown variant {variant!r}")
    dY = _time_derivative(Y, curve.times)
    out = np.empty_like(Y)
    for i, m in enumerate(metrics):
        B = berwald_coefficients(m, curve.positions[i], curve.velocities[i])
        Z = Y[i] if variant == "quadratic" else curve.velocities[i]
        out[i] = dY[i] + np.einsum("ijk,j,k->i", B, Z, Y[i])
    return out


def integrate_geodesic(metric, x0, y0, horizon: float, step: float = 1e-3) -> CurveRecord:
    """Integrate ``x'' = -2 G(x, x')`` with classical RK4 on the metric's :class:`_PlanarFlow`.

    ``x0`` and ``y0`` must be finite 2-vectors, ``horizon`` and ``step``
    positive and finite, and ``horizon`` an integer multiple of ``step``
    (to 1e-9 relative).  If any RK4 stage, or the last node, needs the
    metric outside its domain, a :class:`PartialCurveError` carrying the
    in-domain prefix is raised, whatever the horizon.
    """
    if not (0.0 < horizon < math.inf and 0.0 < step < math.inf):
        raise InvalidInputError("horizon and step must be positive and finite")
    n_steps = int(round(horizon / step))
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * horizon:
        raise InvalidInputError("horizon must be an integer multiple of step")

    flow = _PlanarFlow(metric)
    states = [(*_planar_vector(x0, "x0"), *_planar_vector(y0, "y0"))]
    try:
        for _ in range(n_steps):
            states.append(flow.step(states[-1], step))
        return _flow_curve(metric, np.arange(n_steps + 1) * step, states)
    except OutOfDomainError as exc:
        # a completed step, the last one too, can land outside the domain: keep the leading in-domain nodes
        k = len(states) - 1
        Z = np.array(states)
        n = int(np.cumprod(metric.value_many(Z[:, :2], Z[:, 2:])[1] > 0.0).sum())
        partial = _flow_curve(metric, np.arange(n) * step, states[:n]) if n >= 2 else None
        raise PartialCurveError(
            f"geodesic left the metric domain during step {k} (t = {k * step:.6g})",
            partial=partial,
        ) from exc


def action_integral(curve: CurveRecord) -> float:
    """Trapezoidal metric length ``integral F(x, v) dt`` along the curve."""
    return float(_trapezoid(curve.F_values, curve.times))


def euler_lagrange_residual(metric, curve: CurveRecord, energy_scale: float = 0.5) -> np.ndarray:
    """Node-wise Euler-Lagrange defect for ``L = energy_scale * F^2``.

    Computes ``| d/dt (dL/dv) - dL/dx |`` at every node.  Both partials,
    ``dL/dv = 2 energy_scale F dF/dv`` and ``dL/dx = 2 energy_scale F dF/dx``,
    come from one batched ``metric.gradients_many`` call; the momenta's time
    derivative takes second-order differences on the curve grid, with
    one-sided second-order stencils at both endpoints (first-order ends are
    not accurate enough to certify a geodesic), so a course needs three nodes.
    """
    F, dFdv, dFdx = metric.gradients_many(curve.positions, curve.velocities)
    k = (2.0 * energy_scale * F)[:, None]
    dPdt = _time_derivative(k * dFdv, curve.times)
    return np.linalg.norm(dPdt - k * dFdx, axis=1)
