"""Geodesic flow of the navigation metric.

Everything here works with a metric object exposing ``F_many``,
``gradients_many`` and ``spray_many`` (see :mod:`parnav.metric`).  The
spray coefficients ``G^i = 1/4 g^{il} (d2E/(dy^l dx^k) y^k - dE/dx^l)``,
``E = F^2``, drive the geodesic equation ``x'' = -2 G(x, x')``; they and
the Euler-Lagrange residual's partials of ``F`` are closed forms.  The
Berwald connection ``G^i_jk`` is a finite-difference stencil on the spray
(:mod:`parnav.numdiff`).

Every numpy RK4 integration in the package takes its steps with
:func:`_rk4_step`: geodesics integrated over a horizon step the state
``z = (x, y)`` through the first-order field of :func:`_geodesic_field`.
The shooter in :mod:`parnav.optimal`, like the simulator core in
:mod:`parnav.kinematics`, keeps its own float-only stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfDomainError, PartialCurveError
from . import numdiff

__all__ = [
    "CurveRecord",
    "curve_from_arrays",
    "spray_coefficients",
    "berwald_coefficients",
    "covariant_derivative",
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


def spray_coefficients(metric, x, y) -> np.ndarray:
    """Geodesic spray ``G^i(x, y)``: the 1-row call of ``metric.spray_many``."""
    return metric.spray_many(np.asarray(x, dtype=float)[None, :], np.asarray(y, dtype=float)[None, :])[0]


def berwald_coefficients(metric, x, y) -> np.ndarray:
    """Berwald connection ``B[i, j, k] = d2 G^i / (dy^j dy^k)``.

    Diagonal blocks come from a 4th-order directional stencil along each
    axis; off-diagonal blocks use the polarization identity along the
    ``e_j + e_k`` and ``e_j - e_k`` diagonals, which keeps the result
    exactly symmetric in its lower indices.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    h = numdiff.BERWALD_REL * float(np.linalg.norm(y))

    def G(yy: np.ndarray) -> np.ndarray:
        return spray_coefficients(metric, x, yy)

    B = np.empty((n, n, n))
    eye = np.eye(n)
    for j in range(n):
        B[:, j, j] = numdiff.directional_second(G, y, eye[j], h)
    hd = h / math.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            plus = numdiff.directional_second(G, y, eye[j] + eye[k], hd)
            minus = numdiff.directional_second(G, y, eye[j] - eye[k], hd)
            B[:, j, k] = B[:, k, j] = 0.25 * (plus - minus)
    return B


def covariant_derivative(metric, curve: CurveRecord, Y, variant: str = "quadratic") -> np.ndarray:
    """Covariant rate of a vector field ``Y(t)`` along a curve.

    variant="quadratic" returns ``dY/dt + G^i_jk(x, v) Y^j Y^k`` and
    variant="affine" returns ``dY/dt + G^i_jk(x, v) v^j Y^k``, where the
    connection is evaluated along the curve's own velocity ``v``.  Both
    are returned on the curve's time grid.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != curve.positions.shape:
        raise InvalidInputError("Y must be sampled on the curve's grid")
    return _covariant_rate([metric] * curve.n_nodes, curve, Y, variant)


def _covariant_rate(metrics, curve: CurveRecord, Y: np.ndarray, variant: str) -> np.ndarray:
    """:func:`covariant_derivative` with node ``i``'s connection taken from ``metrics[i]``."""
    if variant not in ("quadratic", "affine"):
        raise InvalidInputError(f"unknown variant {variant!r}")
    dY = np.gradient(Y, curve.times, axis=0, edge_order=2)
    out = np.empty_like(Y)
    for i, m in enumerate(metrics):
        B = berwald_coefficients(m, curve.positions[i], curve.velocities[i])
        Z = Y[i] if variant == "quadratic" else curve.velocities[i]
        out[i] = dY[i] + np.einsum("ijk,j,k->i", B, Z, Y[i])
    return out


def _rk4_step(f, z, h: float) -> np.ndarray:
    """One classical RK4 step of ``z' = f(z)``."""
    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _geodesic_field(metric):
    """``z = (x, y) -> (y, -2 G(x, y))``, the geodesic equation as a first-order field on ``(2, n)`` arrays."""
    return lambda z: np.array((z[1], -2.0 * spray_coefficients(metric, z[0], z[1])))


def _curve_from_states(metric, times, states) -> CurveRecord:
    """:func:`curve_from_arrays` on a list of ``(2, n)`` states ``(x, y)``."""
    Z = np.array(states)
    return curve_from_arrays(metric, times, Z[:, 0].copy(), Z[:, 1].copy())


def integrate_geodesic(metric, x0, y0, horizon: float, step: float = 1e-3) -> CurveRecord:
    """Integrate ``x'' = -2 G(x, x')`` with classical RK4.

    ``horizon`` and ``step`` must be positive and finite, and ``horizon``
    an integer multiple of ``step`` (to 1e-9 relative).  If any RK4 stage
    needs the metric outside its domain, a :class:`PartialCurveError`
    carrying the completed prefix is raised.
    """
    if not (0.0 < horizon < math.inf and 0.0 < step < math.inf):
        raise InvalidInputError("horizon and step must be positive and finite")
    n_steps = int(round(horizon / step))
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, horizon):
        raise InvalidInputError("horizon must be an integer multiple of step")

    f = _geodesic_field(metric)
    states = [np.array((x0, y0), dtype=float)]
    for k in range(n_steps):
        try:
            states.append(_rk4_step(f, states[-1], step))
        except OutOfDomainError as exc:
            partial = _curve_from_states(metric, np.arange(k + 1) * step, states) if k >= 1 else None
            raise PartialCurveError(
                f"geodesic left the metric domain during step {k} (t = {k * step:.6g})",
                partial=partial,
            ) from exc

    try:
        return _curve_from_states(metric, np.arange(n_steps + 1) * step, states)
    except OutOfDomainError as exc:  # final node slipped out between stages
        raise PartialCurveError("geodesic endpoint left the metric domain", partial=None) from exc


def action_integral(metric, curve: CurveRecord, lagrangian: str = "F") -> float:
    """Trapezoidal ``integral L(x, v) dt`` along the curve; L is F or F^2."""
    if lagrangian == "F":
        vals = curve.F_values
    elif lagrangian == "energy":
        vals = curve.F_values**2
    else:
        raise InvalidInputError(f"unknown lagrangian {lagrangian!r}")
    return float(_trapezoid(vals, curve.times))


def euler_lagrange_residual(metric, curve: CurveRecord, energy_scale: float = 0.5) -> np.ndarray:
    """Node-wise Euler-Lagrange defect for ``L = energy_scale * F^2``.

    Computes ``| d/dt (dL/dv) - dL/dx |`` at every node.  Both partials,
    ``dL/dv = 2 energy_scale F dF/dv`` and ``dL/dx = 2 energy_scale F dF/dx``,
    come from one batched ``metric.gradients_many`` call; the momenta's time
    derivative takes second-order differences on the curve grid, with
    one-sided second-order stencils at both endpoints (first-order ends are
    not accurate enough to certify a geodesic).
    """
    F, dFdv, dFdx = metric.gradients_many(curve.positions, curve.velocities)
    k = (2.0 * energy_scale * F)[:, None]
    dPdt = np.gradient(k * dFdv, curve.times, axis=0, edge_order=2)
    return np.linalg.norm(dPdt - k * dFdx, axis=1)
