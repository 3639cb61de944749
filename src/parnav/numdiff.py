"""Finite-difference backend for metric derivatives.

The spray is in closed form (``NavMetric.spray_many``).  What is still
differenced -- the Euler-Lagrange residual, the certificate's costates,
the fundamental tensor, callable-field Jacobians, the Berwald stencil and
the tests' spray oracle -- funnels through this module so the step-size
policy lives in one place.  Energy derivatives take a *batched* callable
``energy_many(X, Y) -> (m,)`` evaluating ``F(x_i, y_i)**2`` row-wise, so a
full Hessian stencil is one vectorized metric evaluation.

Step sizes are relative.  Velocity-slot steps scale with ``|y|`` (the
energy is 2-homogeneous in ``y``, so the natural length scale is the
point itself); position-slot steps scale with ``1 + |x|`` so they stay
sane near the origin.  The defaults below were chosen by measuring the
Euler-identity defect ``g_ij y^i y^j - F^2`` across the working range of
magnitudes: ``1e-4 * |y|`` keeps it near 1e-7 even for ``|y| ~ 1e3``,
while much smaller steps drown in roundoff.  The position-slot and
Berwald constants are deliberately coarser because those quantities get
second-differenced again downstream, amplifying noise by ``4 / h^2``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "H_REL_Y",
    "H_REL_X",
    "BERWALD_REL",
    "y_gradient",
    "y_hessian",
    "x_gradient",
    "xy_mixed",
    "x_jacobian",
    "directional_second",
]

# Velocity-slot step for gradients/Hessians of the energy.
H_REL_Y = 1e-4
# Position-slot step (energy x-gradients, field Jacobians); xy_mixed uses it in both slots.
H_REL_X = 1e-3
# Directional step for second y-derivatives of the spray (4th-order stencil).
BERWALD_REL = 5e-2

EnergyMany = Callable[[np.ndarray, np.ndarray], np.ndarray]

# 5-point, 4th-order second-derivative stencil on offsets (-2,-1,0,1,2)*h.
_C5 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_O5 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _y_step(y: np.ndarray, h: float | None, rel: float) -> float:
    return float(rel * np.linalg.norm(y)) if h is None else float(h)


def _x_step(x: np.ndarray, h: float | None, rel: float) -> float:
    return float(rel * (1.0 + np.linalg.norm(x))) if h is None else float(h)


def y_gradient(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference gradient of the energy in its velocity slot."""
    n = y.size
    h = _y_step(y, h, H_REL_Y)
    eye = np.eye(n) * h
    Y = np.concatenate([y + eye, y - eye])
    X = np.broadcast_to(x, (2 * n, n))
    vals = energy_many(X, Y)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def x_gradient(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference gradient of the energy in its position slot."""
    n = x.size
    h = _x_step(x, h, H_REL_X)
    eye = np.eye(n) * h
    X = np.concatenate([x + eye, x - eye])
    Y = np.broadcast_to(y, (2 * n, n))
    vals = energy_many(X, Y)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def y_hessian(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference Hessian of the energy in its velocity slot.

    Diagonal entries use the 3-point second difference; off-diagonal
    entries use the 4-corner cross stencil, which is symmetric by
    construction.  The whole stencil is evaluated in one batched call.
    """
    n = y.size
    h = _y_step(y, h, H_REL_Y)
    offsets: list[np.ndarray] = [np.zeros(n)]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        offsets.append(ei)
        offsets.append(-ei)
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j))
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            offsets.extend([ei + ej, ei - ej, -ei + ej, -ei - ej])
    Y = y[None, :] + np.asarray(offsets)
    X = np.broadcast_to(x, Y.shape)
    vals = energy_many(X, Y)

    hess = np.empty((n, n))
    f0 = vals[0]
    for i in range(n):
        hess[i, i] = (vals[1 + 2 * i] - 2.0 * f0 + vals[2 + 2 * i]) / (h * h)
    base = 1 + 2 * n
    for k, (i, j) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[base + 4 * k : base + 4 * k + 4]
        hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


def xy_mixed(
    energy_many: EnergyMany,
    x: np.ndarray,
    y: np.ndarray,
    hx: float | None = None,
    hy: float | None = None,
) -> np.ndarray:
    """Mixed second derivatives ``M[l, k] = d2 E / (dy_l dx_k)``."""
    n = x.size
    hx = _x_step(x, hx, H_REL_X)
    hy = _y_step(y, hy, H_REL_X)
    X_off = np.eye(n) * hx
    Y_off = np.eye(n) * hy
    # Rows ordered as (sx, sy, k, l) over signs sx, sy in {+, -}.
    X_rows = []
    Y_rows = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for k in range(n):
                for l in range(n):
                    X_rows.append(x + sx * X_off[k])
                    Y_rows.append(y + sy * Y_off[l])
    vals = energy_many(np.asarray(X_rows), np.asarray(Y_rows)).reshape(2, 2, n, n)
    mixed_kl = (vals[0, 0] - vals[0, 1] - vals[1, 0] + vals[1, 1]) / (4.0 * hx * hy)
    return mixed_kl.T  # -> [l, k]


def x_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian ``J[i, k] = d f_i / dx_k`` of a vector map."""
    h = _x_step(x, h, H_REL_X)
    return np.stack([f(x + e) - f(x - e) for e in np.eye(x.size) * h], axis=1) / (2.0 * h)


def directional_second(
    f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, u: np.ndarray, h: float
) -> np.ndarray:
    """4th-order second derivative of a vector map along direction ``u``.

    Evaluates ``f`` at the five points ``y + k*h*u`` for ``k`` in
    ``(-2..2)`` and combines with the standard (-1, 16, -30, 16, -1)/12
    weights.  ``f`` may return an array of any shape.
    """
    acc = None
    for c, k in zip(_C5, _O5):
        term = c * np.asarray(f(y + k * h * u))
        acc = term if acc is None else acc + term
    return acc / (h * h)
