"""Finite-difference backend for metric derivatives.

The spray, ``F``'s gradients and the fundamental tensor are closed forms
of the metric.  The package still differences the Berwald stencil
(:func:`directional_second`); the energy stencils take a *batched*
``energy_many(X, Y) -> (m,)`` (e.g. ``F(x_i, y_i)**2`` row-wise) and
serve the tests as closed-form oracles.

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
    "directional_second",
]

# Velocity-slot step for gradients/Hessians of the energy.
H_REL_Y = 1e-4
# Position-slot step for energy x-gradients; xy_mixed uses it in both slots.
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


def _central_gradient(f, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a batched scalar map ``f(Z) -> (m,)`` at ``z``."""
    n = z.size
    eye = np.eye(n) * h
    vals = f(np.concatenate([z + eye, z - eye]))
    return (vals[:n] - vals[n:]) / (2.0 * h)


def y_gradient(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference gradient of the energy in its velocity slot."""
    return _central_gradient(lambda Y: energy_many(np.broadcast_to(x, Y.shape), Y), y, _y_step(y, h, H_REL_Y))


def x_gradient(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference gradient of the energy in its position slot."""
    return _central_gradient(lambda X: energy_many(X, np.broadcast_to(y, X.shape)), x, _x_step(x, h, H_REL_X))


def y_hessian(
    energy_many: EnergyMany, x: np.ndarray, y: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference Hessian of the energy in its velocity slot.

    Entry ``(i, j)`` is the cross stencil ``(E(++) + E(--) - E(+-) - E(-+)) / (4 a^2)``
    on the corners ``y +- a e_i +- a e_j``, with ``a = h`` off the diagonal and
    ``a = h/2`` on it, where it is the 3-point second difference with step
    ``h``.  It is symmetric by construction, and the whole stencil is one
    batched call.
    """
    n = y.size
    eye = np.eye(n)
    a = _y_step(y, h, H_REL_Y) * (1.0 - 0.5 * eye)
    signs = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
    Y = y + np.array([(si * eye[:, None, :] + sj * eye[None, :, :]) * a[:, :, None] for si, sj in signs])
    E = energy_many(np.broadcast_to(x, (4 * n * n, n)), Y.reshape(-1, n)).reshape(4, n, n)
    return ((E[0] + E[1]) - (E[2] + E[3])) / (4.0 * a * a)


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
    s = np.array([1.0, -1.0])
    # rows ordered as (sx, sy, k, l) over signs sx, sy in {+, -}
    X = x + s[:, None, None, None, None] * (np.eye(n) * hx)[:, None, :]
    Y = y + s[None, :, None, None, None] * (np.eye(n) * hy)[None, :, :]
    X, Y = (A.reshape(-1, n) for A in np.broadcast_arrays(X, Y))
    vals = energy_many(X, Y).reshape(2, 2, n, n)
    mixed_kl = (vals[0, 0] - vals[0, 1] - vals[1, 0] + vals[1, 1]) / (4.0 * hx * hy)
    return mixed_kl.T  # -> [l, k]


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
