"""Finite-difference stencils of a batched energy, the oracles for closed forms.

The spray, ``F``'s gradients and the fundamental tensor are closed forms
in the package, and no module of it calls these stencils: they take a
*batched* ``energy_many(X, Y) -> (m,)`` (e.g. ``F(x_i, y_i)**2``
row-wise) and serve the tests as oracles for those closed forms.
Importing :mod:`parnav` does not load this module.

Step sizes are relative.  Velocity-slot steps scale with ``|y|`` (the
energy is 2-homogeneous in ``y``, so the natural length scale is the
point itself); position-slot steps scale with ``1 + |x|`` so they stay
sane near the origin.  The defaults below were chosen by measuring the
Euler-identity defect ``g_ij y^i y^j - F^2`` across the working range of
magnitudes: ``1e-4 * |y|`` keeps it near 1e-7 even for ``|y| ~ 1e3``,
while much smaller steps drown in roundoff.  The position-slot constant
is deliberately coarser because the mixed stencil built on it gets
second-differenced, amplifying noise by ``4 / h^2``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "H_REL_Y",
    "H_REL_X",
    "y_gradient",
    "y_hessian",
    "x_gradient",
    "xy_mixed",
]

# Velocity-slot step for gradients/Hessians of the energy.
H_REL_Y = 1e-4
# Position-slot step for energy x-gradients; xy_mixed uses it in both slots.
H_REL_X = 1e-3

EnergyMany = Callable[[np.ndarray, np.ndarray], np.ndarray]


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
