"""Independent references for the package's fast paths.

``parnav.geodesics._PlanarFlow`` evaluates the Chern-Shen spray and
steps RK4 on Python floats.  These are the same formulas written once
more, batched and in any dimension, so tests can hold the float flow to
an independent evaluation of each.

``parnav.cli.write_csv`` formats each distinct float of a column once.
The row-wise tables and writer at the end of this module are the CLI's
earlier format, one ``repr(float(v))`` per cell, so tests can hold the
columnar writer to the same bytes.
"""

import numpy as np

from parnav import InvalidInputError, OutOfDomainError


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
