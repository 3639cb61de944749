#!/usr/bin/env python3
"""Geodesic diagnostics in a linear shear: conservation, optimality, convergence.

Integrates a geodesic of the navigation metric for a pursuer of speed 2 in
the shear field v_T = (0.1 + 0.45*x2, 0), then reports everything we can
check about it: F-conservation along the flow, the action integral, the
Euler-Lagrange residual (against a deliberately wiggled copy), the
maximum-principle certificate, and the RK4 endpoint-convergence ratios.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from parnav import (
    LinearField,
    NavMetric,
    NavMetricParams,
    action_integral,
    curve_from_arrays,
    euler_lagrange_residual,
    integrate_geodesic,
    pmp_check,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=2.0)
    ap.add_argument("--step", type=float, default=5e-3)
    ap.add_argument("--out", type=Path, default=Path("results/shear_geodesic.csv"))
    args = ap.parse_args(argv)

    metric = NavMetric(
        NavMetricParams(2.0, 0.0), LinearField([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]])
    )
    x0 = np.array([-1.6, 0.9])
    y0 = metric.unit_vector(x0, -x0)

    curve = integrate_geodesic(metric, x0, y0, args.horizon, step=args.step)
    print(f"geodesic: {curve.n_nodes} nodes over horizon {args.horizon}")
    print(f"  max |F - 1| along the flow : {np.max(np.abs(curve.F_values - 1.0)):.3e}")
    print(f"  action integral (length)   : {action_integral(curve):.10f}")

    el = euler_lagrange_residual(metric, curve)
    bump = 0.02 * np.sin(math.pi * curve.times / args.horizon) ** 2
    dbump = (
        0.02 * math.pi / args.horizon
        * np.sin(math.pi * curve.times / args.horizon)
        * np.cos(math.pi * curve.times / args.horizon) * 2.0
    )
    pos = curve.positions.copy()
    vel = curve.velocities.copy()
    pos[:, 0] += bump
    vel[:, 0] += dbump
    wiggled = curve_from_arrays(metric, curve.times, pos, vel)
    el_w = euler_lagrange_residual(metric, wiggled)
    print(f"  Euler-Lagrange residual    : {np.max(el):.3e} (wiggled copy {np.max(el_w):.3e})")

    cert_curve = integrate_geodesic(metric, x0, y0, args.horizon, step=args.horizon / 200.0)
    report = pmp_check(metric, cert_curve)
    print(
        f"  certificate (200 steps)    : passed={report.passed} "
        f"|H|={report.max_hamiltonian:.2e} adjoint={report.max_adjoint_residual:.2e}"
    )

    reference = integrate_geodesic(metric, x0, y0, args.horizon, step=args.horizon / 512.0)
    errors = []
    for n in (8, 16, 32):
        c = integrate_geodesic(metric, x0, y0, args.horizon, step=args.horizon / n)
        errors.append(float(np.linalg.norm(c.positions[-1] - reference.positions[-1])))
    print(
        "  endpoint convergence       : "
        + ", ".join(f"h/{n}: {e:.3e}" for n, e in zip((8, 16, 32), errors))
        + f" (ratios {errors[0] / errors[1]:.1f}, {errors[1] / errors[2]:.1f})"
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["t,x_1,x_2,v_1,v_2,F"]
    for i in range(curve.n_nodes):
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    curve.times[i], *curve.positions[i], *curve.velocities[i], curve.F_values[i],
                )
            )
        )
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
