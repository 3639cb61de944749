#!/usr/bin/env python3
"""Hard shear draws: which ones the shooter solves, their t_f, and the RK4 steps each solve takes.

Each draw is a stationary target at the origin, a pursuer of speed 2 and a
linear field ``v_T(x) = b + A x`` with ``A`` U(-1.2, 1.2)^(2x2), ``b``
U(-0.3, 0.3)^2, start range U(1, 3) at a bearing U(-pi, pi), hit radius
log-uniform in [5e-3, 5e-2] and ``t_max`` 10, drawn in that order from
``numpy.random.default_rng(seed)``.  Many of these geodesics cross the part of
the field where the metric is not strongly convex, so some solves are refused.
Two sets are run: 300 draws of seed 7 and 600 of seed 2026.  The CSV has one
row a draw: its status (``solved`` or the refusal's exception class), t_f and
node count of a solved course, the RK4 steps of ``_PlanarFlow.step`` the solve
took, and a refusal's message.

    PYTHONPATH=src python3 scripts/hard_draws.py --out results/hard_draws.csv
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from parnav import ConstantVelocity, LinearField, ParnavError, Scenario, optimal_trajectory
from parnav.geodesics import _PlanarFlow

SETS = {7: 300, 2026: 600}


def hard_draws(seed: int, n: int) -> list:
    """The first ``n`` draws of ``default_rng(seed)``, as ``(scenario, field)``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gradient, base = rng.uniform(-1.2, 1.2, (2, 2)), rng.uniform(-0.3, 0.3, 2)
        r, bearing = rng.uniform(1.0, 3.0), rng.uniform(-math.pi, math.pi)
        hit = math.exp(rng.uniform(math.log(5e-3), math.log(5e-2)))
        r0 = r * np.array([math.cos(bearing), math.sin(bearing)])
        scenario = Scenario(r0=r0, program=ConstantVelocity(0.0, 0.0), v_m=2.0, hit_radius=hit, t_max=10.0)
        out.append((scenario, LinearField(base, gradient)))
    return out


def solve(scenario, field) -> dict:
    """Solve one draw, counting the RK4 steps of the planar flow it takes."""
    real_step, steps = _PlanarFlow.step, [0]

    def counted(self, z, h):
        steps[0] += 1
        return real_step(self, z, h)

    _PlanarFlow.step = counted
    try:
        curve = optimal_trajectory(scenario, field)
        row = {"status": "solved", "t_f": repr(float(curve.times[-1])), "nodes": curve.n_nodes, "message": ""}
    except ParnavError as exc:
        row = {"status": type(exc).__name__, "t_f": "", "nodes": "", "message": str(exc)}
    finally:
        _PlanarFlow.step = real_step
    row["rk4_steps"] = steps[0]
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results/hard_draws.csv"))
    args = ap.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, ["seed", "draw", "status", "t_f", "nodes", "rk4_steps", "message"])
        writer.writeheader()
        for seed, n in SETS.items():
            rows = [{"seed": seed, "draw": k, **solve(*draw)} for k, draw in enumerate(hard_draws(seed, n))]
            writer.writerows(rows)
            answers = [r["rk4_steps"] for r in rows if r["status"] == "solved"]
            refusals = [r["rk4_steps"] for r in rows if r["status"] != "solved"]
            print(f"seed {seed}: {len(answers)} of {n} solved; RK4 steps {sum(answers)} for answers, "
                  f"{sum(refusals)} for refusals")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
