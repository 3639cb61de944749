#!/usr/bin/env python3
"""Hard shear draws: which ones the shooter solves, their t_f, and the RK4 steps each solve takes.

The draws are the ``hard_shear`` family of ``tests/draws.py``: strong shears whose geodesics often leave the
strongly convex part of the metric, so some solves are refused.  Two sets are run: 300 draws of
``numpy.random.default_rng(7)`` and 600 of ``default_rng(2026)``.  The CSV has one row a draw: its status
(``solved`` or the refusal's exception class), t_f and node count of a solved course, the RK4 steps of
``_PlanarFlow.step`` the solve took, and a refusal's message.  Run it from the repository root, with the package
and the root on the path:

    PYTHONPATH=src:. python3 scripts/hard_draws.py --out results/hard_draws.csv
"""

import argparse
import csv
import sys
from pathlib import Path

from parnav import ParnavError, optimal_trajectory
from parnav.geodesics import _PlanarFlow
from tests.draws import hard_shear

SETS = {7: 300, 2026: 600}


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
            rows = [{"seed": seed, "draw": k, **solve(*draw)} for k, draw in enumerate(hard_shear.draws(seed, n))]
            writer.writerows(rows)
            answers = [r["rk4_steps"] for r in rows if r["status"] == "solved"]
            refusals = [r["rk4_steps"] for r in rows if r["status"] != "solved"]
            print(f"seed {seed}: {len(answers)} of {n} solved; RK4 steps {sum(answers)} for answers, "
                  f"{sum(refusals)} for refusals")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
