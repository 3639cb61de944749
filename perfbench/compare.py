"""Compare two sets of untraced benchmark results, one row per workload and metric.

A result set is a directory of ``<workload>-seed<N>-trace0.json`` files, as
``run.py`` writes them.  Runs are paired by seed.  The verdict follows the
rule the benchmark is judged by:

* ``better``: the new median is better, the new side wins at least nine in
  ten seed pairs, and the medians differ by more than the base's own
  interquartile distance;
* ``unresolved``: the run-to-run spread (interquartile distance over
  median, on either side) is wider than the metric's bound, unless every
  new run beats every base run;
* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``no worse``: anything else.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(folder: Path) -> dict:
    """``{workload: {metric: {seed: value}}}`` from a result directory."""
    out: dict = {}
    for path in sorted(folder.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        for name, m in result["metrics"].items():
            out.setdefault(result["workload"], {}).setdefault(name, {})[result["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base.values())
    n1, nm, n3 = quartiles(new.values())
    gain = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0.0 for s in seeds)
    every_run_better = min(sign * v for v in new.values()) > max(sign * v for v in base.values())
    if seeds and gain > 0.0 and wins >= 0.9 * len(seeds) and abs(nm - bm) > b3 - b1:
        return "better"
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain > bound:
        return "worse"
    return "no worse"


def report(base_dir: Path, new_dir: Path, definition: dict) -> list:
    base, new = load(base_dir), load(new_dir)
    lines = [f"base: {base_dir}", f"new:  {new_dir}",
             f"{'workload':14s} {'metric':12s} {'unit':5s} {'base median [q1, q3] (n)':>36s} "
             f"{'new median [q1, q3] (n)':>36s} {'new/base':>9s} {'bound':>6s}  verdict"]
    for workload in definition["workloads"]:
        w = workload["name"]
        for m in definition["end_to_end"]:
            b = base.get(w, {}).get(m["name"])
            n = new.get(w, {}).get(m["name"])
            if not b or not n:
                lines.append(f"{w:14s} {m['name']:12s} {m['unit']:5s} missing on "
                             f"{'base' if not b else 'new'} side")
                continue
            bq, nq = quartiles(b.values()), quartiles(n.values())
            cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] ({len(v)})" for q, v in ((bq, b), (nq, n))]
            lines.append(f"{w:14s} {m['name']:12s} {m['unit']:5s} {cells[0]:>36s} {cells[1]:>36s} "
                         f"{nq[1] / bq[1]:9.4f} {m['bound']:6.2f}  "
                         f"{verdict(b, n, m['better'], m['bound'])} (base {bq[1]:.6g} {m['unit']})")
    return lines
