"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Runs every workload at one or two ops and checks that

* the workloads and metrics ``run.py`` reports are exactly the ones
  BENCHMARK.json defines, with the same units, and every value is finite;
* the ops pass their oracles;
* a traced run repeats its call and row counts exactly;
* a perturbed output (``t_f`` or the final range scaled by 1 + 1e-5)
  trips the oracle.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

COUNT_UNITS = ("count", "B", "calls/node")


def _check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"[self-test] {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def _metrics_match(result: dict, expected: list) -> tuple:
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return got == want and not bad, f"missing {sorted(set(want) - set(got))}, " \
        f"extra {sorted(set(got) - set(want))}, non-finite {bad}"


def _perturbed(run) -> tuple:
    """A copy of the op's record/report with its key output scaled by 1 + 1e-5."""
    record, report = copy.deepcopy(run.record), copy.deepcopy(run.report)
    if run.op.mode == "pmp-check":
        report["t_f"] *= 1.0 + 1e-5
    elif run.op.mode == "simulate":
        record["summary"]["t_f"] *= 1.0 + 1e-5
    else:
        record["summary"]["final_range"] *= 1.0 + 1e-5
    return record, report


def run(definition: dict, bench, folder: Path) -> int:
    """Run every check, writing result files under ``folder``; 0 if all pass."""
    import workloads

    results: list = []
    names = tuple(w["name"] for w in definition["workloads"])
    _check(results, "workload list", names == workloads.WORKLOADS, f"{names} vs {workloads.WORKLOADS}")

    cli = bench.import_parnav()
    for w in workloads.WORKLOADS:
        r = bench.bench(w, 1, 1e-3, False, definition, folder)
        _check(results, f"{w}: untraced op passes its oracle", r["correct"] and r["attempted"] >= 1)
        ok, detail = _metrics_match(r, definition["end_to_end"])
        _check(results, f"{w}: end-to-end metrics and units", ok, detail)

        r = bench.bench(w, 1, 0.0, True, definition, folder, n_ops=1)
        _check(results, f"{w}: traced op passes its oracle", r["correct"])
        ok, detail = _metrics_match(r, definition["per_layer"])
        _check(results, f"{w}: per-layer metrics and units", ok, detail)
        if w == "engage":
            again = bench.bench(w, 1, 0.0, True, definition, folder, n_ops=1)
            counts = [k for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS]
            same = all(r["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts)
            _check(results, f"{w}: traced counts repeat exactly", same, f"{len(counts)} counts")

    # pick ops whose key output the perturbation must move past its tolerance
    engage = next(op for op in workloads.make_ops("engage", 1, 40)
                  if op.expect.get("termination") == "intercept")
    picks = [engage, workloads.make_ops("certify-flat", 1, 1)[0], workloads.make_ops("shoot-shear", 1, 1)[0]]
    with tempfile.TemporaryDirectory(dir=folder) as tmp:
        for op in picks:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(json.dumps(op.doc))
            out = Path(tmp) / "out"
            clean = bench.run_op(cli.main, op, scenario, out, workloads.check)
            record, report = _perturbed(clean)
            reason = workloads.check(op, clean.code, record, report, out)
            _check(results, f"{op.mode}: perturbed output trips the oracle",
                   clean.ok and reason is not None, f"clean: {clean.reason}; perturbed: {reason}")

    print(f"[self-test] {sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1
