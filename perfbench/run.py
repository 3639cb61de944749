"""parnav benchmark: seeded CLI workloads, timed end to end, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload engage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload certify-flat --seed 1 --trace 1
    python3 perfbench/run.py --compare perfbench/results/base perfbench/results/new
    python3 perfbench/run.py --self-test

One op is one in-process ``parnav.cli.main(argv)`` call on a scenario
file generated from ``--seed``; ops run back to back on one thread (a
closed loop with one client).  ``--seconds`` fixes the number of ops
(see ``NOMINAL_OP_S``).  Each op's output is checked by an oracle outside
the timed region.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run also
writes its full result (per-op latencies, environment) to
``perfbench/results/``; failing ops are saved there for replay.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Mean op latency on the reference machine (2-core Xeon, CPython 3.11, numpy
# 2.4).  A run of --seconds does round(seconds / NOMINAL_OP_S) ops: a fixed
# amount of work that lasts about --seconds there, so two commits compared
# on one seed run exactly the same ops however fast each of them is.
NOMINAL_OP_S = {"engage": 0.25, "certify-flat": 5.0, "shoot-shear": 3.4,
                "certify-small-radius": 2.5}
# A run stops early once its ops have taken this many times --seconds.
TIME_CAP = 2.5
# Traced runs trace a fixed op prefix, so their counts repeat exactly.
TRACE_OPS = {"engage": 40, "certify-flat": 2, "shoot-shear": 3, "certify-small-radius": 2}
SETUP_SPAWNS = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

SETUP_CODE = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import parnav.cli
parnav.cli.parse_scenario_text(Path(sys.argv[2]).read_text())
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no parnav sources, no definition)."""


def import_parnav():
    """Import ``parnav.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "parnav" / "cli.py").is_file():
        raise SetupError(f"no parnav sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parnav.cli

    if Path(parnav.cli.__file__).resolve().parent != SRC / "parnav":
        raise SetupError(f"parnav was imported from {parnav.cli.__file__}, not from {SRC}")
    return parnav.cli


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------


class OpRun:
    """The outcome of one CLI call and of its oracle."""

    def __init__(self, op, latency, code, stderr, error=None):
        self.op = op
        self.latency = latency
        self.code = code
        self.stderr = stderr
        self.error = error
        self.record = None
        self.report = None
        self.rows = 0
        self.reason = None
        self.traced = False

    @property
    def ok(self) -> bool:
        return self.reason is None


def call_cli(main, argv):
    """Run ``main(argv)`` once; returns (latency, exit code, stderr, traceback)."""
    err = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc()
    latency = time.perf_counter() - t0
    return latency, code, err.getvalue(), error


def run_op(main, op, scenario: Path, out: Path, check) -> OpRun:
    """Time one op, then judge it outside the timed region and clean up."""
    latency, code, stderr, error = call_cli(main, op.argv(str(scenario), str(out)))
    run = OpRun(op, latency, code, stderr, error)
    record_path = Path(str(out) + ".record.json")
    try:
        if error is not None:
            run.reason = "raised: " + error.strip().splitlines()[-1]
            return run
        if record_path.is_file():
            run.record = json.loads(record_path.read_text())
        if op.mode == "pmp-check" and code == 0 and out.is_file():
            run.report = json.loads(out.read_text())
        run.reason = check(op, code, run.record, run.report, out)
        doc = run.report if op.mode == "pmp-check" else (run.record or {}).get("summary")
        run.rows = int(doc["n_nodes"]) if doc and "n_nodes" in doc else 0
        return run
    finally:
        for path in (out, record_path):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()


def traced_op(tracer, main, k, op, scenario, out, check) -> OpRun:
    """One op under the tracer, as op id ``k``."""
    with tracer.installed(k):
        run = run_op(tracer.root(main), op, scenario, out, check)
    run.traced = True
    return run


def save_failure(run: OpRun, results: Path, workload: str, seed: int, k: int) -> Path:
    """Keep a failing op's scenario, argv, exit code and stderr for replay."""
    folder = results / "failures" / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    stem = f"op{k:04d}" + ("-traced" if run.traced else "")
    scenario = folder / f"{stem}.scenario.json"
    scenario.write_text(json.dumps(run.op.doc, indent=2) + "\n")
    replay = ["python3", "-m", "parnav.cli", *run.op.argv(scenario.name, f"{stem}.out")]
    (folder / f"{stem}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "op": run.op.index, "kind": run.op.kind,
        "replay": " ".join(replay), "exit": run.code, "stderr": run.stderr,
        "error": run.error, "reason": run.reason,
    }, indent=2) + "\n")
    return folder


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure_setup(scenario: Path) -> list:
    """Wall times of fresh interpreters importing parnav.cli and parsing a scenario."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)]
    times = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if k:  # the first spawn only warms the file cache
            times.append(time.perf_counter() - t0)
    return times


def tail(latencies: list):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


def e2e_metrics(runs: list, setup_times: list) -> dict:
    """``{name: (value, unit)}`` for the untraced run."""
    passed = [r for r in runs if r.ok]
    wall = sum(r.latency for r in runs)
    lat = [r.latency for r in passed] or [r.latency for r in runs]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(passed) / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "nodes_per_s": (sum(r.rows for r in passed) / wall, "1/s"),
    }


def layer_metrics(stats: dict, traced: list, untraced: list) -> dict:
    """``{name: (value, unit)}`` from the tracer's aggregates over the traced ops."""
    wall = sum(r.latency for r in traced)
    nd = [stats[n] for n in stats if n.startswith("numdiff.")]
    course_nodes = stats["optimal.optimal_trajectory"]["rows"]
    certified = stats["optimal.pmp_check"]["rows"]
    values = {
        "numdiff.calls": (sum(s["calls"] for s in nd), "count"),
        "numdiff.self_pct": (100.0 * sum(s["self_s"] for s in nd) / wall, "%"),
        "metric.F_many.rows": (stats["metric.F_many"]["rows"], "count"),
        "cli.write_csv.bytes": (stats["cli.write_csv"]["rows"], "B"),
        "kinematics.simulate.nodes": (stats["kinematics.simulate"]["rows"], "count"),
        "optimal.spray_calls_per_node": (
            stats["geodesics.spray_coefficients"]["calls"] / course_nodes if course_nodes else 0.0,
            "calls/node"),
        "optimal.value_calls_per_node": (
            stats["metric.value"]["calls"] / certified if certified else 0.0, "calls/node"),
        "trace.ops": (len(traced), "count"),
        "trace.overhead_ratio": (statistics.median(r.latency for r in traced)
                                 / statistics.median(r.latency for r in untraced), "ratio"),
    }
    for name, s in stats.items():
        values[f"{name}.calls"] = (s["calls"], "count")
        values[f"{name}.self_pct"] = (100.0 * s["self_s"] / wall, "%")
    return values


def select(values: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names, in its order, as ``{name: {value, unit}}``."""
    return {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
            for m in wanted if m["name"] in values}


def layer_report(stats: dict, traced: list) -> list:
    """Human-readable per-layer lines: absolute self time per op and per call."""
    n = len(traced)
    lines = [f"  {'span':40s} {'calls':>9s} {'rows':>10s} {'self s/op':>10s} {'us/call':>9s} {'us/row':>8s}"]
    for name, s in stats.items():
        if not s["calls"]:
            continue
        per_call = 1e6 * s["self_s"] / s["calls"]
        per_row = f"{1e6 * s['total_s'] / s['rows']:8.2f}" if s["rows"] else f"{'':8s}"
        lines.append(f"  {name:40s} {s['calls']:9d} {s['rows']:10d} {s['self_s'] / n:10.4f} "
                     f"{per_call:9.2f} {per_row}")
    return lines


def bench(workload: str, seed: int, seconds: float, traced: bool, definition: dict,
          results: Path, n_ops: int | None = None) -> dict:
    """One run, writing its files under ``results``; ``n_ops`` overrides the number of ops."""
    cli = import_parnav()
    import spans as tracing
    import workloads

    results.mkdir(parents=True, exist_ok=True)
    if n_ops is None:
        n_ops = TRACE_OPS[workload] if traced else max(1, round(seconds / NOMINAL_OP_S[workload]))
    ops = workloads.make_ops(workload, seed, n_ops)
    tmp = Path(tempfile.mkdtemp(prefix=f".{workload}-", dir=results))
    try:
        scenarios = []
        for op in ops:
            path = tmp / f"op{op.index:04d}.json"
            path.write_text(json.dumps(op.doc))
            scenarios.append(path)
        warm = workloads.warmup_op(workload)
        warm_path = tmp / "warmup.json"
        warm_path.write_text(json.dumps(warm.doc))
        out = tmp / "out"

        setup_times = [] if traced else measure_setup(scenarios[0])
        run_op(cli.main, warm, warm_path, out, workloads.check)

        runs, traced_runs, failures = [], [], None
        tracer = tracing.Tracer() if traced else None
        elapsed, k = 0.0, 0
        while k < len(ops) and (traced or elapsed < TIME_CAP * seconds):
            op, path = ops[k], scenarios[k]
            batch = []
            if traced and k % 2 == 0:
                batch.append(traced_op(tracer, cli.main, k, op, path, out, workloads.check))
            batch.append(run_op(cli.main, op, path, out, workloads.check))
            if traced and k % 2 == 1:
                batch.append(traced_op(tracer, cli.main, k, op, path, out, workloads.check))
            for r in batch:
                (traced_runs if r.traced else runs).append(r)
                if not r.ok:
                    failures = save_failure(r, results, workload, seed, k)
            elapsed += sum(r.latency for r in batch)
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = runs + traced_runs
    failed = sum(not r.ok for r in everything)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "ops": [{"op": r.op.index, "kind": r.op.kind, "latency_s": r.latency, "rows": r.rows,
                 "exit": r.code, "ok": r.ok, "traced": r.traced} for r in everything],
    }
    lines = [f"# environment: {json.dumps(result['environment'], sort_keys=True)}",
             f"# workload {workload}, seed {seed}, closed loop with one client, "
             f"{len(everything)} ops attempted, {failed} failed "
             f"(failed_ratio {failed / len(everything):.4f})"]
    if failures is not None:
        lines.append(f"# failing ops saved under {failures}")
    if traced:
        stats = tracer.stats()
        spans = results / f"trace-{workload}-seed{seed}.npz"
        tracer.save(spans)
        result["metrics"] = select(layer_metrics(stats, traced_runs, runs), definition["per_layer"])
        result["layers"] = stats
        lines.append(f"# per-layer, {len(traced_runs)} traced ops (spans in {spans})")
        lines += layer_report(stats, traced_runs)
        n_samples = {m: len(traced_runs) for m in result["metrics"]}
    else:
        result["metrics"] = select(e2e_metrics(runs, setup_times), definition["end_to_end"])
        n_pass = sum(r.ok for r in runs)
        n_samples = {"setup_s": len(setup_times), "ops_per_s": len(runs),
                     "op_p50_ms": n_pass, "nodes_per_s": len(runs)}
        t = tail([r.latency for r in runs if r.ok])
        if t is None:
            lines.append(f"  op_tail_ms: not reported ({n_pass} passing ops; a tail needs "
                         "ten samples beyond its percentile)")
        else:
            result["op_tail_ms"] = {"percentile": t[0], "value": t[1] * 1e3, "unit": "ms", "n": n_pass}
            lines.append(f"  op_tail_ms (p{t[0]:g}) = {t[1] * 1e3:.4f} ms (n={n_pass})")
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']} (n={n_samples[name]})")
    path = results / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["lines"] = lines
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                        help="compare two directories of result files")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for result files (default: perfbench/results)")
    args = parser.parse_args(argv)
    results = args.results.resolve()
    try:
        definition = load_definition()
        if args.compare:
            import compare

            print("\n".join(compare.report(Path(args.compare[0]), Path(args.compare[1]), definition)))
            return 0
        if args.self_test:
            import selftest

            return selftest.run(definition, sys.modules[__name__], results / "self-test")
        import workloads

        if args.workload not in workloads.WORKLOADS + workloads.PROBES:
            parser.error(f"--workload must be one of {workloads.WORKLOADS + workloads.PROBES}")
        seconds = definition["run_seconds"] if args.seconds is None else args.seconds
        result = bench(args.workload, args.seed, seconds, bool(args.trace), definition, results)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(result["lines"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
