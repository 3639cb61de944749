"""Command-line front end.

Four modes on one scenario-file format: ``simulate`` (parallel-navigation
run), ``optimal`` (time-optimal course by geodesic shooting),
``pmp-check`` (optimality certificate for that course), and ``sweep``
(closed-form vs. simulated interception time over a K x theta0 grid).
All outputs are deterministic: floats are serialized as ``repr`` writes
them (the shortest round-trip form; tables get those bytes from the numpy
kernel in :mod:`parnav._floatfmt`), JSON keys are sorted, and no
timestamps or absolute paths are embedded.  Every run also writes a small
record JSON with a digest of the canonicalized scenario for provenance;
the table and the record are put in place together or not at all.

Exit codes: 0 success, 2 bad input, 3 infeasible control, 4 unreachable
target, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    InfeasibleControlError,
    InvalidInputError,
    OutOfDomainError,
    ParnavError,
    PartialCurveError,
    UnreachableError,
)
from .kinematics import (
    _MAX_STEPS,
    _length,
    ConstantVelocity,
    PiecewiseConstant,
    Scenario,
    Waypoints,
    collinearity_defect,
    reparametrize_unit_F,
    simulate,
)
from .metric import ConstantField, LinearField, NavMetric, NavMetricParams
from .optimal import nonmaneuvering_intercept, optimal_trajectory, pmp_check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_UNREACHABLE = 4
EXIT_NUMERICAL = 5

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Strict scenario parsing
# ---------------------------------------------------------------------------


def _err(path: str, msg: str) -> InvalidInputError:
    return InvalidInputError(f"{path}: {msg}")


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise _err(path, "must be a JSON object")
    for k in required:
        if k not in obj:
            raise _err(path, f"missing required key {k!r}")
    for k in obj:
        if k not in required and k not in optional:
            raise _err(f"{path}.{k}", "unknown key")


def _number(obj, path: str, positive: bool = False, nonneg: bool = False) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _err(path, "must be a number")
    try:
        v = float(obj)
    except OverflowError:  # an integer literal beyond the floats
        v = math.inf
    if not math.isfinite(v):
        raise _err(path, "must be finite")
    if positive and not v > 0.0:
        raise _err(path, "must be positive")
    if nonneg and v < 0.0:
        raise _err(path, "must be non-negative")
    return v


def _vector(obj, path: str, sizes=(2, 3)) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) not in sizes:
        raise _err(path, f"must be a list of length {' or '.join(map(str, sizes))}")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def _parse_target(obj, path: str):
    _check_keys(obj, path, ("type",), ("speed", "heading_deg", "velocity", "legs", "points"))
    kind = obj["type"]
    if kind == "constant":
        if "velocity" in obj:
            for k in ("speed", "heading_deg"):
                if k in obj:
                    raise _err(f"{path}.{k}", "not allowed together with 'velocity'")
            return ConstantVelocity.from_vector(_vector(obj["velocity"], f"{path}.velocity"))
        for k in ("speed", "heading_deg"):
            if k not in obj:
                raise _err(path, f"constant target needs {k!r} (or 'velocity')")
        return ConstantVelocity(
            _number(obj["speed"], f"{path}.speed", nonneg=True),
            math.radians(_number(obj["heading_deg"], f"{path}.heading_deg")),
        )
    if kind == "piecewise":
        if "legs" not in obj or not isinstance(obj["legs"], list) or not obj["legs"]:
            raise _err(f"{path}.legs", "must be a non-empty list")
        legs = []
        for i, leg in enumerate(obj["legs"]):
            lp = f"{path}.legs[{i}]"
            _check_keys(leg, lp, ("duration", "speed", "heading_deg"))
            legs.append(
                (
                    _number(leg["duration"], f"{lp}.duration", positive=True),
                    _number(leg["speed"], f"{lp}.speed", nonneg=True),
                    math.radians(_number(leg["heading_deg"], f"{lp}.heading_deg")),
                )
            )
        return PiecewiseConstant(legs)
    if kind == "waypoints":
        if "points" not in obj or not isinstance(obj["points"], list) or len(obj["points"]) < 2:
            raise _err(f"{path}.points", "must be a list of at least two points")
        pts = [_vector(p, f"{path}.points[{i}]", sizes=(2,)) for i, p in enumerate(obj["points"])]
        if "speed" not in obj:
            raise _err(path, "waypoints target needs 'speed'")
        return Waypoints(pts, _number(obj["speed"], f"{path}.speed", positive=True))
    raise _err(f"{path}.type", f"unknown target type {kind!r}")


def _parse_field(obj, path: str, dim: int):
    _check_keys(obj, path, ("type",), ("velocity", "base", "gradient"))
    kind = obj["type"]
    if kind == "constant":
        if "velocity" not in obj:
            raise _err(path, "constant field needs 'velocity'")
        return ConstantField(_vector(obj["velocity"], f"{path}.velocity", sizes=(dim,)))
    if kind == "linear":
        for k in ("base", "gradient"):
            if k not in obj:
                raise _err(path, f"linear field needs {k!r}")
        base = _vector(obj["base"], f"{path}.base", sizes=(dim,))
        grad = obj["gradient"]
        if not isinstance(grad, list) or len(grad) != dim:
            raise _err(f"{path}.gradient", f"must be a {dim}x{dim} matrix")
        rows = [_vector(r, f"{path}.gradient[{i}]", sizes=(dim,)) for i, r in enumerate(grad)]
        return LinearField(base, np.stack(rows))
    raise _err(f"{path}.type", f"unknown field type {kind!r}")


def parse_scenario_text(text: str):
    """Parse and validate a scenario file; returns (scenario, metric_cfg, canonical)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, an integer of over 4,300 digits, or nested too deep
        raise InvalidInputError(f"scenario file cannot be read as JSON: {exc}") from exc
    _check_keys(doc, "$", ("schema_version", "scenario"), ("metric",))
    if isinstance(doc["schema_version"], bool) or doc["schema_version"] != SCHEMA_VERSION:
        raise _err("$.schema_version", f"expected {SCHEMA_VERSION}")
    sc = doc["scenario"]
    _check_keys(
        sc,
        "$.scenario",
        ("r0", "target"),
        ("ratio", "pursuer_speed", "dt", "hit_radius", "t_max"),
    )
    r0 = _vector(sc["r0"], "$.scenario.r0")
    program = _parse_target(sc["target"], "$.scenario.target")
    if ("ratio" in sc) == ("pursuer_speed" in sc):
        raise _err("$.scenario", "give exactly one of 'ratio' and 'pursuer_speed'")
    if "pursuer_speed" in sc:
        v_m = _number(sc["pursuer_speed"], "$.scenario.pursuer_speed", positive=True)
    else:
        ratio = _number(sc["ratio"], "$.scenario.ratio", positive=True)
        if program.initial_speed <= 0.0:
            raise _err("$.scenario.ratio", "needs a moving target; give 'pursuer_speed' instead")
        v_m = ratio * program.initial_speed
    kw = {}
    if "dt" in sc:
        kw["dt"] = _number(sc["dt"], "$.scenario.dt", positive=True)
    if "hit_radius" in sc:
        kw["hit_radius"] = _number(sc["hit_radius"], "$.scenario.hit_radius", positive=True)
    if "t_max" in sc:
        kw["t_max"] = _number(sc["t_max"], "$.scenario.t_max", positive=True)
    scenario = Scenario(r0=r0, program=program, v_m=v_m, **kw)
    steps = scenario.t_max / scenario.dt
    if steps > _MAX_STEPS:
        raise _err("$.scenario.dt", f"t_max/dt = {steps:.3g} exceeds the step budget of {_MAX_STEPS:.3g}")

    metric_cfg = {"field": None}
    if "metric" in doc:
        m = doc["metric"]
        _check_keys(m, "$.metric", (), ("field",))
        if "field" in m:
            metric_cfg["field"] = _parse_field(m["field"], "$.metric.field", scenario.dim)

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return scenario, metric_cfg, canonical


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fstr(x: float) -> str:
    return repr(float(x))


_CSV_ROWS = 2048  # rows per block of text: a cold engage pass faults in 750-1,100 pages an op, 2,900-3,100 at 4096 rows


def write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write ``table`` under ``header``, one row per line, each float as its ``repr``.

    The file is opened once and written in blocks of ``_CSV_ROWS`` rows,
    so the text of at most one block is held at a time.  In each block,
    each column is cut into runs of equal bit patterns, so ``-0.0`` and
    NaN keep theirs, with a run starting at the block's first row; one
    :func:`parnav._floatfmt.format_floats` call renders the head of every
    run of all columns.  Each cell is copied as one item into a slot one
    byte wider than its column's longest text in the block, whose last
    byte is the separator; the zero bytes that pad the texts are deleted
    before the block is written."""
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        if table.size:
            for a in range(0, table.shape[0], _CSV_ROWS):
                f.write(_csv_block(table[a : a + _CSV_ROWS]))


def _csv_block(block: np.ndarray) -> bytearray:
    """The CSV lines of the rows of ``block``."""
    from ._floatfmt import format_floats  # here, so that runs writing no table do not import it

    rows, n_cols = block.shape
    cols = block.T
    starts = np.empty(cols.shape, dtype=bool)  # where a run of equal bit patterns starts
    starts[:, 0] = True
    bits = cols.view(np.int64)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
    chars, lengths = format_floats(cols[starts])  # run heads, column by column
    runs = np.zeros(n_cols + 1, dtype=np.intp)
    np.cumsum(starts.sum(axis=1), out=runs[1:])
    widths = (np.maximum.reduceat(lengths, runs[:-1]) + 1).tolist()
    slots = np.cumsum([0] + widths).tolist()
    runs = runs.tolist()
    text = bytearray(rows * slots[-1])
    for j, w in enumerate(widths):
        # the separator after the column's longest text; the zeros after the others are deleted
        chars[runs[j] : runs[j + 1], w - 1] = ord("\n") if j == n_cols - 1 else ord(",")
        cells = np.ndarray((rows,), dtype=f"V{w}", buffer=text, offset=slots[j], strides=(slots[-1],))
        texts = np.ndarray((runs[j + 1] - runs[j],), dtype=f"V{w}", buffer=chars, offset=32 * runs[j], strides=(32,))
        if len(texts) in (1, rows):  # a column of one run, or of one run a row, is its texts
            cells[...] = texts
        else:  # each run's text over the run's length
            cells[...] = texts.repeat(np.diff(np.flatnonzero(starts[j]), append=rows))
    return text.translate(None, b"\0")


def _jsonable(obj):
    """``obj`` with its non-finite floats as None: records hold only dicts, strings, bools, ints and floats."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _axes(dim: int) -> str:
    return "xyz"[:dim]


def sim_table(result) -> tuple[list[str], np.ndarray]:
    dim = result.r.shape[1]
    tcol = "s" if result.parameter_rate is not None else "t"
    header = [tcol]
    for name in ("r", "rm", "rt", "vm", "vt"):
        header += [f"{name}_{c}" for c in _axes(dim)]
    header += ["lam", "theta", "delta", "F"]
    if result.parameter_rate is not None:
        header.append("dsdt")
    return header, result.table


def curve_table(curve) -> tuple[list[str], np.ndarray]:
    dim = curve.dim
    header = ["t"] + [f"x_{c}" for c in _axes(dim)] + [f"v_{c}" for c in _axes(dim)] + ["F"]
    return header, np.column_stack([curve.times, curve.positions, curve.velocities, curve.F_values])


def _write_outputs(args, mode: str, canonical: str, summary: dict, write_table) -> None:
    """Write the table (``write_table(path)``) and the run record, both or neither.

    Each is written to a temporary name beside its target; the targets
    are replaced only once both writes have succeeded, and a record whose
    table cannot be put in place is taken back.
    """
    out = Path(args.out)
    rec = Path(args.record) if args.record else Path(str(args.out) + ".record.json")
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "parnav", "version": __version__},
        "mode": mode,
        "scenario_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "table": out.name,
        "summary": summary,
    }
    tmp_out, tmp_rec = (p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (out, rec))
    try:
        write_table(tmp_out)
        write_json(tmp_rec, record)
        os.replace(tmp_rec, rec)
        try:
            os.replace(tmp_out, out)
        except OSError:
            rec.unlink()
            raise
    finally:
        tmp_out.unlink(missing_ok=True)
        tmp_rec.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def _load(args):
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"scenario file is not valid UTF-8: {exc}") from exc
    return parse_scenario_text(text)


def _cmd_simulate(args) -> int:
    scenario, _, canonical = _load(args)
    result = simulate(scenario)
    if args.unit_speed:
        result = reparametrize_unit_F(result)
    header, table = sim_table(result)
    defect = collinearity_defect(result)
    finite = defect[np.isfinite(defect)]
    summary = {
        "termination": result.termination,
        "intercept": result.intercept,
        "t_f": result.t_f,
        "n_nodes": result.n_nodes,
        "final_range": _length(result.r[-1]),
        "max_collinearity_defect": float(np.max(finite)) if finite.size else None,
    }
    _write_outputs(args, "simulate", canonical, summary, lambda path: write_csv(path, header, table))
    if not args.quiet:
        print(f"simulate: {result.termination} at t_f={_fstr(result.t_f)} ({result.n_nodes} nodes)")
    if result.termination == "infeasible-control":
        return EXIT_INFEASIBLE
    if result.termination == "domain-exit":
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_optimal(args) -> int:
    scenario, metric_cfg, canonical = _load(args)
    curve = optimal_trajectory(scenario, metric_cfg["field"], step=args.step)
    header, table = curve_table(curve)
    summary = {
        "t_f": float(curve.times[-1]),
        "n_nodes": curve.n_nodes,
        "final_range": _length(curve.positions[-1]),
        "max_unit_defect": float(np.max(np.abs(curve.F_values - 1.0))),
    }
    _write_outputs(args, "optimal", canonical, summary, lambda path: write_csv(path, header, table))
    if not args.quiet:
        print(f"optimal: reached hit sphere at t_f={_fstr(curve.times[-1])} ({curve.n_nodes} nodes)")
    return EXIT_OK


def _cmd_pmp_check(args) -> int:
    scenario, metric_cfg, canonical = _load(args)
    curve = optimal_trajectory(scenario, metric_cfg["field"], step=args.step)
    metric = NavMetric(NavMetricParams(scenario.v_m), metric_cfg["field"] or ConstantField(scenario.program.vector))
    report = pmp_check(metric, curve)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "report": report.summary(),
        "t_f": float(curve.times[-1]),
        "n_nodes": curve.n_nodes,
    }
    _write_outputs(args, "pmp-check", canonical, report.summary(), lambda path: write_json(path, doc))
    if not args.quiet:
        print(f"pmp-check: passed={report.passed} max_adjoint={report.max_adjoint_residual:.3e}")
    if not report.passed:
        print("numerical failure: the course fails its optimality certificate (see the report)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _parse_grid(text: str) -> tuple[list[float], list[float]]:
    parts = [p for p in text.split(";") if p]
    grid = {}
    for part in parts:
        if "=" not in part:
            raise InvalidInputError(f"grid: expected name=v1,v2,... in {part!r}")
        name, _, vals = part.partition("=")
        name = name.strip()
        if name not in ("K", "theta0_deg"):
            raise InvalidInputError(f"grid: unknown axis {name!r} (expected K, theta0_deg)")
        try:
            grid[name] = [float(v) for v in vals.split(",") if v.strip()]
        except ValueError as exc:
            raise InvalidInputError(f"grid: bad number in {part!r}") from exc
        if not grid[name]:
            raise InvalidInputError(f"grid: axis {name!r} is empty")
        if not all(math.isfinite(v) for v in grid[name]):
            raise InvalidInputError(f"grid: non-finite value in {part!r}")
    for name in ("K", "theta0_deg"):
        if name not in grid:
            raise InvalidInputError(f"grid: missing axis {name!r}")
    if not all(K > 0.0 for K in grid["K"]):
        raise InvalidInputError("grid: every speed ratio K must be positive")
    return grid["K"], grid["theta0_deg"]


def _cmd_sweep(args) -> int:
    scenario, _, canonical = _load(args)
    if not isinstance(scenario.program, ConstantVelocity):
        raise InvalidInputError("sweep needs a constant-velocity target")
    speed = scenario.program.initial_speed
    if speed <= 0.0:
        raise InvalidInputError("sweep needs a moving target")
    range0 = _length(scenario.r0)
    ks, thetas = _parse_grid(args.grid)
    if not all(math.isfinite(K * speed) for K in ks):
        raise InvalidInputError("grid: every pursuer speed K * |v_T| must lie within the floats")

    header = ["K", "theta0_deg", "delta0", "t_f_closed", "t_f_sim", "rel_err", "status"]
    lines = [",".join(header)]
    worst = 0.0
    hits = 0
    for K in ks:
        for th_deg in thetas:
            theta0 = math.radians(th_deg)
            cell = [_fstr(K), _fstr(th_deg)]
            try:
                sol = nonmaneuvering_intercept(range0, speed, theta0, ratio=K)
            except InfeasibleControlError:
                lines.append(",".join(cell + ["nan", "nan", "nan", "nan", "infeasible-control"]))
                continue
            except UnreachableError:
                lines.append(",".join(cell + ["nan", "nan", "nan", "nan", "unreachable"]))
                continue
            sub = Scenario.nonmaneuvering(
                range0, speed, theta0, ratio=K,
                dt=scenario.dt, hit_radius=scenario.hit_radius, t_max=scenario.t_max,
            )
            result = simulate(sub)
            if result.intercept:
                hits += 1
                # closed form hits the hit sphere, not the origin
                t_closed = (range0 - scenario.hit_radius) / sol.closing_speed
                rel = abs(result.t_f - t_closed) / t_closed
                worst = max(worst, rel)
                lines.append(",".join(cell + [_fstr(sol.delta), _fstr(t_closed), _fstr(result.t_f), _fstr(rel), result.termination]))
            else:
                lines.append(",".join(cell + [_fstr(sol.delta), "nan", _fstr(result.t_f), "nan", result.termination]))
    summary = {"cells": len(ks) * len(thetas), "hits": hits, "worst_rel_err": worst}
    text = "\n".join(lines) + "\n"
    _write_outputs(args, "sweep", canonical, summary, lambda path: path.write_text(text))
    if not args.quiet:
        print(f"sweep: {hits}/{len(ks) * len(thetas)} interceptions, worst rel err {worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``parnav`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="parnav", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", required=True, help="output table/report path")
        p.add_argument("--record", default=None, help="run-record path (default: OUT.record.json)")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("simulate", help="integrate the parallel-navigation engagement")
    common(p)
    p.add_argument("--unit-speed", action="store_true", help="write the unit-F reparametrized table")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("optimal", help="time-optimal course by geodesic shooting")
    common(p)
    p.add_argument("--step", type=float, default=None, help="integration step for the course")
    p.set_defaults(fn=_cmd_optimal)

    p = sub.add_parser("pmp-check", help="optimality certificate for the optimal course")
    common(p)
    p.add_argument("--step", type=float, default=None, help="integration step for the course")
    p.set_defaults(fn=_cmd_pmp_check)

    p = sub.add_parser("sweep", help="closed form vs simulation over a K x theta0 grid")
    common(p)
    p.add_argument("--grid", required=True, help='e.g. "K=1.2,1.5,2,3;theta0_deg=0,30,60,120"')
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except OSError as exc:  # unreadable scenario, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except InfeasibleControlError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    except UnreachableError as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        code = EXIT_UNREACHABLE
    except (ConvergenceError, OutOfDomainError, PartialCurveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except ParnavError as exc:  # any toolkit error not mapped above
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
