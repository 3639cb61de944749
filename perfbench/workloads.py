"""Seeded scenario generators and per-op oracles for the benchmark workloads.

One op is one ``parnav`` CLI invocation.  :func:`make_ops` turns a
workload name and a seed into a list of :class:`Op` (scenario document,
CLI mode, extra arguments and the closed-form facts the oracle needs);
the program under test sees only the scenario files written from them.
:func:`check` judges one finished op from its exit code, run record and
output table, and returns ``None`` when the op is correct or a one-line
reason when it is not.

Op kinds are laid out on a fixed cycle, so every run holds the same mix
of cheap and expensive kinds.  The cost of one op depends strongly on
its draw (nodes to contact, line-of-sight chase length, shots to hit),
and a run completes too few ops to average that out.  So each op's
parameters are drawn once from ``DESIGN_SEED`` and the run seed turns
the whole op (start, target motion, field) by its own random rotation:
every input number changes with the seed, while the work per op, which
the navigation metric is rotation invariant for, does not.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

# Workloads the benchmark definition lists, plus a probe that is runnable
# by name but kept out of the definition because a known defect of the
# program fails some of its ops (see README.md, "Known defect").
WORKLOADS = ("engage", "certify-flat", "shoot-shear")
PROBES = ("certify-small-radius",)

# Engagement kinds in the order ops cycle through them: constant 2-d 40%,
# constant 3-d 20%, piecewise 20%, waypoints 20%.
_ENGAGE_CYCLE = ("c2", "c2", "c3", "pw", "wp", "c2", "c2", "c3", "wp", "pw")
# Every third certify op is a 3-d engagement.
_CERTIFY_CYCLE = (2, 2, 3)

ENGAGE_T_MAX = 20.0
CERTIFY_T_MAX = 120.0
DESIGN_SEED = 20110107


@dataclass
class Op:
    """One CLI call: its mode, scenario document and oracle facts."""

    index: int
    mode: str
    doc: dict
    extra: tuple = ()
    kind: str = ""
    expect: dict = field(default_factory=dict)

    def argv(self, scenario_path: str, out_path: str) -> list:
        return [self.mode, scenario_path, "--out", out_path, "--quiet", *self.extra]


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode()), int(index)])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _rotation(rng, dim: int) -> np.ndarray:
    """A uniformly random proper rotation of the plane or of space."""
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _heading(v: np.ndarray) -> float:
    return math.degrees(math.atan2(v[1], v[0]))


def _doc(scenario: dict, metric: dict | None = None) -> dict:
    doc = {"schema_version": 1, "scenario": scenario}
    if metric is not None:
        doc["metric"] = metric
    return doc


# ---------------------------------------------------------------------------
# engage: parallel-navigation simulations
# ---------------------------------------------------------------------------


def _constant_expectation(r0: np.ndarray, v: np.ndarray, K: float, hit: float, dt: float):
    """Closed-form outcome of a constant-target engagement, or None if it
    sits so close to a decision boundary that the oracle could not tell."""
    rng0 = float(np.linalg.norm(r0))
    speed = float(np.linalg.norm(v))
    cos_th = float(r0 @ v) / (rng0 * speed)
    sin_th = math.sqrt(max(0.0, 1.0 - cos_th * cos_th))
    if abs(sin_th - K) < 1e-6:
        return None
    if sin_th >= K:
        return {"exit": 3, "termination": "infeasible-control"}
    closing = speed * (math.sqrt(K * K - sin_th * sin_th) - cos_th)
    if closing <= 1e-9 * speed:
        return {"exit": 0, "termination": "timeout"}
    t_hit = (rng0 - hit) / closing
    if abs(t_hit - ENGAGE_T_MAX) < 10.0 * dt:
        return None
    if t_hit > ENGAGE_T_MAX:
        return {"exit": 0, "termination": "timeout"}
    return {"exit": 0, "termination": "intercept", "t_f": t_hit}


def _engage_op(i: int, R2: np.ndarray, R3: np.ndarray) -> Op:
    """Design op ``i``, turned by the seed's rotations (``R2`` planar, ``R3`` spatial)."""
    kind = _ENGAGE_CYCLE[i % len(_ENGAGE_CYCLE)]
    rng = _rng("engage", DESIGN_SEED, i)
    while True:
        rng0 = float(rng.uniform(200.0, 5000.0))
        v_t = float(rng.uniform(50.0, 300.0))
        dt = float(rng.choice([1e-3, 2e-3]))
        hit = _log_uniform(rng, 1e-4, 1.0)
        sc = {"dt": dt, "hit_radius": hit, "t_max": ENGAGE_T_MAX}
        extra = ()
        if kind in ("c2", "c3"):
            K = float(rng.uniform(0.6, 3.0))
            R = R2 if kind == "c2" else R3
            dim = R.shape[0]
            r0 = R @ (rng0 * _unit(rng, dim))
            v = R @ (v_t * _unit(rng, dim))
            if kind == "c2":
                target = {"type": "constant", "speed": v_t, "heading_deg": _heading(v)}
            else:
                target = {"type": "constant", "velocity": v.tolist()}
            expect = _constant_expectation(r0, v, K, hit, dt)
            if expect is None:
                continue
            if K > 1.0 and rng.uniform() < 0.25:
                extra = ("--unit-speed",)
                expect["unit_speed"] = True
            sc.update(r0=r0.tolist(), target=target, ratio=K)
        else:
            K = float(rng.uniform(1.2, 3.0))
            # later legs stay at least 1.2x slower than the pursuer, so the
            # parallel-navigation law stays feasible and closing throughout
            top = min(300.0, K * v_t / 1.2)
            r0 = R2 @ (rng0 * _unit(rng, 2))
            if kind == "pw":
                legs = []
                for k in range(int(rng.integers(2, 5))):
                    speed = v_t if k == 0 else float(rng.uniform(50.0, top))
                    legs.append({"duration": float(rng.uniform(0.5, 4.0)), "speed": speed,
                                 "heading_deg": _heading(R2 @ _unit(rng, 2))})
                target = {"type": "piecewise", "legs": legs}
            else:
                pts = [r0]
                for _ in range(int(rng.integers(2, 5))):
                    pts.append(pts[-1] + rng.uniform(100.0, 800.0) * (R2 @ _unit(rng, 2)))
                target = {"type": "waypoints", "points": [p.tolist() for p in pts], "speed": v_t}
            sc.update(r0=r0.tolist(), target=target, ratio=K)
            expect = {"maneuvering": True}
        return Op(i, "simulate", _doc(sc), extra, kind, expect)


# ---------------------------------------------------------------------------
# certify-flat: optimality certificate on constant fields
# ---------------------------------------------------------------------------


def _certify_op(workload: str, i: int, rot: np.random.Generator) -> Op:
    """Design op ``i``, turned by a rotation drawn from ``rot``."""
    dim = _CERTIFY_CYCLE[i % len(_CERTIFY_CYCLE)]
    rng = _rng(workload, DESIGN_SEED, i)
    K = float(rng.uniform(2.2, 4.0))
    theta0 = math.radians(float(rng.uniform(0.0, 150.0)))
    rng0 = float(rng.uniform(200.0, 5000.0))
    v_t = float(rng.uniform(50.0, 300.0))
    hit = _log_uniform(rng, 1e-3, 0.1) if workload == "certify-small-radius" else 0.5
    R = _rotation(rot, dim)
    e1, e2 = R[:, 0], R[:, 1]
    r0 = rng0 * e1
    v = v_t * (math.cos(theta0) * e1 + math.sin(theta0) * e2)
    # t_max clears the slowest line-of-sight chase the draws allow (83 s)
    sc = {"r0": r0.tolist(), "target": {"type": "constant", "velocity": v.tolist()},
          "ratio": K, "hit_radius": hit, "t_max": CERTIFY_T_MAX}
    # zero-lead metric length of the straight chord x0 = -r0 -> origin,
    # scaled to the part of it outside the hit sphere
    F0 = rng0 * rng0 / (K * v_t * rng0 - float(r0 @ v))
    expect = {"t_f": F0 * (rng0 - hit) / rng0}
    return Op(i, "pmp-check", _doc(sc), (), f"{dim}d", expect)


# ---------------------------------------------------------------------------
# shoot-shear: geodesic shooting in linear fields
# ---------------------------------------------------------------------------


def _shoot_op(i: int, R: np.ndarray) -> Op:
    """Design op ``i`` with the whole problem (start, field) turned by ``R``."""
    rng = _rng("shoot-shear", DESIGN_SEED, i)
    grad = rng.uniform(-0.3, 0.3, size=(2, 2))
    base = rng.uniform(-0.15, 0.15, size=2)
    r0 = float(rng.uniform(1.0, 2.0)) * _unit(rng, 2)
    hit = _log_uniform(rng, 5e-3, 5e-2)
    r0, base, grad = R @ r0, R @ base, R @ grad @ R.T
    field_doc = {"type": "linear", "base": base.tolist(), "gradient": grad.tolist()}
    sc = {"r0": r0.tolist(), "target": {"type": "constant", "velocity": base.tolist()},
          "pursuer_speed": 2.0, "hit_radius": hit, "t_max": 10.0}
    expect = {"v_m": 2.0, "base": base.tolist(), "gradient": grad.tolist()}
    return Op(i, "optimal", _doc(sc, {"field": field_doc}), (), "shear", expect)


def make_ops(workload: str, seed: int, n: int) -> list:
    """The first ``n`` ops of a workload for one seed (deterministic)."""
    if workload == "engage":
        ops = []
        for i in range(n):
            rng = _rng(workload, seed, i)
            ops.append(_engage_op(i, _rotation(rng, 2), _rotation(rng, 3)))
        return ops
    if workload in ("certify-flat", "certify-small-radius"):
        return [_certify_op(workload, i, _rng(workload, seed, i)) for i in range(n)]
    if workload == "shoot-shear":
        return [_shoot_op(i, _rotation(_rng(workload, seed, i), 2)) for i in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str) -> Op:
    """A cheap op on the workload's code path, run once before timing.

    The solver modes get a coarse ``--step`` so the warm-up touches every
    layer without paying for a full 513-node course.
    """
    op = make_ops(workload, 0, 1)[0]
    if op.mode == "pmp-check":
        op.extra = ("--step", repr(op.expect["t_f"] / 16.0))
    elif op.mode == "optimal":
        op.extra = ("--step", "0.03125")
    return op


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _table(path, usecols=None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)


def _header(path) -> list:
    with open(path) as fh:
        return fh.readline().strip().split(",")


def check(op: Op, code: int, record: dict | None, report: dict | None, out_path) -> str | None:
    """Judge one finished op; ``None`` means correct."""
    if op.mode == "simulate":
        return _check_simulate(op, code, record, out_path)
    if op.mode == "pmp-check":
        return _check_pmp(op, code, report)
    return _check_optimal(op, code, record, out_path)


def _check_simulate(op: Op, code: int, record, out_path) -> str | None:
    exp = op.expect
    if exp.get("maneuvering"):
        if code not in (0, 3):
            return f"exit {code}, expected 0 or 3"
    elif code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}"
    if record is None:
        return "no run record"
    s = record["summary"]
    hit = op.doc["scenario"]["hit_radius"]
    if exp.get("maneuvering"):
        if s["intercept"]:
            if not s["final_range"] <= hit * (1.0 + 1e-9):
                return f"final range {s['final_range']!r} outside hit radius {hit!r}"
            header = _header(out_path)
            lam = _table(out_path, usecols=[header.index("lam")])[:, 0]
            lam = lam[np.isfinite(lam)]
            drift = float(np.max(np.abs(np.remainder(lam - lam[0] + math.pi, 2.0 * math.pi) - math.pi)))
            if not drift <= 1e-6:
                return f"sight-line drift {drift:.3e} > 1e-6"
        return None
    if s["termination"] != exp["termination"]:
        return f"termination {s['termination']}, expected {exp['termination']}"
    if exp["termination"] == "timeout" and s["t_f"] != ENGAGE_T_MAX:
        return f"timeout at t_f={s['t_f']!r}, expected t_max={ENGAGE_T_MAX!r}"
    if exp["termination"] == "intercept" and not _rel(s["t_f"], exp["t_f"]) <= 1e-6:
        return f"t_f {s['t_f']!r} vs closed form {exp['t_f']!r}"
    if exp.get("unit_speed"):
        header = _header(out_path)
        F = _table(out_path, usecols=[header.index("F")])[:, 0]
        defect = float(np.max(np.abs(F - 1.0)))
        if not defect <= 1e-8:
            return f"unit-speed defect {defect:.3e} > 1e-8"
    return None


def _check_pmp(op: Op, code: int, report) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if report is None:
        return "no report"
    if report["report"]["passed"] is not True:
        return "certificate did not pass"
    if not _rel(report["t_f"], op.expect["t_f"]) <= 1e-9:
        return f"t_f {report['t_f']!r} vs F_0 chord time {op.expect['t_f']!r}"
    return None


def _check_optimal(op: Op, code: int, record, out_path) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if record is None:
        return "no run record"
    s = record["summary"]
    hit = op.doc["scenario"]["hit_radius"]
    if not s["final_range"] <= hit * (1.0 + 1e-9):
        return f"final range {s['final_range']!r} outside hit radius {hit!r}"
    if not s["max_unit_defect"] <= 1e-6:
        return f"unit defect {s['max_unit_defect']:.3e} > 1e-6"
    el = el_residual(op, _table(out_path))
    if not el <= 1e-4:
        return f"Euler-Lagrange residual {el:.3e} > 1e-4"
    return None


def el_residual(op: Op, table: np.ndarray) -> float:
    """Max Euler-Lagrange defect (``L = F^2``) of a course table ``t, x, v, F``."""
    from parnav.geodesics import CurveRecord, euler_lagrange_residual
    from parnav.metric import LinearField, NavMetric, NavMetricParams

    exp = op.expect
    metric = NavMetric(NavMetricParams(exp["v_m"], 0.0), LinearField(exp["base"], exp["gradient"]))
    curve = CurveRecord(table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5])
    return float(np.max(euler_lagrange_residual(metric, curve, energy_scale=1.0)))
