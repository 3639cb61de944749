"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
measured-value lines on passing runs).  The criteria pin the toolkit's
quantitative contract: closed-form reproduction, the unit-speed and
parallel-sight-line invariants, flatness for constant fields, tensor
structure, lead-angle monotonicity, the maximum-principle certificate,
the second-order pursuit equation, competitor optimality, integrator
convergence, and CLI determinism.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from parnav import (
    ConstantField,
    ConstantVelocity,
    LinearField,
    NavMetric,
    NavMetricParams,
    Scenario,
    action_integral,
    berwald_coefficients,
    collinearity_defect,
    curve_from_arrays,
    euler_lagrange_residual,
    integrate_geodesic,
    lengths_over_lead_angles,
    monotonicity_check,
    nonmaneuvering_intercept,
    optimal_trajectory,
    pmp_check,
    pursuer_ode_residual,
    relative_course,
    reparametrize_unit_F,
    simulate,
    spray_coefficients,
)

GRID_RATIOS = (1.2, 1.5, 2.0, 3.0)
GRID_THETAS_DEG = (0.0, 30.0, 60.0, 120.0)
RANGE0 = 1000.0
TARGET_SPEED = 100.0
# small hit sphere so the truncation r_hit/r_0 = 1e-7 sits inside the 1e-6 budget
HIT_RADIUS = 1e-4

SHEAR_FIELD = LinearField([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid_runs():
    """All 16 grid engagements at dt = 1e-3, with the closed form and wall time."""
    runs = []
    t0 = time.perf_counter()
    for ratio in GRID_RATIOS:
        for deg in GRID_THETAS_DEG:
            theta0 = math.radians(deg)
            sol = nonmaneuvering_intercept(RANGE0, TARGET_SPEED, theta0, ratio=ratio)
            scenario = Scenario.nonmaneuvering(
                RANGE0, TARGET_SPEED, theta0, ratio=ratio, hit_radius=HIT_RADIUS
            )
            runs.append((ratio, deg, simulate(scenario), sol))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reference_optimal():
    scenario = Scenario.nonmaneuvering(RANGE0, TARGET_SPEED, math.pi / 3.0, ratio=2.0)
    metric = NavMetric(NavMetricParams(scenario.v_m, 0.0), ConstantField(scenario.program.vector))
    return scenario, metric, optimal_trajectory(scenario, step=0.025)


@pytest.fixture(scope="module")
def shear_metric_fixture():
    metric = NavMetric(NavMetricParams(2.0, 0.0), SHEAR_FIELD)
    x0 = np.array([-1.6, 0.9])
    return metric, x0, metric.unit_vector(x0, -x0)


def test_c01_sweep_reproduces_closed_form(grid_runs):
    runs, elapsed = grid_runs
    worst = 0.0
    for ratio, deg, res, sol in runs:
        assert res.termination == "intercept", f"K={ratio} theta0={deg}: {res.termination}"
        worst = max(worst, abs(res.t_f - sol.t_f) / sol.t_f)
    _report(
        "c01 closed-form sweep",
        worst <= 1e-6 and elapsed < 10.0,
        f"16/16 intercepts, worst rel err {worst:.3e} <= 1e-6, {elapsed:.2f}s < 10s",
    )


def test_c02_unit_speed_invariant_after_reparametrization(grid_runs):
    runs, _ = grid_runs
    worst = 0.0
    for ratio, deg, res, _ in runs:
        rep = reparametrize_unit_F(res)
        metric = NavMetric(
            NavMetricParams(res.scenario.v_m, float(res.delta[0])),
            ConstantField(res.scenario.program.vector),
        )
        F = metric.F_many(-rep.r, rep.v_m - rep.v_t)
        worst = max(worst, float(np.max(np.abs(F - 1.0))))
    _report(
        "c02 unit-speed invariant",
        worst <= 1e-8,
        f"max |F - 1| after reparametrization {worst:.3e} <= 1e-8",
    )


def test_c03_sight_line_stays_parallel(grid_runs):
    runs, _ = grid_runs
    worst_lam = worst_col = 0.0
    for _, _, res, _ in runs:
        worst_lam = max(worst_lam, float(np.max(np.abs(res.lam - res.lam[0]))))
        defect = collinearity_defect(res)
        worst_col = max(worst_col, float(np.nanmax(defect)))
    _report(
        "c03 parallel sight line",
        worst_lam <= 1e-6 and worst_col <= 1e-9,
        f"max |lam - lam0| {worst_lam:.3e} <= 1e-6, max collinearity {worst_col:.3e} <= 1e-9",
    )


def test_c04_constant_field_is_flat(reference_optimal):
    _, metric, _ = reference_optimal
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=2) * 400.0
        y = rng.normal(size=2) * 120.0
        if not metric.value(x, y).in_domain:
            continue
        worst = max(worst, float(np.max(np.abs(spray_coefficients(metric, x, y)))))
        worst = max(worst, float(np.max(np.abs(berwald_coefficients(metric, x, y)))))
    x0 = np.array([-RANGE0, 0.0])
    y0 = metric.unit_vector(x0, -x0)
    curve = integrate_geodesic(metric, x0, y0, horizon=5.0, step=1e-2)
    chord = x0[None, :] + curve.times[:, None] * y0[None, :]
    deviation = float(np.max(np.linalg.norm(curve.positions - chord, axis=1)))
    _report(
        "c04 constant field is flat",
        worst <= 1e-5 and deviation <= 1e-6 * RANGE0,
        f"max spray/Berwald {worst:.3e} <= 1e-5, chord deviation {deviation:.3e} <= {1e-6 * RANGE0:.1e}",
    )


def test_c05_tensor_structure_over_random_samples():
    metric = NavMetric(NavMetricParams(2.0, 0.1), ConstantField([0.3, 0.1]))
    rng = np.random.default_rng(42)
    n = 0
    min_eig = math.inf
    worst_euler = worst_homog = 0.0
    while n < 10000:
        x = rng.normal(size=2)
        y = rng.normal(size=2) * 2.0
        value = metric.value(x, y)
        if not value.in_domain or np.linalg.norm(y) < 1e-3:
            continue
        n += 1
        g = metric.fundamental_tensor(x, y)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
        worst_euler = max(worst_euler, abs(float(y @ g @ y) - value.value**2) / value.value**2)
        c = float(rng.uniform(0.1, 10.0))
        worst_homog = max(
            worst_homog, abs(metric.F(x, c * y) - c * value.value) / (c * value.value)
        )
    _report(
        "c05 tensor structure",
        min_eig > 0.0 and worst_euler <= 1e-6 and worst_homog <= 1e-12,
        f"10^4 samples: min eig {min_eig:.3f} > 0, "
        f"quadratic-form defect {worst_euler:.3e} <= 1e-6, homogeneity {worst_homog:.3e} <= 1e-12",
    )


def test_c06_zero_lead_is_pointwise_and_lengthwise_minimal(reference_optimal):
    metric = NavMetric(NavMetricParams(2.0, 0.0), ConstantField([0.3, 0.1]))
    report = monotonicity_check(metric, n_samples=10000, seed=0, y_scale=2.0)
    _, ref_metric, _ = reference_optimal
    x0 = np.array([-RANGE0, 0.0])
    y0 = ref_metric.unit_vector(x0, -x0)
    t = np.linspace(0.0, 6.0, 121)
    chord = curve_from_arrays(
        ref_metric, t, x0[None, :] + t[:, None] * y0[None, :], np.repeat(y0[None, :], t.size, axis=0)
    )
    L0 = lengths_over_lead_angles(ref_metric, chord, np.array([0.0]))[0]
    lengths = lengths_over_lead_angles(ref_metric, chord, np.linspace(-1.2, 1.2, 50))
    grid_ok = bool(np.all(lengths >= L0 - 1e-12))
    _report(
        "c06 zero-lead minimality",
        report.max_violation <= 0.0 and report.n_pairs == 10000 and grid_ok,
        f"pointwise max(F_0 - F_d) {report.max_violation:.3e} <= 0 over {report.n_pairs} pairs, "
        f"50-angle length grid min excess {float(np.min(lengths - L0)):.3e} >= 0",
    )


def test_c07_optimal_course_satisfies_maximum_principle(
    reference_optimal, shear_metric_fixture
):
    _, metric, curve = reference_optimal
    flat = pmp_check(metric, curve)

    shear_metric, x0, y0 = shear_metric_fixture
    # the shear course is a geodesic of its own metric, hence an optimal course
    shear_curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    shear = pmp_check(shear_metric, shear_curve)

    base_el = float(np.max(euler_lagrange_residual(metric, curve, energy_scale=1.0)))
    amp = 0.01 * RANGE0
    T = curve.times[-1]
    normal = np.array([-curve.velocities[0, 1], curve.velocities[0, 0]])
    normal /= np.linalg.norm(normal)
    bump = np.sin(math.pi * curve.times / T)
    dbump = (math.pi / T) * np.cos(math.pi * curve.times / T)
    wiggled = curve_from_arrays(
        metric,
        curve.times,
        curve.positions + amp * bump[:, None] * normal[None, :],
        curve.velocities + amp * dbump[:, None] * normal[None, :],
    )
    wiggled_el = float(np.max(euler_lagrange_residual(metric, wiggled, energy_scale=1.0)))
    ratio = wiggled_el / max(base_el, 1e-300)

    ok = (
        flat.passed
        and shear.passed
        and flat.max_hamiltonian <= 1e-4
        and shear.max_hamiltonian <= 1e-4
        and flat.max_el_residual <= 1e-4
        and shear.max_el_residual <= 1e-4
        and ratio >= 10.0
    )
    _report(
        "c07 maximum-principle certificate",
        ok,
        f"flat |H| {flat.max_hamiltonian:.2e}, EL {flat.max_el_residual:.2e}; "
        f"shear |H| {shear.max_hamiltonian:.2e}, EL {shear.max_el_residual:.2e} (all <= 1e-4); "
        f"1% wiggle raises EL x{ratio:.1f} >= 10",
    )


def test_c08_second_order_pursuit_equation_flat(reference_optimal):
    scenario, metric, _ = reference_optimal
    res = simulate(scenario)
    sl = slice(0, res.n_nodes - 1, 50)  # uniform sub-grid; drop the refined final node
    t = res.times[sl]
    course = curve_from_arrays(metric, t, -res.r[sl], (res.v_m - res.v_t)[sl])
    pursuer = curve_from_arrays(metric, t, res.r_m[sl], res.v_m[sl])
    target = curve_from_arrays(metric, t, res.r_t[sl], res.v_t[sl])
    worst = {}
    for variant in ("quadratic", "affine"):
        resid = pursuer_ode_residual(
            metric, pursuer, target, course, deltas=res.delta[sl], variant=variant
        )
        worst[variant] = float(np.max(resid))
    ok = all(v <= 1e-4 for v in worst.values())
    _report(
        "c08 second-order pursuit equation",
        ok,
        f"max node residual quadratic {worst['quadratic']:.3e}, "
        f"affine {worst['affine']:.3e} (both <= 1e-4)",
    )


def _competitor_excess(metric, curve, n_competitors=50, seed=0):
    """Smallest travel-time margin of endpoint-fixed sinusoidal perturbations."""
    rng = np.random.default_rng(seed)
    T = float(curve.times[-1])
    scale = float(np.linalg.norm(curve.positions[0]))
    t = curve.times
    worst = math.inf
    for _ in range(n_competitors):
        mode = int(rng.integers(1, 4))
        amp = scale * rng.uniform(0.005, 0.02) * rng.choice([-1.0, 1.0])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        bump = np.sin(mode * math.pi * t / T)
        dbump = (mode * math.pi / T) * np.cos(mode * math.pi * t / T)
        competitor = curve_from_arrays(
            metric,
            t,
            curve.positions + amp * bump[:, None] * direction[None, :],
            curve.velocities + amp * dbump[:, None] * direction[None, :],
        )
        worst = min(worst, action_integral(metric, competitor) - T)
    return worst


def test_c09_optimal_time_beats_perturbed_competitors(reference_optimal):
    _, metric, curve = reference_optimal
    margins = {"flat": _competitor_excess(metric, curve, seed=1)}

    still = Scenario.stationary(RANGE0, 200.0)
    still_metric = NavMetric(NavMetricParams(200.0, 0.0), ConstantField([0.0, 0.0]))
    margins["stationary"] = _competitor_excess(still_metric, optimal_trajectory(still, step=0.025), seed=2)

    shear_metric = NavMetric(NavMetricParams(2.0, 0.0), SHEAR_FIELD)
    shear_scenario = Scenario(
        r0=np.array([1.6, -0.9]),
        program=ConstantVelocity(0.1, 0.0),
        v_m=2.0,
        hit_radius=0.05,
    )
    shear_curve = optimal_trajectory(shear_scenario, field=SHEAR_FIELD)
    margins["shear"] = _competitor_excess(shear_metric, shear_curve, seed=3)

    ok = all(v >= -1e-9 for v in margins.values())
    _report(
        "c09 competitor optimality",
        ok,
        "min travel-time excess over 50 perturbed curves: "
        + ", ".join(f"{k} {v:+.3e}" for k, v in margins.items()),
    )


def test_c10_rk4_endpoint_convergence(shear_metric_fixture):
    metric, x0, y0 = shear_metric_fixture
    horizon = 2.0
    reference = integrate_geodesic(metric, x0, y0, horizon, step=horizon / 512.0)
    errors = []
    for n in (8, 16, 32):
        curve = integrate_geodesic(metric, x0, y0, horizon, step=horizon / n)
        errors.append(float(np.linalg.norm(curve.positions[-1] - reference.positions[-1])))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    _report(
        "c10 integrator convergence",
        r1 >= 12.0 and r2 >= 12.0,
        f"endpoint error ratios per halving {r1:.1f}, {r2:.1f} (both >= 12)",
    )


def test_c11_cli_determinism_and_exit_codes(tmp_path):
    doc = {
        "schema_version": 1,
        "scenario": {
            "r0": [1000.0, 0.0],
            "target": {"type": "constant", "speed": 100.0, "heading_deg": 60.0},
            "ratio": 2.0,
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "parnav.cli", *argv], capture_output=True, text=True
        )

    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        proc = run("simulate", str(path), "--out", str(d / "run.csv"), "--quiet")
        assert proc.returncode == 0
        outputs.append((d / "run.csv").read_bytes() + (d / "run.csv.record.json").read_bytes())
    deterministic = outputs[0] == outputs[1]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "extra": 1}))
    code_bad = run("simulate", str(bad), "--out", str(tmp_path / "x.csv")).returncode

    infeasible = dict(doc)
    infeasible["scenario"] = dict(doc["scenario"])
    infeasible["scenario"]["target"] = {"type": "constant", "speed": 100.0, "heading_deg": 90.0}
    infeasible["scenario"]["ratio"] = 0.5
    inf_path = tmp_path / "infeasible.json"
    inf_path.write_text(json.dumps(infeasible))
    code_inf = run("simulate", str(inf_path), "--out", str(tmp_path / "y.csv")).returncode

    unreachable = dict(doc)
    unreachable["scenario"] = dict(doc["scenario"])
    unreachable["scenario"]["target"] = {"type": "constant", "speed": 100.0, "heading_deg": 0.0}
    unreachable["scenario"]["ratio"] = 0.8
    unreachable["scenario"]["t_max"] = 10.0
    unr_path = tmp_path / "unreachable.json"
    unr_path.write_text(json.dumps(unreachable))
    code_unr = run("optimal", str(unr_path), "--out", str(tmp_path / "z.csv")).returncode

    ok = deterministic and code_bad == 2 and code_inf == 3 and code_unr == 4
    _report(
        "c11 CLI determinism and exit codes",
        ok,
        f"byte-identical reruns {deterministic}, malformed->{code_bad} (2), "
        f"infeasible->{code_inf} (3), unreachable->{code_unr} (4)",
    )
