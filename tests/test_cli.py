"""Command-line interface: schema validation, exit codes, deterministic output."""

import contextlib
import csv
import dataclasses
import io
import json
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parnav import (
    ConvergenceError,
    InvalidInputError,
    cli,
    optimal,
    optimal_trajectory,
    reparametrize_unit_F,
    simulate,
)
from tests.conftest import CLOSING
from tests.draws import SPACE, WAYPOINTS, document, extreme_twins
from tests.reference import csv_text, curve_rows, sim_rows


def scenario_doc(**overrides):
    doc = {
        "schema_version": 1,
        "scenario": {
            "r0": [1000.0, 0.0],
            "target": {"type": "constant", "speed": 100.0, "heading_deg": 60.0},
            "ratio": 2.0,
        },
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- parsing ------------------------------------------------------------------


def test_parse_scenario_roundtrip(tmp_path):
    doc = scenario_doc()
    scenario, metric_cfg, canonical = cli.parse_scenario_text(json.dumps(doc))
    assert scenario.v_m == pytest.approx(200.0)
    assert scenario.v_m / scenario.program.initial_speed == pytest.approx(2.0)
    assert metric_cfg["field"] is None
    # canonical form is key-sorted and whitespace-free: insertion order is gone
    assert canonical == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_parse_rejects_unknown_key():
    doc = scenario_doc()
    doc["scenario"]["speed_of_light"] = 3e8
    with pytest.raises(InvalidInputError, match=r"\$\.scenario.*unknown key"):
        cli.parse_scenario_text(json.dumps(doc))
    # the certificate runs at zero lead, so a metric lead angle is not an input
    doc = scenario_doc(metric={"delta_deg": 5.0})
    with pytest.raises(InvalidInputError, match=r"\$\.metric\.delta_deg: unknown key"):
        cli.parse_scenario_text(json.dumps(doc))


def test_parse_rejects_missing_schema_version():
    with pytest.raises(InvalidInputError, match="schema_version"):
        cli.parse_scenario_text(json.dumps({"scenario": {}}))


def test_parse_rejects_ratio_and_speed_together():
    doc = scenario_doc()
    doc["scenario"]["pursuer_speed"] = 200.0
    with pytest.raises(InvalidInputError, match="exactly one"):
        cli.parse_scenario_text(json.dumps(doc))


def test_parse_piecewise_and_field():
    doc = {
        "schema_version": 1,
        "scenario": {
            "r0": [500.0, 0.0],
            "target": {
                "type": "piecewise",
                "legs": [
                    {"duration": 2.0, "speed": 50.0, "heading_deg": 10.0},
                    {"duration": 3.0, "speed": 40.0, "heading_deg": -45.0},
                ],
            },
            "pursuer_speed": 150.0,
        },
        "metric": {
            "field": {"type": "linear", "base": [0.1, 0.0], "gradient": [[0.0, 0.45], [0.0, 0.0]]},
        },
    }
    scenario, metric_cfg, _ = cli.parse_scenario_text(json.dumps(doc))
    assert len(scenario.program.legs) == 2
    assert metric_cfg["field"] is not None


def test_parse_rejects_a_step_budget_over_1e7():
    doc = scenario_doc()
    doc["scenario"].update(dt=1e-9, t_max=60.0)
    with pytest.raises(InvalidInputError, match=r"\$\.scenario\.dt: .*step budget"):
        cli.parse_scenario_text(json.dumps(doc))
    doc["scenario"].update(dt=1e-5, t_max=100.0)  # exactly 1e7 steps
    scenario, _, _ = cli.parse_scenario_text(json.dumps(doc))
    assert scenario.t_max / scenario.dt == 1e7


def test_parse_bad_leg_duration():
    doc = {
        "schema_version": 1,
        "scenario": {
            "r0": [500.0, 0.0],
            "target": {"type": "piecewise", "legs": [{"duration": -1.0, "speed": 5.0, "heading_deg": 0.0}]},
            "pursuer_speed": 150.0,
        },
    }
    with pytest.raises(InvalidInputError, match=r"legs\[0\]\.duration"):
        cli.parse_scenario_text(json.dumps(doc))


# --- simulate ------------------------------------------------------------------


def test_simulate_writes_table_and_record(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "run.csv"
    code = cli.main(["simulate", str(path), "--out", str(out), "--quiet"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r_x,r_y,rm_x,rm_y,rt_x,rt_y,vm_x,vm_y,vt_x,vt_y,lam,theta,delta,F"
    record = json.loads((tmp_path / "run.csv.record.json").read_text())
    assert record["mode"] == "simulate"
    assert record["summary"]["termination"] == "intercept"
    assert record["summary"]["t_f"] == pytest.approx((1000.0 - 0.5) / CLOSING, rel=1e-9)
    assert len(record["scenario_digest"]) == 64


def test_simulate_unit_speed_table(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "unit.csv"
    code = cli.main(["simulate", str(path), "--out", str(out), "--unit-speed", "--quiet"])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("s,")
    assert header.endswith(",dsdt")


def test_simulate_deterministic_bytes(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        out = d / "run.csv"
        assert cli.main(["simulate", str(path), "--out", str(out), "--quiet"]) == 0
        outs.append((out.read_bytes(), (d / "run.csv.record.json").read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_infeasible_exit_code(tmp_path):
    doc = scenario_doc()
    doc["scenario"]["target"]["heading_deg"] = 90.0
    doc["scenario"]["ratio"] = 0.5
    path = write_scenario(tmp_path, doc)
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 3


def test_malformed_scenario_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1}')
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    code = cli.main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("case", ["scenario-is-directory", "scenario-not-utf8", "out-is-directory"])
def test_unreadable_or_unwritable_file_exit_code(tmp_path, case):
    scenario = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "x.csv"
    if case == "scenario-is-directory":
        scenario = tmp_path / "dir.json"
        scenario.mkdir()
    elif case == "scenario-not-utf8":
        scenario.write_bytes(b"\xff\xfe" + scenario.read_bytes())
    else:
        out.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "parnav.cli", "simulate", str(scenario), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


_REFERENCE_TEXT = json.dumps(scenario_doc()["scenario"])
# case: (mode, scenario file text); each case runs in one of the four modes, which share the parser
_UNREADABLE = {
    "integer-beyond-the-floats": ("simulate", _REFERENCE_TEXT.replace("1000.0", "1" + "0" * 400)),
    "integer-of-5000-digits": ("optimal", _REFERENCE_TEXT.replace("1000.0", "1" + "0" * 5000)),
    "nested-100000-deep": ("pmp-check", "[" * 100_000 + "]" * 100_000),
    "boolean-schema-version": ("sweep", None),
}


@pytest.mark.parametrize("case", _UNREADABLE)
def test_unreadable_scenario_exits_2_with_one_error_line(tmp_path, case):
    mode, scenario = _UNREADABLE[case]
    path = tmp_path / "scenario.json"
    if scenario is None:
        path.write_text(f'{{"schema_version": true, "scenario": {_REFERENCE_TEXT}}}')
    else:
        path.write_text(f'{{"schema_version": 1, "scenario": {scenario}}}')
    extra = ["--grid", "K=2;theta0_deg=0"] if mode == "sweep" else []
    argv = [sys.executable, "-m", "parnav.cli", mode, str(path), "--out", str(tmp_path / "x.out"), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("simulate", []),
        ("optimal", []),
        ("pmp-check", ["--step", "0.05"]),
        ("sweep", ["--grid", "K=2;theta0_deg=0"]),
    ],
)
def test_unwritable_record_leaves_no_table(tmp_path, capsys, mode, extra):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "table.out"
    record = tmp_path / "record-dir"
    record.mkdir()
    code = cli.main([mode, str(path), "--out", str(out), "--record", str(record), "--quiet", *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["record-dir", "scenario.json"]
    assert not any(record.iterdir())


def test_unwritable_table_leaves_no_record(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "table-dir"
    out.mkdir()
    assert cli.main(["simulate", str(path), "--out", str(out), "--quiet"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "table-dir"]
    assert not any(out.iterdir())


# --- table bytes -----------------------------------------------------------------

_SHEAR = {"type": "linear", "base": [0.1, 0.0], "gradient": [[0.0, 0.45], [0.0, 0.0]]}
_REFERENCE_SCENARIO = scenario_doc()["scenario"]
# case: (mode, scenario, extra CLI flags, metric field); simulate cases run at dt = 0.01
_TABLE_CASES = {
    "constant-2d": ("simulate", _REFERENCE_SCENARIO, (), None),
    "constant-3d": ("simulate", {
        "r0": [800.0, -300.0, 250.0], "target": {"type": "constant", "velocity": [60.0, 70.0, -20.0]},
        "ratio": 2.5}, (), None),
    "piecewise": ("simulate", {
        "r0": [900.0, 200.0],
        "target": {"type": "piecewise", "legs": [
            {"duration": 1.5, "speed": 80.0, "heading_deg": 30.0},
            {"duration": 2.0, "speed": 60.0, "heading_deg": -100.0},
            {"duration": 3.0, "speed": 90.0, "heading_deg": 170.0}]},
        "ratio": 2.0}, (), None),
    "waypoints": ("simulate", {
        "r0": [700.0, 0.0],
        "target": {"type": "waypoints", "points": [[700.0, 0.0], [900.0, 300.0], [600.0, 700.0]], "speed": 90.0},
        "ratio": 2.2}, (), None),
    "unit-speed": ("simulate", _REFERENCE_SCENARIO, ("--unit-speed",), None),
    "infeasible": ("simulate", {
        "r0": [1000.0, 0.0], "target": {"type": "constant", "speed": 100.0, "heading_deg": 90.0},
        "ratio": 0.5}, (), None),
    "optimal-shear": ("optimal", {
        "r0": [1.6, -0.9], "target": {"type": "constant", "velocity": [0.1, 0.0]},
        "pursuer_speed": 2.0, "hit_radius": 0.05}, (), _SHEAR),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_table_bytes_match_the_row_wise_format(tmp_path, case):
    mode, scenario, extra, field = _TABLE_CASES[case]
    doc = {"schema_version": 1, "scenario": {**scenario, **({"dt": 0.01} if mode == "simulate" else {})}}
    if field is not None:
        doc["metric"] = {"field": field}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "table.csv"
    code = cli.main([mode, str(path), "--out", str(out), "--quiet", *extra])
    assert code == (3 if case == "infeasible" else 0)

    scenario, metric_cfg, _ = cli.parse_scenario_text(json.dumps(doc))
    if mode == "optimal":
        header, rows = curve_rows(optimal_trajectory(scenario, metric_cfg["field"]))
    else:
        result = simulate(scenario)
        if extra:
            result = reparametrize_unit_F(result)
        header, rows = sim_rows(result)
    if case == "infeasible":
        assert np.isnan(rows[-1]).any()
    assert out.read_bytes() == csv_text(header, rows).encode()


# A small pool makes every column repeat values and bit patterns heavily.
_NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
_POOL = [0.0, -0.0, float("nan"), -float("nan"), _NAN_WITH_PAYLOAD, float("inf"), -float("inf"),
         5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 1e-300,
         1.0, -1.0, 0.1, 1.0 / 3.0, 2.0**53, 123456.789, 1e16, 1e-5]


@example(table=[[0.0], [-0.0], [0.0], [-0.0]])
@given(table=st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(st.sampled_from(_POOL), min_size=m, max_size=m), min_size=1, max_size=30)
))
def test_write_csv_matches_the_row_wise_writer(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{j}" for j in range(len(table[0]))]
    cli.write_csv(path, header, np.array(table, dtype=float))
    assert path.read_bytes() == csv_text(header, table).encode()


@given(block=st.integers(1, 4), table=st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.sampled_from(_POOL[:6]), min_size=m, max_size=m), min_size=1, max_size=14)
))
def test_write_csv_in_small_row_blocks_matches_the_row_wise_writer(tmp_path_factory, block, table):
    """Runs of -0.0, NaN payloads and infinities cross the edges of blocks of 1 to 4 rows."""
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{j}" for j in range(len(table[0]))]
    with mock.patch.object(cli, "_CSV_ROWS", block):
        cli.write_csv(path, header, np.array(table, dtype=float))
    assert path.read_bytes() == csv_text(header, table).encode()


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_write_csv_writes_every_row_of_whole_and_partial_blocks(tmp_path, rows):
    """Blocks of 3 rows: tables of k blocks, k blocks +- 1 row, one row and none."""
    pattern = [_NAN_WITH_PAYLOAD, -0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, -0.0, -0.0, 1e16, 1e16, 1e16]
    cells = [[pattern[0], pattern[i], pattern[(i + 1) // 3], 0.1 * i, 2.5] for i in range(rows)]
    table = np.array(cells).reshape(rows, 5)  # (0, 5) when there are no rows
    header = ["nan", "pattern", "thirds", "steps", "constant"]
    with mock.patch.object(cli, "_CSV_ROWS", 3):
        cli.write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_bytes() == csv_text(header, table.tolist()).encode()


def _timeout_run_peak_bytes_a_node(tmp_path, doc) -> float:
    """Traced peak of a ``simulate`` timeout run over its node count, which must reach 2e5."""
    doc["scenario"].update(ratio=0.5, dt=1e-4, t_max=20.0)  # the target outruns the pursuer
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        code = cli.main(["simulate", str(path), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    summary = json.loads((tmp_path / "run.csv.record.json").read_text())["summary"]
    out.unlink()
    assert code == 0 and summary["termination"] == "timeout"
    assert summary["n_nodes"] >= 200_000
    return peak / summary["n_nodes"]


def test_simulate_at_2e5_nodes_holds_under_400_bytes_a_node(tmp_path):
    """A timeout run that lays out 2e5 nodes holds one node table and the text of one block of rows."""
    doc = scenario_doc()
    doc["scenario"]["target"] = {"type": "constant", "speed": 100.0, "heading_deg": 0.0}
    assert _timeout_run_peak_bytes_a_node(tmp_path, doc) < 400


def test_3d_simulate_at_2e5_nodes_holds_under_400_bytes_a_node(tmp_path):
    """A 3-d run also holds the planar table it lifts: 15 and 20 floats a node, 280 bytes."""
    doc = scenario_doc()
    doc["scenario"].update(r0=[0.0, 600.0, 800.0], target={"type": "constant", "velocity": [0.0, 60.0, 80.0]})
    assert _timeout_run_peak_bytes_a_node(tmp_path, doc) < 400


# --- optimal / pmp-check ---------------------------------------------------------


def test_optimal_exit_and_time(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "opt.csv"
    code = cli.main(["optimal", str(path), "--out", str(out), "--quiet"])
    assert code == 0
    record = json.loads((tmp_path / "opt.csv.record.json").read_text())
    assert record["summary"]["t_f"] == pytest.approx((1000.0 - 0.5) / 150.0, rel=1e-9)
    assert record["summary"]["max_unit_defect"] < 1e-9


def test_optimal_unreachable_exit_code(tmp_path):
    doc = scenario_doc()
    doc["scenario"]["target"]["heading_deg"] = 0.0
    doc["scenario"]["ratio"] = 0.8
    doc["scenario"]["t_max"] = 10.0
    path = write_scenario(tmp_path, doc)
    code = cli.main(["optimal", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 4


@pytest.mark.parametrize("mode", ["optimal", "pmp-check"])
@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_solver_step_must_be_positive_and_finite(tmp_path, capsys, mode, step):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "x.out"
    code = cli.main([mode, str(path), "--out", str(out), "--step", step, "--quiet"])
    assert code == 2
    assert "step must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["optimal", "pmp-check"])
def test_solver_step_over_the_step_budget_exits_2_before_any_shot(tmp_path, monkeypatch, capsys, mode):
    def no_shot(*args):
        raise AssertionError("a geodesic was shot")

    monkeypatch.setattr(optimal, "_shoot", no_shot)
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "x.out"
    code = cli.main([mode, str(path), "--out", str(out), "--step", "1e-7", "--quiet"])
    assert code == 2
    assert "step budget" in capsys.readouterr().err
    assert not out.exists()


# finite inputs whose chord time, step or contact time overflows or underflows
_EXTREME_MAGNITUDES = {
    "range-overflows": {
        "r0": [1e300, 3.0], "target": {"type": "constant", "speed": 0.176, "heading_deg": 229.38},
        "pursuer_speed": 1.0, "hit_radius": 1.35e-5, "t_max": 2.19,
    },
    "step-underflows": {
        "r0": [-2.53, 1.0], "target": {"type": "constant", "speed": 2.21, "heading_deg": 221.39},
        "pursuer_speed": 1e308, "t_max": 1e-300,
    },
    "chord-time-underflows": {
        "r0": [1e-300, 2.116, -0.896], "target": {"type": "constant", "velocity": [0.136, -1e308, -2.1]},
        "pursuer_speed": 1.84, "hit_radius": 0.0676,
    },
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the refusal is the only note: numpy must not warn on the way
@pytest.mark.parametrize("mode", ["optimal", "pmp-check"])
@pytest.mark.parametrize("case", sorted(_EXTREME_MAGNITUDES))
def test_time_scales_that_overflow_or_underflow_exit_2(tmp_path, capsys, case, mode):
    path = write_scenario(tmp_path, {"schema_version": 1, "scenario": _EXTREME_MAGNITUDES[case]})
    out = tmp_path / "x.out"
    code = cli.main([mode, str(path), "--out", str(out), "--quiet"])
    assert code == 2
    assert "error: the course's time scales overflow or underflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r0", [[1.5e308, 1.5e308], [1.5e308, 0.0, 1.5e308]], ids=["2-d", "3-d"])
def test_range_beyond_the_floats_exits_2(tmp_path, capsys, r0):
    target = {"type": "constant", "velocity": [1.0, 0.0, 0.0][: len(r0)]}
    doc = {"schema_version": 1, "scenario": {"r0": r0, "target": target, "pursuer_speed": 2.0}}
    argv = ["simulate", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path / "run.csv"), "--quiet"]
    _assert_refused(tmp_path, capsys, argv, "within the floats")


def _assert_refused(tmp_path, capsys, argv, reason):
    """``parnav`` exits 2 on ``argv`` with one ``error:`` line naming ``reason``, and writes no file."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["simulate", "optimal"])
@pytest.mark.parametrize("scenario", [
    {"r0": [1000.0, 0.0], "target": {"type": "constant", "velocity": [1.5e308, 1.5e308]}, "ratio": 2.0},
    {"r0": [1000.0, 0.0, 0.0], "target": {"type": "constant", "velocity": [1.5e308, 0.0, 1.5e308]},
     "pursuer_speed": 1e308},
], ids=["2-d", "3-d"])
def test_target_velocity_beyond_the_floats_exits_2(tmp_path, capsys, mode, scenario):
    path = write_scenario(tmp_path, {"schema_version": 1, "scenario": scenario})
    argv = [mode, str(path), "--out", str(tmp_path / "x.out"), "--quiet"]
    _assert_refused(tmp_path, capsys, argv, "target velocity must lie within the floats")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_waypoint_leg_beyond_the_floats_exits_2(tmp_path, capsys):
    target = {"type": "waypoints", "points": [[1e308, 0.0], [-1e308, 0.0]], "speed": 1.0}
    doc = {"schema_version": 1, "scenario": {"r0": [1e308, 0.0], "target": target, "pursuer_speed": 2.0}}
    argv = ["simulate", str(write_scenario(tmp_path, doc)), "--out", str(tmp_path / "run.csv"), "--quiet"]
    _assert_refused(tmp_path, capsys, argv, "waypoint legs must lie within the floats")


def _simulate_quietly(scenario_doc, tmp, *extra):
    """``(exit code, record summary or None, table rows or None)`` of ``parnav simulate`` on ``scenario_doc``, with
    any ``RuntimeWarning`` raised as an error."""
    scenario, out = Path(tmp) / "twin.json", Path(tmp) / "twin.csv"
    scenario.write_text(json.dumps(scenario_doc))
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["simulate", str(scenario), "--out", str(out), "--quiet", *extra])
    if not out.exists():
        return code, None, None
    rows = list(csv.DictReader(out.open()))
    return code, json.loads(Path(str(out) + ".record.json").read_text())["summary"], rows


@settings(max_examples=100)
@given(pair=extreme_twins.strategy())
def test_extreme_magnitudes_exit_with_a_documented_code_and_write_repr(pair):
    """Lengths and speeds from 1e-300 to 1e300: every mode ends in a documented exit code, and every table it
    writes holds ``repr``'s bytes, which the float kernel leaves to ``repr`` itself for most of these values.
    ``simulate`` exits as on the unscaled twin, unless the scaled document is itself refused (a field gradient
    that overflows), and raises no warning."""
    draw, twin = pair
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "x.out"
        scenario.write_text(json.dumps(document(*draw)))
        for mode in ("simulate", "optimal", "pmp-check"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([mode, str(scenario), "--out", str(out), "--quiet"])
            assert code in (0, 2, 3, 4, 5), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if mode != "pmp-check" and out.exists():
                text = out.read_text()
                header, *lines = text.splitlines()
                assert text == csv_text(header.split(","), [[float(v) for v in line.split(",")] for line in lines])
            out.unlink(missing_ok=True)
        try:
            cli.parse_scenario_text(scenario.read_text())
        except InvalidInputError:
            return
        assert _simulate_quietly(document(*draw), tmp)[0] == _simulate_quietly(document(*twin), tmp)[0]


@pytest.mark.parametrize("unit_speed", [[], ["--unit-speed"]], ids=["t", "unit-speed"])
@pytest.mark.parametrize("lam", [1e-171, 1e-300, 1e160, 1e200])
def test_simulate_at_extreme_magnitudes_answers_as_its_twin(tmp_path, lam, unit_speed):
    # the squares of these speeds, lengths and their products underflow or overflow: no answer may depend on them
    def run(lam):
        doc = scenario_doc(scenario={"r0": [8.28 * lam, 21.2 * lam], "pursuer_speed": 7.41 * lam,
                                     "target": {"type": "constant", "velocity": [-8.23 * lam, -2.06 * lam]},
                                     "hit_radius": 0.5 * lam, "dt": 0.01, "t_max": 20.0})
        return _simulate_quietly(doc, tmp_path, *unit_speed)

    (code, summary, rows), (twin_code, twin_summary, twin_rows) = run(lam), run(1.0)
    assert (code, summary["termination"]) == (twin_code, twin_summary["termination"]) == (0, "intercept")
    assert [row["F"] for row in rows] == [row["F"] for row in twin_rows] == ["1.0"] * len(twin_rows)
    assert 0.0 < summary["max_collinearity_defect"] < 1e-15
    assert summary["final_range"] == pytest.approx(0.5 * lam, rel=1e-15)


# one engagement of each target form, with lengths and speeds times lam, so that its times do not change
_TWINS = {
    "ratio-heading": lambda lam: {"r0": [1000.0 * lam, 0.0], "ratio": 2.0, "hit_radius": 0.5 * lam,
                                  "target": {"type": "constant", "speed": 100.0 * lam, "heading_deg": 60.0}},
    "ratio-velocity": lambda lam: {"r0": [1000.0 * lam, 0.0], "ratio": 2.0, "hit_radius": 0.5 * lam,
                                   "target": {"type": "constant", "velocity": [50.0 * lam, 86.6 * lam]}},
    "waypoints": lambda lam: {"r0": (lam * WAYPOINTS.r0).tolist(), "pursuer_speed": lam * WAYPOINTS.v_m,
                              "hit_radius": 0.5 * lam,
                              "target": {"type": "waypoints", "speed": lam * WAYPOINTS.program.speed,
                                         "points": (lam * WAYPOINTS.program.points).tolist()}},
    "space": lambda lam: {"r0": (lam * SPACE.r0).tolist(), "pursuer_speed": lam * SPACE.v_m, "hit_radius": 0.5 * lam,
                          "target": {"type": "constant", "velocity": (lam * SPACE.program.vector).tolist()}},
    # |r0|'s sum of squares overflows or underflows at 1e+-200: the engagement plane takes |r0| at a power of two
    "space-on-an-axis": lambda lam: {"r0": [0.0, lam, lam], "pursuer_speed": 2.0 * lam, "hit_radius": 1e-100 * lam,
                                     "target": {"type": "constant", "velocity": [lam, 0.0, 0.0]}},
}


@pytest.mark.parametrize("lam", [1e-200, 1e-100, 1e200])  # at 1e-100 the plane's collinearity test is relative
@pytest.mark.parametrize("case", sorted(_TWINS))
def test_simulate_answers_as_its_twin_in_every_target_form(tmp_path, case, lam):
    (code, summary, rows), (twin_code, twin_summary, twin_rows) = (
        _simulate_quietly({"schema_version": 1, "scenario": _TWINS[case](k)}, tmp_path) for k in (lam, 1.0))
    assert (code, summary["termination"]) == (twin_code, twin_summary["termination"]) == (0, "intercept")
    assert len(rows) == len(twin_rows)
    assert summary["t_f"] == pytest.approx(twin_summary["t_f"], rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-200, 1e200])
def test_sweep_answers_as_its_twin(tmp_path, lam):
    def run(k):
        out = tmp_path / "sweep.csv"
        path = write_scenario(tmp_path, {"schema_version": 1, "scenario": _TWINS["ratio-heading"](k)})
        code = cli.main(["sweep", str(path), "--out", str(out), "--grid", "K=0.5,1.5,2;theta0_deg=0,60,150", "--quiet"])
        statuses = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        return code, json.loads(Path(str(out) + ".record.json").read_text())["summary"]["hits"], statuses

    code, hits, statuses = run(lam)
    assert (code, hits, statuses) == run(1.0)
    assert hits == statuses.count("intercept") > 0


def test_pmp_check_report(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "report.json"
    code = cli.main(["pmp-check", str(path), "--out", str(out), "--step", "0.05", "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_adjoint_residual"] < 1e-4


def test_pmp_check_exits_5_on_a_failed_verdict_after_writing_both_files(tmp_path, capsys, monkeypatch):
    def failing(metric, curve):
        return dataclasses.replace(optimal.pmp_check(metric, curve), passed=False)

    monkeypatch.setattr(cli, "pmp_check", failing)
    out, record = tmp_path / "report.json", tmp_path / "run.json"
    path = write_scenario(tmp_path, scenario_doc())
    code = cli.main(["pmp-check", str(path), "--out", str(out), "--record", str(record), "--step", "0.05", "--quiet"])
    assert code == 5
    assert json.loads(out.read_text())["report"]["passed"] is False
    assert json.loads(record.read_text())["summary"]["passed"] is False
    assert "optimality certificate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, scenario", [(["--step", "100"], {}), ([], {"hit_radius": 999.0})], ids=["step", "radius"]
)
def test_pmp_check_on_a_two_node_course_exits_2(tmp_path, capsys, extra, scenario):
    # the course is valid (t_f 6.66333 at --step 100), but its time derivatives need three nodes
    doc = scenario_doc()
    doc["scenario"].update(scenario)
    out = tmp_path / "report.json"
    code = cli.main(["pmp-check", str(write_scenario(tmp_path, doc)), "--out", str(out), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "smaller --step" in err and "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "report.json.record.json").exists()


# --- sweep -----------------------------------------------------------------------


def test_sweep_table(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", str(path), "--out", str(out), "--grid", "K=0.5,2;theta0_deg=0,90", "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,theta0_deg,delta0,t_f_closed,t_f_sim,rel_err,status"
    cells = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    assert cells[("0.5", "90.0")][-1] == "infeasible-control"
    ok = cells[("2.0", "0.0")]
    assert ok[-1] == "intercept"
    assert float(ok[5]) < 1e-9


def test_sweep_grid_validation(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    code = cli.main(
        ["sweep", str(path), "--out", str(tmp_path / "x.csv"), "--grid", "K=2", "--quiet"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "grid", ["K=2;theta0_deg=inf", "K=2;theta0_deg=nan", "K=inf;theta0_deg=0", "K=2,-inf;theta0_deg=0"]
)
def test_sweep_rejects_non_finite_grid_values(tmp_path, capsys, grid):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "x.csv"
    code = cli.main(["sweep", str(path), "--out", str(out), "--grid", grid, "--quiet"])
    assert code == 2
    assert "grid: non-finite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r0", [[1000.0, 0.0], [600.0, 0.0, 800.0]], ids=["2-d", "3-d"])
@pytest.mark.parametrize("grid, reason", [
    ("K=0,2;theta0_deg=0", "grid: every speed ratio K must be positive"),
    ("K=-1;theta0_deg=0", "grid: every speed ratio K must be positive"),
    ("K=1e308;theta0_deg=0", "grid: every pursuer speed K * |v_T| must lie within the floats"),
], ids=["zero", "negative", "overflow"])
def test_sweep_refuses_a_bad_speed_ratio_before_any_cell(tmp_path, capsys, monkeypatch, r0, grid, reason):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "nonmaneuvering_intercept", no_cell)
    target = {"type": "constant", "velocity": [100.0, 0.0, 0.0][: len(r0)]}
    path = write_scenario(tmp_path, {"schema_version": 1, "scenario": {"r0": r0, "target": target, "ratio": 2.0}})
    _assert_refused(tmp_path, capsys, ["sweep", str(path), "--out", str(tmp_path / "x.csv"), "--grid", grid], reason)


# --- numerical-failure mapping -----------------------------------------------------


def test_convergence_failure_exit_code(tmp_path, monkeypatch):
    def boom(scenario, field=None, step=None):
        raise ConvergenceError("no sign change while expanding the launch bracket")

    monkeypatch.setattr(cli, "optimal_trajectory", boom)
    path = write_scenario(tmp_path, scenario_doc())
    code = cli.main(["optimal", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 5


def test_shooting_failure_names_shots_and_best_miss(tmp_path, monkeypatch, capsys):
    def never_hits(metric, f, x0, phi, *rest):  # the aim at the origin is phi = 0 and misses least
        return optimal._Shot([], [], 0.5 + phi * phi, False, phi)

    monkeypatch.setattr(optimal, "_shoot", never_hits)
    path = write_scenario(tmp_path, scenario_doc(metric={"field": _SHEAR}))  # constant fields take no shot
    code = cli.main(["optimal", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 5
    err = capsys.readouterr().err
    assert f"in {optimal._MAX_SHOTS} shots; best |miss| 0.5 at launch angle 0 rad" in err


def _stationary_shear(r0, base, gradient):
    return {
        "schema_version": 1,
        "scenario": {"r0": r0, "target": {"type": "constant", "velocity": [0.0, 0.0]},
                     "pursuer_speed": 2.0, "hit_radius": 0.01, "t_max": 10.0},
        "metric": {"field": {"type": "linear", "base": base, "gradient": gradient}},
    }


# Shear fields whose geodesics to the target cross the non-convex part of the metric (1 + 2|b|^2 - 3s < 0),
# where RK4 loses unit F and shots are chaotic in the launch angle, so the test pins the exit code only:
# "nonconvex" once came back as an "optimal" course with max |F - 1| = 0.0351.  "off-unit" is draw 31 of
# default_rng(2026) in the ranges of tests/draws.py's `hard_shear`, but with the hit radius fixed at 0.01 rather
# than drawn, the first draw refused for unit F: its probe shots find no hitting angle, and the search at the
# course's own step returns a course with max |F - 1| = 8.95e-05 (with a bisection end point, 9.1e-05).
_NONCONVEX_SHEAR = {
    "nonconvex": _stationary_shear(
        [-0.27321809125983754, -2.59905423986704], [0.18536401952866788, -0.23155152629423187],
        [[-0.38049249454531753, 0.18879945050950697], [1.0682459731480611, -0.48577471011832263]]),
    "off-unit": _stationary_shear(
        [0.14230802464377074, 2.239622834400889], [-0.2339207286015504, 0.24955426468617098],
        [[-0.9174886080423732, -0.6363862092243601], [1.1807834350595947, -0.810651461950642]]),
}
# The earlier "off-unit" draw (a course with max |F - 1| = 0.0093), which the probe search solves with a unit course
_ONCE_OFF_UNIT_SHEAR = _stationary_shear(
    [-0.9375306831075645, -1.3558493900218187], [-0.275851994672138, -0.039014550843204376],
    [[-0.2346025873374019, -0.3343740506814262], [-0.41704665996107426, -0.27465643601244616]])


@pytest.mark.parametrize("mode", ["optimal", "pmp-check"])
@pytest.mark.parametrize("case", sorted(_NONCONVEX_SHEAR))
def test_course_off_unit_F_is_a_numerical_failure(tmp_path, capsys, case, mode):
    path = write_scenario(tmp_path, _NONCONVEX_SHEAR[case])
    code = cli.main([mode, str(path), "--out", str(tmp_path / "x.out"), "--quiet"])
    assert code == 5
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize("mode", ["optimal", "pmp-check"])
def test_course_once_off_unit_F_is_solved_with_a_unit_course(tmp_path, mode):
    out = tmp_path / "x.out"
    assert cli.main([mode, str(write_scenario(tmp_path, _ONCE_OFF_UNIT_SHEAR)), "--out", str(out), "--quiet"]) == 0
    if mode == "optimal":
        assert json.loads((tmp_path / "x.out.record.json").read_text())["summary"]["max_unit_defect"] <= 1e-9
    else:
        assert json.loads(out.read_text())["report"]["passed"] is True


def test_hitting_course_off_unit_F_names_the_defect(tmp_path, monkeypatch, capsys):
    real = optimal._flow_curve

    def stretched(metric, times, states):  # F is 1-homogeneous in the velocity: F = 1.001 on every node
        return real(metric, times, [(x1, x2, 1.001 * y1, 1.001 * y2) for x1, x2, y1, y2 in states])

    monkeypatch.setattr(optimal, "_flow_curve", stretched)
    mode, scenario, _, field = _TABLE_CASES["optimal-shear"]
    path = write_scenario(tmp_path, {"schema_version": 1, "scenario": scenario, "metric": {"field": field}})
    code = cli.main([mode, str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 5
    assert "the hitting geodesic is not unit-F parametrized (max |F - 1| = 0.001)" in capsys.readouterr().err


def test_domain_exit_exit_code(tmp_path, monkeypatch):
    real = cli.simulate

    def exits_domain(scenario):
        return dataclasses.replace(real(scenario), termination="domain-exit", intercept=False)

    monkeypatch.setattr(cli, "simulate", exits_domain)
    path = write_scenario(tmp_path, scenario_doc())
    code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
    assert code == 5


# --- console entry point -------------------------------------------------------------


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "parnav.cli", "simulate", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "intercept" in proc.stdout
    assert out.exists()
