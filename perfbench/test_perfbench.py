"""Self-tests of the benchmark's output checks and span tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import design_sweep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SMALL = {"users": {"count": 6},
         "nodes": {"layout": [{"id": 0, "x": 500.0, "y": 500.0},
                              {"id": 1, "x": 1500.0, "y": 1500.0},
                              {"id": 2, "x": 2500.0, "y": 2500.0}]},
         "simulation": {"runs": 1}}


def _simulate(tmp: Path) -> Path:
    from solarran import cli

    config = tmp / "small.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    out = tmp / "out"
    assert cli.main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def study(tmp_path_factory) -> Path:
    return _simulate(tmp_path_factory.mktemp("study"))


@pytest.fixture
def study_copy(study, tmp_path) -> Path:
    return Path(shutil.copytree(study, tmp_path / "copy"))


def test_study_checker_accepts_real_output(study):
    assert checks.check_study(study, 1) == []


def _rewrite_ledger_line(path: Path, line: int, column: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[line - 1].split(",")
    cells[header.index(column)] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checker_catches_corrupted_ledger_row(study_copy):
    _rewrite_ledger_line(study_copy / "ledger_0_pv.csv", 100, "consumed_wh", "1.5")
    problems = checks.check_study(study_copy, 1)
    assert any("consumed != drawn + pv_used on line 100" in p for p in problems)


def test_checker_catches_soc_above_capacity(study_copy):
    _rewrite_ledger_line(study_copy / "ledger_0_nopv.csv", 7, "soc_wh", "1000.0")
    problems = checks.check_study(study_copy, 1)
    assert any("outside [0, usable capacity] on line 7" in p for p in problems)


def test_checker_catches_decreasing_swap_count(study_copy):
    path = study_copy / "ledger_0_nopv.csv"
    last = len(path.read_text(encoding="utf-8").splitlines())
    _rewrite_ledger_line(path, last, "swaps", "0")
    problems = checks.check_study(study_copy, 1)
    assert any("decreases" in p for p in problems)


def test_checker_catches_stale_extra_file(study_copy):
    shutil.copy(study_copy / "ledger_0_pv.csv", study_copy / "ledger_1_pv.csv")
    assert checks.check_study(study_copy, 1) == ["unexpected output ledger_1_pv.csv"]


def test_checker_catches_missing_file(study_copy):
    (study_copy / "timeseries_winter.csv").unlink()
    assert checks.check_study(study_copy, 1) == ["missing output timeseries_winter.csv"]


def test_checker_catches_metrics_json_mismatch(study_copy):
    path = study_copy / "metrics.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["metrics"]["per_run"][0]["seasons"]["summer"]["arec_percent"] *= 1.001
    path.write_text(json.dumps(doc), encoding="utf-8")
    problems = checks.check_study(study_copy, 1)
    assert len(problems) == 1 and "run 0 summer: arec_percent" in problems[0]


class _FlakyWorkload:
    """Writes a valid-looking output whose metrics.json changes every run."""

    def command(self, inputs, seed, out_dir):
        code = ("import pathlib, sys, time; d = pathlib.Path(sys.argv[1]); "
                "d.mkdir(); (d / 'metrics.json').write_text(str(time.time_ns()))")
        return [sys.executable, "-c", code, str(out_dir)]

    def check(self, out_dir):
        return []


def test_repetitions_must_write_identical_metrics_json(tmp_path):
    ops, problems = run.run_operations(run.ChildRunner(), _FlakyWorkload(), {},
                                       0, 1e-9, tmp_path)
    assert len(ops) == run.MIN_OPS == 2
    assert problems == ["op 1: metrics.json differs from the first repetition"]


class _WrongWorkload:
    """Writes the same wrong output every run."""

    def __init__(self):
        self.checked = 0

    def command(self, inputs, seed, out_dir):
        code = ("import pathlib, sys; d = pathlib.Path(sys.argv[1]); "
                "d.mkdir(); (d / 'metrics.json').write_text('wrong')")
        return [sys.executable, "-c", code, str(out_dir)]

    def check(self, out_dir):
        self.checked += 1
        text = (out_dir / "metrics.json").read_text(encoding="utf-8")
        return [] if text == "right" else ["metrics.json is wrong"]


def test_identical_wrong_output_fails_every_repetition(tmp_path):
    workload = _WrongWorkload()
    ops, problems = run.run_operations(run.ChildRunner(), workload, {}, 0,
                                       1e-9, tmp_path)
    assert [op["problems"] for op in ops] == [["metrics.json is wrong"]] * run.MIN_OPS
    assert problems == [f"op {i}: metrics.json is wrong" for i in range(run.MIN_OPS)]
    assert workload.checked == 1


@pytest.fixture(scope="module")
def plans(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("designs")
    config = tmp / "default.json"
    config.write_text("{}", encoding="utf-8")
    design_sweep.run(str(config), 5, str(tmp / "out"))
    return tmp / "out"


def _edit_plans(plans: Path, tmp_path: Path, edit) -> Path:
    out = Path(shutil.copytree(plans, tmp_path / "copy"))
    doc = json.loads((out / "designs.json").read_text(encoding="utf-8"))
    edit(doc["snapshots"][0]["design"])
    (out / "designs.json").write_text(json.dumps(doc), encoding="utf-8")
    return out


def test_design_checker_accepts_real_plans(plans):
    assert checks.check_designs(plans) == []


def test_design_checker_catches_wrong_block_count(plans, tmp_path):
    def edit(plan):
        uid = next(iter(plan["assignment"]))
        plan["assignment"][uid][1] += 1
    problems = checks.check_designs(_edit_plans(plans, tmp_path, edit))
    assert any("plan says" in p and "link node" in p for p in problems)


def test_design_checker_catches_overload_and_count(plans, tmp_path):
    def edit(plan):
        nid = next(iter(plan["node_loads"]))
        plan["node_loads"][nid] = 10_000
        plan["covered_count"] += 1
    problems = checks.check_designs(_edit_plans(plans, tmp_path, edit))
    assert any("plan says 10000" in p for p in problems)
    assert any("covered_count" in p for p in problems)


def test_self_time_subtracts_merged_clipped_children():
    spans = [Span("root", 0.0, 10.0, 1, None),
             Span("a", 1.0, 3.0, 2, 1),
             Span("b", 2.0, 5.0, 3, 1),      # overlaps a: [1, 5] covered once
             Span("c", 9.0, 12.0, 4, 1),     # clipped to [9, 10]
             Span("a.inner", 1.5, 2.5, 5, 2)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nests_counts_and_reports_absent(monkeypatch):
    mod = types.ModuleType("pb_toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x) + mod.hot(x)

    mod.leaf, mod.outer, mod.hot = leaf, outer, (lambda x: x)
    monkeypatch.setitem(sys.modules, "pb_toy", mod)
    tracer = Tracer()
    tracer.install([tracing.Wrap("pb_toy", "outer", "toy.outer"),
                    tracing.Wrap("pb_toy", "leaf", "toy.leaf"),
                    tracing.Wrap("pb_toy", "hot", "toy.hot", counter=True),
                    tracing.Wrap("pb_toy", "gone", "toy.gone")])
    assert mod.outer(1) == 5
    tracer.uninstall()
    assert mod.leaf is leaf and mod.outer is outer
    assert tracer.absent == ["pb_toy.gone"]
    assert tracer.counters == {"toy.hot": 1}
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["toy.outer"]
    assert root.parent_id is None
    assert [s.parent_id for s in by_name["toy.leaf"]] == [root.span_id] * 2


def test_layer_metrics_of_a_traced_study(tmp_path):
    tracer = Tracer()
    tracer.install(tracing.STUDY_WRAPS)
    try:
        out = _simulate(tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    layers = tracing.layer_metrics(tracer.to_dict(), 2.0, 1.5, 0.5)
    station_minutes = 2 * 3 * 4 * 1440
    assert layers["engine.station_minutes"] == station_minutes
    assert layers["energy.battery_step.calls"] == station_minutes
    assert layers["energy.pv_power.calls"] == station_minutes // 2
    assert layers["radio.link_evals"] == 2 * layers["design.enumerate_candidates.links"]
    assert layers["design.enumerate_candidates.links"] == 3 * 6 * 3
    assert layers["report.ledger_bytes"] == sum(
        p.stat().st_size for p in out.glob("ledger_*.csv"))
    assert layers["trace.overhead_s"] == pytest.approx(0.5)
    assert layers["cli.cmd_simulate.self_s"] > 0
    assert set(layers) == {name for name, _ in tracing.LAYER_METRICS}
