"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: `Tracer.install` replaces
public functions at the module attributes through which solarran calls
them, so the program itself is not edited. Each span keeps its name, start,
end, span id and parent id in memory; the traced run writes them out when
it ends. Hot functions get a call counter instead of a span.

`layer_metrics` turns one written trace into the per-layer metrics listed
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = s.duration - covered
    return out


# --- What a span or counter records about its call --------------------------
# Each annotator runs after its span has ended, inside a "trace.annotate"
# span of its own, so it inflates no layer's self time.

def _rows(args, kwargs, ret):
    return {"rows": len(ret)}


def _links(args, kwargs, ret):
    return {"links": len(ret),
            "feasible": sum(1 for link in ret.values() if link.feasible)}


def _design(args, kwargs, ret):
    users = args[1] if len(args) > 1 else kwargs["users"]
    return {"users": len(users), "covered": ret.covered_count,
            "active_cells": sum(1 for c in ret.cells if c.active)}


def _simulation(args, kwargs, ret):
    return {"station_minutes": len(ret.ledger["t"]),
            "ledger_bytes": sum(a.nbytes for a in ret.ledger.values())}


def _file_bytes(args, kwargs, ret):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


@dataclass(frozen=True)
class Wrap:
    module: str
    attr: str
    name: str
    annotate: Optional[Callable] = None
    counter: bool = False


# The attributes solarran calls through: cli.py and engine.py bind these
# names at import, so they are wrapped in the calling module's namespace.
STUDY_WRAPS = (
    Wrap("solarran.cli", "cmd_simulate", "cli.cmd_simulate"),
    Wrap("solarran.cli", "load_config", "scenario.load_config"),
    Wrap("solarran.cli", "load_weather_csv", "scenario.load_weather_csv", _rows),
    Wrap("solarran.cli", "synth_study_series", "scenario.synth_study_series"),
    Wrap("solarran.cli", "run_pair", "engine.run_pair"),
    Wrap("solarran.cli", "compute_metrics", "engine.compute_metrics"),
    Wrap("solarran.cli", "write_ledger_csv", "report.write_ledger_csv", _file_bytes),
    Wrap("solarran.cli", "write_metrics_json", "report.write_metrics_json"),
    Wrap("solarran.cli", "write_summary_csv", "report.write_summary_csv"),
    Wrap("solarran.cli", "write_timeseries_csvs", "report.write_timeseries_csvs"),
    Wrap("solarran.engine", "place_users", "scenario.place_users"),
    Wrap("solarran.engine", "greedy_design", "design.greedy_design", _design),
    Wrap("solarran.engine", "run_simulation", "engine.run_simulation", _simulation),
    Wrap("solarran.engine", "battery_step", "energy.battery_step", counter=True),
    Wrap("solarran.engine", "pv_power", "energy.pv_power", counter=True),
    Wrap("solarran.design", "enumerate_candidates", "design.enumerate_candidates", _links),
    Wrap("solarran.design", "link_feasible", "radio.link_feasible", counter=True),
    Wrap("solarran.design", "link_prb_split", "radio.link_prb_split", counter=True),
)

# design_sweep.py calls these through the solarran.scenario and
# solarran.design module objects.
SWEEP_WRAPS = (
    Wrap("solarran.scenario", "load_config", "scenario.load_config"),
    Wrap("solarran.scenario", "place_users", "scenario.place_users"),
    Wrap("solarran.design", "greedy_design", "design.greedy_design", _design),
    Wrap("solarran.design", "enumerate_candidates", "design.enumerate_candidates", _links),
    Wrap("solarran.design", "link_feasible", "radio.link_feasible", counter=True),
    Wrap("solarran.design", "link_prb_split", "radio.link_prb_split", counter=True),
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    notes: dict[int, dict] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def install(self, wraps) -> None:
        """Wrap every listed attribute that exists; note the missing ones."""
        for w in wraps:
            try:
                module = importlib.import_module(w.module)
                fn = getattr(module, w.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{w.module}.{w.attr}")
                continue
            self._restore.append((module, w.attr, fn))
            wrapped = self.count(fn, w.name) if w.counter else self.span(fn, w.name, w.annotate)
            setattr(module, w.attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def count(self, fn, name: str):
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def span(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._new_id()
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(name, start, end, sid, parent))
            if annotate is not None:
                a_start = time.perf_counter()
                try:
                    self.notes[sid] = annotate(args, kwargs, ret)
                except (AttributeError, KeyError, TypeError, OSError) as exc:
                    # A later program version may return another shape; the
                    # count is then missing, not the run.
                    note = f"{name} annotation: {type(exc).__name__}: {exc}"
                    if note not in self.absent:
                        self.absent.append(note)
                self.spans.append(Span("trace.annotate", a_start,
                                       time.perf_counter(), self._new_id(), parent))
            return ret
        return traced

    def to_dict(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "notes": {str(k): v for k, v in self.notes.items()},
                "counters": dict(self.counters),
                "absent": list(self.absent)}


# --- Per-layer metrics from a written trace ---------------------------------

LAYER_METRICS = (
    ("scenario.load_config.s", "s"),
    ("scenario.load_weather_csv.s", "s"),
    ("scenario.load_weather_csv.rows", "count"),
    ("scenario.synth_study_series.s", "s"),
    ("scenario.place_users.s", "s"),
    ("radio.link_evals", "count"),
    ("design.enumerate_candidates.s", "s"),
    ("design.enumerate_candidates.links", "count"),
    ("design.greedy_design.self_s", "s"),
    ("design.feasible_link_ratio", "ratio"),
    ("design.covered_ratio", "ratio"),
    ("design.active_cells", "count"),
    ("energy.battery_step.calls", "count"),
    ("energy.pv_power.calls", "count"),
    ("engine.run_simulation.s", "s"),
    ("engine.station_minutes", "count"),
    ("engine.us_per_station_minute", "us"),
    ("engine.run_pair.self_s", "s"),
    ("engine.compute_metrics.s", "s"),
    ("engine.ledger_mib", "MiB"),
    ("report.write_ledger_csv.s", "s"),
    ("report.ledger_bytes", "bytes"),
    ("report.ledger_mb_per_s", "MB/s"),
    ("report.write_timeseries_csvs.s", "s"),
    ("report.write_metrics_json.s", "s"),
    ("report.write_summary_csv.s", "s"),
    ("cli.cmd_simulate.self_s", "s"),
    ("op.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float,
                  cpu_s: float) -> dict[str, float]:
    """Per-layer values from one trace; a span that never ran reads 0."""
    spans = [Span(**s) for s in trace["spans"]]
    selfs = self_times(spans)
    notes = {int(k): v for k, v in trace["notes"].items()}
    counters = trace["counters"]
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    note_sum: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + selfs[s.span_id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in notes.get(s.span_id, {}).items():
            k = f"{s.name}.{key}"
            note_sum[k] = note_sum.get(k, 0) + value

    def t(name):
        return total.get(name, 0.0)

    def n(key):
        return note_sum.get(key, 0)

    station_minutes = n("engine.run_simulation.station_minutes")
    ledger_bytes = n("report.write_ledger_csv.bytes")
    designs = calls.get("design.greedy_design", 0)
    return {
        "scenario.load_config.s": t("scenario.load_config"),
        "scenario.load_weather_csv.s": t("scenario.load_weather_csv"),
        "scenario.load_weather_csv.rows": n("scenario.load_weather_csv.rows"),
        "scenario.synth_study_series.s": t("scenario.synth_study_series"),
        "scenario.place_users.s": t("scenario.place_users"),
        "radio.link_evals": (counters.get("radio.link_feasible", 0)
                             + counters.get("radio.link_prb_split", 0)),
        "design.enumerate_candidates.s": t("design.enumerate_candidates"),
        "design.enumerate_candidates.links": n("design.enumerate_candidates.links"),
        "design.greedy_design.self_s": self_total.get("design.greedy_design", 0.0),
        "design.feasible_link_ratio": _ratio(n("design.enumerate_candidates.feasible"),
                                             n("design.enumerate_candidates.links")),
        "design.covered_ratio": _ratio(n("design.greedy_design.covered"),
                                       n("design.greedy_design.users")),
        "design.active_cells": _ratio(n("design.greedy_design.active_cells"), designs),
        "energy.battery_step.calls": counters.get("energy.battery_step", 0),
        "energy.pv_power.calls": counters.get("energy.pv_power", 0),
        "engine.run_simulation.s": t("engine.run_simulation"),
        "engine.station_minutes": station_minutes,
        "engine.us_per_station_minute": _ratio(t("engine.run_simulation") * 1e6,
                                               station_minutes),
        "engine.run_pair.self_s": self_total.get("engine.run_pair", 0.0),
        "engine.compute_metrics.s": t("engine.compute_metrics"),
        "engine.ledger_mib": n("engine.run_simulation.ledger_bytes") / 2**20,
        "report.write_ledger_csv.s": t("report.write_ledger_csv"),
        "report.ledger_bytes": ledger_bytes,
        "report.ledger_mb_per_s": _ratio(ledger_bytes / 1e6, t("report.write_ledger_csv")),
        "report.write_timeseries_csvs.s": t("report.write_timeseries_csvs"),
        "report.write_metrics_json.s": t("report.write_metrics_json"),
        "report.write_summary_csv.s": t("report.write_summary_csv"),
        "cli.cmd_simulate.self_s": self_total.get("cli.cmd_simulate", 0.0),
        "op.cpu_s": cpu_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }


def span_shares(trace: dict) -> list[tuple[str, float, float]]:
    """(span name, total seconds, share of the root span) by total time."""
    spans = [Span(**s) for s in trace["spans"]]
    roots = [s for s in spans if s.parent_id is None and s.name == "bench.operation"]
    root = sum(s.duration for s in roots)
    total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
    return sorted(((name, secs, _ratio(secs, root)) for name, secs in total.items()),
                  key=lambda row: -row[1])
