"""solarran benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload study_default --seed 1 --seconds 30 --trace 0

Operations run one at a time, each in a fresh child process started from
this process, for --seconds of operation time; every output is checked
after its operation, outside the timed region. Set-up is measured in
separate fresh children. --trace 1 adds one traced operation and reports
per-layer metrics instead of end-to-end ones. The last stdout line is the
JSON result; the full record, provenance included, goes to
.perfbench_work/<workload>-<seed>-<trace>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 2
OVERRUN = 1.1
OP_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("output_mb", "MB"))


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    exit_code: int
    timed_out: bool
    peak_rss_mib: float
    cpu_s: float


class ChildRunner:
    """Starts one child at a time and measures it with os.wait4.

    wait4 gives the child's own ru_maxrss, where RUSAGE_CHILDREN would give
    the running maximum over every child reaped so far.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.started = 0

    @staticmethod
    def _assert_no_child() -> None:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        raise RuntimeError(f"another child process exists (reaped pid {pid})"
                           if pid else "another child process is running")

    def run(self, cmd: list[str], log: Path) -> ChildResult:
        self._assert_no_child()
        lock = threading.Lock()
        state = {"done": False, "timed_out": False}

        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            self.started += 1

            def kill():
                with lock:
                    if not state["done"]:
                        state["timed_out"] = True
                        proc.kill()

            timer = threading.Timer(OP_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                with lock:
                    state["done"] = True
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._assert_no_child()
        return ChildResult(wall_s=wall, exit_code=proc.returncode,
                           timed_out=state["timed_out"],
                           peak_rss_mib=usage.ru_maxrss / 1024.0,
                           cpu_s=usage.ru_utime + usage.ru_stime)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def provenance(seed: int) -> dict:
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                text=True, capture_output=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            commit, dirty = None, None
    return {"git_commit": commit, "git_dirty": dirty,
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "host": platform.machine(), "seed": seed,
            "loadavg_start": _loadavg()}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(runner: ChildRunner, workload, inputs, work: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, after one warm-up
    that compiles the bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        log = work / f"setup_{i}.log"
        res = runner.run(workload.setup_command(inputs), log)
        if res.exit_code != 0:
            raise RuntimeError(f"set-up probe failed (exit {res.exit_code}); "
                               f"see {log}")
        if i:
            times.append(float(log.read_text().split()[-1]))
    return times


def run_operations(runner: ChildRunner, workload, inputs, seed: int,
                   seconds: float, work: Path,
                   min_ops: int = MIN_OPS) -> tuple[list[dict], list[str]]:
    """Untraced operations for about `seconds` of operation time.

    At least `min_ops` run; another starts only while the median operation
    would still end within OVERRUN times the budget, so every run of a
    workload makes the same number of operations on a steady machine.
    """
    ops, problems = [], []
    first = None  # (file hashes, check problems) of the first checked output
    elapsed = 0.0
    while len(ops) < min_ops or (
            elapsed + _median([op["wall_s"] for op in ops]) <= seconds * OVERRUN):
        out = work / f"op_{len(ops)}"
        res = runner.run(workload.command(inputs, seed, out), work / f"op_{len(ops)}.log")
        elapsed += res.wall_s
        op = {**asdict(res), "output_bytes": 0, "problems": []}
        if res.exit_code != 0 or res.timed_out:
            op["problems"].append(f"exit code {res.exit_code}"
                                  + (" after timeout" if res.timed_out else ""))
        elif not out.is_dir():
            op["problems"].append("no output directory")
        else:
            check_start = time.perf_counter()
            op["output_bytes"] = checks.output_bytes(out)
            hashes = checks.file_hashes(out)
            # Output byte-identical to the first checked one gets its verdict,
            # whether that passed or failed.
            found = first[1] if first and hashes == first[0] else workload.check(out)
            op["problems"] += found
            if first is None:
                first = (hashes, found)
            elif hashes.get("metrics.json") != first[0].get("metrics.json"):
                op["problems"].append("metrics.json differs from the first repetition")
            op["check_s"] = time.perf_counter() - check_start
        problems += [f"op {len(ops)}: {p}" for p in op["problems"]]
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
    return ops, problems


def run_traced(runner: ChildRunner, workload, inputs, seed: int,
               work: Path) -> tuple[dict, dict | None]:
    out = work / "op_traced"
    spans = work / "trace.json"
    res = runner.run(workload.traced_command(inputs, seed, out, spans),
                     work / "op_traced.log")
    op = {**asdict(res), "problems": []}
    trace = None
    if res.exit_code != 0 or res.timed_out or not spans.is_file():
        op["problems"].append(f"traced operation failed (exit {res.exit_code})")
    else:
        op["problems"] += workload.check(out)
        trace = json.loads(spans.read_text(encoding="utf-8"))
    shutil.rmtree(out, ignore_errors=True)
    return op, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "solarran" / "cli.py").is_file():
        print(f"error: solarran sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    runner = ChildRunner()
    record = {"workload": workload.name, "why": workload.why,
              "provenance": provenance(args.seed), "seconds": args.seconds,
              "trace": args.trace}
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.make_inputs(work / "inputs", args.seed)

    setup = measure_setup(runner, workload, inputs, work)
    # With --trace 1 the untraced operations only give the reference for
    # trace.overhead_s and op.cpu_s, so one is enough when the budget is short.
    ops, problems = run_operations(runner, workload, inputs, args.seed,
                                   args.seconds, work,
                                   min_ops=1 if args.trace else MIN_OPS)
    traced_op, trace = None, None
    if args.trace:
        traced_op, trace = run_traced(runner, workload, inputs, args.seed, work)
        problems += [f"traced op: {p}" for p in traced_op["problems"]]

    all_ops = ops + ([traced_op] if traced_op else [])
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op["problems"])
    ok = [op for op in ops if not op["problems"]] or ops
    end_to_end = {
        "wall_s": _median([op["wall_s"] for op in ok]),
        "setup_s": _median(setup),
        "peak_rss_mib": _median([op["peak_rss_mib"] for op in ok]),
        "output_mb": _median([op["output_bytes"] for op in ok]) / 1e6,
    }
    cpu_s = _median([op["cpu_s"] for op in ok])
    record.update({
        "setup_samples_s": setup, "operations": ops, "traced_operation": traced_op,
        "end_to_end": end_to_end, "cpu_s": cpu_s, "samples": len(ok),
        "attempted": attempted, "failed": failed,
        "failed_ops": failed / attempted, "problems": problems,
        "children_started": runner.started,
    })

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(ops)} operation(s), {len(setup)} set-up "
          f"probe(s), one child at a time ({runner.started} started)")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {end_to_end[name]:12.4f} {unit:<5} "
              f"median of {len(setup) if name == 'setup_s' else len(ok)}")
    print(f"  {'failed_ops':<14} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted})")
    print(f"  {'cpu_s':<14} {cpu_s:12.4f} s     median of {len(ok)} "
          f"(recorded, not bounded)")
    for p in problems[:20]:
        print(f"  problem: {p}")

    if args.trace:
        if trace is None:
            layers = dict.fromkeys((n for n, _ in tracing.LAYER_METRICS), 0.0)
        else:
            layers = tracing.layer_metrics(trace, traced_op["wall_s"],
                                           end_to_end["wall_s"], cpu_s)
            record["absent"] = trace["absent"]
            record["span_shares"] = tracing.span_shares(trace)
            print("traced operation, span totals (share of bench.operation):")
            for name, secs, share in record["span_shares"]:
                print(f"  {name:<32} {secs:10.4f} s  {100 * share:6.1f}%")
            for missing in trace["absent"]:
                print(f"  absent: {missing}")
        record["per_layer"] = layers
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<34} {layers[name]:14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    record["provenance"]["loadavg_end"] = _loadavg()
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
