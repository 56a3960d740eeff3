"""Command-line entry point.

Subcommands:
  simulate       run the paired with/without-renewables study and publish
                 the files of report.STUDY_FILES into --out, each pair's
                 two ledgers written at once by two processes (POSIX fork)
  weather-synth  write one synthetic clear-sky day as a weather CSV
  oracle         cross-check the greedy design against the exhaustive
                 reference on a small instance file

Exit codes: 0 success, 1 runtime failure or failed oracle check,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .design import InstanceTooLargeError, brute_force_design, greedy_design
from .energy import ParameterError, Range
from .engine import compute_metrics, run_pair, verify_conservation
from .radio import COORD_M, Position
from .report import (LEDGER_ARMS, PART_SUFFIX, STUDY_FILE, STUDY_FILES,
                     format_summary_table, scenario_echo, timeseries_rows,
                     write_ledger_csv, write_metrics_json, write_summary_csv,
                     write_timeseries_csvs)
from .scenario import (CONFIG_SCHEMA, NODE_ALTITUDE_M, SCALARS, USER_HEIGHT_M,
                       AccessNode, ConfigError, Required, Scenario,
                       UserTerminal, WeatherError, WeatherSeries, check_json,
                       load_config, load_weather_csv, parse_date, read_json,
                       scenario_from_dict, synth_study_series, synth_weather,
                       write_weather_csv)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
# Share of the with-solar ledger's minutes, its last, that the forked child
# writes after the no-solar ledger: with it both processes take about as
# long on the default and the 49-station study.
CHILD_PV_SHARE = 0.3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarran",
        description="Energy-balance study of solar-assisted UAV base stations")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the paired energy study")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--runs", type=int, default=None,
                     help="number of independent runs (default: scenario value)")
    sim.add_argument("--seed", type=int, default=42, help="master seed (u64)")
    sim.add_argument("--weather", default="synth",
                     help="'synth' or a path to a weather CSV")
    sim.add_argument("--out", required=True, help="output directory")

    synth = sub.add_parser("weather-synth", help="write one synthetic day")
    synth.add_argument("--date", required=True, help="ISO date, e.g. 2022-06-21")
    synth.add_argument("--lat", type=float, default=Scenario.latitude_deg,
                       help="latitude [deg]")
    synth.add_argument("--cloud", type=float, default=Scenario.cloud_factor,
                       help="cloud attenuation factor in [0, 1]")
    synth.add_argument("--out", required=True, help="output CSV path")

    oracle = sub.add_parser("oracle", help="greedy vs exhaustive cross-check")
    oracle.add_argument("--instance", required=True, help="instance JSON file")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_config(args.config)
    if args.runs is not None:
        SCALARS["run_count"][1].check("--runs", args.runs, ConfigError)
        scenario = dataclasses.replace(scenario, run_count=args.runs)
    # every run's seed, args.seed + run index, is a u64
    Range(0, 2**64 - scenario.run_count).check("--seed", args.seed,
                                               ConfigError)

    csv_weather = None
    if args.weather != "synth":
        csv_weather = load_weather_csv(args.weather, expected_dates=scenario.dates)

    seeds = [args.seed + r for r in range(scenario.run_count)]
    out_dir = Path(args.out)
    # the study publishes a directory there: refuse before any pair runs
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"--out {out_dir}: {found} is not a directory")
    for old in out_dir.iterdir() if found == out_dir else ():
        # unlink and os.replace replace a file or a symlink, not a directory
        if (STUDY_FILE.fullmatch(old.name) and old.is_dir()
                and not old.is_symlink()):
            raise ConfigError(f"--out {out_dir}: {old} is a directory, not a "
                              "study file")
    with _staged(out_dir) as stage:
        pairs = []
        series_sums = 0.0  # timeseries_rows summed in run order
        for run_idx, seed in enumerate(seeds):
            weather = (csv_weather if csv_weather is not None
                       else synth_study_series(scenario, seed=seed))
            pair, rows = _run_and_write(scenario, weather, seed,
                                        stage, run_idx)
            pairs.append(pair)
            series_sums = series_sums + rows
        metrics = compute_metrics(pairs)
        write_metrics_json(metrics, scenario_echo(scenario),
                           stage / STUDY_FILES["metrics"])
        write_summary_csv(metrics, stage / STUDY_FILES["summary"])
        write_timeseries_csvs(series_sums / scenario.run_count, stage)
    print(f"{scenario.run_count} run pair(s), seeds {seeds[0]}..{seeds[-1]}, "
          f"{len(scenario.nodes)} stations, {scenario.user_count} users")
    print(format_summary_table(metrics))
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _run_and_write(scenario: Scenario, weather: WeatherSeries, seed: int,
                   stage: Path, run_idx: int):
    """Run one pair, check both arms and write their ledgers into stage.

    A forked child writes the no-solar ledger, then the with-solar ledger's
    last CHILD_PV_SHARE of minutes into a part file, while this process
    writes the with-solar ledger's first minutes and the time-series rows.
    The child is reaped before this call returns or raises, and a child that
    failed makes it raise; otherwise the part is appended to the with-solar
    ledger and deleted.

    Returns the pair without its ledgers and its timeseries_rows. The
    ledgers die with this call, before the next pair runs, so a study's
    memory does not grow with its number of runs.
    """
    pair = run_pair(scenario, weather, seed)
    verify_conservation(pair)
    nopv, pv = (stage / STUDY_FILES["ledger"].format(run=run_idx, arm=arm)
                for arm in LEDGER_ARMS)
    part = pv.with_suffix(PART_SUFFIX)
    n_minutes = len(weather)
    split = n_minutes - int(n_minutes * CHILD_PV_SHARE)
    pid = os.fork()
    if pid == 0:  # the child never returns: no finally or buffer runs twice
        code = 1
        try:
            write_ledger_csv(pair.ledgers[0], nopv)
            write_ledger_csv(pair.ledgers[1], part, split)
            code = 0
        except BaseException as exc:  # noqa: BLE001 - reported by exit status
            print(f"failure: {exc}", file=sys.stderr)
            sys.stderr.flush()
        finally:
            os._exit(code)
    try:
        write_ledger_csv(pair.ledgers[1], pv, 0, split)
        rows = timeseries_rows(pair, weather)
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError(f"writing {nopv.name} and {part.name} failed "
                           f"(exit status {status})")
    with open(part, "rb") as tail, open(pv, "ab") as head:
        shutil.copyfileobj(tail, head)
    part.unlink()
    return dataclasses.replace(pair, ledgers=()), rows


@contextlib.contextmanager
def _staged(out_dir: Path):
    """Yield a staging directory beside out_dir and, once the block succeeds,
    publish it: one rename onto an absent or empty out_dir, else the files
    in out_dir named as in report.STUDY_FILES, at any run count, are
    replaced and any other file is kept (none of them may be a directory,
    which cmd_simulate refuses). On failure the staging directory and any
    parent directory made for it are deleted, and out_dir is untouched."""
    target = out_dir.resolve()
    made = [d for d in (target.parent, *target.parent.parents) if not d.exists()]
    target.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    try:
        yield stage
        if target.is_dir() and any(target.iterdir()):
            for old in target.iterdir():
                if STUDY_FILE.fullmatch(old.name):
                    old.unlink()
            for new in stage.iterdir():
                os.replace(new, target / new.name)
        else:
            umask = os.umask(0)
            os.umask(umask)
            stage.chmod(0o777 & ~umask)  # mkdtemp creates it owner-only
            os.rename(stage, target)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not target.exists():  # the study failed before it was published
            for parent in made:  # deepest first
                with contextlib.suppress(OSError):
                    parent.rmdir()


def cmd_weather_synth(args: argparse.Namespace) -> int:
    try:
        date = parse_date(args.date)
    except ValueError as exc:
        raise ConfigError(f"invalid --date: {exc}") from exc
    for flag, name, value in (("--lat", "latitude_deg", args.lat),
                              ("--cloud", "cloud_factor", args.cloud)):
        check_json(value, float, flag)  # NaN or infinite
        SCALARS[name][1].check(flag, value, ConfigError)
    weather = synth_weather(Scenario(latitude_deg=args.lat,
                                     cloud_factor=args.cloud), date)
    try:
        write_weather_csv(weather, [date], args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from exc
    print(f"wrote {len(weather)} samples for {date.isoformat()} to {args.out}")
    return EXIT_OK


# An oracle instance: radio parameters as in a scenario, the users' rates,
# and every node and user position, each coordinate [m] within COORD_M,
# so that squared distances stay finite.
_POINT = {"id": Required(int), "x": Required(float), "y": Required(float),
          "z": float}
INSTANCE_SCHEMA = {"radio": CONFIG_SCHEMA["radio"], "dl_mbps": float,
                   "ul_mbps": float, "nodes": [_POINT], "users": [_POINT]}


def _load_instance(path: str) -> tuple[list[AccessNode], list[UserTerminal],
                                       Scenario]:
    raw = check_json(read_json(path, "instance"), INSTANCE_SCHEMA)
    rates = {key: raw[key] for key in ("dl_mbps", "ul_mbps") if key in raw}
    scenario = scenario_from_dict({
        "radio": raw.get("radio", {}),
        "users": {"count": 0, **rates},
    })

    def points(section: str, height: float):
        """(id, Position) of each point of section, at height unless it
        gives z."""
        for i, point in enumerate(raw.get(section, ())):
            xyz = (point["x"], point["y"], point.get("z", height))
            for key, value in zip("xyz", xyz):
                COORD_M.check(f"{section}[{i}].{key}", value, ConfigError)
            yield point["id"], Position(*xyz)

    nodes = [AccessNode(node_id=i, position=p)
             for i, p in points("nodes", NODE_ALTITUDE_M)]
    users = [UserTerminal(user_id=i, position=p)
             for i, p in points("users", USER_HEIGHT_M)]
    if len({n.node_id for n in nodes}) != len(nodes):
        raise ConfigError("duplicate node ids in instance")
    if len({u.user_id for u in users}) != len(users):
        raise ConfigError("duplicate user ids in instance")
    return nodes, users, scenario


def cmd_oracle(args: argparse.Namespace) -> int:
    nodes, users, scenario = _load_instance(args.instance)
    # the exhaustive search goes first: it refuses oversized instances
    inputs = (nodes, users, scenario.radio, scenario.dl_rate_mbps,
              scenario.ul_rate_mbps, scenario.equipment)
    brute = brute_force_design(*inputs)
    greedy = greedy_design(*inputs)
    print(f"greedy: covered {greedy.covered_count}, "
          f"power {greedy.total_power_w:.3f} W")
    print(f"exhaustive: covered {brute.covered_count}, "
          f"power {brute.total_power_w:.3f} W")
    if (greedy.covered_count == brute.covered_count
            and greedy.total_power_w >= brute.total_power_w - 1e-9):
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return EXIT_RUNTIME


def main(argv=None) -> int:
    """Run one subcommand: a usage or validation error exits 2, any other 1."""
    args = _build_parser().parse_args(argv)
    # looked up at each call, so that a command replaced after import runs
    command = {"simulate": cmd_simulate, "weather-synth": cmd_weather_synth,
               "oracle": cmd_oracle}[args.command]
    try:
        return command(args)
    except (ConfigError, WeatherError, ParameterError,
            InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
