"""Set-up cost of one fresh solarran process.

Times importing solarran.cli and loading the scenario (and, when given,
the weather CSV) through the CLI module's own names, and prints the
seconds on stdout. Interpreter start-up is not included.

    PYTHONPATH=src python3 perfbench/setup_probe.py --config c.json [--weather w.csv]
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--weather", default=None)
    args = parser.parse_args(argv)

    import solarran.cli as cli
    scenario = cli.load_config(args.config)
    if args.weather is not None:
        cli.load_weather_csv(args.weather, expected_dates=scenario.dates)
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
