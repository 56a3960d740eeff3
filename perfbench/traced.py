"""One traced operation, run in a fresh process.

Wraps solarran's public functions (see tracing.py), runs the operation in
this process under a root span "bench.operation", and writes the spans,
call counters and any wrapped attribute that was missing to --spans as
JSON. Exits with the operation's exit code.

    PYTHONPATH=src python3 perfbench/traced.py --spans t.json cli simulate ...
    PYTHONPATH=src python3 perfbench/traced.py --spans t.json design_sweep ...
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="trace JSON to write")
    parser.add_argument("entry", choices=("cli", "design_sweep"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer()
    if args.entry == "cli":
        tracer.install(tracing.STUDY_WRAPS)
        import solarran.cli as entry
    else:
        tracer.install(tracing.SWEEP_WRAPS)
        import design_sweep as entry
    operation = tracer.span(entry.main, "bench.operation")
    try:
        rc = operation(args.args)
    finally:
        tracer.uninstall()
        Path(args.spans).write_text(json.dumps(tracer.to_dict()) + "\n",
                                    encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
