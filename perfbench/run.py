#!/usr/bin/env python3
"""Benchmark of the sturmian package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads: verify-sweep, build-long, query-mix (see perfbench/README.md).
--trace 0 prints the end-to-end metrics of untraced passes;
--trace 1 prints the per-layer metrics of one traced pass and writes its
spans under perfbench/out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds the environment and run details.  The exit status is 0 when every
result was correct, 1 when one was wrong and 2 when the package source is
missing.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sturmian"

WORKLOADS = ("verify-sweep", "build-long", "query-mix")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no sturmian package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import sturmian

    if Path(sturmian.__file__).resolve().parent != PACKAGE:
        print(f"imported sturmian from {sturmian.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.setup_only:
        workloads.make(args.workload, args.seed)
        return 0
    if args.trace:
        result = harness.traced(args.workload, args.seed)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds)
    print(json.dumps({"env": result.pop("env"), "detail": result.pop("detail")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
