"""Solver benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run times whole passes over the workload's
operations with nothing wrapped and prints the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced iterations (set-up plus one
pass) and prints the per-layer metrics. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import riskgames from this checkout's src/, never from anywhere else."""
    if not (SRC / "riskgames" / "__init__.py").is_file():
        raise SystemExit(f"error: no riskgames package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import riskgames

    if Path(riskgames.__file__).resolve().parent != SRC / "riskgames":
        raise SystemExit(f"error: riskgames imported from {riskgames.__file__}, not {SRC}")


def main(argv=None) -> int:
    import_library()
    import harness

    args = parse_args(argv, harness.workloads.WORKLOADS)
    run = harness.traced_run if args.trace else harness.untraced_run
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
