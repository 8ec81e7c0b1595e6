"""Record the reference results the benchmark's correctness check compares with.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes, per
operation, the exact root value, table and output digests and verdicts to
perfbench/reference.json. Re-record only when a change is meant to alter
results; the solver's answers are expected to stay identical.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for name in workloads.WORKLOADS:
        scenarios = workloads.setup(name, workloads.DEFAULT_SEED, HERE / "_work")
        p = workloads.run_pass(workloads.operations(name, scenarios))
        if p.errors:
            raise SystemExit(f"{name}: {p.errors}")
        reference[name] = {op: workloads.op_record(result) for op, result in p.results.items()}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
