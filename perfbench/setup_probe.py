"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing ``riskgames``, generating the workload's scenarios and
loading them (validation and engine tables included). run.py starts this
script several times per run and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = perf_counter()
    import workloads  # imports riskgames: the import is part of what is timed

    workloads.setup(workload, seed, workdir)
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
