"""One ``solve_dp`` on graph_b with K evenly spaced rider types, in this process.

    python tests/k_rung.py 11

Prints the solve's time, then the time of one ``simulate_type`` per type on
the solved policy (the routes a CLI ``solve`` prints, which decode the states
they pass through), the process's peak RSS (``resource.getrusage``), the
state count and the root value. Run each rung in a fresh process, so the
peak belongs to that rung alone.
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from instance_gen import types_ladder  # noqa: E402
from riskgames.cli_bench import load_scenario  # noqa: E402
from riskgames.coordinator_solver import simulate_type, solve_dp  # noqa: E402


def main(k: int) -> None:
    spec = types_ladder(load_scenario("graph_b").spec, k)
    start = time.perf_counter()
    policy = solve_dp(spec)
    solved = time.perf_counter()
    for i in sorted(policy.weights):
        simulate_type(spec, policy, i)
    routed = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux
    print(f"K = {k}: solve_dp {solved - start:.3f} s, one simulate_type per type {routed - solved:.4f} s, "
          f"peak RSS {peak_mb:.1f} MB, {len(policy.value)} states, root value {policy.value[policy.root]}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
