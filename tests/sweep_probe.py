"""How each bundled prior sweep plans its baselines, in this process.

    python tests/sweep_probe.py

For every axis of bundled ``graph_a`` and ``graph_b``, plain and with the
neutral baseline's overrides, runs ``prior_sweep`` on the default grid and
prints the grid points, the routes ``risk_adjusted_shortest_path`` planned,
the distinct routes among them and the sweep's time; then the time of the
whole pass of ten sweeps. The times come from a second, unwrapped pass.
Nothing is asserted.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from riskgames import baseline_planners  # noqa: E402
from riskgames.cli_bench import load_scenario  # noqa: E402
from riskgames.evaluation import DEFAULT_SWEEP_GRID, prior_sweep  # noqa: E402


def main() -> None:
    specs = {name: load_scenario(name).spec for name in ("graph_a", "graph_b")}
    sweeps = [(name, spec, axis, overrides) for name, spec in specs.items()
              for axis in range(len(spec.types)) for overrides in (False, True)]
    plan, planned = baseline_planners.risk_adjusted_shortest_path, []

    def recorded(spec, theta):
        planned.append(plan(spec, theta))
        return planned[-1]

    baseline_planners.risk_adjusted_shortest_path = recorded
    try:
        counts = []
        for _, spec, axis, overrides in sweeps:
            planned.clear()
            prior_sweep(spec, axis, None, overrides)
            counts.append((len(planned), len({p.path for p in planned})))
    finally:
        baseline_planners.risk_adjusted_shortest_path = plan
    start = time.perf_counter()
    for (name, spec, axis, overrides), (routes, distinct) in zip(sweeps, counts):
        begun = time.perf_counter()
        prior_sweep(spec, axis, None, overrides)
        print(f"{name} axis {axis} {'with overrides' if overrides else 'plain'}: {len(DEFAULT_SWEEP_GRID)} grid "
              f"points, {routes} routes planned, {distinct} distinct, {time.perf_counter() - begun:.4f} s")
    print(f"pass of {len(sweeps)} sweeps: {time.perf_counter() - start:.4f} s")


if __name__ == "__main__":
    main()
