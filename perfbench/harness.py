"""The measuring loops behind run.py: the untraced run, the traced run and
the tally of operations attempted and failed. Imported once ``src/`` is on
the path."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import counters
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "_work"

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 120

# spans reported per iteration as <span>_s (inclusive time) and <span>_calls
TIMED_SPANS = (
    "coordinator_solver.solve_dp",
    "coordinator_solver.simulate_type",
    "coordinator_solver.verify_equilibrium",
    "coordinator_solver.brute_force_oracle",
    "belief_filter.bayes_update",
    "risk_measures.cvar_aggregate",
    "baseline_planners.best_case_value",
    "baseline_planners.baseline_policy",
    "baseline_planners.neutral_override_plan",
    "evaluation.prior_sweep",
    "cli_bench.load_scenario",
    "game_model.validate_spec",
    "game_model.tables",
)
COUNTED_SPANS = (
    "coordinator_solver.solve_dp",
    "belief_filter.bayes_update",
    "risk_measures.cvar_aggregate",
    "baseline_planners.risk_adjusted_shortest_path",
    "game_model.with_prior",
)
RATIOS = ("coordinator_solver.onpath_ratio", "coordinator_solver.optimal_ratio")


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter (see setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(WORKDIR)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0

    def add(self, p, scenarios: dict) -> None:
        problems = workloads.check_pass(self.workload, self.seed, scenarios, p, self.reference)
        self.attempted += len(p.results) + len(p.errors)
        self.failed += len(problems)
        for op, found in problems.items():
            for problem in found:
                print(f"FAILED {self.workload} {op}: {problem}", file=sys.stderr)


def untraced_run(workload: str, seed: int, seconds: float):
    scenarios = workloads.setup(workload, seed, WORKDIR)
    ops = workloads.operations(workload, scenarios)
    tally = Tally(workload, seed)
    walls, solves, setups = [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        p = workloads.run_pass(ops)
        walls.append(perf_counter() - t0)
        solves.append(p.solve_s)
        tally.add(p, scenarios)
        del p
        # spread the set-up samples over the run so they see the same machine as the passes
        due = math.ceil(SETUP_SAMPLES * (perf_counter() - start) / seconds)
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(setup_probe(workload, seed))
        if perf_counter() - start + walls[-1] > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(workload, seed))
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall_s median {statistics.median(walls):.6f} max {max(walls):.6f} over {len(walls)} passes;"
          f" solve_s median {statistics.median(solves):.6f}; setup_s {setup_s:.6f}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "solve_s": (statistics.median(solves), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, metrics


def iteration(workload: str, sources: dict):
    """Set-up without generation (load, validation, tables) plus one pass."""
    scenarios = workloads.load(sources)
    return scenarios, workloads.run_pass(workloads.operations(workload, scenarios))


def traced_iteration(tracer: tracing.Tracer, number: int, workload: str, sources: dict):
    tracer.install()
    try:
        with tracer.iteration(number):
            return iteration(workload, sources)
    finally:
        tracer.uninstall()


def traced_run(workload: str, seed: int, seconds: float):
    sources = workloads.write_scenarios(workload, seed, WORKDIR)
    tracer = tracing.Tracer(keep=counters.KEPT)
    tally = Tally(workload, seed)
    untraced, seen = [], None
    start = perf_counter()
    number = 0
    while True:
        gc.collect()
        t0 = perf_counter()
        scenarios, p = iteration(workload, sources)
        untraced.append(perf_counter() - t0)
        tally.add(p, scenarios)
        del p, scenarios

        gc.collect()
        scenarios, p = traced_iteration(tracer, number, workload, sources)
        tally.add(p, scenarios)
        counts = counters.iteration_counters(tracer.kept)
        tracer.kept.clear()
        if seen is not None and counts != seen:
            print(f"FAILED {workload}: counters changed between iterations: {seen} then {counts}",
                  file=sys.stderr)
            tally.failed += 1
        seen = counts
        del p, scenarios
        number += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / number > seconds:
            break

    WORKDIR.mkdir(exist_ok=True)
    tracer.write(WORKDIR / f"spans-{workload}-seed{seed}.tsv")
    inclusive, calls, self_time = tracer.totals()
    n = calls[tracing.ROOT_SPAN]
    wall = inclusive[tracing.ROOT_SPAN] / n
    untraced_wall = statistics.fmean(untraced)
    metrics = {f"{span}_s": (inclusive.get(span, 0.0) / n, "s") for span in TIMED_SPANS}
    metrics.update({f"{span}_calls": (calls.get(span, 0) / n, "count") for span in COUNTED_SPANS})
    metrics.update({name: (value, "ratio" if name in RATIOS else "count") for name, value in seen.items()})
    metrics.update({f"{layer}.self_s": (self_time.get(layer, 0.0) / n, "s") for layer in tracing.MODULES})
    metrics.update({
        "trace.unattributed_s": (self_time["bench"] / n, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    })
    print("wrapped: " + ", ".join(tracer.wrapped))
    print(f"traced iterations {n}: wall {wall:.6f} s = layer self times "
          f"{sum(self_time.get(m, 0.0) for m in tracing.MODULES) / n:.6f} s + unattributed "
          f"{self_time['bench'] / n:.6f} s; untraced {untraced_wall:.6f} s")
    return tally, metrics
