"""The benchmark's workloads: seeded scenario generation, the operations each
workload runs, and the correctness check of every operation's result.

Operations call the library through module attributes looked up at call
time (``coordinator_solver.solve_dp`` rather than a name bound at import),
so the traced run can swap those attributes for timing wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from riskgames import baseline_planners, cli_bench, coordinator_solver, evaluation
from riskgames.game_model import as_fraction

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("types_ladder", "lattice", "regret_sweep", "cvar_enum")

LADDER_TYPES = (0.01, 0.05, 0.08, 0.12, 0.16, 0.2)
LADDER_PRIOR = (0.15, 0.15, 0.15, 0.15, 0.2, 0.2)
LATTICE_SIDE = 16
LATTICE_HORIZON = 28
EDGE_MEANS = range(1, 10)
EDGE_VARIANCES = (0, 1, 2, 4, 8, 16, 40, 100, 150)
CVAR_ALPHA = 0.5

_MOVES = (("N", -1, 0), ("S", 1, 0), ("E", 0, 1), ("W", 0, -1))


# ---------------------------------------------------------------- generation


def _bundled(name: str) -> dict:
    with open(cli_bench.bundled_scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _draw_edge_costs(rng: random.Random, edges: list[dict]) -> None:
    for e in edges:
        e["mean"] = rng.choice(EDGE_MEANS)
        e["var"] = rng.choice(EDGE_VARIANCES)


def ladder_scenario(seed: int) -> dict:
    """graph_b's topology and terminals with K=6 types and seeded edge costs."""
    data = _bundled("graph_b")
    _draw_edge_costs(random.Random(seed), data["edges"])
    data.update(types=list(LADDER_TYPES), prior=list(LADDER_PRIOR), seed=seed)
    data["notes"] = "graph_b topology, six rider types, edge costs drawn from the seed"
    return data


def lattice_scenario(seed: int) -> dict:
    """A 16x16 N/S/E/W lattice from one corner to three rewarded corners.

    The seed draws edge costs only, so the explored state set, which
    depends on topology and horizon alone, is the same for every seed.
    """
    rng = random.Random(seed)
    last = LATTICE_SIDE - 1

    def name(r: int, c: int) -> str:
        return f"r{r}c{c}"

    nodes, edges = [], []
    for r in range(LATTICE_SIDE):
        for c in range(LATTICE_SIDE):
            nodes.append(name(r, c))
            for direction, dr, dc in _MOVES:
                if 0 <= r + dr <= last and 0 <= c + dc <= last:
                    edges.append({"from": name(r, c), "to": name(r + dr, c + dc),
                                  "dir": direction, "mean": 0, "var": 0})
    _draw_edge_costs(rng, edges)
    return {
        "nodes": nodes,
        "edges": edges,
        "terminals": {
            name(0, last): {"mean": -30, "var": 40},
            name(last, 0): {"mean": -30, "var": 10},
            name(last, last): {"mean": -30, "var": 0},
        },
        "start": name(0, 0),
        "horizon": LATTICE_HORIZON,
        "types": [0.01, 0.2],
        "prior": [0.5, 0.5],
        "q_h": 0.5,
        "aggregator": "expectation",
        "sweep": {"axis": 1, "grid": [0.0, 0.5, 1.0]},
        "seed": seed,
    }


def cvar_scenario() -> dict:
    """graph_a under the CVaR(0.5) aggregator, as ``--aggregator cvar:0.5`` sets it."""
    data = _bundled("graph_a")
    data["aggregator"] = {"cvar": CVAR_ALPHA}
    return data


def write_scenarios(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    """Write the workload's generated scenarios; label -> path or bundled name."""
    if workload == "regret_sweep":
        return {"graph_a": "graph_a", "graph_b": "graph_b"}
    if workload == "types_ladder":
        data = ladder_scenario(seed)
    elif workload == "lattice":
        data = lattice_scenario(seed)
    elif workload == "cvar_enum":
        data = cvar_scenario()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=1)
    return {workload: str(path)}


def load(sources: dict[str, str]) -> dict[str, cli_bench.ScenarioFile]:
    """Load and validate each scenario and build its engine tables."""
    loaded = {}
    for label, source in sources.items():
        sc = cli_bench.load_scenario(source)
        sc.spec.out_edges, sc.spec.steps_to_terminal  # cached on first read
        loaded[label] = sc
    return loaded


def setup(workload: str, seed: int, workdir: Path) -> dict[str, cli_bench.ScenarioFile]:
    return load(write_scenarios(workload, seed, workdir))


# ---------------------------------------------------------------- operations


@dataclass
class SolveOutput:
    policy: coordinator_solver.CoordinatorPolicy
    sims: dict


@dataclass
class CvarOutput:
    result: coordinator_solver.OracleResult
    tree_value: Fraction
    per_type: dict
    playouts: dict


@dataclass
class BaselinesOutput:
    theta_bar: Fraction
    best_case: Fraction
    weighted: dict  # row label -> prior-weighted (or CVaR) criterion


@dataclass
class SweepOutput:
    rows: list
    csv: str


class Pass:
    """One pass over a workload's operations: results, errors and solve time."""

    def __init__(self):
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.solve_s = 0.0

    def solve(self, fn, *args):
        """Call ``fn`` and count its time as time to the optimal policy."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.solve_s += perf_counter() - t0


def _solve_command(spec, p: Pass) -> SolveOutput:
    policy = p.solve(coordinator_solver.solve_dp, spec)
    sims = {i: coordinator_solver.simulate_type(spec, policy, i) for i in sorted(policy.weights)}
    return SolveOutput(policy, sims)


def _baselines_command(spec, with_overrides: bool) -> BaselinesOutput:
    theta_bar = baseline_planners.average_theta(spec)
    best_case = baseline_planners.best_case_value(spec)
    weighted = {}
    for mode in ("neutral", "average"):
        if mode == "neutral" and with_overrides:
            weights = spec.exact_prior()
            weighted["neutral_overrides"] = sum(
                weights[i] * evaluation.evaluate_policy_exact(
                    spec, baseline_planners.neutral_override_plan(spec, i), i
                ).criterion
                for i in spec.positive_support()
            )
            continue
        plan = baseline_planners.baseline_policy(spec, mode)
        weighted[mode] = evaluation.evaluate_policy(spec, plan).weighted_criterion
    return BaselinesOutput(theta_bar, best_case, weighted)


def _cvar_solve_command(spec, p: Pass) -> CvarOutput:
    result = p.solve(coordinator_solver.brute_force_oracle, spec)
    tree = result.policies[0]
    tree_value, per_type = coordinator_solver.evaluate_policy_tree(spec, tree)
    playouts = {i: coordinator_solver.tree_playout(spec, tree, i) for i in sorted(per_type)}
    return CvarOutput(result, tree_value, per_type, playouts)


def _sweep_command(sc, axis: int, with_overrides: bool, p: Pass) -> SweepOutput:
    grid = sc.sweep_grid or evaluation.DEFAULT_SWEEP_GRID
    rows = p.solve(evaluation.prior_sweep, sc.spec, axis - 1, grid, with_overrides)
    out = io.StringIO()
    cli_bench.write_regret_csv(rows, out)
    return SweepOutput(rows, out.getvalue())


def operations(workload: str, scenarios: dict) -> list[tuple[str, object]]:
    """The workload's operations in order: (name, fn(Pass) -> result)."""
    if workload in ("types_ladder", "lattice"):
        spec = scenarios[workload].spec
        ops = [
            ("solve", lambda p: _solve_command(spec, p)),
            ("verify", lambda p: coordinator_solver.verify_equilibrium(spec, p.results["solve"].policy)),
        ]
        if workload == "lattice":
            ops += [
                ("baselines", lambda p: _baselines_command(spec, False)),
                ("baselines_overrides", lambda p: _baselines_command(spec, True)),
            ]
        return ops
    if workload == "regret_sweep":
        return [
            (f"sweep/{label}/axis{axis}/{'overrides' if ov else 'plain'}",
             lambda p, sc=sc, axis=axis, ov=ov: _sweep_command(sc, axis, ov, p))
            for label, sc in scenarios.items()
            for axis in range(1, len(sc.spec.types) + 1)
            for ov in (False, True)
        ]
    if workload == "cvar_enum":
        spec = scenarios[workload].spec
        return [("solve", lambda p: _cvar_solve_command(spec, p))]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(ops) -> Pass:
    """Run every operation once; an operation that raises is recorded as failed."""
    p = Pass()
    for name, fn in ops:
        try:
            p.results[name] = fn(p)
        except Exception as exc:  # a failed operation is counted, the pass goes on
            p.errors[name] = f"{type(exc).__name__}: {exc}"
    return p


# ---------------------------------------------------------------- digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables_digest(policy) -> str:
    """sha256 of the decision and value tables, one sorted line per state."""
    lines = sorted(
        f"{s.period} {s.node} {','.join(map(str, s.support))} {presc.machine} "
        f"{' '.join(f'{i}:{a}' for i, a in presc.human)} {policy.value[s]}"
        for s, presc in policy.decision.items()
    )
    return _sha("\n".join(lines))


def baselines_digest(out: BaselinesOutput) -> str:
    lines = [f"theta_bar {out.theta_bar}", f"best_case {out.best_case}"]
    lines += [f"{k} {v}" for k, v in sorted(out.weighted.items())]
    return _sha("\n".join(lines))


def cvar_digest(out: CvarOutput) -> str:
    lines = [str(out.result.value), str(out.result.policy_count), str(len(out.result.policies))]
    for i, (edges, signals, overrides, terminal) in out.playouts.items():
        route = " ".join(f"{e.src}-{e.direction}" for e in edges)
        lines.append(f"{i} {route} {terminal} {' '.join(signals)} {overrides} {out.per_type[i]}")
    return _sha("\n".join(lines))


def op_record(result) -> dict:
    """What the correctness check compares with the reference for one operation."""
    if isinstance(result, SolveOutput):
        return {"root_value": str(result.policy.value[result.policy.root]),
                "tables_sha256": tables_digest(result.policy)}
    if isinstance(result, CvarOutput):
        return {"value": str(result.result.value),
                "policy_count": result.result.policy_count,
                "optimal_policies": len(result.result.policies),
                "output_sha256": cvar_digest(result)}
    if isinstance(result, BaselinesOutput):
        return {"sha256": baselines_digest(result)}
    if isinstance(result, SweepOutput):
        return {"csv_sha256": _sha(result.csv)}
    return {"all_passed": result.all_passed}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks


def _check_playout(spec, theta, edges, overrides, terminal, criterion) -> bool:
    term = spec.terminals[terminal]
    mean = sum((e.cost.exact_mean for e in edges), start=term.exact_mean)
    var = sum((e.cost.exact_variance for e in edges), start=term.exact_variance)
    mean += as_fraction(spec.transmission_cost) * len(overrides)
    return mean + as_fraction(theta) * var == criterion


def check_operation(result, scenarios: dict, p: Pass) -> list[str]:
    """Seed-free invariants of one operation's result; empty when they hold."""
    if isinstance(result, SolveOutput):
        policy = result.policy
        root = policy.value[policy.root]
        weighted = sum(policy.weights[i] * sim.criterion for i, sim in result.sims.items())
        return [] if weighted == root else [f"root value {root} != prior-weighted playout criteria {weighted}"]
    if isinstance(result, BaselinesOutput):
        policy = p.results["solve"].policy
        root = policy.value[policy.root]
        problems = [] if result.best_case <= root else [f"best case {result.best_case} above the optimum {root}"]
        problems += [f"baseline {row} ({value}) beats the optimum {root}"
                     for row, value in result.weighted.items() if not root <= value]
        return problems
    if isinstance(result, SweepOutput):
        return [
            f"row {r.sweep_value}: regret_hm {r.regret_hm} above regret_ma {r.regret_ma} "
            f"or regret_mn {r.regret_mn}"
            for r in result.rows
            if not (r.regret_hm <= r.regret_ma and r.regret_hm <= r.regret_mn)
        ]
    if isinstance(result, CvarOutput):
        spec = scenarios["cvar_enum"].spec
        problems = []
        if result.tree_value != result.result.value:
            problems.append(f"tree value {result.tree_value} != oracle value {result.result.value}")
        for i, (edges, _, overrides, terminal) in result.playouts.items():
            if not _check_playout(spec, spec.types[i], edges, overrides, terminal, result.per_type[i]):
                problems.append(f"type {i} playout does not price to its criterion {result.per_type[i]}")
        return problems
    return [] if result.all_passed else ["verify_equilibrium reports a failed condition"]


def uses_reference(workload: str, seed: int) -> bool:
    """References hold for the default seed, and for any seed on bundled scenarios."""
    return seed == DEFAULT_SEED or workload in ("regret_sweep", "cvar_enum")


def check_pass(workload: str, seed: int, scenarios: dict, p: Pass, reference: dict) -> dict[str, list[str]]:
    """Problems per operation: errors, invariant failures and reference mismatches."""
    problems = {name: [error] for name, error in p.errors.items()}
    expected = reference.get(workload, {}) if uses_reference(workload, seed) else {}
    for name, result in p.results.items():
        found = check_operation(result, scenarios, p)
        want = expected.get(name)
        if want is not None and op_record(result) != want:
            found.append(f"result {op_record(result)} differs from the reference {want}")
        if found:
            problems[name] = found
    return problems
