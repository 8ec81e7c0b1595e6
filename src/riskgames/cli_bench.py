"""Benchmark command line: scenario loading, solve/baselines/verify/sweep/paths.

Scenario files are flat JSON (schema below); the two reference scenarios
ship inside the package and can be addressed by name (``graph_a``,
``graph_b``). All outputs are deterministic: an identical scenario and
identical flags produce byte-identical CSV.

Schema::

    {
      "nodes": ["1", ...],
      "edges": [{"from": "1", "to": "2", "dir": "E", "mean": 5, "var": 20}, ...],
      "terminals": {"8": {"mean": 0, "var": 0}},
      "start": "1",
      "horizon": 6,
      "types": [0.01, 0.05],
      "prior": [0.5, 0.5],
      "q_h": 0.5,
      "aggregator": "expectation" | {"cvar": 0.9},
      "sweep": {"axis": 1, "grid": [0.0, ..., 1.0]},
      "seed": 0,
      "notes": "optional free text"
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import IO, Sequence

from . import evaluation
from .baseline_planners import (
    average_theta,
    baseline_policy,
    best_case_value,
    enumerate_paths_oracle,
    neutral_override_plans,
    risk_adjusted_shortest_path,
)
from .coordinator_solver import (
    DEFAULT_DEVIATION_BUDGET,
    aggregate,
    brute_force_oracle,
    playout,
    solve_dp,
    verify_equilibrium,
)
from .errors import (
    AggregatorFlagError,
    EquilibriumVerificationError,
    RiskGamesError,
    ScenarioError,
    SweepFlagError,
)
from .game_model import (
    EXPECTATION,
    Aggregator,
    CostDistribution,
    Edge,
    GameSpec,
    as_float,
    validate_spec,
)

CSV_HEADER = "sweep_value,regret_hm,regret_ma,regret_mn,bcp"

_TOP_LEVEL_KEYS = {
    "nodes",
    "edges",
    "terminals",
    "start",
    "horizon",
    "types",
    "prior",
    "q_h",
    "aggregator",
    "sweep",
    "seed",
    "notes",
}


@dataclass
class ScenarioFile:
    """A parsed scenario: the game spec plus experiment settings."""

    spec: GameSpec
    sweep_axis: int
    sweep_grid: tuple[float, ...]
    seed: int
    notes: str | None = None


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("riskgames").joinpath("scenarios", f"{name}.json")))


def _resolve_scenario_path(path_or_name: str | Path) -> Path:
    p = Path(path_or_name)
    if p.exists():
        return p
    bundled = bundled_scenario_path(str(path_or_name))
    if bundled.exists():
        return bundled
    raise ScenarioError([f"scenario file {path_or_name!r} not found"])


def _is_number(x) -> bool:
    # an int or a float, not a bool; false for NaN and infinities, and an int compares exactly
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _parse_aggregator(raw, problems: list[str]) -> Aggregator:
    if raw == "expectation":
        return EXPECTATION
    if isinstance(raw, dict) and set(raw) == {"cvar"}:
        if _is_number(raw["cvar"]):
            return Aggregator.cvar(float(raw["cvar"]))
        problems.append(f"aggregator cvar level {raw['cvar']!r} is not a number")
        return EXPECTATION
    problems.append(f"aggregator must be 'expectation' or {{'cvar': alpha}}, got {raw!r}")
    return EXPECTATION


def _parse_aggregator_flag(text: str) -> Aggregator:
    """The aggregator named by ``--aggregator``: 'expectation' or 'cvar:<alpha>'."""
    if text == "expectation":
        return EXPECTATION
    kind, _, alpha = text.partition(":")
    if kind == "cvar":
        try:
            return Aggregator.cvar(float(alpha))
        except ValueError:
            pass
    raise AggregatorFlagError(f"--aggregator {text!r}: expected 'expectation' or 'cvar:<alpha>'")


def scenario_from_dict(data: dict) -> ScenarioFile:
    """Build a scenario from parsed JSON, reporting every problem at once."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["scenario root must be a JSON object"])
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        problems.append(f"unknown top-level keys {unknown}")
    missing = sorted(_TOP_LEVEL_KEYS - {"notes"} - set(data))
    if missing:
        problems.append(f"missing required keys {missing}")
        raise ScenarioError(problems)

    def number(x, where):
        if _is_number(x):
            return float(x)
        problems.append(f"{where} must be a finite number, got {x!r}")
        return 0.0

    def shaped(x, kind, where):
        if isinstance(x, kind):
            return x
        problems.append(f"{where} must be a JSON {'object' if kind is dict else 'array'}, got {x!r}")
        return kind()

    nodes = tuple(str(n) for n in shaped(data["nodes"], list, "nodes"))
    edges = []
    for idx, e in enumerate(shaped(data["edges"], list, "edges")):
        where = f"edges[{idx}]"
        if not isinstance(e, dict) or set(e) != {"from", "to", "dir", "mean", "var"}:
            problems.append(f"{where} must have exactly from/to/dir/mean/var")
            continue
        mean = number(e["mean"], f"{where}.mean")
        var = number(e["var"], f"{where}.var")
        if var < 0:
            problems.append(f"{where}.var is negative")
            var = 0.0
        edges.append(Edge(str(e["from"]), str(e["to"]), str(e["dir"]), CostDistribution(mean, var)))
    terminals = {}
    for node, stats in shaped(data["terminals"], dict, "terminals").items():
        where = f"terminals[{node!r}]"
        if not isinstance(stats, dict) or set(stats) != {"mean", "var"}:
            problems.append(f"{where} must have exactly mean/var")
            continue
        var = number(stats["var"], f"{where}.var")
        if var < 0:
            problems.append(f"{where}.var is negative")
            var = 0.0
        terminals[str(node)] = CostDistribution(number(stats["mean"], f"{where}.mean"), var)

    horizon = data["horizon"]
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        problems.append(f"horizon must be an integer, got {horizon!r}")
        horizon = 1
    seed = data["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    sweep = data["sweep"]
    axis, grid = 1, ()
    if not isinstance(sweep, dict) or set(sweep) != {"axis", "grid"}:
        problems.append("sweep must have exactly axis/grid")
    else:
        axis = sweep["axis"]
        if not isinstance(axis, int) or isinstance(axis, bool) or axis < 1:
            problems.append(f"sweep.axis must be a 1-based type index, got {axis!r}")
            axis = 1
        grid = tuple(number(g, "sweep.grid entry") for g in shaped(sweep["grid"], list, "sweep.grid"))
        if any(g < 0 or g > 1 for g in grid):
            problems.append("sweep.grid values must lie in [0, 1]")

    notes = data.get("notes")
    if notes is not None and not isinstance(notes, str):
        problems.append("notes must be a string")
        notes = None

    spec = GameSpec(
        nodes=nodes,
        edges=tuple(edges),
        terminals=terminals,
        start_node=str(data["start"]),
        horizon_T=horizon,
        types=tuple(number(t, "types entry") for t in shaped(data["types"], list, "types")),
        prior=tuple(number(w, "prior entry") for w in shaped(data["prior"], list, "prior")),
        transmission_cost=number(data["q_h"], "q_h"),
        machine_aggregator=_parse_aggregator(data["aggregator"], problems),
    )
    problems.extend(validate_spec(spec))
    if isinstance(sweep, dict) and isinstance(axis, int) and not 1 <= axis <= len(spec.types):
        problems.append(f"sweep.axis {axis} out of range for {len(spec.types)} types")
    if problems:
        raise ScenarioError(problems)
    return ScenarioFile(spec=spec, sweep_axis=axis, sweep_grid=grid, seed=seed, notes=notes)


def scenario_to_dict(sc: ScenarioFile) -> dict:
    spec = sc.spec
    agg = spec.machine_aggregator
    data = {
        "nodes": list(spec.nodes),
        "edges": [
            {"from": e.src, "to": e.dst, "dir": e.direction, "mean": e.cost.mean, "var": e.cost.variance}
            for e in spec.edges
        ],
        "terminals": {n: {"mean": c.mean, "var": c.variance} for n, c in spec.terminals.items()},
        "start": spec.start_node,
        "horizon": spec.horizon_T,
        "types": list(spec.types),
        "prior": list(spec.prior),
        "q_h": spec.transmission_cost,
        "aggregator": "expectation" if agg.kind == "expectation" else {"cvar": agg.alpha},
        "sweep": {"axis": sc.sweep_axis, "grid": list(sc.sweep_grid)},
        "seed": sc.seed,
    }
    if sc.notes is not None:
        data["notes"] = sc.notes
    return data


def load_scenario(path_or_name: str | Path) -> ScenarioFile:
    """Load and validate a scenario file (or a bundled scenario by name)."""
    path = _resolve_scenario_path(path_or_name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"])
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError([f"{path}: cannot read the scenario file: {type(exc).__name__}: {exc}"]) from None
    try:
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError([f"{path}: {v}" for v in exc.violations])


def save_scenario(sc: ScenarioFile, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def fmt(x) -> str:
    """12 significant digits, the CSV and report number format."""
    return format(as_float(x), ".12g")


def write_regret_csv(rows: Sequence[evaluation.RegretRow], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for r in rows:
        stream.write(
            f"{fmt(r.sweep_value)},{fmt(r.regret_hm)},{fmt(r.regret_ma)},{fmt(r.regret_mn)},{fmt(r.bcp)}\n"
        )


def _describe_route(route) -> str:
    """A route, a playout's or a path's, as ``start -dir-> node ... STOP``."""
    if not route.edges:
        return f"{route.terminal} STOP"
    parts = [route.edges[0].src]
    for e in route.edges:
        parts.append(f"-{e.direction}-> {e.dst}")
    return " ".join(parts) + " STOP"


def _cmd_solve(sc: ScenarioFile, args) -> int:
    spec = sc.spec
    if spec.machine_aggregator.kind != "expectation":
        result = brute_force_oracle(spec)
        print(f"aggregator: cvar({fmt(spec.machine_aggregator.alpha)}) via policy enumeration")
        print(f"root value: {fmt(result.value)}")
        print(f"optimal policies: {len(result.policies)} of {result.policy_count}")
        policy = result.policies[0]
    else:
        policy = solve_dp(spec)
        print(f"root value: {fmt(policy.value[policy.root])}")
    for i in spec.positive_support():
        route = playout(spec, policy, i)
        ovr = ", ".join(f"period {p} -> {route.signals[p - 1]}" for p in route.override_periods)
        print(
            f"type {i} (theta={fmt(spec.types[i])}): route {_describe_route(route)}"
            f" | overrides: {ovr or 'none'} | criterion {fmt(route.criterion)}"
        )
    return 0


def _cmd_baselines(sc: ScenarioFile, args) -> int:
    spec = sc.spec
    support = spec.positive_support()
    bcp = best_case_value(spec)
    lines = [f"theta_bar: {fmt(average_theta(spec))}", f"best_case: {fmt(bcp)}"]
    for mode in ("neutral", "average"):
        if mode == "neutral" and args.neutral_with_overrides:
            label = "neutral (with overrides):"
            plans = neutral_override_plans(spec, support)
            per_type = {i: playout(spec, plan, i).criterion for i, plan in plans.items()}
        else:
            plan = baseline_policy(spec, mode)
            # every type rides the planned route silently, so any type's playout describes it
            label = f"{mode}: route {_describe_route(playout(spec, plan, 0))} |"
            per_type = {i: plan.per_type_criterion[i] for i in support}
        weighted = aggregate(spec.machine_aggregator, spec.exact_prior(), per_type)
        crits = ", ".join(f"type {i}: {fmt(c)}" for i, c in per_type.items())
        lines.append(f"{label} {crits} | weighted {fmt(weighted)} | regret {fmt(weighted - bcp)}")
    print("\n".join(lines))
    return 0


def _cmd_verify(sc: ScenarioFile, args) -> int:
    spec = sc.spec
    policy = solve_dp(spec)
    report = verify_equilibrium(spec, policy, deviation_budget=args.budget)
    checks = (report.machine_ic, report.human_ic, report.belief_consistency)
    for check in checks:
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'}")
        if not check.passed:
            print(f"  {check.detail}")
    if not report.all_passed:
        failed = ", ".join(check.name for check in checks if not check.passed)
        raise EquilibriumVerificationError(f"the solved policy fails {failed}")
    return 0


def _cmd_sweep(sc: ScenarioFile, args) -> int:
    axis = args.axis if args.axis is not None else sc.sweep_axis
    if not 1 <= axis <= len(sc.spec.types):
        raise SweepFlagError(f"--axis {axis} out of range for {len(sc.spec.types)} types")
    if args.grid is not None:
        if args.grid < 2:
            raise SweepFlagError(f"--grid {args.grid}: a sweep needs at least 2 grid points")
        grid = tuple(i / (args.grid - 1) for i in range(args.grid))
    else:
        grid = sc.sweep_grid or evaluation.DEFAULT_SWEEP_GRID
    rows = evaluation.prior_sweep(
        sc.spec, axis - 1, grid, neutral_with_overrides=args.neutral_with_overrides
    )
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise SweepFlagError(
                f"--out {args.out}: cannot open for writing: {type(exc).__name__}: {exc}"
            ) from None
        try:
            with fh:
                write_regret_csv(rows, fh)
        except OSError as exc:  # the file is left as the failed write left it
            raise SweepFlagError(f"--out {args.out}: cannot write: {type(exc).__name__}: {exc}") from None
    else:
        write_regret_csv(rows, sys.stdout)
    return 0


def _cmd_paths(sc: ScenarioFile, args) -> int:
    spec = sc.spec
    stats = enumerate_paths_oracle(spec)
    headers = ["route", "mean", "variance"] + [f"criterion@{fmt(t)}" for t in spec.types]
    lines = ["\t".join(headers)]
    for ps in stats:
        row = [_describe_route(ps), fmt(ps.mean), fmt(ps.variance)]
        row += [fmt(ps.criterion(t)) for t in spec.types]
        lines.append("\t".join(row))
    for i, t in enumerate(spec.types):
        plan = risk_adjusted_shortest_path(spec, t)
        lines.append(f"optimal@{fmt(t)}: {_describe_route(playout(spec, plan, i))} "
                     f"criterion {fmt(plan.per_type_criterion[i])}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskgames",
        description="Risk-sensitive human-machine routing benchmark",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    parser.add_argument(
        "--aggregator",
        default=None,
        help="override the machine aggregator: 'expectation' or 'cvar:<alpha>'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", help="solve the coordinator problem and print routes")

    p_base = sub.add_parser("baselines", help="print neutral/average/best-case values")
    p_base.add_argument(
        "--neutral-with-overrides",
        action="store_true",
        help="let riders best-respond to the neutral machine",
    )

    p_verify = sub.add_parser("verify", help="check the equilibrium conditions of the solve")
    p_verify.add_argument(
        "--budget", type=int, default=DEFAULT_DEVIATION_BUDGET, help="deviation search budget"
    )

    p_sweep = sub.add_parser("sweep", help="regret sweep over one prior axis, CSV output")
    p_sweep.add_argument("--axis", type=int, default=None, help="1-based type index to sweep")
    p_sweep.add_argument("--grid", type=int, default=None, help="number of evenly spaced grid points")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.add_argument(
        "--neutral-with-overrides",
        action="store_true",
        help="evaluate the neutral baseline with rider best responses",
    )

    sub.add_parser("paths", help="enumerate start-to-terminal routes with exact totals")
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "baselines": _cmd_baselines,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "paths": _cmd_paths,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        if args.aggregator is not None:
            sc.spec = replace(sc.spec, machine_aggregator=_parse_aggregator_flag(args.aggregator))
            problems = validate_spec(sc.spec)
            if problems:
                raise ScenarioError(problems)
        status = _COMMANDS[args.command](sc, args)
        sys.stdout.flush()  # a reader that left early shows here, not at interpreter exit
    except RiskGamesError as exc:
        slug = type(exc).__name__
        print(f"error: {slug}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # writing stdout failed, on a full device or because its reader stopped early (`| head`):
        # discard the rest of the output, so that the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
