"""Comparison policies: exhaustive path oracle, risk-adjusted shortest path,
the best-case benchmark, and the two no-interaction baselines.

The enumeration oracle is the ground truth every planner is tested
against. Planners work on exact rationals and break ties lexicographically
on direction labels so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationGuardError, UnreachableTerminalError
from .game_model import (
    _DIR_RANK,
    SILENT,
    STOP,
    Edge,
    GameSpec,
    as_fraction,
    path_criterion,
    theta_of,
)

PATH_ENUMERATION_NODE_LIMIT = 20


@dataclass(frozen=True)
class PathStats:
    """One start-to-terminal path with exact moment totals (terminal included)."""

    edges: tuple[Edge, ...]
    terminal: str
    mean: Fraction
    variance: Fraction

    def criterion(self, theta) -> Fraction:
        return self.mean + theta_of(theta) * self.variance

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(e.direction for e in self.edges)


@dataclass(frozen=True)
class PlannerResult:
    """A single planned route plus how every type prices it."""

    path: tuple[Edge, ...]
    per_type_criterion: dict[int, Fraction]
    planner_theta: Fraction

    @property
    def terminal(self) -> str:
        return self.path[-1].dst if self.path else None


@dataclass(frozen=True)
class RealizedPlan:
    """A per-type route realized against a fixed machine rule.

    Carries the full period-by-period record (signals sent, machine
    defaults, which periods paid the fee) so evaluators can reconstruct
    exact stage costs.
    """

    path: tuple[Edge, ...]
    terminal: str
    signals: tuple[str, ...]
    machine_actions: tuple[str, ...]
    override_periods: tuple[int, ...]

    @property
    def overrides(self) -> int:
        return len(self.override_periods)


def enumerate_paths_oracle(spec: GameSpec, node_limit: int = PATH_ENUMERATION_NODE_LIMIT) -> list[PathStats]:
    """Every simple start-to-terminal path that fits the horizon, with exact totals.

    Complete enumeration by depth-first search; paths may pass through a
    terminal and continue, and each terminal visit emits an entry. Guarded
    to graphs of at most ``node_limit`` nodes.
    """
    if len(spec.nodes) > node_limit:
        raise EnumerationGuardError(
            f"path enumeration is guarded to {node_limit} nodes, spec has {len(spec.nodes)}",
            bound=node_limit,
        )
    max_moves = spec.horizon_T - 1  # one period is reserved for STOP
    results: list[PathStats] = []

    def extend(node: str, visited: set[str], edges: list[Edge], mean: Fraction, var: Fraction):
        if spec.is_terminal(node):
            term = spec.terminals[node]
            results.append(
                PathStats(
                    edges=tuple(edges),
                    terminal=node,
                    mean=mean + term.exact_mean,
                    variance=var + term.exact_variance,
                )
            )
        if len(edges) >= max_moves:
            return
        for edge in spec.out_edges[node].values():
            if edge.dst in visited:
                continue
            visited.add(edge.dst)
            edges.append(edge)
            extend(edge.dst, visited, edges, mean + edge.cost.exact_mean, var + edge.cost.exact_variance)
            edges.pop()
            visited.remove(edge.dst)

    extend(spec.start_node, {spec.start_node}, [], Fraction(0), Fraction(0))
    return results


def risk_adjusted_shortest_path(spec: GameSpec, theta) -> PlannerResult:
    """Cheapest start-to-terminal route under mean + theta * variance edge weights.

    Stage-indexed shortest path (at most horizon - 1 moves, one period kept
    for STOP), terminal contribution included. Ties break lexicographically
    on the direction-label sequence.
    """
    t = theta_of(theta)
    max_moves = spec.horizon_T - 1
    # layer k: node -> (cost, direction ranks, edges), best by (cost, ranks)
    layer: dict[str, tuple[Fraction, tuple[int, ...], tuple[Edge, ...]]] = {
        spec.start_node: (Fraction(0), (), ())
    }
    best: tuple[Fraction, tuple[int, ...], tuple[Edge, ...], str] | None = None
    for k in range(max_moves + 1):
        for node, (cost, ranks, edges) in layer.items():
            if spec.is_terminal(node):
                term = spec.terminals[node]
                total = cost + term.exact_mean + t * term.exact_variance
                if best is None or (total, ranks) < (best[0], best[1]):
                    best = (total, ranks, edges, node)
        if k == max_moves:
            break
        nxt: dict[str, tuple[Fraction, tuple[int, ...], tuple[Edge, ...]]] = {}
        for node, (cost, ranks, edges) in layer.items():
            for edge in spec.out_edges[node].values():
                w = edge.cost.exact_mean + t * edge.cost.exact_variance
                cand = (cost + w, ranks + (_DIR_RANK[edge.direction],), edges + (edge,))
                cur = nxt.get(edge.dst)
                if cur is None or (cand[0], cand[1]) < (cur[0], cur[1]):
                    nxt[edge.dst] = cand
        layer = nxt
    if best is None:
        raise UnreachableTerminalError(
            f"no terminal reachable from {spec.start_node!r} within {max_moves} moves"
        )
    path = best[2]
    per_type = {i: path_criterion(spec, path, 0, th) for i, th in enumerate(spec.types)}
    return PlannerResult(path=path, per_type_criterion=per_type, planner_theta=t)


def average_theta(spec: GameSpec) -> Fraction:
    """Prior-weighted mean risk-aversion coefficient."""
    return sum(
        (as_fraction(w) * as_fraction(th) for w, th in zip(spec.prior, spec.types)),
        start=Fraction(0),
    )


def best_case_value(spec: GameSpec) -> Fraction:
    """Prior-weighted optimum when the type is communicated up front.

    Each type gets its own optimal route with no overrides; this is the
    benchmark floor every interactive policy is measured against.
    """
    total = Fraction(0)
    for i, w in enumerate(spec.prior):
        wf = as_fraction(w)
        if wf == 0:
            continue
        plan = risk_adjusted_shortest_path(spec, spec.types[i])
        total += wf * plan.per_type_criterion[i]
    return total


def baseline_policy(spec: GameSpec, mode: str) -> PlannerResult:
    """The two no-interaction reference policies.

    ``neutral`` plans as if variance were free (theta = 0); ``average``
    plans for the prior-mean coefficient. In both modes the rider never
    acts, so the planned route is ridden silently by every type.
    """
    if mode == "neutral":
        return risk_adjusted_shortest_path(spec, Fraction(0))
    if mode == "average":
        return risk_adjusted_shortest_path(spec, average_theta(spec))
    raise ValueError(f"unknown baseline mode {mode!r}")


def _neutral_machine_rule(spec: GameSpec):
    """Action table of an expectation-only machine: (node, periods left) -> action.

    The rule replans from wherever it finds itself, so it stays well
    defined when a rider diverts the car.
    """
    cost: dict[tuple[str, int], Fraction | None] = {}
    action: dict[tuple[str, int], str] = {}

    def solve(node: str, r: int) -> Fraction | None:
        # r strictly decreases on recursion, so memoization needs no cycle guard
        if r <= 0:
            return None
        key = (node, r)
        if key in cost:
            return cost[key]
        best = None
        best_act = None
        if spec.is_terminal(node):
            best = spec.terminals[node].exact_mean
            best_act = STOP
        for edge in spec.out_edges[node].values():
            sub = solve(edge.dst, r - 1)
            if sub is None:
                continue
            cand = edge.cost.exact_mean + sub
            if best is None or cand < best:
                best, best_act = cand, edge.direction
        cost[key] = best
        if best is not None:
            action[key] = best_act
        return best

    return solve, action


def neutral_override_plan(spec: GameSpec, type_index: int) -> RealizedPlan:
    """Best response of one rider type against the expectation-only machine.

    The rider may stay silent (the neutral machine moves) or pay the
    transmission fee to redirect; this optimizes the rider's own
    mean-plus-weighted-variance cost-to-go.
    """
    theta = as_fraction(spec.types[type_index])
    q = as_fraction(spec.transmission_cost)
    solve_neutral, machine_action = _neutral_machine_rule(spec)
    solve_neutral(spec.start_node, spec.horizon_T)

    memo: dict[tuple[str, int], tuple[Fraction, str] | None] = {}

    def respond(node: str, r: int):
        if r <= 0:
            return None
        key = (node, r)
        if key in memo:
            return memo[key]
        best = None  # (cost, human action)
        machine_move = machine_action.get((node, r))
        # silent: ride whatever the neutral rule does here
        if machine_move is not None:
            if machine_move == STOP:
                term = spec.terminals[node]
                cand = term.exact_mean + theta * term.exact_variance
                best = (cand, SILENT)
            else:
                edge = spec.out_edges[node][machine_move]
                sub = respond(edge.dst, r - 1)
                if sub is not None:
                    cand = edge.cost.exact_mean + theta * edge.cost.exact_variance + sub[0]
                    best = (cand, SILENT)
        # overrides: pay the fee, pick any legal move
        if spec.is_terminal(node):
            term = spec.terminals[node]
            cand = q + term.exact_mean + theta * term.exact_variance
            if best is None or cand < best[0]:
                best = (cand, STOP)
        for edge in spec.out_edges[node].values():
            sub = respond(edge.dst, r - 1)
            if sub is None:
                continue
            cand = q + edge.cost.exact_mean + theta * edge.cost.exact_variance + sub[0]
            if best is None or cand < best[0]:
                best = (cand, edge.direction)
        memo[key] = best
        return best

    state = respond(spec.start_node, spec.horizon_T)
    if state is None:
        raise UnreachableTerminalError(
            f"no terminal reachable from {spec.start_node!r} within the horizon"
        )
    node, r = spec.start_node, spec.horizon_T
    edges: list[Edge] = []
    signals: list[str] = []
    machine_moves: list[str] = []
    override_periods: list[int] = []
    while True:
        period = spec.horizon_T - r + 1
        _, act = memo[(node, r)]
        default = machine_action[(node, r)]
        signals.append(act)
        machine_moves.append(default)
        move = default if act == SILENT else act
        if act != SILENT:
            override_periods.append(period)
        if move == STOP:
            return RealizedPlan(
                path=tuple(edges),
                terminal=node,
                signals=tuple(signals),
                machine_actions=tuple(machine_moves),
                override_periods=tuple(override_periods),
            )
        edge = spec.out_edges[node][move]
        edges.append(edge)
        node, r = edge.dst, r - 1
