"""Comparison policies: exhaustive path oracle, risk-adjusted shortest path,
the best-case benchmark, and the two no-interaction baselines.

The enumeration oracle is the ground truth every planner is tested
against. Every planner is one backward induction over (node, periods left)
on integers: each option's weight, mean + theta * variance (plus the fee on
an override), is scaled by one common denominator, and results become
exact rationals only when they leave the module. At each (node, periods
left) the induction tries STOP first (after staying SILENT, for a rider
answering the neutral machine), then the out-edges in canonical direction
order, and keeps the first strict minimum, so results are reproducible bit
for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import STATE_GUARD, EnumerationGuardError, UnreachableTerminalError, _count_text
from .game_model import (
    SILENT,
    STOP,
    Edge,
    GameSpec,
    require_valid,
    theta_of,
)

PATH_ENUMERATION_NODE_LIMIT = 20  # bounds recursion depth and route length, so steps bound memory
PATH_ENUMERATION_STEP_LIMIT = 250_000  # nodes the search enters, each emitting at most one path


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


def enumerate_paths_oracle(spec: GameSpec) -> list[PathStats]:
    """Every simple start-to-terminal path that fits the horizon, with exact totals.

    Complete enumeration by depth-first search; paths may pass through a
    terminal and continue, and each terminal visit emits an entry. Guarded
    to :data:`PATH_ENUMERATION_NODE_LIMIT` nodes and :data:`PATH_ENUMERATION_STEP_LIMIT` steps.
    """
    require_valid(spec)
    if len(spec.nodes) > PATH_ENUMERATION_NODE_LIMIT:
        raise EnumerationGuardError(
            f"path enumeration is guarded to {PATH_ENUMERATION_NODE_LIMIT} nodes, spec has {len(spec.nodes)}",
            bound=PATH_ENUMERATION_NODE_LIMIT,
        )
    max_moves = spec.horizon_T - 1  # one period is reserved for STOP
    results: list[PathStats] = []
    steps = itertools.count(1)

    def extend(node: str, visited: set[str], edges: list[Edge], mean: Fraction, var: Fraction):
        if next(steps) > PATH_ENUMERATION_STEP_LIMIT:
            raise EnumerationGuardError(f"path enumeration exceeds its guard of {PATH_ENUMERATION_STEP_LIMIT} "
                                        "search steps", bound=PATH_ENUMERATION_STEP_LIMIT)
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


def _induct(spec: GameSpec, theta: Fraction, machine=None):
    """Backward induction over (node, periods left r = 1..T) on scaled integers.

    Returns ``action``: ``action[r][node]`` is the first strict minimum of the
    cost-to-go over STOP (at terminals), then the out-edges in canonical
    order, and is missing where no terminal can be reached in time. Every
    option weighs mean + theta * variance. Given a ``machine`` table, the
    induction is a rider's answer to it: a SILENT option that rides
    ``machine[r][node]`` comes first, and every other move pays the spec's fee.

    A worklist (label correcting, as in Bellman-Ford) picks the nodes a
    round re-evaluates: every node in round 1, then the predecessors of the
    nodes whose value changed in the last round, and the nodes whose ride
    changed; the others keep their last entries. This is exact: a node whose
    successors' values and ride did not change meets the same options at the
    same costs, each node reads only the last round's values, so the order of
    the list changes nothing, and reachability only grows with r.

    It stops once no value changed and ``machine`` has no later table, as
    every later table would repeat the last: read
    ``action[min(r, len(action) - 1)]``. Without a negative-cost cycle a
    plain induction stops by round |V|, whatever the horizon; past it, a
    change raises :class:`EnumerationGuardError` once |V| entries for each
    period left exceed :data:`STATE_GUARD`. A responder is not guarded: its
    values alternate forever if its ride circles a zero-cost cycle, and the
    machine table's induction has already met any negative cycle.
    """
    # spec.integer_costs over theta's denominator: one common positive scale
    _, q, moments = spec.integer_costs
    weight = {key: m * theta.denominator + theta.numerator * v for key, (m, v) in moments.items()}
    charge = 0 if machine is None else q * theta.denominator
    stop = {node: weight[(node, STOP)] for node in spec.terminals}
    moves = {node: {d: (e.dst, weight[(node, d)]) for d, e in out.items()}
             for node, out in spec.out_edges.items()}
    size = len(spec.nodes)
    action: list[dict[str, str]] = [{}]
    later, acts, ride = {}, {}, {}  # the last round's values, actions and machine table
    dirty = moves.keys()
    for r in range(1, spec.horizon_T + 1):
        if machine is not None:
            last, ride = ride, machine[min(r, len(machine) - 1)]
            if ride is not last:
                dirty = {*dirty, *(node for node in moves if ride.get(node) != last.get(node))}
        acts = dict(acts)
        changed = {}
        for node in dirty:
            out = moves[node]
            best = act = None
            default = ride.get(node)
            if default == STOP:
                best, act = stop[node], SILENT
            elif default is not None:
                dst, w = out[default]
                best, act = w + later[dst], SILENT
            if node in stop and (best is None or charge + stop[node] < best):
                best, act = charge + stop[node], STOP
            for d, (dst, w) in out.items():
                if dst in later and (best is None or charge + w + later[dst] < best):
                    best, act = charge + w + later[dst], d
            if act is not None:
                acts[node] = act
                if later.get(node) != best:
                    changed[node] = best
        action.append(acts)
        if not changed and (machine is None or r >= len(machine) - 1):
            break
        if changed and machine is None and r > size and (entries := size * (spec.horizon_T - r)) > STATE_GUARD:
            raise EnumerationGuardError(
                f"{_count_text(entries)} (node, periods left) entries projected to the horizon "
                f"exceed the state guard of {STATE_GUARD}", bound=STATE_GUARD)
        later.update(changed)
        dirty = {u for v in changed for u in spec.predecessors[v]}
    return action


def risk_adjusted_shortest_path(spec: GameSpec, theta) -> PlannerResult:
    """Cheapest start-to-terminal route under mean + theta * variance edge weights.

    At most horizon - 1 moves (one period is kept for STOP), terminal
    contribution included. Ties break toward stopping, then toward the
    lexicographically smallest direction-label sequence.
    """
    t = theta_of(theta)
    plan = _route(spec, _induct(spec, t))
    # the route's exact moments, from spec.integer_costs; equal to path_criterion per type
    den, _, moments = spec.integer_costs
    moves = [(e.src, e.direction) for e in plan.path] + [(plan.terminal, STOP)]
    mean, var = (Fraction(sum(moments[move][j] for move in moves), den) for j in (0, 1))
    per_type = {i: mean + th * var for i, th in enumerate(spec.exact_types)}
    return PlannerResult(path=plan.path, per_type_criterion=per_type, planner_theta=t)


def average_theta(spec: GameSpec) -> Fraction:
    """Prior-weighted mean risk-aversion coefficient."""
    return sum((w * spec.exact_types[i] for i, w in spec.exact_prior().items()), start=Fraction(0))


def best_case_value(spec: GameSpec) -> Fraction:
    """Prior-weighted optimum when the type is communicated up front.

    Each type gets its own optimal route with no overrides; this is the
    benchmark floor every interactive policy is measured against.
    """
    total = Fraction(0)
    for i, w in spec.exact_prior().items():
        total += w * risk_adjusted_shortest_path(spec, spec.exact_types[i]).per_type_criterion[i]
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


def neutral_override_plan(spec: GameSpec, type_index: int) -> RealizedPlan:
    """Best response of one rider type against the expectation-only machine.

    The machine replans from wherever it finds itself: its action table is
    the induction at theta = 0 without fee, so it stays well defined when a
    rider diverts the car. The rider may stay silent (the machine moves) or
    pay the transmission fee to redirect; this optimizes the rider's own
    mean-plus-weighted-variance cost-to-go.
    """
    return neutral_override_plans(spec, (type_index,))[type_index]


def neutral_override_plans(spec: GameSpec, types: Iterable[int]) -> dict[int, RealizedPlan]:
    """:func:`neutral_override_plan` for each of ``types``, the machine's table built once."""
    machine = _induct(spec, Fraction(0))
    return {i: _route(spec, machine, _induct(spec, spec.exact_types[i], machine)) for i in types}


def _route(spec: GameSpec, machine: list[dict], rider: list[dict] | None = None) -> RealizedPlan:
    """The route from the start node with T periods left, read off :func:`_induct` tables.

    Each period the machine plays its table's move and the rider sends its
    table's signal, or SILENT without a rider table; a table ``action`` is
    read with r periods left at ``action[min(r, len(action) - 1)]``.
    """
    node, r = spec.start_node, spec.horizon_T
    if node not in (machine if rider is None else rider)[-1]:  # the r = T layer, empty when T < 1
        raise UnreachableTerminalError(
            f"no terminal reachable from {spec.start_node!r} within {spec.horizon_T - 1} moves"
        )
    edges: list[Edge] = []
    signals: list[str] = []
    machine_moves: list[str] = []
    while True:
        default = machine[min(r, len(machine) - 1)][node]
        signal = SILENT if rider is None else rider[min(r, len(rider) - 1)][node]
        signals.append(signal)
        machine_moves.append(default)
        move = default if signal == SILENT else signal
        if move == STOP:
            return RealizedPlan(
                path=tuple(edges),
                terminal=node,
                signals=tuple(signals),
                machine_actions=tuple(machine_moves),
                override_periods=tuple(p for p, s in enumerate(signals, 1) if s != SILENT),
            )
        edge = spec.out_edges[node][move]
        edges.append(edge)
        node, r = edge.dst, r - 1
