"""Test-only reference planners: the forward-search and memoized-recursion
baselines that ``baseline_planners`` replaced with one backward induction,
and that induction as it was before it kept a worklist (:func:`induct`).

``risk_adjusted_shortest_path`` keeps, per (node, moves made), the best
(cost, direction-rank sequence) and picks the overall minimum of that pair;
the neutral machine rule and the rider's best response against it recurse
once per period, keeping the first strict minimum in candidate order
(SILENT, then STOP, then the out-edges in canonical order). They work on
``Fraction``s throughout and recurse, so they suit short horizons only.
"""

from __future__ import annotations

from fractions import Fraction

from riskgames.baseline_planners import PlannerResult, RealizedPlan
from riskgames.errors import UnreachableTerminalError
from riskgames.game_model import (
    _DIR_RANK,
    SILENT,
    STOP,
    Edge,
    GameSpec,
    as_fraction,
    path_criterion,
    theta_of,
)


def risk_adjusted_shortest_path(spec: GameSpec, theta) -> PlannerResult:
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


def neutral_machine_rule(spec: GameSpec):
    """(solve, action): the expectation-only machine's (node, periods left) -> action."""
    cost: dict[tuple[str, int], Fraction | None] = {}
    action: dict[tuple[str, int], str] = {}

    def solve(node: str, r: int) -> Fraction | None:
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
    theta = as_fraction(spec.types[type_index])
    q = as_fraction(spec.transmission_cost)
    solve_neutral, machine_action = neutral_machine_rule(spec)
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
        if machine_move is not None:
            if machine_move == STOP:
                term = spec.terminals[node]
                best = (term.exact_mean + theta * term.exact_variance, SILENT)
            else:
                edge = spec.out_edges[node][machine_move]
                sub = respond(edge.dst, r - 1)
                if sub is not None:
                    cand = edge.cost.exact_mean + theta * edge.cost.exact_variance + sub[0]
                    best = (cand, SILENT)
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

    if respond(spec.start_node, spec.horizon_T) is None:
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


def induct(spec: GameSpec, theta: Fraction, fee: bool = False, machine=None):
    """``baseline_planners._induct`` re-evaluating every node and every out-edge each round."""
    _, q, moments = spec.integer_costs
    weight = {key: m * theta.denominator + theta.numerator * v for key, (m, v) in moments.items()}
    charge = q * theta.denominator if fee else 0
    stop = {node: weight[(node, STOP)] for node in spec.terminals}
    moves = {node: {d: (e.dst, weight[(node, d)]) for d, e in out.items()}
             for node, out in spec.out_edges.items()}
    action: list[dict[str, str]] = [{}]
    later: dict[str, int] = {}
    for r in range(1, spec.horizon_T + 1):
        now: dict[str, int] = {}
        acts: dict[str, str] = {}
        ride = machine[min(r, len(machine) - 1)] if machine is not None else {}
        for node, out in moves.items():
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
                now[node], acts[node] = best, act
        action.append(acts)
        if now == later and (machine is None or r >= len(machine) - 1):
            break
        later = now
    return action
