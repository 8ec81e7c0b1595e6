"""Test-only reference oracles: the product enumeration of prescriptions that
``coordinator_solver`` replaced with subset splits, and what it drives.

:class:`Prescriptions` lists a belief state's feasible prescriptions by
trying all |A_m|·|A_h|^K of them in the documented tie-break order (machine
action first, then the human action per ascending type index), each with its
children. :func:`states` and :func:`product_count` walk them from the root;
:func:`reference_induction` and :func:`reference_oracle` solve by them. They
read the spec alone, not the library's engine or its subset code, and recurse
once per period, so they suit short horizons only.
"""

from __future__ import annotations

import itertools
import math

from riskgames.coordinator_solver import (
    BeliefState,
    OracleResult,
    PolicyTree,
    Prescription,
    evaluate_policy_tree,
)
from riskgames.game_model import SILENT, STOP, GameSpec


class Prescriptions:
    """A state's feasible prescriptions with their child states, canonical order, cached."""

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.root = BeliefState(spec.start_node, tuple(sorted(spec.exact_prior())), 1)
        self._cache: dict[BeliefState, list] = {}

    def feasible(self, node: str, period: int) -> bool:
        return self.spec.steps_to_terminal[node] <= self.spec.horizon_T - period

    def __call__(self, state: BeliefState) -> list:
        cached = self._cache.get(state)
        if cached is not None:
            return cached
        node, support, t = state.node, state.support, state.period
        out = []
        if t <= self.spec.horizon_T and self.feasible(node, t):
            acts = self.spec.machine_moves(node)
            for a_m in acts:
                for combo in itertools.product((SILENT,) + acts, repeat=len(support)):
                    groups: dict[str, list[int]] = {}
                    for i, a in zip(support, combo):
                        groups.setdefault(a, []).append(i)
                    children: list[tuple[str, BeliefState | None]] = []
                    for signal, members in groups.items():
                        effective = signal if signal != SILENT else a_m
                        if effective == STOP:
                            children.append((signal, None))
                            continue
                        dst = self.spec.out_edges[node][effective].dst
                        if not self.feasible(dst, t + 1):
                            break
                        children.append((signal, BeliefState(dst, tuple(members), t + 1)))
                    else:
                        out.append((Prescription(a_m, tuple(zip(support, combo))), tuple(children)))
        self._cache[state] = out
        return out


def states(spec: GameSpec) -> list[set[BeliefState]]:
    """The states of each period from 1 on: the root, then every child of a prescription."""
    prescriptions = Prescriptions(spec)
    layers = [{prescriptions.root}]
    while True:
        following = {
            child
            for state in layers[-1]
            for _, children in prescriptions(state)
            for _, child in children
            if child is not None
        }
        if not following:
            return layers
        layers.append(following)


def product_count(spec: GameSpec) -> int:
    """Number of trees at the root: per state, the sum over prescriptions of the product of child counts."""
    prescriptions = Prescriptions(spec)
    later: dict[BeliefState, int] = {}
    for layer in reversed(states(spec)):
        later = {
            state: sum(
                math.prod(later[child] for _, child in children if child is not None)
                for _, children in prescriptions(state)
            )
            for state in layer
        }
    return later[prescriptions.root]


def reference_induction(spec: GameSpec):
    """Backward induction keeping the first minimum in the canonical prescription order.

    Stages are priced from the spec's exact moments, not the engine's integer tables.
    """
    prescriptions = Prescriptions(spec)
    weights = spec.exact_prior()
    decision, value, transitions = {}, {}, {}
    moments = {(node, d): e.cost for node, out in spec.out_edges.items() for d, e in out.items()}
    moments.update(((node, STOP), cost) for node, cost in spec.terminals.items())

    def solve(state):
        if state not in value:
            best = None
            for presc, children in prescriptions(state):
                total = sum(solve(child) for _, child in children if child is not None)
                for i, signal in presc.human:
                    cost = moments[(state.node, presc.machine if signal == SILENT else signal)]
                    stage = cost.exact_mean + spec.exact_types[i] * cost.exact_variance
                    if signal != SILENT:
                        stage += spec.exact_transmission_cost
                    total += weights[i] * stage
                if best is None or total < best[0]:
                    best = (total, presc, children)
            value[state], decision[state], children = best
            transitions.update(((state, signal), child) for signal, child in children)
        return value[state]

    solve(prescriptions.root)
    return decision, value, transitions


def reference_oracle(spec: GameSpec) -> OracleResult:
    """Every tree in the canonical order, each priced by evaluate_policy_tree.

    evaluate_policy_tree prices a tree by each type's forward playout over
    the whole route, not from the subtree cost vectors the oracle sums.
    """
    prescriptions = Prescriptions(spec)

    def trees(state):
        for presc, children in prescriptions(state):
            signals = [signal for signal, _ in children]
            options = [[None] if child is None else list(trees(child)) for _, child in children]
            for chosen in itertools.product(*options):
                yield PolicyTree(presc, tuple(zip(signals, chosen)))

    best, minimizers, count = None, [], 0
    for tree in trees(prescriptions.root):
        count += 1
        value, _ = evaluate_policy_tree(spec, tree)
        if best is None or value < best:
            best, minimizers = value, []
        if value == best:
            minimizers.append(tree)
    return OracleResult(value=best, policies=tuple(minimizers), policy_count=count)
