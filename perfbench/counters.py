"""Deterministic work counters read from the results the traced run keeps.

These count input sizes and work, not time, so they repeat exactly from
run to run and the benchmark's tests assert them.
"""

from __future__ import annotations

from collections import Counter

from riskgames.game_model import SILENT, STOP

KEPT = ("coordinator_solver.solve_dp", "coordinator_solver.brute_force_oracle", "evaluation.prior_sweep")


def prescription_space(spec, policy) -> int:
    """Sum over solved states of |A_m| * |A_h| ** |support|."""
    return sum(
        len(spec.machine_moves(s.node)) * len(spec.human_moves(s.node)) ** len(s.support)
        for s in policy.value
    )


def onpath_states(policy) -> set:
    """States some positive-prior type reaches when it plays the policy."""
    reached = set()
    for i in policy.weights:
        state = policy.root
        while state is not None:
            reached.add(state)
            presc = policy.decision[state]
            signal = presc.human_map[i]
            if (presc.machine if signal == SILENT else signal) == STOP:
                break
            state = policy.transitions[(state, signal)]
    return reached


def _table_key(policy) -> tuple:
    return tuple(sorted((s.period, s.node, s.support, p.machine, p.human) for s, p in policy.decision.items()))


def iteration_counters(kept: dict) -> dict[str, float]:
    """Counters of one iteration from the kept (args, result) pairs."""
    solves = kept.get("coordinator_solver.solve_dp", [])
    states = sum(len(pol.value) for _, pol in solves)
    onpath = sum(len(onpath_states(pol)) for _, pol in solves)
    oracles = kept.get("coordinator_solver.brute_force_oracle", [])
    policy_count = sum(res.policy_count for _, res in oracles)
    optimal = sum(len(res.policies) for _, res in oracles)
    return {
        "coordinator_solver.states": states,
        "coordinator_solver.states_peak_period": max(
            (max(Counter(s.period for s in pol.value).values()) for _, pol in solves), default=0
        ),
        "coordinator_solver.max_support": max(
            (len(s.support) for _, pol in solves for s in pol.value), default=0
        ),
        "coordinator_solver.transitions": sum(len(pol.transitions) for _, pol in solves),
        "coordinator_solver.prescription_space": sum(
            prescription_space(args[0], pol) for args, pol in solves
        ),
        "coordinator_solver.onpath_ratio": onpath / states if states else 0.0,
        "coordinator_solver.policy_count": policy_count,
        "coordinator_solver.optimal_policies": optimal,
        "coordinator_solver.optimal_ratio": optimal / policy_count if policy_count else 0.0,
        "evaluation.grid_points": sum(
            len(rows) for _, rows in kept.get("evaluation.prior_sweep", [])
        ),
        "evaluation.distinct_policies": len({_table_key(pol) for _, pol in solves}),
    }
