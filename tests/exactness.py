"""Exactness digest: one canonical line per exact result, one sha256 per family.

    python tests/exactness.py                 # each family's digest, and whether it is the recorded one
    python tests/exactness.py --lines FAMILY  # the family's lines, to diff two checkouts
    python tests/exactness.py --record        # rewrite tests/exactness.json

A result is a ``solve_dp`` policy (its root and its decision, value and
transition tables, each sorted by key), its ``verify_equilibrium`` report,
each baseline's per-type criteria, a ``brute_force_oracle`` result (value,
count and trees in their documented order) or a ``prior_sweep`` row. Sweep
rows are kept as exact Fractions: the sweep runs with
``evaluation.as_float`` replaced by the identity. Insertion order is not
part of the contract, so no line depends on it. ``tests/exactness.json``
holds the recorded digests; re-record one only when a change is meant to
alter that family's answers.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from instance_gen import (  # noqa: E402
    member_tie_game,
    oracle_sized_game,
    random_game,
    seeded_lattice,
    three_node_cycle,
    types_ladder,
)
from riskgames import evaluation  # noqa: E402
from riskgames.baseline_planners import (  # noqa: E402
    baseline_policy,
    neutral_override_plans,
    risk_adjusted_shortest_path,
)
from riskgames.cli_bench import load_scenario  # noqa: E402
from riskgames.coordinator_solver import brute_force_oracle, solve_dp, verify_equilibrium  # noqa: E402
from riskgames.game_model import Aggregator, with_prior  # noqa: E402

DIGESTS_PATH = HERE / "exactness.json"


def _sorted(table) -> list:
    return sorted(table.items(), key=operator.itemgetter(0))


def exact_lines(label: str, spec) -> list[str]:
    """The solve, its verifier report and each baseline's per-type criteria."""
    policy = solve_dp(spec)
    types = range(len(spec.types))
    best_case = [risk_adjusted_shortest_path(spec, spec.exact_types[i]).per_type_criterion for i in types]
    with_overrides = [evaluation.evaluate_policy_exact(spec, plan, i).criterion
                      for i, plan in neutral_override_plans(spec, types).items()]
    return [
        f"{label} root: {policy.root!r}",
        f"{label} decision: {_sorted(policy.decision)!r}",
        f"{label} value: {_sorted(policy.value)!r}",
        f"{label} transitions: {_sorted(policy.transitions)!r}",
        f"{label} verify: {verify_equilibrium(spec, policy)!r}",
        f"{label} best case: {[_sorted(criteria) for criteria in best_case]!r}",
        f"{label} neutral: {_sorted(baseline_policy(spec, 'neutral').per_type_criterion)!r}",
        f"{label} average: {_sorted(baseline_policy(spec, 'average').per_type_criterion)!r}",
        f"{label} neutral with overrides: {with_overrides!r}",
    ]


def sweep_lines(label: str, spec) -> list[str]:
    """Every row of a sweep along each axis, plain and with overrides, in exact Fractions."""
    lines = []
    with mock.patch.object(evaluation, "as_float", lambda x: x):
        for axis in range(len(spec.types)):
            for overrides in (False, True):
                for row in evaluation.prior_sweep(spec, axis, neutral_with_overrides=overrides):
                    lines.append(f"{label} sweep axis {axis} overrides {overrides}: {row!r}")
    return lines


def _bundled(name: str) -> list[str]:
    spec = load_scenario(name).spec
    return exact_lines(name, spec) + sweep_lines(name, spec)


def _k_ladder() -> list[str]:
    graph_b = load_scenario("graph_b").spec
    return [line for k in (6, 8, 10) for line in exact_lines(f"K={k}", types_ladder(graph_b, k))]


def _oracle_sized() -> list[str]:
    """The oracle's value, count and trees, under expectation, CVaR(0.5) and CVaR(0.9)."""
    aggregators = {"expectation": Aggregator.expectation(), "cvar 0.5": Aggregator.cvar(0.5),
                   "cvar 0.9": Aggregator.cvar(0.9)}
    lines = []
    for seed in range(50):
        spec = oracle_sized_game(seed)
        for name, aggregator in aggregators.items():
            result = brute_force_oracle(replace(spec, machine_aggregator=aggregator))
            lines.append(f"seed {seed} {name} oracle: {result.value!r} {result.policy_count} {result.policies!r}")
    return lines


FAMILIES = {
    "graph_a": lambda: _bundled("graph_a"),
    "graph_b": lambda: _bundled("graph_b"),
    "graph_b_zero_weight": lambda: exact_lines(
        "graph_b (0.5, 0, 0.5)", with_prior(load_scenario("graph_b").spec, (0.5, 0, 0.5))
    ),
    "lattice": lambda: [line for seed in (0, 5) for line in exact_lines(f"seed {seed}", seeded_lattice(seed))],
    "k_ladder": _k_ladder,
    "random_k5": lambda: [line for seed in range(200)
                          for line in exact_lines(f"seed {seed}", random_game(seed, k_types=5))],
    "oracle_sized": _oracle_sized,
    "member_tie": lambda: exact_lines("member_tie", member_tie_game()),
    "cycle": lambda: [line for t in (50, 3000) for line in exact_lines(f"T={t}", three_node_cycle(t))],
}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--lines"]:
        print("\n".join(FAMILIES[argv[1]]()))
        return 0
    digests = {name: digest(make()) for name, make in FAMILIES.items()}
    if argv == ["--record"]:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        return 0
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    for name, value in digests.items():
        print(f"{name} {value} {'recorded' if recorded.get(name) == value else 'CHANGED'}")
    return 0 if digests == recorded else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
