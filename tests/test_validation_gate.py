"""One validation gate: every function that plans, solves, verifies or
aggregates refuses an invalid spec with the same violations, and each spec
object is checked once."""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from riskgames import CostDistribution, Edge, cli_bench, game_model
from riskgames.baseline_planners import (
    average_theta,
    baseline_policy,
    best_case_value,
    neutral_override_plan,
    neutral_override_plans,
    risk_adjusted_shortest_path,
    risk_adjusted_shortest_paths,
)
from riskgames.coordinator_solver import brute_force_oracle, evaluate_policy_tree, solve_dp, verify_equilibrium
from riskgames.errors import SpecValidationError
from riskgames.evaluation import evaluate_policy
from riskgames.game_model import require_valid, with_prior

# invalid copies of graph_a
INVALID = {
    "unknown start": lambda spec: replace(spec, start_node="zz"),
    "horizon 0": lambda spec: replace(spec, horizon_T=0),
    "horizon 3": lambda spec: replace(spec, horizon_T=3),
    "nan prior": lambda spec: replace(spec, prior=(math.nan, 0.5)),
    "short prior": lambda spec: replace(spec, prior=(1.0,)),
    "unordered types": lambda spec: replace(spec, types=(0.5, 0.01)),
    "direction Q": lambda spec: replace(spec, edges=spec.edges + (Edge("1", "2", "Q", CostDistribution(1, 0)),)),
}

# entry point -> its call on a spec, given what was solved on graph_a
ENTRY_POINTS = {
    "risk_adjusted_shortest_path": lambda spec, a: risk_adjusted_shortest_path(spec, 0),
    "risk_adjusted_shortest_paths": lambda spec, a: risk_adjusted_shortest_paths(spec, [0, 0.5]),
    "average_theta": lambda spec, a: average_theta(spec),
    "best_case_value": lambda spec, a: best_case_value(spec),
    "baseline_policy[neutral]": lambda spec, a: baseline_policy(spec, "neutral"),
    "baseline_policy[average]": lambda spec, a: baseline_policy(spec, "average"),
    "neutral_override_plan": lambda spec, a: neutral_override_plan(spec, 0),
    "neutral_override_plans": lambda spec, a: neutral_override_plans(spec, [0, 1]),
    "verify_equilibrium": lambda spec, a: verify_equilibrium(spec, a.policy),
    "evaluate_policy": lambda spec, a: evaluate_policy(spec, a.policy),
    "evaluate_policy_tree": lambda spec, a: evaluate_policy_tree(spec, a.tree),
}


@pytest.fixture(scope="module")
def solved_a(graph_a):
    return SimpleNamespace(policy=solve_dp(graph_a), tree=brute_force_oracle(graph_a).policies[0])


@pytest.mark.parametrize("case", INVALID)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_an_invalid_spec_as_solve_dp_does(graph_a, solved_a, entry, case):
    with pytest.raises(SpecValidationError) as expected:
        solve_dp(INVALID[case](graph_a))
    assert expected.value.violations
    with pytest.raises(SpecValidationError) as err:
        ENTRY_POINTS[entry](INVALID[case](graph_a), solved_a)
    assert err.value.violations == expected.value.violations


def test_each_spec_is_checked_once(monkeypatch, capsys):
    checked = []

    def counted(spec):
        checked.append(spec)
        return check(spec)

    check = game_model.validate_spec
    monkeypatch.setattr(game_model, "validate_spec", counted)
    sc = cli_bench.load_scenario("graph_a")
    monkeypatch.setattr(cli_bench, "load_scenario", lambda _: sc)
    for command in (["solve"], ["verify"], ["baselines"], ["baselines", "--neutral-with-overrides"], ["paths"]):
        assert cli_bench.main(["--scenario", "graph_a", *command]) == 0
    assert len(checked) == 1 and checked[0] is sc.spec
    assert capsys.readouterr().err == ""
    # a copy that differs in its prior, or in anything else, keeps its own verdict
    copies = [with_prior(sc.spec, (0.25, 0.75)), replace(sc.spec, horizon_T=7)]
    for copy in copies:
        assert "violations" not in vars(copy)
        require_valid(copy)
        require_valid(copy)
    assert len(checked) == 3 and all(a is b for a, b in zip(checked[1:], copies, strict=True))
    assert sc.spec.violations == ()  # a tuple, which no reader can change
