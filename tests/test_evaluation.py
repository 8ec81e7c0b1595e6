import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from instance_gen import random_game
from riskgames import Aggregator, CostDistribution, Edge, GameSpec, evaluation
from riskgames.baseline_planners import (
    baseline_policy,
    best_case_value,
    neutral_override_plan,
    risk_adjusted_shortest_path,
)
from riskgames.coordinator_solver import solve_dp
from riskgames.errors import UnsupportedAggregatorError
from riskgames.evaluation import (
    PolicyEvaluation,
    RegretRow,
    _sweep_priors,
    compute_regret,
    evaluate_policy,
    evaluate_policy_exact,
    monte_carlo_evaluate,
    prior_sweep,
    sample_trajectory,
)
from riskgames.game_model import SILENT, STOP, as_fraction, with_prior


def test_coordinator_evaluation_matches_root_value(graph_a):
    policy = solve_dp(graph_a)
    tolerant = evaluate_policy_exact(graph_a, policy, 0)
    cautious = evaluate_policy_exact(graph_a, policy, 1)
    # the tolerant type pays one fee on top of its route total
    assert tolerant.mean == Fraction(61, 2) and tolerant.variance == 400
    assert tolerant.criterion == Fraction(69, 2)
    assert tolerant.overrides == 1
    assert cautious.criterion == 40 and cautious.overrides == 0
    ev = evaluate_policy(graph_a, policy)
    assert ev.weighted_criterion == policy.value[policy.root]


def test_neutral_baseline_evaluation(graph_a):
    plan = baseline_policy(graph_a, "neutral")
    out = evaluate_policy_exact(graph_a, plan, 0)
    assert (out.mean, out.variance, out.overrides) == (30, 400, 0)


def test_evaluate_policy_cvar_aggregation(graph_a):
    policy = solve_dp(graph_a)
    ev = evaluate_policy(replace(graph_a, machine_aggregator=Aggregator.cvar(0.9)), policy)
    # the worst tenth of the type distribution is entirely the cautious type
    assert ev.weighted_criterion == 40


def test_regret_of_best_case_plan_is_zero(graph_b):
    per_type = {
        i: evaluate_policy_exact(graph_b, risk_adjusted_shortest_path(graph_b, t), i)
        for i, t in enumerate(graph_b.types)
    }
    weighted = sum(
        Fraction(repr(w)) * per_type[i].criterion for i, w in enumerate(graph_b.prior)
    )
    ev = PolicyEvaluation(per_type=per_type, weighted_criterion=weighted)
    assert compute_regret(graph_b, ev) == 0


def test_regret_of_average_baseline_under_point_mass_is_zero(graph_b):
    for k in range(3):
        spec = replace(graph_b, prior=tuple(1.0 if i == k else 0.0 for i in range(3)))
        ev = evaluate_policy(spec, baseline_policy(spec, "average"))
        assert compute_regret(spec, ev) == 0


def test_neutral_regret_dominates_average_regret(graph_b):
    ev_neutral = evaluate_policy(graph_b, baseline_policy(graph_b, "neutral"))
    ev_average = evaluate_policy(graph_b, baseline_policy(graph_b, "average"))
    r_n, r_a = compute_regret(graph_b, ev_neutral), compute_regret(graph_b, ev_average)
    assert r_n > 0 and r_a > 0
    assert r_n >= r_a


def test_monte_carlo_deterministic_costs_are_exact(diamond):
    spec = replace(
        diamond,
        edges=tuple(replace(e, cost=replace(e.cost, variance=0.0)) for e in diamond.edges),
    )
    plan = risk_adjusted_shortest_path(spec, 0.05)
    exact = evaluate_policy_exact(spec, plan, 0)
    for n in (1, 7):
        mean_est, var_est = monte_carlo_evaluate(spec, plan, 0, n, seed=3)
        assert mean_est == float(exact.mean)
        assert var_est == 0.0


def test_monte_carlo_single_sample_matches_one_draw(graph_a):
    plan = risk_adjusted_shortest_path(graph_a, 0.01)
    mean_est, var_est = monte_carlo_evaluate(graph_a, plan, 0, 1, seed=11)
    again, _ = monte_carlo_evaluate(graph_a, plan, 0, 1, seed=11)
    assert mean_est == again  # seed-reproducible
    assert var_est == 0.0
    with pytest.raises(ValueError):
        monte_carlo_evaluate(graph_a, plan, 0, 0, seed=1)


def test_monte_carlo_concentrates_on_exact_mean(graph_a):
    # seed-pinned: the (30, 400) route sampled 10^5 times lands within 3 SEs
    plan = risk_adjusted_shortest_path(graph_a, 0.01)
    n = 10**5
    mean_est, var_est = monte_carlo_evaluate(graph_a, plan, 0, n, seed=123)
    se = math.sqrt(400 / n)
    assert abs(mean_est - 30.0) <= 3 * se
    assert abs(var_est - 400.0) <= 0.05 * 400


def test_monte_carlo_includes_override_fees(graph_a):
    policy = solve_dp(graph_a)
    mean_est, _ = monte_carlo_evaluate(graph_a, policy, 0, 10**5, seed=5)
    assert abs(mean_est - 30.5) <= 3 * math.sqrt(400 / 10**5)


def test_monte_carlo_agrees_with_exact_on_every_bundled_path(graph_a, graph_b):
    # seed-pinned 4-standard-error agreement, every start-to-terminal route
    from riskgames.baseline_planners import PlannerResult, enumerate_paths_oracle

    n = 10**5
    for spec in (graph_a, graph_b):
        for k, ps in enumerate(enumerate_paths_oracle(spec)):
            plan = PlannerResult(path=ps.edges, per_type_criterion={}, planner_theta=0)
            mean_est, _ = monte_carlo_evaluate(spec, plan, 0, n, seed=1000 + k)
            se = math.sqrt(float(ps.variance) / n)
            assert abs(mean_est - float(ps.mean)) <= 4 * se


def test_sample_trajectory_totals_are_consistent(graph_a):
    policy = solve_dp(graph_a)
    rng = np.random.default_rng(9)
    traj = sample_trajectory(graph_a, policy, 0, rng)
    assert len(traj.step_costs) == 5
    assert traj.total_cost == math.fsum(traj.step_costs) + traj.terminal_cost
    assert traj.history.current == "8"
    # the public record shows the period-3 signal and the machine's default
    assert traj.history.steps[2] == ("3", "S", "N")
    assert traj.history.steps[-1] == ("8", "SILENT", "STOP")
    # mean of many sampled totals should sit near the exact fee-inclusive mean
    totals = [
        sample_trajectory(graph_a, policy, 0, rng).total_cost for _ in range(4000)
    ]
    assert abs(sum(totals) / len(totals) - 30.5) < 1.5


def test_sample_trajectory_charges_a_stop_override_in_the_terminal_cost():
    # the neutral machine rides through t1 on to t2; the cautious rider pays the fee to stop at t1
    spec = GameSpec(
        nodes=("1", "t1", "t2"),
        edges=(Edge("1", "t1", "E", CostDistribution(1, 0)), Edge("t1", "t2", "E", CostDistribution(1, 6))),
        terminals={"t1": CostDistribution(0, 0), "t2": CostDistribution(-5, 0)},
        start_node="1",
        horizon_T=3,
        types=(0.0, 1.0),
        prior=(0.5, 0.5),
        transmission_cost=0.1,
    )
    plan = neutral_override_plan(spec, 1)
    assert (plan.signals, plan.machine_actions, plan.override_periods) == ((SILENT, STOP), ("E", "E"), (2,))
    traj = sample_trajectory(spec, plan, 1, np.random.default_rng(0))
    assert traj.history.steps[-1] == ("t1", STOP, "E")
    # zero variance everywhere, so every draw is its mean
    assert (traj.step_costs, traj.terminal_cost, traj.total_cost) == ((1.0,), 0.1, 1.1)


def test_prior_sweep_rows_and_endpoints(graph_b):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    rows = prior_sweep(graph_b, 0, grid)
    assert [r.sweep_value for r in rows] == list(grid)
    for r in rows:
        assert r.regret_hm <= r.regret_ma <= r.regret_mn
        assert min(r.regret_hm, r.regret_ma, r.regret_mn) >= 0
    assert rows[-1].regret_hm == 0.0 and rows[-1].regret_ma == 0.0


def test_prior_sweep_splits_remaining_mass_evenly(graph_b):
    rows = prior_sweep(graph_b, 1, (0.4,))
    spec = replace(graph_b, prior=(0.3, 0.4, 0.3))
    assert rows[0].bcp == float(best_case_value(spec))


def test_prior_sweep_neutral_override_variant_runs(graph_b):
    rows = prior_sweep(graph_b, 0, (0.0, 0.5, 1.0), neutral_with_overrides=True)
    plain = prior_sweep(graph_b, 0, (0.0, 0.5, 1.0))
    for with_overrides, fixed in zip(rows, plain):
        assert with_overrides.regret_mn >= 0
        # letting riders correct the neutral car can only help it
        assert with_overrides.regret_mn <= fixed.regret_mn + 1e-12


def _replanned_sweep(spec, sweep_type, grid, neutral_with_overrides):
    """The sweep with every baseline re-planned at every grid point."""
    rows = []
    for p in grid:
        swept = with_prior(spec, _sweep_priors(spec, sweep_type, as_fraction(p)))
        weights = swept.exact_prior()
        if neutral_with_overrides:
            neutral = {i: neutral_override_plan(swept, i) for i in weights}
        else:
            neutral = dict.fromkeys(weights, baseline_policy(swept, "neutral"))
        mn = sum(w * evaluate_policy_exact(swept, neutral[i], i).criterion for i, w in weights.items())
        bcp = best_case_value(swept)
        policy = solve_dp(swept)
        ma = evaluate_policy(swept, baseline_policy(swept, "average")).weighted_criterion
        rows.append(RegretRow(float(p), float(policy.value[policy.root] - bcp), float(ma - bcp),
                              float(mn - bcp), float(bcp)))
    return rows


@pytest.mark.parametrize("neutral_with_overrides", [False, True], ids=["plain", "overrides"])
def test_prior_sweep_equals_per_point_replanning(neutral_with_overrides):
    # prior-free criteria are planned once per sweep; the rows must not change
    grid = (0.0, 0.2, 0.5, 1.0)
    specs = [random_game(seed, k_types=3) for seed in range(40)]
    for seed, spec in enumerate(specs):
        if len(spec.types) < 2:  # a single type cannot take mass 0
            continue
        for axis in range(len(spec.types)):
            rows = prior_sweep(spec, axis, grid, neutral_with_overrides)
            assert rows == _replanned_sweep(spec, axis, grid, neutral_with_overrides), (seed, axis)


def _unshared_copy(spec, prior):
    """with_prior's copy built by dataclasses.replace alone: it shares no table."""
    return replace(spec, prior=tuple(float(w) for w in prior))


def test_shared_tables_change_no_sweep_row_or_solver_table(monkeypatch):
    grid = (0.0, 0.2, 0.5, 1.0)
    for seed in range(40):
        spec = random_game(seed, k_types=3)
        if len(spec.types) < 2:  # a single type cannot take mass 0
            continue
        for axis in range(len(spec.types)):
            for neutral_with_overrides in (False, True):
                rows = prior_sweep(spec, axis, grid, neutral_with_overrides)
                with monkeypatch.context() as patch:
                    patch.setattr(evaluation, "with_prior", _unshared_copy)
                    assert prior_sweep(spec, axis, grid, neutral_with_overrides) == rows, (seed, axis)
            for p in grid:
                prior = _sweep_priors(spec, axis, as_fraction(p))
                shared, fresh = solve_dp(with_prior(spec, prior)), solve_dp(_unshared_copy(spec, prior))
                assert (shared.root, shared.decision, shared.value, shared.transitions) == (
                    fresh.root, fresh.decision, fresh.value, fresh.transitions), (seed, axis, p)


def test_prior_sweep_validates_inputs(graph_b):
    with pytest.raises(ValueError):
        prior_sweep(graph_b, 5)
    with pytest.raises(ValueError):
        prior_sweep(graph_b, 0, (0.5, 1.5))
    cvar_spec = replace(graph_b, machine_aggregator=Aggregator.cvar(0.5))
    with pytest.raises(UnsupportedAggregatorError):
        prior_sweep(cvar_spec, 0)


def test_regret_row_rejects_negative_regret():
    with pytest.raises(ValueError):
        RegretRow(0.5, -1.0, 0.0, 0.0, 10.0)


def test_neutral_override_plan_feeds_evaluation(graph_a):
    plan = neutral_override_plan(graph_a, 1)
    out = evaluate_policy_exact(graph_a, plan, 1)
    assert out.overrides == 1
    assert out.criterion == Fraction(81, 2)  # north route plus one fee
