from dataclasses import replace
from fractions import Fraction

import pytest

import reference_baselines as reference
from instance_gen import random_game, seeded_lattice, skip_chain
from riskgames import CostDistribution, Edge, GameSpec
from riskgames.baseline_planners import (
    PATH_ENUMERATION_NODE_LIMIT,
    PATH_ENUMERATION_STEP_LIMIT,
    _induct,
    average_theta,
    baseline_policy,
    best_case_value,
    enumerate_paths_oracle,
    neutral_override_plan,
    neutral_override_plans,
    risk_adjusted_shortest_path,
)
from riskgames.coordinator_solver import solve_dp
from riskgames.errors import EnumerationGuardError, SpecValidationError, UnreachableTerminalError
from riskgames.game_model import as_fraction, path_criterion

THETA_GRID = (0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1)


def test_enumeration_contains_reference_totals(graph_a):
    totals = {(ps.mean, ps.variance) for ps in enumerate_paths_oracle(graph_a)}
    assert (30, 400) in totals
    assert (35, 100) in totals
    assert len(totals) == 2


def test_enumeration_single_edge_graph():
    spec = GameSpec(
        nodes=("a", "b"),
        edges=(Edge("a", "b", "E", CostDistribution(1, 2)),),
        terminals={"b": CostDistribution(0, 0)},
        start_node="a",
        horizon_T=2,
        types=(0.1,),
        prior=(1.0,),
    )
    paths = enumerate_paths_oracle(spec)
    assert len(paths) == 1
    assert paths[0].mean == 1 and paths[0].variance == 2


def test_enumeration_graph_b_has_three_distinct_argmins(graph_b):
    stats = enumerate_paths_oracle(graph_b)
    assert len(stats) >= 3
    argmins = set()
    for theta in graph_b.types:
        best = min(stats, key=lambda ps: ps.criterion(theta))
        argmins.add(best.directions)
    assert len(argmins) == 3


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"start_node": "zz"}, "start node 'zz' not in node set"),
        ({"horizon_T": 0}, "horizon must be a positive integer, got 0"),
        ({"horizon_T": 3}, "no terminal reachable from '1' within horizon 3 (needs 5 moves plus a STOP period)"),
    ],
    ids=["unknown-start", "zero-horizon", "short-horizon"],
)
def test_enumeration_rejects_invalid_spec(graph_a, change, problem):
    # as solve_dp does, with the same problems, rather than a KeyError or no routes
    spec = replace(graph_a, **change)
    for search in (enumerate_paths_oracle, solve_dp):
        with pytest.raises(SpecValidationError) as err:
            search(spec)
        assert err.value.violations == [problem]


def test_enumeration_node_guard():
    nodes = tuple(f"n{i}" for i in range(21))
    edges = tuple(
        Edge(f"n{i}", f"n{i+1}", "E", CostDistribution(1, 0)) for i in range(20)
    )
    spec = GameSpec(
        nodes=nodes,
        edges=edges,
        terminals={"n20": CostDistribution(0, 0)},
        start_node="n0",
        horizon_T=22,
        types=(0.1,),
        prior=(1.0,),
    )
    with pytest.raises(EnumerationGuardError) as err:
        enumerate_paths_oracle(spec)
    assert err.value.bound == 20


def test_enumeration_step_guard():
    # 16 nodes take 221,837 search steps to their 85,195 routes; 20 nodes, within the node
    # limit, would take millions, and the guard stops the search in about a second
    assert len(enumerate_paths_oracle(skip_chain(16))) == 85_195
    spec = skip_chain(20)
    assert len(spec.nodes) == PATH_ENUMERATION_NODE_LIMIT and len(spec.edges) == 73
    with pytest.raises(EnumerationGuardError) as err:
        enumerate_paths_oracle(spec)
    assert err.value.bound == PATH_ENUMERATION_STEP_LIMIT
    assert str(err.value) == f"path enumeration exceeds its guard of {PATH_ENUMERATION_STEP_LIMIT} search steps"


def test_planner_reference_routes(graph_a):
    p1 = risk_adjusted_shortest_path(graph_a, 0.01)
    assert p1.per_type_criterion[0] == 34
    assert [e.direction for e in p1.path] == ["E", "E", "S", "E", "N"]
    p2 = risk_adjusted_shortest_path(graph_a, 0.05)
    assert p2.per_type_criterion[1] == 40
    assert [e.direction for e in p2.path] == ["E", "E", "N", "E", "S"]


def test_planner_zero_theta_minimizes_mean(graph_a, graph_b):
    for spec in (graph_a, graph_b):
        plan = risk_adjusted_shortest_path(spec, 0)
        best_mean = min(ps.mean for ps in enumerate_paths_oracle(spec))
        got = sum((e.cost.exact_mean for e in plan.path), start=Fraction(0))
        got += spec.terminals[plan.path[-1].dst if plan.path else spec.start_node].exact_mean
        assert got == best_mean


def test_planner_agrees_with_enumeration(graph_a, graph_b, diamond):
    for spec in (graph_a, graph_b, diamond):
        stats = enumerate_paths_oracle(spec)
        for theta in THETA_GRID:
            plan = risk_adjusted_shortest_path(spec, theta)
            value = path_criterion(spec, plan.path, 0, theta)
            best = min(ps.criterion(theta) for ps in stats)
            assert value == best
            argmin_dirs = {ps.directions for ps in stats if ps.criterion(theta) == best}
            assert tuple(e.direction for e in plan.path) in argmin_dirs


def test_planner_respects_horizon():
    # detour is cheaper but does not fit the horizon
    spec = GameSpec(
        nodes=("a", "b", "c", "d"),
        edges=(
            Edge("a", "d", "E", CostDistribution(10, 0)),
            Edge("a", "b", "N", CostDistribution(1, 0)),
            Edge("b", "c", "E", CostDistribution(1, 0)),
            Edge("c", "d", "S", CostDistribution(1, 0)),
        ),
        terminals={"d": CostDistribution(0, 0)},
        start_node="a",
        horizon_T=2,
        types=(0.0,),
        prior=(1.0,),
    )
    plan = risk_adjusted_shortest_path(spec, 0)
    assert [e.direction for e in plan.path] == ["E"]
    assert plan.per_type_criterion[0] == 10


def test_planner_unreachable_terminal():
    spec = GameSpec(
        nodes=("a", "b"),
        edges=(),
        terminals={"b": CostDistribution(0, 0)},
        start_node="a",
        horizon_T=3,
        types=(0.1,),
        prior=(1.0,),
    )
    with pytest.raises(UnreachableTerminalError):
        risk_adjusted_shortest_path(spec, 0.1)


def test_best_case_point_mass_is_single_optimum(graph_a):
    spec = replace(graph_a, prior=(1.0, 0.0))
    assert best_case_value(spec) == 34


def test_best_case_graph_a_even_prior(graph_a):
    assert best_case_value(graph_a) == 37


def test_best_case_graph_b_matches_enumeration(graph_b):
    stats = enumerate_paths_oracle(graph_b)
    want = sum(
        as_fraction(w) * min(ps.criterion(t) for ps in stats)
        for w, t in zip(graph_b.prior, graph_b.types)
    )
    assert best_case_value(graph_b) == want


def test_average_theta_reference_values(graph_b):
    assert abs(average_theta(graph_b) - Fraction(31, 300)) < Fraction(1, 10**12)
    skewed = replace(graph_b, prior=(0.0, 0.5, 0.5))
    assert average_theta(skewed) == Fraction(3, 20)


def test_average_theta_linearity(graph_b):
    for prior in ((0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
        spec = replace(graph_b, prior=prior)
        want = sum(as_fraction(w) * as_fraction(t) for w, t in zip(prior, spec.types))
        assert average_theta(spec) == want


def test_baseline_neutral_ignores_prior(graph_a):
    for prior in ((0.5, 0.5), (0.9, 0.1), (0.0, 1.0)):
        plan = baseline_policy(replace(graph_a, prior=prior), "neutral")
        assert [e.direction for e in plan.path] == ["E", "E", "S", "E", "N"]
        assert plan.planner_theta == 0


def test_baseline_average_uses_theta_bar(graph_b):
    plan = baseline_policy(graph_b, "average")
    assert plan.planner_theta == average_theta(graph_b)
    direct = risk_adjusted_shortest_path(graph_b, average_theta(graph_b))
    assert plan.path == direct.path


def test_baseline_average_point_mass_collapse(graph_b):
    for k in range(3):
        prior = tuple(1.0 if i == k else 0.0 for i in range(3))
        spec = replace(graph_b, prior=prior)
        plan = baseline_policy(spec, "average")
        own = risk_adjusted_shortest_path(spec, spec.types[k])
        assert plan.per_type_criterion[k] == own.per_type_criterion[k]


def test_baseline_rejects_unknown_mode(graph_a):
    with pytest.raises(ValueError):
        baseline_policy(graph_a, "bogus")


def test_neutral_override_plan_graph_a(graph_a):
    # the neutral machine drives the min-mean (south) route; the cautious
    # rider pays one fee to divert north, the tolerant rider stays silent
    tolerant = neutral_override_plan(graph_a, 0)
    assert tolerant.overrides == 0
    assert [e.direction for e in tolerant.path] == ["E", "E", "S", "E", "N"]
    cautious = neutral_override_plan(graph_a, 1)
    assert cautious.overrides == 1
    assert [e.direction for e in cautious.path] == ["E", "E", "N", "E", "S"]


def test_neutral_override_plan_keeps_fee_worthwhile(graph_a):
    # with a prohibitive fee the rider just rides the neutral route
    pricey = replace(graph_a, transmission_cost=100.0)
    cautious = neutral_override_plan(pricey, 1)
    assert cautious.overrides == 0
    assert [e.direction for e in cautious.path] == ["E", "E", "S", "E", "N"]


def test_neutral_override_plans_build_one_machine_table(graph_b, monkeypatch):
    from riskgames import baseline_planners, evaluation

    machines, real = [], baseline_planners._induct

    def counted(spec, theta, machine=None):
        if machine is not None:
            machines.append(machine)  # kept alive, so identities stay distinct
        return real(spec, theta, machine)

    monkeypatch.setattr(baseline_planners, "_induct", counted)
    types = range(len(graph_b.types))
    plans = neutral_override_plans(graph_b, types)
    assert plans == {i: neutral_override_plan(graph_b, i) for i in types}
    machines.clear()
    evaluation.prior_sweep(graph_b, 0, (0.0, 0.5, 1.0), neutral_with_overrides=True)
    assert len(machines) == len(types)
    assert all(m is machines[0] for m in machines)


def test_planners_equal_reference_baselines():
    # integer means, free signals (q_h 0) and theta 0 leave many exact ties,
    # which both sides must break the same way
    specs = [
        random_game(seed, max_nodes=8, k_types=3, max_extra_edges=8, max_slack=4)
        for seed in range(200)
    ] + [seeded_lattice(3)]
    for n, spec in enumerate(specs):
        for theta in (0, *spec.types, average_theta(spec)):
            plan = risk_adjusted_shortest_path(spec, theta)
            assert plan == reference.risk_adjusted_shortest_path(spec, theta), (n, theta)
        for i in range(len(spec.types)):
            assert neutral_override_plan(spec, i) == reference.neutral_override_plan(spec, i), (n, i)


def test_planner_prices_every_type_as_path_criterion():
    # the planner sums the route's integer moments once; a fee and decimal
    # types change the common denominator of spec.integer_costs
    specs = [
        random_game(seed, max_nodes=8, k_types=3, max_extra_edges=8, max_slack=4)
        for seed in range(200)
    ]
    for n, spec in enumerate(specs):
        spec = replace(spec, transmission_cost=0.35, types=(0.07, 0.375, 1.25)[:len(spec.types)])
        for theta in (0, *spec.types, average_theta(spec)):
            plan = risk_adjusted_shortest_path(spec, theta)
            for i, th in enumerate(spec.types):
                assert plan.per_type_criterion[i] == path_criterion(spec, plan.path, 0, th), (n, theta, i)


def _cycle(mean, var, horizon):
    """The 3-node cycle 1 -> 2 -> 3 -> 1, every edge with the given moments, stopping at 3."""
    return GameSpec(
        nodes=("1", "2", "3"),
        edges=tuple(Edge(a, b, d, CostDistribution(mean, var))
                    for a, b, d in (("1", "2", "E"), ("2", "3", "E"), ("3", "1", "S"))),
        terminals={"3": CostDistribution(0, 0)},
        start_node="1",
        horizon_T=horizon,
        types=(0.01, 0.5),
        prior=(0.5, 0.5),
        transmission_cost=0.5,
    )


def test_induct_tables_equal_reference_induct(graph_a):
    # the whole (node, periods left) table, not only the route read back from
    # it; seeded_lattice(s) is the lattice workload's spec at seed s
    specs = [
        random_game(seed, max_nodes=8, k_types=3, max_extra_edges=8, max_slack=4)
        for seed in range(200)
    ] + [seeded_lattice(s) for s in range(4)] + [
        _cycle(1, 2, 3000), _cycle(-1, 0, 3000), replace(graph_a, horizon_T=10**400)
    ]
    for n, spec in enumerate(specs):
        for theta in {Fraction(0), *spec.exact_types, average_theta(spec)}:
            assert _induct(spec, theta) == reference.induct(spec, theta), (n, theta)
        machine = _induct(spec, Fraction(0))
        for theta in spec.exact_types:
            got = _induct(spec, theta, machine)
            assert got == reference.induct(spec, theta, True, machine), (n, theta)


def test_induct_on_a_negative_cycle_hits_the_state_guard():
    # the best route around a negative-cost cycle grows with the horizon; from
    # round |V| + 1 = 4 on, the 3 nodes project 3 * (T - 4) entries
    assert len(_induct(_cycle(-1, 0, 10_004), Fraction(0))) == 10_005  # 30,000 entries pass
    with pytest.raises(EnumerationGuardError) as err:
        _induct(_cycle(-1, 0, 10_005), Fraction(0))
    assert err.value.bound == 30_000
    assert str(err.value) == (
        "30003 (node, periods left) entries projected to the horizon exceed the state guard of 30000"
    )


def test_responder_on_a_zero_cost_ride_cycle_runs_to_the_horizon():
    # the machine rides n2 -> n1 -> n2 at -2 + 2 = 0 a lap, so the rider's
    # values alternate with the parity of the periods left and never settle;
    # there is no negative cycle, so the guard must not end the responder
    c = CostDistribution
    spec = GameSpec(
        nodes=("n0", "n1", "n2"),
        edges=(Edge("n0", "n2", "W", c(3, 0)), Edge("n0", "n1", "S", c(-2, 1)),
               Edge("n0", "n1", "E", c(4, 0)), Edge("n1", "n0", "S", c(4, 2)),
               Edge("n1", "n2", "N", c(2, 0)), Edge("n1", "n0", "W", c(2, 0)),
               Edge("n2", "n1", "N", c(-2, 0)), Edge("n2", "n0", "W", c(0, 1))),
        terminals={"n2": c(2, 1), "n0": c(-1, 0)},
        start_node="n0",
        horizon_T=12_000,  # 3 * (12,000 - r) entries pass STATE_GUARD until r = 2,000
        types=(0.0, 0.5, 1.0),
        prior=(0.3, 0.3, 0.4),
        transmission_cost=0.5,
    )
    machine = _induct(spec, Fraction(0))
    for theta in spec.exact_types[1:]:
        got = _induct(spec, theta, machine)
        assert len(got) == 12_001
        assert got == reference.induct(spec, theta, True, machine), theta
