import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_diamond
from instance_gen import member_tie_game, oracle_sized_game, random_game, seeded_lattice, three_node_cycle
from reference_oracle import product_count, reference_induction, reference_oracle, states
from riskgames import EXPECTATION, Aggregator, CostDistribution, Edge, GameSpec, coordinator_solver
from riskgames.baseline_planners import (
    RealizedPlan,
    average_theta,
    best_case_value,
    risk_adjusted_shortest_path,
)
from riskgames.coordinator_solver import (
    BeliefState,
    CheckResult,
    CoordinatorPolicy,
    EquilibriumReport,
    OracleResult,
    PolicyTree,
    Prescription,
    _Engine,
    _IntegerSolver,
    _integer_pricer,
    _member_signals,
    _run_without_recursion,
    aggregate,
    brute_force_oracle,
    count_deterministic_policies,
    evaluate_policy_tree,
    playout,
    simulate_type,
    solve_dp,
    verify_equilibrium,
)
from riskgames.errors import (
    DeviationBudgetError,
    EnumerationGuardError,
    SpecValidationError,
    UnsupportedAggregatorError,
)
from riskgames.evaluation import _sweep_priors, prior_sweep
from riskgames.game_model import SILENT, STOP, as_fraction, path_criterion, with_prior


def test_graph_a_divergence_narrative(graph_a):
    policy = solve_dp(graph_a)
    assert policy.value[policy.root] == Fraction(149, 4)
    tolerant = simulate_type(graph_a, policy, 0)
    cautious = simulate_type(graph_a, policy, 1)
    # silent shared prefix, split at period 3, silent afterwards
    assert tolerant.signals[:2] == (SILENT, SILENT) == cautious.signals[:2]
    assert tolerant.effective[2] == "S" and cautious.effective[2] == "N"
    assert set(tolerant.signals[3:]) == {SILENT} and set(cautious.signals[3:]) == {SILENT}
    # the period-3 signal pair separates the types: exactly one pays the fee
    assert tolerant.signals[2] != cautious.signals[2]
    assert (tolerant.overrides, cautious.overrides) == (1, 0)
    assert tolerant.override_periods == (3,)


def test_graph_a_full_revelation_after_period_3(graph_a):
    policy = solve_dp(graph_a)
    split_state = BeliefState("3", (0, 1), 3)
    slice_map = policy.decision[split_state].human_map
    for signal in set(slice_map.values()):
        child = policy.transitions[(split_state, signal)]
        assert len(child.support) == 1


def test_point_mass_prior_matches_single_type_optimum(graph_a):
    for k, theta in enumerate(graph_a.types):
        spec = replace(graph_a, prior=tuple(1.0 if i == k else 0.0 for i in range(2)))
        policy = solve_dp(spec)
        plan = risk_adjusted_shortest_path(spec, theta)
        assert policy.value[policy.root] == plan.per_type_criterion[k]
        assert simulate_type(spec, policy, k).overrides == 0


def test_prohibitive_fee_forces_single_plan(diamond):
    spec = replace(diamond, transmission_cost=10.0)
    policy = solve_dp(spec)
    # a fee above every per-type gap makes signalling worthless: one plan for all,
    # and the best single plan is the one optimal for the prior-average theta
    theta_bar = average_theta(spec)
    plan = risk_adjusted_shortest_path(spec, theta_bar)
    want = sum(
        as_fraction(w) * plan.per_type_criterion[i] for i, w in enumerate(spec.prior)
    )
    assert policy.value[policy.root] == want == Fraction(131, 20)
    for i in range(2):
        assert simulate_type(spec, policy, i).overrides == 0


def test_tie_break_is_lexicographic(diamond):
    # with a free signal many prescriptions tie; the first in machine-then-human
    # order must win: machine N, tolerant silent, cautious overriding S
    policy = solve_dp(diamond)
    root_presc = policy.decision[policy.root]
    assert root_presc == Prescription(machine="N", human=((0, SILENT), (1, "S")))


def test_tie_between_members_goes_to_the_lower_type():
    # two equal-weight types at a node whose move N costs 1 and S costs 2: each
    # type alone costs nothing later, together they cost 100. Under machine N,
    # (SILENT, N) and (N, SILENT) send both types to B in two groups for one
    # fee; they tie exactly and beat every other prescription, so the lower
    # type index decides, and type 0 rides silent
    spec = GameSpec(
        nodes=("A", "B", "C"),
        edges=(Edge("A", "B", "N", CostDistribution(1, 0)), Edge("A", "C", "S", CostDistribution(2, 0))),
        terminals={"B": CostDistribution(0, 0), "C": CostDistribution(0, 0)},
        start_node="A",
        horizon_T=2,
        types=(0.1, 0.5),
        prior=(0.5, 0.5),
        transmission_cost=1,
    )
    solver = _IntegerSolver(spec)
    joint = 100 * solver.scale
    later = {"B": [0, 0, 0, joint], "C": [0, 0, 0, joint]}  # values indexed by member mask
    signals, shift, *rows = solver._rows("A", solver.layers()[1]["A"][0], later)
    objective, machine = solver._best(0b11, signals, shift, *rows)
    value, code = divmod(objective, shift)
    human, groups = _member_signals(code, 0b11, signals, solver._digits[len(signals)][1])
    assert (machine, human, groups) == ("N", [SILENT, "N"], {SILENT: 0b01, "N": 0b10})
    assert Fraction(value, solver.scale) == Fraction(3, 2)  # both move at cost 1, one pays the fee


def test_dp_equals_oracle_on_diamond_fee_grid():
    for q in (0.0, 0.1, 0.5, 1.0, 10.0):
        spec = make_diamond(q)
        policy = solve_dp(spec)
        result = brute_force_oracle(spec)
        assert policy.value[policy.root] == result.value


def test_dp_equals_oracle_on_graph_b_like_small_instance(graph_b):
    spec = replace(graph_b, types=(0.01, 0.2), prior=(0.5, 0.5))
    policy = solve_dp(spec)
    result = brute_force_oracle(spec)
    assert policy.value[policy.root] == result.value


GAME_FAMILIES = {
    "oracle_sized": (oracle_sized_game, 50),
    "random": (random_game, 20),
    # supports of three to five types; a free signal (q_h 0) leaves exact ties
    "random_k5": (
        lambda seed: random_game(seed, k_types=5, max_nodes=7, max_extra_edges=6, max_slack=3),
        20,
    ),
    # no seed of the families above ties two members of one prescription; this game does
    "member_tie": (lambda seed: member_tie_game(), 1),
}


@pytest.mark.parametrize("family", GAME_FAMILIES)
def test_dp_equals_reference_induction_with_tie_break(family):
    make, seeds = GAME_FAMILIES[family]
    for seed in range(seeds):
        spec = make(seed)
        policy = solve_dp(spec)
        assert (policy.decision, policy.value, policy.transitions) == reference_induction(spec), seed


def test_dp_equals_reference_induction_on_swept_priors(graph_b):
    # sweep copies share their source's layers; a zero weight shrinks the support
    for axis in range(len(graph_b.types)):
        for p in ("0", "0.35", "1"):
            spec = with_prior(graph_b, _sweep_priors(graph_b, axis, Fraction(p)))
            policy = solve_dp(spec)
            assert (policy.decision, policy.value, policy.transitions) == reference_induction(spec), (axis, p)


def _solved_tables(graph_a, graph_b):
    """(label, policy) for graph_a, graph_b, a swept graph_b, and one whose prior holds type 0 alone."""
    swept = with_prior(graph_b, _sweep_priors(graph_b, 0, Fraction(1, 2)))
    gone = with_prior(graph_b, _sweep_priors(graph_b, 0, Fraction(1)))
    return [(label, solve_dp(spec)) for label, spec in
            (("graph_a", graph_a), ("graph_b", graph_b), ("swept", swept), ("type 0 alone", gone))]


def test_solved_tables_are_read_only_mappings(graph_a, graph_b):
    for label, policy in _solved_tables(graph_a, graph_b):
        for name in ("value", "decision", "transitions"):
            table = getattr(policy, name)
            plain = dict(table)
            assert len(table) == len(plain) and list(table) == list(plain), (label, name)
            assert table == plain and dict(table.items()) == plain, (label, name)
            for key, entry in plain.items():
                assert key in table and table.get(key) == table[key] == entry, (label, name, key)
            with pytest.raises(TypeError):
                table[next(iter(plain))] = None
        assert set(policy.value) == set(policy.decision)
        assert {state for state, _ in policy.transitions} == set(policy.decision)


def test_solved_tables_read_off_layer_keys_as_missing(graph_a, graph_b):
    for label, policy in _solved_tables(graph_a, graph_b):
        node, support, period = root = policy.root
        later = next(s for s in policy.value if s.period == 2)
        missing = [
            BeliefState(node, support, 2),  # a period that holds other nodes
            BeliefState(node, support, 0),
            BeliefState(node, support, -1),
            BeliefState(node, support, 10**6),
            BeliefState("no such node", support, period),
            BeliefState(later.node, (*later.support, 7), 2),  # a type outside the prior's support
            BeliefState(later.node, tuple(reversed(later.support)) * 2, 2),
            BeliefState(later.node, (), 2),
            BeliefState(node, (0, 1, 2, 3), period),
            (node, support),
            (node, 0, period),
            (node, list(support), period),  # unhashable keys: the per-state caches must not raise
            BeliefState(node, list(support), period),
            "root",
            7,
        ]
        if label == "type 0 alone":
            missing.append(BeliefState(later.node, (0, 1), 2))
        for key in missing:
            lookups = ((policy.value, key), (policy.decision, key), (policy.transitions, (key, SILENT)))
            for table, lookup in lookups:
                assert lookup not in table and table.get(lookup) is None, (label, lookup)
                with pytest.raises(KeyError):
                    table[lookup]
        assert root in policy.value and tuple(root) in policy.value


def test_prior_sweep_builds_no_prescription(graph_b, monkeypatch):
    # a sweep reads only root values; a decision is decoded one state at a time, on its first read
    built = []

    def counted(*args):
        built.append(args)
        return Prescription(*args)

    monkeypatch.setattr(coordinator_solver, "Prescription", counted)
    assert len(prior_sweep(graph_b, 0)) == 21 and built == []
    # the wrapper does count: reading the root's decision builds its prescription alone, once
    policy = solve_dp(graph_b)
    assert policy.transitions.get((policy.root, SILENT)) is not None and built == []
    assert policy.decision[policy.root] == Prescription(*built[-1]) and len(built) == 1
    assert policy.decision.get(policy.root) is policy.decision[policy.root] and len(built) == 1
    # one playout per type builds one prescription per distinct state on the types' paths
    policy, built[:] = solve_dp(graph_b), []
    reached = set()
    for i in sorted(policy.weights):
        state = policy.root
        for signal in playout(graph_b, policy, i).signals:
            reached.add(state)
            state = policy.transitions.get((state, signal))
    assert len(built) == len(reached) < len(policy.value)
    assert {Prescription(*args) for args in built} == {policy.decision[s] for s in reached}


def _transitions_first(spec, policy):
    transitions = dict(policy.transitions)
    return transitions, dict(policy.decision)


def _decisions_first(spec, policy):
    decision = dict(policy.decision)
    return dict(policy.transitions), decision


def _after_verify(spec, policy):
    assert verify_equilibrium(spec, policy).all_passed
    return _transitions_first(spec, policy)


@pytest.mark.parametrize("name", ["graph_b", "seeded_lattice(0)"])
def test_decoded_tables_do_not_depend_on_read_order(name, graph_b):
    # each state is decoded on its first read, by whichever table or reader comes first
    spec = graph_b if name == "graph_b" else seeded_lattice(0)
    tables = []
    for read in (_transitions_first, _decisions_first, _after_verify):
        policy = solve_dp(spec)
        transitions, decision = read(spec, policy)
        assert len(transitions) == len(policy.transitions) > len(decision), read.__name__
        assert len(decision) == len(policy.decision) == len(policy.value), read.__name__
        tables.append((transitions, decision))
    assert tables[0] == tables[1] == tables[2]


def test_solved_tables_repr_as_dicts(graph_a):
    policy = solve_dp(graph_a)
    for name in ("value", "decision", "transitions"):
        table = getattr(policy, name)
        assert repr(table) == repr(dict(table)), name
    assert f"{policy.root!r}: {policy.decision[policy.root]!r}" in repr(policy)


def test_split_table_lists_each_masks_submasks_zero_first_then_descending(graph_b):
    for k in range(1, 5):
        engine = _Engine(replace(graph_b, types=(0.01,) * k, prior=(1 / k,) * k))
        listed = [[0] + [sub for sub in range(mask, 0, -1) if sub & mask == sub] for mask in range(1 << k)]
        assert engine.splits == listed, k


def test_split_table_lives_only_through_the_induction(graph_b):
    # built on first read, so a solve that ends in the state guard builds none,
    # and dropped once the induction ends, so a kept policy keeps no 3^K table
    solver = _IntegerSolver(three_node_cycle(10**400))
    with pytest.raises(EnumerationGuardError):
        solver.policy()
    assert "splits" not in vars(solver)
    policy = solve_dp(graph_b)
    assert policy.value[policy.root] is not None and policy.decision[policy.root] is not None
    for table in (policy.value, policy.decision, policy.transitions):
        assert "splits" not in vars(table._solver)


def test_belief_state_is_a_named_tuple():
    state = BeliefState("2", (0, 1), 3)
    assert repr(state) == "BeliefState(node='2', support=(0, 1), period=3)"
    with pytest.raises(AttributeError):
        state.period = 4
    assert state == ("2", (0, 1), 3) and hash(state) == hash(("2", (0, 1), 3))


def _layer_specs() -> list[tuple[str, int, GameSpec]]:
    """(family, seed, spec) of every game family seed and two cycles, where states repeat nodes."""
    specs = [(family, seed, make(seed)) for family, (make, seeds) in GAME_FAMILIES.items() for seed in range(seeds)]
    return specs + [("cycle", 0, three_node_cycle(12)), ("cycle", 1, three_node_cycle(12, [("2", "1", "W")]))]


def test_layers_and_count_equal_the_product_enumeration():
    # the engine's subset-split states and tree count against trying every
    # prescription, up to five types and on cycles
    for family, seed, spec in _layer_specs():
        reference = states(spec)
        # from period 2 on, each node reached holds every nonempty subset of the support
        support = spec.positive_support()
        subsets = {sub for r in range(1, len(support) + 1) for sub in itertools.combinations(support, r)}
        for layer in reference[1:]:
            nodes = {state.node for state in layer}
            held = {(s.node, s.support) for s in layer}
            assert held == {(node, sub) for node in nodes for sub in subsets}, (family, seed)
        layers = [{s for _, held in layer.values() for s in held.values()} for layer in _Engine(spec).layers()[1:]]
        assert layers == reference, (family, seed)
        assert count_deterministic_policies(spec) == product_count(spec), (family, seed)


def test_layer_moves_are_the_moves_that_finish_in_time():
    # a move is feasible in period t when it is STOP, or when its destination,
    # entered in period t + 1, can still reach a terminal and STOP by the horizon;
    # a node's periods with equal feasible moves share one list
    for family, seed, spec in _layer_specs():
        dist, T = spec.steps_to_terminal, spec.horizon_T
        kept: dict[str, list] = {}
        for t, layer in enumerate(_Engine(spec).layers()[1:], 1):
            for node, (moves, _) in layer.items():
                expected = []
                for rank, e in enumerate(spec.machine_moves(node), 1):
                    dst = None if e == STOP else spec.out_edges[node][e].dst
                    if dst is None or t + 1 + dist[dst] <= T:
                        expected.append((rank, e, dst))
                assert moves == expected, (family, seed, t, node)
                for earlier in kept.setdefault(node, []):
                    assert earlier is moves or earlier != moves, (family, seed, t, node)
                kept[node].append(moves)


def test_oracle_rejects_a_horizon_too_short_to_finish(graph_a):
    # every feasible state has a feasible move, so a validated spec has a tree
    with pytest.raises(SpecValidationError):
        brute_force_oracle(replace(graph_a, horizon_T=2))


@pytest.mark.parametrize(
    "aggregator",
    [EXPECTATION, Aggregator.cvar(0.5), Aggregator.cvar(0), Aggregator.cvar(0.9)],
    ids=["mean", "cvar", "cvar0", "cvar0.9"],
)
def test_oracle_equals_reference_oracle(aggregator):
    for seed in range(50):
        spec = replace(oracle_sized_game(seed), machine_aggregator=aggregator)
        assert brute_force_oracle(spec) == reference_oracle(spec), seed


def test_oracle_equals_reference_oracle_on_graph_a_cvar(graph_a):
    spec = replace(graph_a, machine_aggregator=Aggregator.cvar(0.5))
    result = brute_force_oracle(spec)
    assert (result.value, len(result.policies), result.policy_count) == (40, 168, 32256)
    assert result == reference_oracle(spec)


def _k3_games(first: int = 10):
    """The first seeds' instances with three or four types and 24 to 3,000 policies."""
    found, seed = [], 0
    while len(found) < first:
        spec = random_game(seed, max_nodes=5, k_types=4, max_extra_edges=2, max_slack=1, max_horizon=5)
        if len(spec.types) >= 3 and 24 <= count_deterministic_policies(spec) <= 3000:
            found.append((seed, spec))
        seed += 1
    return found


@pytest.mark.parametrize(
    "aggregator,second_type_out",
    [
        (EXPECTATION, False),
        (Aggregator.cvar(0), False),
        (Aggregator.cvar(0.5), False),
        (Aggregator.cvar(0.9), False),
        (EXPECTATION, True),
        (Aggregator.cvar(0.5), True),
    ],
    ids=["mean", "cvar0", "cvar", "cvar0.9", "mean-second-type-out", "cvar-second-type-out"],
)
def test_oracle_equals_reference_oracle_with_three_or_four_types(aggregator, second_type_out):
    # with K >= 3 the root vectors sort in many worst-first orders, not two; with
    # the second type at weight 0, a type's support position differs from its index
    for seed, spec in _k3_games():
        if second_type_out:
            spec = with_prior(spec, _sweep_priors(spec, 1, Fraction(0)))
        spec = replace(spec, machine_aggregator=aggregator)
        assert brute_force_oracle(spec) == reference_oracle(spec), seed


def test_oracle_prices_without_cvar_aggregate(graph_a, monkeypatch):
    import riskgames.coordinator_solver as solver
    import riskgames.risk_measures as risk

    calls, real = [], risk.cvar_aggregate

    def counted(outcome, alpha):
        calls.append(alpha)
        return real(outcome, alpha)

    monkeypatch.setattr(risk, "cvar_aggregate", counted)
    monkeypatch.setattr(solver, "cvar_aggregate", counted)
    spec = replace(graph_a, machine_aggregator=Aggregator.cvar(0.5))
    assert brute_force_oracle(spec).value == 40
    assert calls == []
    evaluate_policy_tree(spec, brute_force_oracle(spec).policies[0])
    assert calls == [0.5]  # the counter does see the aggregator's own calls


AWKWARD_WEIGHTS = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 7), Fraction(2, 7), Fraction(1, 2), Fraction(3, 10), Fraction(1, 20), Fraction(1)]
) | st.fractions(min_value=Fraction(1, 60), max_value=1, max_denominator=60)
ALPHAS = st.sampled_from([0, 0.5, 0.9]) | st.integers(0, 99).map(lambda n: n / 100) | st.integers(
    0, 999
).map(lambda n: n / 1000)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), weights=st.lists(AWKWARD_WEIGHTS, min_size=1, max_size=6))
def test_integer_pricer_equals_aggregate(data, weights):
    aggregator = data.draw(st.just(EXPECTATION) | ALPHAS.map(Aggregator.cvar))
    scale = data.draw(st.integers(1, 60))
    width = len(weights)
    price, denominator = _integer_pricer(aggregator, weights)
    vectors = data.draw(
        st.lists(st.lists(st.integers(-6, 6) | st.integers(-10**6, 10**6), min_size=width, max_size=width),
                 min_size=1, max_size=8)
    )
    for v in vectors:
        # force a tie between two entries
        j, k = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, width - 1))
        v[j] = v[k]
        expected = aggregate(aggregator, dict(enumerate(weights)), {i: Fraction(c, scale) for i, c in enumerate(v)})
        assert Fraction(price(tuple(v)), scale * denominator) == expected


def unrolled(policy, state=None) -> PolicyTree:
    """The solved policy from ``state`` (the root by default) as the equivalent tree."""
    state = policy.root if state is None else state
    presc = policy.decision[state]
    children = []
    for signal in dict.fromkeys(signal for _, signal in presc.human):
        child = policy.transitions[(state, signal)]
        children.append((signal, None if child is None else unrolled(policy, child)))
    return PolicyTree(presc, tuple(children))


def test_playout_agrees_across_policy_kinds(graph_a, graph_b, diamond):
    for spec in (graph_a, graph_b, diamond, *map(oracle_sized_game, range(50))):
        policy = solve_dp(spec)
        tree = unrolled(policy)
        per_type = {}
        for i in sorted(policy.weights):
            route = playout(spec, policy, i)
            assert playout(spec, tree, i) == route
            per_type[i] = route.criterion
        assert evaluate_policy_tree(spec, tree) == (policy.value[policy.root], per_type)
        # a planned route is the plan its riders realize by staying silent
        plan = risk_adjusted_shortest_path(spec, spec.types[-1])
        ridden = RealizedPlan(
            path=plan.path,
            terminal=plan.path[-1].dst if plan.path else spec.start_node,
            signals=(SILENT,) * (len(plan.path) + 1),
            machine_actions=tuple(e.direction for e in plan.path) + (STOP,),
            override_periods=(),
        )
        for i in range(len(spec.types)):
            assert playout(spec, plan, i) == playout(spec, ridden, i)


def test_tree_playout_names_what_the_tree_lacks(graph_a):
    tree = brute_force_oracle(replace(graph_a, machine_aggregator=Aggregator.cvar(0.5))).policies[0]
    with pytest.raises(ValueError, match="^policy tree has no subtree for signal 'SILENT' at period 1$"):
        playout(graph_a, replace(tree, children=()), 0)
    lacking = replace(tree, prescription=Prescription(tree.prescription.machine, tree.prescription.human[:1]))
    with pytest.raises(ValueError, match="^no signal for type 1 in the policy tree at period 1$"):
        playout(graph_a, lacking, 1)


def test_oracle_k1_equals_shortest_path(diamond):
    spec = replace(diamond, types=(0.5,), prior=(1.0,))
    result = brute_force_oracle(spec)
    assert result.value == risk_adjusted_shortest_path(spec, 0.5).per_type_criterion[0]


def test_oracle_counts_and_guard(diamond):
    n = count_deterministic_policies(diamond)
    assert n == 288
    with pytest.raises(EnumerationGuardError) as err:
        brute_force_oracle(diamond, guard=100)
    assert err.value.bound == 100
    assert "288" in str(err.value)


def test_oracle_reports_all_minimizers(diamond):
    # a free signal leaves many ties; a 0.5 fee narrows the optimum to the
    # two prescriptions that differ only in which silent action the machine names
    free = brute_force_oracle(diamond)
    assert len(free.policies) == 64
    priced = brute_force_oracle(replace(diamond, transmission_cost=0.5))
    assert priced.policy_count == 288
    assert len(priced.policies) == 2
    assert len(set(priced.policies)) == len(priced.policies)


def test_root_value_is_nondecreasing_in_fee(graph_a, graph_b, diamond):
    for base in (graph_a, graph_b, diamond):
        values = []
        for q in (0.0, 0.1, 0.5, 1.0, 10.0):
            spec = replace(base, transmission_cost=q)
            policy = solve_dp(spec)
            values.append(policy.value[policy.root])
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_information_has_nonnegative_value(graph_a, graph_b):
    for spec in (graph_a, graph_b):
        policy = solve_dp(spec)
        revealed = Fraction(0)
        for k, w in enumerate(spec.prior):
            if w == 0:
                continue
            point = replace(spec, prior=tuple(1.0 if i == k else 0.0 for i in range(len(spec.prior))))
            sub = solve_dp(point)
            revealed += as_fraction(w) * sub.value[sub.root]
        assert revealed <= policy.value[policy.root]
        assert revealed == best_case_value(spec)


def test_stage_sums_match_path_criterion(graph_a, graph_b):
    # certifies the additive decomposition the backward induction relies on
    for spec in (graph_a, graph_b):
        policy = solve_dp(spec)
        total = Fraction(0)
        for i, w in policy.weights.items():
            sim = simulate_type(spec, policy, i)
            assert sim.criterion == path_criterion(spec, sim.edges, sim.overrides, spec.types[i])
            total += w * sim.criterion
        assert total == policy.value[policy.root]


def test_verify_passes_on_solver_output(graph_a, graph_b, diamond):
    for spec in (graph_a, graph_b, diamond):
        policy = solve_dp(spec)
        report = verify_equilibrium(spec, policy)
        assert report.machine_ic.passed, report.machine_ic.detail
        assert report.human_ic.passed, report.human_ic.detail
        assert report.belief_consistency.passed, report.belief_consistency.detail
        assert report.all_passed


def _stubborn_north_policy(graph_a) -> CoordinatorPolicy:
    """Machine rides north no matter what; the cautious type still signals.

    The signal buys nothing (the machine ignores its information), so the
    cautious type strictly gains by going silent: a human-IC violation.
    """
    half = Fraction(1, 2)
    s1 = BeliefState("1", (0, 1), 1)
    s2 = BeliefState("2", (0, 1), 2)
    s3 = BeliefState("3", (0, 1), 3)
    decision = {
        s1: Prescription("E", ((0, SILENT), (1, SILENT))),
        s2: Prescription("E", ((0, SILENT), (1, SILENT))),
        s3: Prescription("N", ((0, SILENT), (1, "N"))),
    }
    transitions = {
        (s1, SILENT): s2,
        (s2, SILENT): s3,
    }
    corridor = {"5": ("E", "7"), "7": ("S", "8")}
    for idx, entry_signal in ((0, SILENT), (1, "N")):
        state = BeliefState("5", (idx,), 4)
        transitions[(s3, entry_signal)] = state
        node = "5"
        period = 4
        while node != "8":
            direction, nxt = corridor[node]
            decision[state] = Prescription(direction, ((idx, SILENT),))
            nxt_state = BeliefState(nxt, (idx,), period + 1)
            transitions[(state, SILENT)] = nxt_state
            state, node, period = nxt_state, nxt, period + 1
        decision[state] = Prescription(STOP, ((idx, SILENT),))
        transitions[(state, SILENT)] = None
    value = {s1: Fraction(153, 4)}  # 0.5 * 36 + 0.5 * 40.5
    return CoordinatorPolicy(
        root=s1, decision=decision, value=value, transitions=transitions,
        weights={0: half, 1: half},
    )


def test_verify_flags_wasted_signal_as_human_ic_failure(graph_a):
    policy = _stubborn_north_policy(graph_a)
    report = verify_equilibrium(graph_a, policy)
    assert report.belief_consistency.passed
    assert not report.human_ic.passed
    failing = [c for c in report.per_type if not c.passed]
    assert failing and failing[0].improvement == Fraction(1, 2)
    assert failing[0].detail == (
        "type 1 lowers its criterion from 81/2 to 40 via signals (1, '1', SILENT), "
        "(2, '2', SILENT), (3, '3', SILENT), (4, '5', SILENT), (5, '7', SILENT), (6, '8', SILENT)"
    )
    # the smallest budget that lets both best responses finish
    assert verify_equilibrium(graph_a, policy, deviation_budget=30) == report
    with pytest.raises(DeviationBudgetError):
        verify_equilibrium(graph_a, policy, deviation_budget=29)


def test_verify_flags_tampered_belief_table(graph_a):
    policy = solve_dp(graph_a)
    split_state = BeliefState("3", (0, 1), 3)
    tampered = dict(policy.transitions)
    tampered[(split_state, "S")] = BeliefState("5", (1,), 4)
    broken = CoordinatorPolicy(
        root=policy.root,
        decision=policy.decision,
        value=policy.value,
        transitions=tampered,
        weights=policy.weights,
    )
    report = verify_equilibrium(graph_a, broken)
    assert not report.belief_consistency.passed
    assert "first inconsistent step" in report.belief_consistency.detail
    assert "'3'" in report.belief_consistency.detail


def test_verify_budget_guard(graph_a):
    policy = solve_dp(graph_a)
    with pytest.raises(DeviationBudgetError) as err:
        verify_equilibrium(graph_a, policy, deviation_budget=1)
    assert err.value.budget == 1


def _with_worse_machine_action(spec, policy, state, action) -> CoordinatorPolicy:
    """The policy with the machine playing ``action`` at ``state``, its silent
    riders following it, and the root value its playouts add up to."""
    presc = policy.decision[state]
    silent = tuple(i for i, signal in presc.human if signal == SILENT)
    child = BeliefState(spec.out_edges[state.node][action].dst, silent, state.period + 1)
    worse = replace(
        policy,
        decision={**policy.decision, state: replace(presc, machine=action)},
        transitions={**policy.transitions, (state, SILENT): child},
    )
    root = sum(w * playout(spec, worse, i).criterion for i, w in policy.weights.items())
    return replace(worse, value={**policy.value, policy.root: root})


def test_verify_weighs_the_machine_by_the_policy_weights(graph_a):
    # the verifier's engine holds stage costs weighted by the spec's prior;
    # a policy solved under another prior is checked under its own weights
    other = with_prior(graph_a, (0.3, 0.7))
    policy = solve_dp(other)
    worse = _with_worse_machine_action(other, policy, BeliefState("3", (0, 1), 3), "S")
    assert not verify_equilibrium(other, worse).machine_ic.passed
    for checked in (policy, worse):
        assert verify_equilibrium(graph_a, checked) == verify_equilibrium(other, checked)


@pytest.mark.parametrize(
    "scenario,state,action,improvement,detail",
    [
        (
            "graph_a",
            BeliefState("3", (0, 1), 3),
            "S",
            Fraction(5),
            "machine deviation lowers the objective from 169/4 to 149/4: "
            "period 3 at node '3': play N",
        ),
        (
            "graph_b",
            BeliefState("3", (0,), 3),
            "N",
            Fraction(243333333333333309, 250000000000000000),
            "machine deviation lowers the objective from 2523333333333333081/125000000000000000 "
            "to 4803333333333332853/250000000000000000: period 3 at node '3': play E",
        ),
    ],
)
def test_verify_flags_worse_machine_action(scenario, state, action, improvement, detail, request):
    spec = request.getfixturevalue(scenario)
    policy = _with_worse_machine_action(spec, solve_dp(spec), state, action)
    report = verify_equilibrium(spec, policy)
    assert not report.machine_ic.passed
    assert (report.machine_ic.improvement, report.machine_ic.detail) == (improvement, detail)


def _braced(spec):
    """``spec`` with every node name in braces, a replacement field to ``str.format``."""
    name = "{{{}}}".format
    return replace(
        spec,
        nodes=tuple(map(name, spec.nodes)),
        edges=tuple(replace(e, src=name(e.src), dst=name(e.dst)) for e in spec.edges),
        terminals={name(n): cost for n, cost in spec.terminals.items()},
        start_node=name(spec.start_node),
    )


def _drop(table, key):
    return {k: v for k, v in table.items() if k != key}


def _braced_worse_machine(spec, _):
    braced = _braced(spec)
    worse = BeliefState("{3}", (0, 1), 3)
    return braced, _with_worse_machine_action(braced, solve_dp(braced), worse, "S")


_S2, _S3 = BeliefState("2", (0, 1), 2), BeliefState("3", (0, 1), 3)
_S4_TYPE_0 = BeliefState("4", (0,), 4)
_OFF_GRAPH = BeliefState("not a node", (0, 1), 1)
_UNVALUED = BeliefState("zz", (0, 1), 1)
_ROOT_LACKS_TYPE_1 = "no signal for type 1 at BeliefState(node='1', support=(0, 1), period=1)"
_MACHINE_OK = CheckResult("machine_ic", True, "no improving machine deviation", Fraction(0))
_MACHINE_UNDEFINED = CheckResult("machine_ic", False, "machine best response is undefined")
_BELIEF_OK = CheckResult("belief_consistency", True, "all on-path updates match the filter")
_RIDERS_OK = (
    CheckResult("human_ic", True, "human_ic[type 0]: ok; human_ic[type 1]: ok"),
    tuple(CheckResult(f"human_ic[type {i}]", True, "no improving deviation", Fraction(0)) for i in (0, 1)),
)


def _playout_undefined(reason):
    """(human_ic, per_type) when neither type's equilibrium playout finishes."""
    text = [f"equilibrium playout undefined for type {i}: {reason}" for i in (0, 1)]
    return (
        CheckResult("human_ic", False, f"human_ic[type 0]: {text[0]}; human_ic[type 1]: {text[1]}"),
        tuple(CheckResult(f"human_ic[type {i}]", False, text[i]) for i in (0, 1)),
    )


def _rider_undefined(i, reason):
    """(human_ic, per_type) when type i's equilibrium playout does not finish
    and the other type has no improving deviation."""
    text = f"equilibrium playout undefined for type {i}: {reason}"
    per_type = list(_RIDERS_OK[1])
    per_type[i] = CheckResult(f"human_ic[type {i}]", False, text)
    summary = "; ".join(f"human_ic[type {j}]: {text if j == i else 'ok'}" for j in (0, 1))
    return CheckResult("human_ic", False, summary), tuple(per_type)


def _belief_failure(detail):
    return CheckResult("belief_consistency", False, detail)


_RIDER_0_GAINS = (
    "type 0 lowers its criterion from 69/2 to 34 via signals (1, '{1}', SILENT), (2, '{2}', SILENT), "
    "(3, '{3}', SILENT), (4, '{4}', SILENT), (5, '{6}', SILENT), (6, '{8}', SILENT)"
)


@pytest.mark.parametrize(
    "tamper,machine_ic,riders,belief_consistency",
    [
        pytest.param(lambda s, p: (s, p), _MACHINE_OK, _RIDERS_OK, _BELIEF_OK, id="solved"),
        pytest.param(
            lambda s, p: (s, replace(p, decision=_drop(p.decision, p.root))),
            _MACHINE_UNDEFINED,
            _playout_undefined("policy undefined at reached state "
                               "BeliefState(node='1', support=(0, 1), period=1)"),
            _belief_failure("policy undefined at reachable state "
                            "BeliefState(node='1', support=(0, 1), period=1)"),
            id="root-undecided",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, decision=_drop(p.decision, _S2))),
            _MACHINE_UNDEFINED,
            _playout_undefined("policy undefined at reached state "
                               "BeliefState(node='2', support=(0, 1), period=2)"),
            _belief_failure("policy undefined at reachable state "
                            "BeliefState(node='2', support=(0, 1), period=2)"),
            id="reachable-state-undecided",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, transitions=_drop(p.transitions, (_S2, SILENT)))),
            _MACHINE_OK,
            _playout_undefined("policy transition missing at "
                               "BeliefState(node='2', support=(0, 1), period=2) for signal 'SILENT'"),
            _belief_failure("transition missing at BeliefState(node='2', support=(0, 1), period=2) "
                            "for observed 'SILENT'"),
            id="transition-missing",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, transitions={
                **p.transitions, (BeliefState("8", (1,), 6), SILENT): BeliefState("8", (1,), 7)
            })),
            _MACHINE_OK,
            _RIDERS_OK,
            _belief_failure("BeliefState(node='8', support=(1,), period=6) observed 'SILENT': "
                            "branch stops but successor BeliefState(node='8', support=(1,), period=7) "
                            "stored"),
            id="stop-stores-successor",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: replace(p.decision[p.root], machine="N")
            })),
            _MACHINE_OK,
            _playout_undefined("no edge for move 'N' at node '1'"),
            _belief_failure("BeliefState(node='1', support=(0, 1), period=1): "
                            "effective move 'N' has no edge"),
            id="move-without-edge",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: replace(p.decision[p.root], machine=STOP)
            })),
            _MACHINE_OK,
            _playout_undefined("STOP at node '1', which is not a terminal"),
            _belief_failure("BeliefState(node='1', support=(0, 1), period=1) observed 'SILENT': "
                            "branch stops but successor BeliefState(node='2', support=(0, 1), period=2) "
                            "stored"),
            id="stop-off-a-terminal",
        ),
        pytest.param(
            # type 0's playout fails at the state; type 1's search reaches it by signalling S
            lambda s, p: (s, replace(p, decision={
                **p.decision, _S4_TYPE_0: replace(p.decision[_S4_TYPE_0], machine="N")
            })),
            _MACHINE_OK,
            _rider_undefined(0, "no edge for move 'N' at node '4'"),
            _belief_failure("BeliefState(node='4', support=(0,), period=4): "
                            "effective move 'N' has no edge"),
            id="deviation-reaches-move-without-edge",
        ),
        pytest.param(
            # every machine action meets type 1's signal N, which has no edge at the root
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: Prescription("E", ((0, SILENT), (1, "N")))
            })),
            _MACHINE_UNDEFINED,
            _rider_undefined(1, "no edge for move 'N' at node '1'"),
            _belief_failure("first inconsistent step: BeliefState(node='1', support=(0, 1), period=1) "
                            "observed 'SILENT': stored BeliefState(node='2', support=(0, 1), period=2), "
                            "filter gives BeliefState(node='2', support=(0,), period=2)"),
            id="signal-without-edge",
        ),
        pytest.param(
            # type 0's signal X is not a human action: a dead end for every search, named by the belief check
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: Prescription("E", ((0, "X"), (1, SILENT)))
            })),
            _MACHINE_UNDEFINED,
            _rider_undefined(0, "no edge for move 'X' at node '1'"),
            _belief_failure("type 0 at BeliefState(node='1', support=(0, 1), period=1) sends 'X', "
                            "which is not a human action"),
            id="signal-not-a-human-action",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, transitions={
                **p.transitions, (_S2, SILENT): BeliefState("3", (0,), 3)
            })),
            _MACHINE_OK,
            _rider_undefined(1, "no signal for type 1 at BeliefState(node='3', support=(0,), period=3)"),
            _belief_failure("first inconsistent step: BeliefState(node='2', support=(0, 1), period=2) "
                            "observed 'SILENT': stored BeliefState(node='3', support=(0,), period=3), "
                            "filter gives BeliefState(node='3', support=(0, 1), period=3)"),
            id="support-lacks-type",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: Prescription("E", ((0, SILENT),))
            })),
            CheckResult("machine_ic", False, f"machine best response is undefined: {_ROOT_LACKS_TYPE_1}"),
            _rider_undefined(1, _ROOT_LACKS_TYPE_1),
            _belief_failure(_ROOT_LACKS_TYPE_1),
            id="prescription-lacks-type",
        ),
        pytest.param(
            lambda s, p: (s, replace(
                p, root=_OFF_GRAPH, decision={**p.decision, _OFF_GRAPH: p.decision[p.root]},
                value={**p.value, _OFF_GRAPH: p.value[p.root]},
            )),
            _MACHINE_UNDEFINED,
            _playout_undefined(f"policy transition missing at {_OFF_GRAPH} for signal 'SILENT'"),
            _belief_failure(f"transition missing at {_OFF_GRAPH} for observed 'SILENT'"),
            id="root-off-the-graph",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, root=_UNVALUED, decision={**p.decision, _UNVALUED: p.decision[p.root]})),
            CheckResult("machine_ic", False, "machine best response is undefined: "
                        f"the policy has no value at its root {_UNVALUED}"),
            _playout_undefined(f"policy transition missing at {_UNVALUED} for signal 'SILENT'"),
            _belief_failure(f"transition missing at {_UNVALUED} for observed 'SILENT'"),
            id="root-without-value",
        ),
        pytest.param(
            # an entry for a type outside the support, with a signal no supported type sends
            lambda s, p: (s, replace(p, decision={
                **p.decision, p.root: replace(p.decision[p.root], human=p.decision[p.root].human + ((5, "N"),))
            })),
            _MACHINE_OK,
            _RIDERS_OK,
            _BELIEF_OK,
            id="entry-outside-the-support",
        ),
        pytest.param(
            lambda s, p: (s, replace(p, transitions={
                **p.transitions, (_S3, SILENT): BeliefState("5", (0, 1), 4)
            })),
            _MACHINE_OK,
            _RIDERS_OK,
            _belief_failure("first inconsistent step: BeliefState(node='3', support=(0, 1), period=3) "
                            "observed 'SILENT': stored BeliefState(node='5', support=(0, 1), period=4), "
                            "filter gives BeliefState(node='5', support=(1,), period=4)"),
            id="wrong-successor",
        ),
        pytest.param(
            _braced_worse_machine,
            CheckResult("machine_ic", False, "machine deviation lowers the objective from 169/4 "
                        "to 149/4: period 3 at node '{3}': play N", Fraction(5)),
            (
                CheckResult("human_ic", False, f"human_ic[type 0]: {_RIDER_0_GAINS}; human_ic[type 1]: ok"),
                (CheckResult("human_ic[type 0]", False, _RIDER_0_GAINS, Fraction(1, 2)), _RIDERS_OK[1][1]),
            ),
            _BELIEF_OK,
            id="braced-node-names",
        ),
    ],
)
def test_verify_verdict_texts(graph_a, tamper, machine_ic, riders, belief_consistency):
    # every verdict text the verifier writes, on policies tampered from graph_a's solve
    spec, policy = tamper(graph_a, solve_dp(graph_a))
    human_ic, per_type = riders
    assert verify_equilibrium(spec, policy) == EquilibriumReport(
        machine_ic, human_ic, belief_consistency, per_type
    )


def test_verify_reports_a_type_without_policy_weight(graph_a):
    # the root's support holds type 1, which the policy gives no weight
    policy = replace(solve_dp(graph_a), weights={0: Fraction(1)})
    lacking = "type 1 at BeliefState(node='1', support=(0, 1), period=1) has no policy weight"
    rider = CheckResult("human_ic[type 0]", True, "no improving deviation", Fraction(0))
    assert verify_equilibrium(graph_a, policy) == EquilibriumReport(
        CheckResult("machine_ic", False, f"machine best response is undefined: {lacking}"),
        CheckResult("human_ic", True, "human_ic[type 0]: ok"),
        _belief_failure(lacking),
        (rider,),
    )


def test_run_without_recursion_runs_deep_shared_and_ordered_recursions():
    # the verifier's deviation search and the oracle's tree build both run on it
    def depth(n):
        memo[n] = 0 if n == 0 else (yield n - 1) + 1
        return memo[n]

    memo = {}
    assert _run_without_recursion(depth, 100_000, memo) == 100_000 and len(memo) == 100_001

    def paths(node):  # the paths down from ``node``, the one-node path included
        entered.append(node)
        total = 1
        for child in graph[node]:
            total += yield child
        memo[node] = total
        return total

    for order in (["left", "right"], ["right", "left"]):
        graph = {"top": order, "left": ["bottom"], "right": ["bottom"], "bottom": []}
        entered, memo = [], {}
        assert _run_without_recursion(paths, "top", memo) == 5
        assert entered == ["top", order[0], "bottom", order[1]]  # bottom once, in the order asked
        entered, memo = [], {"bottom": 10}  # an entry already in the memo is read, never entered
        assert _run_without_recursion(paths, "top", memo) == 23 and entered == ["top", *order]


def test_smallest_passing_deviation_budget(graph_b):
    # the budget counts every (state, action) pair both best responses explore
    for spec, smallest in ((graph_b, 50), (seeded_lattice(0), 5542)):
        policy = solve_dp(spec)
        assert verify_equilibrium(spec, policy, deviation_budget=smallest).all_passed
        with pytest.raises(DeviationBudgetError):
            verify_equilibrium(spec, policy, deviation_budget=smallest - 1)


def test_deviation_budget_skips_signals_outside_the_support(graph_a):
    # an entry (5, "N") at the root adds no rider deviation to search: the
    # tampered policy passes at the solved policy's smallest budget, 32
    policy = solve_dp(graph_a)
    root = policy.decision[policy.root]
    entry = replace(root, human=root.human + ((5, "N"),))
    tampered = replace(policy, decision={**policy.decision, policy.root: entry})
    for checked in (policy, tampered):
        assert verify_equilibrium(graph_a, checked, deviation_budget=32).all_passed
        with pytest.raises(DeviationBudgetError):
            verify_equilibrium(graph_a, checked, deviation_budget=31)


def test_integer_stage_tables_equal_exact_moments(graph_a, graph_b):
    for spec in (graph_a, graph_b, *(random_game(seed) for seed in range(50))):
        engine, q, weights = _Engine(spec), spec.exact_transmission_cost, spec.exact_prior()
        scale, fee, stage = engine.scaled_stages(weights)
        assert [Fraction(f, scale) for f in fee] == [weights[i] * q for i in sorted(weights)]
        denominator, charge, moments = spec.integer_costs
        assert Fraction(charge, denominator) == q
        moves = [(node, d, e.cost) for node, out in spec.out_edges.items() for d, e in out.items()]
        moves += [(node, STOP, cost) for node, cost in spec.terminals.items()]
        assert len(moments) == len(moves)
        for node, move, cost in moves:
            mean, variance = moments[(node, move)]
            assert (Fraction(mean, denominator), Fraction(variance, denominator)) == (
                cost.exact_mean, cost.exact_variance
            )
            want = [cost.exact_mean + theta * cost.exact_variance for theta in spec.exact_types]
            row = engine.costs[(node, move)]
            for i, criterion in enumerate(want):
                assert Fraction(row[i], engine.denominator) == criterion
                assert Fraction(row[i] + engine.charge, engine.denominator) == criterion + q
            for k, i in enumerate(sorted(weights)):
                assert Fraction(stage[(node, move)][k], scale) == weights[i] * want[i]
        # the solver's tables, built at construction: per member mask m, the
        # weighted fee and every move's weighted stage cost summed over m's bits
        solver = _IntegerSolver(spec)
        assert solver.scale == scale and set(solver._stage_sums) == set(stage)
        for m in range(1 << len(weights)):
            bits = [k for k in range(len(weights)) if m >> k & 1]
            assert solver._fee_sums[m] == sum(fee[k] for k in bits)
            for key, row in stage.items():
                assert solver._stage_sums[key][m] == sum(row[k] for k in bits), key
        assert {len(spec.machine_moves(node)) + 1 for node in spec.nodes} <= set(solver._digits)


def test_solve_dp_rejects_cvar_aggregator(diamond):
    spec = replace(diamond, machine_aggregator=Aggregator.cvar(0.9))
    with pytest.raises(UnsupportedAggregatorError):
        solve_dp(spec)
    # the enumeration route handles it instead
    result = brute_force_oracle(spec)
    assert result.value == 7


def test_solve_dp_rejects_invalid_spec(graph_a):
    with pytest.raises(SpecValidationError):
        solve_dp(replace(graph_a, prior=(0.5, 0.4)))
    with pytest.raises(SpecValidationError):
        solve_dp(replace(graph_a, horizon_T=5))


def test_simulate_rejects_zero_prior_type(graph_a):
    spec = replace(graph_a, prior=(1.0, 0.0))
    policy = solve_dp(spec)
    with pytest.raises(ValueError):
        simulate_type(spec, policy, 1)


def test_pass_through_terminal_stop_versus_continue():
    from riskgames import CostDistribution, Edge, GameSpec

    def ladder(horizon):
        return GameSpec(
            nodes=("1", "t1", "t2"),
            edges=(
                Edge("1", "t1", "E", CostDistribution(1, 0)),
                Edge("t1", "t2", "E", CostDistribution(1, 6)),
            ),
            terminals={"t1": CostDistribution(0, 0), "t2": CostDistribution(-5, 0)},
            start_node="1",
            horizon_T=horizon,
            types=(0.0, 1.0),
            prior=(0.5, 0.5),
            transmission_cost=0.1,
        )

    # enough periods: the neutral type rides through the first destination to
    # the rewarded one (-3), the cautious type stops early (1 beats 1+1+6-5)
    roomy = ladder(3)
    policy = solve_dp(roomy)
    assert policy.value[policy.root] == brute_force_oracle(roomy).value
    neutral, cautious = simulate_type(roomy, policy, 0), simulate_type(roomy, policy, 1)
    assert neutral.terminal == "t2" and neutral.criterion == -3
    assert cautious.terminal == "t1"
    # the split happens on the pass-through terminal: one type pays one fee
    assert (neutral.overrides, cautious.overrides) in ((0, 1), (1, 0))
    assert policy.value[policy.root] == Fraction(-19, 20)
    report = verify_equilibrium(roomy, policy)
    assert report.all_passed

    # one period less: stopping at the first destination is forced
    tight = ladder(2)
    policy = solve_dp(tight)
    assert policy.value[policy.root] == 1
    for i in range(2):
        assert simulate_type(tight, policy, i).terminal == "t1"


def test_policy_decision_covers_on_path_states(graph_b):
    policy = solve_dp(graph_b)
    queue = [policy.root]
    while queue:
        state = queue.pop()
        assert state in policy.decision and state in policy.value
        for signal in set(policy.decision[state].human_map.values()):
            child = policy.transitions[(state, signal)]
            if child is not None:
                queue.append(child)
