from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import cached_property

import pytest

from conftest import make_diamond
from riskgames import CostDistribution, Edge, GameSpec
from riskgames.coordinator_solver import solve_dp
from riskgames.errors import EnumerationGuardError, IllegalMoveError, PathError, SpecValidationError
from riskgames.game_model import (
    EXPECTATION,
    PRIOR_FREE_TABLES,
    SILENT,
    STOP,
    Aggregator,
    as_fraction,
    effective_action,
    path_criterion,
    require_valid,
    step,
    validate_spec,
    with_prior,
)


def test_as_fraction_reads_floats_decimally():
    assert as_fraction(0.05) == Fraction(1, 20)
    assert as_fraction(0.01) * 400 + 30 == 34
    assert as_fraction(7) == 7
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        as_fraction(float("inf"))


def test_cost_distribution_rejects_negative_variance():
    with pytest.raises(ValueError):
        CostDistribution(1, -0.5)


def test_cost_distribution_shift_keeps_variance():
    assert CostDistribution(2, 1).shifted(0.5) == CostDistribution(2.5, 1)


def test_cost_distribution_exact_moments_are_cached():
    cost = CostDistribution(0.05, 2)
    fresh = CostDistribution(0.05, 2)
    assert cost.exact_mean == Fraction(1, 20) and cost.exact_variance == 2
    assert cost.exact_mean is cost.exact_mean
    assert cost.exact_variance is cost.exact_variance
    # a read moment leaves equality, hashing and repr on the two fields
    assert cost == fresh and hash(cost) == hash(fresh)
    assert repr(cost) == repr(fresh) == "CostDistribution(mean=0.05, variance=2)"
    assert cost != CostDistribution(0.05, 3)


def test_effective_action_cases():
    assert effective_action(SILENT, "E") == ("E", False)
    assert effective_action("S", "N") == ("S", True)
    assert effective_action(STOP, "E") == (STOP, True)


def test_effective_action_silent_delegates_for_every_machine_action(graph_a):
    for node in graph_a.nodes:
        for a_m in graph_a.machine_moves(node):
            assert effective_action(SILENT, a_m) == (a_m, False)


def test_effective_action_rejects_illegal_override():
    with pytest.raises(IllegalMoveError):
        effective_action("W", "E", legal_moves=("E", "N"))


def test_step_silent_passes_edge_cost_through(graph_a):
    nxt, cost, override = step(graph_a, "1", SILENT, "E")
    assert (nxt, cost, override) == ("2", CostDistribution(5, 20), False)


def test_step_override_shifts_mean_only(graph_a):
    # q_h = 0.5 on graph_a
    nxt, cost, override = step(graph_a, "3", "N", "S")
    assert override and nxt == "5"
    assert cost == CostDistribution(9.5, 20)


def test_step_stop_at_terminal_returns_terminal_cost(graph_a):
    nxt, cost, override = step(graph_a, "8", SILENT, STOP)
    assert (nxt, cost, override) == ("8", CostDistribution(0, 0), False)


def test_step_stop_at_rewarded_terminal(graph_b):
    nxt, cost, override = step(graph_b, "6", SILENT, STOP)
    assert (nxt, cost, override) == ("6", CostDistribution(-2, 4), False)
    # a human-initiated stop pays the fee into the mean, variance untouched
    nxt, cost, override = step(graph_b, "6", STOP, STOP)
    assert override and cost == CostDistribution(-1.9, 4)


def test_step_stop_at_non_terminal_rejected(graph_a):
    with pytest.raises(IllegalMoveError):
        step(graph_a, "3", SILENT, STOP)
    with pytest.raises(IllegalMoveError):
        step(graph_a, "3", STOP, "N")


def test_step_illegal_direction_rejected(graph_a):
    with pytest.raises(IllegalMoveError):
        step(graph_a, "1", "W", "E")


def _path(spec, directions):
    node = spec.start_node
    edges = []
    for d in directions:
        edge = spec.out_edges[node][d]
        edges.append(edge)
        node = edge.dst
    return tuple(edges)


def test_path_criterion_reference_totals(graph_a):
    south = _path(graph_a, ["E", "E", "S", "E", "N"])
    north = _path(graph_a, ["E", "E", "N", "E", "S"])
    assert path_criterion(graph_a, south, 0, 0.01) == 34
    assert path_criterion(graph_a, north, 0, 0.05) == 40


def test_path_criterion_zero_theta_zero_fee_is_mean_sum(graph_a):
    spec = replace(graph_a, transmission_cost=0.0)
    south = _path(spec, ["E", "E", "S", "E", "N"])
    assert path_criterion(spec, south, 3, 0) == 30


def test_path_criterion_charges_fee_per_override(graph_a):
    south = _path(graph_a, ["E", "E", "S", "E", "N"])
    base = path_criterion(graph_a, south, 0, 0.01)
    for k in range(1, 4):
        got = path_criterion(graph_a, south, k, 0.01)
        assert got - base == k * as_fraction(graph_a.transmission_cost)


def test_path_criterion_additive_over_splits(graph_a):
    # mean and variance totals of any split recombine to the whole-path criterion
    for dirs in (["E", "E", "S", "E", "N"], ["E", "E", "N", "E", "S"]):
        full = _path(graph_a, dirs)
        theta = as_fraction(0.05)
        whole = path_criterion(graph_a, full, 0, theta)
        for cut in range(len(full) + 1):
            prefix, suffix = full[:cut], full[cut:]
            m = sum((e.cost.exact_mean for e in prefix), start=Fraction(0)) + sum(
                (e.cost.exact_mean for e in suffix), start=Fraction(0)
            )
            v = sum((e.cost.exact_variance for e in prefix), start=Fraction(0)) + sum(
                (e.cost.exact_variance for e in suffix), start=Fraction(0)
            )
            term = graph_a.terminals[full[-1].dst]
            assert whole == m + term.exact_mean + theta * (v + term.exact_variance)


def test_path_criterion_rejects_bad_paths(graph_a):
    south = _path(graph_a, ["E", "E", "S", "E", "N"])
    with pytest.raises(PathError):
        path_criterion(graph_a, south[:2], 0, 0.01)  # ends off-terminal
    shuffled = (south[0], south[2], south[1], south[3], south[4])
    with pytest.raises(PathError):
        path_criterion(graph_a, shuffled, 0, 0.01)
    short_horizon = replace(graph_a, horizon_T=5)
    with pytest.raises(PathError):
        path_criterion(short_horizon, south, 0, 0.01)


def test_validate_spec_accepts_reference_graphs(graph_a, graph_b):
    assert validate_spec(graph_a) == []
    assert validate_spec(graph_b) == []


def test_validate_spec_prior_sum(graph_a):
    bad = with_prior(graph_a, (0.5, 0.4))
    assert any("prior does not sum to 1" in v for v in validate_spec(bad))


def test_validate_spec_duplicate_direction(graph_a):
    edges = graph_a.edges + (Edge("1", "3", "E", CostDistribution(1, 0)),)
    bad = replace(graph_a, edges=edges)
    assert any("duplicate direction" in v for v in validate_spec(bad))


def test_validate_spec_horizon_reachability(graph_a):
    bad = replace(graph_a, horizon_T=5)
    assert any("within horizon" in v for v in validate_spec(bad))


def test_validate_spec_types_ordering(graph_a):
    bad = replace(graph_a, types=(0.05, 0.01))
    assert any("strictly increasing" in v for v in validate_spec(bad))
    bad = replace(graph_a, types=(0.01, 0.01))
    assert any("strictly increasing" in v for v in validate_spec(bad))


def test_validate_spec_never_raises_on_junk():
    junk = GameSpec(
        nodes=("a", "a"),
        edges=(Edge("a", "zz", "Q", CostDistribution(1, 0)),),
        terminals={},
        start_node="missing",
        horizon_T=0,
        types=(),
        prior=(0.2,),
        transmission_cost=-1.0,
    )
    problems = validate_spec(junk)
    assert len(problems) >= 5


@pytest.mark.parametrize("change,problems", [
    ({"types": ("a", "b")}, ["risk parameter 'a' must be finite and non-negative",
                             "risk parameter 'b' must be finite and non-negative"]),
    ({"prior": ("x", 0.5)}, ["prior weights must be finite and non-negative"]),
    ({"transmission_cost": None}, ["transmission cost must be non-negative, got None"]),
    ({"machine_aggregator": Aggregator("cvar", "0.5")}, ["cvar aggregator needs alpha in [0, 1), got '0.5'"]),
    ({"types": (10**400, 10**401)}, [f"risk parameter {10**400!r} must be finite and non-negative",
                                     f"risk parameter {10**401!r} must be finite and non-negative"]),
    ({"transmission_cost": 10**400}, [f"transmission cost must be non-negative, got {10**400!r}"]),
    ({"prior": (10**400, 0)}, ["prior weights must be finite and non-negative"]),
], ids=["str types", "str prior", "None fee", "str alpha", "huge types", "huge fee", "huge prior"])
def test_validate_spec_lists_a_value_of_the_wrong_kind_or_size(graph_a, change, problems):
    spec = replace(graph_a, **change)
    assert validate_spec(spec) == problems
    with pytest.raises(SpecValidationError) as err:
        require_valid(spec)
    assert err.value.violations == problems


def test_validated_spec_is_frozen():
    spec = make_diamond()
    assert validate_spec(spec) == []
    spec.out_edges
    assert "out_edges" in vars(spec)  # engine tables are still cached on first read
    with pytest.raises(FrozenInstanceError):
        spec.horizon_T = 5
    with pytest.raises(FrozenInstanceError):
        spec.machine_aggregator = Aggregator.cvar(0.5)
    assert spec.horizon_T == 3 and spec.machine_aggregator == EXPECTATION


def test_exact_prior_is_parsed_once_and_copied(graph_a):
    first = graph_a.exact_prior()
    assert first == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert graph_a.exact_prior() is not first
    first[0] = Fraction(7)
    del first[1]
    assert graph_a.exact_prior() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert "_exact_prior" in vars(graph_a)
    assert with_prior(graph_a, (0.25, 0.75)).exact_prior() == {0: Fraction(1, 4), 1: Fraction(3, 4)}


def _spec_fields(spec):
    return {k: getattr(spec, k) for k in (
        "nodes", "edges", "terminals", "start_node", "horizon_T",
        "types", "prior", "transmission_cost", "machine_aggregator",
    )}


def test_with_prior_replaces_only_prior(graph_a):
    swapped = with_prior(graph_a, (0.25, 0.75))
    assert swapped.prior == (0.25, 0.75)
    a, b = _spec_fields(graph_a), _spec_fields(swapped)
    a.pop("prior"), b.pop("prior")
    assert a == b


def test_with_prior_shares_the_prior_free_tables():
    spec = make_diamond(q=0.3, types=(0.05, 0.375))
    solve_dp(spec)  # computes every cached table, the layers of the full support included
    cached = {name for name, attr in vars(GameSpec).items() if isinstance(attr, cached_property)}
    assert cached == {*PRIOR_FREE_TABLES, "_exact_prior", "violations"}
    assert cached <= set(vars(spec))
    swapped = with_prior(spec, (0.25, 0.75))
    for name in PRIOR_FREE_TABLES:
        assert vars(swapped)[name] is vars(spec)[name], name
    assert "_exact_prior" not in vars(swapped) and "violations" not in vars(swapped)
    assert swapped.exact_prior() == {0: Fraction(1, 4), 1: Fraction(3, 4)}
    layers = spec.layer_memo[(0, 1)]

    def move_lists(spec):
        return [moves for layer in spec.layer_memo[(0, 1)] for moves, _ in layer.values()]

    source_moves = move_lists(spec)
    solve_dp(swapped)  # same support: the layers and their move lists are read back, not rebuilt
    assert list(spec.layer_memo) == [(0, 1)] and spec.layer_memo[(0, 1)] is layers
    assert all(a is b for a, b in zip(move_lists(swapped), source_moves, strict=True))
    # a fresh source gets the layer memo its copies share; nothing else is computed for them
    fresh = make_diamond()
    assert cached & set(vars(with_prior(fresh, (1.0, 0.0)))) == {"layer_memo"}
    assert not cached & set(vars(replace(spec, prior=(0.25, 0.75))))


def test_layers_past_the_state_guard_are_not_kept():
    cycle = GameSpec(
        nodes=("1", "2", "3"),
        edges=tuple(Edge(a, b, d, CostDistribution(1, 2))
                    for a, b, d in (("1", "2", "E"), ("2", "3", "E"), ("3", "1", "S"), ("2", "1", "W"))),
        terminals={"3": CostDistribution(0, 0)},
        start_node="1",
        horizon_T=10**400,
        types=(0.01, 0.5),
        prior=(0.5, 0.5),
    )
    for spec in (cycle, cycle, with_prior(cycle, (0.25, 0.75))):
        with pytest.raises(EnumerationGuardError):
            solve_dp(spec)
    assert cycle.layer_memo == {}
