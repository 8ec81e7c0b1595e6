"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing runs as well).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from fractions import Fraction

from instance_gen import oracle_sized_game, random_game
from riskgames.baseline_planners import average_theta, risk_adjusted_shortest_path
from riskgames.belief_filter import Belief, bayes_update, likelihood_update
from riskgames.cli_bench import main
from riskgames.coordinator_solver import (
    BeliefState,
    brute_force_oracle,
    simulate_type,
    solve_dp,
    verify_equilibrium,
)
from riskgames.evaluation import prior_sweep
from riskgames.game_model import SILENT
from riskgames.risk_measures import (
    EmpiricalOutcome,
    axiom_probe,
    cvar_aggregate,
    make_cvar_criterion,
    make_mean_variance_criterion,
)


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_two_route_criteria_exact(graph_a):
    start = time.perf_counter()
    tolerant = risk_adjusted_shortest_path(graph_a, 0.01)
    cautious = risk_adjusted_shortest_path(graph_a, 0.05)
    elapsed = time.perf_counter() - start
    ok = (
        tolerant.per_type_criterion[0] == 34
        and cautious.per_type_criterion[1] == 40
        and elapsed < 1.0
    )
    _verdict(
        "1 route-criteria",
        ok,
        f"criteria {float(tolerant.per_type_criterion[0])}/{float(cautious.per_type_criterion[1])}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_02_average_theta_arithmetic(graph_b):
    uniform = average_theta(graph_b)
    skewed = average_theta(replace(graph_b, prior=(0.0, 0.5, 0.5)))
    ok = abs(uniform - Fraction(31, 300)) <= Fraction(1, 10**12) and abs(
        skewed - Fraction(3, 20)
    ) <= Fraction(1, 10**12)
    _verdict("2 average-theta", ok, f"uniform {float(uniform):.6f}, skewed {float(skewed)}")


def test_criterion_03_divergence_and_revelation(graph_a):
    start = time.perf_counter()
    policy = solve_dp(graph_a)
    tolerant = simulate_type(graph_a, policy, 0)
    cautious = simulate_type(graph_a, policy, 1)
    elapsed = time.perf_counter() - start

    silent_before = tolerant.signals[:2] == (SILENT, SILENT) == cautious.signals[:2]
    diverges = tolerant.effective[2] == "S" and cautious.effective[2] == "N"
    # the period-3 signals separate the two types; the type whose route the
    # machine does not take signals its direction and pays the fee
    signals_separate = tolerant.signals[2] != cautious.signals[2]
    overriding = [s for s in (tolerant, cautious) if s.signals[2] != SILENT]
    fee_paid = all(s.signals[2] == s.effective[2] for s in overriding) and len(overriding) >= 1
    silent_after = set(tolerant.signals[3:]) == {SILENT} and set(cautious.signals[3:]) == {SILENT}

    split_state = BeliefState("3", (0, 1), 3)
    slice_map = policy.decision[split_state].human_map
    point_mass = all(
        len(policy.transitions[(split_state, sig)].support) == 1
        for sig in set(slice_map.values())
    )
    ok = (
        silent_before
        and diverges
        and signals_separate
        and fee_paid
        and silent_after
        and point_mass
        and elapsed < 5.0
    )
    _verdict(
        "3 divergence-narrative",
        ok,
        f"signals t=3 {tolerant.signals[2]}/{cautious.signals[2]}, {elapsed:.3f}s",
    )


def test_criterion_04_regret_sweep_qualitative(graph_b):
    start = time.perf_counter()
    sweeps = [prior_sweep(graph_b, axis) for axis in range(3)]
    elapsed = time.perf_counter() - start

    dominance = all(
        r.regret_hm <= r.regret_ma <= r.regret_mn for rows in sweeps for r in rows
    )
    nonneg = all(
        min(r.regret_hm, r.regret_ma, r.regret_mn) >= 0 for rows in sweeps for r in rows
    )
    endpoints = all(
        rows[-1].regret_ma == 0.0 and rows[-1].regret_hm == 0.0 for rows in sweeps
    )
    mn_low = [r.regret_mn for r in sweeps[0]]
    mn_high = [r.regret_mn for r in sweeps[2]]
    mn_trends = all(a >= b for a, b in zip(mn_low, mn_low[1:])) and all(
        a <= b for a, b in zip(mn_high, mn_high[1:])
    )
    # grid point closest to one third of the mass on the tolerant type
    third = min(range(len(sweeps[0])), key=lambda i: abs(sweeps[0][i].sweep_value - 1 / 3))
    dip = sweeps[0][0].regret_ma < sweeps[0][third].regret_ma

    ok = dominance and nonneg and endpoints and mn_trends and dip and elapsed < 60.0
    _verdict(
        "4 regret-sweeps",
        ok,
        f"dip {sweeps[0][0].regret_ma:.3f} < {sweeps[0][third].regret_ma:.3f}, {elapsed:.2f}s",
    )


def test_criterion_05_equilibrium_verification(graph_a, graph_b):
    specs = [graph_a, graph_b]
    specs += [random_game(seed, max_nodes=8, k_types=3) for seed in range(20)]
    failures = []
    for idx, spec in enumerate(specs):
        policy = solve_dp(spec)
        report = verify_equilibrium(spec, policy)
        if not report.all_passed:
            failures.append((idx, report))
    _verdict(
        "5 equilibrium-verification",
        not failures,
        f"{len(specs)} scenarios" + (f", first failure {failures[0]}" if failures else ""),
    )


def test_criterion_06_solver_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    for seed in range(50):
        spec = oracle_sized_game(seed)
        policy = solve_dp(spec)
        result = brute_force_oracle(spec)
        if policy.value[policy.root] != result.value:
            mismatches.append((seed, policy.value[policy.root], result.value))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    _verdict(
        "6 oracle-equivalence",
        ok,
        f"50 instances, {elapsed:.1f}s" + (f", mismatches {mismatches[:3]}" if mismatches else ""),
    )


def _two_point_grid():
    values = (0, 1, 2, 4)
    weights = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2)))
    trials = []
    for w1, w2 in weights:
        for v1, v2, u1, u2 in itertools.product(values, repeat=4):
            trials.append(
                (
                    EmpiricalOutcome.of([(v1, w1), (v2, w2)]),
                    EmpiricalOutcome.of([(u1, w1), (u2, w2)]),
                )
            )
    return trials


def test_criterion_07_risk_measure_axioms():
    trials = _two_point_grid()
    ts = (0, 0.25, 0.5, 0.75, 1)
    cvar_report = axiom_probe(make_cvar_criterion(0.9), trials, ts)
    mv_report = axiom_probe(make_mean_variance_criterion(1), trials, ts, shifts=(5,))
    mean_matches = all(
        cvar_aggregate(z, 0) == z.mean() for z, _ in trials[:64]
    )
    ok = (
        cvar_report.passed
        and mv_report.check("translation_invariance").passed
        and mv_report.check("convexity").passed
        and not mv_report.check("monotonicity").passed
        and mv_report.check("monotonicity").counterexample is not None
        and mean_matches
    )
    _verdict(
        "7 risk-axioms",
        ok,
        f"cvar {'ok' if cvar_report.passed else 'broken'}, "
        f"mean-variance counterexample {'found' if not mv_report.check('monotonicity').passed else 'missing'}",
    )


def test_criterion_08_filter_properties():
    actions = ("SILENT", "N", "S")
    ok = True
    for k in range(1, 5):
        belief = Belief.from_weights({i: Fraction(2 * i + 1, 11) for i in range(k)})
        for combo in itertools.product(actions, repeat=k):
            strategy = dict(enumerate(combo))
            randomized = {
                i: {a: (1 if strategy[i] == a else 0) for a in actions} for i in range(k)
            }
            for observed in set(combo):
                updated = bayes_update(belief, observed, strategy)
                restriction = updated.support == frozenset(
                    i for i in range(k) if strategy[i] == observed
                ) and all(updated.weight(i) == belief.weight(i) for i in updated.support)
                idempotent = bayes_update(updated, observed, strategy) == updated
                monotone = updated.support <= belief.support
                generalized = likelihood_update(belief, observed, randomized) == updated
                if not (restriction and idempotent and monotone and generalized):
                    ok = False
    _verdict("8 filter-properties", ok, "exhaustive slices for K <= 4")


def test_criterion_09_sweep_determinism(tmp_path):
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    args = ["--scenario", "graph_b", "sweep", "--axis", "2"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _verdict("9 sweep-determinism", identical, f"{first.stat().st_size} bytes")
