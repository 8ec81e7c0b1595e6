"""Policy evaluation and the regret benchmark.

Exact evaluation sums edge moments along each type's realized route (plus
the deterministic signalling fees); Monte Carlo evaluation samples edge
costs and exists as a statistical cross-check. Regret is a policy's
prior-weighted criterion minus the best-case benchmark, and the prior
sweep reproduces the regret-versus-prior study on a grid of priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .baseline_planners import (
    PlannerResult,
    RealizedPlan,
    baseline_policy,
    best_case_value,
    neutral_override_plan,
    risk_adjusted_shortest_path,
)
from .coordinator_solver import CoordinatorPolicy, simulate_type, solve_dp
from .errors import UnsupportedAggregatorError
from .game_model import (
    Edge,
    GameSpec,
    PublicHistory,
    Trajectory,
    as_fraction,
    with_prior,
)
from .risk_measures import EmpiricalOutcome, cvar_aggregate

DEFAULT_SWEEP_GRID = tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class PerTypeOutcome:
    """Exact moments of one type's realized play (fees folded into the mean)."""

    mean: Fraction
    variance: Fraction
    overrides: int
    criterion: Fraction


@dataclass(frozen=True)
class PolicyEvaluation:
    per_type: dict[int, PerTypeOutcome]
    weighted_criterion: Fraction


@dataclass(frozen=True)
class RegretRow:
    """One sweep point: the three regrets plus the benchmark they subtract."""

    sweep_value: float
    regret_hm: float
    regret_ma: float
    regret_mn: float
    bcp: float

    def __post_init__(self):
        for name in ("regret_hm", "regret_ma", "regret_mn"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"{name} is negative ({getattr(self, name)}); benchmark broken")


@dataclass(frozen=True)
class _Playout:
    """Period-by-period record of one type's realized play."""

    edges: tuple[Edge, ...]
    terminal: str
    signals: tuple[str, ...]
    machine_actions: tuple[str, ...]
    override_periods: tuple[int, ...]

    @property
    def overrides(self) -> int:
        return len(self.override_periods)


def _playout(spec: GameSpec, policy, type_index: int) -> _Playout:
    """Normalize any supported policy kind into a playout for one type."""
    if isinstance(policy, CoordinatorPolicy):
        sim = simulate_type(spec, policy, type_index)
        return _Playout(sim.edges, sim.terminal, sim.signals, sim.machine_actions,
                        sim.override_periods)
    if isinstance(policy, PlannerResult):
        terminal = policy.path[-1].dst if policy.path else spec.start_node
        moves = tuple(e.direction for e in policy.path) + ("STOP",)
        silent = ("SILENT",) * len(moves)
        return _Playout(policy.path, terminal, silent, moves, ())
    if isinstance(policy, RealizedPlan):
        return _Playout(policy.path, policy.terminal, policy.signals,
                        policy.machine_actions, policy.override_periods)
    raise TypeError(f"unsupported policy object {type(policy).__name__}")


def evaluate_policy_exact(spec: GameSpec, policy, type_index: int) -> PerTypeOutcome:
    """Exact per-type moments: edge sums plus fee times overrides in the mean."""
    play = _playout(spec, policy, type_index)
    mean = sum((e.cost.exact_mean for e in play.edges), start=Fraction(0))
    var = sum((e.cost.exact_variance for e in play.edges), start=Fraction(0))
    term = spec.terminals[play.terminal]
    mean += term.exact_mean + as_fraction(spec.transmission_cost) * play.overrides
    var += term.exact_variance
    theta = as_fraction(spec.types[type_index])
    return PerTypeOutcome(
        mean=mean, variance=var, overrides=play.overrides, criterion=mean + theta * var
    )


def evaluate_policy(spec: GameSpec, policy, aggregator=None) -> PolicyEvaluation:
    """Evaluate a policy for every positive-prior type and aggregate."""
    agg = aggregator if aggregator is not None else spec.machine_aggregator
    per_type = {i: evaluate_policy_exact(spec, policy, i) for i in spec.positive_support()}
    weights = spec.exact_prior()
    if agg.kind == "expectation":
        weighted = sum((weights[i] * o.criterion for i, o in per_type.items()), start=Fraction(0))
    elif agg.kind == "cvar":
        outcome = EmpiricalOutcome.of((o.criterion, weights[i]) for i, o in per_type.items())
        weighted = cvar_aggregate(outcome, agg.alpha)
    else:
        raise UnsupportedAggregatorError(f"unknown aggregator {agg.kind!r}")
    return PolicyEvaluation(per_type=per_type, weighted_criterion=weighted)


def compute_regret(spec: GameSpec, evaluation: PolicyEvaluation) -> Fraction:
    """Weighted criterion minus the best-case benchmark; non-negative by construction."""
    return evaluation.weighted_criterion - best_case_value(spec)


def sample_trajectory(spec: GameSpec, policy, type_index: int, rng: np.random.Generator) -> Trajectory:
    """One Gaussian rollout of the type's realized route.

    Signalling fees are charged inside the period they were paid, so the
    total is exactly the sum of the per-step costs plus the terminal cost.
    """
    play = _playout(spec, policy, type_index)
    steps = []
    costs = []
    node = spec.start_node
    for period, e in enumerate(play.edges, start=1):
        draw = float(rng.normal(e.cost.mean, math.sqrt(e.cost.variance)))
        if period in play.override_periods:
            draw += spec.transmission_cost
        costs.append(draw)
        steps.append((node, play.signals[period - 1], play.machine_actions[period - 1]))
        node = e.dst
    stop_period = len(play.edges) + 1
    term = spec.terminals[play.terminal]
    terminal_cost = float(rng.normal(term.mean, math.sqrt(term.variance)))
    if stop_period in play.override_periods:
        terminal_cost += spec.transmission_cost
    steps.append((node, play.signals[-1], play.machine_actions[-1]))
    history = PublicHistory(steps=tuple(steps), current=play.terminal)
    return Trajectory(
        history=history,
        step_costs=tuple(costs),
        terminal_cost=terminal_cost,
        total_cost=math.fsum(costs) + terminal_cost,
    )


def monte_carlo_evaluate(
    spec: GameSpec, policy, type_index: int, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and unbiased sample variance of the type's total cost.

    Edge costs are drawn as independent Gaussians with the declared
    moments; the criterion only depends on the first two moments, so the
    family choice is a test convenience, not a modeling commitment.
    Reproducible for a fixed seed; variance is reported as 0.0 when a
    single sample leaves it undefined.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    play = _playout(spec, policy, type_index)
    rng = np.random.default_rng(seed)
    term = spec.terminals[play.terminal]
    means = np.array([e.cost.mean for e in play.edges] + [term.mean], dtype=float)
    sds = np.sqrt(np.array([e.cost.variance for e in play.edges] + [term.variance], dtype=float))
    draws = rng.normal(means, sds, size=(n_samples, len(means))).sum(axis=1)
    draws += spec.transmission_cost * play.overrides
    mean_est = float(draws.mean())
    var_est = float(draws.var(ddof=1)) if n_samples > 1 else 0.0
    return mean_est, var_est


def _sweep_priors(spec: GameSpec, sweep_type: int, p: Fraction) -> tuple[float, ...]:
    """Prior with mass p on the swept type and the remainder split equally."""
    k = len(spec.types)
    rest = (1 - p) / (k - 1) if k > 1 else Fraction(0)
    return tuple(float(p) if i == sweep_type else float(rest) for i in range(k))


def prior_sweep(
    spec: GameSpec,
    sweep_type: int,
    grid: Sequence[float] | None = None,
    neutral_with_overrides: bool = False,
) -> list[RegretRow]:
    """Regret of the three strategies as the prior mass on one type varies.

    For each grid point p the swept type gets mass p and every other type
    (1 - p) / (K - 1), and one row of exact regrets is emitted, in grid
    order. Each type's best-case criterion and its criterion under the
    neutral baseline (plain or with overrides) do not depend on the prior,
    so they are planned once per sweep and weighted by each point's prior;
    only the coordinator problem and the average baseline, whose theta bar
    moves with the prior, are re-solved at every point.
    """
    if not 0 <= sweep_type < len(spec.types):
        raise ValueError(f"sweep type index {sweep_type} out of range")
    if spec.machine_aggregator.kind != "expectation":
        raise UnsupportedAggregatorError("prior sweeps run under the expectation aggregator")
    points = DEFAULT_SWEEP_GRID if grid is None else tuple(grid)
    types = range(len(spec.types))
    best_case = {i: risk_adjusted_shortest_path(spec, spec.types[i]).per_type_criterion[i] for i in types}
    if neutral_with_overrides:
        neutral_plans = {i: neutral_override_plan(spec, i) for i in types}
    else:
        neutral_plans = dict.fromkeys(types, baseline_policy(spec, "neutral"))
    neutral = {i: evaluate_policy_exact(spec, plan, i).criterion for i, plan in neutral_plans.items()}
    rows: list[RegretRow] = []
    for p in points:
        pf = as_fraction(p)
        if pf < 0 or pf > 1:
            raise ValueError(f"grid value {p!r} outside [0, 1]")
        swept = with_prior(spec, _sweep_priors(spec, sweep_type, pf))
        weights = swept.exact_prior()
        bcp = sum((w * best_case[i] for i, w in weights.items()), start=Fraction(0))
        hm_policy = solve_dp(swept)
        hm = hm_policy.value[hm_policy.root]
        ma = evaluate_policy(swept, baseline_policy(swept, "average")).weighted_criterion
        mn = sum((w * neutral[i] for i, w in weights.items()), start=Fraction(0))
        rows.append(
            RegretRow(
                sweep_value=float(p),
                regret_hm=float(hm - bcp),
                regret_ma=float(ma - bcp),
                regret_mn=float(mn - bcp),
                bcp=float(bcp),
            )
        )
    return rows
