"""Policy evaluation and the regret benchmark.

Every evaluation reads one type's realized route from
:func:`coordinator_solver.playout`, whatever the policy kind: exact
evaluation takes its edge and terminal moments (plus the deterministic
signalling fees), and Monte Carlo evaluation samples the same route's edge
costs as a statistical cross-check. Regret is a policy's criterion under
the machine's aggregator minus the prior-weighted best-case benchmark, and
the prior sweep reproduces the regret-versus-prior study on a grid of priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .baseline_planners import (
    baseline_policy,
    best_case_value,
    neutral_override_plans,
    risk_adjusted_shortest_path,
)
from .coordinator_solver import TypeTrajectory, aggregate, playout, solve_dp
from .errors import UnsupportedAggregatorError
from .game_model import GameSpec, PublicHistory, Trajectory, as_float, as_fraction, with_prior

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SWEEP_GRID = tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class PolicyEvaluation:
    per_type: dict[int, TypeTrajectory]
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


def evaluate_policy_exact(spec: GameSpec, policy, type_index: int) -> TypeTrajectory:
    """Exact per-type play: edge sums plus fee times overrides in the mean."""
    return playout(spec, policy, type_index)


def evaluate_policy(spec: GameSpec, policy) -> PolicyEvaluation:
    """Evaluate a policy for every positive-prior type and aggregate by the machine's aggregator."""
    per_type = {i: evaluate_policy_exact(spec, policy, i) for i in spec.positive_support()}
    criteria = {i: route.criterion for i, route in per_type.items()}
    return PolicyEvaluation(per_type, aggregate(spec.machine_aggregator, spec.exact_prior(), criteria))


def compute_regret(spec: GameSpec, evaluation: PolicyEvaluation) -> Fraction:
    """Weighted criterion minus the best-case benchmark; non-negative by construction."""
    return evaluation.weighted_criterion - best_case_value(spec)


def sample_trajectory(spec: GameSpec, policy, type_index: int, rng: np.random.Generator) -> Trajectory:
    """One Gaussian rollout of the type's realized route.

    Signalling fees are charged inside the period they were paid, so the
    total is exactly the sum of the per-step costs plus the terminal cost.
    """
    play = playout(spec, policy, type_index)
    costs = []
    for period, e in enumerate(play.edges, start=1):
        draw = float(rng.normal(e.cost.mean, math.sqrt(e.cost.variance)))
        if period in play.override_periods:
            draw += spec.transmission_cost
        costs.append(draw)
    term = spec.terminals[play.terminal]
    terminal_cost = float(rng.normal(term.mean, math.sqrt(term.variance)))
    if play.stop_period in play.override_periods:
        terminal_cost += spec.transmission_cost
    steps = tuple(zip(play.nodes, play.signals, play.machine_actions))
    history = PublicHistory(steps=steps, current=play.terminal)
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
    import numpy as np  # imported here so that importing the package stays light

    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    play = playout(spec, policy, type_index)
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
    moves with the prior, are re-solved at every point, each on a
    :func:`with_prior` copy that shares the spec's prior-free tables and
    the solver's layers, which are built once per prior support.
    """
    if not 0 <= sweep_type < len(spec.types):
        raise ValueError(f"sweep type index {sweep_type} out of range")
    if spec.machine_aggregator.kind != "expectation":
        raise UnsupportedAggregatorError("prior sweeps run under the expectation aggregator")
    points = DEFAULT_SWEEP_GRID if grid is None else tuple(grid)
    types = range(len(spec.types))
    best_case = {
        i: risk_adjusted_shortest_path(spec, spec.exact_types[i]).per_type_criterion[i] for i in types
    }
    if neutral_with_overrides:
        neutral = {i: evaluate_policy_exact(spec, plan, i).criterion
                   for i, plan in neutral_override_plans(spec, types).items()}
    else:
        neutral = baseline_policy(spec, "neutral").per_type_criterion
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
        average = baseline_policy(swept, "average").per_type_criterion
        ma = sum((w * average[i] for i, w in weights.items()), start=Fraction(0))
        mn = sum((w * neutral[i] for i, w in weights.items()), start=Fraction(0))
        rows.append(
            RegretRow(
                sweep_value=float(p),
                regret_hm=as_float(hm - bcp),
                regret_ma=as_float(ma - bcp),
                regret_mn=as_float(mn - bcp),
                bcp=as_float(bcp),
            )
        )
    return rows
