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
    risk_adjusted_shortest_paths,
)
from .coordinator_solver import TypeTrajectory, aggregate, playout, solve_dp
from .errors import UnsupportedAggregatorError
from .game_model import (
    GameSpec,
    PublicHistory,
    Trajectory,
    as_float,
    as_fraction,
    require_valid,
    with_prior,
)

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
    require_valid(spec)
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


def _scaled(scale: int, fractions) -> list[int]:
    """Each fraction times ``scale``, a multiple of every denominator, as an integer."""
    return [x.numerator * (scale // x.denominator) for x in fractions]


def _grid_fraction(p) -> Fraction:
    """A grid value as an exact prior mass, checked to lie in [0, 1]."""
    pf = as_fraction(p)
    if pf < 0 or pf > 1:
        raise ValueError(f"grid value {p!r} outside [0, 1]")
    return pf


def prior_sweep(
    spec: GameSpec,
    sweep_type: int,
    grid: Sequence[float] | None = None,
    neutral_with_overrides: bool = False,
) -> list[RegretRow]:
    """Regret of the three strategies as the prior mass on one type varies.

    For each grid point p the swept type gets mass p and every other type
    (1 - p) / (K - 1), and one row of exact regrets is emitted, in grid
    order, with grid values checked and solved in that order.

    - Once per sweep: the neutral baseline (plain or with overrides), and one
      :func:`risk_adjusted_shortest_paths` call for each type's best-case
      route and the average baseline's route at every point's theta bar.
    - Once per route: that call plans only where the route can change, so
      the average baseline costs one plan per route it takes plus the
      bisection steps between them, not one per point. Every per-type
      criterion vector (best case, neutral, each point's average route)
      goes over one common denominator: the spec's cost denominator times
      the lcm of the types' denominators, as each criterion is a route's
      moments and fees plus theta times its variance.
    - Once per point: the coordinator problem, solved on a
      :func:`with_prior` copy that shares the spec's prior-free tables and
      the solver's layers, which are built once per prior support; and the
      row, priced on integers with the point's weights over their lcm, each
      of its four numbers one exact ``Fraction``.
    """
    if not 0 <= sweep_type < len(spec.types):
        raise ValueError(f"sweep type index {sweep_type} out of range")
    if spec.machine_aggregator.kind != "expectation":
        raise UnsupportedAggregatorError("prior sweeps run under the expectation aggregator")
    require_valid(spec)
    points = DEFAULT_SWEEP_GRID if grid is None else tuple(grid)
    thetas = spec.exact_types  # strictly increasing
    theta_scale = math.lcm(*(t.denominator for t in thetas))
    scaled_thetas = _scaled(theta_scale, thetas)
    # per grid value up to the first bad one, whose error is raised after the rows before it: the
    # copy, its weights over their lcm, that lcm, and its theta bar, equal to average_theta(copy)
    swept, bad_value = [], None
    for p in points:
        try:
            pf = _grid_fraction(p)
        except (TypeError, ValueError, ArithmeticError) as err:
            bad_value = err
            break
        point = with_prior(spec, _sweep_priors(spec, sweep_type, pf))
        prior = point.exact_prior()
        lcm = math.lcm(*(w.denominator for w in prior.values()))
        weights = dict(zip(prior, _scaled(lcm, prior.values())))
        bar = Fraction(sum(w * scaled_thetas[i] for i, w in weights.items()), lcm * theta_scale)
        swept.append((point, weights, lcm, bar))
    # planning every theta bar before the first solve raises no new error: a planner's one
    # theta-dependent error is _induct's negative-cycle guard, whose text does not depend on theta,
    # and a cycle negative at a theta bar (>= 0) is negative at theta = 0, where the neutral
    # baseline meets it before any solve
    plans = risk_adjusted_shortest_paths(spec, [*thetas, *(bar for *_, bar in swept)])
    if neutral_with_overrides:
        neutral = [evaluate_policy_exact(spec, plan, i).criterion
                   for i, plan in neutral_override_plans(spec, range(len(thetas))).items()]
    else:
        neutral = baseline_policy(spec, "neutral").per_type_criterion.values()
    scale = spec.integer_costs[0] * theta_scale  # a denominator of every per-type criterion
    best_case = _scaled(scale, (plans[t].per_type_criterion[i] for i, t in enumerate(thetas)))
    neutral = _scaled(scale, neutral)
    rows: list[RegretRow] = []
    for p, (point, weights, lcm, bar) in zip(points, swept):
        policy = solve_dp(point)
        hm, unit = policy.value[policy.root], lcm * scale
        average = _scaled(scale, plans[bar].per_type_criterion.values())
        bc, ma, mn = (sum(w * vector[i] for i, w in weights.items())
                      for vector in (best_case, average, neutral))
        rows.append(
            RegretRow(
                sweep_value=float(p),
                regret_hm=as_float(Fraction(hm.numerator * unit - hm.denominator * bc,
                                            hm.denominator * unit)),
                regret_ma=as_float(Fraction(ma - bc, unit)),
                regret_mn=as_float(Fraction(mn - bc, unit)),
                bcp=as_float(Fraction(bc, unit)),
            )
        )
    if bad_value is not None:
        raise bad_value
    return rows
