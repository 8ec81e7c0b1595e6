"""Risk-sensitive human-machine routing games: exact solver and benchmark.

Library layout:

* :mod:`riskgames.risk_measures` - scalar risk functionals and the axiom probe;
* :mod:`riskgames.game_model` - the game tuple on a directed graph;
* :mod:`riskgames.belief_filter` - type posterior under observed signals;
* :mod:`riskgames.coordinator_solver` - exact backward induction, brute-force
  oracle and equilibrium verifier;
* :mod:`riskgames.baseline_planners` - comparison policies and the path oracle;
* :mod:`riskgames.evaluation` - exact/Monte Carlo evaluation, regrets, sweeps;
* :mod:`riskgames.cli_bench` - the ``riskgames`` command line.
"""

from .baseline_planners import (
    PathStats,
    PlannerResult,
    RealizedPlan,
    average_theta,
    baseline_policy,
    best_case_value,
    enumerate_paths_oracle,
    neutral_override_plan,
    neutral_override_plans,
    risk_adjusted_shortest_path,
)
from .belief_filter import Belief, bayes_update, likelihood_update, reachable_supports
from .coordinator_solver import (
    BeliefState,
    CoordinatorPolicy,
    EquilibriumReport,
    OracleResult,
    PolicyTree,
    Prescription,
    TypeTrajectory,
    aggregate,
    brute_force_oracle,
    count_deterministic_policies,
    evaluate_policy_tree,
    playout,
    simulate_type,
    solve_dp,
    tree_playout,
    verify_equilibrium,
)
from .evaluation import (
    PolicyEvaluation,
    RegretRow,
    compute_regret,
    evaluate_policy,
    evaluate_policy_exact,
    monte_carlo_evaluate,
    prior_sweep,
    sample_trajectory,
)
from .game_model import (
    EXPECTATION,
    Aggregator,
    CostDistribution,
    Edge,
    GameSpec,
    PublicHistory,
    Trajectory,
    as_fraction,
    effective_action,
    path_criterion,
    step,
    validate_spec,
    with_prior,
)
from .risk_measures import (
    AxiomReport,
    EmpiricalOutcome,
    RiskParameter,
    axiom_probe,
    cvar_aggregate,
    disutility_criterion,
    mean_variance_criterion,
    mean_variance_of_outcomes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
