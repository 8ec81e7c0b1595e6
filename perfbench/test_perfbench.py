"""The benchmark's own tests: deterministic counters asserted exactly.

Timings are recorded by run.py and never asserted here.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import counters  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from riskgames import cli_bench, coordinator_solver  # noqa: E402


def traced_iteration(workload, seed, workdir):
    """One traced set-up plus pass: its tracer, pass and the problems found."""
    sources = workloads.write_scenarios(workload, seed, workdir)
    tracer = tracing.Tracer(keep=counters.KEPT)
    scenarios, p = harness.traced_iteration(tracer, 0, workload, sources)
    problems = workloads.check_pass(workload, seed, scenarios, p, workloads.load_reference())
    return tracer, p, problems


@pytest.mark.parametrize("name,states,space", [("graph_a", 22, 82), ("graph_b", 64, 688)])
def test_bundled_scenario_counters(name, states, space):
    spec = cli_bench.load_scenario(name).spec
    policy = coordinator_solver.solve_dp(spec)
    assert len(policy.value) == states
    assert counters.prescription_space(spec, policy) == space


def test_graph_a_root_value_anchor():
    policy = coordinator_solver.solve_dp(cli_bench.load_scenario("graph_a").spec)
    assert policy.value[policy.root] == Fraction("37.25")


@pytest.mark.parametrize("workload,seed,expected", [
    ("types_ladder", workloads.DEFAULT_SEED,
     {"coordinator_solver.states": 568, "coordinator_solver.prescription_space": 60222}),
    ("lattice", workloads.DEFAULT_SEED,
     {"coordinator_solver.states": 2266, "coordinator_solver.prescription_space": 87922}),
    ("lattice", 7,
     {"coordinator_solver.states": 2266, "coordinator_solver.prescription_space": 87922}),
    ("regret_sweep", workloads.DEFAULT_SEED,
     {"evaluation.grid_points": 210}),
    ("cvar_enum", workloads.DEFAULT_SEED,
     {"coordinator_solver.policy_count": 32256, "coordinator_solver.optimal_policies": 168}),
])
def test_workload_counters_and_checks(workload, seed, expected, tmp_path):
    tracer, p, problems = traced_iteration(workload, seed, tmp_path)
    assert problems == {}
    counts = counters.iteration_counters(tracer.kept)
    assert {k: counts[k] for k in expected} == expected
    _, calls, self_time = tracer.totals()
    if workload == "regret_sweep":
        assert calls["coordinator_solver.solve_dp"] == 210
    if workload == "cvar_enum":
        assert calls["coordinator_solver.brute_force_oracle"] == 1
        assert p.results["solve"].result.value == 40
    # layer self times plus the unattributed rest add up to the iteration
    (root,) = [s for s in tracer.spans if s[0] == tracing.ROOT_SPAN]
    assert sum(self_time.values()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_reference_mismatch_is_reported(tmp_path):
    scenarios = workloads.setup("types_ladder", workloads.DEFAULT_SEED, tmp_path)
    p = workloads.run_pass(workloads.operations("types_ladder", scenarios))
    reference = workloads.load_reference()
    reference["types_ladder"]["solve"] = dict(reference["types_ladder"]["solve"], root_value="0")
    problems = workloads.check_pass("types_ladder", workloads.DEFAULT_SEED, scenarios, p, reference)
    assert list(problems) == ["solve"]


def test_tracer_restores_every_attribute():
    import riskgames

    before = {m: dict(vars(getattr(riskgames, m))) for m in tracing.MODULES}
    tables = {a: riskgames.game_model.GameSpec.__dict__[a] for a in tracing.TABLES}
    tracer = tracing.Tracer()
    tracer.install()
    assert "riskgames.evaluation.solve_dp" in tracer.wrapped
    assert "riskgames.coordinator_solver.bayes_update" in tracer.wrapped
    assert "riskgames.coordinator_solver.cvar_aggregate" in tracer.wrapped
    tracer.uninstall()
    assert {m: dict(vars(getattr(riskgames, m))) for m in tracing.MODULES} == before
    assert {a: riskgames.game_model.GameSpec.__dict__[a] for a in tracing.TABLES} == tables
