import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_diamond
from instance_gen import skip_chain
from riskgames import cli_bench
from riskgames.cli_bench import (
    CSV_HEADER,
    ScenarioFile,
    load_scenario,
    main,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from riskgames.coordinator_solver import CheckResult, EquilibriumReport
from riskgames.errors import ScenarioError


def test_load_bundled_graph_a():
    sc = load_scenario("graph_a")
    assert len(sc.spec.nodes) == 8
    assert sc.spec.types == (0.01, 0.05)
    assert sc.spec.start_node == "1"
    assert sc.sweep_axis == 1 and len(sc.sweep_grid) == 21


def test_load_bundled_graph_b():
    sc = load_scenario("graph_b")
    assert sc.spec.types == (0.01, 0.1, 0.2)
    assert len(sc.spec.terminals) == 3


def test_load_reports_all_violations(tmp_path):
    data = scenario_to_dict(load_scenario("graph_a"))
    data["prior"] = [0.5, 0.4]
    data["types"] = [0.05, 0.01]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    text = str(err.value)
    assert "prior does not sum to 1" in text
    assert "strictly increasing" in text


def test_load_rejects_non_finite_numbers(tmp_path):
    data = scenario_to_dict(load_scenario("graph_a"))
    data["edges"][0]["mean"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data))  # json emits bare Infinity
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "finite" in str(err.value)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "line" in str(err.value)


def test_load_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario")


def test_scenario_round_trip(tmp_path):
    original = load_scenario("graph_b")
    path = tmp_path / "copy.json"
    save_scenario(original, path)
    again = load_scenario(path)
    assert again == original


def test_scenario_rejects_unknown_keys():
    data = scenario_to_dict(load_scenario("graph_a"))
    data["typo"] = 1
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "unknown top-level keys" in str(err.value)


def test_cli_solve_graph_a(capsys):
    rc = main(["--scenario", "graph_a", "solve"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "root value: 37.25" in out
    assert "period 3 -> S" in out


def test_cli_baselines_reports_theta_bar(capsys):
    rc = main(["--scenario", "graph_b", "baselines"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theta_bar: 0.103333333333" in out
    assert "best_case:" in out and "neutral:" in out and "average:" in out


def test_cli_baselines_override_variant(capsys):
    rc = main(["--scenario", "graph_a", "baselines", "--neutral-with-overrides"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "neutral (with overrides)" in out


def test_cli_verify_graph_a(capsys):
    rc = main(["--scenario", "graph_a", "verify"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in ("machine_ic: PASS", "human_ic: PASS", "belief_consistency: PASS"):
        assert line in out


def test_cli_verify_graph_b(capsys):
    rc = main(["--scenario", "graph_b", "verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3


def test_cli_sweep_csv_rederivable(tmp_path):
    # regret columns must re-derive from a fresh computation of the same run
    from riskgames.cli_bench import fmt
    from riskgames.evaluation import prior_sweep

    out = tmp_path / "axis2.csv"
    assert main(["--scenario", "graph_b", "sweep", "--axis", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    rows = prior_sweep(load_scenario("graph_b").spec, 1)
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        want = ",".join(
            fmt(v) for v in (row.sweep_value, row.regret_hm, row.regret_ma, row.regret_mn, row.bcp)
        )
        assert line == want


def test_cli_verify_budget_error(capsys):
    rc = main(["--scenario", "graph_a", "verify", "--budget", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: DeviationBudgetError" in err


def test_cli_sweep_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--scenario", "graph_b", "sweep", "--axis", "1", "--out", str(out1)]) == 0
    assert main(["--scenario", "graph_b", "sweep", "--axis", "1", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len([l for l in lines if l]) == 22  # header + 21 grid rows
    assert "\r" not in text


def test_cli_sweep_axis_out_of_range(capsys):
    rc = main(["--scenario", "graph_b", "sweep", "--axis", "9"])
    assert rc == 1
    assert capsys.readouterr().err == "error: SweepFlagError: --axis 9 out of range for 3 types\n"


def test_cli_sweep_grid_too_small(capsys):
    rc = main(["--scenario", "graph_b", "sweep", "--grid", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: SweepFlagError: --grid 1: a sweep needs at least 2 grid points\n"


def test_cli_verify_failure_is_one_line_error(monkeypatch, capsys):
    def failing_report(spec, policy, deviation_budget):
        ok = CheckResult("machine_ic", True, "no improving machine deviation")
        bad = CheckResult("belief_consistency", False, "first inconsistent step: made up")
        return EquilibriumReport(machine_ic=ok, human_ic=ok, belief_consistency=bad, per_type=())

    monkeypatch.setattr(cli_bench, "verify_equilibrium", failing_report)
    rc = main(["--scenario", "graph_a", "verify"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "belief_consistency: FAIL\n  first inconsistent step: made up" in captured.out
    assert captured.err == (
        "error: EquilibriumVerificationError: the solved policy fails belief_consistency\n"
    )


def test_cli_sweep_custom_grid_to_stdout(capsys):
    rc = main(["--scenario", "graph_b", "sweep", "--axis", "3", "--grid", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = [l for l in captured.out.split("\n") if l]
    assert rows[0] == CSV_HEADER
    assert len(rows) == 6
    assert rows[1].startswith("0,")
    assert rows[-1].startswith("1,")


def test_cli_paths_table(capsys):
    rc = main(["--scenario", "graph_b", "paths"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("route\tmean\tvariance")
    assert "optimal@0.01" in out


def test_cli_missing_scenario_is_one_line_error(capsys):
    rc = main(["--scenario", "missing.json", "solve"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ScenarioError")
    assert captured.err.count("\n") == 1


def test_cli_cvar_solve_routes_through_enumeration(tmp_path, capsys):
    sc = ScenarioFile(
        spec=make_diamond(0.0), sweep_axis=1, sweep_grid=(0.0, 0.5, 1.0), seed=1
    )
    path = tmp_path / "diamond.json"
    save_scenario(sc, path)
    rc = main(["--scenario", str(path), "--aggregator", "cvar:0.9", "solve"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "via policy enumeration" in out
    assert "root value: 7" in out
    assert "type 0" in out and "type 1" in out and "route" in out


def test_cli_cvar_sweep_rejected(tmp_path, capsys):
    sc = ScenarioFile(
        spec=make_diamond(0.0), sweep_axis=1, sweep_grid=(0.0, 0.5, 1.0), seed=1
    )
    path = tmp_path / "diamond.json"
    save_scenario(sc, path)
    rc = main(["--scenario", str(path), "--aggregator", "cvar:0.9", "sweep"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: UnsupportedAggregatorError" in err


def test_cli_bad_aggregator_flag(capsys):
    rc = main(["--scenario", "graph_a", "--aggregator", "var:0.9", "solve"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: AggregatorFlagError: --aggregator 'var:0.9'")
    assert err.count("\n") == 1


def test_cli_cvar_flag_with_non_numeric_level(capsys):
    rc = main(["--scenario", "graph_a", "--aggregator", "cvar:abc", "solve"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: AggregatorFlagError: --aggregator 'cvar:abc'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "key,value,problem",
    [
        ("nodes", 5, "nodes must be a JSON array, got 5"),
        ("edges", None, "edges must be a JSON array, got None"),
        ("terminals", [], "terminals must be a JSON object, got []"),
    ],
)
def test_cli_malformed_scenario_is_one_line_error(key, value, problem, tmp_path, capsys):
    data = scenario_to_dict(load_scenario("graph_a"))
    data[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    rc = main(["--scenario", str(path), "solve"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ScenarioError: ")
    assert problem in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "mutate,problem",
    [
        pytest.param(lambda d: [d], "scenario root must be a JSON object", id="root-not-an-object"),
        pytest.param(
            lambda d: {k: v for k, v in d.items() if k not in ("q_h", "seed")},
            "missing required keys ['q_h', 'seed']",
            id="missing-keys",
        ),
        pytest.param(
            lambda d: {**d, "aggregator": {"cvar": "x"}}, "aggregator cvar level 'x' is not a number", id="cvar-level"
        ),
        pytest.param(
            # a level is a JSON number, as every other number in the file
            lambda d: {**d, "aggregator": {"cvar": "0.5"}}, "aggregator cvar level '0.5' is not a number",
            id="cvar-level-string",
        ),
        pytest.param(
            lambda d: {**d, "aggregator": {"cvar": True}}, "aggregator cvar level True is not a number",
            id="cvar-level-bool",
        ),
        pytest.param(
            lambda d: {**d, "edges": [{**d["edges"][0], "var": -1}, *d["edges"][1:]]},
            "edges[0].var is negative",
            id="negative-edge-var",
        ),
        pytest.param(
            lambda d: {**d, "terminals": {**d["terminals"], "7": {"mean": 0}}},
            "terminals['7'] must have exactly mean/var",
            id="malformed-terminal",
        ),
        pytest.param(lambda d: {**d, "seed": 1.5}, "seed must be an integer, got 1.5", id="seed-not-an-integer"),
        pytest.param(lambda d: {**d, "sweep": [1]}, "sweep must have exactly axis/grid", id="sweep-shape"),
        pytest.param(
            lambda d: {**d, "sweep": {**d["sweep"], "axis": 0}},
            "sweep.axis must be a 1-based type index, got 0",
            id="sweep-axis",
        ),
        pytest.param(
            lambda d: {**d, "sweep": {**d["sweep"], "grid": [0.5, 1.5]}},
            "sweep.grid values must lie in [0, 1]",
            id="sweep-grid-outside-unit-interval",
        ),
    ],
)
def test_cli_loader_problem_is_one_exact_line(mutate, problem, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(scenario_to_dict(load_scenario("graph_a")))))
    assert main(["--scenario", str(path), "solve"]) == 1
    assert capsys.readouterr() == ("", f"error: ScenarioError: {path}: {problem}\n")


def test_cli_expectation_flag_overrides_a_cvar_scenario(tmp_path, capsys):
    data = scenario_to_dict(load_scenario("graph_a"))
    data["aggregator"] = {"cvar": 0.5}
    path = tmp_path / "cvar.json"
    path.write_text(json.dumps(data))
    assert main(["--scenario", str(path), "--aggregator", "expectation", "solve"]) == 0
    golden = Path(__file__).with_name("golden") / "graph_a_solve.txt"
    assert capsys.readouterr() == (golden.read_text(encoding="utf-8"), "")


def _cycle_scenario(tmp_path, horizon=3000, extra_edges=(), mean=1, var=2) -> str:
    """A 3-node cycle (plus ``extra_edges``), by default over 3000 periods, far beyond the recursion limit."""
    data = {
        "nodes": ["1", "2", "3"],
        "edges": [
            {"from": src, "to": dst, "dir": d, "mean": mean, "var": var}
            for src, dst, d in (("1", "2", "E"), ("2", "3", "E"), ("3", "1", "S"), *extra_edges)
        ],
        "terminals": {"3": {"mean": 0, "var": 0}},
        "start": "1",
        "horizon": horizon,
        "types": [0.01, 0.5],
        "prior": [0.5, 0.5],
        "q_h": 0.5,
        "aggregator": "expectation",
        "sweep": {"axis": 1, "grid": [0.0, 1.0]},
        "seed": 0,
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_long_horizon_cycle_solves_and_verifies(tmp_path, capsys):
    # periods nest one level per step, so the horizon must not reach the
    # interpreter's recursion limit
    path = _cycle_scenario(tmp_path)
    assert main(["--scenario", path, "solve"]) == 0
    assert "root value: 3.02" in capsys.readouterr().out
    assert main(["--scenario", path, "verify"]) == 0
    captured = capsys.readouterr()
    assert "machine_ic: PASS" in captured.out and "human_ic: PASS" in captured.out
    assert captured.err == ""


def test_cli_long_horizon_cycle_cvar_hits_enumeration_guard(tmp_path, capsys):
    # the policy count, thousands of digits long, is reached period by
    # period before the guard stops the enumeration; an edge back from node
    # 2 makes 26,971 belief states, still under the state guard
    for extra_edges, bits in (((), 7169), ([("2", "1", "W")], 10507)):
        path = _cycle_scenario(tmp_path, extra_edges=extra_edges)
        rc = main(["--scenario", path, "--aggregator", "cvar:0.5", "solve"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: EnumerationGuardError: at least 2^{bits} candidate policies exceed "
            "the enumeration guard of 10000000\n"
        )


def test_cli_long_horizon_cycle_baselines_with_overrides(tmp_path, capsys):
    # the neutral machine and the rider's response are planned period by
    # period, so a 3000-period horizon does not nest calls
    path = _cycle_scenario(tmp_path)
    rc = main(["--scenario", path, "baselines", "--neutral-with-overrides"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "neutral (with overrides): type 0: 2.04, type 1: 4 | weighted 3.02 | regret 0" in (
        captured.out.splitlines()
    )


def test_cli_long_horizon_cycle_sweep_with_overrides(tmp_path, capsys):
    path = _cycle_scenario(tmp_path)
    rc = main(["--scenario", path, "sweep", "--neutral-with-overrides"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert captured.out.splitlines() == [CSV_HEADER, "0,0,0,0,4", "1,0,0,0,2.04"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["verify"],
        ["sweep", "--grid", "2"],
        ["sweep", "--grid", "2", "--neutral-with-overrides"],
        ["--aggregator", "cvar:0.5", "solve"],
    ],
    ids=" ".join,
)
def test_cli_huge_horizon_cycle_hits_the_state_guard(argv, tmp_path, capsys):
    # the belief states of a cycle grow with the horizon: past period |V|
    # their projection to a horizon of 10**400 passes the guard at once
    path = _cycle_scenario(tmp_path, horizon=10**400, extra_edges=[("2", "1", "W")])
    rc = main(["--scenario", path, *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: EnumerationGuardError: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [["paths"], ["baselines"], ["baselines", "--neutral-with-overrides"], ["sweep", "--grid", "2"]],
    ids=" ".join,
)
def test_cli_huge_horizon_negative_cycle_hits_the_state_guard(argv, tmp_path, capsys):
    # around a negative-cost cycle the best route grows with the horizon, so
    # the baselines' induction never settles; 3 nodes times 3,000 periods pass
    # the guard, and the same cycle at 10**400 does not
    path = _cycle_scenario(tmp_path, mean=-1, var=0)
    assert main(["--scenario", path, *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv == ["baselines", "--neutral-with-overrides"]:
        assert "neutral (with overrides): type 0: -2999, type 1: -2999 | weighted -2999 | regret 0" in (
            captured.out.splitlines()
        )
    path = _cycle_scenario(tmp_path, horizon=10**400, mean=-1, var=0)
    rc = main(["--scenario", path, *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: EnumerationGuardError: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_cli_paths_of_a_20_node_chain_hit_the_step_guard(tmp_path, capsys):
    # millions of simple routes: the search stops at its step guard, before printing any
    path = tmp_path / "chain20.json"
    save_scenario(ScenarioFile(spec=skip_chain(20), sweep_axis=1, sweep_grid=(0.0, 1.0), seed=0), path)
    assert main(["--scenario", str(path), "paths"]) == 1
    assert capsys.readouterr() == (
        "", "error: EnumerationGuardError: path enumeration exceeds its guard of 250000 search steps\n"
    )


def test_cli_aggregator_flag_is_validated(capsys):
    rc = main(["--scenario", "graph_a", "--aggregator", "cvar:1.5", "solve"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: ScenarioError: cvar aggregator needs alpha in [0, 1), got 1.5\n"


def test_cli_route_that_stops_at_the_start_names_the_start(tmp_path, capsys):
    # a terminal at the start node, free to stop at: every planner's route is empty
    data = scenario_to_dict(load_scenario("graph_a"))
    data["terminals"]["1"] = {"mean": 0, "var": 0}
    path = tmp_path / "start_terminal.json"
    path.write_text(json.dumps(data))
    assert main(["--scenario", str(path), "baselines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "neutral: route 1 STOP | type 0: 0, type 1: 0 | weighted 0 | regret 0" in lines
    assert "average: route 1 STOP | type 0: 0, type 1: 0 | weighted 0 | regret 0" in lines
    assert main(["--scenario", str(path), "paths"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "optimal@0.01: 1 STOP criterion 0" in lines
    assert "optimal@0.05: 1 STOP criterion 0" in lines
    assert main(["--scenario", str(path), "solve"]) == 0
    assert "type 0 (theta=0.01): route 1 STOP | overrides: none | criterion 0" in (
        capsys.readouterr().out.splitlines()
    )


def test_importing_the_cli_leaves_numpy_unloaded():
    # only the Monte Carlo evaluator needs numpy, and every command pays for an import
    src = str(Path(cli_bench.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = "import sys, riskgames.cli_bench; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def test_cli_stdout_closed_early_exits_without_traceback():
    # as in `riskgames ... sweep | head -1`: the reader closes the pipe before
    # the CSV is written; the CSV is larger than a pipe buffer, so the write
    # meets the closed pipe however fast the sweep runs
    src = str(Path(cli_bench.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["--scenario", "graph_a", "sweep", "--grid", "1000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "riskgames.cli_bench", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() != 0
    assert "Traceback" not in err and "Exception ignored" not in err, err
