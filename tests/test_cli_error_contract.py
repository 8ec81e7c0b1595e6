"""The command line's error contract under malformed scenario files.

Whatever a scenario file holds, ``riskgames`` either succeeds or exits 1
with exactly one stderr line ``error: <Name>Error: <message>``; it never
lets an exception escape. The scenarios here are the bundled ``graph_a``
with some of its values swapped for JSON of the wrong type or for
out-of-range numbers, or for a huge but valid horizon, which must print
what a short one prints.
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskgames import cli_bench
from riskgames.cli_bench import load_scenario, main, scenario_to_dict

BASE = scenario_to_dict(load_scenario("graph_a"))

COMMANDS = (["solve"], ["verify"], ["baselines"], ["paths"], ["sweep", "--grid", "2"])

ERROR_LINE = re.compile(r"error: [A-Za-z]+Error: .*\n")

# JSON values of every kind; the huge ones overflow a float, or a float sum
HUGE_FLOATS = st.sampled_from([1e308, -1e308, 1.7976931348623157e308])
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    st.integers(-(10**6), -1),
    st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
    HUGE_FLOATS,
)
WITH_HUGE_INTS = st.one_of(VALUES, st.sampled_from([10**400, -(10**400)]))

# (where, value): a top-level key, the horizon more often, or one field of an
# edge or a terminal
MUTATIONS = st.one_of(
    st.tuples(st.tuples(st.sampled_from(sorted(set(BASE) - {"horizon"}))), WITH_HUGE_INTS),
    st.tuples(st.just(("horizon",)), WITH_HUGE_INTS),
    st.tuples(
        st.tuples(
            st.just("edges"),
            st.integers(0, len(BASE["edges"]) - 1),
            st.sampled_from(["from", "to", "dir", "mean", "var"]),
        ),
        WITH_HUGE_INTS,
    ),
    st.tuples(
        st.tuples(
            st.just("terminals"), st.sampled_from(sorted(BASE["terminals"])), st.sampled_from(["mean", "var"])
        ),
        WITH_HUGE_INTS,
    ),
)


def _mutated(mutations) -> dict:
    data = copy.deepcopy(BASE)
    # fields first, so that replacing a whole top-level value comes last
    for place, value in sorted(mutations, key=lambda m: -len(m[0])):
        target = data
        for key in place[:-1]:
            target = target[key]
        target[place[-1]] = value
    return data


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
# exact criteria beyond the float range print as -inf
@example(mutations=[(("edges", 0, "mean"), -1e308), (("edges", 1, "mean"), -1e308)])
# an integer too large for a float is not a finite number
@example(mutations=[(("q_h",), 10**400)])
@example(mutations=[(("terminals", "8", "var"), 10**400)])
# huge horizons: every period loop stops once its tables stop changing,
# or, around a cycle (here 3 -> 4 -> 6 -> 3 of negative cost), hits the state guard
@example(mutations=[(("horizon",), 10**400)])
@example(mutations=[(("horizon",), 10**400), (("edges", 4, "to"), "3"), (("edges", 4, "mean"), -1000)])
def test_cli_never_raises_on_a_mutated_scenario(mutations, tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(_mutated(mutations)))
    for argv in COMMANDS:
        rc = main(["--scenario", str(path), *argv])
        err = capsys.readouterr().err
        if rc == 0:
            assert err == "", (argv, mutations)
        else:
            assert rc == 1 and ERROR_LINE.fullmatch(err), (argv, mutations, err)


HUGE_HORIZON_COMMANDS = (
    *COMMANDS,
    ["baselines", "--neutral-with-overrides"],
    ["--aggregator", "cvar:0.5", "solve"],
)


@pytest.mark.parametrize("argv", HUGE_HORIZON_COMMANDS, ids=" ".join)
def test_huge_horizon_prints_what_horizon_10_prints(argv, tmp_path, capsys):
    # graph_a is acyclic: no route or belief state outlives its longest path
    outputs = []
    for horizon in (10, 10**400):
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps({**BASE, "horizon": horizon}))
        assert main(["--scenario", str(path), *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def _assert_one_error_line(rc, capsys):
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert ERROR_LINE.fullmatch(captured.err), captured.err


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("kind", ["directory", "not_utf8", "deep_array"])
def test_unreadable_scenario_ends_in_one_error_line(kind, argv, tmp_path, capsys):
    # a directory, bytes that are not UTF-8, or an array nested past any recursion limit
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    _assert_one_error_line(main(["--scenario", str(path), *argv]), capsys)


@pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing_dir", "directory"])
def test_unwritable_sweep_out_ends_in_one_error_line(out, tmp_path, capsys):
    rc = main(["--scenario", "graph_a", "sweep", "--out", str(tmp_path / out)])
    _assert_one_error_line(rc, capsys)
    assert not (tmp_path / "missing").exists()


FULL = Path("/dev/full")  # every write to it fails with "No space left on device"


@pytest.mark.skipif(not FULL.exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv, error", [(argv, "OSError") for argv in COMMANDS] + [(["sweep", "--out", str(FULL)], "SweepFlagError")],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_failed_output_write_ends_in_one_error_line(argv, error):
    # stdout on a full device, or a sweep's --out file on one: the write or
    # the close fails after the command ran, and the interpreter's exit flush
    # must not print a second report
    src = str(Path(cli_bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(FULL, "w") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "riskgames.cli_bench", "--scenario", "graph_a", *argv],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        )
    assert done.returncode == 1 and ERROR_LINE.fullmatch(done.stderr), done.stderr
    assert done.stderr.startswith(f"error: {error}: "), done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
