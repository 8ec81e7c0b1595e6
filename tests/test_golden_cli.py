"""Byte-for-byte CLI output on the bundled scenarios.

Each file under ``tests/golden/`` holds the standard output of one
``riskgames`` command; a change that alters any of it, down to a digit or
a tie-broken route, fails here.
"""

from pathlib import Path

import pytest

from riskgames.cli_bench import main

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = {
    "solve": ["solve"],
    "verify": ["verify"],
    "paths": ["paths"],
    "baselines": ["baselines"],
    "baselines_overrides": ["baselines", "--neutral-with-overrides"],
    "sweep": ["sweep"],
    "sweep_overrides": ["sweep", "--neutral-with-overrides"],
}

CASES = [
    (f"{scenario}_{name}", ["--scenario", scenario, *argv])
    for scenario in ("graph_a", "graph_b")
    for name, argv in COMMANDS.items()
] + [
    ("graph_a_cvar_solve", ["--scenario", "graph_a", "--aggregator", "cvar:0.5", "solve"]),
    ("graph_a_cvar09_solve", ["--scenario", "graph_a", "--aggregator", "cvar:0.9", "solve"]),
    ("graph_b_cvar_solve", ["--scenario", "graph_b", "--aggregator", "cvar:0.5", "solve"]),
    (
        "graph_b_cvar_baselines_overrides",
        ["--scenario", "graph_b", "--aggregator", "cvar:0.5", "baselines", "--neutral-with-overrides"],
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
