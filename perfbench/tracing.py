"""Span tracing from outside the program.

The traced run swaps each timed public function of the ``riskgames``
modules for a wrapper on every module attribute that holds it, which is
where callers look it up (``riskgames.evaluation.solve_dp``,
``riskgames.coordinator_solver.bayes_update``, ...). Each call inside an
iteration records a span (name, start, end, parent, iteration) in memory;
spans are written out when the run ends. A layer is the module part of a
span's name; the benchmark's own root span is the ``bench`` layer, whose
self time is the time no wrapped function accounts for.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter

import riskgames

MODULES = (
    "cli_bench",
    "game_model",
    "belief_filter",
    "coordinator_solver",
    "baseline_planners",
    "evaluation",
    "risk_measures",
)

# module -> public functions timed in that module
TIMED = {
    "cli_bench": ("load_scenario", "scenario_from_dict", "write_regret_csv"),
    "game_model": ("validate_spec", "with_prior"),
    "belief_filter": ("bayes_update",),
    "coordinator_solver": (
        "solve_dp",
        "simulate_type",
        "verify_equilibrium",
        "brute_force_oracle",
        "evaluate_policy_tree",
        "tree_playout",
    ),
    "baseline_planners": (
        "average_theta",
        "best_case_value",
        "baseline_policy",
        "neutral_override_plan",
        "risk_adjusted_shortest_path",
    ),
    "evaluation": ("prior_sweep", "evaluate_policy", "evaluate_policy_exact"),
    "risk_measures": ("cvar_aggregate",),
}

# GameSpec's lazily built engine tables, timed as one span name
TABLES = ("out_edges", "steps_to_terminal")
TABLES_SPAN = "game_model.tables"

ROOT_SPAN = "bench.iteration"


class Tracer:
    def __init__(self, keep: tuple[str, ...] = ()):
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.kept: dict[str, list] = defaultdict(list)  # span name -> [(args, result)]
        self.wrapped: list[str] = []
        self._keep = set(keep)
        self._stack: list[int] = []
        self._iteration: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def _wrap(self, fn, name: str):
        spans, stack, kept, keep = self.spans, self._stack, self.kept, name in self._keep

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._iteration])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if keep:
                kept[name].append((args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def iteration(self, number: int):
        """Root span of one iteration; install() must bracket it."""
        self._iteration = number
        idx = len(self.spans)
        self.spans.append([ROOT_SPAN, 0.0, 0.0, None, number])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]
            self._iteration = None

    # -- installing

    def install(self) -> None:
        self.wrapped = []
        modules = [riskgames] + [importlib.import_module(f"riskgames.{m}") for m in MODULES]
        for home, names in TIMED.items():
            origin = importlib.import_module(f"riskgames.{home}")
            for fname in names:
                fn = getattr(origin, fname)
                wrapper = self._wrap(fn, f"{home}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapper)
                            self.wrapped.append(f"{mod.__name__}.{attr}")
        spec_cls = riskgames.game_model.GameSpec
        for attr in TABLES:
            prop = spec_cls.__dict__[attr]
            timed = cached_property(self._wrap(prop.func, TABLES_SPAN))
            timed.__set_name__(spec_cls, attr)
            self._set(spec_cls, attr, timed)
            self.wrapped.append(f"riskgames.game_model.GameSpec.{attr}")

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds and calls per span name, and self seconds per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += end - start - children
        return inclusive, calls, self_time

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name\tstart\tend\tparent\titeration\n")
            for name, start, end, parent, it in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{'' if parent is None else parent}\t{it}\n")
