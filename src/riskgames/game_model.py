"""Domain model for risk-sensitive routing games on directed graphs.

A machine drives along direction-labeled edges toward a terminal while a
human rider, whose risk attitude is private, watches and may override any
single move for a fixed signalling fee. Edge costs are random, independent
across edges, and summarized by (mean, variance); the rider prices a route
as mean plus a type-specific multiple of variance.

All criterion arithmetic is done on exact rationals derived from the
decimal reading of the inputs (see :func:`as_fraction`), so planners,
solvers and oracles can be compared with zero tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import IllegalMoveError, PathError, SpecValidationError

Number = Union[int, float, Fraction]

DIRECTIONS = ("N", "S", "E", "W")
STOP = "STOP"
SILENT = "SILENT"
MACHINE_ACTIONS = ("N", "S", "E", "W", "STOP")
HUMAN_ACTIONS = ("SILENT", "N", "S", "E", "W", "STOP")

PRIOR_TOLERANCE = 1e-12

_DIR_RANK = {d: i for i, d in enumerate(MACHINE_ACTIONS)}


def as_fraction(x: Number) -> Fraction:
    """Exact rational for a numeric input.

    Floats go through their shortest round-trip decimal repr, so 0.05
    becomes exactly 1/20 rather than the binary double it is stored as.
    This keeps criterion arithmetic faithful to the decimal constants
    that appear in scenario files.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite value {x!r} to a rational")
        return Fraction(repr(x))
    return Fraction(x)


def as_float(x: Number) -> float:
    """``float(x)``, or an infinity of x's sign where x lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def theta_of(theta) -> Fraction:
    """Coerce a risk-aversion coefficient (bare number or RiskParameter) to Fraction."""
    return as_fraction(getattr(theta, "theta", theta))


@dataclass(frozen=True)
class CostDistribution:
    """A scalar random cost summarized by its first two moments.

    Sums of independent costs add means and add variances; that additivity
    is the only distributional fact the exact planners rely on.
    """

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError(f"cost moments must be finite, got ({self.mean}, {self.variance})")
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")

    def shifted(self, amount: Number) -> "CostDistribution":
        """Add a deterministic amount: the mean moves, the variance does not."""
        return CostDistribution(self.mean + amount, self.variance)

    # computed on first read and kept in the instance dict, which equality,
    # hashing and repr (all over the two fields) never look at
    @cached_property
    def exact_mean(self) -> Fraction:
        return as_fraction(self.mean)

    @cached_property
    def exact_variance(self) -> Fraction:
        return as_fraction(self.variance)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    direction: str
    cost: CostDistribution


@dataclass(frozen=True)
class Aggregator:
    """How the machine collapses the per-type criteria into a single number."""

    kind: str
    alpha: float | None = None

    @classmethod
    def expectation(cls) -> "Aggregator":
        return cls("expectation")

    @classmethod
    def cvar(cls, alpha: float) -> "Aggregator":
        return cls("cvar", alpha)


EXPECTATION = Aggregator.expectation()


# GameSpec's cached tables that read no prior weight; with_prior's copy shares them
PRIOR_FREE_TABLES = ("out_edges", "predecessors", "exact_transmission_cost", "exact_types",
                     "integer_costs", "steps_to_terminal", "layer_memo")


@dataclass(frozen=True)
class GameSpec:
    """The full game tuple instantiated on a directed graph.

    Frozen: a changed spec is a new one (``dataclasses.replace``), which
    shares no table with its source. The engine tables and the verdict
    ``violations`` are computed on first read and kept in the instance
    dict; a :func:`with_prior` copy shares those in :data:`PRIOR_FREE_TABLES`
    and parses its own prior and verdict. All reader methods
    are pure, so a spec may be shared freely across threads.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    terminals: dict[str, CostDistribution]
    start_node: str
    horizon_T: int
    types: tuple[float, ...]
    prior: tuple[float, ...]
    transmission_cost: float = 0.0
    machine_aggregator: Aggregator = EXPECTATION

    @cached_property
    def out_edges(self) -> dict[str, dict[str, Edge]]:
        """direction -> Edge per node, directions in canonical order."""
        table: dict[str, dict[str, Edge]] = {n: {} for n in self.nodes}
        by_node: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.src in by_node:
                by_node[e.src].append(e)
        for node, out in by_node.items():
            out.sort(key=lambda e: _DIR_RANK.get(e.direction, 99))
            table[node] = {e.direction: e for e in out}
        return table

    @cached_property
    def predecessors(self) -> dict[str, list[str]]:
        """Each node's edge sources, one per edge into it; edges whose ends
        are not nodes are skipped, as this may be read before validation."""
        table: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.src in table and e.dst in table:
                table[e.dst].append(e.src)
        return table

    @cached_property
    def exact_transmission_cost(self) -> Fraction:
        """The signalling fee as an exact rational (see :func:`as_fraction`)."""
        return as_fraction(self.transmission_cost)

    @cached_property
    def exact_types(self) -> tuple[Fraction, ...]:
        """Each type's risk parameter as an exact rational, in type order."""
        return tuple(as_fraction(th) for th in self.types)

    @cached_property
    def integer_costs(self) -> tuple[int, int, dict[tuple[str, str], tuple[int, int]]]:
        """(denominator, fee, moments): the fee and each move's (mean, variance)
        as integers over one common denominator. Moves are keyed (node,
        direction) for edges and (node, STOP) for terminals."""
        costs = {(node, d): e.cost for node, out in self.out_edges.items() for d, e in out.items()}
        costs.update(((node, STOP), cost) for node, cost in self.terminals.items())
        q = self.exact_transmission_cost
        den = math.lcm(q.denominator, *(x.denominator for c in costs.values()
                                        for x in (c.exact_mean, c.exact_variance)))
        moments = {key: (c.exact_mean.numerator * (den // c.exact_mean.denominator),
                         c.exact_variance.numerator * (den // c.exact_variance.denominator))
                   for key, c in costs.items()}
        return den, q.numerator * (den // q.denominator), moments

    @cached_property
    def steps_to_terminal(self) -> dict[str, int]:
        """Minimum number of moves from each node to some terminal (BFS)."""
        dist = {n: math.inf for n in self.nodes}
        queue = deque()
        for t in self.terminals:
            if t in dist:
                dist[t] = 0
                queue.append(t)
        while queue:
            v = queue.popleft()
            for u in self.predecessors[v]:
                if dist[u] == math.inf:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every problem :func:`validate_spec` finds, checked once per spec object."""
        return tuple(validate_spec(self))

    @cached_property
    def layer_memo(self) -> dict:
        """The solver's period layers per prior support, filled by
        ``coordinator_solver._Engine.layers``: they read no prior weight."""
        return {}

    def is_terminal(self, node: str) -> bool:
        return node in self.terminals

    def machine_moves(self, node: str) -> tuple[str, ...]:
        """Legal machine actions at a node, in canonical tie-break order."""
        moves = list(self.out_edges.get(node, {}))
        if self.is_terminal(node):
            moves.append(STOP)
        return tuple(moves)

    def human_moves(self, node: str) -> tuple[str, ...]:
        """Legal human actions at a node: staying silent is always allowed."""
        return (SILENT,) + self.machine_moves(node)

    def positive_support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.prior) if w > 0)

    @cached_property
    def _exact_prior(self) -> dict[int, Fraction]:
        return {i: as_fraction(w) for i, w in enumerate(self.prior) if w > 0}

    def exact_prior(self) -> dict[int, Fraction]:
        """Positive-prior weights as exact rationals, parsed once; a fresh dict per call."""
        return dict(self._exact_prior)


@dataclass(frozen=True)
class PublicHistory:
    """What both sides observe: visited states plus both action streams."""

    steps: tuple[tuple[str, str, str], ...]  # (node, human action, machine action)
    current: str


@dataclass(frozen=True)
class Trajectory:
    """One sampled playout: the public history plus realized per-step costs."""

    history: PublicHistory
    step_costs: tuple[float, ...]
    terminal_cost: float
    total_cost: float


def effective_action(a_h: str, a_m: str, legal_moves: Iterable[str] | None = None) -> tuple[str, bool]:
    """Resolve the simultaneous action pair into the move that executes.

    A silent human delegates to the machine; any other signal replaces the
    machine's action and flags an override. When ``legal_moves`` is given,
    a non-silent signal outside it raises :class:`IllegalMoveError`.
    """
    if a_h == SILENT:
        return a_m, False
    if legal_moves is not None and a_h not in tuple(legal_moves):
        raise IllegalMoveError(f"human action {a_h!r} is not legal here")
    return a_h, True


def step(spec: GameSpec, node: str, a_h: str, a_m: str) -> tuple[str, CostDistribution, bool]:
    """Execute one period from ``node``: (next node, stage cost, override flag).

    An override shifts the stage-cost mean by the transmission fee; the fee
    is deterministic so it never touches the variance. STOP charges the
    terminal cost and leaves the position absorbing.
    """
    legal = spec.machine_moves(node)
    if a_m not in legal:
        raise IllegalMoveError(f"machine action {a_m!r} illegal at node {node!r}")
    if a_h not in spec.human_moves(node):
        raise IllegalMoveError(f"human action {a_h!r} illegal at node {node!r}")
    move, override = effective_action(a_h, a_m, legal)
    if move == STOP:
        next_node, cost = node, spec.terminals[node]
    else:
        edge = spec.out_edges[node][move]
        next_node, cost = edge.dst, edge.cost
    if override and spec.transmission_cost:
        cost = cost.shifted(spec.transmission_cost)
    return next_node, cost, override


def path_criterion(spec: GameSpec, path: Sequence[Edge], overrides: int, theta) -> Fraction:
    """Exact risk-adjusted cost of a start-to-terminal path.

    Mean part: edge means, terminal mean, plus the fee per override.
    Variance part: edge variances plus terminal variance, weighted by
    ``theta``. Exact because edge costs are independent. A PathError names
    a path that is not a start-to-terminal route with a period left for STOP.
    """
    if overrides < 0:
        raise ValueError("override count must be non-negative")
    t = theta_of(theta)
    if path:
        if path[0].src != spec.start_node:
            raise PathError(f"path starts at {path[0].src!r}, expected {spec.start_node!r}")
        for a, b in zip(path, path[1:]):
            if a.dst != b.src:
                raise PathError(f"path disconnected between {a.dst!r} and {b.src!r}")
        end = path[-1].dst
    else:
        end = spec.start_node
    if not spec.is_terminal(end):
        raise PathError(f"path ends at non-terminal node {end!r}")
    if len(path) + 1 > spec.horizon_T:
        raise PathError(f"path needs {len(path) + 1} periods, horizon is {spec.horizon_T}")
    mean = sum((e.cost.exact_mean for e in path), start=Fraction(0))
    var = sum((e.cost.exact_variance for e in path), start=Fraction(0))
    term = spec.terminals[end]
    mean += term.exact_mean + spec.exact_transmission_cost * overrides
    var += term.exact_variance
    return mean + t * var


def _finite(x) -> bool:
    """``math.isfinite(x)``, or False where x is no number or lies beyond the float range."""
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def validate_spec(spec: GameSpec) -> list[str]:
    """Check every GameSpec invariant; returns all violations, never raises."""
    problems: list[str] = []
    if not spec.nodes:
        problems.append("node set is empty")
    if len(set(spec.nodes)) != len(spec.nodes):
        problems.append("duplicate node ids")
    known = set(spec.nodes)
    if spec.start_node not in known:
        problems.append(f"start node {spec.start_node!r} not in node set")

    seen_dirs: set[tuple[str, str]] = set()
    for e in spec.edges:
        if e.src not in known or e.dst not in known:
            problems.append(f"edge {e.src!r}->{e.dst!r} references unknown node")
        if e.direction not in DIRECTIONS:
            problems.append(f"edge {e.src!r}->{e.dst!r} has invalid direction {e.direction!r}")
        if (e.src, e.direction) in seen_dirs:
            problems.append(f"duplicate direction {e.direction!r} among out-edges of node {e.src!r}")
        seen_dirs.add((e.src, e.direction))

    if not spec.terminals:
        problems.append("no terminal nodes declared")
    for t in spec.terminals:
        if t not in known:
            problems.append(f"terminal {t!r} not in node set")

    if not isinstance(spec.horizon_T, int) or spec.horizon_T < 1:
        problems.append(f"horizon must be a positive integer, got {spec.horizon_T!r}")

    if not spec.types:
        problems.append("type list is empty")
    for th in spec.types:
        if not _finite(th) or th < 0:
            problems.append(f"risk parameter {th!r} must be finite and non-negative")
    try:
        unordered = any(b <= a for a, b in zip(spec.types, spec.types[1:]))
    except TypeError:  # types that do not compare, each listed above
        unordered = False
    if unordered:
        problems.append("types must be strictly increasing and distinct")

    if len(spec.prior) != len(spec.types):
        problems.append(f"prior has {len(spec.prior)} weights for {len(spec.types)} types")
    if any(not _finite(w) or w < 0 for w in spec.prior):
        problems.append("prior weights must be finite and non-negative")
    elif spec.prior:
        total = math.fsum(spec.prior)
        if abs(total - 1.0) > PRIOR_TOLERANCE:
            problems.append(f"prior does not sum to 1 (got {total!r})")
        if not any(w > 0 for w in spec.prior):
            problems.append("prior has no positive weight")

    if not _finite(spec.transmission_cost) or spec.transmission_cost < 0:
        problems.append(f"transmission cost must be non-negative, got {spec.transmission_cost!r}")

    agg = spec.machine_aggregator
    if agg.kind not in ("expectation", "cvar"):
        problems.append(f"unknown machine aggregator {agg.kind!r}")
    elif agg.kind == "cvar" and not (_finite(agg.alpha) and 0 <= agg.alpha < 1):
        problems.append(f"cvar aggregator needs alpha in [0, 1), got {agg.alpha!r}")

    if spec.start_node in known and spec.terminals and not problems:
        dist = spec.steps_to_terminal.get(spec.start_node, math.inf)
        if dist + 1 > spec.horizon_T:
            problems.append(
                f"no terminal reachable from {spec.start_node!r} within horizon "
                f"{spec.horizon_T} (needs {dist} moves plus a STOP period)"
            )
    return problems


def require_valid(spec: GameSpec) -> None:
    """Raise :class:`SpecValidationError` with every problem in ``spec.violations``."""
    if spec.violations:
        raise SpecValidationError(spec.violations)


def with_prior(spec: GameSpec, prior: Sequence[float]) -> GameSpec:
    """Copy of a game spec with a replaced prior (used by sweeps and tests).

    The copy shares, as the same objects, the tables of
    :data:`PRIOR_FREE_TABLES` that the source has computed, and the
    source's ``layer_memo`` in any case, so that every copy of one source
    reuses the solver's layers; it parses its own prior.
    """
    copy = replace(spec, prior=tuple(float(w) for w in prior))
    spec.layer_memo  # created on the source for every copy to share
    vars(copy).update((name, vars(spec)[name]) for name in PRIOR_FREE_TABLES if name in vars(spec))
    return copy
