"""Exact solver for the coordinated human-machine routing game.

The asymmetric-information game is reduced to a single-agent problem: a
coordinator picks, for every (node, belief support, period) state, one
machine action plus a human action per supported type. Under deterministic
movement, independent edge costs and the mean-plus-weighted-variance
criterion, the prior-weighted objective decomposes edge by edge, so
backward induction over belief-augmented states is exact; the solver
asserts nothing weaker than rational-number equality with the brute-force
policy enumeration.

The solver (:func:`solve_dp`) inducts over period layers, t = T down to 1,
with no recursion. Its prescription search at a state is a DP over subsets
of the belief support rather than a scan of every prescription: a signal
group's stage-plus-continuation cost depends only on its signal and member
set, so the states of one node and period share it. The search runs on
integers, every weighted stage cost and fee scaled by one common
denominator, and the tie-break below rides in the low digits of those
integers. The brute-force oracle (:func:`brute_force_oracle`), the solve
path for CVaR, reads the solver's states and walks each state's subset
splits: with (+, ×) in place of (min, +) they count the policy trees, and
with (union, Minkowski sum) they give each state's distinct per-type cost
vectors. A tree's vector,
integers over one common denominator, is the concatenation of its signal
groups' vectors, each a group's stage costs plus its subtree's vector, and
the aggregator depends on nothing else. So each distinct root vector is
priced once, as an integer dot product, and only the optimal trees are
built, on the explicit stack that also runs the equilibrium verifier's
budgeted deviation search for the machine and for each rider type; one
verdict builder turns each agent's best deviation into its incentive check.

Every forward evaluation of a policy, of any kind, is one walk:
:func:`playout` follows one rider type's route from the start node and
returns its :class:`TypeTrajectory` with exact moments.
:func:`simulate_type`, :func:`tree_playout` and
:func:`evaluate_policy_tree` are views of it.

Conventions fixed here for reproducibility:

* ties between prescriptions break lexicographically, machine action
  first (N, S, E, W, STOP), then the human action per ascending type
  index (SILENT, N, S, E, W, STOP);
* STOP is absorbing and periods after it cost nothing;
* all arithmetic is exact: rationals, or integers over one common
  denominator that become rationals in the returned tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .baseline_planners import PlannerResult, RealizedPlan
from .belief_filter import Belief, bayes_update
from .errors import (
    STATE_GUARD,
    DeviationBudgetError,
    EnumerationGuardError,
    UnsupportedAggregatorError,
    _count_text,
)
from .game_model import (
    HUMAN_ACTIONS,
    SILENT,
    STOP,
    Aggregator,
    Edge,
    GameSpec,
    as_fraction,
    require_valid,
)
from .risk_measures import EmpiricalOutcome, cvar_aggregate, cvar_pricer

_HUMAN_RANK = {a: i for i, a in enumerate(HUMAN_ACTIONS)}

DEFAULT_POLICY_GUARD = 10_000_000
DEFAULT_DEVIATION_BUDGET = 1_000_000


class BeliefState(NamedTuple):
    """A coordinator state: position, belief support, and period (1-based).

    A named tuple, so it hashes and compares as the plain tuple
    ``(node, support, period)``, and its fields cannot be assigned.
    """

    node: str
    support: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class Prescription:
    """One machine action plus a human action per supported type."""

    machine: str
    human: tuple[tuple[int, str], ...]

    @property
    def human_map(self) -> dict[int, str]:
        return dict(self.human)


@dataclass
class CoordinatorPolicy:
    """Backward-induction output: decisions, values and belief transitions.

    ``decision`` and ``value`` cover every feasible state the solve
    explored (a superset of the on-path states), which is what the
    equilibrium verifier needs to price unilateral deviations.
    ``transitions`` maps (state, observed human action) to the successor
    state, or None when that branch stops. Any mappings will do; those of
    :func:`solve_dp` are read-only views that build a value's ``Fraction``
    per read and decode ``decision`` and ``transitions`` one state at a
    time, on that state's first read.
    """

    root: BeliefState
    decision: Mapping[BeliefState, Prescription]
    value: Mapping[BeliefState, Fraction]
    transitions: Mapping[tuple[BeliefState, str], BeliefState | None]
    weights: dict[int, Fraction]


@dataclass(frozen=True)
class PolicyTree:
    """A deterministic coordinator policy as an explicit decision tree."""

    prescription: Prescription
    children: tuple[tuple[str, "PolicyTree | None"], ...]

    def child(self, signal: str) -> "PolicyTree | None":
        for s, sub in self.children:
            if s == signal:
                return sub
        raise KeyError(signal)


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    policies: tuple[PolicyTree, ...]
    policy_count: int


@dataclass(frozen=True)
class TypeTrajectory:
    """The deterministic playout of one rider type under a policy."""

    type_index: int
    nodes: tuple[str, ...]
    machine_actions: tuple[str, ...]
    signals: tuple[str, ...]
    effective: tuple[str, ...]
    edges: tuple[Edge, ...]
    overrides: int
    override_periods: tuple[int, ...]
    terminal: str
    stop_period: int
    mean: Fraction
    variance: Fraction
    criterion: Fraction


class _Engine:
    """Shared exact-cost tables and state space for the solver, oracle and verifier.

    Built at construction: type i's stage cost m + θ_i·v of effective move
    ``e`` at ``node`` (STOP included) is ``costs[(node, e)][i] / denominator``,
    the fee ``charge / denominator``, and ``machine_actions[node]`` holds the
    node's machine actions in canonical order. :meth:`scaled_stages` weighs
    the costs by a prior. States are keyed by (node, support mask), bit k of
    the mask standing for the k-th type of the prior's support, and every
    subset of a support is named by its submask: :attr:`splits` lists each
    mask's submasks, one table for the solver's and the oracle's split
    walks. :meth:`layers` holds, per period, each node's feasible moves next
    to its states.
    """

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.T = spec.horizon_T
        self.weights = spec.exact_prior()
        self.support0 = tuple(sorted(self.weights))
        self.dist = spec.steps_to_terminal
        self.edge_dst = {(node, d): e.dst for node, out in spec.out_edges.items() for d, e in out.items()}
        d, fee, moments = spec.integer_costs
        b = math.lcm(*(th.denominator for th in spec.exact_types))
        self.denominator, self.charge = d * b, fee * b
        factors = [th.numerator * (b // th.denominator) for th in spec.exact_types]
        self.costs = {key: [m * b + f * v for f in factors] for key, (m, v) in moments.items()}
        self.machine_actions = {node: spec.machine_moves(node) for node in spec.nodes}

    def scaled_stages(self, weights: dict[int, Fraction | int]):
        """(scale, fee, stage): weighted fees and stage costs as integers over one denominator.

        For the k-th type of ``sorted(weights)``, ``fee[k] / scale`` is its
        weight times the fee, and ``stage[(node, e)][k] / scale`` its weight
        times its stage cost of effective move ``e`` at ``node``.
        """
        types = sorted(weights)
        lcm = math.lcm(*(weights[i].denominator for i in types))
        factors = [(i, weights[i].numerator * (lcm // weights[i].denominator)) for i in types]
        fee = [f * self.charge for _, f in factors]
        stage = {key: [f * row[i] for i, f in factors] for key, row in self.costs.items()}
        return self.denominator * lcm, fee, stage

    def mask_sums(self, weights: dict[int, Fraction | int]):
        """(scale, fee, stage) of :meth:`scaled_stages`, each row summed per member mask."""
        scale, fee, stage = self.scaled_stages(weights)
        return scale, _mask_sums(fee), {key: _mask_sums(row) for key, row in stage.items()}

    def layers(self) -> list[dict[str, tuple[list[tuple[int, str, str | None]], dict[int, BeliefState]]]]:
        """Per period, index 1 to T or to the last nonempty layer, {node: (moves, {mask: state})}.

        A node's moves are the (rank, move, destination) that can still
        finish in time, the destination's dist moves plus one STOP period
        fitting after the period, in canonical order: rank is the move's
        place among the node's machine actions counted from 1 (0 is SILENT),
        and the destination is None for STOP. A state's successors are every
        nonempty subset of its support after every such move, the set an
        exhaustive search visits. Period 1 holds the root alone, at the full
        mask, so every later period holds the nodes the previous period's
        moves reach, each with every nonempty mask in ascending order, and no
        layer follows an empty one. Only a cycle has states after period |V|;
        there the layers end in :class:`EnumerationGuardError` once the states
        built, plus as many per period left, pass :data:`STATE_GUARD`. Only
        the solver and the oracle read the layers. They depend on the prior
        only through its support, so the spec's ``layer_memo`` keeps them by
        support, shared by :func:`~riskgames.game_model.with_prior` copies;
        layers that pass the guard are not kept. Equal move lists share one list.
        """
        layers = self.spec.layer_memo.get(self.support0)
        if layers is not None:
            return layers
        subsets = [(mask, tuple(i for k, i in enumerate(self.support0) if mask >> k & 1))
                   for mask in range(1, 1 << len(self.support0))]
        layers, built, shared = [{}], 1, {}
        nodes, masks = [self.spec.start_node], subsets[-1:]  # period 1: the root, at the full mask
        for t in range(1, self.T + 1):
            layer = {}
            for node in nodes:
                moves = []
                for rank, e in enumerate(self.machine_actions[node], 1):
                    dst = self.edge_dst.get((node, e))  # None for STOP
                    if dst is None or self.dist[dst] <= self.T - t - 1:
                        moves.append((rank, e, dst))
                moves = shared.setdefault(tuple(moves), moves)
                layer[node] = moves, {mask: BeliefState(node, support, t) for mask, support in masks}
            layers.append(layer)
            nodes = dict.fromkeys(dst for moves, _ in layer.values() for _, _, dst in moves if dst is not None)
            if not nodes:
                break
            width = len(nodes) * len(subsets)
            built += width
            projected = built + width * (self.T - t - 1)
            if t + 1 > len(self.spec.nodes) and projected > STATE_GUARD:
                raise EnumerationGuardError(
                    f"{_count_text(projected)} belief states projected to the horizon exceed "
                    f"the state guard of {STATE_GUARD}", bound=STATE_GUARD
                )
            masks = subsets
        self.spec.layer_memo[self.support0] = layers
        return layers

    @functools.cached_property
    def splits(self) -> list[list[int]]:
        """Per mask, its submasks G, 0 first and then descending; a split's rest is ``mask ^ G``.
        Built whole on first read, which no reader makes before :meth:`layers` has passed its
        state guard; each of the 3^K entries for K types points at one shared int per mask."""
        masks, splits = list(range(1 << len(self.support0))), [[0]]
        for mask in masks[1:]:  # the submasks holding its highest bit, then those of the rest
            high = 1 << mask.bit_length() - 1
            rest = splits[mask ^ high][1:]
            splits.append([0, *[masks[high | sub] for sub in rest], masks[high], *rest])
        return splits


def _mask_sums(row: list[int]) -> list[int]:
    """Per mask m over the positions of ``row``, the sum of ``row[k]`` over the bits k of m."""
    sums = [0]
    for c in row:
        sums += [s + c for s in sums]
    return sums


def _run_without_recursion(step, root, memo: dict):
    """Evaluate a memoized recursion written as a generator, on an explicit stack.

    ``step(state)`` yields each child state whose result it needs, is sent
    that result back (from ``memo`` when the child was already entered),
    and returns its own result, storing it in ``memo``. Children run depth
    first in the order they are asked for, as the plain recursion would run
    them. It runs the verifier's search and the oracle's tree build.
    """
    stack = [step(root)]
    result = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
            continue
        result = memo.get(child, stack)  # the stack itself marks a child not yet entered
        if result is stack:
            stack.append(step(child))
            result = None
    return result


class _IntegerSolver(_Engine):
    """Backward induction over the engine's period layers, prescription search by subset DP.

    Every weighted stage cost and weighted fee is an integer multiple of
    ``1 / scale``, so values are kept as those integers; the policy's
    tables are views of them (:class:`_ValueTable`, :class:`_DecisionTable`,
    :class:`_TransitionTable`), which decode a state's prescription or its
    successors on that state's first read and keep it in a plain dict.
    The constructor sums, per member mask, the weighted fee and every
    move's weighted stage cost over the mask's types, and builds each
    type's bit in a support mask and, per signal count B at the spec's
    nodes, the (B**K, digits) that carry the tie-break (see :meth:`_best`).
    """

    def __init__(self, spec: GameSpec):
        super().__init__(spec)
        self.scale, self._fee_sums, self._stage_sums = self.mask_sums(self.weights)
        self._bit = {i: 1 << k for k, i in enumerate(self.support0)}
        size = len(self.support0)
        self._digits = {base: (base**size, _mask_sums([base ** (size - 1 - k) for k in range(size)]))
                        for base in {len(acts) + 1 for acts in self.machine_actions.values()}}

    def policy(self) -> CoordinatorPolicy:
        self._layers = layers = self.layers()
        size = 1 << len(self.support0)
        # per period, and one empty past the last: {node: scaled value per mask}, {node: _best per mask}
        self._values = values = [{} for _ in range(len(layers) + 1)]
        self._won = won = [{} for _ in values]
        for t in range(len(layers) - 1, 0, -1):
            for node, (moves, states) in layers[t].items():
                rows = self._rows(node, moves, values[t + 1])
                values[t][node], won[t][node] = scaled, best = [0] * size, [None] * size
                for mask in states:
                    best[mask] = self._best(mask, *rows)
                    scaled[mask] = best[mask][0] // rows[1]
        del self.splits  # 3^K entries for K types: the tables' reads need none
        self._prescriptions, self._successors = {}, {}  # per state, filled by the tables' reads
        return CoordinatorPolicy(root=layers[1][self.spec.start_node][1][size - 1],
                                 decision=_DecisionTable(self), value=_ValueTable(self),
                                 transitions=_TransitionTable(self), weights=dict(self.weights))

    def _rows(self, node: str, moves: list[tuple[int, str, str | None]], later: dict[str, list[int]]):
        """(signals, B**K, overrides, silent rows) of ``node`` in one period.

        ``moves`` are the node's feasible moves in that period (see
        :meth:`layers`). Lists are indexed by member mask, and ``later[dst]``
        holds the next period's values at ``dst``, 0 at mask 0. Per move,
        in canonical order, the override row holds the objective (see
        :meth:`_best`) of a group that signals the move, and the silent row,
        keyed by move, that of a group riding it silently. ``overrides``
        holds the least objective per member set split among all the
        override signals, folded row by row over every mask's splits.
        """
        signals = (SILENT,) + self.machine_actions[node]
        shift, digits = self._digits[len(signals)]
        overrides, silent = None, {}
        for rank, e, dst in moves:
            tail = itertools.repeat(0) if dst is None else later[dst]
            silent[e] = row = [(c + v) * shift for c, v in zip(self._stage_sums[(node, e)], tail)]
            override = [c + f * shift + rank * d for c, f, d in zip(row, self._fee_sums, digits)]
            overrides = override if overrides is None else [
                min([overrides[mask ^ sub] + override[sub] for sub in subs])
                for mask, subs in enumerate(self.splits)
            ]
        return signals, shift, overrides, silent

    def _best(self, mask: int, signals, shift: int, overrides: list[int], silent: dict) -> tuple[int, str]:
        """(objective, machine action) of the optimum of the state with
        member ``mask``, from its node's :meth:`_rows`.

        A signal group's cost depends only on its signal and member set.
        With B signals at the node and K types in the prior's support, a
        prescription's objective is its scaled value times B**K plus the
        base-B number whose digit at type position k is the signal rank of
        that type, or 0 for a type outside the state's support (see
        :func:`_member_signals`). So the least objective is the least value
        and, among equal values, the first signal assignment in the
        documented order, and the objective of a group, or of a member set
        split among the override signals, depends on the node, the period
        and the member mask alone. Machine actions are compared on the value
        alone, in order, so the first of equal ones wins.
        """
        # the silent group's members follow the machine action
        subs = self.splits[mask]
        best = None
        for a_m in signals[1:]:
            row = silent.get(a_m)
            objective = min([row[sub] + overrides[mask ^ sub] for sub in subs]) if row else overrides[mask]
            if best is None or objective // shift < best[0] // shift:
                best = (objective, a_m)
        return best

    def _locate(self, state) -> tuple[int, str, int] | None:
        """(period, node, mask) of a state of the layers, or None for any other key; a
        (node, support, period) outside the layers is found missing without an exception."""
        try:
            node, support, t = state
            entry = self._layers[t].get(node) if 0 < t < len(self._layers) else None
            mask = sum(map(self._bit.__getitem__, support))
        except (TypeError, ValueError, KeyError):  # not a (node, support, period) of the prior's types
            return None
        return None if entry is None or entry[1].get(mask) != state else (t, node, mask)

    def _decoded(self, key, successors: bool):
        """The prescription of a state of the layers or, with ``successors``, its {signal:
        successor, None where the branch stops}, decoded from the induction's record and kept
        per state; None for any other key."""
        where = self._locate(key)
        if where is None:
            return None
        t, node, mask = where
        state, (objective, a_m) = self._layers[t][node][1][mask], self._won[t][node][mask]
        signals = (SILENT,) + self.machine_actions[node]
        shift, digits = self._digits[len(signals)]
        human, groups = _member_signals(objective % shift, mask, signals, digits)
        if not successors:
            self._prescriptions[state] = presc = Prescription(a_m, tuple(zip(state.support, human)))
            return presc
        self._successors[state] = kept = {}
        for signal, group in groups.items():
            dst = self.edge_dst.get((node, a_m if signal == SILENT else signal))  # None for STOP
            kept[signal] = None if dst is None else self._layers[t + 1][dst][1][group]
        return kept


def _member_signals(code: int, mask: int, signals, digits: list[int]) -> tuple[list[str], dict[str, int]]:
    """(signal per member, member mask per signal) of the tie-break ``code`` of a member ``mask``."""
    human, groups = [], {}
    while mask:
        bit = mask & -mask
        mask ^= bit
        signal = signals[code // digits[bit] % len(signals)]
        human.append(signal)
        groups[signal] = groups.get(signal, 0) | bit
    return human, groups


_MISSING = object()


class _SolverTable(Mapping):
    """A read-only table over a solve's integer record, read through its own ``get``: a key
    that is not a state of the solve's layers reads as missing there with no exception.
    Iteration runs from the last period back, as the induction runs."""

    def __init__(self, solver: _IntegerSolver):
        self._solver = solver

    def __getitem__(self, key):
        entry = self.get(key, _MISSING)
        if entry is _MISSING:
            raise KeyError(key)
        return entry

    def __iter__(self):
        layers = reversed(self._solver._layers)
        return (state for layer in layers for _, states in layer.values() for state in states.values())

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))


class _ValueTable(_SolverTable):
    """A solve's value table: one ``Fraction`` per read, with no memo."""

    def get(self, state, default=None):
        where = self._solver._locate(state)
        if where is None:
            return default
        t, node, mask = where
        return Fraction(self._solver._values[t][node][mask], self._solver.scale)


class _DecisionTable(_SolverTable):
    """A solve's decision table: a state's prescription is decoded on its first read."""

    def get(self, state, default=None):
        try:
            presc = self._solver._prescriptions.get(state)
        except TypeError:  # an unhashable key is no state
            return default
        presc = presc or self._solver._decoded(state, successors=False)
        return default if presc is None else presc


class _TransitionTable(_SolverTable):
    """A solve's transition table, keyed by (state, signal): a state's successors are decoded
    on the first read of any of its keys. Iteration and ``len`` decode every state's."""

    def _successors(self, state) -> dict | None:
        return self._solver._successors.get(state) or self._solver._decoded(state, successors=True)

    def get(self, key, default=None):
        try:
            state, signal = key
            kept = self._solver._successors.get(state)
        except (TypeError, ValueError):  # not a (state, signal) pair, or an unhashable state
            return default
        successors = kept or self._solver._decoded(state, successors=True)
        return default if successors is None else successors.get(signal, default)

    def __iter__(self):
        return ((state, signal) for state in _SolverTable.__iter__(self) for signal in self._successors(state))


def solve_dp(spec: GameSpec) -> CoordinatorPolicy:
    """Solve the coordinator problem exactly by backward induction.

    Returns the optimal policy over (node, belief support, period) states
    together with its exact value table. The root value equals the
    prior-weighted sum of the per-type realized criteria under the policy.
    Requires the expectation aggregator: only a linear aggregator lets the
    objective decompose across belief splits; route CVaR instances through
    :func:`brute_force_oracle` instead.

    The induction walks period layers from T down to 1, node by node, with
    no recursion. Over its layer's feasible moves, each (node, period) folds
    the best split of every member set among the override signals, over
    every mask's splits, in about |A_h|·3^K steps for K supported types;
    each state then matches its silent group against it per machine action,
    in about |A_m|·2^|support| steps, where trying every prescription takes
    |A_m|·|A_h|^K per state. The search runs on integers scaled by one
    common denominator, and the tie-break convention of the module docstring
    is folded into their low digits.
    """
    require_valid(spec)
    if spec.machine_aggregator.kind != "expectation":
        raise UnsupportedAggregatorError(
            "exact backward induction requires the expectation aggregator; "
            "use brute_force_oracle for CVaR instances"
        )
    return _IntegerSolver(spec).policy()


class _Oracle(_Engine):
    """Deterministic coordinator policies as decision trees, over the engine's layers.

    A prescription splits a state's support into signal groups, at most
    one per signal, and each group that moves on follows one tree of its
    child state. So a state's trees are a sum, over machine actions and
    splits, of products of its groups' trees: :meth:`_fold` walks the
    state's subset splits, as the solver's search does, with a (join,
    combine) pair in place of (min, +). Only optimal trees are built, each next to its key
    (machine action rank, the members' signal ranks, child keys...), with
    ``()`` for a group that stops. Keys order trees as an enumeration of
    each state's feasible prescriptions in the tie-break order of the
    module docstring, each the product of its children's trees, the first
    child varying slowest.
    """

    def _fold(self, node: str, mask: int, moves: list[tuple[int, str, str | None]], rows, join, combine) -> list:
        """Per machine action, the join over its prescriptions of their groups' combined rows.

        ``moves`` are the node's feasible moves in the period (see
        :meth:`layers`). ``rows(e, dst)`` gives the silent and the overriding
        group rows of move ``e`` to ``dst`` (None for STOP), dicts over the
        submasks of ``mask`` whose entry 0, the empty group, is the unit of
        ``combine``. A move that cannot finish in time takes no members.
        """
        subs = self.splits[mask]
        groups = [None] * len(self.machine_actions[node])
        for rank, e, dst in moves:
            groups[rank - 1] = rows(e, dst)
        overrides = None
        for _, row in filter(None, groups):
            overrides = row if overrides is None else {
                whole: join([combine(overrides[whole ^ sub], row[sub]) for sub in self.splits[whole]])
                for whole in subs
            }
        return [
            overrides[mask] if group is None
            else join([combine(group[0][sub], overrides[mask ^ sub]) for sub in subs])
            for group in groups
        ]

    def _induct(self, layers, rows, join, combine):
        """Yield (t, {(node, mask): join of its fold}) from the last period back;
        ``rows(later, node, mask, e, dst)`` reads period t + 1's values in ``later``."""
        later: dict = {}
        for t in range(len(layers) - 1, 0, -1):
            later = {
                key: join(self._fold(*key, moves, functools.partial(rows, later, *key), join, combine))
                for node, (moves, states) in layers[t].items() for key in itertools.product([node], states)
            }
            yield t, later

    def tree_count(self, layers: list[dict]) -> int:
        """Number of trees at the root, by (+, ×) over the splits."""

        def rows(later, node, mask, e, dst):
            row = {sub: 1 if dst is None or not sub else later[(dst, sub)] for sub in self.splits[mask]}
            return row, row

        for _, counts in self._induct(layers, rows, sum, operator.mul):
            pass
        return next(iter(counts.values()))  # period 1 holds the root alone

    def minimize(self, layers: list[dict]) -> tuple[Fraction, list[PolicyTree]]:
        """The least aggregate value and every tree reaching it, in canonical order.

        A tree's cost vector holds each type's criterion, in integers over
        ``denominator``: per signal group, its members' stage costs (fee on
        override) plus the vector of the subtree the group follows. Each
        vector is packed into one integer, type k's entry times
        2**(width·k), where 2**(width - 1) exceeds the number of periods
        times the largest |stage| + fee. Groups have disjoint supports, so a
        prescription's vector is the sum of its groups', and (∪, Minkowski
        sum) over the splits gives each state's distinct vectors, from the
        last period back, but not how many trees reach each.

        Each distinct root vector is priced once, as an integer dot product
        (:func:`_integer_pricer`), and only the least price becomes a
        ``Fraction``. Each optimal vector is split back down by
        (concatenation, product) over the same splits into the prescriptions
        and the (state, vector) pairs they need, and each pair's trees are
        built once, children first, on :func:`_run_without_recursion`'s
        stack. Sorting the root's trees by key gives the canonical order.
        """
        bound = len(layers) * max(abs(c) + self.charge for row in self.costs.values() for c in row)
        width = bound.bit_length() + 1
        _, fee_sums, stage_sums = self.mask_sums({i: 1 << width * k for k, i in enumerate(self.support0)})
        half, full = 1 << width - 1, (1 << width) - 1

        def unpack(v: int) -> list[int]:
            entries = []
            for _ in self.support0:
                entries.append(((v + half) & full) - half)
                v = (v - entries[-1]) >> width
            return entries

        def rows(later, node, mask, e, dst):
            # per member set, its group vectors: its stage costs (fee on override) plus a subtree's
            costs, silent, override = stage_sums[(node, e)], {0: {0}}, {0: {0}}
            for sub in self.splits[mask][1:]:
                tails = (0,) if dst is None else later[(dst, sub)]
                silent[sub] = {costs[sub] + w for w in tails}
                override[sub] = {costs[sub] + fee_sums[sub] + w for w in tails}
            return silent, override

        tables = dict(self._induct(layers, rows, *_UNION_MINKOWSKI))
        price, denominator = _integer_pricer(
            self.spec.machine_aggregator, [self.weights[i] for i in self.support0]
        )
        ((root, vectors),) = tables[1].items()  # period 1 holds the root alone
        prices = {v: price(unpack(v)) for v in vectors}
        best = min(prices.values())

        built: dict[tuple, list[tuple[tuple, PolicyTree]]] = {}  # per (period, node, mask, vector)

        def trees(key):
            t, node, mask, vector = key
            part = _mask_sums([entry << width * k for k, entry in enumerate(unpack(vector))])

            def split(e, dst):
                # a group fits when the vector's entries on its members, less their stage
                # costs (and fee), are one of its subtree's vectors (0 after STOP)
                costs, fit_rows = stage_sums[(node, e)], []
                for signal, charged in ((SILENT, 0), (e, 1)):
                    fits = {0: [()]}  # the empty group
                    for sub in self.splits[mask][1:]:
                        w = part[sub] - costs[sub] - charged * fee_sums[sub]
                        fit = w == 0 if dst is None else w in tables[t + 1][(dst, sub)]
                        fits[sub] = [((sub, signal, dst, w),)] if fit else []
                    fit_rows.append(fits)
                return fit_rows

            found = self._fold(node, mask, layers[t][node][0], split, *_CONCATENATION_PRODUCT)
            pairs = []
            for a_m, fits in zip(self.machine_actions[node], found):
                for groups in fits:
                    groups = sorted(groups, key=lambda g: g[0] & -g[0])  # children by their first member
                    human = tuple((i, next(g[1] for g in groups if g[0] >> k & 1))
                                  for k, i in enumerate(self.support0) if mask >> k & 1)
                    presc = Prescription(a_m, human)
                    head = (_HUMAN_RANK[a_m], tuple(_HUMAN_RANK[s] for _, s in human))
                    options = []
                    for sub, _, dst, w in groups:
                        child = (t + 1, dst, sub, w)
                        options.append([((), None)] if dst is None else built.get(child) or (yield child))
                    for chosen in itertools.product(*options):
                        children = tuple((g[1], tree) for g, (_, tree) in zip(groups, chosen))
                        pairs.append(((*head, *(k for k, _ in chosen)), PolicyTree(presc, children)))
            built[key] = pairs
            return pairs

        roots = [pair for v, p in prices.items() if p == best
                 for pair in _run_without_recursion(trees, (1, *root, v), built)]
        optimal = sorted(roots, key=operator.itemgetter(0))
        return Fraction(best, self.denominator * denominator), [tree for _, tree in optimal]


# the (join, combine) pairs of _Oracle._fold besides (+, ×)
_UNION_MINKOWSKI = (lambda parts: set().union(*parts), lambda a, b: {v + w for v in a for w in b})
_CONCATENATION_PRODUCT = (lambda parts: sum(parts, []), lambda a, b: [x + y for x in a for y in b])


def count_deterministic_policies(spec: GameSpec) -> int:
    """Number of deterministic coordinator decision trees for an instance."""
    require_valid(spec)
    oracle = _Oracle(spec)
    return oracle.tree_count(oracle.layers())


def brute_force_oracle(spec: GameSpec, guard: int = DEFAULT_POLICY_GUARD) -> OracleResult:
    """Every coordinator policy that minimizes the aggregate, as if by exhaustive search.

    Ground truth for :func:`solve_dp`, and the solve path for CVaR
    aggregation (which does not decompose across belief splits). The
    policies are counted period by period from the horizon back, by the
    solver's subset splits over the solver's states, and ``guard`` is
    checked against that count M before any work that grows with it. Any
    aggregator is a function of the per-type criteria alone, so the search
    runs over each state's distinct per-type cost vectors rather than over
    its trees (see :meth:`_Oracle.minimize`), and each distinct root vector
    is priced once, exactly, as an integer dot product with the prior
    weights or, under CVaR, with the types' shares of the tail. The optimal
    trees come in the canonical order of an enumeration, and no other tree
    is built. A validated spec has at least one tree.

    The guard also bounds that search. Every state in the layers has at
    least one tree and lies on some root tree, so it has at most M trees
    and at most M distinct vectors. A split pairs the vectors of a part of
    a member set with those of the group that takes the rest; their
    supports are disjoint, so distinct pairs give distinct sums. Completed
    by one fixed vector of the members left out, riding silently behind a
    move that can finish, distinct sums are distinct vectors of the state,
    so no split forms more than M pairs. A state then costs at most about
    (|A_h|·3^K + |A_m|·2^K)·M vector additions for K types, and wall time
    needs no bound besides ``guard`` and, on a cycle, the state guard that
    the layers check before they are counted.
    """
    require_valid(spec)
    oracle = _Oracle(spec)
    layers = oracle.layers()
    n = oracle.tree_count(layers)
    if n > guard:
        raise EnumerationGuardError(
            f"{_count_text(n)} candidate policies exceed the enumeration guard of {guard}", bound=guard
        )
    value, trees = oracle.minimize(layers)
    return OracleResult(value=value, policies=tuple(trees), policy_count=n)


def playout(spec: GameSpec, policy, type_index: int) -> TypeTrajectory:
    """The deterministic route of one rider type under a policy, with its exact moments.

    The policy may be a :class:`CoordinatorPolicy`, a :class:`PolicyTree`, a
    :class:`PlannerResult` (its route ridden silently, then STOP) or a
    :class:`RealizedPlan`. From ``spec.start_node`` on, each period takes
    the (signal, machine action) the policy supplies, moves by the
    effective action and sums the edge moments, until the effective action
    is STOP, which adds the terminal's moments; the fee is added to the
    mean once per override. Every evaluation in the package walks a route
    here and nowhere else.
    """
    moves = _moves(policy, type_index)
    node, period = spec.start_node, 1
    nodes, machine_actions, signals, effective_moves = [node], [], [], []
    edges: list[Edge] = []
    override_periods: list[int] = []
    mean = var = Fraction(0)
    while True:
        signal, a_m = next(moves)
        effective = a_m if signal == SILENT else signal
        machine_actions.append(a_m)
        signals.append(signal)
        effective_moves.append(effective)
        if signal != SILENT:
            override_periods.append(period)
        if effective == STOP:
            break
        try:
            edge = spec.out_edges[node][effective]
        except KeyError:
            raise ValueError(f"no edge for move {effective!r} at node {node!r}") from None
        edges.append(edge)
        mean += edge.cost.exact_mean
        var += edge.cost.exact_variance
        node, period = edge.dst, period + 1
        nodes.append(node)
    try:
        term = spec.terminals[node]
    except KeyError:
        raise ValueError(f"STOP at node {node!r}, which is not a terminal") from None
    mean += term.exact_mean + spec.exact_transmission_cost * len(override_periods)
    var += term.exact_variance
    return TypeTrajectory(
        type_index=type_index,
        nodes=tuple(nodes),
        machine_actions=tuple(machine_actions),
        signals=tuple(signals),
        effective=tuple(effective_moves),
        edges=tuple(edges),
        overrides=len(override_periods),
        override_periods=tuple(override_periods),
        terminal=node,
        stop_period=period,
        mean=mean,
        variance=var,
        criterion=mean + spec.exact_types[type_index] * var,
    )


def _moves(policy, type_index: int):
    """An iterator of the (signal, machine action) pairs a policy supplies to one type."""
    if isinstance(policy, CoordinatorPolicy):
        if type_index not in policy.weights:
            raise ValueError(f"type {type_index} has no prior weight in this game")
        return _state_moves(policy, type_index)
    if isinstance(policy, PolicyTree):
        return _tree_moves(policy, type_index)
    if isinstance(policy, PlannerResult):
        return iter([(SILENT, e.direction) for e in policy.path] + [(SILENT, STOP)])
    if isinstance(policy, RealizedPlan):
        return zip(policy.signals, policy.machine_actions)
    raise TypeError(f"unsupported policy object {type(policy).__name__}")


def _state_moves(policy: CoordinatorPolicy, type_index: int):
    state = policy.root
    while True:
        presc = policy.decision.get(state)
        if presc is None:
            raise ValueError(f"policy undefined at reached state {state}")
        try:
            signal = presc.human_map[type_index]
        except KeyError:
            raise ValueError(f"no signal for type {type_index} at {state}") from None
        yield signal, presc.machine
        nxt = policy.transitions.get((state, signal))
        if nxt is None:
            raise ValueError(f"policy transition missing at {state} for signal {signal!r}")
        state = nxt


def _tree_moves(tree: PolicyTree, type_index: int):
    for period in itertools.count(1):
        signal = tree.prescription.human_map.get(type_index)
        if signal is None:
            raise ValueError(f"no signal for type {type_index} in the policy tree at period {period}")
        yield signal, tree.prescription.machine
        try:
            tree = tree.child(signal)
        except KeyError:
            tree = None
        if tree is None:  # read only after a move that is not STOP
            raise ValueError(f"policy tree has no subtree for signal {signal!r} at period {period}")


def aggregate(aggregator: Aggregator, weights: dict, per_type: dict[int, Fraction]) -> Fraction:
    """The machine's value of per-type criteria: their expectation or CVaR under ``weights``."""
    if aggregator.kind == "expectation":
        return sum((weights[i] * c for i, c in per_type.items()), start=Fraction(0))
    if aggregator.kind == "cvar":
        outcome = EmpiricalOutcome.of((c, weights[i]) for i, c in per_type.items())
        return cvar_aggregate(outcome, aggregator.alpha)
    raise UnsupportedAggregatorError(f"unknown aggregator {aggregator.kind!r}")


def _integer_pricer(aggregator: Aggregator, weights: list[Fraction]):
    """(price, denominator): for integer costs ``v`` over a scale, entry k
    weighted by ``weights[k]``, :func:`aggregate` is ``price(v) / (scale * denominator)``."""
    if aggregator.kind == "cvar":
        return cvar_pricer(weights, as_fraction(aggregator.alpha))
    denominator = math.lcm(*(w.denominator for w in weights))
    coefficients = [w.numerator * (denominator // w.denominator) for w in weights]
    return (lambda v: sum(map(operator.mul, v, coefficients))), denominator


def simulate_type(spec: GameSpec, policy: CoordinatorPolicy, type_index: int) -> TypeTrajectory:
    """Deterministic playout of one type under a coordinator policy."""
    return playout(spec, policy, type_index)


def tree_playout(spec: GameSpec, tree: PolicyTree, type_index: int):
    """(edges, signals, override periods, terminal) of one type under a tree."""
    route = playout(spec, tree, type_index)
    return route.edges, route.signals, route.override_periods, route.terminal


def evaluate_policy_tree(spec: GameSpec, tree: PolicyTree) -> tuple[Fraction, dict[int, Fraction]]:
    """Aggregate value and per-type criteria of an explicit decision tree.

    Each positive-prior type's criterion comes from its forward
    :func:`playout`, whole-route moments rather than the oracle's
    per-subtree cost vectors, so the two price a tree independently.
    """
    per_type = {i: playout(spec, tree, i).criterion for i in spec.positive_support()}
    return aggregate(spec.machine_aggregator, spec.exact_prior(), per_type), per_type


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    improvement: Fraction | None = None


@dataclass(frozen=True)
class EquilibriumReport:
    machine_ic: CheckResult
    human_ic: CheckResult
    belief_consistency: CheckResult
    per_type: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return self.machine_ic.passed and self.human_ic.passed and self.belief_consistency.passed


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.used > self.limit:
            raise DeviationBudgetError(
                f"deviation search exceeded the budget of {self.limit} explored actions",
                budget=self.limit,
            )


def _best_response(engine: _Engine, policy: CoordinatorPolicy, options, budget: _Budget):
    """(least cost, argmin walk) of one agent's unilateral deviations from the policy.

    ``options(state, presc)`` yields the agent's (action, integer stage
    cost, successor states) at a state the policy decides by ``presc``, in
    tie-break order; a successor of None is a dead end. An action's cost is
    its stage cost plus its successors' least costs, and it is dropped at
    its first dead successor. Each action tried ticks the budget once, and
    the first strict minimum is kept. The walk maps state to argmin action,
    breadth first from the root along the argmin actions' successors. The
    cost is None, and the walk empty, when the root has no workable action.
    """
    memo: dict[BeliefState | None, tuple | None] = {None: None}  # None is a dead end

    def best(state: BeliefState):
        memo[state] = None  # states outside the solved envelope read as dead ends
        presc = policy.decision.get(state)
        if presc is None or state.period > engine.T:
            return None
        entry = None
        for action, cost, children in options(state, presc):
            budget.tick()
            for child in children:
                sub = yield child
                if sub is None:
                    break
                cost += sub[0]
            else:
                if entry is None or cost < entry[0]:
                    entry = (cost, action, children)
        memo[state] = entry
        return entry

    root = _run_without_recursion(best, policy.root, memo)
    walk: dict[BeliefState, str] = {}
    queue = [policy.root]
    for state in queue:  # grows while read: breadth first
        entry = memo.get(state)
        if state not in walk and entry is not None:
            walk[state] = entry[1]
            queue.extend(entry[2])
    return (None if root is None else root[0]), walk


def _machine_best_response(engine: _Engine, policy: CoordinatorPolicy, budget: _Budget):
    """Best machine value against the policy's fixed human decision rules.

    At every reachable state the riders keep signalling per the policy's
    slice there (their rule depends on the public state, not on the
    machine's action), so the machine's unilateral deviations form a
    one-agent problem over the same belief states. Costs are the policy's
    weighted stage costs as integers; only the root's best becomes a ``Fraction``.
    Raises ValueError at the first state whose support holds a type the
    policy gives no weight or its prescription no signal.
    """
    scale, fee, stage = engine.scaled_stages(policy.weights)
    position = {i: k for k, i in enumerate(sorted(policy.weights))}

    def options(state: BeliefState, presc: Prescription):
        human, groups = presc.human_map, {}  # members by signal, in order of their first member
        for i in state.support:
            if i not in human:
                raise ValueError(f"no signal for type {i} at {state}")
            if i not in position:
                raise ValueError(f"type {i} at {state} has no policy weight")
            groups.setdefault(human[i], []).append(i)
        groups = [(signal, tuple(members), [position[i] for i in members]) for signal, members in groups.items()]
        for a_m in engine.machine_actions.get(state.node, ()):  # none off the spec's graph
            cost, children = 0, []
            for signal, members, positions in groups:
                effective = a_m if signal == SILENT else signal
                row = stage.get((state.node, effective))
                if row is None:  # no edge for the move, or STOP off a terminal: a dead end
                    children = [None]
                    break
                for k in positions:
                    cost += row[k] if signal == SILENT else row[k] + fee[k]
                if effective != STOP:
                    dst = engine.edge_dst[(state.node, effective)]
                    children.append(BeliefState(dst, members, state.period + 1))
            yield a_m, cost, children

    best, walk = _best_response(engine, policy, options, budget)
    moves = [(s, a) for s, a in walk.items() if a != policy.decision[s].machine]
    detail = "; ".join(f"period {s.period} at node {s.node!r}: play {a}" for s, a in moves)
    return (None if best is None else Fraction(best, scale)), detail


def _human_best_response(
    engine: _Engine, policy: CoordinatorPolicy, type_index: int, budget: _Budget
):
    """Best value one rider type can reach by deviating to on-path signals.

    The machine keeps playing the policy and keeps filtering beliefs
    through the equilibrium slice, so the deviator can only send signals
    that have positive probability there (mimicking some supported type,
    or riding silent where silence is prescribed). Off-path observations
    are outside the filter's domain and are not searched.
    """

    def options(state: BeliefState, presc: Prescription):
        human = presc.human_map
        sent = {human[i] for i in state.support if i in human}
        for a in sorted(sent, key=lambda a: _HUMAN_RANK.get(a, math.inf)):  # human actions first
            effective = presc.machine if a == SILENT else a
            row = engine.costs.get((state.node, effective))
            if row is None:  # no edge for the move, STOP off a terminal, or no human action: a dead end
                yield a, 0, [None]
                continue
            cost = row[type_index] + (0 if a == SILENT else engine.charge)
            yield a, cost, [] if effective == STOP else [policy.transitions.get((state, a))]

    best, walk = _best_response(engine, policy, options, budget)
    detail = ", ".join(f"({s.period}, {s.node!r}, {a})" for s, a in walk.items())
    return (None if best is None else Fraction(best, engine.denominator)), detail


def _incentive_check(name: str, passing: str, current: Fraction, best, failure: str) -> CheckResult:
    """One agent's incentive verdict: it fails with ``failure`` when the
    agent's best deviation value ``best`` is undefined (None) or lowers its
    ``current`` value, by ``current - best``; otherwise it passes with
    ``passing`` and no improvement."""
    gain = None if best is None else current - best
    if gain is not None and gain <= 0:
        return CheckResult(name, True, passing, improvement=Fraction(0))
    return CheckResult(name, False, failure, improvement=gain)


def _belief_problem(spec: GameSpec, policy: CoordinatorPolicy) -> str | None:
    """Recompute every on-path belief transition through the Bayes filter;
    the first disagreement as text, or None when there is none."""
    weights = policy.weights
    queue = [policy.root]
    for state in queue:  # grows while read: breadth first
        presc = policy.decision.get(state)
        if presc is None:
            return f"policy undefined at reachable state {state}"
        slice_map = presc.human_map
        for i in state.support:
            if i not in slice_map:
                return f"no signal for type {i} at {state}"
            if slice_map[i] not in _HUMAN_RANK:
                return f"type {i} at {state} sends {slice_map[i]!r}, which is not a human action"
        try:
            belief = Belief.from_weights({i: weights[i] for i in state.support})
        except KeyError as missing:
            return f"type {missing.args[0]} at {state} has no policy weight"
        for signal in sorted({slice_map[i] for i in state.support}, key=_HUMAN_RANK.__getitem__):
            updated = bayes_update(belief, signal, slice_map)
            effective = signal if signal != SILENT else presc.machine
            key = (state, signal)
            if key not in policy.transitions:
                return f"transition missing at {state} for observed {signal!r}"
            stored = policy.transitions[key]
            if effective == STOP:
                if stored is not None:
                    return f"{state} observed {signal!r}: branch stops but successor {stored} stored"
                continue
            edge = spec.out_edges[state.node].get(effective)
            if edge is None:
                return f"{state}: effective move {effective!r} has no edge"
            expected = BeliefState(edge.dst, tuple(sorted(updated.support)), state.period + 1)
            if stored != expected:
                return (
                    f"first inconsistent step: {state} observed {signal!r}: "
                    f"stored {stored}, filter gives {expected}"
                )
            queue.append(stored)
    return None


def verify_equilibrium(
    spec: GameSpec,
    policy: CoordinatorPolicy,
    deviation_budget: int = DEFAULT_DEVIATION_BUDGET,
) -> EquilibriumReport:
    """Check that a coordinator policy is an equilibrium of the two-agent game.

    Three conditions: (I) no unilateral machine deviation lowers the
    prior-weighted criterion while the riders keep their decision rules;
    (II) no rider type can lower its own criterion by deviating, with the
    machine still filtering beliefs through the equilibrium slice; (III)
    every on-path belief transition matches the Bayes restriction filter.
    The deviation search is budgeted by explored (state, action) pairs and
    raises DeviationBudgetError beyond ``deviation_budget``.
    """
    engine = _Engine(spec)
    budget = _Budget(deviation_budget)
    root_value = policy.value.get(policy.root)

    try:
        if root_value is None:
            raise ValueError(f"the policy has no value at its root {policy.root}")
        best_m, moves = _machine_best_response(engine, policy, budget)
    except ValueError as exc:
        machine_ic = CheckResult("machine_ic", False, f"machine best response is undefined: {exc}")
    else:
        machine_ic = _incentive_check(
            "machine_ic", "no improving machine deviation", root_value, best_m,
            "machine best response is undefined" if best_m is None else
            f"machine deviation lowers the objective from {root_value} to {best_m}: {moves}",
        )

    per_type: list[CheckResult] = []
    for i in sorted(policy.weights):
        name = f"human_ic[type {i}]"
        try:
            eq_value = playout(spec, policy, i).criterion
        except ValueError as exc:
            undefined = f"equilibrium playout undefined for type {i}: {exc}"
            per_type.append(CheckResult(name, False, undefined))
            continue
        best_h, signals = _human_best_response(engine, policy, i, budget)
        per_type.append(_incentive_check(
            name, "no improving deviation", eq_value, best_h,
            "human best response undefined" if best_h is None else
            f"type {i} lowers its criterion from {eq_value} to {best_h} via signals {signals}",
        ))
    human_ic = CheckResult(
        "human_ic",
        all(c.passed for c in per_type),
        "; ".join(f"{c.name}: {'ok' if c.passed else c.detail}" for c in per_type),
    )

    problem = _belief_problem(spec, policy)
    belief_consistency = CheckResult(
        "belief_consistency", problem is None, problem or "all on-path updates match the filter"
    )
    return EquilibriumReport(machine_ic, human_ic, belief_consistency, tuple(per_type))
