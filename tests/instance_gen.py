"""Seeded random game instances for cross-checking the solver against oracles."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from riskgames import CostDistribution, Edge, GameSpec, validate_spec
from riskgames.coordinator_solver import count_deterministic_policies
from riskgames.game_model import DIRECTIONS

THETA_POOL = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5)
VAR_POOL = (0, 1, 2, 4, 8)
Q_POOL = (0.0, 0.0, 0.1, 0.5, 1.0)


def random_game(
    seed: int,
    max_nodes: int = 6,
    k_types: int = 2,
    max_extra_edges: int = 3,
    max_slack: int = 2,
    max_horizon: int | None = None,
) -> GameSpec:
    """A random validated instance; terminal reachability holds by construction."""
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    names = [f"n{i}" for i in range(n)]
    used: dict[str, set[str]] = {name: set() for name in names}
    edges: list[Edge] = []

    def add_edge(src: str, dst: str) -> bool:
        free = [d for d in DIRECTIONS if d not in used[src]]
        if not free or src == dst:
            return False
        d = rng.choice(free)
        used[src].add(d)
        edges.append(
            Edge(src, dst, d, CostDistribution(rng.randint(1, 9), rng.choice(VAR_POOL)))
        )
        return True

    # spanning chain into each later node keeps the last node reachable
    for i in range(1, n):
        candidates = [names[j] for j in range(i) if len(used[names[j]]) < 4]
        add_edge(rng.choice(candidates), names[i])
    for _ in range(rng.randint(0, max_extra_edges)):
        add_edge(rng.choice(names), rng.choice(names))

    terminals = {names[-1]: CostDistribution(-rng.randint(0, 3), rng.choice((0, 1, 2)))}
    if n >= 4 and rng.random() < 0.5:
        terminals[names[-2]] = CostDistribution(-rng.randint(0, 3), rng.choice((0, 1)))

    k = rng.randint(1, k_types)
    types = tuple(sorted(rng.sample(THETA_POOL, k)))
    raw = [rng.randint(1, 4) for _ in range(k)]
    prior = tuple(w / sum(raw) for w in raw)

    spec = GameSpec(
        nodes=tuple(names),
        edges=tuple(edges),
        terminals=terminals,
        start_node=names[0],
        horizon_T=1,
        types=types,
        prior=prior,
        transmission_cost=rng.choice(Q_POOL),
    )
    dist = spec.steps_to_terminal[spec.start_node]
    horizon = int(dist) + 1 + rng.randint(0, max_slack)
    if max_horizon is not None:
        horizon = max(int(dist) + 1, min(horizon, max_horizon))
    spec = GameSpec(
        nodes=spec.nodes,
        edges=spec.edges,
        terminals=spec.terminals,
        start_node=spec.start_node,
        horizon_T=horizon,
        types=spec.types,
        prior=spec.prior,
        transmission_cost=spec.transmission_cost,
    )
    problems = validate_spec(spec)
    assert not problems, f"generator produced invalid spec (seed {seed}): {problems}"
    return spec


def oracle_sized_game(seed: int, min_policies: int = 24, max_policies: int = 3000) -> GameSpec:
    """A random instance small enough for full policy enumeration.

    Deterministically derived from the seed: candidate instances are tried
    until the deterministic-policy count lands in [min_policies,
    max_policies], which keeps enumeration fast while still exercising
    belief splits.
    """
    attempt = 0
    while True:
        spec = random_game(
            seed * 1000 + attempt,
            max_nodes=5,
            k_types=2,
            max_extra_edges=2,
            max_slack=1,
            max_horizon=5,
        )
        if min_policies <= count_deterministic_policies(spec) <= max_policies:
            return spec
        attempt += 1


def seeded_lattice(seed: int, side: int = 16, horizon: int = 28) -> GameSpec:
    """A side x side N/S/E/W lattice from one corner to three rewarded corners,
    with integer edge means and a few variances drawn from the seed."""
    rng = random.Random(seed)
    last = side - 1
    edges = []
    for r in range(side):
        for c in range(side):
            for direction, dr, dc in (("N", -1, 0), ("S", 1, 0), ("E", 0, 1), ("W", 0, -1)):
                if 0 <= r + dr <= last and 0 <= c + dc <= last:
                    cost = CostDistribution(rng.randint(1, 9), rng.choice((0, 1, 2, 4, 8, 16, 40, 100, 150)))
                    edges.append(Edge(f"r{r}c{c}", f"r{r + dr}c{c + dc}", direction, cost))
    return GameSpec(
        nodes=tuple(f"r{r}c{c}" for r in range(side) for c in range(side)),
        edges=tuple(edges),
        terminals={
            f"r0c{last}": CostDistribution(-30, 40),
            f"r{last}c0": CostDistribution(-30, 10),
            f"r{last}c{last}": CostDistribution(-30, 0),
        },
        start_node="r0c0",
        horizon_T=horizon,
        types=(0.01, 0.2),
        prior=(0.5, 0.5),
        transmission_cost=0.5,
    )


def three_node_cycle(horizon: int, extra_edges=()) -> GameSpec:
    """The 3-node cycle 1 -> 2 -> 3 -> 1 (plus ``extra_edges``), terminal at 3."""
    edges = (("1", "2", "E"), ("2", "3", "E"), ("3", "1", "S"), *extra_edges)
    return GameSpec(
        nodes=("1", "2", "3"),
        edges=tuple(Edge(src, dst, d, CostDistribution(1, 2)) for src, dst, d in edges),
        terminals={"3": CostDistribution(0, 0)},
        start_node="1",
        horizon_T=horizon,
        types=(0.01, 0.5),
        prior=(0.5, 0.5),
        transmission_cost=0.5,
    )


def skip_chain(n: int, horizon: int = 30) -> GameSpec:
    """Nodes 0..n-1 in a row, each with edges one (E), two (S) and three (N) ahead and one
    back (W), from node 0 to the terminal n - 1: its simple routes grow about fivefold per two
    nodes (3,342 at n = 12, 85,195 at n = 16, 2,171,756 at n = 20)."""
    steps = ((1, "E"), (2, "S"), (3, "N"), (-1, "W"))
    return GameSpec(
        nodes=tuple(str(i) for i in range(n)),
        edges=tuple(Edge(str(i), str(i + k), d, CostDistribution(1, 1))
                    for i in range(n) for k, d in steps if 0 <= i + k < n),
        terminals={str(n - 1): CostDistribution(0, 0)},
        start_node="0",
        horizon_T=horizon,
        types=(0.01, 0.5),
        prior=(0.5, 0.5),
        transmission_cost=0.5,
    )


def types_ladder(spec: GameSpec, k: int) -> GameSpec:
    """``spec`` with ``k`` >= 2 types evenly spaced in [0.01, 0.2] (four decimals) and a
    near-uniform prior of two-decimal weights, the last weight taking the remainder."""
    types = tuple(round(0.01 + 0.19 * j / (k - 1), 4) for j in range(k))
    weight = Fraction(round(100 / k), 100)
    prior = (float(weight),) * (k - 1) + (float(1 - (k - 1) * weight),)
    return replace(spec, types=types, prior=prior)


def member_tie_game() -> GameSpec:
    """A game whose optimum ties two prescriptions that differ only in which member sends which signal.

    Type 0 (θ 0.01) rides the cheap, risky north edge. Types 1 and 2 (θ 0.2
    and 0.5, equal weights) each fare the same through P or Q, where type 1
    takes the risky and type 2 the safe last edge. Under machine N both
    override anyway, so sending them to different nodes, (S, E) or (E, S),
    separates them for no further fee, and the two tie exactly; the lower
    type index decides, so type 1 signals S.
    """
    edges = [("A", "Z", "N", 1, 100), ("A", "P", "S", 1, 0), ("A", "Q", "E", 1, 0)]
    edges += [(src, "T1", "E", 5, 0) for src in "PQ"] + [(src, "T2", "S", 3, 6) for src in "PQ"]
    return GameSpec(
        nodes=("A", "Z", "P", "Q", "T1", "T2"),
        edges=tuple(Edge(src, dst, d, CostDistribution(m, v)) for src, dst, d, m, v in edges),
        terminals={node: CostDistribution(0, 0) for node in ("Z", "T1", "T2")},
        start_node="A",
        horizon_T=4,
        types=(0.01, 0.2, 0.5),
        prior=(0.4, 0.3, 0.3),
        transmission_cost=0.5,
    )
