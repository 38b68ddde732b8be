"""Random behaviors for property tests and Monte-Carlo suites.

Exact-rational sampling only; floats never enter.  Nonsignalling samples are
drawn as convex mixtures over a pool of NS polytope points that includes
nonlocal LP vertices, so the samples are not confined to the local polytope.
An exact L1-projection onto the NS polytope is also provided for small
scenarios.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .bell import recursive_bkp
from .polylp import optimize_over_ns
from .scenario import Behavior, Scenario, deterministic_vertex, mix, uniform_behavior


def random_assignment(scenario: Scenario, rng: random.Random):
    return tuple(
        tuple(rng.randrange(scenario.outcomes) for _ in range(scenario.settings))
        for _ in range(scenario.parties)
    )


def random_behavior(scenario: Scenario, rng: random.Random, denom: int = 60) -> Behavior:
    """Random valid behavior with rational entries; generally signalling."""
    probs = []
    for _ in range(scenario.n_columns):
        weights = [rng.randrange(1, denom) for _ in range(scenario.column_size)]
        total = sum(weights)
        probs.extend(Fraction(w, total) for w in weights)
    return Behavior(scenario, tuple(probs))


def random_weights(n: int, rng: random.Random, denom: int = 60) -> list[Fraction]:
    raw = [rng.randrange(1, denom) for _ in range(n)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def ns_pool(scenario: Scenario, rng: random.Random, n_vertices: int = 24, n_lp: int = 2) -> list[Behavior]:
    """Pool of exact NS points: local vertices, the uniform behavior, the
    Bell minimizer and a few random-objective NS vertices (nonlocal in
    general)."""
    pool = [uniform_behavior(scenario)]
    seen = set()
    for _ in range(n_vertices):
        table = random_assignment(scenario, rng)
        if table not in seen:
            seen.add(table)
            pool.append(deterministic_vertex(scenario, table))
    functional = recursive_bkp(scenario.parties, scenario.settings, scenario.outcomes)
    sol = optimize_over_ns(scenario, functional.dense(), "min")
    if sol.status == "optimal":
        pool.append(sol.behavior(scenario))
    for _ in range(n_lp):
        obj = [Fraction(rng.randrange(-20, 21)) for _ in range(scenario.size)]
        sol = optimize_over_ns(scenario, obj, "min")
        if sol.status == "optimal":
            pool.append(sol.behavior(scenario))
    return pool


def random_ns_mixture(pool: Sequence[Behavior], rng: random.Random, k: int = 4) -> Behavior:
    """Random convex combination of up to k pool points (exact, NS)."""
    k = min(k, len(pool))
    picks = rng.sample(range(len(pool)), k)
    weights = random_weights(k, rng)
    return mix([pool[i] for i in picks], weights)


def project_to_ns(behavior: Behavior) -> Behavior:
    """Nearest nonsignalling behavior in L1 distance, solved exactly.

    The LP is p - u + v = q with p NS and p, u, v >= 0, minimizing
    sum(u + v); intended for small scenarios, as it triples the variables.
    """
    scn = behavior.scenario
    n = scn.size
    extra_eq = [(((i, 1), (n + i, -1), (2 * n + i, 1)), Fraction(q)) for i, q in enumerate(behavior.probs)]
    sol = optimize_over_ns(scn, [0] * n + [1] * (2 * n), "min", extra_eq)
    if sol.status != "optimal":
        raise RuntimeError(f"projection LP ended with status {sol.status}")
    return Behavior(scn, tuple(sol.point[:n]))
