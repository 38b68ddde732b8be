"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload is a fixed list of operations built from the seed.  Each
operation calls the package only through public module attributes (looked
up at call time, so the tracer's wrappers see every call) and has a check
that runs after the operation, outside its timed interval.  The checks use
only public results (statuses, optimizer points, values), never the layout
of the solver's internal no-signalling rows, so they survive engine changes.

Workloads:

* ``ns-lp``: exact LPs of 64-216 variables over NS polytopes.
* ``quantum``: float numpy/scipy work, no LP and no Fraction.
* ``ra-exact``: exact-rational adversary models; only tiny LPs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from monogamy_lab import bell, monogamy, polylp, quantum, sampling, scenario, svamp

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed call.  ``check`` maps its result to a list of problems."""

    label: str
    phase: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: int = 1  # units of work done, for the phase's rate


# ---------------------------------------------------------------------------
# Shared checks.


def behavior_problems(scn, probs, what: str) -> list:
    """A point must be a valid, exactly nonsignalling behavior."""
    if probs is None or len(probs) != scn.size:
        return [f"{what}: no point of length {scn.size}"]
    b = scenario.Behavior(scn, tuple(probs))
    problems = [f"{what}: {p}" for p in scenario.validate(b, 0)]
    ok, worst = scenario.is_nonsignalling(b, 0)
    if not ok:
        problems.append(f"{what}: signalling by {worst}")
    return problems


def dot(coeffs, probs):
    return sum(Fraction(c) * Fraction(p) for c, p in zip(coeffs, probs) if c)


# ---------------------------------------------------------------------------
# ns-lp: certified NS minima and tightness scans.

NS_MIN_SCENARIOS = {
    "full": [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)],
    "tiny": [(2, 2, 2), (2, 2, 3)],
}
SCAN_SCENARIOS = {"full": [(3, 2, 2), (3, 2, 3)], "tiny": [(3, 2, 2)]}
SCAN_TARGETS = {"full": 5, "tiny": 2}

# Theorem values: the chained functional's NS minimum is 0 and the monogamy
# left-hand side's NS minimum is d - 1.
NS_MINIMUM = Fraction(0)


def _pairing(rng: random.Random, scn) -> tuple:
    """(k, x_k, x_last, m): Bell party, its setting, outsider setting, shift."""
    return (
        rng.randrange(scn.parties - 1),
        rng.randrange(scn.settings),
        rng.randrange(scn.settings),
        rng.randrange(scn.outcomes),
    )


def _ns_min_op(dims) -> Op:
    scn = scenario.Scenario(*dims)

    def run():
        functional = bell.recursive_bkp(*dims)
        objective = functional.dense()
        return functional, objective, polylp.optimize_over_ns(scn, objective, "min")

    def check(result):
        functional, objective, sol = result
        if sol.status != "optimal":
            return [f"status {sol.status}"]
        problems = behavior_problems(scn, sol.point, "optimizer point")
        if problems:
            return problems
        achieved = dot(objective, sol.point)
        termwise = bell.evaluate(functional, scenario.Behavior(scn, tuple(sol.point)))
        if not (achieved == termwise == sol.value == NS_MINIMUM):
            return [f"objective.point {achieved}, term-wise {termwise}, value {sol.value}, "
                    f"expected {NS_MINIMUM}"]
        return []

    return Op(f"ns_min{dims}", "ns_min", run, check)


def _lhs_min_op(dims, pairing) -> Op:
    scn = scenario.Scenario(*dims)
    k, x_k, x_last, _ = pairing
    expected = Fraction(scn.outcomes - 1)

    def run():
        return monogamy.minimize_lhs_over_ns(scn, k, x_k, x_last)

    def check(sol):
        if sol.status != "optimal":
            return [f"status {sol.status}"]
        problems = behavior_problems(scn, sol.point, "optimizer point")
        if problems:
            return problems
        objective = monogamy.monogamy_functional(scn, k, x_k, x_last).dense()
        achieved = dot(objective, sol.point)
        termwise = monogamy.monogamy_lhs_general(
            scenario.Behavior(scn, tuple(sol.point)), k, x_k, x_last, check=False
        )
        if not (achieved == termwise == sol.value == expected):
            return [f"objective.point {achieved}, term-wise {termwise}, value {sol.value}, "
                    f"expected {expected}"]
        return []

    return Op(f"lhs_min{dims}{pairing[:3]}", "ns_min", run, check)


def _scan_op(dims, pairing, targets) -> Op:
    scn = scenario.Scenario(*dims)
    k, x_k, x_last, m = pairing
    d = scn.outcomes

    def run():
        return monogamy.tightness_scan(scn, k, x_k, x_last, grid=targets, m=m)

    def check(rows):
        if len(rows) != len(targets):
            return [f"{len(rows)} rows for {len(targets)} targets"]
        problems = []
        for row, t in zip(rows, targets):
            if row.target != t or row.status != "optimal" or row.lp_max != (1 + t) / d:
                problems.append(f"t={t}: status {row.status}, lp_max {row.lp_max}, "
                                f"expected {(1 + t) / d}")
        return problems

    return Op(f"scan{dims}{pairing}", "scan", run, check, len(targets))


def build_ns_lp(seed: int, size: str) -> list:
    """Seed 0 is the acceptance instance: pairing k = x_k = x_last = m = 0
    and the default grid for every scan.  Other seeds draw the pairing of the
    monogamy minimum and the (3,2,2) pairing and targets t = (d-1) j/8 (five
    distinct j in 0..8).  The (3,2,3) scan stays at the acceptance instance:
    its time varies by half across drawn pairings and targets, which would
    swamp a program change in a run of a few scans."""
    rng = random.Random(f"ns-lp/{seed}")
    ops = [_ns_min_op(dims) for dims in NS_MIN_SCENARIOS[size]]
    lhs_dims = (3, 2, 2)
    lhs_scn = scenario.Scenario(*lhs_dims)
    ops.append(_lhs_min_op(lhs_dims, (0, 0, 0, 0) if seed == 0 else _pairing(rng, lhs_scn)))
    n_targets = SCAN_TARGETS[size]
    for dims in SCAN_SCENARIOS[size]:
        scn = scenario.Scenario(*dims)
        if seed == 0 or dims == (3, 2, 3):
            pairing = (0, 0, 0, 0)
            targets = monogamy.default_grid(scn.outcomes)[:n_targets]
        else:
            pairing = _pairing(rng, scn)
            js = sorted(rng.sample(range(9), n_targets))
            targets = [Fraction((scn.outcomes - 1) * j, 8) for j in js]
        ops.append(_scan_op(dims, pairing, targets))
    return ops


# ---------------------------------------------------------------------------
# quantum: chained violations, key rates, three-qubit Monte-Carlo.

VIOLATION_PAIRS = {
    "full": [(2, 2), (4, 2), (8, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
    "tiny": [(2, 2), (2, 3)],
}
MC_BATCHES = {"full": (10, 200), "tiny": (2, 20)}  # (batches, states per batch)
MC_ALPHAS = [1.0, 1.5, 2.0, 3.0]
VALUE_TOL = 1e-9


def quantum_reference() -> dict:
    """Recorded chained-violation values for d >= 3, keyed "M,d"."""
    with open(HERE / "quantum_ref.json") as fh:
        return json.load(fh)["values"]


def _violation_op(M: int, d: int, seed: int, ref) -> Op:
    def run():
        value = quantum.chained_quantum_violation(M, d, seed=seed).value
        tight = quantum.key_rate(M, d, "tight", violation=value)
        prior = quantum.key_rate(M, d, "prior", violation=value)
        return value, tight, prior

    def check(result):
        value, tight, prior = result
        problems = []
        if d == 2:
            closed = 2 * M * math.sin(math.pi / (4 * M)) ** 2
            if not abs(value - closed) <= VALUE_TOL:
                problems.append(f"value {value!r} != closed form {closed!r}")
        elif ref is None:
            problems.append("no recorded reference value")
        elif not value <= ref + VALUE_TOL:
            # the optimizer returns an upper bound, so only worse values fail
            problems.append(f"value {value!r} above recorded {ref!r}")
        if not 0 <= value < d - 1:
            problems.append(f"value {value!r} outside [0, {d - 1})")
        if not tight >= prior:
            problems.append(f"key rate tight {tight!r} < prior {prior!r}")
        return problems

    return Op(f"violation(M={M},d={d})", "violation_ladder", run, check)


def _mc_op(batch: int, n_states: int, mc_seed: int) -> Op:
    def run():
        return quantum.monogamy_montecarlo(n_states, MC_ALPHAS, seed=mc_seed)

    def check(summary):
        problems = []
        if summary["n_states"] != n_states:
            problems.append(f"{summary['n_states']} states, expected {n_states}")
        if summary["violations"] != 0:
            problems.append(f"{summary['violations']} violations")
        if not summary["worst_slack"] >= -1e-7:
            problems.append(f"worst slack {summary['worst_slack']!r}")
        return problems

    return Op(f"montecarlo#{batch}", "montecarlo", run, check, n_states)


def build_quantum(seed: int, size: str) -> list:
    """The optimizer seed is the benchmark seed (seed 0 is the library
    default); Monte-Carlo batch seeds are drawn from it."""
    refs = quantum_reference()
    ops = [
        _violation_op(M, d, seed, refs.get(f"{M},{d}"))
        for M, d in VIOLATION_PAIRS[size]
    ]
    rng = random.Random(f"quantum/{seed}")
    batches, n_states = MC_BATCHES[size]
    ops += [_mc_op(b, n_states, rng.randrange(2**32)) for b in range(batches)]
    return ops


# ---------------------------------------------------------------------------
# ra-exact: exact adversary models, pools and projections.

RA_SCENARIOS = [(2, 2, 2), (2, 3, 2), (2, 2, 3)]
RA_SIZES = {"full": (3, 200, 10), "tiny": (1, 6, 2)}  # (rounds, models per round, projections)


def _pool_op(key, dims, pool_seed: str, pools: dict) -> Op:
    scn = scenario.Scenario(*dims)

    def run():
        pools[key] = sampling.ns_pool(scn, random.Random(pool_seed))
        return pools[key]

    def check(pool):
        problems = []
        for i, b in enumerate(pool):
            problems += behavior_problems(scn, b.probs, f"pool point {i}")
        return problems

    return Op(f"ns_pool{dims}#{key[0]}", "ns_pool", run, check)


def _model_op(key, dims, model_seed: str, pools: dict) -> Op:
    scn = scenario.Scenario(*dims)

    def run():
        rng = random.Random(model_seed)
        model = svamp.random_adversary_model(scn, rng, pools[key])
        observed = svamp.observed_behavior(model)
        value = bell.evaluate(svamp.bell_functional_for(scn), observed)
        return [
            svamp.variational_bound(model, x, k, observed=observed, bell_value=value)
            for x in scn.all_settings()
            for k in range(scn.parties)
        ]

    def check(results):
        expected = scn.settings**scn.parties * scn.parties
        if len(results) != expected:
            return [f"{len(results)} bound checks, expected {expected}"]
        return [
            f"bound violated at x={c.x}, party {c.party}: {c.lhs} > {c.rhs}"
            for c in results
            if not c.satisfied or (c.rhs is not None and c.lhs > c.rhs)
        ]

    return Op(f"model{dims}", "model", run, check)


def _projection_op(dims, behavior) -> Op:
    scn = scenario.Scenario(*dims)
    uniform = scenario.uniform_behavior(scn)

    def l1(a, b):
        return sum(abs(Fraction(u) - Fraction(v)) for u, v in zip(a.probs, b.probs))

    def run():
        return sampling.project_to_ns(behavior)

    def check(projected):
        problems = behavior_problems(scn, projected.probs, "projection")
        # the uniform behavior is NS, so the nearest NS point is no farther
        if not problems and l1(behavior, projected) > l1(behavior, uniform):
            problems.append("projection farther than the uniform behavior")
        return problems

    return Op(f"project_to_ns{dims}", "projection", run, check)


def build_ra_exact(seed: int, size: str) -> list:
    """Each round builds one NS pool per scenario, then runs adversary models
    round-robin over the scenarios; projections of random behaviors end the
    pass."""
    rounds, n_models, n_proj = RA_SIZES[size]
    pools: dict = {}
    ops = []
    for r in range(rounds):
        for dims in RA_SCENARIOS:
            ops.append(_pool_op((r, dims), dims, f"ra-exact/{seed}/{r}/{dims}", pools))
        for i in range(n_models):
            dims = RA_SCENARIOS[i % len(RA_SCENARIOS)]
            ops.append(_model_op((r, dims), dims, f"ra-exact/{seed}/{r}/model{i}", pools))
    rng = random.Random(f"ra-exact/{seed}/projections")
    for i in range(n_proj):
        dims = RA_SCENARIOS[i % len(RA_SCENARIOS)]
        behavior = sampling.random_behavior(scenario.Scenario(*dims), rng)
        ops.append(_projection_op(dims, behavior))
    return ops


WORKLOAD_BUILD = {"ns-lp": build_ns_lp, "quantum": build_quantum, "ra-exact": build_ra_exact}


def build(workload: str, seed: int, size: str = "full") -> list:
    """The workload's operations for this seed; the same seed gives the same
    operations and inputs."""
    return WORKLOAD_BUILD[workload](seed, size)
