"""Reference constructions that only the tests use."""

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from monogamy_lab.bell import BellFunctional, _resolved_term, evaluate, modular_groups
from monogamy_lab.errors import InputFormatError
from monogamy_lab.monogamy import _check_party, _check_shift, _require_ns, embedded_bkp
from monogamy_lab.quantum import _check_alpha
from monogamy_lab.sampling import random_assignment
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    behavior_from_json,
    deterministic_vertex,
    format_number,
    marginal,
    parse_int,
    parse_number,
    scenario_from_json,
    scenario_to_json,
)
from monogamy_lab.svamp import AdversaryModel

# Tolerance of the float check of a distribution's sum in modular_mean.
FLOAT_TOL = 1e-9


def modular_mean(dist: Sequence):
    """<W> = sum_i i P(W = i) for a distribution over {0..d-1}."""
    total = sum(dist)
    if abs(total - 1) > FLOAT_TOL if isinstance(total, float) else total != 1:
        raise ValueError(f"distribution sums to {total}")
    return sum(i * p for i, p in enumerate(dist))


def complement_mean_residuals(dist: Sequence) -> tuple:
    """Residuals of the two modular-mean identities; both vanish identically.

    For any variable W mod d:
      (a) <[W]> + <[-W-1]> = d - 1
      (b) <[W]> + <[-W]>   = d (1 - P([W] = 0))
    """
    d = len(dist)
    neg = [dist[(-i) % d] for i in range(d)]
    neg_minus1 = [dist[(-i - 1) % d] for i in range(d)]
    res_a = modular_mean(dist) + modular_mean(neg_minus1) - (d - 1)
    res_b = modular_mean(dist) + modular_mean(neg) - d * (1 - dist[0])
    return res_a, res_b


def enumerate_assignments(scenario: Scenario) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All d^(N*M) local deterministic strategies, as outcome tables."""
    rows = itertools.product(range(scenario.outcomes), repeat=scenario.settings)
    return itertools.product(rows, repeat=scenario.parties)


def evaluate_assignment(functional: BellFunctional, table: Sequence[Sequence[int]]):
    """Value on a local deterministic strategy, without building the behavior."""
    d = functional.scenario.outcomes
    total = 0
    for term in functional.terms:
        omega = term.shift
        for party, setting, sign in term.coeffs:
            omega += sign * table[party][setting]
        total += term.weight * (omega % d)
    return total


def classical_minimum(functional: BellFunctional):
    """Exact minimum over all local deterministic strategies."""
    return min(
        evaluate_assignment(functional, table)
        for table in enumerate_assignments(functional.scenario)
    )


def restrict(behavior: Behavior, parties: Sequence[int]) -> Behavior:
    """Marginal behavior of a party subset (complement settings fixed to 0)."""
    scn = behavior.scenario
    parties = list(parties)
    sub = Scenario(len(parties), scn.settings, scn.outcomes)
    probs = [0] * sub.size
    for xs in sub.all_settings():
        dist = marginal(behavior, parties, xs)
        base = sub.column_index(xs) * sub.column_size
        for a_idx, p in enumerate(dist):
            probs[base + a_idx] = p
    return Behavior(sub, tuple(probs))


def behavior_to_json(behavior: Behavior) -> dict:
    """The behavior file that ``validate`` and ``bell`` read."""
    return {
        "scenario": scenario_to_json(behavior.scenario),
        "encoding": "x-outer-a-inner",
        "values": [format_number(p) for p in behavior.probs],
    }


def pair_difference_distribution(
    behavior: Behavior, k: int, x_k: int, l: int, x_l: int
) -> tuple:
    """Distribution of [a_k - a_l] mod d at the given settings, the other
    settings at 0."""
    if k == l:
        raise ValueError("party subset has duplicates")
    get = behavior.probs.__getitem__
    groups = modular_groups(behavior.scenario, ((k, x_k, 1), (l, x_l, -1)))
    return tuple(sum(map(get, idx)) for idx in groups)


def agreement_probability(
    behavior: Behavior, k: int, x_k: int, x_last: int, m: int = 0, check: bool = True
) -> tuple:
    """p(A^k_{x_k} = [A^{last}_{x_last} + m]) and whether I + 1 >= d p
    holds; the shift m is one of range(d)."""
    scn = behavior.scenario
    d = scn.outcomes
    _check_party(scn, k)
    _check_shift(scn, m)
    if check:
        _require_ns(behavior)
    dist = pair_difference_distribution(behavior, k, x_k, scn.parties - 1, x_last)
    p = dist[m]
    value = evaluate(embedded_bkp(scn), behavior)
    return p, value + 1 >= d * p


def alpha_chsh_value(
    t: np.ndarray, a_angles: tuple[float, float], b_angles: tuple[float, float], alpha: float
) -> float:
    """alpha (<A1B1> + <A1B2>) + <A2B1> - <A2B2> at explicit angles.  The
    observable at angle v is sin(v) sigma_x + cos(v) sigma_z, and
    <A x B> = a . T b for the directions a, b = (sin v, cos v) of the two."""
    _check_alpha(alpha)
    a, b = ([[math.sin(v), math.cos(v)] for v in angles] for angles in (a_angles, b_angles))
    e = np.array(a) @ t @ np.array(b).T  # e[i, j] = <A_{i+1} B_{j+1}>
    return float(alpha * (e[0, 0] + e[0, 1]) + e[1, 0] - e[1, 1])


def chained_bkp(M: int, d: int) -> BellFunctional:
    """The bipartite chained functional on (2, M, d) from its defining sum;
    classical bound d-1.  ``recursive_bkp(2, M, d)`` must build the same
    terms."""
    if M < 2 or d < 2:
        raise ValueError("need M >= 2 and d >= 2")
    scn = Scenario(2, M, d)
    terms = []
    for x in range(M):
        terms.append(_resolved_term(1, [(0, x, 1), (1, x, -1)], 0, scn))
        terms.append(_resolved_term(1, [(1, x, 1), (0, x + 1, -1)], 0, scn))
    return BellFunctional(scn, tuple(terms), Fraction(d - 1), Fraction(0))


def product(b1: Behavior, b2: Behavior) -> Behavior:
    """Independent join of two behaviors sharing M and d.

    p((a1, a2) | (x1, x2)) = p1(a1|x1) * p2(a2|x2), with the first factor's
    parties preceding the second's.
    """
    s1, s2 = b1.scenario, b2.scenario
    if s1.settings != s2.settings or s1.outcomes != s2.outcomes:
        raise ValueError("factors must share settings and outcomes counts")
    scn = Scenario(s1.parties + s2.parties, s1.settings, s1.outcomes)
    probs = [0] * scn.size
    for x1 in s1.all_settings():
        for x2 in s2.all_settings():
            x = x1 + x2
            for a1 in s1.all_outcomes():
                p1 = b1.probs[s1.index(x1, a1)]
                if p1 == 0:
                    continue
                for a2 in s2.all_outcomes():
                    probs[scn.index(x, a1 + a2)] = p1 * b2.probs[s2.index(x2, a2)]
    return Behavior(scn, tuple(probs))


def ref_ns_rows_labelled(scn: Scenario) -> tuple:
    """(kept, row) for every no-signalling row, one range-checked
    ``Scenario.index`` per entry: for each party k, each setting tuple xo of
    the others, each x_k > 0 and each outcome tuple ao of the others, the
    row holds the pairs ((xo, x_k), (ao, a_k)) with +1 and ((xo, 0), (ao,
    a_k)) with -1, a_k ascending.  ``kept`` is the basis rule of
    ``scenario.ns_row_entries``: no party j < k has x_j != 0 and a_j = d - 1."""
    rows = []
    for k in range(scn.parties):
        others = [j for j in range(scn.parties) if j != k]
        for xo in itertools.product(range(scn.settings), repeat=len(others)):
            for xk in range(1, scn.settings):
                for ao in itertools.product(range(scn.outcomes), repeat=len(others)):
                    x = [0] * scn.parties
                    a = [0] * scn.parties
                    for j, v in zip(others, xo):
                        x[j] = v
                    for j, v in zip(others, ao):
                        a[j] = v
                    row = []
                    for ak in range(scn.outcomes):
                        a[k] = ak
                        x[k] = xk
                        row.append((scn.index(x, a), 1))
                        x[k] = 0
                        row.append((scn.index(x, a), -1))
                    kept = not any(x[j] and a[j] == scn.outcomes - 1 for j in range(k))
                    rows.append((kept, tuple(row)))
    return tuple(rows)


def ref_ns_row_nonzeros(scn: Scenario) -> tuple:
    """Every no-signalling row of :func:`ref_ns_rows_labelled` as
    (column, coefficient) pairs, kept or not."""
    return tuple(row for _, row in ref_ns_rows_labelled(scn))


def ref_ns_basis_rows(scn: Scenario) -> tuple:
    """The rows of :func:`ref_ns_row_nonzeros` that the basis rule keeps, in
    order.  ``scenario.ns_row_entries`` and the no-signalling rows of
    ``polylp.ns_constraints`` must hold the same rows in the same order."""
    return tuple(row for kept, row in ref_ns_rows_labelled(scn) if kept)


def ref_normalization_rows(scn: Scenario) -> list:
    """One row per setting tuple, in column order: its column sums to 1."""
    size = scn.column_size
    return [tuple((base + i, 1) for i in range(size)) for base in range(0, scn.size, size)]


class IntegerSpan:
    """The exact span of integer rows, held in echelon form over the
    integers.  Each held row is a {column: int} dict whose lowest column is
    its pivot, no two alike.  A row is reduced by the held row of its lowest
    column, scaled without fractions (row = g row - f pivot row), and
    divided by its content, until its lowest column has no held row or
    nothing is left."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, pairs) -> dict:
        row = {j: a for j, a in pairs if a}
        while row:
            p = min(row)
            prow = self.pivots.get(p)
            if prow is None:
                break
            f, g = row[p], prow[p]
            row = {j: g * v for j, v in row.items()}
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
            h = math.gcd(*row.values()) if row else 1
            if h > 1:
                row = {j: v // h for j, v in row.items()}
        return row

    def add(self, pairs) -> bool:
        """Hold the row; False if it was already in the span."""
        row = self.reduce(pairs)
        if row:
            self.pivots[min(row)] = row
        return bool(row)

    def __contains__(self, pairs) -> bool:
        return not self.reduce(pairs)


def random_local_vertex(scenario: Scenario, rng: random.Random) -> Behavior:
    return deterministic_vertex(scenario, random_assignment(scenario, rng))


def model_to_json(model: AdversaryModel) -> dict:
    return {
        "scenario": scenario_to_json(model.scenario),
        "prior": [format_number(p) for p in model.prior],
        "strategies": [
            {
                "behavior": behavior_to_json(b),
                "inputs": {
                    ",".join(map(str, x)): format_number(p) for x, p in dist.items()
                },
            }
            for b, dist in zip(model.behaviors, model.input_dists)
        ],
    }


def model_from_json(obj: dict, exact: bool = True) -> AdversaryModel:
    """Read a :func:`model_to_json` object; malformed input raises
    InputFormatError, an inconsistent model ValueError."""
    try:
        scn = scenario_from_json(obj["scenario"])
        prior = [parse_number(p, exact) for p in obj["prior"]]
        behaviors = []
        input_dists = []
        for strat in obj["strategies"]:
            behaviors.append(behavior_from_json(strat["behavior"], exact))
            dist = {}
            for key, p in strat["inputs"].items():
                x = tuple(parse_int(v) for v in key.split(","))
                if len(x) != scn.parties or not all(0 <= v < scn.settings for v in x):
                    raise InputFormatError(
                        f"input {key!r} is not a setting tuple of N={scn.parties}, M={scn.settings}"
                    )
                dist[x] = parse_number(p, exact)
            input_dists.append(dist)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputFormatError(f"bad adversary model object: {exc}") from exc
    return AdversaryModel(scn, behaviors, input_dists, prior)
