"""Monogamy trade-offs between Bell violation and outsider correlations.

For an (N+1)-party nonsignalling behavior, the violation I of the N-party
chained functional bounds how well the extra party's outcomes can agree with
any single party's outcomes:

    I + <[A^k_x - E_y]> + <[E_y - A^k_x]>  >=  d - 1
    I + 1  >=  d p(A^k_x = [E_y + m])

for every party k, settings x, y and shift m.  Both forms are linked by the
modular-mean identity <[W]> + <[-W]> = d (1 - P([W]=0)).  The bounds are
tight: for every target violation t in [0, d-1] the maximal agreement
probability over the NS polytope equals (1 + t)/d, which the LP scan here
certifies exactly.  The same trade-off caps the guessing probability of an
eavesdropper at (1 + I)/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SignallingInputError
from .bell import BellFunctional, ModularTerm, evaluate, modular_groups, recursive_bkp
from .polylp import LPSolution, certify, ns_program, optimize_over_ns
from .scenario import Behavior, Scenario, csv_text, format_number, is_nonsignalling


def _require_ns(behavior: Behavior, tol) -> None:
    ok, worst = is_nonsignalling(behavior, tol)
    if not ok:
        raise SignallingInputError(
            f"monogamy relations assume a nonsignalling behavior "
            f"(worst marginal deviation {worst})"
        )


def _check_party(scenario: Scenario, k: int) -> None:
    """k must name one of the N Bell-test parties of an (N+1)-party scenario."""
    if scenario.parties < 3:
        raise ValueError("need at least 3 parties (N >= 2 plus the outsider)")
    if not 0 <= k < scenario.parties - 1:
        raise ValueError("k must index one of the first N parties")


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


def monogamy_lhs_general(
    behavior: Behavior,
    k: int,
    x_k: int,
    x_last: int,
    check: bool = True,
    tol=0,
):
    """I^{N,M,d} on the first N parties plus both cross means with the last
    party (the terms of :func:`monogamy_functional`); at least d-1 for every
    nonsignalling behavior."""
    scn = behavior.scenario
    _check_party(scn, k)
    if check:
        _require_ns(behavior, tol)
    return evaluate(monogamy_functional(scn, k, x_k, x_last), behavior)


def agreement_probability(
    behavior: Behavior,
    k: int,
    x_k: int,
    x_last: int,
    m: int = 0,
    check: bool = True,
    tol=0,
) -> tuple:
    """p(A^k_{x_k} = [A^{last}_{x_last} + m]) and whether I + 1 >= d p holds."""
    scn = behavior.scenario
    d = scn.outcomes
    _check_party(scn, k)
    if check:
        _require_ns(behavior, tol)
    dist = pair_difference_distribution(behavior, k, x_k, scn.parties - 1, x_last)
    p = dist[m % d]
    value = evaluate(embedded_bkp(scn), behavior)
    return p, value + 1 >= d * p


def guessing_bound(violation, d: int):
    """Tight cap (1 + I)/d on any outcome probability, clamped to 1."""
    if violation < 0:
        raise ValueError("violation must be nonnegative")
    if isinstance(violation, float):
        return min((1 + violation) / d, 1.0)
    return min(Fraction(1 + violation, d), Fraction(1))


def guessing_bound_prior(violation, N: int, M: int, d: int):
    """Earlier guessing-probability cap (1 + d^N (N-1) I / 4)/d, clamped.

    M is part of the scenario signature but does not enter the formula.
    Nontrivial only while I < 4(d-1)/(d^N (N-1)).
    """
    if violation < 0:
        raise ValueError("violation must be nonnegative")
    if N < 2 or M < 1:
        raise ValueError("need N >= 2 and M >= 1")
    if isinstance(violation, float):
        return min((1 + d**N * (N - 1) * violation / 4) / d, 1.0)
    return min((1 + Fraction(d**N * (N - 1), 4) * violation) / d, Fraction(1))


# ---------------------------------------------------------------------------
# Dense-vector builders for LP objectives/constraints on the big scenario.


def embedded_bkp(scenario: Scenario) -> BellFunctional:
    """The N-party functional carried on an (N+1)-party scenario (terms only
    reference the first N parties; the outsider's setting defaults to 0)."""
    base = recursive_bkp(scenario.parties - 1, scenario.settings, scenario.outcomes)
    return BellFunctional(scenario, base.terms, base.classical_bound, base.ns_minimum)


def monogamy_functional(scenario: Scenario, k: int, x_k: int, x_last: int) -> BellFunctional:
    """The full left-hand side as one functional on the (N+1)-party scenario."""
    _check_party(scenario, k)
    base = embedded_bkp(scenario)
    last = scenario.parties - 1
    cross = (
        ModularTerm(Fraction(1), ((k, x_k, 1), (last, x_last, -1)), 0),
        ModularTerm(Fraction(1), ((k, x_k, -1), (last, x_last, 1)), 0),
    )
    return BellFunctional(scenario, base.terms + cross, Fraction(scenario.outcomes - 1))


def agreement_vector(scenario: Scenario, k: int, x_k: int, x_last: int, m: int = 0) -> list:
    """Dense coefficients of p(A^k_{x_k} = [A^last_{x_last} + m]),
    outsider pairing fixed, remaining settings at 0; the shift m is one of
    range(d)."""
    scn = scenario
    _check_party(scn, k)
    if m not in range(scn.outcomes):
        raise ValueError(f"shift {m} out of range for d={scn.outcomes}")
    vec = [Fraction(0)] * scn.size
    for i in modular_groups(scn, ((k, x_k, 1), (scn.parties - 1, x_last, -1)))[m]:
        vec[i] = Fraction(1)
    return vec


@dataclass
class TightnessRow:
    """One target of a scan; ``solution`` is the certified LP outcome of
    the row's own LP, None for a target out of range."""

    target: Fraction
    status: str
    lp_max: Fraction | None
    bound: Fraction
    tight: bool
    solution: LPSolution | None = None


def default_grid(d: int) -> list[Fraction]:
    top = Fraction(d - 1)
    return [top * q for q in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))]


def tightness_scan(
    scenario: Scenario,
    k: int,
    x_k: int,
    x_last: int,
    grid: Sequence | None = None,
    m: int = 0,
) -> list[TightnessRow]:
    """Maximize the agreement probability over NS behaviors with the Bell
    value pinned to each grid target; tight means the LP max equals
    (1 + t)/d exactly.

    A grid with a target strictly inside (0, d - 1) has the LP solved at
    both ends, t = 0 and t = d - 1.  At such a target t, the mix (1 - t/(d-1)) x_0 + t/(d-1) x_{d-1} of the
    two end optima is feasible, and it is optimal wherever the LP value is
    linear in t, which the bound's tightness asserts.  The duals of the
    targets solved so far are offered in turn with that point to
    :func:`certify` on the row's own LP; the first pair that passes gives
    the row.  A target that no pair certifies is solved, and its dual joins
    the pool: a dual of a target inside a linear stretch of the value
    proves every other target on it.  Every row is certified exactly on its
    own LP, so the tightness only decides how many LPs are skipped."""
    d = scenario.outcomes
    obj = agreement_vector(scenario, k, x_k, x_last, m)
    targets = [Fraction(t) for t in (default_grid(d) if grid is None else grid)]
    top = Fraction(d - 1)
    # the Bell row pinned to each target, as (column, coefficient) nonzeros
    i_row = [(j, c) for j, c in enumerate(embedded_bkp(scenario).dense()) if c]
    solved: dict = {}
    duals: list = []

    def solve_at(t: Fraction) -> LPSolution:
        if t not in solved:
            sol = solved[t] = optimize_over_ns(scenario, obj, "max", extra_eq=[(i_row, t)])
            if sol.status == "optimal":
                duals.append(sol.dual)
        return solved[t]

    ends = None
    if any(0 < t < top for t in targets):
        ends = solve_at(Fraction(0)), solve_at(top)
        if any(end.status != "optimal" for end in ends):
            ends = None

    def certified_mix(t: Fraction) -> LPSolution | None:
        s = t / top
        point = [a if a == b else (1 - s) * a + s * b for a, b in zip(ends[0].point, ends[1].point)]
        lp = ns_program(scenario, obj, "max", extra_eq=[(i_row, t)])
        while duals:
            sol = certify(lp, point, duals[0])
            if sol is not None:
                return sol
            # b.y is affine in t and meets the optimum at y's own target, so
            # where the optimum is linear a dual that misses once misses at
            # every other target
            duals.pop(0)
        return None

    rows = []
    for t in targets:
        bound = (1 + t) / d
        if t < 0 or t > top:
            # the trade-off only constrains targets up to the classical bound;
            # beyond it the cap (1+t)/d exceeds 1
            rows.append(TightnessRow(t, "out-of-range", None, bound, False))
            continue
        sol = None
        if ends is not None and t not in solved:
            sol = certified_mix(t)
        if sol is None:
            sol = solve_at(t)
        value = sol.value if sol.status == "optimal" else None
        rows.append(TightnessRow(t, sol.status, value, bound, value == bound, sol))
    return rows


def minimize_lhs_over_ns(scenario: Scenario, k: int, x_k: int, x_last: int) -> LPSolution:
    """LP minimum of the monogamy left-hand side over the NS polytope."""
    func = monogamy_functional(scenario, k, x_k, x_last)
    return optimize_over_ns(scenario, func.dense(), "min")


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class MonogamyRecord:
    k: int
    x_k: int
    x_last: int
    m: int
    lhs: object
    bound: object
    agreement: object
    satisfied: bool

    @property
    def slack(self):
        return self.lhs - self.bound


def monogamy_report(behavior: Behavior, tol=0) -> list[MonogamyRecord]:
    """Check every (k, x_k, x_last, m) combination on one behavior."""
    scn = behavior.scenario
    _require_ns(behavior, tol)
    d = scn.outcomes
    n = scn.parties - 1
    value = evaluate(embedded_bkp(scn), behavior)
    records = []
    for k in range(n):
        for x_k in range(scn.settings):
            for x_last in range(scn.settings):
                dist = pair_difference_distribution(behavior, k, x_k, n, x_last)
                for m in range(d):
                    p = dist[m]
                    records.append(
                        MonogamyRecord(
                            k=k,
                            x_k=x_k,
                            x_last=x_last,
                            m=m,
                            lhs=value + 1,
                            bound=d * p,
                            agreement=p,
                            satisfied=value + 1 >= d * p,
                        )
                    )
    return records


# the columns of a monogamy report and of a tightness scan
_CSV_HEADER = ["k", "x_k", "x_last", "m", "t", "lhs", "bound", "slack"]


def report_to_csv(records: Sequence[MonogamyRecord]) -> str:
    return csv_text(_CSV_HEADER, (
        [r.k, r.x_k, r.x_last, r.m, "",
         format_number(r.lhs), format_number(r.bound), format_number(r.slack)]
        for r in records
    ))


def scan_to_json(rows: Sequence[TightnessRow], k: int, x_k: int, x_last: int, m: int = 0) -> list[dict]:
    return [
        {
            "k": k,
            "x_k": x_k,
            "x_last": x_last,
            "m": m,
            "t": format_number(r.target),
            "status": r.status,
            "lp_max": format_number(r.lp_max) if r.lp_max is not None else None,
            "bound": format_number(r.bound),
            "tight": r.tight,
        }
        for r in rows
    ]


def scan_to_csv(rows: Sequence[TightnessRow], k: int, x_k: int, x_last: int, m: int = 0) -> str:
    """A row without an optimum has an empty lhs and its status as slack."""
    return csv_text(_CSV_HEADER, (
        [k, x_k, x_last, m, format_number(r.target), "", format_number(r.bound), r.status]
        if r.lp_max is None
        else [k, x_k, x_last, m, format_number(r.target), format_number(r.lp_max),
              format_number(r.bound), format_number(r.lp_max - r.bound)]
        for r in rows
    ))
