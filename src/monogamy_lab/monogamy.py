"""Monogamy trade-offs between Bell violation and outsider correlations.

For an (N+1)-party nonsignalling behavior, the violation I of the N-party
chained functional bounds how well the extra party's outcomes can agree with
any single party's outcomes:

    I + <[A^k_x - E_y]> + <[E_y - A^k_x]>  >=  d - 1
    I + 1  >=  d p(A^k_x = [E_y + m])

for every party k, settings x, y and shift m.  Both forms are linked by the
modular-mean identity <[W]> + <[-W]> = d (1 - P([W]=0)).  The bounds are
tight: for every target violation t in [0, d-1] the maximal agreement
probability over the NS polytope equals (1 + t)/d.  The LP scan here
certifies it exactly, for the whole interval at once: two end optima and
one dual prove every target between them.  The same trade-off caps the
guessing probability of an eavesdropper at (1 + I)/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SignallingInputError
from .bell import BellFunctional, ModularTerm, evaluate, modular_groups, recursive_bkp
from .polylp import LPSolution, optimize_over_ns
from .scenario import Behavior, Scenario, csv_text, format_number, is_nonsignalling


def _require_ns(behavior: Behavior) -> None:
    ok, worst = is_nonsignalling(behavior)
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


def _check_shift(scenario: Scenario, m: int) -> None:
    """The outcome shift m must be one of range(d)."""
    if m not in range(scenario.outcomes):
        raise ValueError(f"shift {m} out of range for d={scenario.outcomes}")


def monogamy_lhs_general(behavior: Behavior, k: int, x_k: int, x_last: int, check: bool = True):
    """I^{N,M,d} on the first N parties plus both cross means with the last
    party (the terms of :func:`monogamy_functional`); at least d-1 for every
    nonsignalling behavior."""
    scn = behavior.scenario
    _check_party(scn, k)
    if check:
        _require_ns(behavior)
    return evaluate(monogamy_functional(scn, k, x_k, x_last), behavior)


def guessing_bound(violation, d: int):
    """Tight cap (1 + I)/d on any outcome probability, clamped to 1."""
    if not violation >= 0:  # NaN too
        raise ValueError("violation must be nonnegative")
    if isinstance(violation, float):
        return min((1 + violation) / d, 1.0)
    return min(Fraction(1 + violation, d), Fraction(1))


def guessing_bound_prior(violation, N: int, d: int):
    """Earlier guessing-probability cap (1 + d^N (N-1) I / 4)/d, clamped.

    Nontrivial only while I < 4(d-1)/(d^N (N-1)).
    """
    if not violation >= 0:  # NaN too
        raise ValueError("violation must be nonnegative")
    if N < 2:
        raise ValueError("need N >= 2")
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
    _check_shift(scn, m)
    vec = [Fraction(0)] * scn.size
    for i in modular_groups(scn, ((k, x_k, 1), (scn.parties - 1, x_last, -1)))[m]:
        vec[i] = Fraction(1)
    return vec


@dataclass
class TightnessRow:
    """One target of a scan; ``solution`` is the certified optimum of the
    row's own LP (engine 'interval' for a target inside an interval
    certificate, see :func:`tightness_scan`), None for a target out of
    range."""

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

    A grid with a target strictly inside (0, d - 1) is proved by one
    interval certificate: the optima x_0 and x_top of the LPs at t = 0 and
    t = d - 1, and one dual y.  Only the right side of the pinned Bell row,
    the LP's last row, depends on t.  So y is dual feasible at every t, and
    b(t).y = b(t_y).y + (t - t_y) y_pin, with y_pin its Bell multiplier.
    The mix x(t) = (1 - s) x_0 + s x_top, s = t/(d - 1), is feasible, and
    its value (1 - s) v_0 + s v_top is affine in t as well.  If y proves
    both end optima, strong duality therefore holds at every t between
    them, and the row at t gets that value, the mix and y, with engine
    'interval'.  The dual of t = 0 is tried first, then that of the
    midpoint (d - 1)/2, solved once.  If neither proves both ends, or an
    end is not optimal, every in-range target is solved as its own LP.

    Each solve after the first starts HiGHS from the final basis of the
    scan's previous solve (``LPSolution.basis``, see ``polylp.solve``):
    only the pinned row's right side changed, so that basis stays dual
    feasible and the dual simplex goes on from it."""
    d = scenario.outcomes
    obj = agreement_vector(scenario, k, x_k, x_last, m)
    targets = [Fraction(t) for t in (default_grid(d) if grid is None else grid)]
    top = Fraction(d - 1)
    # the Bell row pinned to each target, as (column, coefficient) nonzeros
    i_row = [(j, c) for j, c in enumerate(embedded_bkp(scenario).dense()) if c]
    solved: dict = {}
    basis = None  # HiGHS's final basis of the scan's previous solve

    def solve_at(t: Fraction) -> LPSolution:
        nonlocal basis
        if t not in solved:
            solved[t] = optimize_over_ns(scenario, obj, "max", extra_eq=[(i_row, t)], start=basis)
            basis = solved[t].basis
        return solved[t]

    dual = None
    if any(0 < t < top for t in targets):
        ends = solve_at(Fraction(0)), solve_at(top)
        if all(end.status == "optimal" for end in ends):
            for t_y in (Fraction(0), top / 2):
                sol = solve_at(t_y)
                # y proves -b(t).y = v_y - (t - t_y) y_pin at t for this 'max'
                # LP; the Bell row is the last row of optimize_over_ns's LP
                if sol.status == "optimal" and all(
                    sol.value - (t - t_y) * sol.dual[-1] == end.value
                    for t, end in zip((0, top), ends)
                ):
                    dual = sol.dual
                    break

    def interval_optimum(t: Fraction) -> LPSolution:
        s = t / top
        x_0, x_top = ends[0].point, ends[1].point
        point = tuple(a if a == b else a + s * (b - a) for a, b in zip(x_0, x_top))
        value = ends[0].value + s * (ends[1].value - ends[0].value)
        return LPSolution("optimal", value, point, dual, 0, "interval")

    rows = []
    for t in targets:
        bound = (1 + t) / d
        if t < 0 or t > top:
            # the trade-off only constrains targets up to the classical bound;
            # beyond it the cap (1+t)/d exceeds 1
            rows.append(TightnessRow(t, "out-of-range", None, bound, False))
            continue
        sol = interval_optimum(t) if dual is not None and 0 < t < top else solve_at(t)
        value = sol.value if sol.status == "optimal" else None
        rows.append(TightnessRow(t, sol.status, value, bound, value == bound, sol))
    return rows


def minimize_lhs_over_ns(scenario: Scenario, k: int, x_k: int, x_last: int) -> LPSolution:
    """LP minimum of the monogamy left-hand side over the NS polytope."""
    func = monogamy_functional(scenario, k, x_k, x_last)
    return optimize_over_ns(scenario, func.dense(), "min")


# ---------------------------------------------------------------------------
# Reports.

# the columns of a tightness scan
_CSV_HEADER = ["k", "x_k", "x_last", "m", "t", "lhs", "bound", "slack"]


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
