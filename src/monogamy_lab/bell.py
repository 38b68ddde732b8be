"""Chained Bell functionals over modular outcome differences.

The bipartite functional on M settings and d outcomes is

    I = sum_x ( <[A_x - B_x]> + <[B_x - A_{x+1}]> ),   x = 0..M-1,

where [.] is reduction mod d, <W> = sum_{i=1}^{d-1} i P(W = i), and the
wrap-around observable A_M stands for [A_0 + 1].  Local models give I >= d-1
while nonsignalling behaviors reach I = 0; for d = 2 this is the chained
inequality family and for M = 2 the CGLMP family.

The N-party generalization averages the (N-1)-party functional over the new
party's M settings, relabelling the previous party's settings cyclically and
inserting the new observable into every mean with the opposite sign; the
single chain-closing twist per chain sits where the construction stays
invariant under exchanging the last and the (N-2)-th party (see
:func:`recursive_bkp`).  Wrapped labels inside the chained base resolve as
X_{iM+g} = [X_g + i]: setting g with the outcome constant shifted by i.

Functionals are stored as weighted modular terms; the equivalent dense
coefficient tensor over (x, a) is derived on demand.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputFormatError
from .scenario import (
    Behavior, Scenario, csv_text, format_number, integer_form, parse_int, parse_number, read_json,
    scenario_from_json, scenario_to_json,
)


@dataclass(frozen=True)
class ModularTerm:
    """One weighted mean w * <[sum_k c_k A^(k)_{x_k} + shift]>.

    coeffs lists (party, setting, sign) with sign in {-1, +1}; parties are
    distinct and the shift lives in {0..d-1}.
    """

    weight: Fraction
    coeffs: tuple[tuple[int, int, int], ...]
    shift: int = 0

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("term needs at least one observable")
        for _, _, sign in self.coeffs:  # also rejects entries that are not triples
            if sign not in (-1, 1):
                raise ValueError("signs must be +-1")
        parties = [c[0] for c in self.coeffs]
        if len(set(parties)) != len(parties):
            raise ValueError("term references a party twice")


def _resolved_term(weight, raw_coeffs, shift, scenario: Scenario) -> ModularTerm:
    """Fold out-of-range setting labels into the constant shift."""
    M, d = scenario.settings, scenario.outcomes
    coeffs = []
    for party, setting, sign in raw_coeffs:
        wrap, setting = divmod(setting, M)
        shift += sign * wrap
        coeffs.append((party, setting, sign))
    coeffs.sort()
    return ModularTerm(Fraction(weight), tuple(coeffs), shift % d)


@dataclass
class BellFunctional:
    """A sum of modular terms over a scenario, with known reference bounds."""

    scenario: Scenario
    terms: tuple[ModularTerm, ...]
    classical_bound: Fraction | None = None
    ns_minimum: Fraction | None = None

    def dense(self) -> tuple:
        """Coefficient vector c with I(p) = sum_i c_i p_i, computed on each
        call.

        Terms touching only a party subset are charged to the columns whose
        remaining settings are 0, matching the marginal convention, so the
        dense and term-wise evaluations agree on every behavior.
        """
        scn = self.scenario
        coeff = [Fraction(0)] * scn.size
        for term in self.terms:
            groups = modular_groups(scn, term.coeffs, term.shift)
            for omega, idx in enumerate(groups[1:], 1):
                value = term.weight * omega
                for i in idx:
                    coeff[i] += value
        return tuple(coeff)

    def settings_in_terms(self) -> list[tuple[int, ...]]:
        """Distinct full setting tuples the terms touch (complement at 0)."""
        seen = set()
        for term in self.terms:
            x = [0] * self.scenario.parties
            for k, xk, _ in term.coeffs:
                x[k] = xk
            seen.add(tuple(x))
        return sorted(seen)


def recursive_bkp(N: int, M: int, d: int) -> BellFunctional:
    """The N-party chained functional on (N, M, d); classical bound d-1.

    The inductive construction averages the (N-1)-party functional over the
    new party's M settings, relabelling the previous party's settings
    cyclically by the new setting and inserting the new observable with the
    opposite sign.  Expanded, each index tuple (x_1..x_{N-1}) in {0..M-1}
    contributes two means (weight M^-(N-2)):

        < A^1_{x_1} - A^2_{[x_1+x_2]} + A^3_{[x_2+x_3]} - ... -+ A^N_{x_{N-1}} >
        < -A^1_{[x_1+1]} + A^2_{[x_1+x_2]} - ... +- A^N_{x_{N-1}} - t(x) >

    with settings cyclic mod M.  The chain-closing twist t(x) = 1 sits on the
    second kind wherever x_1 - sum_{j>=2} x_j = M - 1 (mod M): one twist per
    chain, placed so that the functional is invariant under exchanging the
    last and the (N-2)-th party and so that local models reach d-1 exactly.
    For N = 2 this is precisely the bipartite chained functional.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if M < 2 or d < 2:
        raise ValueError("need M >= 2 and d >= 2")
    scn = Scenario(N, M, d)
    return BellFunctional(scn, _bkp_terms(scn), Fraction(d - 1), Fraction(0))


@functools.lru_cache(maxsize=None)
def _bkp_terms(scn: Scenario) -> tuple[ModularTerm, ...]:
    """The terms of :func:`recursive_bkp`, built once per scenario (frozen, so shared)."""
    N, M = scn.parties, scn.settings
    weight = Fraction(1, M ** (N - 2))
    terms = []
    for alpha in itertools.product(range(M), repeat=N - 1):
        labels = [alpha[0]]
        for k in range(1, N - 1):
            labels.append((alpha[k - 1] + alpha[k]) % M)
        labels.append(alpha[N - 2])
        k1 = [(k, labels[k], (-1) ** k) for k in range(N)]
        terms.append(_resolved_term(weight, k1, 0, scn))
        k2 = [(0, (alpha[0] + 1) % M, -1)]
        k2 += [(k, labels[k], -((-1) ** k)) for k in range(1, N)]
        twisted = (alpha[0] - sum(alpha[1:])) % M == M - 1
        terms.append(_resolved_term(weight, k2, -1 if twisted else 0, scn))
    return tuple(terms)


def evaluate(functional: BellFunctional, behavior: Behavior):
    """Value of the functional on a behavior, term by term.

    One loop serves both kinds of input: each mean sums the behavior's
    values over the term's :func:`modular_groups`.  When the behavior is
    exact and every weight is an int or a Fraction, the values and the
    weights are the integers of :func:`scenario.integer_form` (for the
    values, :attr:`Behavior.scaled`) over D and W, the weighted means are
    summed as integers and the value is one Fraction, the sum over W x D.
    Otherwise the values are the entries of ``probs``, the weights are the
    terms' own, and the weighted means are summed in plain arithmetic.
    """
    if behavior.scenario != functional.scenario:
        raise ValueError("behavior and functional scenarios differ")
    scn = functional.scenario
    weights = [term.weight for term in functional.terms]
    exact = behavior.scaled is not None and all(isinstance(w, (int, Fraction)) for w in weights)
    denom, values = behavior.scaled if exact else (1, behavior.probs)
    w_denom, weights = integer_form(weights) if exact else (1, weights)
    get = values.__getitem__
    total = 0
    for term, weight in zip(functional.terms, weights):
        groups = modular_groups(scn, term.coeffs, term.shift)
        total += weight * sum(omega * sum(map(get, idx)) for omega, idx in enumerate(groups))
    return Fraction(total, w_denom * denom) if exact else total


@functools.lru_cache(maxsize=None)
def modular_groups(scn: Scenario, coeffs: tuple, shift: int = 0) -> tuple[tuple[int, ...], ...]:
    """For omega = 0..d-1, the flat indices of the column with x_k as in the
    (k, x_k, c_k) of ``coeffs`` and the other settings at 0 whose outcomes
    give [shift + sum_k c_k a_k] = omega, in index order.  Built once per
    scenario and term.

    The one map from outcomes to modular classes.  A term's mean is
    sum_omega omega times the sum over group omega (:func:`evaluate`,
    :meth:`BellFunctional.dense`); ((k, x_k, 1), (l, x_l, -1)) groups
    [a_k - a_l] (``monogamy.agreement_vector``) and ((k, s, 1),) party k's
    outcomes at setting s (``svamp._deviation_sums``).  Parties are
    range-checked, not checked for repeats."""
    x = [0] * scn.parties
    for k, xk, _ in coeffs:
        if not 0 <= k < scn.parties:
            raise ValueError(f"term party {k} out of range for N={scn.parties}")
        x[k] = xk
    base = scn.column_index(x) * scn.column_size
    groups = [[] for _ in range(scn.outcomes)]
    for i, a in enumerate(scn.all_outcomes()):
        groups[(shift + sum(sign * a[k] for k, _, sign in coeffs)) % scn.outcomes].append(base + i)
    return tuple(map(tuple, groups))


# ---------------------------------------------------------------------------
# Export formats.


def functional_to_json(functional: BellFunctional) -> dict:
    return {
        "scenario": scenario_to_json(functional.scenario),
        "terms": [
            {
                "weight": format_number(t.weight),
                "coeffs": [list(c) for c in t.coeffs],
                "shift": t.shift,
            }
            for t in functional.terms
        ],
        "classical_bound": format_number(functional.classical_bound)
        if functional.classical_bound is not None
        else None,
        "ns_minimum": format_number(functional.ns_minimum)
        if functional.ns_minimum is not None
        else None,
    }


def functional_from_json(obj: dict) -> BellFunctional:
    try:
        scn = scenario_from_json(obj["scenario"])
        terms = tuple(
            ModularTerm(
                parse_number(t["weight"], exact=True),
                tuple(tuple(parse_int(v) for v in c) for c in t["coeffs"]),
                parse_int(t["shift"]),
            )
            for t in obj["terms"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad functional object: {exc}") from exc
    for term in terms:
        for party, setting, _ in term.coeffs:
            if not (0 <= party < scn.parties and 0 <= setting < scn.settings):
                raise InputFormatError(
                    f"observable (party {party}, setting {setting}) outside "
                    f"N={scn.parties}, M={scn.settings}"
                )
    cb = obj.get("classical_bound")
    nsmin = obj.get("ns_minimum")
    return BellFunctional(
        scn,
        terms,
        parse_number(cb, exact=True) if cb is not None else None,
        parse_number(nsmin, exact=True) if nsmin is not None else None,
    )


def load_functional(path: str) -> BellFunctional:
    """Read a :func:`functional_to_json` file; number literals stay exact."""
    return functional_from_json(read_json(path))


def dense_csv(functional: BellFunctional) -> str:
    """Dense coefficients as CSV rows (settings..., outcomes..., coefficient)."""
    scn = functional.scenario
    dense = functional.dense()
    return csv_text(
        [f"x{k}" for k in range(scn.parties)] + [f"a{k}" for k in range(scn.parties)] + ["coefficient"],
        (
            list(x) + list(a) + [format_number(dense[scn.index(x, a)])]
            for x in scn.all_settings()
            for a in scn.all_outcomes()
        ),
    )
