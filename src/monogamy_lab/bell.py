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

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputFormatError
from .scenario import (
    Behavior, Scenario, enumerate_assignments, format_number, marginal, parse_int,
    parse_number, read_json, scaled_marginal, scenario_from_json,
)


def modular_mean(dist: Sequence):
    """<W> = sum_i i P(W = i) for a distribution over {0..d-1}."""
    total = sum(dist)
    if isinstance(total, float):
        if abs(total - 1) > 1e-9:
            raise ValueError(f"distribution sums to {total}")
    elif total != 1:
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
    _dense: tuple | None = field(default=None, repr=False, compare=False)

    def dense(self) -> tuple:
        """Coefficient vector c with I(p) = sum_i c_i p_i.

        Terms touching only a party subset are charged to the columns whose
        remaining settings are 0, matching the marginal convention, so the
        dense and term-wise evaluations agree on every behavior.
        """
        if self._dense is None:
            scn = self.scenario
            coeff = [Fraction(0)] * scn.size
            for term in self.terms:
                parties = [k for k, _, _ in term.coeffs]
                x = [0] * scn.parties
                for k, xk, _ in term.coeffs:
                    x[k] = xk
                col_base = scn.column_index(x) * scn.column_size
                for a_idx, a in enumerate(scn.all_outcomes()):
                    omega = term.shift
                    for k, _, sign in term.coeffs:
                        omega += sign * a[k]
                    value = omega % scn.outcomes
                    if value:
                        coeff[col_base + a_idx] += term.weight * value
            self._dense = tuple(coeff)
        return self._dense

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
    return BellFunctional(scn, tuple(terms), Fraction(d - 1), Fraction(0))


def evaluate(functional: BellFunctional, behavior: Behavior):
    """Value of the functional on a behavior, term by term.

    An exact behavior's marginals are summed as the integer numerators of
    :attr:`Behavior.scaled`.  When every weight is exact too, the weighted
    means are summed as integers over lcm(weight denominators) x D and the
    value is one Fraction (also when every entry and weight is an int);
    float behaviors are summed as floats.
    """
    if behavior.scenario != functional.scenario:
        raise ValueError("behavior and functional scenarios differ")
    scn = functional.scenario
    d = scn.outcomes
    scaled = behavior.scaled
    weights = [term.weight for term in functional.terms]
    exact = scaled is not None and all(isinstance(w, (int, Fraction)) for w in weights)
    if exact:
        w_denom = math.lcm(*(w.denominator for w in weights))
    total = 0
    for term in functional.terms:
        parties = [k for k, _, _ in term.coeffs]
        settings = [xk for _, xk, _ in term.coeffs]
        if scaled is None:
            dist = marginal(behavior, parties, settings)
        else:
            dist = scaled_marginal(behavior, parties, settings)
        omega = [0] * d
        for a_idx, a in enumerate(itertools.product(range(d), repeat=len(parties))):
            w = term.shift
            for (_, _, sign), ak in zip(term.coeffs, a):
                w += sign * ak
            omega[w % d] += dist[a_idx]
        mean = sum(i * p for i, p in enumerate(omega) if p)
        if exact:
            total += term.weight.numerator * (w_denom // term.weight.denominator) * mean
        else:
            total += term.weight * (mean if scaled is None else Fraction(mean, scaled[0]))
    if exact and weights:
        return Fraction(total, w_denom * scaled[0])
    return total


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
        evaluate_assignment(functional, a.table)
        for a in enumerate_assignments(functional.scenario)
    )


# ---------------------------------------------------------------------------
# Export formats.


def functional_to_json(functional: BellFunctional) -> dict:
    scn = functional.scenario
    return {
        "scenario": {"N": scn.parties, "M": scn.settings, "d": scn.outcomes},
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
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [f"x{k}" for k in range(scn.parties)]
        + [f"a{k}" for k in range(scn.parties)]
        + ["coefficient"]
    )
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            writer.writerow(list(x) + list(a) + [format_number(dense[scn.index(x, a)])])
    return buf.getvalue()
