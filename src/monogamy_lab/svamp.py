"""Partially free sources and randomness amplification.

An epsilon-source emits bits whose conditional probabilities, given any
prior cause w, stay within [1/2 - eps, 1/2 + eps].  An adversary holding
the variable W steers both the sources (input-setting probabilities
p(x|w)) and the devices (a nonsignalling behavior per w).  The parties see
p(a|x) = sum_w p(w|x) p(a|x,w), and the variational distance between any
single party's outcome-and-W distribution and an ideal uniform-dit one is
capped by the observed Bell value:

    sum_{a_k, w} |p(a_k, w|x) - p(w|x)/d|  <=  ((d-1)^2 + 1)/d * Q(x) * I

with the bias factor Q(x) = max_w p(w|x)/min_x' p(w|x') (minimum over the
settings occurring in the functional).  A second variant uses
p(x|w)/min_x' p(x'|w); both coincide when all p(x) are equal.

With each party drawing r = ceil(log2 M) source bits per setting the factor
is at most ((1+2eps)/(1-2eps))^(N r), and since quantum strategies reach
I ~ 1/M, the cap vanishes as M grows iff eps < (2^(1/N)-1)/(2(2^(1/N)+1)).
A common source for all parties needs only 1 + (N-1) r bits, nearly
doubling the tolerable bias for N = 2 (to 1/6).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bell import modular_groups, recursive_bkp
from .sampling import random_ns_mixture, random_weights
from .scenario import (
    Behavior, Scenario, csv_text, is_distribution, is_exact, ns_row_residual, scaled_sum, validate,
)


def check_epsilon(epsilon) -> None:
    """The bias of an epsilon-source must lie in [0, 1/2)."""
    if not 0 <= epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie in [0, 1/2)")


def float_epsilon(epsilon) -> float:
    """The float of a bias that passes :func:`check_epsilon`.  An epsilon in
    [1/2 - 2^-55, 1/2) passes that check but rounds to 0.5, where the float
    bias factor is unbounded; it is refused with its own message."""
    check_epsilon(epsilon)
    eps = float(epsilon)
    if eps == 0.5:
        raise ValueError(
            "epsilon is below 1/2 but rounds to 1/2 as a float, where the bias factor is unbounded"
        )
    return eps


def likelihood_ratio_bound(epsilon, uses: int):
    """((1+2eps)/(1-2eps))^uses, the worst-case probability ratio of any two
    length-`uses` outputs of an epsilon-source."""
    check_epsilon(epsilon)
    return ((1 + 2 * epsilon) / (1 - 2 * epsilon)) ** uses


@dataclass
class AdversaryModel:
    """w-indexed strategies: NS behavior and input distribution per w, plus
    a prior; the scenario is shared.

    Every model is exact: each prior entry, input-distribution value and
    strategy entry must be an int or a Fraction, and a float (NaN and
    infinity included) is rejected.  Construction checks the model, then
    builds once the tables that every per-setting quantity reads.  Each
    setting keeps its Bayes terms (T_x, [t_w]): integers, T_x = 0 when
    p(x) = 0, else p(w|x) = t_w / T_x.  p_min(w) over the functional's
    settings is kept as the integer pair (t_w(s*), T_{s*}), or None when
    a setting of the functional has p(x) = 0.  For each (w, party, setting)
    the deviation sum_a |m_a - 1/d| of the strategy's outcome marginal m
    from uniform is kept as an integer numerator over one denominator d L,
    L the lcm of the strategies' denominators.  :func:`q_factor` keeps Q(x)
    per setting on first use.  The model is fixed after construction:
    changing behaviors, input_dists or prior afterwards leaves the tables
    and the kept Q(x) stale.

    Each strategy must satisfy the no-signalling rows of
    :func:`scenario.ns_row_entries` exactly; a signalling strategy is
    rejected with its largest row residual.  Each strategy must also be a
    probability table, checked in integers on :attr:`Behavior.scaled`: no
    negative numerator, and the numerators summing to the denominator times
    the number of columns (no-signalling gives every column the same total,
    so each column then sums to 1).  A strategy that is not a table is
    rejected with the first violation :func:`scenario.validate` reports.
    The prior and each input distribution must pass
    :func:`scenario.is_distribution`, and each input distribution may name
    only setting tuples of the scenario.
    """

    scenario: Scenario
    behaviors: list[Behavior]
    input_dists: list[dict]  # per w: {setting tuple: probability}
    prior: list
    _terms: dict = field(init=False, repr=False, compare=False)
    _p_min: list | None = field(init=False, repr=False, compare=False)
    _dev_ints: tuple = field(init=False, repr=False, compare=False)
    _q: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.behaviors)
        if not (n == len(self.input_dists) == len(self.prior)):
            raise ValueError("need one behavior, input distribution and prior entry per w")
        if not is_exact(self.prior):
            raise ValueError("prior entries must be ints or Fractions")
        if not is_distribution(self.prior):
            raise ValueError("prior must be a distribution")
        for b in self.behaviors:
            if b.scenario != self.scenario:
                raise ValueError("behavior scenario mismatch")
            if b.scaled is None:
                raise ValueError("strategy behavior entries must be ints or Fractions")
            worst = ns_row_residual(b)
            if worst:
                raise ValueError(f"strategy behavior is signalling (NS row residual {worst})")
            # NS holds exactly, so every column has the same total and
            # the grand total decides whether each column sums to 1
            denom, nums = b.scaled
            if min(nums) < 0 or sum(nums) != denom * b.scenario.n_columns:
                raise ValueError(f"strategy behavior is not a probability table ({validate(b)[0]})")
        scn = self.scenario
        settings = set(scn.all_settings())
        for dist in self.input_dists:
            if not is_exact(dist.values()):
                raise ValueError("input distribution values must be ints or Fractions")
            if not is_distribution(dist.values()):
                raise ValueError("input distribution must be normalized and nonnegative")
            outside = [x for x in dist if x not in settings]
            if outside:
                raise ValueError(f"input distribution names {outside[0]}, a setting outside the scenario")

        self._terms = {x: self._bayes(x) for x in scn.all_settings()}
        # None when a setting of the functional has p(x) = 0, or when one
        # party has no functional; q_factor then raises
        self._p_min = None
        if scn.parties > 1:
            bell_terms = [self._terms[s] for s in _bell_settings(scn)]
            if all(T for T, _ in bell_terms):
                self._p_min = [min([(t[w], T) for T, t in bell_terms], key=_by_value) for w in range(n)]
        self._q = {}

        # (d L, [w][k][s] deviation numerators over d L)
        lcm = math.lcm(*(b.scaled[0] for b in self.behaviors))
        self._dev_ints = scn.outcomes * lcm, [
            [[v * (lcm // b.scaled[0]) for v in row] for row in _deviation_sums(b)] for b in self.behaviors
        ]

    def _bayes(self, x: tuple) -> tuple:
        """The integer terms (T_x, [t_w]) of p(w|x) = p(w) p(x|w) / p(x):
        t_w = p(w) p(x|w) T summed as integers over one denominator T, so
        that T_x = sum t_w (0 when p(x) = 0) and p(w|x) = t_w / T_x."""
        factors = [(pw, dist.get(x, 0)) for pw, dist in zip(self.prior, self.input_dists)]
        denom = math.lcm(*(pw.denominator * q.denominator for pw, q in factors))
        terms = [
            pw.numerator * q.numerator * (denom // (pw.denominator * q.denominator))
            for pw, q in factors
        ]
        return sum(terms), terms

    def _live_terms(self, x: tuple) -> tuple:
        """The Bayes terms of setting x; raises when x is not a setting
        tuple of the scenario or when p(x) = 0."""
        terms = self._terms.get(x)
        if terms is None:
            raise ValueError(f"setting {x} is outside the scenario")
        if not terms[0]:
            raise ValueError(f"setting {x} has zero probability")
        return terms

    def input_probability(self, x: tuple) -> object:
        """p(x) = sum_w p(w) p(x|w)."""
        return sum(
            pw * dist.get(x, 0) for pw, dist in zip(self.prior, self.input_dists)
        )

    def posterior(self, x: tuple) -> list:
        """p(w|x) by Bayes, as Fractions; requires p(x) > 0."""
        total, t = self._live_terms(tuple(x))
        return [Fraction(tw, total) for tw in t]


# sort key of a (numerator, positive denominator) pair: cross-multiplied ints
_by_value = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _deviation_sums(b: Behavior) -> list[list[int]]:
    """Per (party, setting) the deviation sum_a |m_a - 1/d| of the outcome
    marginal m of an exact behavior, each m_a a sum over a
    :func:`bell.modular_groups` group, as its numerator sum_a |d n_a - D|
    over d D, n read from :attr:`Behavior.scaled`."""
    scn = b.scenario
    d = scn.outcomes
    denom, nums = b.scaled
    get = nums.__getitem__
    return [
        [
            sum(abs(d * sum(map(get, idx)) - denom) for idx in modular_groups(scn, ((k, s, 1),)))
            for s in range(scn.settings)
        ]
        for k in range(scn.parties)
    ]


def bell_functional_for(scenario: Scenario):
    return recursive_bkp(scenario.parties, scenario.settings, scenario.outcomes)


@functools.lru_cache(maxsize=None)
def _bell_settings(scenario: Scenario) -> tuple:
    return tuple(bell_functional_for(scenario).settings_in_terms())


def observed_behavior(model: AdversaryModel) -> Behavior:
    """p(a|x) = sum_w p(w|x) p(a|x,w); typically signalling even though each
    strategy is nonsignalling, because the posterior depends on x.

    Every setting occurring in the functional must have p(x) > 0; other
    settings with p(x) = 0 take the prior's weights (they never affect the
    Bell value).  The columns are mixed by the Bayes terms in integers
    (:func:`scenario.scaled_sum`).
    """
    scn = model.scenario
    blocks = []
    for x in scn.all_settings():
        total, t = model._terms[x]
        if total:
            blocks.append([(tw, total, b) for tw, b in zip(t, model.behaviors) if tw])
        elif x in _bell_settings(scn):
            raise ValueError(f"setting {x} appears in the functional but has p(x)=0")
        else:
            blocks.append([(p.numerator, p.denominator, b) for p, b in zip(model.prior, model.behaviors) if p])
    return scaled_sum(scn, blocks)


def q_factor(model: AdversaryModel, x: tuple):
    """Q(x) = max_w p(w|x)/p_min(w), p_min over the functional's settings,
    a Fraction.

    Returns None when the ratio is unbounded: some w has p_min(w) = 0 and
    p(w|x) > 0 (a w with p_min(w) = 0 and p(w|x) = 0 is skipped).  Worked
    out once per setting and kept in the model.
    """
    x = tuple(x)
    total, t = model._live_terms(x)
    if model._p_min is None:
        zero = next(s for s in _bell_settings(model.scenario) if not model._terms[s][0])
        raise ValueError(f"setting {zero} has zero probability")
    if x not in model._q:
        # kept with k/d * Q(x), k = (d-1)^2 + 1, the factor of variational_bound's rhs
        d = model.scenario.outcomes
        k = (d - 1) ** 2 + 1
        # the largest (t_w / T_x) / (m_w / M_w) = t_w M_w / (T_x m_w), found in integers
        ratios = [(tw * big, low) for tw, (low, big) in zip(t, model._p_min)]
        if any(low == 0 < num for num, low in ratios):
            model._q[x] = None, None
        else:
            num, den = max((r for r in ratios if r[1]), key=_by_value)
            model._q[x] = Fraction(num, total * den), Fraction(k * num, d * total * den)
    return model._q[x][0]


def q_factor_tilde(model: AdversaryModel, x: tuple):
    """Variant with input likelihoods: max_w p(x|w)/min_x' p(x'|w), min over
    the functional's settings.

    Returns None when the ratio is unbounded: some w has min_x' p(x'|w) = 0
    and p(x|w) > 0 (a w with both zero is skipped).
    """
    settings = _bell_settings(model.scenario)
    x = tuple(x)
    if x not in model._terms:
        raise ValueError(f"setting {x} is outside the scenario")
    best = None
    for dist in model.input_dists:
        p, low = dist.get(x, 0), min(dist.get(s, 0) for s in settings)
        if low == 0:
            if p > 0:
                return None
        elif best is None or p / low > best:
            best = p / low
    return best


@dataclass
class VariationalCheck:
    x: tuple
    party: int
    lhs: object            # sum_{a_k,w} |p(a_k,w|x) - p(w|x)/d|
    rhs: object             # ((d-1)^2+1)/d * Q(x) * I(observed)
    q: object
    bell_value: object
    satisfied: bool


def variational_bound(
    model: AdversaryModel, x: tuple, party: int, *, observed: Behavior, bell_value
) -> VariationalCheck:
    """Check the outcome-vs-W variational bound for one setting and party.

    observed is the model's :func:`observed_behavior` and bell_value the
    functional's value on it, which alone enters the rhs; lhs <= rhs is
    decided exactly, without slack."""
    scn = model.scenario
    x = tuple(x)
    if not 0 <= party < scn.parties:
        raise ValueError("party out of range")
    # sum_{a,w} |p_w m_a - p_w/d| = sum_w p_w sum_a |m_a - 1/d|, as p_w >= 0;
    # p_w = t_w / T_x and each deviation is an integer over d L: one Fraction
    total, t = model._live_terms(x)
    dev_denom, dev_nums = model._dev_ints
    lhs = Fraction(sum(tw * dev[party][x[party]] for tw, dev in zip(t, dev_nums)), total * dev_denom)
    q = q_factor(model, x)
    if q is None:
        rhs = None
        satisfied = True  # unbounded factor: the bound is vacuous
    else:
        rhs = model._q[x][1] * bell_value
        satisfied = lhs <= rhs
    return VariationalCheck(x, party, lhs, rhs, q, bell_value, satisfied)


# ---------------------------------------------------------------------------
# Critical bias thresholds.


def critical_epsilon(N: int) -> float:
    """(2^(1/N) - 1)/(2 (2^(1/N) + 1)): largest tolerable source bias when
    every party draws its own settings.  A float: 2^(1/N) is irrational for
    every N >= 2."""
    if N < 2:
        raise ValueError("need N >= 2")
    root = 2.0 ** (1.0 / N)
    return (root - 1.0) / (2.0 * (root + 1.0))


def critical_epsilon_common(N: int):
    """Common-source variant with N replaced by N - 1; exactly 1/6 for N = 2."""
    if N < 2:
        raise ValueError("need N >= 2")
    return Fraction(1, 6) if N == 2 else critical_epsilon(N - 1)


def source_uses(M: int) -> int:
    """Bits needed to pick one of M settings: ceil(log2 M)."""
    return max(1, (M - 1).bit_length())


@dataclass
class FeasibilityRow:
    M: int
    r: int
    exponent: int
    bias_factor: float
    violation: float
    rhs_bound: float
    variant: str


def check_curve_sizes(d: int, m_values) -> None:
    """A feasibility curve needs d >= 2 and every M >= 2."""
    if d < 2 or any(m < 2 for m in m_values):
        raise ValueError("need M >= 2 and d >= 2")


def feasibility_curve(N: int, d: int, epsilon, violations: dict) -> list[FeasibilityRow]:
    """Upper bounds ((d-1)^2+1)/d * ratio^exponent * I_Q(M, d) over a
    settings range; the sequence tends to zero iff the bias is below the
    matching threshold.

    violations maps each M, in order, to a value of the functional: a
    quantum value, or a proxy such as lam/M.  The bias factor is
    :func:`likelihood_ratio_bound` at :func:`float_epsilon`; a factor or a
    bound beyond float range raises ``ValueError`` naming its M and exponent.
    The rows of the per-party exponent N r come first, then those of the
    common-source exponent 1 + (N-1) r.
    """
    eps = float_epsilon(epsilon)
    check_curve_sizes(d, violations)
    rows = []
    for variant in ("per-party", "common-source"):
        for m, i_q in violations.items():
            r = source_uses(m)
            exponent = N * r if variant == "per-party" else 1 + (N - 1) * r
            try:
                factor = likelihood_ratio_bound(eps, exponent)
            except OverflowError:
                raise ValueError(
                    f"the bias factor at M={m}, exponent {exponent} leaves float range"
                ) from None
            rhs_bound = ((d - 1) ** 2 + 1) / d * factor * float(i_q)
            if not math.isfinite(rhs_bound):
                raise ValueError(f"the rhs_bound at M={m}, exponent {exponent} leaves float range")
            rows.append(
                FeasibilityRow(
                    M=m,
                    r=r,
                    exponent=exponent,
                    bias_factor=factor,
                    violation=float(i_q),
                    rhs_bound=rhs_bound,
                    variant=variant,
                )
            )
    return rows


def curve_to_csv(N: int, d: int, epsilon, rows: Sequence[FeasibilityRow]) -> str:
    return csv_text(
        ["N", "d", "epsilon", "M", "r", "exponent", "I_Q", "rhs_bound", "variant"],
        (
            [N, d, repr(float(epsilon)), r.M, r.r, r.exponent, repr(r.violation), repr(r.rhs_bound), r.variant]
            for r in rows
        ),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo adversary models (exact arithmetic).


@functools.cache
def _sv_grid(epsilon: Fraction, denom: int) -> tuple[int, int, int]:
    """(B, b, s): bit probability low + span * k / denom is (b + s k) / B."""
    check_epsilon(epsilon)
    low, span = Fraction(1, 2) - epsilon, 2 * epsilon
    big = math.lcm(low.denominator, span.denominator * denom)
    base = low.numerator * (big // low.denominator)
    return big, base, span.numerator * (big // (span.denominator * denom))


@functools.cache
def _setting_bits(M: int) -> tuple[tuple[int, ...], ...]:
    """The source_uses(M) bits of each setting 0, ..., M - 1, high bit first."""
    r = source_uses(M)
    return tuple(tuple(x >> (r - 1 - i) & 1 for i in range(r)) for x in range(M))


def random_sv_input_dist(
    scenario: Scenario, rng: random.Random, epsilon: Fraction, denom: int = 32
) -> dict:
    """Product input distribution built from per-party source bits whose
    biases are sampled inside the epsilon box.

    For M not a power of two, out-of-range bit patterns are rejected and the
    source redrawn, i.e. the pattern probabilities renormalize over the M
    valid ones.  Within a fixed w the normalization cancels, so the
    likelihood-ratio bound ((1+2e)/(1-2e))^r per party survives rejection.
    """
    big, base, step = _sv_grid(Fraction(epsilon), denom)
    r = source_uses(scenario.settings)
    party_weights = []  # per party: each valid setting's pattern probability times B^r
    for _ in range(scenario.parties):
        bit_nums = [base + step * rng.randrange(denom + 1) for _ in range(r)]
        weights = []
        for bits in _setting_bits(scenario.settings):
            p = 1
            for b, n in zip(bits, bit_nums):
                p *= n if b else big - n
            weights.append(p)
        party_weights.append(weights)
    total = math.prod(sum(weights) for weights in party_weights)
    return {
        x: Fraction(math.prod(weights[xk] for weights, xk in zip(party_weights, x)), total)
        for x in scenario.all_settings()
    }


def random_adversary_model(
    scenario: Scenario,
    rng: random.Random,
    pool: Sequence[Behavior],
    n_strategies: int = 4,
    epsilon: Fraction = Fraction(1, 10),
) -> AdversaryModel:
    """Strategies are random mixtures over an NS pool; inputs are SV-box
    product distributions; the prior is a random rational distribution."""
    behaviors = [random_ns_mixture(pool, rng) for _ in range(n_strategies)]
    input_dists = [
        random_sv_input_dist(scenario, rng, epsilon) for _ in range(n_strategies)
    ]
    prior = random_weights(n_strategies, rng)
    return AdversaryModel(scenario, behaviors, input_dists, prior)
