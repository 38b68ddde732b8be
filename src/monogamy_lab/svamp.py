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

from .bell import evaluate, modular_groups, recursive_bkp
from .errors import InputFormatError
from .polylp import ns_row_residual
from .sampling import random_ns_mixture, random_weights
from .scenario import (
    FLOAT_TOL,
    Behavior,
    Scenario,
    behavior_from_json,
    behavior_to_json,
    csv_text,
    format_number,
    is_distribution,
    mix_columns,
    parse_int,
    parse_number,
    scaled_sum,
    scenario_from_json,
    scenario_to_json,
    validate,
)


@dataclass(frozen=True)
class SVSource:
    """epsilon-source: bits each within eps of unbiased given all causes."""

    epsilon: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < Fraction(1, 2):
            raise ValueError("epsilon must lie in [0, 1/2)")

    @property
    def low(self) -> Fraction:
        return Fraction(1, 2) - self.epsilon

    @property
    def high(self) -> Fraction:
        return Fraction(1, 2) + self.epsilon

    def contains(self, bit_prob) -> bool:
        return self.low <= bit_prob <= self.high

    def likelihood_ratio_bound(self, uses: int):
        """((1+2eps)/(1-2eps))^uses, the worst-case probability ratio of
        any two length-`uses` outputs."""
        return ((1 + 2 * self.epsilon) / (1 - 2 * self.epsilon)) ** uses


@dataclass
class AdversaryModel:
    """w-indexed strategies: NS behavior and input distribution per w, plus
    a prior; the scenario is shared.

    Construction checks the model, then builds once the tables that every
    per-setting quantity reads.  A value is exact when it is an int or a
    Fraction.  A setting with p(x) > 0 whose factors p(w) and p(x|w) are all
    exact keeps its Bayes terms (T_x, [t_w]): integers, p(w|x) = t_w / T_x.
    When every setting has terms, p_min(w) over the functional's settings
    is kept as the integer pair (t_w(s*), T_{s*}), else as a posterior.
    For each (w, party, setting) the deviation sum_a |m_a - 1/d| of the
    strategy's outcome marginal m from uniform is kept, and when every
    strategy is exact as an integer numerator over one denominator d L, L the
    lcm of the strategies' denominators.  The posteriors p(w|x) are built on
    first use: by :meth:`posterior`, or for a setting without terms.
    :func:`q_factor` keeps Q(x) per setting on first use, and the observed
    behavior and its Bell value are built on first use and kept.  The model
    is fixed after construction: changing behaviors, input_dists or prior
    afterwards leaves the tables, the integer tables and the kept Q(x) stale.

    Each strategy must satisfy the no-signalling rows of
    :func:`polylp.ns_constraints` (exactly, or within
    :data:`scenario.FLOAT_TOL` for float entries); a signalling strategy is
    rejected with its largest row residual.  Each strategy must also be a
    probability table.  An exact one is checked in integers on
    :attr:`Behavior.scaled`: no negative numerator, and the numerators
    summing to the denominator times the number of columns (no-signalling
    gives every column the same total, so each column then sums to 1).  A
    float one must pass :func:`scenario.validate` within
    :data:`scenario.FLOAT_TOL`.  A strategy that is not a table is rejected
    with the first violation :func:`scenario.validate` reports.  The prior
    and each input distribution must pass :func:`scenario.is_distribution`.
    """

    scenario: Scenario
    behaviors: list[Behavior]
    input_dists: list[dict]  # per w: {setting tuple: probability}
    prior: list
    _terms: dict = field(init=False, repr=False, compare=False)
    _p_min: list | None = field(init=False, repr=False, compare=False)
    _all_terms: bool = field(init=False, repr=False, compare=False)
    _dev_sums: list = field(init=False, repr=False, compare=False)
    _dev_ints: tuple | None = field(init=False, repr=False, compare=False)
    _q: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.behaviors)
        if not (n == len(self.input_dists) == len(self.prior)):
            raise ValueError("need one behavior, input distribution and prior entry per w")
        if not is_distribution(self.prior):
            raise ValueError("prior must be a distribution")
        for b in self.behaviors:
            if b.scenario != self.scenario:
                raise ValueError("behavior scenario mismatch")
            worst = ns_row_residual(b)
            # written to fail for a NaN residual too
            if not worst <= (0 if b.scaled is not None else FLOAT_TOL):
                raise ValueError(f"strategy behavior is signalling (NS row residual {worst})")
            if b.scaled is None:
                report = validate(b, FLOAT_TOL)
            else:
                # NS holds exactly, so every column has the same total and
                # the grand total decides whether each column sums to 1
                denom, nums = b.scaled
                table = min(nums) >= 0 and sum(nums) == denom * b.scenario.n_columns
                report = [] if table else validate(b)
            if report:
                raise ValueError(f"strategy behavior is not a probability table ({report[0]})")
        for dist in self.input_dists:
            if not is_distribution(dist.values()):
                raise ValueError("input distribution must be normalized and nonnegative")

        scn = self.scenario
        self._terms = {x: self._bayes(x) for x in scn.all_settings()}
        self._all_terms = None not in self._terms.values()
        # None when a setting of the functional has p(x) = 0, or when one
        # party has no functional; q_factor then raises
        self._p_min = None
        if scn.parties > 1 and self._all_terms:
            bell_terms = [self._terms[s] for s in _bell_settings(scn)]
            self._p_min = [min([(t[w], T) for T, t in bell_terms], key=_by_value) for w in range(n)]
        elif scn.parties > 1:
            posts = [self._posteriors[s] for s in _bell_settings(scn)]
            if None not in posts:
                self._p_min = [min(p[w] for p in posts) for w in range(n)]
        self._q = {}

        self._dev_sums = [_deviation_sums(b) for b in self.behaviors]
        # (d L, [w][k][s] numerators over d L) when every strategy is exact
        self._dev_ints = None
        if all(b.scaled is not None for b in self.behaviors):
            denoms = [b.scaled[0] for b in self.behaviors]
            lcm = math.lcm(*denoms)
            self._dev_ints = scn.outcomes * lcm, [
                [[v * (lcm // denom) for v in row] for row in table]
                for table, denom in zip(self._dev_sums, denoms)
            ]

    @functools.cached_property
    def _deviations(self) -> list:
        """Deviation of strategy w's party-k outcome marginal at setting s,
        [w][k][s]: a Fraction for an exact strategy, a float otherwise."""
        d = self.scenario.outcomes
        return [
            table if b.scaled is None else [[Fraction(v, d * b.scaled[0]) for v in row] for row in table]
            for table, b in zip(self._dev_sums, self.behaviors)
        ]

    def _bayes(self, x: tuple) -> tuple | None:
        """The integer terms (T_x, [t_w]) of p(w|x) = p(w) p(x|w) / p(x):
        t_w = p(w) p(x|w) T summed as integers over one denominator T, so
        that T_x = sum t_w and p(w|x) = t_w / T_x.  None when a factor is a
        float or when p(x) = 0."""
        factors = [(pw, dist.get(x, 0)) for pw, dist in zip(self.prior, self.input_dists)]
        if not all(isinstance(f, (int, Fraction)) for pair in factors for f in pair):
            return None
        denom = math.lcm(*(pw.denominator * q.denominator for pw, q in factors))
        terms = [
            pw.numerator * q.numerator * (denom // (pw.denominator * q.denominator))
            for pw, q in factors
        ]
        total = sum(terms)
        return (total, terms) if total else None

    @functools.cached_property
    def _posteriors(self) -> dict:
        """p(w|x) for every setting, None where p(x) = 0: Fraction(t_w, T_x)
        from the terms, else the quotient in plain arithmetic."""
        posts = {}
        for x, terms in self._terms.items():
            if terms is None:
                px = self.input_probability(x)
                factors = zip(self.prior, self.input_dists)
                posts[x] = None if px == 0 else [pw * dist.get(x, 0) / px for pw, dist in factors]
            else:
                posts[x] = [Fraction(tw, terms[0]) for tw in terms[1]]
        return posts

    @property
    def n_strategies(self) -> int:
        return len(self.behaviors)

    def input_probability(self, x: tuple) -> object:
        """p(x) = sum_w p(w) p(x|w)."""
        return sum(
            pw * dist.get(x, 0) for pw, dist in zip(self.prior, self.input_dists)
        )

    def _posterior(self, x: tuple) -> list:
        post = self._posteriors.get(x)
        if post is None:
            raise ValueError(f"setting {x} has zero probability")
        return post

    def posterior(self, x: tuple) -> list:
        """p(w|x) by Bayes; requires p(x) > 0."""
        return list(self._posterior(tuple(x)))

    @functools.cached_property
    def observed(self) -> Behavior:
        """:func:`observed_behavior` of the model, built on first use."""
        return observed_behavior(self)

    @functools.cached_property
    def bell_value(self):
        """The functional's value on :attr:`observed`, computed on first use."""
        return evaluate(bell_functional_for(self.scenario), self.observed)


# sort key of a (numerator, positive denominator) pair: cross-multiplied ints
_by_value = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _deviation_sums(b: Behavior) -> list[list]:
    """Per (party, setting) the deviation sum_a |m_a - 1/d| of the outcome
    marginal m, each m_a a sum over a :func:`bell.modular_groups` group: for
    an exact behavior its numerator sum_a |d n_a - D| over d D, n read from
    :attr:`Behavior.scaled`, for a float one the deviation itself."""
    scn = b.scenario
    d = scn.outcomes
    scale, unit, values = (d, *b.scaled) if b.scaled is not None else (1, Fraction(1, d), b.probs)
    get = values.__getitem__
    return [
        [
            sum(abs(scale * sum(map(get, idx)) - unit) for idx in modular_groups(scn, ((k, s, 1),)))
            for s in range(scn.settings)
        ]
        for k in range(scn.parties)
    ]


def bell_functional_for(scenario: Scenario):
    return recursive_bkp(scenario.parties, scenario.settings, scenario.outcomes)


@functools.lru_cache(maxsize=None)
def _bell_settings(scenario: Scenario) -> tuple:
    return tuple(bell_functional_for(scenario).settings_in_terms())


def bell_settings(scenario: Scenario) -> list[tuple]:
    """Setting tuples that occur in the chained functional."""
    return list(_bell_settings(scenario))


def observed_behavior(model: AdversaryModel) -> Behavior:
    """p(a|x) = sum_w p(w|x) p(a|x,w); typically signalling even though each
    strategy is nonsignalling, because the posterior depends on x.

    Every setting occurring in the functional must have p(x) > 0; other
    settings with p(x) = 0 fall back to the prior (they never affect the
    Bell value).  An exact model whose settings all have Bayes terms mixes
    by them in integers (:func:`scenario.scaled_sum`): the same Behavior.
    """
    scn = model.scenario
    if model._dev_ints is not None and model._all_terms:
        columns = [model._terms[x] for x in scn.all_settings()]
        return scaled_sum(scn, [[(tw, T, b) for tw, b in zip(t, model.behaviors) if tw] for T, t in columns])
    for x in _bell_settings(scn):
        if model._posteriors[x] is None:
            raise ValueError(f"setting {x} appears in the functional but has p(x)=0")
    posts = [model._posteriors[x] for x in scn.all_settings()]
    return mix_columns(model.behaviors, [model.prior if p is None else p for p in posts])


def q_factor(model: AdversaryModel, x: tuple):
    """Q(x) = max_w p(w|x)/p_min(w), p_min over the functional's settings.

    Returns None when the ratio is unbounded: some w has p_min(w) = 0 and
    p(w|x) > 0 (a w with p_min(w) = 0 and p(w|x) = 0 is skipped).  Worked
    out once per setting and kept in the model.
    """
    x = tuple(x)
    terms = model._terms.get(x)
    if terms is None:
        model._posterior(x)  # raises when p(x) = 0
    if model._p_min is None:
        zero = next(s for s in _bell_settings(model.scenario) if model._posteriors[s] is None)
        raise ValueError(f"setting {zero} has zero probability")
    if x not in model._q:
        # kept with k/d * Q(x), k = (d-1)^2 + 1, the factor of variational_bound's rhs
        d = model.scenario.outcomes
        k = (d - 1) ** 2 + 1
        if model._all_terms:
            # the largest (t_w / T_x) / (m_w / M_w) = t_w M_w / (T_x m_w), found in integers
            total, t = terms
            ratios = [(tw * big, low) for tw, (low, big) in zip(t, model._p_min)]
            if any(low == 0 < num for num, low in ratios):
                model._q[x] = None, None
            else:
                num, den = max((r for r in ratios if r[1]), key=_by_value)
                model._q[x] = Fraction(num, total * den), Fraction(k * num, d * total * den)
        else:
            q = _max_ratio(model._posterior(x), model._p_min)
            model._q[x] = q, (None if q is None else Fraction(k, d) * q)
    return model._q[x][0]


def _max_ratio(values: list, mins: list):
    """max_w values[w]/mins[w] over mins[w] != 0; None when some mins[w] = 0
    has values[w] > 0 (the ratio is unbounded)."""
    best = None
    for v, low in zip(values, mins):
        if low == 0:
            if v > 0:
                return None
            continue
        ratio = v / low
        best = ratio if best is None or ratio > best else best
    return best


def q_factor_tilde(model: AdversaryModel, x: tuple):
    """Variant with input likelihoods: max_w p(x|w)/min_x' p(x'|w)."""
    settings = _bell_settings(model.scenario)
    x = tuple(x)
    return _max_ratio(
        [dist.get(x, 0) for dist in model.input_dists],
        [min(dist.get(s, 0) for s in settings) for dist in model.input_dists],
    )


@dataclass
class VariationalCheck:
    x: tuple
    party: int
    lhs: object            # sum_{a_k,w} |p(a_k,w|x) - p(w|x)/d|
    rhs: object             # ((d-1)^2+1)/d * Q(x) * I(observed)
    distance: object        # the same lhs with the 1/2 normalization
    q: object
    bell_value: object
    satisfied: bool


def variational_bound(
    model: AdversaryModel,
    x: tuple,
    party: int,
    observed: Behavior | None = None,
    bell_value=None,
) -> VariationalCheck:
    """Check the outcome-vs-W variational bound for one setting and party."""
    scn = model.scenario
    x = tuple(x)
    if not 0 <= party < scn.parties:
        raise ValueError("party out of range")
    if observed is None:
        observed = model.observed
        if bell_value is None:
            bell_value = model.bell_value
    if bell_value is None:
        bell_value = evaluate(bell_functional_for(scn), observed)
    # sum_{a,w} |p_w m_a - p_w/d| = sum_w p_w sum_a |m_a - 1/d|, as p_w >= 0
    terms = model._terms.get(x)
    if terms is not None and model._dev_ints is not None:
        # p_w = t_w / T_x and each deviation is an integer over d L: one Fraction
        total, t = terms
        dev_denom, dev_nums = model._dev_ints
        num = sum(tw * dev[party][x[party]] for tw, dev in zip(t, dev_nums))
        lhs = Fraction(num, total * dev_denom)
    else:
        lhs = 0
        for pw, dev in zip(model._posterior(x), model._deviations):
            lhs += pw * dev[party][x[party]]
    q = q_factor(model, x)
    if q is None:
        rhs = None
        satisfied = True  # unbounded factor: the bound is vacuous
    else:
        rhs = model._q[x][1] * bell_value
        exact = isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction))
        satisfied = lhs <= rhs if exact else lhs <= rhs + 1e-12
    return VariationalCheck(
        x=x,
        party=party,
        lhs=lhs,
        rhs=rhs,
        distance=lhs / 2,
        q=q,
        bell_value=bell_value,
        satisfied=satisfied,
    )


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


def feasibility_curve(
    N: int,
    d: int,
    epsilon,
    m_values: Sequence[int],
    violations: dict | None = None,
    lam: float | None = None,
    variant: str = "per-party",
) -> list[FeasibilityRow]:
    """Upper bounds ((d-1)^2+1)/d * ratio^exponent * I_Q(M, d) over a
    settings range; the sequence tends to zero iff the bias is below the
    matching threshold.

    violations maps M to a quantum value of the functional; alternatively a
    proxy lam gives I ~ lam/M.  variant picks the per-party exponent N r or
    the common-source exponent 1 + (N-1) r.
    """
    SVSource(epsilon)  # its range check: 0 <= epsilon < 1/2
    if violations is None and lam is None:
        raise ValueError("need measured violations or a lam proxy")
    if d < 2 or any(m < 2 for m in m_values):
        raise ValueError("need M >= 2 and d >= 2")
    if lam is not None and not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    if variant not in ("per-party", "common-source"):
        raise ValueError("variant must be 'per-party' or 'common-source'")
    ratio = (1 + 2 * float(epsilon)) / (1 - 2 * float(epsilon))
    rows = []
    for m in m_values:
        r = source_uses(m)
        exponent = N * r if variant == "per-party" else 1 + (N - 1) * r
        i_q = violations[m] if violations is not None else lam / m
        factor = ratio**exponent
        rows.append(
            FeasibilityRow(
                M=m,
                r=r,
                exponent=exponent,
                bias_factor=factor,
                violation=float(i_q),
                rhs_bound=((d - 1) ** 2 + 1) / d * factor * float(i_q),
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
    source = SVSource(epsilon)
    low, span = source.low, source.high - source.low
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
