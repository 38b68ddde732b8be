import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import monogamy_lab
from monogamy_lab.bell import ModularTerm, evaluate, recursive_bkp
from monogamy_lab.errors import InputFormatError
from monogamy_lab.polylp import _ns_row_nonzeros, ns_row_residual
from monogamy_lab.sampling import (
    ns_pool, random_behavior, random_local_vertex, random_ns_mixture, random_weights,
)
from monogamy_lab.scenario import (
    FLOAT_TOL,
    Behavior,
    Scenario,
    behavior_to_json,
    is_nonsignalling,
    marginal,
    mix,
    uniform_behavior,
    validate,
)
from monogamy_lab.svamp import (
    AdversaryModel,
    SVSource,
    VariationalCheck,
    bell_functional_for,
    bell_settings,
    critical_epsilon,
    critical_epsilon_common,
    curve_to_csv,
    feasibility_curve,
    model_from_json,
    model_to_json,
    observed_behavior,
    q_factor,
    q_factor_tilde,
    random_adversary_model,
    random_sv_input_dist,
    source_uses,
    variational_bound,
)
from reference import chained_bkp


@pytest.fixture(scope="module")
def pool_222():
    return ns_pool(Scenario(2, 2, 2), random.Random(1), n_vertices=10, n_lp=2)


def uniform_inputs(scn):
    p = Fraction(1, scn.n_columns)
    return {x: p for x in scn.all_settings()}


def test_sv_source_validation():
    s = SVSource(Fraction(1, 10))
    assert s.low == Fraction(2, 5) and s.high == Fraction(3, 5)
    assert s.contains(Fraction(1, 2))
    assert not s.contains(Fraction(7, 10))
    with pytest.raises(ValueError):
        SVSource(Fraction(1, 2))
    assert s.likelihood_ratio_bound(2) == Fraction(9, 4)
    # random_sv_input_dist caches its grid per epsilon, but a bad epsilon raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            random_sv_input_dist(Scenario(2, 2, 2), random.Random(0), Fraction(1, 2))


def test_source_uses():
    assert source_uses(2) == 1
    assert source_uses(3) == 2
    assert source_uses(4) == 2
    assert source_uses(5) == 3


def test_single_strategy_observed_identity(pool_222):
    scn = Scenario(2, 2, 2)
    model = AdversaryModel(scn, [pool_222[0]], [uniform_inputs(scn)], [Fraction(1)])
    assert observed_behavior(model).probs == pool_222[0].probs


def test_two_strategies_unbiased_mixture(pool_222):
    scn = Scenario(2, 2, 2)
    b1, b2 = pool_222[1], pool_222[2]
    model = AdversaryModel(
        scn,
        [b1, b2],
        [uniform_inputs(scn), uniform_inputs(scn)],
        [Fraction(1, 3), Fraction(2, 3)],
    )
    obs = observed_behavior(model)
    expected = tuple(
        Fraction(1, 3) * p + Fraction(2, 3) * q for p, q in zip(b1.probs, b2.probs)
    )
    assert obs.probs == expected


def test_adversary_model_validation(pool_222):
    scn = Scenario(2, 2, 2)
    with pytest.raises(ValueError):
        AdversaryModel(scn, [pool_222[0]], [uniform_inputs(scn)], [Fraction(1, 2)])
    # exact entries summing to 1 with a negative one: prior and inputs rejected
    with pytest.raises(ValueError, match="prior"):
        AdversaryModel(scn, [pool_222[0]] * 2, [uniform_inputs(scn)] * 2, [Fraction(3, 2), Fraction(-1, 2)])
    skewed = uniform_inputs(scn)
    skewed[(0, 0)], skewed[(1, 1)] = Fraction(3, 4), Fraction(-1, 4)
    with pytest.raises(ValueError, match="input distribution"):
        AdversaryModel(scn, [pool_222[0]], [skewed], [1])
    # signalling strategy rejected
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 2)
    with pytest.raises(ValueError):
        AdversaryModel(scn, [Behavior(scn, tuple(probs))], [uniform_inputs(scn)], [Fraction(1)])


def test_zero_probability_bell_setting_rejected(pool_222):
    scn = Scenario(2, 2, 2)
    dist = {x: Fraction(0) for x in scn.all_settings()}
    dist[(0, 0)] = Fraction(1)
    model = AdversaryModel(scn, [pool_222[0]], [dist], [Fraction(1)])
    with pytest.raises(ValueError):
        observed_behavior(model)


def test_observed_bell_value_decomposition(pool_222):
    # with all p(x) equal: I(observed) = sum_w p(w)/p(x) I_w
    scn = Scenario(2, 2, 2)
    f = chained_bkp(2, 2)
    b1, b2, b3 = pool_222[0], pool_222[3], pool_222[4]
    prior = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    model = AdversaryModel(
        scn, [b1, b2, b3], [uniform_inputs(scn)] * 3, prior
    )
    obs = observed_behavior(model)
    lhs = evaluate(f, obs)
    rhs = sum(p * evaluate(f, b) for p, b in zip(prior, [b1, b2, b3]))
    assert lhs == rhs


def test_q_factor_unbiased_is_one(pool_222):
    scn = Scenario(2, 2, 2)
    model = AdversaryModel(
        scn,
        [pool_222[0], pool_222[1]],
        [uniform_inputs(scn)] * 2,
        [Fraction(1, 4), Fraction(3, 4)],
    )
    for x in scn.all_settings():
        assert q_factor(model, x) == 1
        assert q_factor_tilde(model, x) == 1


def test_q_factors_agree_with_equal_input_marginals(pool_222):
    # Q and the tilde variant coincide whenever all p(x) are equal
    scn = Scenario(2, 2, 2)
    rng = random.Random(5)
    eps = Fraction(1, 8)
    dist_a = random_sv_input_dist(scn, rng, eps)
    # complementary strategy keeps p(x) exactly uniform under a (1/2, 1/2) prior
    dist_b = {x: Fraction(1, 2) - dist_a[x] for x in scn.all_settings()}
    assert all(p >= 0 for p in dist_b.values())
    model = AdversaryModel(
        scn,
        [pool_222[0], pool_222[1]],
        [dist_a, dist_b],
        [Fraction(1, 2), Fraction(1, 2)],
    )
    px = {x: model.input_probability(x) for x in scn.all_settings()}
    assert len(set(px.values())) == 1
    for x in bell_settings(scn):
        assert q_factor(model, x) == q_factor_tilde(model, x)


def test_q_tilde_sv_bound(pool_222):
    # product SV-box inputs obey Q~ <= ((1+2e)/(1-2e))^(N r)
    scn = Scenario(2, 3, 2)
    rng = random.Random(9)
    pool = ns_pool(scn, rng, n_vertices=8, n_lp=1)
    eps = Fraction(1, 10)
    bound = SVSource(eps).likelihood_ratio_bound(2 * source_uses(3))
    for _ in range(10):
        model = random_adversary_model(scn, rng, pool, n_strategies=3, epsilon=eps)
        for x in bell_settings(scn):
            q = q_factor_tilde(model, x)
            assert q is not None and q <= bound


def test_variational_max_violation_strategy():
    # single strategy at the NS minimum: outcomes unbiased, lhs = rhs = 0
    scn = Scenario(2, 2, 2)
    from monogamy_lab.polylp import optimize_over_ns

    mini = optimize_over_ns(scn, chained_bkp(2, 2).dense(), "min").behavior(scn)
    model = AdversaryModel(scn, [mini], [uniform_inputs(scn)], [Fraction(1)])
    chk = variational_bound(model, (0, 0), 0)
    assert chk.lhs == 0 and chk.rhs == 0 and chk.satisfied


def test_variational_deterministic_strategy():
    # deterministic local strategy, d = 2: lhs = 1 <= rhs = I >= 1
    scn = Scenario(2, 2, 2)
    from monogamy_lab.scenario import deterministic_vertex

    v = deterministic_vertex(scn, [(0, 0), (0, 0)])
    model = AdversaryModel(scn, [v], [uniform_inputs(scn)], [Fraction(1)])
    chk = variational_bound(model, (0, 0), 0)
    assert chk.lhs == 1
    assert chk.rhs >= 1
    assert chk.satisfied
    assert chk.distance == Fraction(1, 2)


def test_variational_bound_montecarlo(pool_222):
    scn = Scenario(2, 2, 2)
    rng = random.Random(13)
    for _ in range(40):
        model = random_adversary_model(
            scn, rng, pool_222,
            n_strategies=rng.randrange(1, 6),
            epsilon=Fraction(rng.randrange(0, 12), 100),
        )
        obs = observed_behavior(model)
        bv = evaluate(bell_functional_for(scn), obs)
        for x in scn.all_settings():
            for k in range(2):
                chk = variational_bound(model, x, k, observed=obs, bell_value=bv)
                assert chk.satisfied


def test_critical_epsilons():
    assert abs(critical_epsilon(2) - (math.sqrt(2) - 1) ** 2 / 2) < 1e-15
    assert critical_epsilon_common(2) == Fraction(1, 6)
    values = [critical_epsilon(n) for n in range(2, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert critical_epsilon(40) < 0.005
    with pytest.raises(ValueError):
        critical_epsilon(1)


def test_feasibility_curve_below_threshold_decreases():
    rows = feasibility_curve(
        2, 2, Fraction(1, 20), [2, 4, 8, 16], lam=1.2, variant="per-party"
    )
    bounds = [r.rhs_bound for r in rows]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_feasibility_curve_between_thresholds():
    # eps above the per-party threshold but below the common-source one
    eps = Fraction(12, 100)
    per = feasibility_curve(2, 2, eps, [2, 4, 8, 16, 32], lam=1.2, variant="per-party")
    common = feasibility_curve(2, 2, eps, [2, 4, 8, 16, 32], lam=1.2, variant="common-source")
    per_bounds = [r.rhs_bound for r in per]
    common_bounds = [r.rhs_bound for r in common]
    assert per_bounds[-1] > per_bounds[1]  # diverges at doubling steps
    assert all(a > b for a, b in zip(common_bounds, common_bounds[1:]))


@pytest.mark.parametrize("epsilon", [Fraction(-1, 10), Fraction(1, 2), 0.5, 0.7, math.nan])
def test_feasibility_curve_takes_the_source_epsilon_range(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1/2\)$"):
        feasibility_curve(2, 2, epsilon, [2, 4], lam=1.0)


def test_feasibility_threshold_independent_of_d():
    for n in (2, 3):
        assert critical_epsilon(n) == critical_epsilon(n)  # d never enters
    rows2 = feasibility_curve(2, 2, Fraction(1, 20), [2, 4], lam=1.0)
    rows3 = feasibility_curve(2, 3, Fraction(1, 20), [2, 4], lam=1.0)
    assert [r.exponent for r in rows2] == [r.exponent for r in rows3]


def test_curve_csv_format():
    rows = feasibility_curve(2, 2, Fraction(1, 20), [2, 4], lam=1.2)
    text = curve_to_csv(2, 2, Fraction(1, 20), rows)
    lines = text.strip().splitlines()
    assert lines[0] == "N,d,epsilon,M,r,exponent,I_Q,rhs_bound,variant"
    assert len(lines) == 3


def test_model_json_roundtrip(pool_222):
    scn = Scenario(2, 2, 2)
    rng = random.Random(21)
    model = random_adversary_model(scn, rng, pool_222, n_strategies=2)
    back = model_from_json(model_to_json(model), exact=True)
    assert back.prior == model.prior
    assert back.behaviors[0].probs == model.behaviors[0].probs
    assert back.input_dists == model.input_dists


@pytest.mark.parametrize(
    "change",
    [
        lambda obj: obj.clear(),
        lambda obj: obj.update(prior=5),
        lambda obj: obj["strategies"][0].update(inputs=[]),
        lambda obj: obj["strategies"][0]["inputs"].update({"0,2": "0"}),
        lambda obj: obj["strategies"][0]["inputs"].update({"0": "0"}),
    ],
    ids=["empty", "prior-number", "inputs-list", "setting-out-of-range", "short-input"],
)
def test_model_reader_rejects_malformed(pool_222, change):
    obj = model_to_json(random_adversary_model(Scenario(2, 2, 2), random.Random(3), pool_222))
    model_from_json(obj)
    change(obj)
    with pytest.raises(InputFormatError):
        model_from_json(obj)


def test_float_prior_sum_uses_tolerance(pool_222):
    obj = model_to_json(random_adversary_model(Scenario(2, 2, 2), random.Random(4), pool_222, n_strategies=3))
    for prior in (["0.7", "0.2", "0.1"], ["0.1", "0.2", "0.7"]):
        obj["prior"] = prior
        assert model_from_json(obj, exact=False).prior == [float(p) for p in prior]
    obj["prior"] = ["0.6", "0.2", "0.1"]
    with pytest.raises(ValueError):
        model_from_json(obj, exact=False)
    # exact models stay exact: a prior off by 10^-12 is rejected
    obj["prior"] = ["7/10", "2/10", "100000000001/1000000000000"]
    with pytest.raises(ValueError):
        model_from_json(obj, exact=True)


# Reference: the per-call formulas the model tables replace, kept verbatim.


def ref_posterior(model, x):
    px = model.input_probability(x)
    if px == 0:
        raise ValueError(f"setting {x} has zero probability")
    return [pw * dist.get(x, 0) / px for pw, dist in zip(model.prior, model.input_dists)]


def ref_bell_settings(scn):
    return recursive_bkp(scn.parties, scn.settings, scn.outcomes).settings_in_terms()


def ref_observed_behavior(model):
    scn = model.scenario
    for x in ref_bell_settings(scn):
        if model.input_probability(x) == 0:
            raise ValueError(f"setting {x} appears in the functional but has p(x)=0")
    probs = [0] * scn.size
    for x in scn.all_settings():
        try:
            post = ref_posterior(model, x)
        except ValueError:
            post = list(model.prior)
        base = scn.column_index(x) * scn.column_size
        for w, b in enumerate(model.behaviors):
            pw = post[w]
            if pw == 0:
                continue
            col = b.column(x)
            for i, p in enumerate(col):
                probs[base + i] += pw * p
    return Behavior(scn, tuple(probs))


def ref_q_factor(model, x):
    settings = ref_bell_settings(model.scenario)
    post_x = ref_posterior(model, tuple(x))
    posts = [ref_posterior(model, s) for s in settings]
    best = None
    for w in range(model.n_strategies):
        p_min = min(p[w] for p in posts)
        if p_min == 0:
            if post_x[w] > 0:
                return None
            continue
        ratio = post_x[w] / p_min
        best = ratio if best is None or ratio > best else best
    return best


def ref_per_call_variational_bound(model, x, party, observed, bell_value):
    d = model.scenario.outcomes
    post = ref_posterior(model, x)
    lhs = 0
    for w, b in enumerate(model.behaviors):
        pw = post[w]
        outcome_dist = marginal(b, [party], [x[party]])
        for a in range(d):
            diff = pw * outcome_dist[a] - pw * Fraction(1, d)
            lhs += diff if diff >= 0 else -diff
    q = ref_q_factor(model, x)
    if q is None:
        rhs, satisfied = None, True
    else:
        rhs = Fraction((d - 1) ** 2 + 1, d) * q * bell_value
        satisfied = lhs <= rhs
    return VariationalCheck(x, party, lhs, rhs, lhs / 2, q, bell_value, satisfied)


def same(a, b):
    """Equal in value and in type, elementwise for lists and tuples."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def outcome(fn, *args):
    """fn's result, or the ValueError it raised, as a comparable value."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


DIFF_SCENARIOS = [Scenario(2, 2, 2), Scenario(2, 3, 2), Scenario(2, 2, 3), Scenario(3, 2, 2)]


@pytest.fixture(scope="module")
def diff_pools():
    rng = random.Random(31)
    return {scn: ns_pool(scn, rng, n_vertices=8, n_lp=1) for scn in DIFF_SCENARIOS}


def test_model_tables_match_per_call_reference(diff_pools):
    rng = random.Random(32)
    for i in range(52):
        scn = DIFF_SCENARIOS[i % 4]
        model = random_adversary_model(
            scn, rng, diff_pools[scn],
            n_strategies=rng.randrange(1, 6),
            epsilon=Fraction(rng.randrange(0, 13), 100),
        )
        if i % 8 in (0, 1):
            # (2,2,2): strategy 0 never picks the functional's setting (1, 0),
            # so p_min(0) = 0 (and p(x) = 0 with one strategy); (2,3,2): no
            # strategy picks (0, 1), a setting outside the functional
            empty, emptied = ((1, 0), 1) if i % 8 == 0 else ((0, 1), model.n_strategies)
            dists = [dict(dist) for dist in model.input_dists]
            for dist in dists[:emptied]:
                dist[(0, 0)] += dist[empty]
                dist[empty] = Fraction(0)
            model = AdversaryModel(scn, model.behaviors, dists, model.prior)
        observed = outcome(observed_behavior, model)
        ref_observed = outcome(ref_observed_behavior, model)
        if ref_observed is ValueError:
            assert observed is ValueError
            observed = ref_observed = uniform_behavior(scn)
        assert same(observed.probs, ref_observed.probs)
        value = evaluate(bell_functional_for(scn), observed)
        for x in scn.all_settings():
            assert same(outcome(model.posterior, x), outcome(ref_posterior, model, x))
            assert same(outcome(q_factor, model, x), outcome(ref_q_factor, model, x))
            for k in range(scn.parties):
                got = outcome(variational_bound, model, x, k, observed, value)
                ref = outcome(ref_per_call_variational_bound, model, x, k, observed, value)
                if ref is ValueError:
                    assert got is ValueError
                    continue
                assert all(
                    same(getattr(got, f.name), getattr(ref, f.name)) for f in dataclasses.fields(ref)
                )
                assert got.satisfied
                assert got.q is not None or i % 8 == 0


def test_zero_probability_bell_setting_raises_at_call_time(pool_222):
    scn = Scenario(2, 2, 2)
    dist = {x: Fraction(0) for x in scn.all_settings()}
    dist[(0, 0)] = Fraction(1)
    model = AdversaryModel(scn, [pool_222[0]], [dist], [Fraction(1)])
    assert model.posterior((0, 0)) == [1]
    for call in (
        lambda: q_factor(model, (0, 0)),
        lambda: q_factor(model, (1, 1)),
        lambda: variational_bound(model, (0, 0), 0, observed=pool_222[0], bell_value=Fraction(0)),
    ):
        with pytest.raises(ValueError):
            call()


def test_ns_row_residual_agrees_with_all_subsets_check(diff_pools):
    rng = random.Random(33)
    for scn, pool in diff_pools.items():
        draws = list(pool)
        draws += [random_ns_mixture(pool, rng) for _ in range(6)]
        draws += [random_behavior(scn, rng) for _ in range(6)]
        draws += [mix([pool[1], random_behavior(scn, rng)], [Fraction(999, 1000), Fraction(1, 1000)])]
        for b in draws:
            residual = ns_row_residual(b)
            assert type(residual) is Fraction
            assert (residual == 0) == is_nonsignalling(b, 0)[0]
        assert all(ns_row_residual(b) == 0 for b in pool)
        assert ns_row_residual(draws[-1]) > 0


def ref_sparse_row_residual(b):
    """max |sum_i c_i p_i| over the (column, coefficient) NS rows, in Fractions."""
    return max(abs(sum(c * b.probs[i] for i, c in row)) for row in _ns_row_nonzeros(b.scenario))


@pytest.mark.parametrize("dims", [(2, 3, 3), (3, 3, 2), (3, 2, 3)])
def test_split_row_residual_matches_sparse_rows(dims):
    scn = Scenario(*dims)
    rng = random.Random(f"split-rows/{dims}")
    ns_point = mix([random_local_vertex(scn, rng) for _ in range(3)], random_weights(3, rng))
    draws = [random_behavior(scn, rng, denom=7) for _ in range(4)]  # signalling
    draws += [ns_point, mix([ns_point, draws[0]], [Fraction(999, 1000), Fraction(1, 1000)])]
    for b in draws:
        residual = ns_row_residual(b)
        assert same(residual, ref_sparse_row_residual(b))
        assert (residual == 0) == is_nonsignalling(b, 0)[0]
    assert ns_row_residual(ns_point) == 0 and ns_row_residual(draws[-1]) > 0


def test_signalling_strategy_reports_row_residual(pool_222):
    scn = Scenario(2, 2, 2)
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 2)
    signalling = Behavior(scn, tuple(probs))
    assert ns_row_residual(signalling) == 1
    with pytest.raises(ValueError, match="NS row residual 1"):
        AdversaryModel(scn, [signalling], [uniform_inputs(scn)], [Fraction(1)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i", [0, 5, 15])
def test_non_finite_strategy_is_rejected(i, value):
    scn = Scenario(2, 2, 2)
    probs = [0.25] * scn.size
    probs[i] = value
    strategy = Behavior(scn, tuple(probs))
    assert not ns_row_residual(strategy) <= FLOAT_TOL
    inputs = {x: 1 / scn.n_columns for x in scn.all_settings()}
    with pytest.raises(ValueError, match="signalling"):
        AdversaryModel(scn, [strategy], [inputs], [1.0])


def negative_ns_behavior(scn, exact=True):
    """A nonsignalling (2,2,2) table with entries -1/20 where a = b and
    11/20 where a != b in every column: each column sums to 1, each
    marginal is uniform, and 8 entries are negative."""
    low, high = (Fraction(-1, 20), Fraction(11, 20)) if exact else (-0.05, 0.55)
    probs = [0] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            probs[scn.index(x, a)] = low if a[0] == a[1] else high
    return Behavior(scn, tuple(probs))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_strategy_that_is_not_a_table_is_rejected(exact):
    scn = Scenario(2, 2, 2)
    strategy = negative_ns_behavior(scn, exact)
    assert len(validate(strategy, FLOAT_TOL)) == 8
    assert ns_row_residual(strategy) <= (0 if exact else FLOAT_TOL)
    inputs = uniform_inputs(scn) if exact else {x: 0.25 for x in scn.all_settings()}
    with pytest.raises(ValueError, match="not a probability table .negative entry"):
        AdversaryModel(scn, [strategy], [inputs], [1])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_model_reader_rejects_a_strategy_that_is_not_a_table(exact):
    scn = Scenario(2, 2, 2)
    obj = model_to_json(AdversaryModel(scn, [uniform_behavior(scn)], [uniform_inputs(scn)], [1]))
    model_from_json(obj, exact)
    obj["strategies"][0]["behavior"] = behavior_to_json(negative_ns_behavior(scn))
    with pytest.raises(ValueError, match="not a probability table"):
        model_from_json(obj, exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_strategy_columns_must_sum_to_one(exact):
    # the uniform table scaled by 2 is nonnegative and nonsignalling
    scn = Scenario(2, 2, 2)
    half = Fraction(1, 2) if exact else 0.5
    strategy = Behavior(scn, (half,) * scn.size)
    inputs = uniform_inputs(scn) if exact else {x: 0.25 for x in scn.all_settings()}
    with pytest.raises(ValueError, match="not a probability table .column"):
        AdversaryModel(scn, [strategy], [inputs], [1])


@pytest.mark.parametrize("eps, accepted", [(1e-12, True), (1e-6, False)])
def test_float_strategy_row_tolerance(pool_222, eps, accepted):
    scn = Scenario(2, 2, 2)
    probs = [float(p) for p in pool_222[0].probs]  # uniform
    # move eps between two outcomes of one column: normalized, but signalling
    probs[0] += eps
    probs[1] -= eps
    strategy = Behavior(scn, tuple(probs))
    inputs = {x: 1 / scn.n_columns for x in scn.all_settings()}
    if accepted:
        AdversaryModel(scn, [strategy], [inputs], [1.0])
    else:
        with pytest.raises(ValueError, match="signalling"):
            AdversaryModel(scn, [strategy], [inputs], [1.0])


def test_variational_bound_defaults_match_explicit(diff_pools, monkeypatch):
    from monogamy_lab import svamp

    calls = []
    monkeypatch.setattr(svamp, "observed_behavior", lambda m: calls.append(m) or observed_behavior(m))
    rng = random.Random(33)
    for i, scn in enumerate(DIFF_SCENARIOS * 2):
        model = random_adversary_model(
            scn, rng, diff_pools[scn],
            n_strategies=rng.randrange(1, 5),
            epsilon=Fraction(rng.randrange(0, 13), 100),
        )
        observed = observed_behavior(model)
        value = evaluate(bell_functional_for(scn), observed)
        for x in scn.all_settings():
            for k in range(scn.parties):
                explicit = variational_bound(model, x, k, observed, value)
                defaulted = variational_bound(model, x, k)
                assert defaulted == explicit
                assert all(
                    same(getattr(defaulted, f.name), getattr(explicit, f.name))
                    for f in dataclasses.fields(explicit)
                )
                # an explicit observed behavior without its value is evaluated, not cached
                assert variational_bound(model, x, k, observed) == explicit
        # the defaults are built once per model
        assert len(calls) == i + 1


# Reference: the Fraction loops that the integer kernels replace, kept
# verbatim (the observed behavior's is ref_observed_behavior above).


def ref_mix(behaviors, weights):
    scn = behaviors[0].scenario
    probs = [0] * scn.size
    for b, w in zip(behaviors, weights):
        if w == 0:
            continue
        exact_w = isinstance(w, (int, Fraction))
        for i, p in enumerate(b.probs):
            if exact_w and type(probs[i]) is Fraction and isinstance(p, (int, Fraction)) and p == 0:
                continue
            probs[i] += w * p
    return Behavior(scn, tuple(probs))


def ref_deviations(model):
    scn = model.scenario
    uniform = Fraction(1, scn.outcomes)
    return [
        [
            [sum(abs(m - uniform) for m in marginal(b, [k], [s])) for s in range(scn.settings)]
            for k in range(scn.parties)
        ]
        for b in model.behaviors
    ]


def ref_variational_bound(model, x, party, observed, bell_value):
    d = model.scenario.outcomes
    x = tuple(x)
    lhs = 0
    for pw, dev in zip(model._posterior(x), model._deviations):
        lhs += pw * dev[party][x[party]]
    q = ref_q_factor(model, x)
    if q is None:
        rhs = None
        satisfied = True
    else:
        rhs = Fraction((d - 1) ** 2 + 1, d) * q * bell_value
        exact = isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction))
        satisfied = lhs <= rhs if exact else lhs <= rhs + 1e-12
    return VariationalCheck(x, party, lhs, rhs, lhs / 2, q, bell_value, satisfied)


def ref_random_sv_input_dist(scenario, rng, epsilon, denom=32):
    source = SVSource(Fraction(epsilon))
    r = source_uses(scenario.settings)
    party_dists = []
    for _ in range(scenario.parties):
        bit_probs = []
        for _ in range(r):
            span = source.high - source.low
            p = source.low + span * Fraction(rng.randrange(denom + 1), denom)
            bit_probs.append(p)
        raw = []
        for bits in itertools.product((0, 1), repeat=r):
            setting = int("".join(map(str, bits)), 2)
            if setting >= scenario.settings:
                continue
            p = Fraction(1)
            for b, pb in zip(bits, bit_probs):
                p *= pb if b else 1 - pb
            raw.append((setting, p))
        total = sum(p for _, p in raw)
        dist = [Fraction(0)] * scenario.settings
        for setting, p in raw:
            dist[setting] += p / total
        party_dists.append(dist)
    joint = {}
    for x in scenario.all_settings():
        p = Fraction(1)
        for k, xk in enumerate(x):
            p *= party_dists[k][xk]
        joint[x] = p
    return joint


def ref_evaluate(functional, behavior):
    d = functional.scenario.outcomes
    total = 0
    for term in functional.terms:
        parties = [k for k, _, _ in term.coeffs]
        settings = [xk for _, xk, _ in term.coeffs]
        dist = marginal(behavior, parties, settings)
        omega = [0] * d
        for a_idx, a in enumerate(itertools.product(range(d), repeat=len(parties))):
            w = term.shift
            for (_, _, sign), ak in zip(term.coeffs, a):
                w += sign * ak
            omega[w % d] += dist[a_idx]
        total += term.weight * sum(i * p for i, p in enumerate(omega) if p)
    return total


def assert_scaled_form(b):
    """Behavior.scaled holds every entry over the least common denominator,
    also when a kernel handed it over."""
    denom, nums = b.scaled
    assert all(Fraction(n, denom) == p for n, p in zip(nums, b.probs))
    assert denom == math.lcm(*(Fraction(p).denominator for p in b.probs))
    assert b.scaled == Behavior(b.scenario, b.probs).scaled


def assert_bounds_match(model, observed, value):
    """variational_bound agrees with the Fraction loop in value and type
    for every (x, k), raising where it raises."""
    scn = model.scenario
    for x in scn.all_settings():
        for k in range(scn.parties):
            got = outcome(variational_bound, model, x, k, observed, value)
            ref = outcome(ref_variational_bound, model, x, k, observed, value)
            if ref is ValueError:
                assert got is ValueError
                continue
            assert all(same(getattr(got, f.name), getattr(ref, f.name)) for f in dataclasses.fields(ref))


def random_mix_case(scn, pool, rng):
    """Pool points under random weights, one of them zero when there are
    more than two; half the time one point has its 0 and 1 entries as ints."""
    k = rng.randrange(1, 5)
    behaviors = rng.sample(pool, k)
    if rng.random() < 0.5:
        i = rng.randrange(k)
        behaviors[i] = Behavior(scn, tuple(int(p) if p in (0, 1) else p for p in behaviors[i].probs))
    weights = random_weights(k, rng)
    if k > 2:
        weights[0] += weights[2]
        weights[2] = rng.choice([0, Fraction(0)])
    return behaviors, weights


def test_integer_kernels_match_fraction_loops(diff_pools):
    rng = random.Random(34)
    for i in range(48):
        scn = DIFF_SCENARIOS[i % 4]
        pool = diff_pools[scn]
        behaviors, weights = random_mix_case(scn, pool, rng)
        got = mix(behaviors, weights)
        assert same(got.probs, ref_mix(behaviors, weights).probs)
        assert_scaled_form(got)

        eps = Fraction(rng.randrange(0, 13), 100)
        seed = rng.random()
        a, b = random.Random(seed), random.Random(seed)
        dist = random_sv_input_dist(scn, a, eps)
        ref = ref_random_sv_input_dist(scn, b, eps)
        assert list(dist) == list(ref) and same(list(dist.values()), list(ref.values()))
        assert a.getstate() == b.getstate()

        model = random_adversary_model(scn, rng, pool, n_strategies=rng.randrange(1, 5), epsilon=eps)
        if i % 5 == 0:
            # a setting of zero probability under every strategy: outside the
            # functional at (2,3,2), where the prior fills its column, and
            # inside it elsewhere, where observed_behavior raises
            empty = (0, 1) if scn == Scenario(2, 3, 2) else (1,) * scn.parties
            zero = (0,) * scn.parties
            dists = [dict(dist) for dist in model.input_dists]
            for dist in dists:
                dist[zero] += dist[empty]
                dist[empty] = Fraction(0)
            model = AdversaryModel(scn, model.behaviors, dists, model.prior)
        assert same(model._deviations, ref_deviations(model))
        assert model._dev_ints is not None  # the integer path
        for strategy in model.behaviors:
            assert_scaled_form(strategy)
        observed = outcome(observed_behavior, model)
        if outcome(ref_observed_behavior, model) is ValueError:
            assert observed is ValueError
            # the settings of zero probability raise, the others are checked
            assert_bounds_match(model, uniform_behavior(scn), Fraction(1, 7))
            continue
        assert same(observed.probs, ref_observed_behavior(model).probs)
        assert_scaled_form(observed)
        functional = bell_functional_for(scn)
        value = evaluate(functional, observed)
        assert same(value, ref_evaluate(functional, observed))
        assert_bounds_match(model, observed, value)
        # a float Bell value makes a float rhs
        assert_bounds_match(model, observed, float(value))


def test_evaluate_plans_follow_a_replaced_functional(diff_pools):
    rng = random.Random(38)
    for scn in DIFF_SCENARIOS:
        f = bell_functional_for(scn)
        behaviors = [random_behavior(scn, rng) for _ in range(3)] + diff_pools[scn][:2]
        for b in behaviors:
            assert same(evaluate(f, b), ref_evaluate(f, b))
        # other weights and shifts, and the parties of each term in reverse order
        terms = tuple(
            ModularTerm(Fraction(rng.randrange(1, 9), 7), tuple(reversed(t.coeffs)), (t.shift + 1) % scn.outcomes)
            for t in f.terms[1:]
        )
        g = dataclasses.replace(f, terms=terms)
        for b in behaviors:
            assert same(evaluate(g, b), ref_evaluate(g, b))
            assert same(evaluate(f, b), ref_evaluate(f, b))


def test_posteriors_are_built_on_demand(diff_pools):
    rng = random.Random(39)
    for scn in DIFF_SCENARIOS:
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
        observed = observed_behavior(model)
        value = evaluate(bell_functional_for(scn), observed)
        for x in scn.all_settings():
            for k in range(scn.parties):
                variational_bound(model, x, k, observed, value)
        # the exact path reads the integer Bayes terms only
        assert "_posteriors" not in model.__dict__
        for x in scn.all_settings():
            got = model.posterior(x)
            assert same(got, ref_posterior(model, x))
            got[0] += 1  # a fresh list: the model keeps its own
            assert same(model.posterior(x), ref_posterior(model, x))
    # (0, 1) is outside the (2,3,2) functional; one float factor there leaves
    # that setting without terms and the model on its posteriors
    scn = Scenario(2, 3, 2)
    model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
    dists = [dict(dist) for dist in model.input_dists]
    dists[1][(0, 1)] = float(dists[1][(0, 1)])
    model = AdversaryModel(scn, model.behaviors, dists, model.prior)
    assert model._terms[(0, 1)] is None
    assert all(model._terms[x] is not None for x in scn.all_settings() if x != (0, 1))
    observed = observed_behavior(model)
    assert same(observed.probs, ref_observed_behavior(model).probs)
    for x in scn.all_settings():
        assert same(model.posterior(x), ref_posterior(model, x))
    assert_bounds_match(model, observed, evaluate(bell_functional_for(scn), observed))


def test_index_plans_are_built_on_first_use():
    # a fresh process: this one has built them already
    code = (
        "import monogamy_lab.cli\n"
        "from monogamy_lab import bell, polylp, svamp\n"
        "plans = (bell.modular_groups, bell._bkp_terms, polylp._ns_row_split)\n"
        "print([plan.cache_info().currsize for plan in plans])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(monogamy_lab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0]


def test_mix_of_int_entries_and_zero_weights(diff_pools):
    scn = Scenario(2, 2, 3)
    vertex = diff_pools[scn][1]
    ints = Behavior(scn, tuple(int(p) for p in vertex.probs))
    assert ints.scaled == vertex.scaled
    uniform = uniform_behavior(scn)
    for behaviors, weights in [
        ([ints, uniform], [Fraction(1, 3), Fraction(2, 3)]),
        ([ints, uniform], [1, Fraction(0)]),
        ([uniform, ints], [0, 1]),
        ([ints, ints], [Fraction(1, 2), Fraction(1, 2)]),
        ([uniform, ints, vertex], [Fraction(1, 2), 0, Fraction(1, 2)]),
    ]:
        got = mix(behaviors, weights)
        # the loop's values; every input is exact, so every entry is a Fraction
        assert got.probs == ref_mix(behaviors, weights).probs
        assert all(type(p) is Fraction for p in got.probs)
        assert_scaled_form(got)


def test_float_behaviors_take_the_entrywise_path(diff_pools):
    rng = random.Random(35)
    for i in range(12):
        scn = DIFF_SCENARIOS[i % 4]
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
        floats = [Behavior(scn, tuple(float(p) for p in b.probs)) for b in model.behaviors]
        assert all(b.scaled is None for b in floats)
        assert Behavior(scn, (Fraction(1, 2),) + floats[0].probs[1:]).scaled is None
        for weights in ([0.25, 0.5, 0.25], [Fraction(1, 4), 0.5, Fraction(1, 4)], [0.0, 1, 0]):
            assert same(mix(floats, weights).probs, ref_mix(floats, weights).probs)
        mixed = [model.behaviors[0], floats[1], model.behaviors[2]]
        weights = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        assert same(mix(mixed, weights).probs, ref_mix(mixed, weights).probs)
        float_model = AdversaryModel(
            scn,
            floats,
            [{x: float(p) for x, p in dist.items()} for dist in model.input_dists],
            [float(p) for p in model.prior],
        )
        assert same(float_model._deviations, ref_deviations(float_model))
        assert float_model._dev_ints is None
        observed = observed_behavior(float_model)
        assert same(observed.probs, ref_observed_behavior(float_model).probs)
        functional = bell_functional_for(scn)
        value = evaluate(functional, observed)
        assert same(value, ref_evaluate(functional, observed))
        assert_bounds_match(float_model, observed, value)
        # exact strategies under a float prior: float posteriors, Fraction deviations
        mixed = AdversaryModel(scn, model.behaviors, model.input_dists, [float(p) for p in model.prior])
        assert all(terms is None for terms in mixed._terms.values())
        assert_bounds_match(mixed, observed_behavior(mixed), value)


def test_int_and_fraction_factors_match_the_fraction_loop(diff_pools):
    # int 0/1 priors and inputs beside Fractions: every setting of these
    # models has all-exact factors, so each is summed in integers
    scn = Scenario(2, 3, 2)
    pool = diff_pools[scn]
    uniform_dist = {x: Fraction(1, 9) for x in scn.all_settings()}
    point = {x: int(x == (0, 0)) for x in scn.all_settings()}
    outside = {**uniform_dist, (0, 0): Fraction(2, 9), (0, 1): 0}  # (0, 1) is not in the functional
    int_vertex = Behavior(scn, tuple(int(p) if p in (0, 1) else p for p in pool[1].probs))
    models = [
        AdversaryModel(scn, [pool[0], int_vertex], [uniform_dist, point], [1, 0]),
        AdversaryModel(scn, [int_vertex, pool[2]], [point, uniform_dist], [Fraction(1, 3), Fraction(2, 3)]),
        AdversaryModel(scn, [pool[2]], [outside], [1]),
    ]
    assert models[2]._terms[(0, 1)] is None and models[2]._posteriors[(0, 1)] is None
    assert all(models[2]._terms[x] is not None for x in scn.all_settings() if x != (0, 1))
    functional = bell_functional_for(scn)
    for model in models:
        assert model._dev_ints is not None
        observed = observed_behavior(model)
        assert same(observed.probs, ref_observed_behavior(model).probs)
        value = evaluate(functional, observed)
        assert same(value, ref_evaluate(functional, observed))
        assert_bounds_match(model, observed, value)


def test_all_int_models_are_exact():
    scn = Scenario(2, 2, 2)
    rng = random.Random(37)
    ints = [Behavior(scn, tuple(map(int, random_local_vertex(scn, rng).probs))) for _ in range(2)]
    uniform_dist = {x: Fraction(1, 4) for x in scn.all_settings()}
    point = {x: int(x == (0, 0)) for x in scn.all_settings()}

    def as_fractions(model):
        return AdversaryModel(
            scn,
            [Behavior(scn, tuple(map(Fraction, b.probs))) for b in model.behaviors],
            [{x: Fraction(p) for x, p in dist.items()} for dist in model.input_dists],
            list(map(Fraction, model.prior)),
        )

    # every factor an int: the posterior at the one setting of nonzero
    # probability is the Fraction 1, as in the Fraction model; every other
    # setting of the functional has p(x) = 0, so Q(x) and the bound raise
    model = AdversaryModel(scn, [ints[0]], [point], [1])
    assert same(model.posterior((0, 0)), [Fraction(1)])
    assert model._terms[(0, 0)] == (1, [1])
    twin = as_fractions(model)
    for x in scn.all_settings():
        assert same(outcome(model.posterior, x), outcome(twin.posterior, x))
    with pytest.raises(ValueError, match="zero probability"):
        variational_bound(model, (0, 0), 0, uniform_behavior(scn), Fraction(1, 7))
    # int prior, int strategies and an int input point beside a Fraction
    # input: Q, lhs and rhs are Fractions, decided exactly
    model = AdversaryModel(scn, ints, [uniform_dist, point], [1, 0])
    twin = as_fractions(model)
    assert same(observed_behavior(model).probs, observed_behavior(twin).probs)
    for x in scn.all_settings():
        for k in range(scn.parties):
            got, ref = variational_bound(model, x, k), variational_bound(twin, x, k)
            assert all(same(getattr(got, f.name), getattr(ref, f.name)) for f in dataclasses.fields(ref))
            assert all(type(v) is Fraction for v in (got.q, got.lhs, got.rhs, got.bell_value))
            assert got.satisfied is (got.lhs <= got.rhs)


def test_integer_form_behaviors_build_probs_on_first_read(diff_pools):
    rng = random.Random(36)
    for i in range(8):
        scn = DIFF_SCENARIOS[i % 4]
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
        observed = observed_behavior(model)
        value = evaluate(bell_functional_for(scn), observed)
        for x in scn.all_settings():
            for k in range(scn.parties):
                variational_bound(model, x, k, observed, value)
        lazy = model.behaviors + [observed]
        # the model path reads only the integer form
        assert all("probs" not in b.__dict__ for b in lazy)
        for b in lazy:
            denom, nums = b.scaled
            eager = Behavior(scn, tuple(Fraction(n, denom) for n in nums))
            # checks that read the entries agree with the eager behavior's
            assert validate(mix([b], [Fraction(1)])) == validate(eager)
            assert same(is_nonsignalling(mix([b], [Fraction(1)])), is_nonsignalling(eager))
            fresh = mix([b], [Fraction(1)])
            assert "probs" not in fresh.__dict__
            assert_scaled_form(fresh)
            # once read, the entries, equality, hash and repr are the eager ones
            assert same(b.probs, eager.probs)
            assert b == eager and eager == b and hash(b) == hash(eager) and repr(b) == repr(eager)
            assert b.scaled == eager.scaled
    scn = Scenario(2, 2, 2)
    with pytest.raises(ValueError, match="expected 16 entries, got 15"):
        Behavior._from_scaled(scn, 1, (0,) * 15)
    with pytest.raises(ValueError, match="expected 16 entries, got 15"):
        Behavior(scn, (Fraction(0),) * 15)


# sha256 of the model_to_json, the VariationalCheck list and the next draw of
# random_adversary_model on a fixed seed and pool, from the Fraction loops.
GOLDEN_MODEL_DIGESTS = {
    (2, 2, 2): "fae20bf520cb67e8223b8419967af09e61a3bb7b19908abdf95fa2e169ae1312",
    (2, 3, 2): "ab8d179992ba4e72dc2098a8521d449911f0fa953811d1fd558d1a251b1ca0a4",
    (2, 2, 3): "764ab46cbf85e65eda959a8f0520f1dc5d29734e55f16ba381150e48e602961b",
}


@pytest.mark.parametrize("dims", sorted(GOLDEN_MODEL_DIGESTS))
def test_random_adversary_model_draws_are_pinned(dims):
    scn = Scenario(*dims)
    rng = random.Random(f"golden/{dims}")
    # local vertices only, so that no LP choice enters the pin
    pool = [uniform_behavior(scn)] + [random_local_vertex(scn, rng) for _ in range(8)]
    model = random_adversary_model(scn, rng, pool)
    checks = [variational_bound(model, x, k) for x in scn.all_settings() for k in range(scn.parties)]
    text = json.dumps(model_to_json(model), sort_keys=True) + repr(checks) + repr(rng.random())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_DIGESTS[dims]
