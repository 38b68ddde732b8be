import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import monogamy_lab
from monogamy_lab.bell import ModularTerm, evaluate, recursive_bkp
from monogamy_lab.errors import InputFormatError
from monogamy_lab.sampling import (
    ns_pool, random_behavior, random_ns_mixture, random_weights,
)
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    is_nonsignalling,
    marginal,
    mix,
    ns_row_residual,
    uniform_behavior,
    validate,
)
from monogamy_lab.svamp import (
    AdversaryModel,
    VariationalCheck,
    _sv_grid,
    bell_functional_for,
    critical_epsilon,
    critical_epsilon_common,
    curve_to_csv,
    feasibility_curve,
    likelihood_ratio_bound,
    observed_behavior,
    q_factor,
    q_factor_tilde,
    random_adversary_model,
    random_sv_input_dist,
    source_uses,
    variational_bound,
)
from reference import (
    FLOAT_TOL,
    behavior_to_json,
    chained_bkp,
    model_from_json,
    model_to_json,
    random_local_vertex,
    ref_ns_row_nonzeros,
)


@pytest.fixture(scope="module")
def pool_222():
    return ns_pool(Scenario(2, 2, 2), random.Random(1), n_vertices=10, n_lp=2)


def uniform_inputs(scn):
    p = Fraction(1, scn.n_columns)
    return {x: p for x in scn.all_settings()}


def test_sv_source_validation():
    # an epsilon-source is its bias: the grid's ends are 1/2 -+ eps
    big, base, step = _sv_grid(Fraction(1, 10), 1)
    assert Fraction(base, big) == Fraction(2, 5) and Fraction(base + step, big) == Fraction(3, 5)
    assert likelihood_ratio_bound(Fraction(1, 10), 2) == Fraction(9, 4)
    for epsilon in (Fraction(1, 2), Fraction(-1, 10)):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1/2\)$"):
            likelihood_ratio_bound(epsilon, 2)
    # random_sv_input_dist caches its grid per epsilon, but a bad epsilon raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1/2\)$"):
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
    for x in ref_bell_settings(scn):
        assert q_factor(model, x) == q_factor_tilde(model, x)


def test_q_tilde_sv_bound(pool_222):
    # product SV-box inputs obey Q~ <= ((1+2e)/(1-2e))^(N r)
    scn = Scenario(2, 3, 2)
    rng = random.Random(9)
    pool = ns_pool(scn, rng, n_vertices=8, n_lp=1)
    eps = Fraction(1, 10)
    bound = likelihood_ratio_bound(eps, 2 * source_uses(3))
    for _ in range(10):
        model = random_adversary_model(scn, rng, pool, n_strategies=3, epsilon=eps)
        for x in ref_bell_settings(scn):
            q = q_factor_tilde(model, x)
            assert q is not None and q <= bound


def model_bound(model, x, k):
    """variational_bound at the model's observed behavior and its Bell value."""
    observed = observed_behavior(model)
    value = evaluate(bell_functional_for(model.scenario), observed)
    return variational_bound(model, x, k, observed=observed, bell_value=value)


def test_variational_max_violation_strategy():
    # single strategy at the NS minimum: outcomes unbiased, lhs = rhs = 0
    scn = Scenario(2, 2, 2)
    from monogamy_lab.polylp import optimize_over_ns

    mini = optimize_over_ns(scn, chained_bkp(2, 2).dense(), "min").behavior(scn)
    model = AdversaryModel(scn, [mini], [uniform_inputs(scn)], [Fraction(1)])
    chk = model_bound(model, (0, 0), 0)
    assert chk.lhs == 0 and chk.rhs == 0 and chk.satisfied


def test_variational_deterministic_strategy():
    # deterministic local strategy, d = 2: lhs = 1 <= rhs = I >= 1
    scn = Scenario(2, 2, 2)
    from monogamy_lab.scenario import deterministic_vertex

    v = deterministic_vertex(scn, [(0, 0), (0, 0)])
    model = AdversaryModel(scn, [v], [uniform_inputs(scn)], [Fraction(1)])
    chk = model_bound(model, (0, 0), 0)
    assert chk.lhs == 1
    assert chk.rhs >= 1
    assert chk.satisfied


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


def lam_proxy(lam, m_values):
    """The violations of the CLI's --lam proxy, I ~ |lam|/M."""
    return {m: abs(lam) / m for m in m_values}


def test_feasibility_curve_below_threshold_decreases():
    rows = feasibility_curve(2, 2, Fraction(1, 20), lam_proxy(1.2, [2, 4, 8, 16]))
    for variant in ("per-party", "common-source"):
        bounds = [r.rhs_bound for r in rows if r.variant == variant]
        assert len(bounds) == 4 and all(a > b for a, b in zip(bounds, bounds[1:]))


def test_feasibility_curve_between_thresholds():
    # eps above the per-party threshold but below the common-source one
    eps = Fraction(12, 100)
    rows = feasibility_curve(2, 2, eps, lam_proxy(1.2, [2, 4, 8, 16, 32]))
    # the per-party rows first, then the common-source rows
    assert [r.variant for r in rows] == ["per-party"] * 5 + ["common-source"] * 5
    per, common = rows[:5], rows[5:]
    # both variants come from one call; no parameter picks one
    with pytest.raises(TypeError, match="variant"):
        feasibility_curve(2, 2, eps, lam_proxy(1.2, [2, 4]), variant="per-party")
    per_bounds = [r.rhs_bound for r in per]
    common_bounds = [r.rhs_bound for r in common]
    assert per_bounds[-1] > per_bounds[1]  # diverges at doubling steps
    assert all(a > b for a, b in zip(common_bounds, common_bounds[1:]))


@pytest.mark.parametrize("epsilon", [Fraction(-1, 10), Fraction(1, 2), 0.5, 0.7, math.nan])
def test_feasibility_curve_takes_the_source_epsilon_range(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1/2\)$"):
        feasibility_curve(2, 2, epsilon, lam_proxy(1.0, [2, 4]))


def test_feasibility_threshold_independent_of_d():
    for n in (2, 3):
        assert critical_epsilon(n) == critical_epsilon(n)  # d never enters
    rows2 = feasibility_curve(2, 2, Fraction(1, 20), lam_proxy(1.0, [2, 4]))
    rows3 = feasibility_curve(2, 3, Fraction(1, 20), lam_proxy(1.0, [2, 4]))
    assert [r.exponent for r in rows2] == [r.exponent for r in rows3]


def test_curve_csv_format():
    rows = feasibility_curve(2, 2, Fraction(1, 20), lam_proxy(1.2, [2, 4]))
    text = curve_to_csv(2, 2, Fraction(1, 20), rows)
    lines = text.strip().splitlines()
    assert lines[0] == "N,d,epsilon,M,r,exponent,I_Q,rhs_bound,variant"
    assert len(lines) == 5


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
    # models are exact: a float prior is rejected, also one that sums to 1
    # within FLOAT_TOL
    obj = model_to_json(random_adversary_model(Scenario(2, 2, 2), random.Random(4), pool_222, n_strategies=3))
    for prior in (["0.7", "0.2", "0.1"], ["0.1", "0.2", "0.7"], ["0.6", "0.2", "0.1"]):
        obj["prior"] = prior
        with pytest.raises(ValueError, match="prior entries must be ints or Fractions"):
            model_from_json(obj, exact=False)
    # a prior off by 10^-12 is rejected
    obj["prior"] = ["7/10", "2/10", "100000000001/1000000000000"]
    with pytest.raises(ValueError, match="prior must be a distribution"):
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
    for w in range(len(model.behaviors)):
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
    return VariationalCheck(x, party, lhs, rhs, q, bell_value, satisfied)


def same(a, b):
    """Equal in value and in type, elementwise for lists and tuples."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def outcome(fn, *args, **kwargs):
    """fn's result, or the ValueError it raised, as a comparable value."""
    try:
        return fn(*args, **kwargs)
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
            empty, emptied = ((1, 0), 1) if i % 8 == 0 else ((0, 1), len(model.behaviors))
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
                got = outcome(variational_bound, model, x, k, observed=observed, bell_value=value)
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
    return max(abs(sum(c * b.probs[i] for i, c in row)) for row in ref_ns_row_nonzeros(b.scenario))


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
    probs = [Fraction(1, 4)] * scn.size
    probs[i] = value
    strategy = Behavior(scn, tuple(probs))
    with pytest.raises(ValueError, match="needs an exact behavior"):
        ns_row_residual(strategy)
    with pytest.raises(ValueError, match="strategy behavior entries must be ints or Fractions"):
        AdversaryModel(scn, [strategy], [uniform_inputs(scn)], [1])


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
    # the float table is rejected as a float, before its entries are read
    scn = Scenario(2, 2, 2)
    strategy = negative_ns_behavior(scn, exact)
    assert len(validate(strategy, FLOAT_TOL)) == 8
    if exact:
        assert ns_row_residual(strategy) == 0
    match = "not a probability table .negative entry" if exact else "entries must be ints or Fractions"
    with pytest.raises(ValueError, match=match):
        AdversaryModel(scn, [strategy], [uniform_inputs(scn)], [1])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_model_reader_rejects_a_strategy_that_is_not_a_table(exact):
    # the reader's float mode makes a float model, rejected whatever its strategies
    scn = Scenario(2, 2, 2)
    obj = model_to_json(AdversaryModel(scn, [uniform_behavior(scn)], [uniform_inputs(scn)], [1]))
    if exact:
        model_from_json(obj, exact)
    else:
        with pytest.raises(ValueError, match="prior entries must be ints or Fractions"):
            model_from_json(obj, exact)
    obj["strategies"][0]["behavior"] = behavior_to_json(negative_ns_behavior(scn))
    match = "not a probability table" if exact else "prior entries must be ints or Fractions"
    with pytest.raises(ValueError, match=match):
        model_from_json(obj, exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_strategy_columns_must_sum_to_one(exact):
    # the uniform table scaled by 2 is nonnegative and nonsignalling
    scn = Scenario(2, 2, 2)
    half = Fraction(1, 2) if exact else 0.5
    strategy = Behavior(scn, (half,) * scn.size)
    match = "not a probability table .column" if exact else "entries must be ints or Fractions"
    with pytest.raises(ValueError, match=match):
        AdversaryModel(scn, [strategy], [uniform_inputs(scn)], [1])


@pytest.mark.parametrize("part", ["prior", "inputs", "strategy"])
@pytest.mark.parametrize("value", [0.25, math.nan, math.inf])
def test_adversary_model_rejects_float_inputs(part, value):
    # one float entry, even one of an exact value, makes the model inexact
    scn = Scenario(2, 2, 2)
    prior = [Fraction(1, 4), Fraction(3, 4)]
    inputs = [uniform_inputs(scn), uniform_inputs(scn)]
    strategies = [uniform_behavior(scn)] * 2
    AdversaryModel(scn, strategies, inputs, prior)
    if part == "prior":
        prior[0] = value
    elif part == "inputs":
        inputs[1] = {**inputs[1], (1, 0): value}
    else:
        strategies[1] = Behavior(scn, (value,) + strategies[1].probs[1:])
    with pytest.raises(ValueError, match="must be ints or Fractions"):
        AdversaryModel(scn, strategies, inputs, prior)


@pytest.mark.parametrize("x", [(0, 5), (0, 0, 0), (2, 0), (0,)], ids=["0-5", "0-0-0", "2-0", "0"])
def test_a_setting_outside_the_scenario_is_named_so(pool_222, x):
    scn = Scenario(2, 2, 2)
    model = AdversaryModel(scn, [pool_222[0]], [uniform_inputs(scn)], [1])
    for call in (
        lambda: model.posterior(x),
        lambda: q_factor(model, x),
        lambda: q_factor_tilde(model, x),
        lambda: variational_bound(model, x, 0, observed=pool_222[0], bell_value=Fraction(0)),
    ):
        with pytest.raises(ValueError, match=r"is outside the scenario$"):
            call()


def test_an_input_distribution_outside_the_scenario_is_rejected(pool_222):
    scn = Scenario(2, 2, 2)
    half = Fraction(1, 2)
    AdversaryModel(scn, [pool_222[0]], [{(0, 0): half, (0, 1): half}], [1])
    for dist in ({(0, 0): half, (0, 7): half}, {(0, 0): half, (0, 0, 1): half}, {(0, 0): 1, (1, 2): 0}):
        with pytest.raises(ValueError, match="a setting outside the scenario"):
            AdversaryModel(scn, [pool_222[0]], [dist], [1])


def test_variational_bound_defaults_match_explicit(diff_pools, monkeypatch):
    # no defaults: observed and bell_value are required keywords, and the
    # model keeps neither, so variational_bound builds no observed behavior
    from monogamy_lab import svamp

    calls = []
    monkeypatch.setattr(svamp, "observed_behavior", lambda m: calls.append(m) or observed_behavior(m))
    rng = random.Random(33)
    for scn in DIFF_SCENARIOS:
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=rng.randrange(1, 5))
        observed = observed_behavior(model)
        value = evaluate(bell_functional_for(scn), observed)
        x = (0,) * scn.parties
        explicit = variational_bound(model, x, 0, observed=observed, bell_value=value)
        assert same(explicit.bell_value, value)
        for call in (
            lambda: variational_bound(model, x, 0),
            lambda: variational_bound(model, x, 0, observed=observed),
            lambda: variational_bound(model, x, 0, bell_value=value),
            lambda: variational_bound(model, x, 0, observed, value),
        ):
            with pytest.raises(TypeError):
                call()
        assert not hasattr(model, "observed") and not hasattr(model, "bell_value")
    assert calls == []


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
    for pw, dev in zip(model.posterior(x), ref_deviations(model)):
        lhs += pw * dev[party][x[party]]
    q = ref_q_factor(model, x)
    if q is None:
        rhs = None
        satisfied = True
    else:
        rhs = Fraction((d - 1) ** 2 + 1, d) * q * bell_value
        satisfied = lhs <= rhs
    return VariationalCheck(x, party, lhs, rhs, q, bell_value, satisfied)


def ref_random_sv_input_dist(scenario, rng, epsilon, denom=32):
    low, high = Fraction(1, 2) - Fraction(epsilon), Fraction(1, 2) + Fraction(epsilon)
    r = source_uses(scenario.settings)
    party_dists = []
    for _ in range(scenario.parties):
        bit_probs = []
        for _ in range(r):
            span = high - low
            p = low + span * Fraction(rng.randrange(denom + 1), denom)
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
            got = outcome(variational_bound, model, x, k, observed=observed, bell_value=value)
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
        dev_denom, dev_nums = model._dev_ints
        deviations = [[[Fraction(v, dev_denom) for v in row] for row in table] for table in dev_nums]
        assert same(deviations, ref_deviations(model))
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
    # each call builds p(w|x) from the integer Bayes terms, as a fresh list
    rng = random.Random(39)
    for scn in DIFF_SCENARIOS:
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
        for x in scn.all_settings():
            got = model.posterior(x)
            assert same(got, ref_posterior(model, x))
            got[0] += 1  # a fresh list: the model keeps its own
            assert same(model.posterior(x), ref_posterior(model, x))
    # (0, 1) is outside the (2,3,2) functional; one float factor there is
    # rejected, so no setting is left without integer terms
    scn = Scenario(2, 3, 2)
    model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
    dists = [dict(dist) for dist in model.input_dists]
    dists[1][(0, 1)] = float(dists[1][(0, 1)])
    with pytest.raises(ValueError, match="input distribution values must be ints or Fractions"):
        AdversaryModel(scn, model.behaviors, dists, model.prior)


def test_index_plans_are_built_on_first_use():
    # a fresh process: this one has built them already
    code = (
        "import monogamy_lab.cli\n"
        "from monogamy_lab import bell, scenario, svamp\n"
        "plans = (bell.modular_groups, bell._bkp_terms, scenario.ns_row_entries)\n"
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
    # mix is exact only: a float behavior or weight is refused, as an
    # adversary model refuses float strategies and priors
    rng = random.Random(35)
    for i in range(12):
        scn = DIFF_SCENARIOS[i % 4]
        model = random_adversary_model(scn, rng, diff_pools[scn], n_strategies=3)
        floats = [Behavior(scn, tuple(float(p) for p in b.probs)) for b in model.behaviors]
        assert all(b.scaled is None for b in floats)
        assert Behavior(scn, (Fraction(1, 2),) + floats[0].probs[1:]).scaled is None
        mixed = [model.behaviors[0], floats[1], model.behaviors[2]]
        exact_weights = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        for behaviors, weights in (
            (floats, [0.25, 0.5, 0.25]),
            (floats, exact_weights),
            (mixed, exact_weights),
            (mixed, [Fraction(1, 2), 0, Fraction(1, 2)]),  # a zero weight's float behavior too
            (model.behaviors, [Fraction(1, 4), 0.5, Fraction(1, 4)]),
            (model.behaviors, [0.0, 1, 0]),
        ):
            with pytest.raises(ValueError, match="^weights and behavior entries must be ints or Fractions$"):
                mix(behaviors, weights)
        with pytest.raises(ValueError, match="strategy behavior entries must be ints or Fractions"):
            AdversaryModel(scn, floats, model.input_dists, model.prior)
        with pytest.raises(ValueError, match="prior entries must be ints or Fractions"):
            AdversaryModel(scn, model.behaviors, model.input_dists, [float(p) for p in model.prior])


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
    # p(x) = 0 at (0, 1) only: T_x = 0, and the prior fills its observed column
    assert models[2]._terms[(0, 1)][0] == 0
    assert all(models[2]._terms[x][0] for x in scn.all_settings() if x != (0, 1))
    functional = bell_functional_for(scn)
    for model in models:
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
        variational_bound(model, (0, 0), 0, observed=uniform_behavior(scn), bell_value=Fraction(1, 7))
    # int prior, int strategies and an int input point beside a Fraction
    # input: Q, lhs and rhs are Fractions, decided exactly
    model = AdversaryModel(scn, ints, [uniform_dist, point], [1, 0])
    twin = as_fractions(model)
    assert same(observed_behavior(model).probs, observed_behavior(twin).probs)
    for x in scn.all_settings():
        for k in range(scn.parties):
            got, ref = model_bound(model, x, k), model_bound(twin, x, k)
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
                variational_bound(model, x, k, observed=observed, bell_value=value)
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


def pinned_repr(checks):
    """repr(checks) as it read when the digests were taken: the check then
    also had the field distance = lhs / 2, after rhs."""
    return "[" + ", ".join(
        f"VariationalCheck(x={c.x!r}, party={c.party!r}, lhs={c.lhs!r}, rhs={c.rhs!r}, "
        f"distance={c.lhs / 2!r}, q={c.q!r}, bell_value={c.bell_value!r}, satisfied={c.satisfied!r})"
        for c in checks
    ) + "]"


@pytest.mark.parametrize("dims", sorted(GOLDEN_MODEL_DIGESTS))
def test_random_adversary_model_draws_are_pinned(dims):
    scn = Scenario(*dims)
    rng = random.Random(f"golden/{dims}")
    # local vertices only, so that no LP choice enters the pin
    pool = [uniform_behavior(scn)] + [random_local_vertex(scn, rng) for _ in range(8)]
    model = random_adversary_model(scn, rng, pool)
    observed = observed_behavior(model)
    value = evaluate(bell_functional_for(scn), observed)
    checks = [
        variational_bound(model, x, k, observed=observed, bell_value=value)
        for x in scn.all_settings()
        for k in range(scn.parties)
    ]
    text = json.dumps(model_to_json(model), sort_keys=True) + pinned_repr(checks) + repr(rng.random())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_DIGESTS[dims]


def test_q_factor_tilde_is_none_when_the_ratio_is_unbounded(pool_222):
    # strategy 0 never picks the functional's settings (1, 0) and (1, 1), so
    # min_x' p(x'|0) = 0: unbounded where p(x|0) > 0, skipped where it is 0
    scn = Scenario(2, 2, 2)
    half = Fraction(1, 2)
    biased = {(0, 0): half, (0, 1): half, (1, 0): 0, (1, 1): 0}
    model = AdversaryModel(scn, [pool_222[0]] * 2, [biased, uniform_inputs(scn)], [half, half])
    assert q_factor_tilde(model, (0, 0)) is None and q_factor_tilde(model, (0, 1)) is None
    assert q_factor_tilde(model, (1, 0)) == 1 and q_factor_tilde(model, (1, 1)) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: AdversaryModel(
                Scenario(2, 2, 2), [uniform_behavior(Scenario(2, 2, 3))], [uniform_inputs(Scenario(2, 2, 2))], [1]
            ),
            "behavior scenario mismatch",
        ),
        (
            lambda: variational_bound(
                AdversaryModel(
                    Scenario(2, 2, 2), [uniform_behavior(Scenario(2, 2, 2))], [uniform_inputs(Scenario(2, 2, 2))], [1]
                ),
                (0, 0),
                2,
                observed=uniform_behavior(Scenario(2, 2, 2)),
                bell_value=Fraction(1),
            ),
            "party out of range",
        ),
        (lambda: critical_epsilon_common(1), "need N >= 2"),
        (
            lambda: feasibility_curve(2, 2, Fraction(1, 2) - Fraction(1, 10**22), {2: 1.0}),
            "epsilon is below 1/2 but rounds to 1/2 as a float, where the bias factor is unbounded",
        ),
        (
            lambda: feasibility_curve(2, 2, Fraction(1, 4), {2: 1e308}),
            "the rhs_bound at M=2, exponent 2 leaves float range",
        ),
    ],
    ids=["model-scenario", "party", "common-one-party", "curve-epsilon-rounds-to-half", "curve-bound-overflows"],
)
def test_amplification_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
