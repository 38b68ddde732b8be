import itertools
import json
import math
import os
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from monogamy_lab.bell import functional_from_json
from monogamy_lab.errors import InputFormatError, ScenarioTooLargeError
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    behavior_from_json,
    behavior_to_json,
    deterministic_vertex,
    enumerate_assignments,
    is_nonsignalling,
    marginal,
    mix,
    product,
    restrict,
    uniform_behavior,
    validate,
)
from monogamy_lab.sampling import random_behavior, random_local_vertex
from monogamy_lab.svamp import model_from_json


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0, 2, 2)
    with pytest.raises(ValueError):
        Scenario(2, 2, 1)
    s = Scenario(2, 2, 2)
    assert s.size == 16 and s.n_columns == 4 and s.column_size == 4


def test_scenario_size_cap(monkeypatch):
    with pytest.raises(ScenarioTooLargeError):
        Scenario(8, 8, 8)
    monkeypatch.setenv("MONOGAMY_LAB_CAP", "50")
    with pytest.raises(ScenarioTooLargeError):
        Scenario(2, 3, 3)
    monkeypatch.setenv("MONOGAMY_LAB_CAP", str(10**15))
    Scenario(8, 8, 8)


def test_uniform_is_valid():
    b = uniform_behavior(Scenario(2, 2, 2))
    assert validate(b, 0) == []


def test_validate_flags_negative_entry():
    b = uniform_behavior(Scenario(2, 2, 2))
    probs = list(b.probs)
    probs[1] += probs[0] + Fraction(1, 100)
    probs[0] = Fraction(-1, 100)
    bad = Behavior(b.scenario, tuple(probs))
    report = validate(bad, 0)
    assert any("negative" in line for line in report)


def test_validate_flags_bad_normalization():
    b = uniform_behavior(Scenario(2, 2, 2))
    probs = list(b.probs)
    probs[0] -= Fraction(1, 10)
    bad = Behavior(b.scenario, tuple(probs))
    report = validate(bad, 0)
    assert any("sums to" in line for line in report)


def with_entry(behavior, i, value):
    probs = list(behavior.probs)
    probs[i] = value
    return Behavior(behavior.scenario, tuple(probs))


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("i", [0, 5, 15])
def test_validate_flags_non_finite_entries(i, value):
    bad = with_entry(uniform_behavior(Scenario(2, 2, 2), exact=False), i, value)
    x_idx, a_idx = divmod(i, 4)
    x = divmod(x_idx, 2)
    column = f"column {x} sums to {sum(bad.column(x))}, expected 1"
    if value == math.inf:
        # +inf is no negative entry; its column sum fails
        assert validate(bad, 1e-9) == [column]
    else:
        kind = "negative" if value < 0 else "undefined"
        assert validate(bad, 1e-9) == [f"{kind} entry {value} at column {x_idx}, outcome {a_idx}", column]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("i", [0, 5, 15])
def test_non_finite_entries_are_not_nonsignalling(i, value):
    bad = with_entry(uniform_behavior(Scenario(2, 2, 2), exact=False), i, value)
    ok, worst = is_nonsignalling(bad, 1e-9)
    assert not ok and not math.isfinite(worst)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    b = uniform_behavior(Scenario(2, 2, 2), exact=False)
    for check in (validate, is_nonsignalling):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check(b, tol)
    assert validate(b, 0.0) == [] and is_nonsignalling(b, 1e300)[0]


def test_uniform_and_products_are_nonsignalling():
    u = uniform_behavior(Scenario(2, 2, 2))
    ok, worst = is_nonsignalling(u, 0)
    assert ok and worst == 0
    v1 = uniform_behavior(Scenario(1, 2, 2))
    assert is_nonsignalling(product(v1, v1), 0)[0]


def test_signalling_behavior_detected():
    # Alice's outcome copies Bob's setting: p(a, b | x, y) = [a == y] / 2.
    scn = Scenario(2, 2, 2)
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 2)
    b = Behavior(scn, tuple(probs))
    assert validate(b, 0) == []
    ok, worst = is_nonsignalling(b, 0)
    assert not ok
    assert worst == 1


def test_marginal_of_uniform_and_vertex():
    scn = Scenario(2, 2, 2)
    u = uniform_behavior(scn)
    assert marginal(u, [0], [1]) == (Fraction(1, 2), Fraction(1, 2))
    v = deterministic_vertex(scn, [(0, 1), (1, 0)])
    assert marginal(v, [0], [0]) == (1, 0)
    assert marginal(v, [0], [1]) == (0, 1)
    assert marginal(v, [0, 1], [1, 0]) == (0, 0, 0, 1)  # outcomes (1, 1)


def test_marginal_on_all_parties_is_column():
    scn = Scenario(2, 2, 2)
    rng = random.Random(0)
    b = random_behavior(scn, rng)
    assert marginal(b, [0, 1], [1, 0]) == b.column((1, 0))


def ref_marginal(behavior, parties, settings, complement_settings):
    """The outcome loop that the cached restriction indices replace."""
    scn = behavior.scenario
    rest = [k for k in range(scn.parties) if k not in parties]
    x = [0] * scn.parties
    for k, xk in zip(list(parties) + rest, list(settings) + list(complement_settings)):
        x[k] = xk
    col = behavior.column(x)
    out = [0] * (scn.outcomes ** len(parties))
    for a_idx, a in enumerate(itertools.product(range(scn.outcomes), repeat=scn.parties)):
        sub = 0
        for k in parties:
            sub = sub * scn.outcomes + a[k]
        out[sub] += col[a_idx]
    return tuple(out)


@pytest.mark.parametrize("dims", [(3, 2, 2), (2, 2, 3), (3, 2, 3)])
def test_marginal_matches_the_outcome_loop(dims):
    scn = Scenario(*dims)
    rng = random.Random(4)
    b = random_behavior(scn, rng)
    ints = Behavior(scn, tuple(int(2 * p) for p in b.probs))  # int entries stay ints
    for r in range(1, scn.parties + 1):
        for parties in itertools.permutations(range(scn.parties), r):
            settings = [rng.randrange(scn.settings) for _ in parties]
            comp = [rng.randrange(scn.settings) for _ in range(scn.parties - r)]
            for behavior in (b, ints):
                got = marginal(behavior, parties, settings, comp)
                ref = ref_marginal(behavior, parties, settings, comp)
                assert got == ref and [type(v) for v in got] == [type(v) for v in ref]


def test_marginal_rejects_empty_subset():
    with pytest.raises(ValueError):
        marginal(uniform_behavior(Scenario(2, 2, 2)), [], [])


def test_marginal_rejects_parties_out_of_range():
    scn = Scenario(3, 2, 2)
    v = deterministic_vertex(scn, [[0, 0], [0, 0], [0, 1]])
    assert marginal(v, [2], [1]) == (0, 1)
    for k in (-1, 3):
        with pytest.raises(ValueError, match="out of range for N=3"):
            marginal(v, [k], [1])


def test_index_rejects_tuples_of_the_wrong_length():
    scn = Scenario(2, 2, 2)
    v = deterministic_vertex(scn, [[0, 1], [0, 1]])
    assert v[(0, 1), (0, 1)] == 1
    with pytest.raises(ValueError, match="need 2 settings, got 1"):
        v[(1,), (0, 0)]
    with pytest.raises(ValueError, match="need 2 settings, got 3"):
        scn.index((1, 0, 1), (0, 0))
    with pytest.raises(ValueError, match="need 2 outcomes, got 1"):
        scn.index((0, 0), (1,))
    with pytest.raises(ValueError, match="need 2 outcomes, got 3"):
        scn.outcome_index((0, 0, 0))


def test_vertex_count_and_ns():
    scn = Scenario(2, 2, 2)
    vertices = [deterministic_vertex(scn, a) for a in enumerate_assignments(scn)]
    assert len(vertices) == 16  # d^(N M)
    assert len({v.probs for v in vertices}) == 16
    for v in vertices[:4]:
        assert validate(v, 0) == []
        assert is_nonsignalling(v, 0)[0]


def test_all_zero_vertex_columns():
    scn = Scenario(2, 2, 2)
    v = deterministic_vertex(scn, [(0, 0), (0, 0)])
    for x in scn.all_settings():
        assert v[x, (0, 0)] == 1


def test_mix_identity_and_halves():
    scn = Scenario(2, 2, 2)
    rng = random.Random(1)
    b = random_behavior(scn, rng)
    assert mix([b], [Fraction(1)]).probs == b.probs
    v1 = random_local_vertex(scn, rng)
    v2 = random_local_vertex(scn, rng)
    m = mix([v1, v2], [Fraction(1, 2), Fraction(1, 2)])
    assert set(m.probs) <= {Fraction(0), Fraction(1, 2), Fraction(1)}


def test_mix_rejects_bad_weights():
    scn = Scenario(2, 2, 2)
    u = uniform_behavior(scn)
    with pytest.raises(ValueError):
        mix([u, u], [Fraction(1, 2), Fraction(1, 3)])


def test_mix_takes_float_weights_within_the_tolerance():
    scn = Scenario(2, 2, 2)
    u = uniform_behavior(scn, exact=False)
    assert sum([0.1] * 10) != 1
    m = mix([u] * 10, [0.1] * 10)
    assert all(type(p) is float and abs(p - 0.25) < 1e-12 for p in m.probs)
    with pytest.raises(ValueError, match="sum to 1"):
        mix([u] * 9, [0.1] * 9)
    with pytest.raises(ValueError, match="nonnegative"):
        mix([u] * 3, [0.6, 0.6, -0.2])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 59))
def test_marginal_commutes_with_mix(seed, num):
    scn = Scenario(2, 2, 2)
    rng = random.Random(seed)
    b1 = random_behavior(scn, rng)
    b2 = random_behavior(scn, rng)
    w = Fraction(num, 60)
    m = mix([b1, b2], [w, 1 - w])
    left = marginal(m, [0], [1])
    right = tuple(
        w * p + (1 - w) * q
        for p, q in zip(marginal(b1, [0], [1]), marginal(b2, [0], [1]))
    )
    assert left == right


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_product_marginal_roundtrip(seed):
    rng = random.Random(seed)
    s2 = Scenario(2, 2, 2)
    s1 = Scenario(1, 2, 2)
    b2 = random_local_vertex(s2, rng)
    b1 = random_behavior(s1, rng)
    joint = product(b2, b1)
    assert is_nonsignalling(joint, 0)[0]
    assert restrict(joint, [0, 1]).probs == b2.probs
    assert restrict(joint, [2]).probs == b1.probs


def test_product_of_vertices_is_vertex():
    s1 = Scenario(1, 2, 2)
    v1 = deterministic_vertex(s1, [(0, 1)])
    v2 = deterministic_vertex(s1, [(1, 0)])
    joint = product(v1, v2)
    expected = deterministic_vertex(Scenario(2, 2, 2), [(0, 1), (1, 0)])
    assert joint.probs == expected.probs


def test_product_requires_matching_settings_outcomes():
    with pytest.raises(ValueError):
        product(uniform_behavior(Scenario(1, 2, 2)), uniform_behavior(Scenario(1, 3, 2)))


def test_json_roundtrip_exact():
    scn = Scenario(2, 2, 2)
    rng = random.Random(5)
    b = random_behavior(scn, rng)
    obj = behavior_to_json(b)
    assert obj["encoding"] == "x-outer-a-inner"
    back = behavior_from_json(json.loads(json.dumps(obj)), exact=True)
    assert back.probs == b.probs


def test_json_accepts_rational_and_decimal_strings():
    obj = {
        "scenario": {"N": 1, "M": 1, "d": 2},
        "encoding": "x-outer-a-inner",
        "values": ["1/3", "0.6666666666666666666666666667"],
    }
    b = behavior_from_json(obj, exact=True)
    assert b.probs[0] == Fraction(1, 3)
    f = behavior_from_json(obj, exact=False)
    assert isinstance(f.probs[0], float)


# Any JSON value, as read_json returns it (non-integer literals as Decimal),
# with the readers' own keys and small integers made likely.
_KEYS = ["scenario", "N", "M", "d", "values", "encoding", "terms", "weight", "coeffs", "shift"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers()
    | st.floats()
    | st.decimals(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "0.5", "x-outer-a-inner", "1e999999999", "2.7"]),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), children, max_size=5),
    max_leaves=24,
)
_scenarios = st.fixed_dictionaries(
    {"N": st.integers(1, 2), "M": st.integers(1, 2), "d": st.integers(2, 3)}
) | st.fixed_dictionaries({"N": _json_values, "M": _json_values, "d": _json_values})
_behaviors = st.fixed_dictionaries(
    {"scenario": _scenarios, "values": _json_values},
    optional={"encoding": _json_values},
)
_coeffs = st.lists(st.lists(st.integers(-1, 2) | _json_values, max_size=4), max_size=3)
_terms = st.fixed_dictionaries(
    {"weight": _json_values, "coeffs": _coeffs | _json_values, "shift": _json_values}
)
# Well-formed terms, whose indices may still lie outside the scenario.
_well_formed_terms = st.fixed_dictionaries(
    {
        "weight": st.sampled_from(["1", "1/2"]),
        "coeffs": st.lists(
            st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.sampled_from([-1, 1])).map(list),
            min_size=1,
            max_size=2,
        ),
        "shift": st.integers(0, 2),
    }
)
_functionals = st.fixed_dictionaries(
    {
        "scenario": _scenarios,
        "terms": st.lists(_well_formed_terms, min_size=1, max_size=3)
        | st.lists(_terms, max_size=3)
        | _json_values,
    },
    optional={"classical_bound": _json_values, "ns_minimum": _json_values},
)
# What a malformed object may raise: InputFormatError and ValueError exit the
# CLI with code 2, ScenarioTooLargeError with code 3; anything else is a crash.
_READER_ERRORS = (InputFormatError, ValueError, ScenarioTooLargeError)


@settings(max_examples=400, deadline=None)
@given(obj=_json_values | _behaviors, exact=st.booleans())
def test_behavior_reader_loads_or_rejects(obj, exact):
    try:
        b = behavior_from_json(obj, exact)
    except _READER_ERRORS:
        return
    assert len(b.probs) == b.scenario.size


@settings(max_examples=400, deadline=None)
@given(obj=_json_values | _functionals)
def test_functional_reader_loads_or_rejects(obj):
    # a small size cap keeps dense() cheap on every functional that loads
    with mock.patch.dict(os.environ, {"MONOGAMY_LAB_CAP": "4096"}):
        try:
            f = functional_from_json(obj)
        except _READER_ERRORS:
            return
        assert all(isinstance(k, int) for t in f.terms for c in t.coeffs for k in c)
        assert len(f.dense()) == f.scenario.size


@pytest.mark.parametrize("coeff", [[5, 0, 1], [0, 9, 1], [-1, 0, 1], [0, -1, 1]])
def test_functional_reader_rejects_observables_outside_scenario(coeff):
    obj = {
        "scenario": {"N": 2, "M": 2, "d": 2},
        "terms": [{"weight": "1", "coeffs": [coeff], "shift": 0}],
    }
    with pytest.raises(InputFormatError):
        functional_from_json(obj)


_inputs = st.dictionaries(
    st.sampled_from(["0", "1", "2", "-1", "0,0", "x"]) | st.text(max_size=3),
    st.sampled_from(["1", "1/2", "0"]) | _json_values,
    max_size=3,
)
_MODEL_PATHS = [
    ("scenario",),
    ("scenario", "M"),
    ("prior",),
    ("prior", 0),
    ("strategies",),
    ("strategies", 0),
    ("strategies", 0, "behavior"),
    ("strategies", 0, "behavior", "values"),
    ("strategies", 0, "inputs"),
    ("strategies", 0, "inputs", "1"),
]


@st.composite
def _models(draw):
    """A valid one-party adversary model with up to two fields replaced."""
    one_party = {"N": 1, "M": 2, "d": 2}
    obj = {
        "scenario": dict(one_party),
        "prior": ["1"],
        "strategies": [
            {"behavior": {"scenario": dict(one_party), "values": ["1/2"] * 4}, "inputs": {"0": "1"}}
        ],
    }
    for path in draw(st.lists(st.sampled_from(_MODEL_PATHS), max_size=2)):
        value = draw(_json_values | _inputs | st.sampled_from(["0", "1/2", "2", "-1"]))
        try:
            target = obj
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed the path
    return obj


@settings(max_examples=400, deadline=None)
@given(obj=_json_values | _models(), exact=st.booleans())
def test_model_reader_loads_or_rejects(obj, exact):
    try:
        m = model_from_json(obj, exact)
    except _READER_ERRORS:
        return
    assert len(m.prior) == m.n_strategies
    assert all(m.scenario.column_index(x) >= 0 for dist in m.input_dists for x in dist)


@pytest.mark.parametrize("field", ["N", "M", "d"])
@pytest.mark.parametrize("bad", [2.7, True, None, "two", [2]])
def test_scenario_sizes_must_be_integers(field, bad):
    scenario = {"N": 1, "M": 1, "d": 2}
    scenario[field] = Decimal(str(bad)) if isinstance(bad, float) else bad
    with pytest.raises(InputFormatError):
        behavior_from_json({"scenario": scenario, "values": ["1/2", "1/2"]})
    with pytest.raises(InputFormatError):
        functional_from_json({"scenario": scenario, "terms": []})


@pytest.mark.parametrize(
    "weights",
    [[Fraction(1, 3), Fraction(2, 3), Fraction(0)], [1, 0, 0], [0.25, 0.75, 0.0], [Fraction(1, 2), 0.5, 0]],
    ids=["fractions", "integers", "floats", "mixed"],
)
def test_mix_keeps_the_type_of_each_summed_entry(weights):
    # skipping zero terms must not change a value or a type: format_number
    # prints int and float 0 as "0.0" but Fraction 0 as "0"
    scn = Scenario(2, 2, 2)
    v1 = deterministic_vertex(scn, [(0, 1), (1, 0)])
    v2 = deterministic_vertex(scn, [(1, 1), (0, 0)])
    ints = Behavior(scn, tuple(int(p) for p in v1.probs))
    behaviors = [v1, ints, v2]
    expected = [0] * scn.size
    for b, w in zip(behaviors, weights):
        if w != 0:
            expected = [e + w * p for e, p in zip(expected, b.probs)]
    got = mix(behaviors, weights).probs
    assert [(type(p), p) for p in got] == [(type(p), p) for p in expected]
