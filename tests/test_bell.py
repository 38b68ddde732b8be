import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monogamy_lab.bell import (
    BellFunctional,
    ModularTerm,
    dense_csv,
    evaluate,
    functional_from_json,
    load_functional,
    functional_to_json,
    modular_groups,
    recursive_bkp,
)
from monogamy_lab.monogamy import embedded_bkp, monogamy_functional
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    deterministic_vertex,
    mix,
    uniform_behavior,
)
from monogamy_lab.sampling import random_behavior
from reference import (
    chained_bkp,
    classical_minimum,
    complement_mean_residuals,
    enumerate_assignments,
    evaluate_assignment,
    modular_mean,
)


def rational_dist(d, seed):
    rng = random.Random(seed)
    raw = [rng.randrange(0, 30) for _ in range(d)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def test_modular_mean_point_masses():
    assert modular_mean([1, 0, 0]) == 0
    assert modular_mean([0, 0, 1]) == 2
    assert modular_mean([Fraction(1, 3)] * 3) == 1


def test_modular_mean_rejects_unnormalized():
    with pytest.raises(ValueError):
        modular_mean([Fraction(1, 2), Fraction(1, 3)])


def test_complement_identities_point_mass():
    # point mass at 1, d = 5: <[W]> = 1, <[-W-1]> = 3, <[-W]> = 4
    dist = [0, 1, 0, 0, 0]
    assert complement_mean_residuals(dist) == (0, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**9))
def test_complement_identities_random(d, seed):
    res_a, res_b = complement_mean_residuals(rational_dist(d, seed))
    assert res_a == 0 and res_b == 0


def test_chained_term_count_and_wrap():
    f = chained_bkp(2, 2)
    assert len(f.terms) == 4
    # the wrap term carries the only nonzero shift
    shifts = sorted(t.shift for t in f.terms)
    assert shifts == [0, 0, 0, 1]
    f3 = chained_bkp(3, 4)
    assert len(f3.terms) == 6
    assert sorted(t.shift for t in f3.terms) == [0, 0, 0, 0, 0, 3]


def test_chained_rejects_single_setting():
    with pytest.raises(ValueError):
        chained_bkp(1, 2)
    with pytest.raises(ValueError):
        chained_bkp(2, 1)


@pytest.mark.parametrize(
    "M,d,expected",
    [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2)],
)
def test_chained_on_all_zero_vertex(M, d, expected):
    # every mean vanishes except the wrap term, whose value is [-1] = d - 1
    f = chained_bkp(M, d)
    v = deterministic_vertex(Scenario(2, M, d), [(0,) * M, (0,) * M])
    assert evaluate(f, v) == expected


def test_chained_on_uniform():
    # each difference is uniform, so every mean is (d-1)/2; 2M terms
    f = chained_bkp(2, 2)
    assert evaluate(f, uniform_behavior(Scenario(2, 2, 2))) == 2
    f = chained_bkp(3, 3)
    assert evaluate(f, uniform_behavior(Scenario(2, 3, 3))) == 6


def test_recursive_base_case_matches_chained():
    # recursive_bkp builds N = 2 by its general formula; chained_bkp is the reference
    for M, d in [(3, 4), (2, 2), (2, 3), (3, 2), (4, 3), (5, 5), (6, 2)]:
        assert recursive_bkp(2, M, d).terms == chained_bkp(M, d).terms


def test_recursive_weights_and_term_count():
    f = recursive_bkp(3, 2, 2)
    assert len(f.terms) == 8  # 2 M^(N-1)
    assert all(t.weight == Fraction(1, 2) for t in f.terms)
    assert len(f.settings_in_terms()) == 8


def test_all_terms_touch_every_party():
    f = recursive_bkp(4, 2, 2)
    for t in f.terms:
        assert sorted(k for k, _, _ in t.coeffs) == [0, 1, 2, 3]


DESK_SET = [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)]


@pytest.mark.parametrize("N,M,d", DESK_SET)
def test_classical_bound_attained(N, M, d):
    f = recursive_bkp(N, M, d)
    assert classical_minimum(f) == d - 1
    assert evaluate_assignment(f, [[0] * M] * N) == d - 1


def symmetry_check(N: int, M: int, d: int) -> bool:
    """Whether the N-party functional is invariant under swapping the last
    and the (N-2)-th party (1-based), e.g. parties 1 and 3 for N = 3."""
    if N < 3:
        raise ValueError("need N >= 3")
    functional = recursive_bkp(N, M, d)
    scn = functional.scenario
    perm = list(range(N))
    perm[N - 1], perm[N - 3] = perm[N - 3], perm[N - 1]
    dense = functional.dense()
    for x in scn.all_settings():
        xs = tuple(x[perm[k]] for k in range(N))
        for a in scn.all_outcomes():
            a_s = tuple(a[perm[k]] for k in range(N))
            if dense[scn.index(x, a)] != dense[scn.index(xs, a_s)]:
                return False
    return True


@pytest.mark.parametrize("N,M,d", [(3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2)])
def test_party_swap_symmetry(N, M, d):
    assert symmetry_check(N, M, d)


def evaluate_dense(functional: BellFunctional, behavior: Behavior):
    """Value via the dense coefficient tensor (must match :func:`evaluate`)."""
    if behavior.scenario != functional.scenario:
        raise ValueError("behavior and functional scenarios differ")
    return sum(c * p for c, p in zip(functional.dense(), behavior.probs) if c)


@pytest.mark.parametrize("N,M,d", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (4, 2, 2)])
def test_dense_and_terms_agree_on_random_behaviors(N, M, d):
    scn = Scenario(N, M, d)
    functionals = [recursive_bkp(N, M, d)]
    if N >= 3:
        # terms that skip the last party, and cross terms that open with a -1
        functionals.append(embedded_bkp(scn))
        functionals += [monogamy_functional(scn, k, k % M, 1) for k in range(N - 1)]
    rng = random.Random(42)
    for _ in range(100):
        b = random_behavior(scn, rng)  # generally signalling; must still agree
        floats = Behavior(scn, tuple(float(p) for p in b.probs))
        for f in functionals:
            assert evaluate(f, b) == evaluate_dense(f, b)
            value = evaluate(f, floats)
            assert type(value) is float and abs(value - evaluate_dense(f, floats)) < 1e-12


def test_replace_builds_its_own_dense_vector():
    f = recursive_bkp(2, 2, 2)
    f.dense()
    g = dataclasses.replace(f, terms=f.terms[:1])
    assert g.dense() != f.dense()
    assert g.dense() == BellFunctional(f.scenario, f.terms[:1]).dense()


def test_chained_functional_is_a_fresh_object_per_call():
    f = recursive_bkp(3, 2, 2)
    f.classical_bound, f.terms = None, f.terms[:1]
    g = recursive_bkp(3, 2, 2)
    assert g is not f and g.classical_bound == 1 and len(g.terms) == 8
    assert g.dense() != f.dense()
    assert all(evaluate_assignment(g, table) >= 1 for table in enumerate_assignments(g.scenario))


def test_evaluate_with_unequal_weights_matches_dense():
    scn = Scenario(2, 2, 3)
    base = recursive_bkp(2, 2, 3)
    weights = [Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 7)]
    f = BellFunctional(scn, tuple(
        ModularTerm(w, t.coeffs, t.shift) for w, t in zip(weights, base.terms)
    ))
    floats = BellFunctional(scn, tuple(ModularTerm(float(t.weight), t.coeffs, t.shift) for t in f.terms))
    rng = random.Random(43)
    for _ in range(20):
        b = random_behavior(scn, rng)
        value = evaluate(f, b)
        assert type(value) is Fraction and value == evaluate_dense(f, b)
        # a float weight on an exact behavior: plain arithmetic, a float
        approx = evaluate(floats, b)
        assert type(approx) is float and abs(approx - value) < 1e-12


def test_evaluate_is_linear_under_mixing():
    scn = Scenario(2, 2, 2)
    f = chained_bkp(2, 2)
    rng = random.Random(9)
    b1, b2 = random_behavior(scn, rng), random_behavior(scn, rng)
    m = mix([b1, b2], [Fraction(1, 2), Fraction(1, 2)])
    assert evaluate(f, m) == (evaluate(f, b1) + evaluate(f, b2)) / 2


def test_evaluate_rejects_scenario_mismatch():
    with pytest.raises(ValueError):
        evaluate(chained_bkp(2, 2), uniform_behavior(Scenario(2, 2, 3)))


def test_vertex_evaluation_matches_behavior_evaluation():
    scn = Scenario(3, 2, 2)
    f = recursive_bkp(3, 2, 2)
    rng = random.Random(3)
    for _ in range(10):
        table = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(3))
        assert evaluate_assignment(f, table) == evaluate(f, deterministic_vertex(scn, table))


def test_functional_json_roundtrip():
    f = recursive_bkp(3, 2, 2)
    back = functional_from_json(json.loads(json.dumps(functional_to_json(f))))
    assert back.terms == f.terms
    assert back.classical_bound == f.classical_bound
    assert back.ns_minimum == f.ns_minimum


def test_load_functional_reads_number_literals_exactly(tmp_path):
    obj = functional_to_json(recursive_bkp(2, 2, 2))
    text = json.dumps(obj).replace('"weight": "1"', '"weight": 0.1')
    assert text.count('"weight": 0.1') == len(obj["terms"])
    path = tmp_path / "f.json"
    path.write_text(text)
    back = load_functional(str(path))
    assert all(t.weight == Fraction(1, 10) for t in back.terms)
    assert back.classical_bound == 1 and back.ns_minimum == 0


def test_dense_csv_shape():
    f = chained_bkp(2, 2)
    lines = dense_csv(f).strip().splitlines()
    assert lines[0] == "x0,x1,a0,a1,coefficient"
    assert len(lines) == 1 + 16


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModularTerm(Fraction(1), ()), "term needs at least one observable"),
        (lambda: ModularTerm(Fraction(1), ((0, 0, 2),)), "signs must be +-1"),
        (lambda: recursive_bkp(1, 2, 2), "need N >= 2"),
        (lambda: modular_groups(Scenario(2, 2, 2), ((2, 0, 1),)), "term party 2 out of range for N=2"),
    ],
    ids=["no-observable", "sign", "one-party", "term-party"],
)
def test_functional_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
