import itertools
import random
from fractions import Fraction

import pytest

from monogamy_lab.bell import evaluate
from monogamy_lab import monogamy
from monogamy_lab.errors import SignallingInputError
from monogamy_lab.monogamy import (
    agreement_probability,
    agreement_vector,
    embedded_bkp,
    guessing_bound,
    guessing_bound_prior,
    minimize_lhs_over_ns,
    monogamy_functional,
    monogamy_lhs_general,
    monogamy_report,
    pair_difference_distribution,
    report_to_csv,
    scan_to_csv,
    tightness_scan,
)
from monogamy_lab.polylp import (
    LinearProgram,
    _simplex,
    _standardize,
    certify,
    ns_constraints,
    ns_program,
    optimize_over_ns,
    verify_certificate,
)
from monogamy_lab.sampling import (
    ns_pool,
    project_to_ns,
    random_behavior,
    random_ns_mixture,
)
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    deterministic_vertex,
    is_nonsignalling,
    mix,
    product,
    uniform_behavior,
    validate,
)
from reference import chained_bkp


def monogamy_lhs_tripartite(
    behavior: Behavior, x_party: int, i: int, j: int, check: bool = True, tol=0
):
    """Three-party special case of :func:`monogamy_lhs_general`; x_party in
    {0, 1} picks which of the two Bell-test parties is compared with the
    third."""
    if behavior.scenario.parties != 3:
        raise ValueError("tripartite form needs exactly 3 parties")
    if x_party not in (0, 1):
        raise ValueError("x_party must be 0 or 1")
    return monogamy_lhs_general(behavior, x_party, i, j, check=check, tol=tol)


@pytest.fixture(scope="module")
def minimizer_222():
    scn = Scenario(2, 2, 2)
    sol = optimize_over_ns(scn, chained_bkp(2, 2).dense(), "min")
    return sol.behavior(scn)


def test_saturation_by_product_construction():
    # all-zero two-party vertex (I = 1) times a deterministic third party
    ab = deterministic_vertex(Scenario(2, 2, 2), [(0, 0), (0, 0)])
    c = deterministic_vertex(Scenario(1, 2, 2), [(0, 0)])
    b = product(ab, c)
    for x_party in (0, 1):
        for i in range(2):
            for j in range(2):
                assert monogamy_lhs_tripartite(b, x_party, i, j) >= 1
    assert monogamy_lhs_tripartite(b, 0, 0, 0) == 1  # saturated


def test_max_violation_forces_uncorrelated_outsider(minimizer_222):
    b = product(minimizer_222, uniform_behavior(Scenario(1, 2, 2)))
    assert monogamy_lhs_tripartite(b, 0, 0, 0) == 1
    p, ok = agreement_probability(b, 0, 0, 0)
    assert p == Fraction(1, 2) and ok


def test_agreement_shift_partition(minimizer_222):
    b = product(minimizer_222, uniform_behavior(Scenario(1, 2, 2)))
    total = sum(agreement_probability(b, 0, 0, 0, m)[0] for m in range(2))
    assert total == 1


@pytest.mark.parametrize("k, l", [(0, 1), (1, 0), (0, 2), (2, 1)])
def test_pair_difference_distribution_counts_a_k_minus_a_l(k, l):
    scn = Scenario(3, 2, 3)
    vertex = deterministic_vertex(scn, [(0, 2), (1, 0), (0, 1)])
    exact = random_behavior(scn, random.Random(k + 3 * l))
    floats = Behavior(scn, tuple(float(p) for p in exact.probs))
    for b in (vertex, exact, floats):
        for x_k in range(2):
            for x_l in range(2):
                x = [0] * 3
                x[k], x[l] = x_k, x_l
                expected = [0] * 3
                for a in scn.all_outcomes():
                    expected[(a[k] - a[l]) % 3] += b.probs[scn.index(x, a)]
                dist = pair_difference_distribution(b, k, x_k, l, x_l)
                if b is floats:
                    assert all(abs(p - q) < 1e-12 for p, q in zip(dist, expected))
                else:
                    assert dist == tuple(expected)
                if l == 2:
                    # p(A_k = [E + m]) read through the LP objective
                    for m in range(3):
                        vec = agreement_vector(scn, k, x_k, x_l, m)
                        assert abs(sum(c * p for c, p in zip(vec, b.probs)) - expected[m]) < 1e-12


@pytest.mark.parametrize("k", [-1, 2, 3])
def test_agreement_probability_rejects_parties_outside_the_bell_test(k):
    # -1 would compare the outsider with itself, 2 is the outsider, 3 is no party
    scn = Scenario(3, 2, 2)
    b = uniform_behavior(scn)
    for call in (
        lambda: agreement_probability(b, k, 0, 0),
        lambda: agreement_vector(scn, k, 0, 0),
        lambda: monogamy_functional(scn, k, 0, 0),
        lambda: minimize_lhs_over_ns(scn, k, 0, 0),
    ):
        with pytest.raises(ValueError, match="k must index one of the first N parties"):
            call()


def test_perfect_correlation_forces_no_violation():
    # outsider copying a party's outcome caps the Bell value from below
    scn = Scenario(3, 2, 2)
    rng = random.Random(11)
    pool = ns_pool(scn, rng, n_vertices=12, n_lp=1)
    for _ in range(20):
        b = random_ns_mixture(pool, rng)
        p, _ = agreement_probability(b, 0, 0, 0)
        if p == 1:
            from monogamy_lab.scenario import restrict

            value = evaluate(chained_bkp(2, 2), restrict(b, range(2)))
            assert value >= 1


def test_signalling_inputs_rejected():
    scn = Scenario(3, 2, 2)
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 4)
    b = Behavior(scn, tuple(probs))
    with pytest.raises(SignallingInputError):
        monogamy_lhs_tripartite(b, 0, 0, 0)


def test_equivalence_of_bell_and_agreement_forms():
    # LHS - (d-1) == (I+1) - d p(equal), via the modular-mean identity
    scn = Scenario(3, 2, 2)
    rng = random.Random(2)
    pool = ns_pool(scn, rng, n_vertices=10, n_lp=1)
    from monogamy_lab.scenario import restrict

    d = 2
    for _ in range(25):
        b = random_ns_mixture(pool, rng)
        i_val = evaluate(chained_bkp(2, 2), restrict(b, range(2)))
        for k in (0, 1):
            lhs = monogamy_lhs_general(b, k, 1, 0, check=False)
            p, _ = agreement_probability(b, k, 1, 0, check=False)
            assert lhs - (d - 1) == (i_val + 1) - d * p


def test_random_ns_points_satisfy_tripartite_monogamy():
    scn = Scenario(3, 2, 2)
    rng = random.Random(4)
    pool = ns_pool(scn, rng, n_vertices=16, n_lp=2)
    for _ in range(100):
        b = random_ns_mixture(pool, rng)
        for k in (0, 1):
            assert monogamy_lhs_general(b, k, rng.randrange(2), rng.randrange(2), check=False) >= 1


def test_projected_random_points_satisfy_monogamy():
    scn = Scenario(3, 2, 2)
    rng = random.Random(8)
    for _ in range(5):
        b = project_to_ns(random_behavior(scn, rng))
        assert validate(b, 0) == []
        assert is_nonsignalling(b, 0)[0]
        assert monogamy_lhs_tripartite(b, 0, 0, 0, check=False) >= 1


def _l1(b1, b2):
    return sum(abs(u - v) for u, v in zip(b1.probs, b2.probs))


def test_projection_fixes_ns_behaviors():
    scn = Scenario(2, 2, 2)
    box = optimize_over_ns(scn, chained_bkp(2, 2).dense(), "min").behavior(scn)
    for b in [
        uniform_behavior(scn),
        deterministic_vertex(scn, [(0, 1), (1, 1)]),
        box,
    ]:
        assert project_to_ns(b).probs == b.probs


def sparse(rows):
    """Dense equality rows as the (column, coefficient) nonzeros that
    LinearProgram takes."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def _l1_distance_to_ns(b):
    """min sum(t) over NS p with |p - q| <= t, in the epigraph form of the
    inequalities (slacks s, r >= 0), solved by the exact simplex alone."""
    n = b.scenario.size
    eq_rows, rhs = ns_constraints(b.scenario)
    for i, q in enumerate(b.probs):
        upper = [0] * (4 * n)  # p - t + s = q
        upper[i], upper[n + i], upper[2 * n + i] = 1, -1, 1
        lower = [0] * (4 * n)  # p + t - r = q
        lower[i], lower[n + i], lower[3 * n + i] = 1, 1, -1
        eq_rows += sparse([upper, lower])
        rhs += [q, q]
    lp = LinearProgram([0] * n + [1] * n + [0] * (2 * n), "min", eq_rows, rhs)
    return _simplex(_standardize(lp)).value


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_projection_is_nearest_ns_point(dims):
    # a signalling behavior near the NS point q: q and the uniform behavior
    # bound the distance, and an independent LP gives its exact value
    scn = Scenario(*dims)
    rng = random.Random(11)
    pool = ns_pool(scn, rng, n_vertices=6, n_lp=1)
    for _ in range(2):
        q = random_ns_mixture(pool, rng)
        b = mix([q, random_behavior(scn, rng)], [Fraction(9, 10), Fraction(1, 10)])
        p = project_to_ns(b)
        assert not is_nonsignalling(b, 0)[0]
        assert validate(p, 0) == [] and is_nonsignalling(p, 0)[0]
        assert _l1(b, p) <= min(_l1(b, q), _l1(b, uniform_behavior(scn)))
        assert _l1(b, p) == _l1_distance_to_ns(b)


def test_guessing_bound_values():
    assert guessing_bound(Fraction(0), 2) == Fraction(1, 2)
    assert guessing_bound(Fraction(0), 3) == Fraction(1, 3)
    assert guessing_bound(Fraction(1), 2) == 1
    assert guessing_bound(Fraction(1, 2), 3) == Fraction(1, 2)
    assert guessing_bound(Fraction(5), 2) == 1  # clamped
    with pytest.raises(ValueError):
        guessing_bound(Fraction(-1), 2)


def test_guessing_bound_prior_values():
    assert guessing_bound_prior(Fraction(0), 2, 2, 2) == Fraction(1, 2)
    assert guessing_bound_prior(Fraction(1, 2), 2, 2, 2) == Fraction(3, 4)
    # crossing at 4 (d-1)/d^2 for N = 2
    for d in (2, 3, 4, 5, 6):
        crossing = Fraction(4 * (d - 1), d * d)
        assert guessing_bound_prior(crossing, 2, 2, d) == 1
        assert guessing_bound_prior(crossing * Fraction(99, 100), 2, 2, d) < 1


def test_tight_bound_dominates_prior():
    # (1+I)/d <= (1 + d^N (N-1) I/4)/d, strict for I > 0 unless d^N (N-1) = 4
    grid = [Fraction(i, 8) for i in range(9)]
    for d in (2, 3, 4):
        for n in (2, 3):
            for t in grid:
                i_val = t * (d - 1)
                tight = guessing_bound(i_val, d)
                prior = guessing_bound_prior(i_val, n, 2, d)
                assert tight <= prior
                if i_val > 0 and d**n * (n - 1) > 4 and prior < 1:
                    assert tight < prior
    # the d = 2, N = 2 curves coincide identically
    assert guessing_bound(Fraction(1, 3), 2) == guessing_bound_prior(Fraction(1, 3), 2, 2, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_tightness_scan_is_exact(d):
    scn = Scenario(3, 2, d)
    rows = tightness_scan(scn, 0, 0, 0)
    assert len(rows) == 5
    for row in rows:
        assert row.status == "optimal"
        assert row.lp_max == row.bound == (1 + row.target) / d
        assert row.tight


def test_tightness_scan_builds_the_bell_row_once(monkeypatch):
    from monogamy_lab import bell

    calls = []
    dense = bell.BellFunctional.dense
    monkeypatch.setattr(bell.BellFunctional, "dense", lambda f: calls.append(f) or dense(f))
    rows = tightness_scan(Scenario(3, 2, 2), 0, 0, 0)
    assert len(rows) == 5 and all(r.tight for r in rows)
    assert len(calls) == 1


def test_tightness_scan_flags_out_of_range_targets():
    scn = Scenario(3, 2, 2)
    rows = tightness_scan(scn, 0, 0, 0, grid=[Fraction(3, 2), Fraction(-1, 2)])
    assert all(r.status == "out-of-range" and not r.tight for r in rows)


def bell_row(scn):
    return [(j, c) for j, c in enumerate(embedded_bkp(scn).dense()) if c]


def row_fields(rows):
    return [(r.target, r.status, r.lp_max, r.bound, r.tight) for r in rows]


def counted_solves(monkeypatch):
    """The targets of every pinned LP that tightness_scan solves from now on."""
    targets = []
    solve = monogamy.optimize_over_ns

    def counting(scn, obj, sense, extra_eq):
        targets.append(extra_eq[0][1])
        return solve(scn, obj, sense, extra_eq)

    monkeypatch.setattr(monogamy, "optimize_over_ns", counting)
    return targets


def all_pairings(scn):
    return itertools.product(
        range(scn.parties - 1), range(scn.settings), range(scn.settings), range(scn.outcomes)
    )


@pytest.mark.parametrize(
    "dims, pairings",
    [((3, 2, 2), None), ((3, 2, 3), None), ((4, 2, 2), [(2, 1, 0, 1)])],
    ids=["322-all", "323-all", "422-one"],
)
def test_tightness_scan_matches_per_target_lps(monkeypatch, dims, pairings):
    scn = Scenario(*dims)
    row = bell_row(scn)
    top = scn.outcomes - 1
    solved = counted_solves(monkeypatch)
    for k, x_k, x_last, m in pairings or all_pairings(scn):
        solved.clear()
        rows = tightness_scan(scn, k, x_k, x_last, m=m)
        # the two ends, and at most one target inside, where every optimal
        # dual has the value's slope and so certifies every other target
        assert solved[:2] == [0, top] and len(solved) <= 3
        obj = agreement_vector(scn, k, x_k, x_last, m)
        direct = []
        for r in rows:
            sol = optimize_over_ns(scn, obj, "max", extra_eq=[(row, r.target)])
            direct.append((r.target, sol.status, sol.value, r.bound, sol.value == r.bound))
            assert verify_certificate(ns_program(scn, obj, "max", [(row, r.target)]), r.solution)
        assert row_fields(rows) == direct
        assert all(r.tight for r in rows)


def test_tightness_scan_solves_each_row_when_no_candidate_passes(monkeypatch):
    scn = Scenario(3, 2, 3)
    grid = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 4), Fraction(2), Fraction(3)]
    expected = tightness_scan(scn, 0, 1, 0, grid, m=2)
    monkeypatch.setattr(monogamy, "certify", lambda lp, point, dual: None)
    solved = counted_solves(monkeypatch)
    rows = tightness_scan(scn, 0, 1, 0, grid, m=2)
    assert row_fields(rows) == row_fields(expected)
    assert solved == [0, 2, Fraction(1, 3), 1, Fraction(7, 4)]
    assert all(r.solution.engine != "candidate" for r in rows[:-1])
    assert rows[-1].status == "out-of-range" and rows[-1].solution is None


def test_tightness_scan_rejects_a_moved_bell_multiplier():
    scn = Scenario(3, 2, 2)
    obj = agreement_vector(scn, 0, 0, 0)
    row = bell_row(scn)
    ends = [optimize_over_ns(scn, obj, "max", extra_eq=[(row, Fraction(t))]) for t in (0, 1)]
    pool = optimize_over_ns(scn, obj, "max", extra_eq=[(row, Fraction(1, 4))]).dual
    t = Fraction(1, 2)
    point = [(1 - t) * a + t * b for a, b in zip(ends[0].point, ends[1].point)]
    lp = ns_program(scn, obj, "max", [(row, t)])
    assert certify(lp, point, pool).value == Fraction(3, 4)
    # the Bell row is the last row; at t != 0 its multiplier enters b.y
    for step in (Fraction(1, 1000), Fraction(-1, 1000)):
        moved = list(pool)
        moved[-1] += step
        assert certify(lp, point, moved) is None


@pytest.mark.parametrize("m", [-1, 2, 5])
def test_shift_outside_the_outcomes_is_rejected(m):
    scn = Scenario(3, 2, 2)
    with pytest.raises(ValueError, match=f"shift {m} out of range for d=2"):
        agreement_vector(scn, 0, 0, 0, m)
    with pytest.raises(ValueError, match=f"shift {m} out of range for d=2"):
        tightness_scan(scn, 0, 0, 0, m=m)


def test_four_party_lhs_minimum():
    sol = minimize_lhs_over_ns(Scenario(4, 2, 2), 0, 0, 0)
    assert sol.status == "optimal"
    assert sol.value == 1


def test_report_and_csv(minimizer_222):
    b = product(minimizer_222, uniform_behavior(Scenario(1, 2, 2)))
    records = monogamy_report(b)
    assert len(records) == 2 * 2 * 2 * 2  # k, x_k, x_last, m
    assert all(r.satisfied for r in records)
    csv_text = report_to_csv(records)
    assert csv_text.splitlines()[0] == "k,x_k,x_last,m,t,lhs,bound,slack"

    rows = tightness_scan(Scenario(3, 2, 2), 0, 0, 0, grid=[Fraction(0)])
    text = scan_to_csv(rows, 0, 0, 0)
    assert "1/2" in text
