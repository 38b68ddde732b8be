import itertools
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from monogamy_lab.bell import evaluate
from monogamy_lab import monogamy
from monogamy_lab.errors import SignallingInputError
from monogamy_lab.monogamy import (
    _CSV_HEADER,
    agreement_vector,
    embedded_bkp,
    guessing_bound,
    guessing_bound_prior,
    minimize_lhs_over_ns,
    monogamy_functional,
    monogamy_lhs_general,
    scan_to_csv,
    tightness_scan,
)
from monogamy_lab.polylp import (
    LinearProgram,
    LPSolution,
    _simplex,
    _standardize,
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
    csv_text,
    deterministic_vertex,
    format_number,
    is_nonsignalling,
    mix,
    uniform_behavior,
    validate,
)
from reference import agreement_probability, chained_bkp, pair_difference_distribution, product, restrict


def monogamy_lhs_tripartite(
    behavior: Behavior, x_party: int, i: int, j: int, check: bool = True
):
    """Three-party special case of :func:`monogamy_lhs_general`; x_party in
    {0, 1} picks which of the two Bell-test parties is compared with the
    third."""
    if behavior.scenario.parties != 3:
        raise ValueError("tripartite form needs exactly 3 parties")
    if x_party not in (0, 1):
        raise ValueError("x_party must be 0 or 1")
    return monogamy_lhs_general(behavior, x_party, i, j, check=check)


@dataclass
class MonogamyRecord:
    k: int
    x_k: int
    x_last: int
    m: int
    lhs: object
    bound: object
    agreement: object
    satisfied: bool

    @property
    def slack(self):
        return self.lhs - self.bound


def monogamy_report(behavior: Behavior) -> list[MonogamyRecord]:
    """Check every (k, x_k, x_last, m) combination on one behavior."""
    scn = behavior.scenario
    monogamy._require_ns(behavior)
    d = scn.outcomes
    n = scn.parties - 1
    value = evaluate(embedded_bkp(scn), behavior)
    records = []
    for k in range(n):
        for x_k in range(scn.settings):
            for x_last in range(scn.settings):
                dist = pair_difference_distribution(behavior, k, x_k, n, x_last)
                for m in range(d):
                    p = dist[m]
                    records.append(
                        MonogamyRecord(
                            k=k,
                            x_k=x_k,
                            x_last=x_last,
                            m=m,
                            lhs=value + 1,
                            bound=d * p,
                            agreement=p,
                            satisfied=value + 1 >= d * p,
                        )
                    )
    return records


def report_to_csv(records) -> str:
    return csv_text(_CSV_HEADER, (
        [r.k, r.x_k, r.x_last, r.m, "",
         format_number(r.lhs), format_number(r.bound), format_number(r.slack)]
        for r in records
    ))


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
    assert guessing_bound_prior(Fraction(0), 2, 2) == Fraction(1, 2)
    assert guessing_bound_prior(Fraction(1, 2), 2, 2) == Fraction(3, 4)
    # crossing at 4 (d-1)/d^2 for N = 2
    for d in (2, 3, 4, 5, 6):
        crossing = Fraction(4 * (d - 1), d * d)
        assert guessing_bound_prior(crossing, 2, d) == 1
        assert guessing_bound_prior(crossing * Fraction(99, 100), 2, d) < 1


def test_tight_bound_dominates_prior():
    # (1+I)/d <= (1 + d^N (N-1) I/4)/d, strict for I > 0 unless d^N (N-1) = 4
    grid = [Fraction(i, 8) for i in range(9)]
    for d in (2, 3, 4):
        for n in (2, 3):
            for t in grid:
                i_val = t * (d - 1)
                tight = guessing_bound(i_val, d)
                prior = guessing_bound_prior(i_val, n, d)
                assert tight <= prior
                if i_val > 0 and d**n * (n - 1) > 4 and prior < 1:
                    assert tight < prior
    # the d = 2, N = 2 curves coincide identically
    assert guessing_bound(Fraction(1, 3), 2) == guessing_bound_prior(Fraction(1, 3), 2, 2)


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

    def counting(scn, obj, sense, extra_eq, start=None):
        targets.append(extra_eq[0][1])
        return solve(scn, obj, sense, extra_eq, start)

    monkeypatch.setattr(monogamy, "optimize_over_ns", counting)
    return targets


def all_pairings(scn):
    return itertools.product(
        range(scn.parties - 1), range(scn.settings), range(scn.settings), range(scn.outcomes)
    )


@pytest.mark.parametrize(
    "dims, pairings, solves",
    [
        ((3, 2, 2), None, {0: [0, 1], 1: [0, 1]}),
        ((3, 2, 3), None, {0: [0, 2], 1: [0, 2, 1]}),
        ((4, 2, 2), [(2, 1, 0, 1)], {0: [0, 1, Fraction(1, 2)]}),
    ],
    ids=["322-all", "323-all", "422-one"],
)
def test_tightness_scan_matches_per_target_lps(monkeypatch, dims, pairings, solves):
    scn = Scenario(*dims)
    row = bell_row(scn)
    solved = counted_solves(monkeypatch)
    for k, x_k, x_last, m in pairings or all_pairings(scn):
        solved.clear()
        rows = tightness_scan(scn, k, x_k, x_last, m=m)
        # the two ends, and the midpoint where the dual of t = 0 does not
        # prove the interval and the midpoint's dual does: at (4,2,2), and
        # at (3,2,3) for x_last = 1 (the solves of each x_last)
        assert solved == solves[x_last]
        obj = agreement_vector(scn, k, x_k, x_last, m)
        direct = []
        for r in rows:
            sol = optimize_over_ns(scn, obj, "max", extra_eq=[(row, r.target)])
            direct.append((r.target, sol.status, sol.value, r.bound, sol.value == r.bound))
            assert verify_certificate(ns_program(scn, obj, "max", [(row, r.target)]), r.solution)
        assert row_fields(rows) == direct
        assert all(r.tight for r in rows)
        assert [r.solution.engine == "interval" for r in rows] == [False, True, True, True, False]


def test_tightness_scan_solves_each_row_when_no_candidate_passes(monkeypatch):
    scn = Scenario(3, 2, 3)
    grid = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 4), Fraction(2), Fraction(3)]
    expected = tightness_scan(scn, 0, 1, 0, grid, m=2)
    assert [r.solution.engine == "interval" for r in expected[:-1]] == [False, True, True, True, False]
    # every solve's Bell multiplier moved: the duals of t = 0 and of the
    # midpoint t = 1 now miss the interval check, and each row is solved
    solved = counted_solves(monkeypatch)
    solve = monogamy.optimize_over_ns
    own = {}

    def moved(scn, obj, sense, extra_eq, start=None):
        sol = solve(scn, obj, sense, extra_eq, start)
        own[extra_eq[0][1]] = sol
        return replace(sol, dual=sol.dual[:-1] + (sol.dual[-1] + Fraction(1, 1000),))

    monkeypatch.setattr(monogamy, "optimize_over_ns", moved)
    rows = tightness_scan(scn, 0, 1, 0, grid, m=2)
    assert row_fields(rows) == row_fields(expected)
    assert solved == [0, 2, 1, Fraction(1, 3), Fraction(7, 4)]
    assert all(r.solution.engine != "interval" for r in rows[:-1])
    assert all(r.solution.point == own[r.target].point for r in rows[:-1])
    assert rows[-1].status == "out-of-range" and rows[-1].solution is None


@pytest.mark.parametrize(
    "dims", [(3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2)], ids=["322", "332", "323", "422"]
)
def test_warm_scan_matches_cold_solves(monkeypatch, dims):
    # every solve of a scan after the first starts from the previous solve's
    # basis; a scan whose solves all start cold must solve the same targets
    # and give the same rows, and each row equals its own cold LP's optimum
    scn = Scenario(*dims)
    row = bell_row(scn)
    solve = monogamy.optimize_over_ns
    solves = []  # (target, started warm, solution) of each pinned LP

    def warm(scn, obj, sense, extra_eq, start=None):
        sol = solve(scn, obj, sense, extra_eq, start)
        solves.append((extra_eq[0][1], start is not None, sol))
        return sol

    def cold(scn, obj, sense, extra_eq, start=None):
        return warm(scn, obj, sense, extra_eq)

    iterations = {warm: 0, cold: 0}  # of the solves after each scan's first
    for k, x_k, x_last, m in all_pairings(scn):
        scans = {}
        for start in (cold, warm):
            monkeypatch.setattr(monogamy, "optimize_over_ns", start)
            solves.clear()
            scans[start] = tightness_scan(scn, k, x_k, x_last, m=m), list(solves)
            iterations[start] += sum(sol.iterations for _, _, sol in solves[1:])
        (rows, warm_solves), (cold_rows, cold_solves) = scans[warm], scans[cold]
        assert [t for t, _, _ in warm_solves] == [t for t, _, _ in cold_solves]
        assert [w for _, w, _ in warm_solves] == [False] + [True] * (len(warm_solves) - 1)
        assert row_fields(rows) == row_fields(cold_rows)
        obj = agreement_vector(scn, k, x_k, x_last, m)
        for r in rows:
            sol = optimize_over_ns(scn, obj, "max", extra_eq=[(row, r.target)])
            assert (r.status, r.lp_max, r.bound, r.tight) == ("optimal", sol.value, sol.value, True)
            assert verify_certificate(ns_program(scn, obj, "max", [(row, r.target)]), r.solution)
            assert r.solution.engine in ("highs", "interval")
            assert (r.solution.basis is None) == (r.solution.engine == "interval")
    assert iterations[warm] < iterations[cold]


def interval_holds(scn, obj, row, ends, dual, targets):
    """Whether the mix of the end optima with dual passes verify_certificate
    on the pinned LP of every target."""
    (v_0, x_0), (v_top, x_top) = ends
    top = scn.outcomes - 1
    for t in targets:
        s = t / top
        point = [(1 - s) * a + s * b for a, b in zip(x_0, x_top)]
        sol = LPSolution("optimal", (1 - s) * v_0 + s * v_top, point, dual)
        if not verify_certificate(ns_program(scn, obj, "max", [(row, t)]), sol):
            return False
    return True


@pytest.mark.parametrize(
    "dims, pairing", [((3, 2, 2), (0, 0, 0, 0)), ((4, 2, 2), (2, 1, 0, 1))], ids=["322", "422"]
)
def test_interval_certificate_rejects_a_moved_dual_or_end_point(dims, pairing):
    scn = Scenario(*dims)
    k, x_k, x_last, m = pairing
    obj = agreement_vector(scn, k, x_k, x_last, m)
    row = bell_row(scn)
    rows = tightness_scan(scn, k, x_k, x_last, m=m)
    targets = [r.target for r in rows]
    ends = [(r.solution.value, r.solution.point) for r in (rows[0], rows[-1])]
    dual = rows[1].solution.dual
    assert rows[1].solution.engine == "interval"
    assert interval_holds(scn, obj, row, ends, dual, targets)
    # the Bell row is the last row; its multiplier is the slope of b(t).y
    for step in (Fraction(1, 1000), Fraction(-1, 1000)):
        moved = dual[:-1] + (dual[-1] + step,)
        assert not interval_holds(scn, obj, row, ends, moved, targets)
    # one entry of either end point changed
    for end in range(2):
        value, point = ends[end]
        j = next(j for j, p in enumerate(point) if p)
        changed = list(ends)
        changed[end] = (value, point[:j] + (point[j] / 2,) + point[j + 1:])
        assert not interval_holds(scn, obj, row, changed, dual, targets)


@pytest.mark.parametrize("m", [-1, 2, 5])
def test_shift_outside_the_outcomes_is_rejected(m):
    scn = Scenario(3, 2, 2)
    with pytest.raises(ValueError, match=f"shift {m} out of range for d=2"):
        agreement_vector(scn, 0, 0, 0, m)
    # agreement_probability read dist[m % d], a value for every m
    with pytest.raises(ValueError, match=f"shift {m} out of range for d=2"):
        agreement_probability(uniform_behavior(scn), 0, 0, 0, m)
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: monogamy_functional(Scenario(2, 2, 2), 0, 0, 0), "need at least 3 parties (N >= 2 plus the outsider)"),
        (
            lambda: pair_difference_distribution(uniform_behavior(Scenario(3, 2, 2)), 1, 0, 1, 1),
            "party subset has duplicates",
        ),
        (lambda: guessing_bound_prior(Fraction(-1, 10), 2, 2), "violation must be nonnegative"),
        (lambda: guessing_bound_prior(Fraction(1, 10), 1, 2), "need N >= 2"),
    ],
    ids=["two-parties", "same-party", "negative-violation", "one-party"],
)
def test_monogamy_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
