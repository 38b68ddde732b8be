import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import monogamy_lab
from monogamy_lab import polylp, sampling
from monogamy_lab.bell import evaluate, recursive_bkp
from monogamy_lab.monogamy import agreement_vector, embedded_bkp, tightness_scan
from monogamy_lab.polylp import (
    INFEASIBLE,
    LinearProgram,
    LPSolution,
    OPTIMAL,
    UNBOUNDED,
    _DENOMINATOR_CAP,
    _Row,
    _basic_duals,
    _basic_point,
    _basis_lists,
    _certified,
    _highs,
    _rational,
    _simplex,
    _solve_exact,
    _standardize,
    ns_constraints,
    ns_program,
    optimize_over_ns,
    solve,
    verify_certificate,
)
from monogamy_lab.scenario import (
    Behavior,
    Scenario,
    is_nonsignalling,
    ns_row_entries,
    uniform_behavior,
    validate,
)
from reference import (
    IntegerSpan,
    chained_bkp,
    classical_minimum,
    ref_normalization_rows,
    ref_ns_basis_rows,
    ref_ns_row_nonzeros,
    ref_ns_rows_labelled,
    solve_exact_all_pivots,
)


def sparse(rows):
    """Dense equality rows as the (column, coefficient) nonzeros that
    LinearProgram takes."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def test_box_maximum():
    # max x subject to x + s = 1
    lp = LinearProgram([1, 0], "max", eq_rows=sparse([[1, 1]]), eq_rhs=[1])
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.value == 1
    assert verify_certificate(lp, sol)


def test_infeasible_detected():
    # x = 2 and x + s = 1
    lp = LinearProgram([1, 0], "min", eq_rows=sparse([[1, 0], [1, 1]]), eq_rhs=[2, 1])
    assert solve(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram([-1], "min")
    assert solve(lp).status == UNBOUNDED


def test_degenerate_redundant_rows():
    # duplicated and linearly dependent equalities must not break anything
    lp = LinearProgram([1, 1], "min", eq_rows=sparse([[1, 1], [1, 1], [2, 2]]), eq_rhs=[1, 1, 2])
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.value == 1
    assert verify_certificate(lp, sol)


def test_ns_constraint_counts():
    # column 0's normalization row (rhs 1) comes first, then the NS basis
    # rows (rhs 0): (Md)^N - (M(d-1)+1)^N of them
    rows, rhs = ns_constraints(Scenario(2, 2, 2))
    assert len(rows) == 8 and rhs == [1] + [0] * (16 - 9)
    rows, rhs = ns_constraints(Scenario(2, 3, 2))
    assert len(rows) == 21 and rhs == [1] + [0] * (36 - 16)


# sha256 of repr([(row nonzeros in column order, rhs), ...]) over every
# normalization row and every reference NS row, computed from the dense rows
# ns_constraints built before its rows were sparse and became a basis
NS_ROWS_SHA256 = {
    (2, 2, 2): "76d2b2a662ad8ae102654eee5c8c5dff7a41349fa9bc5481b879b1a77c676f11",
    (2, 3, 2): "6265662d04e4fc2135751ca9af0f453ee253c817e6692427964348af87c6ab09",
    (2, 2, 3): "43291c04e9a85b46c1f57f55b671c74872a9e3930c843784bbe05d79ebda51a2",
    (3, 2, 2): "b5d73483e883337c8e00dad263c7f8579e1f91b56e39833ed4b1bb06e57c2fa8",
}


@pytest.mark.parametrize("dims", sorted(NS_ROWS_SHA256))
def test_ns_rows_match_dense_rows(dims):
    scn = Scenario(*dims)
    norm, ns = ref_normalization_rows(scn), ref_ns_row_nonzeros(scn)
    rows, rhs = [*norm, *ns], [1] * len(norm) + [0] * len(ns)
    pinned = repr([(tuple(sorted(row)), b) for row, b in zip(rows, rhs)])
    assert hashlib.sha256(pinned.encode()).hexdigest() == NS_ROWS_SHA256[dims]


NS_ROW_SIZES = [
    (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2),
    (3, 2, 3), (3, 3, 3), (4, 2, 2), (4, 3, 2), (5, 2, 2),
]


@pytest.mark.parametrize("dims", NS_ROW_SIZES)
def test_ns_rows_match_the_per_entry_reference(dims):
    # scenario.ns_row_entries groups the rows from the marginal map; the
    # reference builds every entry with its own Scenario.index and keeps the
    # rows of the basis rule
    scn = Scenario(*dims)
    ref = ref_ns_basis_rows(scn)
    assert ns_row_entries(scn) == tuple(
        (tuple(j for j, c in row if c == 1), tuple(j for j, c in row if c == -1)) for row in ref
    )
    rows, rhs = ns_constraints(scn)
    assert rows == ref_normalization_rows(scn)[:1] + [tuple(sorted(row)) for row in ref]
    assert rhs == [1] + [0] * len(ref)


@pytest.mark.parametrize("dims", NS_ROW_SIZES + [(2, 4, 2)])
def test_ns_rows_are_a_basis(dims):
    # the rows of ns_constraints are independent, as many as the rank, and
    # span every normalization row and every reference NS row exactly
    N, M, d = dims
    scn = Scenario(*dims)
    rows, _ = ns_constraints(scn)
    assert len(rows) == (M * d) ** N - (M * (d - 1) + 1) ** N + 1
    full = ref_ns_row_nonzeros(scn)
    remaining = iter(tuple(sorted(row)) for row in full)
    assert all(row in remaining for row in rows[1:])  # a subsequence, in order
    span = IntegerSpan()
    assert all(span.add(row) for row in rows)
    assert all(row in span for row in [*ref_normalization_rows(scn), *full])


def ns_scenario(lp):
    """The scenario whose ns_constraints rows lead the LP's rows (the
    leading rows of type _Row), and their number."""
    n_ns = next((i for i, row in enumerate(lp.eq_rows) if type(row) is not _Row), len(lp.eq_rows))
    prefix = lp.eq_rows[:n_ns]
    column_size, size = len(prefix[0]), 1 + max(row[-1][0] for row in prefix)
    for N, d, M in itertools.product(range(1, 8), range(2, 6), range(2, 6)):
        if d**N == column_size and (M * d) ** N == size and ns_constraints(Scenario(N, M, d))[0] == prefix:
            return Scenario(N, M, d), n_ns
    raise AssertionError(f"no scenario's NS rows lead an LP of {lp.n_vars} columns")


def on_full_rows(lp, sol):
    """The LP with its NS rows replaced by every normalization row and every
    reference NS row, the solution's duals extended with zeros on the rows
    the basis drops, and the scenario."""
    scn, n_ns = ns_scenario(lp)
    labelled = ref_ns_rows_labelled(scn)
    norm = ref_normalization_rows(scn)
    assert sum(kept for kept, _ in labelled) == n_ns - 1
    full = LinearProgram(
        lp.objective,
        lp.sense,
        [*norm, *(row for _, row in labelled), *lp.eq_rows[n_ns:]],
        [1] * len(norm) + [0] * len(labelled) + list(lp.eq_rhs[n_ns:]),
    )
    if sol.dual is not None:
        kept_duals = iter(sol.dual[1:n_ns])
        dual = (
            sol.dual[0],
            *[0] * (len(norm) - 1),
            *(next(kept_duals) if kept else 0 for kept, _ in labelled),
            *sol.dual[n_ns:],
        )
        sol = replace(sol, dual=dual)
    return scn, full, sol


def assert_certifies_the_full_lp(lp, sol):
    scn, full, extended = on_full_rows(lp, sol)
    assert verify_certificate(full, extended)
    if sol.status == OPTIMAL:
        assert is_nonsignalling(Behavior(scn, tuple(sol.point[: scn.size])), 0)[0]


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file for this test alone."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["ns-lp", "ra-exact"])
def test_reduced_certificate_certifies_the_full_lp_of_each_workload_solve(monkeypatch, workload):
    # every LP of one tiny seed-0 pass, each solved on the basis rows; its
    # certificate, with zero duals on the dropped rows, proves the LP on all
    # the normalization and NS rows
    ops = load_workloads(monkeypatch).build(workload, 0, "tiny")
    solved = []

    def recording(lp, start=None):
        sol = solve(lp, start)
        solved.append((lp, sol))
        return sol

    for module in vars(monogamy_lab).values():
        if getattr(module, "solve", None) is solve:
            monkeypatch.setattr(module, "solve", recording)
    for op in ops:
        assert op.check(op.run()) == []
    assert solved
    for lp, sol in solved:
        assert_certifies_the_full_lp(lp, sol)


@pytest.mark.parametrize("dims", [(3, 2, 2), (3, 2, 3)])
def test_reduced_certificate_certifies_the_full_lp_of_every_scan_row(dims):
    scn = Scenario(*dims)
    bell = [(j, c) for j, c in enumerate(embedded_bkp(scn).dense()) if c]
    pairings = itertools.product(
        range(scn.parties - 1), range(scn.settings), range(scn.settings), range(scn.outcomes)
    )
    for k, x_k, x_last, m in pairings:
        obj = agreement_vector(scn, k, x_k, x_last, m)
        for row in tightness_scan(scn, k, x_k, x_last, m=m):
            assert_certifies_the_full_lp(ns_program(scn, obj, "max", [(bell, row.target)]), row.solution)


@pytest.mark.parametrize(
    "row",
    [[(2, 1)], [(-1, 1)], [(0, 1), (1, 2), (0, 3)], [(1.0, 1)], [(True, 1)]],
    ids=["past-end", "negative", "repeated", "float", "bool"],
)
def test_rows_need_distinct_columns_in_range(row):
    # 1.0 and True both pass `in range(2)`; neither names a column
    with pytest.raises(ValueError, match="distinct and in range"):
        LinearProgram([1, 1], "min", eq_rows=[row], eq_rhs=[1])


def test_standard_rows_are_sorted_nonzeros():
    rows = [[(2, 1), (0, 0), (1, Fraction(1, 2))], [(1, 3), (0, -2)]]
    lp = LinearProgram([1, 1, 1], "min", eq_rows=rows, eq_rhs=[1, 0])
    std = _standardize(lp)
    # row 0 reads ((1, 1), (2, 2)) / 2; the all-int row keeps scale 1
    assert std.rows == [((1, 1), (2, 2)), ((0, -2), (1, 3))]
    assert std.scale == [2, 1]
    assert all(type(a) is int for row in std.rows for _, a in row)


def test_standard_cost_is_integers_over_one_scale():
    # max c.x is min -c.x: c = (1/3, 0, -1/2, 2) becomes (-2, 0, 3, -12) / 6
    lp = LinearProgram([Fraction(1, 3), 0, Fraction(-1, 2), 2], "max")
    std = _standardize(lp)
    assert (std.cost, std.cost_scale, std.sign) == ([-2, 0, 3, -12], 6, -1)
    assert all(type(c) is int for c in std.cost)


def test_integral_fraction_row_builds_no_fraction(monkeypatch):
    # the tightness scan's LP at (3,2,3): its Bell row, pinned to a target,
    # holds integral Fractions, which standardize without a copy
    scn = Scenario(3, 2, 3)
    i_row = [(j, c) for j, c in enumerate(embedded_bkp(scn).dense()) if c]
    assert all(type(c) is Fraction and c.denominator == 1 for _, c in i_row)
    lp = ns_program(scn, agreement_vector(scn, 0, 0, 0), "max", extra_eq=[(i_row, Fraction(1))])
    depth, built = [0], []
    new, integer_row = Fraction.__new__, polylp._integer_row

    def counting_new(cls, *args, **kwargs):
        if depth[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    def counted_integer_row(pairs):
        depth[0] += 1
        try:
            return integer_row(pairs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(polylp, "_integer_row", counted_integer_row)
    std = _standardize(lp)
    assert built == []
    assert (std.rows[-1], std.scale[-1]) == (tuple((j, c.numerator) for j, c in i_row), 1)


def _satisfies(rows, rhs, probs):
    return all(
        sum(c * probs[j] for j, c in row) == b for row, b in zip(rows, rhs)
    )


def test_uniform_satisfies_ns_constraints():
    scn = Scenario(2, 2, 2)
    rows, rhs = ns_constraints(scn)
    assert _satisfies(rows, rhs, uniform_behavior(scn).probs)


def test_signalling_point_violates_ns_equality():
    scn = Scenario(2, 2, 2)
    probs = [Fraction(0)] * scn.size
    for x in scn.all_settings():
        for a in scn.all_outcomes():
            if a[0] == x[1]:
                probs[scn.index(x, a)] = Fraction(1, 2)
    rows, rhs = ns_constraints(scn)
    n = scn.n_columns  # the normalization rows come first
    assert _satisfies(rows[:n], rhs[:n], probs)
    assert not _satisfies(rows[n:], rhs[n:], probs)


@pytest.mark.parametrize("M,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_ns_minimum_of_chained_is_zero(M, d):
    scn = Scenario(2, M, d)
    f = chained_bkp(M, d)
    sol = optimize_over_ns(scn, f.dense(), "min")
    assert sol.status == OPTIMAL
    assert sol.value == 0
    opt = sol.behavior(scn)
    assert validate(opt, 0) == []
    assert is_nonsignalling(opt, 0)[0]
    assert evaluate(f, opt) == 0


def test_ns_minimizer_is_nonlocal_box():
    # at I = 0 every outcome pair must be uniform on each term's settings
    scn = Scenario(2, 2, 2)
    sol = optimize_over_ns(scn, chained_bkp(2, 2).dense(), "min")
    opt = sol.behavior(scn)
    for x in scn.all_settings():
        col = opt.column(x)
        assert sum(col) == 1
        assert max(col) == Fraction(1, 2)


def test_agreement_max_under_zero_violation():
    # max p(A_0 = C_0) subject to I_AB = 0 on (3,2,2) is exactly 1/2
    from monogamy_lab.monogamy import agreement_vector, embedded_bkp

    scn = Scenario(3, 2, 2)
    obj = agreement_vector(scn, 0, 0, 0)
    i_vec = list(embedded_bkp(scn).dense())
    sol = optimize_over_ns(scn, obj, "max", extra_eq=[(sparse([i_vec])[0], Fraction(0))])
    assert sol.status == OPTIMAL and sol.value == Fraction(1, 2)


def pinned_agreement(t):
    """The arguments of ns_program and optimize_over_ns for the (3,2,2)
    tightness LP: the agreement maximum with the Bell row pinned to t."""
    from monogamy_lab.monogamy import agreement_vector, embedded_bkp

    scn = Scenario(3, 2, 2)
    bell_row = sparse([list(embedded_bkp(scn).dense())])[0]
    return scn, agreement_vector(scn, 0, 0, 0), "max", [(bell_row, t)]


def test_pinned_near_tie_is_certified_on_the_basis():
    # HiGHS reads the Bell target 10^-18 as 0, so its rounded point misses;
    # the exact solution of its final basis certifies the optimum
    t = Fraction(1, 10**18)
    sol = optimize_over_ns(*pinned_agreement(t))
    assert sol.status == OPTIMAL and sol.engine == "basis"
    assert sol.value == (1 + t) / 2
    assert verify_certificate(ns_program(*pinned_agreement(t)), sol)


def test_pinned_near_tie_reaches_the_simplex_stage():
    # at 1 - 10^-18 HiGHS's final basis is exactly primal infeasible, so only
    # the exact simplex certifies the optimum of the pinned agreement maximum
    t = 1 - Fraction(1, 10**18)
    sol = optimize_over_ns(*pinned_agreement(t))
    assert sol.status == OPTIMAL and sol.engine == "simplex"
    assert sol.value == (1 + t) / 2
    assert verify_certificate(ns_program(*pinned_agreement(t)), sol)


def test_verify_certificate_checks_a_candidate_like_solve():
    scn = Scenario(2, 2, 3)
    lp = ns_program(scn, chained_bkp(2, 3).dense(), "min")
    sol = optimize_over_ns(scn, chained_bkp(2, 3).dense(), "min")

    def candidate(point, dual):
        return LPSolution(OPTIMAL, sol.value, point, dual)

    assert verify_certificate(lp, candidate(sol.point, sol.dual))
    # a point off the optimum, a dual off the optimal face and vectors of the
    # wrong length are all refused
    uniform = uniform_behavior(scn).probs
    assert not verify_certificate(lp, candidate(uniform, sol.dual))
    assert not verify_certificate(lp, candidate(sol.point, [1] * len(sol.dual)))
    assert not verify_certificate(lp, candidate(sol.point[:-1], sol.dual))
    assert not verify_certificate(lp, candidate(sol.point, sol.dual[:-1]))


def test_ns_min_below_local_min():
    for N, M, d in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        f = recursive_bkp(N, M, d)
        sol = optimize_over_ns(Scenario(N, M, d), f.dense(), "min")
        assert sol.value <= classical_minimum(f)


def test_certificates_on_ns_optimum():
    scn = Scenario(2, 2, 3)
    f = chained_bkp(2, 3)
    rows, rhs = ns_constraints(scn)
    lp = LinearProgram(list(f.dense()), "min", eq_rows=rows, eq_rhs=rhs)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.dual is not None
    assert verify_certificate(lp, sol)


def test_certificate_rejects_tampered_value():
    lp = LinearProgram([1, 1], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1])
    sol = solve(lp)
    sol.value = Fraction(2)
    assert not verify_certificate(lp, sol)


def test_certificate_rejects_suboptimal_point():
    # (0, 1) is feasible and y = 1 is dual feasible, but 2 != b.y = 1
    lp = LinearProgram([1, 2], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1])
    sol = solve(lp)
    assert sol.dual == (1,) and verify_certificate(lp, sol)
    sol.point, sol.value = (Fraction(0), Fraction(1)), Fraction(2)
    assert not verify_certificate(lp, sol)


def test_certificate_requires_duals():
    lp = LinearProgram([1, 2], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1])
    sol = solve(lp)
    assert verify_certificate(lp, sol)
    sol.dual = None
    assert not verify_certificate(lp, sol)


def test_certificate_rejects_non_finite_entries():
    # NaN and infinity have no exact value: the check refuses them, as it
    # refuses a vector of the wrong length, instead of raising
    lp = LinearProgram([1, 2], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1])
    sol = solve(lp)
    for point in [(math.nan, 1.0), (math.inf, 0.0)]:
        assert not verify_certificate(lp, replace(sol, point=point))
    assert not verify_certificate(lp, replace(sol, dual=(math.nan,)))
    unbounded = LinearProgram([-1], "min")
    sol = solve(unbounded)
    assert sol.status == UNBOUNDED and verify_certificate(unbounded, sol)
    assert not verify_certificate(unbounded, replace(sol, ray=(math.inf,)))


def with_slacks(objective, sense, eq_rows, eq_rhs, ub_rows, ub_rhs, upper):
    """The LP with rows ub_rows . x <= ub_rhs and bounds x_j <= upper[j]
    (None = no bound) written as equalities, one slack column per row."""
    n = len(objective)
    ub_rows, ub_rhs = list(ub_rows), list(ub_rhs)
    for j, u in enumerate(upper):
        if u is not None:
            ub_rows.append([int(k == j) for k in range(n)])
            ub_rhs.append(u)
    k = len(ub_rows)
    rows = [list(row) + [0] * k for row in eq_rows]
    rows += [list(row) + [int(i == s) for s in range(k)] for i, row in enumerate(ub_rows)]
    return LinearProgram(list(objective) + [0] * k, sense, sparse(rows), list(eq_rhs) + ub_rhs)


@st.composite
def small_lps(draw):
    """Random LPs of up to 4 variables with equalities, inequalities and
    upper bounds, the last two through slack columns."""
    n = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vec = st.lists(coeff, min_size=n, max_size=n)
    n_eq = draw(st.integers(0, 2))
    n_ub = draw(st.integers(0, 2))
    return with_slacks(
        draw(vec),
        draw(st.sampled_from(["min", "max"])),
        [draw(vec) for _ in range(n_eq)],
        [draw(coeff) for _ in range(n_eq)],
        [draw(vec) for _ in range(n_ub)],
        [draw(coeff) for _ in range(n_ub)],
        [draw(st.sampled_from([None, 2, Fraction(5, 2)])) for _ in range(n)],
    )


@st.composite
def near_tie_lps(draw):
    """small_lps with each cost and right-hand side shifted by k/10^18,
    k in -5..5: ties and zeros that floats cannot tell apart."""
    lp = draw(small_lps())
    shift = st.integers(-5, 5).map(lambda k: Fraction(k, 10**18))
    return LinearProgram(
        [c + draw(shift) for c in lp.objective],
        lp.sense,
        lp.eq_rows,
        [b + draw(shift) for b in lp.eq_rhs],
    )


def assert_agrees_with_oracle(lp):
    sol = solve(lp)
    oracle = _simplex(_standardize(lp))
    assert sol.status == oracle.status
    assert sol.value == oracle.value
    assert verify_certificate(lp, sol)
    assert verify_certificate(lp, oracle)


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_solve_agrees_with_simplex_oracle(lp):
    assert_agrees_with_oracle(lp)


@settings(max_examples=200, deadline=None)
@given(near_tie_lps())
def test_solve_agrees_with_simplex_oracle_on_near_ties(lp):
    assert_agrees_with_oracle(lp)


def test_ns_optimum_is_certified_by_highs():
    scn = Scenario(3, 2, 2)
    rows, rhs = ns_constraints(scn)
    lp = LinearProgram(list(recursive_bkp(3, 2, 2).dense()), "min", eq_rows=rows, eq_rhs=rhs)
    sol = solve(lp)
    assert sol.engine == "highs" and sol.value == 0
    assert verify_certificate(lp, sol)


@pytest.mark.parametrize(
    "lp",
    [
        # the primal point 1/1000003 has a denominator above the rounding cap
        LinearProgram([1], "min", eq_rows=sparse([[1]]), eq_rhs=[Fraction(1, 1000003)]),
        # so has the dual multiplier of the only row
        LinearProgram([Fraction(1, 1000003)], "min", eq_rows=sparse([[1]]), eq_rhs=[1]),
    ],
    ids=["primal", "dual"],
)
def test_basis_stage_recovers_large_denominators(lp):
    # rounding misses the denominator; the exact basis solve recovers it
    sol = solve(lp)
    assert sol.engine == "basis"
    assert sol.value == Fraction(1, 1000003)
    assert verify_certificate(lp, sol)


@pytest.mark.parametrize(
    "lp",
    [
        # x0 / 2 = 1/1000003: the row has scale 2 and x0 = 2/1000003
        LinearProgram([1], "min", [[(0, Fraction(1, 2))]], [Fraction(1, 1000003)]),
        # the dual multiplier of x0 / 2 = 1 is 2/1000003
        LinearProgram([Fraction(1, 1000003)], "min", [[(0, Fraction(1, 2))]], [1]),
    ],
    ids=["primal", "dual"],
)
def test_basis_stage_solves_scaled_rows(lp):
    sol = solve(lp)
    assert (sol.engine, sol.value) == ("basis", Fraction(2, 1000003))
    assert verify_certificate(lp, sol)


@pytest.mark.parametrize(
    "lp, value",
    [
        # x_1 + s = 1e-20 is zero to HiGHS, so its rounded point misses the
        # optimum; the exact solution of its basis holds it
        (
            LinearProgram([0, -1, 0], "min", eq_rows=sparse([[1, 1, 0], [0, 1, 1]]),
                          eq_rhs=[1, Fraction(1, 10**20)]),
            Fraction(-1, 10**20),
        ),
        # both costs round to the same float, so the rounded dual prices
        # both columns at zero; the basis holds x_1 alone, whose cost
        # 1 - 1e-20 is the exact dual
        (
            LinearProgram(
                [1, 1 - Fraction(1, 10**20)], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1]
            ),
            1 - Fraction(1, 10**20),
        ),
    ],
    ids=["tiny-bound", "tied-costs"],
)
def test_basis_stage_when_floats_hide_the_optimum(lp, value):
    sol = solve(lp)
    assert sol.engine == "basis"
    assert sol.value == value
    assert verify_certificate(lp, sol)


def ref_solve_exact(equations, n):
    """The Fraction elimination that solved the basis systems before they
    were solved in integers, kept as the reference: Gaussian elimination,
    each pivot row divided by its pivot (the first remaining nonzero in row
    order), then back substitution; every free unknown 0, None if the
    system is inconsistent."""
    pivots = {}
    for coeffs, b in equations:
        row = dict(coeffs)
        for p, (prow, pb) in pivots.items():
            f = row.get(p)
            if f:
                for k, v in prow.items():
                    w = row.get(k, 0) - f * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
                b -= f * pb
        if not row:
            if b:
                return None
            continue
        q, f = next(iter(row.items()))
        pivots[q] = ({k: v / f for k, v in row.items()}, b / f)
    x = [Fraction(0)] * n
    for q, (prow, pb) in reversed(pivots.items()):
        x[q] = pb - sum(v * x[k] for k, v in prow.items() if x[k])
    return x


def ref_basic_point(std, columns, rows):
    basic = set(columns)
    equations = (
        ({j: Fraction(a) for j, a in std.rows[i] if j in basic}, std.rhs[i] * std.scale[i])
        for i in rows
    )
    return ref_solve_exact(equations, std.n_cols)


def ref_basic_duals(std, columns, rows):
    basic = {j: {} for j in columns}
    for i in rows:
        for j, a in std.rows[i]:
            if j in basic:
                basic[j][i] = Fraction(a, std.scale[i])
    costs = ((basic[j], Fraction(std.cost[j], std.cost_scale)) for j in columns)
    return ref_solve_exact(costs, len(std.rows))


def as_fractions(solved):
    """A solution (X, D) of _solve_exact as Fractions, None as it is."""
    return solved and [Fraction(v, solved[1]) for v in solved[0]]


NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])
HUGE = st.integers(-(2**330), 2**330)


@st.composite
def linear_systems(draw, kind):
    """(equations, n) in int rows, their nonzeros in a drawn column order,
    and right sides up to 330 bits.  'nonsingular': A = P L U with unit
    lower L and nonzero-diagonal upper U, so one solution.  'singular':
    fewer rows than unknowns, then rows that combine them, with the right
    sides of a drawn solution, shuffled.  'inconsistent': the same with one
    combined row's right side moved."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))

    def rows_of(dense):
        return [{j: row[j] for j in order if row[j]} for row in dense]

    def entry(*choices):
        return draw(st.sampled_from(choices))

    if kind == "nonsingular":
        lower = [[1 if i == j else entry(-2, -1, 0, 0, 1, 2) * (j < i) for j in range(n)]
                 for i in range(n)]
        upper = [[draw(NONZERO) if i == j else entry(-2, -1, 0, 1, 2) * (j > i) for j in range(n)]
                 for i in range(n)]
        dense = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        dense = draw(st.permutations(dense))
        return list(zip(rows_of(dense), [draw(HUGE) for _ in range(n)])), n
    k = draw(st.integers(0, n - 1))
    base = [[entry(-2, -1, 0, 0, 1, 2) for _ in range(n)] for _ in range(k)]
    weights = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    combined = [
        [sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)]
        for cs in draw(st.lists(weights, min_size=1, max_size=3))
    ]
    solution = [draw(HUGE) for _ in range(n)]
    dense = base + combined
    rhs = [sum(a * x for a, x in zip(row, solution)) for row in dense]
    if kind == "inconsistent":
        rhs[k + draw(st.integers(0, len(combined) - 1))] += draw(st.integers(1, 2**330))
    pairs = draw(st.permutations(list(zip(rows_of(dense), rhs))))
    return pairs, n


@pytest.mark.parametrize("kind", ["nonsingular", "singular", "inconsistent"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_exact_matches_the_fraction_reference(kind, data):
    equations, n = data.draw(linear_systems(kind))
    solved = _solve_exact(equations, n)
    reference = ref_solve_exact(
        (({j: Fraction(a) for j, a in row.items()}, Fraction(b)) for row, b in equations), n
    )
    assert as_fractions(solved) == reference
    assert solved == solve_exact_all_pivots(equations, n)
    if kind == "inconsistent":
        assert solved is None
    else:
        x, d = solved
        assert d > 0 and all(sum(a * x[j] for j, a in row.items()) == b * d for row, b in equations)


@st.composite
def basis_systems(draw):
    """A standard form with fractional row coefficients (scales above 1),
    right sides over drawn denominators of 300 to 310 bits, a fractional
    objective, and any set of columns and rows as its basis: square or not,
    singular or not, consistent or not."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = [list(draw(st.dictionaries(st.integers(0, n - 1), coeff)).items()) for _ in range(m)]
    big = st.builds(Fraction, HUGE, st.integers(2**300, 2**310))
    rhs = [draw(big) for _ in range(m)]
    cost = draw(st.lists(st.one_of(coeff, big), min_size=n, max_size=n))
    std = _standardize(LinearProgram(cost, draw(st.sampled_from(["min", "max"])), rows, rhs))
    columns = sorted(draw(st.sets(st.integers(0, n - 1))))
    return std, columns, sorted(draw(st.sets(st.integers(0, m - 1))))


@settings(max_examples=300, deadline=None)
@given(basis_systems())
def test_basis_solves_match_the_fraction_reference(system):
    point, duals = _basic_point(*system), _basic_duals(*system)
    assert point == ref_basic_point(*system) and duals == ref_basic_duals(*system)
    assert all(type(v) is Fraction for v in (point or []) + (duals or []))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3)])
def test_projection_is_certified_on_the_basis(dims, monkeypatch):
    # the L1 projection LPs of the ra-exact workload: the projected point's
    # denominators are beyond the rounding cap, and the exact solution of
    # HiGHS's basis certifies it, with the point and duals of the Fraction
    # reference
    solved = []

    def recording_solve(lp):
        sol = solve(lp)
        solved.append((lp, sol))
        return sol

    monkeypatch.setattr(sampling, "solve", recording_solve)
    scn = Scenario(*dims)
    rng = random.Random(3)
    for _ in range(3):
        projected = sampling.project_to_ns(sampling.random_behavior(scn, rng))
        lp, sol = solved.pop()
        assert sol.engine == "basis"
        # the cold simplex takes 30 s or more per LP at (3,2,3); the
        # certificate alone proves the value optimal there
        if scn.size <= 64:
            assert sol.value == _simplex(_standardize(lp)).value
        assert verify_certificate(lp, sol)
        assert projected.probs == sol.point[: scn.size]
        std = _standardize(lp)
        columns, rows = _basis_lists(_highs(std)[2])
        assert list(sol.point) == ref_basic_point(std, columns, rows)
        assert list(sol.dual) == ref_basic_duals(std, columns, rows)


# small_lps with 10^-18 shifts on which HiGHS's final basis is exactly primal
# infeasible: a row whose logical is basic is violated by the shift.  The
# optimal basis is one dual simplex pivot away, which the basis stage does
# not take, so these are a known miss of that stage: the cold simplex
# certifies them.
BASIS_MISSES = [
    LinearProgram(
        [Fraction(3, 10**18), 3, 0, Fraction(1, 10**18), Fraction(-3, 10**18)],
        "min",
        sparse([[-1, -1, 0, 0, 0], [-1, -1, 1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]),
        [
            Fraction(-400000000000000001, 2 * 10**17),
            Fraction(-499999999999999999, 25 * 10**16),
            Fraction(2499999999999999999, 10**18),
            Fraction(1249999999999999999, 5 * 10**17),
        ],
    ),
    LinearProgram(
        [
            Fraction(-3, 10**18), Fraction(-4999999999999999991, 3 * 10**18), 0,
            Fraction(-1, 25 * 10**16), Fraction(1, 2 * 10**17), Fraction(1, 25 * 10**16),
        ],
        "max",
        [[(1, Fraction(-5, 3)), (2, 3), (3, 1)], [(1, 1), (4, 1)], [(2, 1), (5, 1)]],
        [Fraction(3, 10**18), Fraction(2500000000000000003, 10**18), Fraction(5, 2)],
    ),
]


@pytest.mark.parametrize("lp", BASIS_MISSES, ids=["min", "max"])
def test_basis_that_misses_by_the_shift_is_solved_exactly(lp):
    sol = solve(lp)
    assert sol.value == _simplex(_standardize(lp)).value
    assert verify_certificate(lp, sol)


def recorded_systems(monkeypatch, run) -> list:
    """Every (equations, n) that the basis stage hands to _solve_exact
    while run() solves, each equation list in full."""
    systems = []

    def recording(equations, n):
        equations = list(equations)
        systems.append((equations, n))
        return _solve_exact(equations, n)

    monkeypatch.setattr(polylp, "_solve_exact", recording)
    run()
    return systems


def projections():
    # L1 projection LPs like those of the ra-exact workload
    rng = random.Random(0)
    for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)]:
        for _ in range(2):
            sampling.project_to_ns(sampling.random_behavior(Scenario(*dims), rng))


@pytest.mark.parametrize(
    "run, n_systems",
    [
        (projections, 14),
        (lambda: [solve(lp) for lp in BASIS_MISSES], 4),
        (lambda: optimize_over_ns(*pinned_agreement(Fraction(1, 10**18))), 2),
    ],
    ids=["ra-exact-projections", "basis-misses", "pinned-near-tie"],
)
def test_own_pivot_elimination_matches_every_pivot_elimination(monkeypatch, run, n_systems):
    # a point and a duals system per LP that reaches the basis stage (one
    # of the eight projections is certified by rounding)
    systems = recorded_systems(monkeypatch, run)
    assert len(systems) == n_systems
    for equations, n in systems:
        assert _solve_exact(equations, n) == solve_exact_all_pivots(equations, n)


@settings(max_examples=150, deadline=None)
@given(basis_systems())
def test_own_pivot_elimination_matches_on_random_basis_systems(system):
    with pytest.MonkeyPatch.context() as mp:
        systems = recorded_systems(mp, lambda: (_basic_point(*system), _basic_duals(*system)))
    assert len(systems) == 2
    for equations, n in systems:
        assert _solve_exact(equations, n) == solve_exact_all_pivots(equations, n)


@pytest.mark.xfail(
    strict=True, reason="known miss: the optimal basis is a dual simplex pivot from HiGHS's"
)
@pytest.mark.parametrize("lp", BASIS_MISSES, ids=["min", "max"])
def test_basis_that_misses_by_the_shift_is_certified_on_the_basis(lp):
    assert solve(lp).engine == "basis"


@pytest.mark.parametrize(
    "lp, value",
    [
        (LinearProgram([1, 0], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[10**400]), 0),
        (LinearProgram([10**400, 1], "min", eq_rows=sparse([[1, 1]]), eq_rhs=[1]), 1),
    ],
    ids=["rhs", "cost"],
)
def test_coefficient_beyond_float_range_goes_to_simplex(lp, value):
    # the float image of the LP overflows, so HiGHS never runs
    sol = solve(lp)
    assert (sol.status, sol.value, sol.engine) == (OPTIMAL, value, "simplex")
    assert verify_certificate(lp, sol)


# x = 2 and x + s = 1
INFEASIBLE_LP = LinearProgram([1, 0], "min", eq_rows=sparse([[1, 0], [1, 1]]), eq_rhs=[2, 1])
# max x subject to x - s = 1
UNBOUNDED_LP = LinearProgram([1, 0], "max", eq_rows=sparse([[1, -1]]), eq_rhs=[1])


def test_infeasible_and_unbounded_go_to_simplex():
    cases = [
        (INFEASIBLE_LP, INFEASIBLE),
        (UNBOUNDED_LP, UNBOUNDED),
        (LinearProgram([-1], "min"), UNBOUNDED),
    ]
    for lp, status in cases:
        sol = solve(lp)
        assert (sol.status, sol.engine) == (status, "simplex")
        assert verify_certificate(lp, sol)
        # the feasible point of an unbounded LP is no optimizer
        with pytest.raises(ValueError, match="no optimizer point"):
            sol.behavior(Scenario(1, 1, 2))


# +1 breaks A^T y <= 0 (or A r = 0); -1 leaves the Farkas vector with
# b.y = -1 or b.y = 0
CHANGES = [(0, 1), (1, 1), (0, -1), (1, -1)]


@pytest.mark.parametrize("i, delta", CHANGES)
def test_certificate_rejects_changed_farkas_multiplier(i, delta):
    sol = solve(INFEASIBLE_LP)
    assert sol.dual == (1, -1) and verify_certificate(INFEASIBLE_LP, sol)
    dual = list(sol.dual)
    dual[i] += delta
    sol.dual = tuple(dual)
    assert not verify_certificate(INFEASIBLE_LP, sol)


@pytest.mark.parametrize("i, delta", CHANGES)
def test_certificate_rejects_changed_ray_entry(i, delta):
    sol = solve(UNBOUNDED_LP)
    assert sol.ray == (1, 1) and verify_certificate(UNBOUNDED_LP, sol)
    ray = list(sol.ray)
    ray[i] += delta
    sol.ray = tuple(ray)
    assert not verify_certificate(UNBOUNDED_LP, sol)


def test_unbounded_certificate_needs_feasible_point_and_improving_ray():
    sol = solve(UNBOUNDED_LP)
    # min x: the ray (1, 1) raises the objective
    bounded = LinearProgram([1, 0], "min", UNBOUNDED_LP.eq_rows, UNBOUNDED_LP.eq_rhs)
    assert not verify_certificate(bounded, sol)
    sol.point = (Fraction(0), Fraction(0))
    assert not verify_certificate(UNBOUNDED_LP, sol)


# ---------------------------------------------------------------------------
# Reference: the certificate check in Fraction arithmetic, one product per
# nonzero.  The integer check of polylp must accept exactly what it accepts.


def ref_standardize(lp):
    """The standard form with Fraction rows: (rows, rhs, c, sign)."""
    rows = [tuple((j, Fraction(v)) for j, v in sorted(pairs) if v) for pairs in lp.eq_rows]
    sign = 1 if lp.sense == "min" else -1
    return rows, [Fraction(b) for b in lp.eq_rhs], [sign * Fraction(v) for v in lp.objective], sign


def ref_dot(c, x):
    return sum((v * x[j] for j, v in enumerate(c) if v), Fraction(0))


def ref_primal_feasible(rows, rhs, x, n):
    return (
        x is not None
        and len(x) == n
        and all(v >= 0 for v in x)
        and all(sum((v * x[j] for j, v in row), Fraction(0)) == b for row, b in zip(rows, rhs))
    )


def ref_dual_feasible(rows, c, y):
    if y is None or len(y) != len(rows):
        return False
    reduced = list(c)
    for yi, row in zip(y, rows):
        if yi:
            for j, v in row:
                reduced[j] -= yi * v
    return all(r >= 0 for r in reduced)


def ref_certified(lp, sol):
    rows, rhs, c, sign = ref_standardize(lp)
    n = len(c)
    if sol.status == OPTIMAL:
        if not (ref_primal_feasible(rows, rhs, sol.point, n) and ref_dual_feasible(rows, c, sol.dual)):
            return False
        value = ref_dot(c, sol.point)
        return sign * value == sol.value and ref_dot(rhs, sol.dual) == value
    if sol.status == INFEASIBLE:
        return ref_dual_feasible(rows, [Fraction(0)] * n, sol.dual) and ref_dot(rhs, sol.dual) > 0
    if sol.status == UNBOUNDED:
        return (
            ref_primal_feasible(rows, rhs, sol.point, n)
            and ref_primal_feasible(rows, [Fraction(0)] * len(rows), sol.ray, n)
            and ref_dot(c, sol.ray) < 0
        )
    return False


def changed_certificates(sol):
    """sol, then every copy of it with one entry of its value, point, dual
    or ray moved by +-10^-7 or with its sign flipped."""
    yield sol
    tiny = Fraction(1, 10**7)
    changes = (lambda v: v + tiny, lambda v: v - tiny, lambda v: -v)
    if sol.value is not None:
        for change in changes:
            yield replace(sol, value=change(sol.value))
    for name in ("point", "dual", "ray"):
        vec = getattr(sol, name)
        for i in range(len(vec or ())):
            for change in changes:
                moved = list(vec)
                moved[i] = change(moved[i])
                yield replace(sol, **{name: tuple(moved)})


def assert_check_matches_reference(lp):
    """The integer check accepts exactly the certificates the Fraction
    check accepts, among the solver's own and its one-entry changes."""
    sol = solve(lp)
    assert ref_certified(lp, sol)
    std = _standardize(lp)
    for cand in changed_certificates(sol):
        verdict = ref_certified(lp, cand)
        assert _certified(std, cand) == verdict, cand
        assert verify_certificate(lp, cand) == verdict, cand
    return sol.status


# coefficients: ints beside Fractions of unequal denominators, zeros kept
MIXED = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=7)
)


@st.composite
def mixed_lps(draw):
    """Random standard forms of up to 5 columns and 3 rows whose rows keep
    their zero entries and mix int and Fraction coefficients."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 3))
    rows = [[(j, draw(MIXED)) for j in range(n)] for _ in range(m)]
    return LinearProgram(
        [draw(MIXED) for _ in range(n)],
        draw(st.sampled_from(["min", "max"])),
        rows,
        [draw(MIXED) for _ in range(m)],
    )


@settings(max_examples=300, deadline=None)
@given(mixed_lps())
def test_integer_check_matches_fraction_reference(lp):
    assert_check_matches_reference(lp)


@pytest.mark.parametrize(
    "lp, status",
    [
        # a scale-7 row beside a scale-1 row, Fraction right-hand sides
        (
            LinearProgram(
                [Fraction(1, 3), 2, 0],
                "min",
                [[(0, Fraction(2, 7)), (1, 1), (2, 0)], [(0, 1), (2, -3)]],
                [Fraction(5, 3), Fraction(-1, 2)],
            ),
            OPTIMAL,
        ),
        (INFEASIBLE_LP, INFEASIBLE),
        (UNBOUNDED_LP, UNBOUNDED),
        (LinearProgram([Fraction(-1, 2)], "min"), UNBOUNDED),
        (LinearProgram([], "min"), OPTIMAL),
        # the empty row reads 0 = 1
        (LinearProgram([], "min", [()], [1]), INFEASIBLE),
    ],
    ids=["optimal", "infeasible", "unbounded", "no-rows", "no-columns", "empty-row"],
)
def test_integer_check_matches_fraction_reference_per_status(lp, status):
    assert assert_check_matches_reference(lp) == status


def test_certificate_given_in_exact_floats_is_accepted():
    # min x0 + x1 subject to x0 / 2 + x1 = 3/4: a row of scale 2
    lp = LinearProgram([1, 1], "min", [[(0, Fraction(1, 2)), (1, 1)]], [Fraction(3, 4)])
    sol = solve(lp)
    assert (sol.value, sol.point, sol.dual) == (Fraction(3, 4), (0, Fraction(3, 4)), (1,))
    floats = replace(sol, value=0.75, point=(0.0, 0.75), dual=(1.0,))
    assert verify_certificate(lp, floats) and ref_certified(lp, floats)
    for lp, sol in [(INFEASIBLE_LP, solve(INFEASIBLE_LP)), (UNBOUNDED_LP, solve(UNBOUNDED_LP))]:
        floats = replace(
            sol,
            point=sol.point and tuple(map(float, sol.point)),
            dual=sol.dual and tuple(map(float, sol.dual)),
            ray=sol.ray and tuple(map(float, sol.ray)),
        )
        assert verify_certificate(lp, floats)
    # 0.1 is not 1/10, so it misses the right-hand side 1/10
    tenth = LinearProgram([1], "min", [[(0, 1)]], [Fraction(1, 10)])
    assert not verify_certificate(tenth, replace(solve(tenth), value=0.1, point=(0.1,)))


# ---------------------------------------------------------------------------
# Reference: scipy's linprog(method="highs") on the same float image of the
# standard form.  polylp._highs calls the HiGHS bindings that linprog wraps,
# and must get the same answers from them, bit for bit.


def linprog_highs(std):
    """linprog's optimum as (point, row duals, iterations), or None unless
    linprog reports one."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    data, row_idx, col_idx = [], [], []
    for i, (row, scale) in enumerate(zip(std.rows, std.scale)):
        for j, a in row:
            row_idx.append(i)
            col_idx.append(j)
            data.append(float(Fraction(a, scale)))
    res = linprog(
        [float(Fraction(c, std.cost_scale)) for c in std.cost],
        A_eq=csr_matrix((data, (row_idx, col_idx)), shape=(len(std.rows), std.n_cols)),
        b_eq=[float(b) for b in std.rhs],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        return None
    return res.x.tolist(), res.eqlin.marginals.tolist(), res.nit


def highs_bits(found):
    """(point, row duals, iterations) with every float as its exact hex string."""
    if found is None:
        return None
    x, y, iterations = found
    return [v.hex() for v in x], [v.hex() for v in y], iterations


def assert_highs_matches_linprog(lp):
    """polylp._highs's point, row duals and iterations against linprog's;
    linprog does not report the basis."""
    std = _standardize(lp)
    found = _highs(std)
    bits = found and highs_bits((found[0], found[1], found[3]))
    assert bits == highs_bits(linprog_highs(std))
    return bits


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_lps(), near_tie_lps(), mixed_lps()))
def test_highs_matches_linprog(lp):
    assert_highs_matches_linprog(lp)


@pytest.mark.parametrize(
    "lp, optimum",
    [
        *(
            (ns_program(Scenario(N, M, d), recursive_bkp(N, M, d).dense(), "min"), True)
            for N, M, d in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)]
        ),
        (ns_program(*pinned_agreement(Fraction(1, 2))), True),
        (ns_program(*pinned_agreement(Fraction(1, 10**18))), True),
        # 10^25 is past HiGHS's infinite bound 10^20: the model fails to load
        (LinearProgram([1, 0], "min", sparse([[1, 1]]), [10**25]), False),
    ],
    ids=["ns-222", "ns-232", "ns-223", "ns-322", "pinned-half", "pinned-near-tie", "rhs-1e25"],
)
def test_highs_matches_linprog_on_package_lps(lp, optimum):
    assert (assert_highs_matches_linprog(lp) is not None) == optimum


# ---------------------------------------------------------------------------
# A start basis: the final basis of an earlier solve of an LP of the same
# shape, as tightness_scan passes it from one pinned target to the next.


def test_start_basis_from_an_earlier_target_solves_the_same_optimum():
    end = optimize_over_ns(*pinned_agreement(Fraction(0)))
    assert end.engine == "highs" and end.basis is not None
    cold = optimize_over_ns(*pinned_agreement(Fraction(1)))
    warm = optimize_over_ns(*pinned_agreement(Fraction(1)), start=end.basis)
    # the same optimum, here at another vertex
    assert (warm.status, warm.value, warm.engine) == (cold.status, cold.value, "highs")
    # HiGHS's basis at t = 0 is optimal at t = 1 as well
    assert warm.iterations == 0 < cold.iterations
    assert verify_certificate(ns_program(*pinned_agreement(Fraction(1))), warm)


@pytest.mark.parametrize(
    "lp",
    [
        # one row fewer: the NS rows without the pinned Bell row
        ns_program(Scenario(3, 2, 2), agreement_vector(Scenario(3, 2, 2), 0, 0, 0), "max"),
        # other columns and rows
        ns_program(Scenario(3, 2, 3), agreement_vector(Scenario(3, 2, 3), 0, 0, 0), "max"),
    ],
    ids=["rows", "columns"],
)
def test_start_basis_of_another_shape_is_rejected(lp):
    start = optimize_over_ns(*pinned_agreement(Fraction(0))).basis
    with pytest.raises(ValueError, match=r"^a start basis of 64 columns and 39 rows does not fit an LP of"):
        solve(lp, start)


def test_start_basis_that_highs_rejects_raises():
    # a basis HiGHS takes as its own (not alien) with no basic variable
    h = polylp._highs_core()
    start = h.HighsBasis()
    start.alien, start.valid = False, True
    start.col_status = [h.HighsBasisStatus.kLower] * 64
    start.row_status = [h.HighsBasisStatus.kLower] * 39
    with pytest.raises(RuntimeError, match="^HiGHS rejected the start basis$"):
        optimize_over_ns(*pinned_agreement(Fraction(1)), start=start)


@pytest.mark.parametrize(
    "alien, valid", [(None, None), (True, True), (False, False)], ids=["fresh", "alien", "invalid"]
)
def test_start_basis_that_is_alien_or_invalid_is_rejected(alien, valid):
    # HiGHS would repair such a basis silently (a fresh HighsBasis is alien
    # and not valid), so it is refused before HiGHS sees it
    h = polylp._highs_core()
    start = h.HighsBasis()
    if alien is not None:
        start.alien, start.valid = alien, valid
    start.col_status = [h.HighsBasisStatus.kLower] * 64
    start.row_status = [h.HighsBasisStatus.kLower] * 39
    with pytest.raises(ValueError, match="^a start basis must be valid and not alien"):
        optimize_over_ns(*pinned_agreement(Fraction(1)), start=start)


def test_only_highs_results_carry_a_basis():
    assert optimize_over_ns(*pinned_agreement(Fraction(1, 10**18))).basis is not None  # 'basis'
    assert optimize_over_ns(*pinned_agreement(1 - Fraction(1, 10**18))).basis is None  # 'simplex'
    infeasible = LinearProgram([1], "min", [[(0, 1)]], [-1])
    assert solve(infeasible).basis is None


def test_solution_equality_and_repr_ignore_the_basis():
    sol = optimize_over_ns(*pinned_agreement(Fraction(1, 2)))
    bare = replace(sol, basis=None)
    assert sol.basis is not None
    assert sol == bare and repr(sol) == repr(bare) and "basis=" not in repr(sol)


# ---------------------------------------------------------------------------
# The HiGHS loader: each test runs in a fresh interpreter, because this one
# has loaded the bindings, and scipy.optimize too, already.


def run_fresh(code, *args):
    """The JSON that code prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(monogamy_lab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_loader_first_then_scipy_optimize_shares_its_module():
    code = """
import json, sys
from fractions import Fraction
from monogamy_lab import polylp
core = polylp._highs_core()
before = "scipy.optimize" in sys.modules
# min 2 x0 + x1 subject to x0 + x1 = 1, x0 - x2 = 1/4: the point (1/4, 3/4, 0)
lp = polylp.LinearProgram([2, 1, 0], "min", [[(0, 1), (1, 1)], [(0, 1), (2, -1)]], [1, Fraction(1, 4)])
from scipy.optimize import linprog
res = linprog([2, 1, 0], A_eq=[[1, 1, 0], [1, 0, -1]], b_eq=[1, 0.25], method="highs")
print(json.dumps([
    before,
    sys.modules["scipy.optimize._highspy._core"] is core,
    [float(v) for v in polylp.solve(lp).point],
    res.x.tolist(),
]))
"""
    assert run_fresh(code) == [False, True, [0.25, 0.75, 0.0], [0.25, 0.75, 0.0]]


def test_loader_takes_the_module_scipy_optimize_loaded():
    code = """
import json
import scipy.optimize
from scipy.optimize._highspy import _core
from monogamy_lab import polylp
print(json.dumps(polylp._highs_core() is _core))
"""
    assert run_fresh(code) is True


def test_loader_names_the_folder_it_searched(tmp_path):
    # scipy's path points at a tree whose optimize/_highspy folder is empty
    folder = tmp_path / "optimize" / "_highspy"
    folder.mkdir(parents=True)
    code = """
import json, sys
import scipy
from monogamy_lab import polylp
scipy.__path__ = [sys.argv[1]]
try:
    polylp._highs_core()
except ImportError as exc:
    print(json.dumps(str(exc)))
"""
    message = run_fresh(code, str(tmp_path))
    assert message == f"no HiGHS extension module scipy.optimize._highspy._core in {folder}"


# ---------------------------------------------------------------------------
# Standard-form rows: the rows of ns_constraints are checked and standardized
# once per scenario; every other row is checked and standardized per LP.


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 1), (0, 1)],
        [(0, 1), (2, 1), (2, -1)],
        [(-1, 1), (0, 1)],
        [(0.0, 1)],
        [(True, 1)],
        [(0, 1), (1, 0)],
        [(0, True)],
        [(0, Fraction(1, 2))],
        [(0, Fraction(2))],
    ],
    ids=[
        "unsorted", "repeated", "negative-column", "float-column", "bool-column",
        "zero-coefficient", "bool-coefficient", "fraction-coefficient", "integral-fraction",
    ],
)
def test_standard_row_rejects(pairs):
    with pytest.raises(ValueError, match="standard row"):
        _Row(pairs)


def test_standard_row_is_a_tuple_of_its_pairs():
    assert _Row([(0, 1), (3, -2)]) == ((0, 1), (3, -2))
    assert _Row(()) == ()


def test_ns_rows_are_checked_against_the_column_count():
    rows, rhs = ns_constraints(Scenario(3, 2, 2))
    assert all(type(row) is _Row for row in rows)
    LinearProgram([0] * 64, "min", rows, rhs)
    with pytest.raises(ValueError, match="distinct and in range"):
        LinearProgram([0] * 63, "min", rows, rhs)


def per_nonzero_standardize(lp):
    """The standard form as it was built before the NS rows were cached:
    (rows, scale, rhs, cost, cost_scale, sign), every row sorted, stripped
    of zeros and brought to integers nonzero by nonzero."""

    def integer_row(pairs):
        row = [(j, v) for j, v in sorted(pairs) if v]
        if all(type(v) is int for _, v in row):
            return tuple(row), 1
        row = [(j, Fraction(v)) for j, v in row]
        scale = math.lcm(*(v.denominator for _, v in row))
        return tuple((j, v.numerator * (scale // v.denominator)) for j, v in row), scale

    rows = [integer_row(pairs) for pairs in lp.eq_rows]
    sign = 1 if lp.sense == "min" else -1
    c = [sign * (v if type(v) is int else Fraction(v)) for v in lp.objective]
    cost_scale = math.lcm(*(e.denominator for e in c))
    cost = [e.numerator * (cost_scale // e.denominator) for e in c]
    rhs = [Fraction(b) if b else Fraction(0) for b in lp.eq_rhs]
    return [r for r, _ in rows], [s for _, s in rows], rhs, cost, cost_scale, sign


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)]
)
def test_ns_program_standardizes_as_per_nonzero(dims, sense):
    scn = Scenario(*dims)
    n = scn.size
    # ints beside Fractions, zeros and negatives in the objective; an
    # unsorted Fraction-weighted extra row, a plain tuple, with zero entries
    objective = [(j % 3 - 1) if j % 2 else Fraction(j % 7 - 3, j % 5 + 1) for j in range(n)]
    extra = tuple((j, Fraction(j % 5 - 2, 3)) for j in reversed(range(0, n, 3)))
    lp = ns_program(scn, objective, sense, extra_eq=[(extra, Fraction(1, 7))])
    std = _standardize(lp)
    got = (std.rows, std.scale, std.rhs, std.cost, std.cost_scale, std.sign)
    assert got == per_nonzero_standardize(lp)
    assert std.scale[-1] == 3
    assert all(type(a) is int for row in std.rows for _, a in row)
    assert all(type(c) is int for c in std.cost)
    assert all(type(b) is Fraction for b in std.rhs)


def test_a_row_swapped_in_is_checked_in_full():
    lp = ns_program(Scenario(2, 2, 2), recursive_bkp(2, 2, 2).dense(), "min")
    sol = solve(lp)
    first = lp.eq_rows[0]
    # the same nonzeros as a plain tuple in reverse: the LP is unchanged
    lp.eq_rows[0] = tuple(reversed(first))
    assert verify_certificate(lp, sol)
    # the first normalization row doubled: the optimum no longer fits it
    lp.eq_rows[0] = tuple((j, 2 * a) for j, a in first)
    assert not verify_certificate(lp, sol)


def test_ns_constraints_lists_are_fresh():
    scn = Scenario(2, 2, 2)
    rows, rhs = ns_constraints(scn)
    expected = (list(rows), list(rhs))
    rows.append(((0, 1),))
    rhs.append(5)
    rows[0] = ((1, 1),)
    assert ns_constraints(scn) == expected


# ---------------------------------------------------------------------------
# Rounding HiGHS's floats: _rational is Fraction(v).limit_denominator(cap).


@pytest.mark.parametrize(
    "v",
    [
        0.0, -0.0, -0.375, -1 / 3, 0.1, math.pi,
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
        1e300, -1.7976931348623157e308, 2.0**60,
        12345 / 2**19, -777 / 2**19, 12345 / 2**20, -(2.0**-20), 987653 / 2**21, 3 / 2**21,
    ],
)
def test_rational_matches_limit_denominator(v):
    got = _rational(v)
    assert type(got) is Fraction
    assert got == Fraction(v).limit_denominator(_DENOMINATOR_CAP)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(
            lambda k, e: k / 2**e, st.integers(-(2**40), 2**40), st.sampled_from([19, 20, 21])
        ),
    )
)
def test_rational_matches_limit_denominator_on_any_float(v):
    got = _rational(v)
    assert type(got) is Fraction
    assert got == Fraction(v).limit_denominator(_DENOMINATOR_CAP)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinearProgram([0, 1], "best"), "sense must be 'min' or 'max'"),
        (lambda: LinearProgram([0, 1], "min", [[(0, 1), (1, 1)]], []), "rhs length mismatch"),
    ],
    ids=["sense", "rhs-length"],
)
def test_program_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
