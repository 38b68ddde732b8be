import json
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import minimize

from monogamy_lab.bell import evaluate
from monogamy_lab import quantum
from monogamy_lab.quantum import (
    CorrelationMatrix,
    PlaneObservable,
    RealPureState,
    alpha_chsh_max,
    alpha_chsh_value,
    chained_quantum_violation,
    correlation_matrix,
    family_sweep_csv,
    guessing_curve_csv,
    key_rate,
    key_rate_table_csv,
    min_settings,
    monogamy_slacks,
    monogamy_montecarlo,
    quantum_guessing_bound,
    random_real_state,
    saturating_family,
    violation_behavior,
)
from monogamy_lab.scenario import is_nonsignalling, validate
from reference import chained_bkp


class QubitMonogamyReport(NamedTuple):
    slack_pair_tradeoff: float  # alpha^2 max + min form
    slack_agreement: float      # I^2 + 4 <XC>^2 form, worst over X in {A, B}

    @property
    def worst_slack(self) -> float:
        return min(self.slack_pair_tradeoff, self.slack_agreement)


def check_qubit_monogamy(state: RealPureState, alpha: float) -> QubitMonogamyReport:
    """Worst-case slacks of both monogamy inequalities for one state, the
    per-state reference of the batched Monte-Carlo.

    The left-hand sides are maximized over all plane observables in closed
    form via the correlation-matrix eigenvalues (both orderings of the pair
    trade-off; both X = A and X = B for the agreement form), so a
    nonnegative slack certifies the inequality for every measurement choice.
    """
    quantum._check_alpha(alpha)
    if state.n_qubits != 3:
        raise ValueError("need a three-qubit state")
    slack_pair, slack_agree = monogamy_slacks(
        *(np.array([correlation_matrix(state, pair).singular_squares])
          for pair in ((0, 1), (0, 2), (1, 2))),
        [alpha],
    )
    return QubitMonogamyReport(float(slack_pair[0, 0]), float(slack_agree[0, 0]))


def alpha_chsh_max_search(
    t: CorrelationMatrix, alpha: float, n_starts: int = 32, seed: int = 0
) -> float:
    """Direct numerical maximization over the four angles (oracle for
    :func:`alpha_chsh_max`)."""
    rng = np.random.default_rng(seed)

    def neg(angles):
        return -alpha_chsh_value(t, (angles[0], angles[1]), (angles[2], angles[3]), alpha)

    best = -math.inf
    for _ in range(n_starts):
        x0 = rng.uniform(0.0, 2.0 * math.pi, size=4)
        res = minimize(neg, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        RealPureState(1, np.array([1.0, 1.0]))


def test_plane_observable_involution():
    for angle in (0.0, 0.3, math.pi / 2, 2.0):
        m = PlaneObservable(angle).matrix
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def test_correlation_matrix_product_state():
    s = RealPureState(2, np.array([1.0, 0.0, 0.0, 0.0]))  # |00>
    t = correlation_matrix(s, (0, 1))
    assert np.allclose(t.matrix, [[0, 0], [0, 1]], atol=1e-12)
    assert t.singular_squares == (1.0, 0.0)


def test_correlation_matrix_singlet():
    s = RealPureState(2, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))
    t = correlation_matrix(s, (0, 1))
    l1, l2 = t.singular_squares
    assert abs(l1 - 1) < 1e-12 and abs(l2 - 1) < 1e-12


def test_correlation_matrix_uncorrelated_pair():
    # |0> times a singlet on qubits (1, 2): the (0, 1) pair is uncorrelated
    # with qubit 1 maximally mixed, so its correlation matrix vanishes
    amps = np.zeros(8)
    amps[0b001] = 1 / math.sqrt(2)
    amps[0b010] = -1 / math.sqrt(2)
    s = RealPureState(3, amps)
    assert np.allclose(correlation_matrix(s, (0, 1)).matrix, 0.0, atol=1e-12)


def test_chsh_value_at_optimal_angles():
    phi = RealPureState(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    t = correlation_matrix(phi, (0, 1))
    v = alpha_chsh_value(t, (0.0, math.pi / 2), (math.pi / 4, -math.pi / 4), 1.0)
    assert abs(v - 2 * math.sqrt(2)) < 1e-9


def test_chsh_classical_value_on_product_state():
    s = RealPureState(2, np.array([1.0, 0.0, 0.0, 0.0]))
    t = correlation_matrix(s, (0, 1))
    for alpha in (1.0, 2.0):
        assert alpha_chsh_max(t, alpha) <= 2 * alpha + 1e-12


def test_alpha_rejected_below_one():
    t = CorrelationMatrix(np.eye(2))
    with pytest.raises(ValueError):
        alpha_chsh_max(t, 0.5)
    with pytest.raises(ValueError):
        alpha_chsh_value(t, (0, 0), (0, 0), 0.9)


def test_alpha_chsh_max_formula_cases():
    assert abs(alpha_chsh_max(CorrelationMatrix(np.eye(2)), 1.0) - 2 * math.sqrt(2)) < 1e-12
    t = CorrelationMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
    for alpha in (1.0, 1.5, 3.0):
        assert abs(alpha_chsh_max(t, alpha) - 2 * alpha) < 1e-12


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_alpha_chsh_max_matches_search(alpha):
    rng = np.random.default_rng(12)
    for _ in range(25):
        state = random_real_state(2, rng)
        t = correlation_matrix(state, (0, 1))
        closed = alpha_chsh_max(t, alpha)
        searched = alpha_chsh_max_search(t, alpha, n_starts=12, seed=5)
        assert searched <= closed + 1e-9
        assert abs(closed - searched) < 1e-6


def test_monogamy_check_requires_three_qubits():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        check_qubit_monogamy(random_real_state(2, rng), 1.0)


def test_monogamy_montecarlo_small():
    summary = monogamy_montecarlo(300, [1.0, 1.5, 2.0, 3.0], seed=7)
    assert summary["violations"] == 0
    assert summary["worst_slack"] >= -1e-7


MC_ALPHAS = [1.0, 1.5, 2.0, 3.0]
# json.dumps(monogamy_montecarlo(300, MC_ALPHAS, seed=7), indent=1) from the
# per-state, per-alpha loop that the batched Monte-Carlo replaced
MC_300_SEED_7 = (
    '{\n "n_states": 300,\n "alphas": [\n  1.0,\n  1.5,\n  2.0,\n  3.0\n ],\n "seed": 7,\n'
    ' "worst_slack": 4.434101888239894e-05,\n "worst_slack_per_alpha": {\n'
    '  "1.0": 4.434101888239894e-05,\n  "1.5": 0.0004013141117908958,\n'
    '  "2.0": 0.0013265816158991584,\n  "3.0": 0.006705593460822001\n },\n "violations": 0\n}'
)


def test_monogamy_montecarlo_matches_per_state_summary():
    assert json.dumps(monogamy_montecarlo(300, MC_ALPHAS, seed=7), indent=1) == MC_300_SEED_7


@pytest.mark.parametrize("n_states, sizes", [(21, [7, 7, 7]), (22, [7, 7, 7, 1]), (23, [7, 7, 7, 2])])
def test_monogamy_montecarlo_block_boundaries(monkeypatch, n_states, sizes):
    whole = monogamy_montecarlo(n_states, MC_ALPHAS, seed=5)
    blocks = []
    worst_slacks = quantum._worst_slacks
    monkeypatch.setattr(quantum, "_worst_slacks", lambda s, a: blocks.append(s) or worst_slacks(s, a))
    monkeypatch.setattr(quantum, "_MC_BLOCK", 7)
    assert monogamy_montecarlo(n_states, MC_ALPHAS, seed=5) == whole
    # every state is checked once, in the order of the per-state draws
    assert [len(b) for b in blocks] == sizes
    rng = np.random.default_rng(5)
    for amps in np.concatenate(blocks):
        assert np.array_equal(amps, random_real_state(3, rng).amplitudes)


def test_batched_slacks_match_per_state_check():
    alphas = [1.0, 1.25, 2.0, 3.5]
    states = quantum._random_real_states(300, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    slacks = quantum._worst_slacks(states, alphas)
    assert slacks.shape == (300, 4)
    for row, amps in zip(slacks, states):
        state = random_real_state(3, rng)
        assert np.array_equal(amps, state.amplitudes)
        for s, a in zip(row, alphas):
            assert abs(s - check_qubit_monogamy(state, a).worst_slack) <= 1e-12


@pytest.mark.parametrize("n_states", [0, -5])
def test_monogamy_montecarlo_rejects_empty_runs(n_states):
    with pytest.raises(ValueError):
        monogamy_montecarlo(n_states, MC_ALPHAS)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.5])
def test_alpha_must_be_finite_and_at_least_one(alpha):
    t = CorrelationMatrix(np.eye(2))
    state = saturating_family(0.0)
    for call in (
        lambda: alpha_chsh_value(t, (0, 0), (0, 0), alpha),
        lambda: alpha_chsh_max(t, alpha),
        lambda: check_qubit_monogamy(state, alpha),
        lambda: quantum_guessing_bound(1.0, alpha),
        lambda: monogamy_montecarlo(5, [1.0, alpha]),
        lambda: family_sweep_csv(alpha, 5),
    ):
        with pytest.raises(ValueError, match="alpha"):
            call()


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_sweeps_need_two_points(n_points):
    with pytest.raises(ValueError, match="grid points"):
        family_sweep_csv(1.0, n_points)
    with pytest.raises(ValueError, match="grid points"):
        guessing_curve_csv(2, n_points)


def test_product_state_saturates_monogamy():
    # |000> reaches both caps exactly: all three pair maxima are classical
    amps = np.zeros(8)
    amps[0] = 1.0
    for alpha in (1.0, 1.5, 2.0):
        rep = check_qubit_monogamy(RealPureState(3, amps), alpha)
        assert abs(rep.slack_pair_tradeoff) < 1e-12
        assert abs(rep.slack_agreement) < 1e-12


def test_w_state_has_strict_slack():
    amps = np.zeros(8)
    amps[0b001] = amps[0b010] = amps[0b100] = 1 / math.sqrt(3)
    rep = check_qubit_monogamy(RealPureState(3, amps), 1.0)
    assert rep.worst_slack > 0.1


def test_saturating_family_normalized_and_boundary():
    for i in range(50):
        theta = (math.pi / 4) * i / 49
        state = saturating_family(theta)
        assert abs(np.sum(state.amplitudes**2) - 1) < 1e-12
        t_ab = correlation_matrix(state, (0, 1))
        t_ac = correlation_matrix(state, (0, 2))
        for alpha in (1.0, 2.0):
            lhs = alpha_chsh_max(t_ab, alpha) ** 2 + 4 * t_ac.singular_squares[0]
            assert abs(lhs - 4 * (1 + alpha**2)) < 1e-9


def test_saturating_family_endpoints():
    s0 = saturating_family(0.0)
    assert abs(s0.amplitudes[0b010] - 1 / math.sqrt(2)) < 1e-12
    assert abs(s0.amplitudes[0b100] - 1 / math.sqrt(2)) < 1e-12
    s1 = saturating_family(math.pi / 4)
    assert abs(s1.amplitudes[0b010] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        saturating_family(1.0)


def test_quantum_guessing_bound_endpoints():
    assert abs(quantum_guessing_bound(2 * math.sqrt(2), 1.0) - 0.5) < 1e-12
    assert quantum_guessing_bound(0.0, 1.0) == 1.0  # clamped
    assert abs(quantum_guessing_bound(2 * math.sqrt(5), 2.0) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        quantum_guessing_bound(10.0, 1.0)


@pytest.mark.parametrize("M", [2, 3, 4, 8, 16])
def test_chained_violation_reproduces_chsh(M):
    res = chained_quantum_violation(M, 2)
    assert abs(res.value - 2 * M * math.sin(math.pi / (4 * M)) ** 2) < 1e-12
    if M == 2:
        assert abs(res.value - (2 - math.sqrt(2))) < 1e-6


@pytest.mark.parametrize("M, d", [(3, 3), (4, 3), (2, 4)])
def test_chained_violation_matches_search(M, d):
    # oracle for the phase ladder: Nelder-Mead started at the returned
    # phases finds no lower value
    res = chained_quantum_violation(M, d)
    xs, ys, idx = quantum._term_tables(M, d)

    def objective(params):
        phases_a, phases_b = params.reshape(2, M, d - 1)
        terms = quantum._difference_distributions(phases_a, phases_b)[xs, ys]
        return float(np.sum(np.take_along_axis(terms, idx, axis=1) * np.arange(1, d)))

    x0 = np.concatenate([res.phases_a, res.phases_b]).ravel()
    searched = minimize(objective, x0, method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400 * x0.size})
    assert searched.fun >= res.value - 1e-12


def test_violation_behavior_consistency():
    res = chained_quantum_violation(2, 2)
    b = violation_behavior(res)
    assert validate(b, 1e-9) == []
    assert is_nonsignalling(b, 1e-9)[0]
    assert abs(evaluate(chained_bkp(2, 2), b) - res.value) < 1e-9


def loop_violation_behavior(result):
    """The per-entry sum p(a,b|x,y) = |sum_q w^{q(b-a)} e^{-i(th^A_x(q)+th^B_y(q))}|^2 / d^3,
    the reference for the FFT kernel."""
    M, d = result.settings, result.outcomes
    theta_a = np.concatenate([np.zeros((M, 1)), result.phases_a], axis=1)
    theta_b = np.concatenate([np.zeros((M, 1)), result.phases_b], axis=1)
    omega = np.exp(2j * math.pi * np.outer(np.arange(d), np.arange(d)) / d)
    probs = []
    for x in range(M):
        for y in range(M):
            v = np.exp(-1j * (theta_a[x] + theta_b[y]))
            for a in range(d):
                for b in range(d):
                    probs.append(abs(np.sum(omega[:, (b - a) % d] * v)) ** 2 / d**3)
    return probs


@pytest.mark.parametrize("M, d", [(2, 2), (3, 3), (8, 4), (16, 5)])
def test_violation_behavior_matches_loop_formula(M, d):
    res = chained_quantum_violation(M, d)
    b = violation_behavior(res)
    assert all(type(p) is float for p in b.probs)
    reference = loop_violation_behavior(res)
    assert len(b.probs) == len(reference) == M * M * d * d
    assert max(abs(p - q) for p, q in zip(b.probs, reference)) <= 1e-15


def test_violation_beats_classical_bound():
    for M, d in [(2, 2), (2, 3), (3, 2)]:
        res = chained_quantum_violation(M, d)
        assert 0 < res.value < d - 1


def test_violation_scaling_slope():
    vals = {m: chained_quantum_violation(m, 2).value for m in (4, 8, 16)}
    slope = np.polyfit(np.log([4, 8, 16]), np.log([vals[4], vals[8], vals[16]]), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_violation_rejects_oversize():
    with pytest.raises(ValueError):
        chained_quantum_violation(32, 2)


def test_key_rate_value():
    i22 = 2 - math.sqrt(2)
    rate = key_rate(2, 2, violation=i22)
    assert abs(rate - (-math.log2((3 - math.sqrt(2)) / 2))) < 1e-12
    assert abs(rate - 0.3349) < 5e-4
    assert key_rate(2, 2, bound="prior", violation=i22) <= rate


def test_key_rate_monotone_in_violation():
    rates = [key_rate(2, 3, violation=v) for v in (0.0, 0.5, 1.0, 1.9)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_min_settings_unreachable_target():
    assert min_settings(2, 1.5, violation=lambda m, d: 0.0) is None


@pytest.mark.parametrize("max_m", [1, 0, -3])
def test_settings_ladder_needs_two_settings(max_m):
    # an unreachable target (rate above log2 d) is rejected too, not answered None
    with pytest.raises(ValueError, match="max_m"):
        min_settings(2, 1.5, max_m=max_m, violation=lambda m, d: 0.0)
    with pytest.raises(ValueError, match="max_m"):
        key_rate_table_csv([3], [1.0], max_m=max_m, violation=lambda m, d: 0.0)


def test_min_settings_with_proxy_violations():
    # idealized I = 1.25/M: rate targets pick out the expected first M
    proxy = lambda m, d: 1.25 / m
    m_tight = min_settings(3, 1.0, "tight", max_m=16, violation=proxy)
    m_prior = min_settings(3, 1.0, "prior", max_m=16, violation=proxy)
    assert m_tight is not None
    assert m_prior is None or m_prior >= m_tight


def test_min_settings_monotone_in_target():
    proxy = lambda m, d: 2.0 / m
    targets = [0.2, 0.5, 0.8, 1.1, 1.4]
    ms = [min_settings(3, r, "tight", max_m=64, violation=proxy) for r in targets]
    reached = [m for m in ms if m is not None]
    assert reached == sorted(reached)


def test_guessing_curve_csv_shape():
    text = guessing_curve_csv(3, n_points=5)
    lines = text.strip().splitlines()
    assert lines[0] == "I,bound_tight,bound_prior"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0  # I = d-1 endpoint


def test_key_rate_table_csv_with_proxy():
    text = key_rate_table_csv([2, 3], [0.25], max_m=8, violation=lambda m, d: 1.25 / m)
    lines = text.strip().splitlines()
    assert lines[0] == "d,rate_target,min_m_tight,min_m_prior"
    assert len(lines) == 3
