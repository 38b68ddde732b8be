import json
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import minimize

from monogamy_lab.bell import evaluate
from monogamy_lab import quantum
from monogamy_lab.quantum import (
    alpha_chsh_max,
    chained_quantum_violation,
    correlation_matrix,
    family_sweep_csv,
    guessing_curve_csv,
    key_rate,
    key_rate_table_csv,
    min_settings,
    monogamy_slacks,
    monogamy_montecarlo,
    saturating_family,
    violation_behavior,
)
from monogamy_lab.scenario import is_nonsignalling, validate
from reference import alpha_chsh_value, chained_bkp


def random_real_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    return quantum._random_real_states(1, rng, n_qubits)[0]


def singular_squares(t: np.ndarray) -> np.ndarray:
    """l1 >= l2, the squared singular values of a correlation matrix."""
    return np.linalg.svd(t, compute_uv=False) ** 2


class QubitMonogamyReport(NamedTuple):
    slack_pair_tradeoff: float  # alpha^2 max + min form
    slack_agreement: float      # I^2 + 4 <XC>^2 form, worst over X in {A, B}

    @property
    def worst_slack(self) -> float:
        return min(self.slack_pair_tradeoff, self.slack_agreement)


def check_qubit_monogamy(state: np.ndarray, alpha: float) -> QubitMonogamyReport:
    """Worst-case slacks of both monogamy inequalities for one state, the
    per-state reference of the batched Monte-Carlo.

    The left-hand sides are maximized over all plane observables in closed
    form via the correlation-matrix eigenvalues (both orderings of the pair
    trade-off; both X = A and X = B for the agreement form), so a
    nonnegative slack certifies the inequality for every measurement choice.
    """
    quantum._check_alpha(alpha)
    if len(state) != 8:
        raise ValueError("need a three-qubit state")
    slack_pair, slack_agree = monogamy_slacks(
        *(singular_squares(correlation_matrix(state, pair))[None]
          for pair in ((0, 1), (0, 2), (1, 2))),
        [alpha],
    )
    return QubitMonogamyReport(float(slack_pair[0, 0]), float(slack_agree[0, 0]))


def alpha_chsh_max_search(
    t: np.ndarray, alpha: float, n_starts: int = 32, seed: int = 0
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
    nan, inf = math.nan, math.inf
    # abs(nan - 1) > 1e-12 is False, so the check must not be written that way
    for amps in ([1.0, 1.0, 0.0, 0.0], [nan, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, nan], [inf, 0.0, 0.0, 0.0],
                 [-inf, inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            correlation_matrix(np.array(amps), (0, 1))


@pytest.mark.parametrize("n_amplitudes", [0, 3, 6])
def test_amplitude_count_must_be_a_power_of_two(n_amplitudes):
    with pytest.raises(ValueError, match="2\\^n"):
        correlation_matrix(np.ones(n_amplitudes) / math.sqrt(max(n_amplitudes, 1)), (0, 1))


def test_correlation_matrix_product_state():
    s = np.array([1.0, 0.0, 0.0, 0.0])  # |00>
    t = correlation_matrix(s, (0, 1))
    assert np.allclose(t, [[0, 0], [0, 1]], atol=1e-12)
    assert singular_squares(t).tolist() == [1.0, 0.0]


def test_correlation_matrix_singlet():
    s = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    t = correlation_matrix(s, (0, 1))
    l1, l2 = singular_squares(t)
    assert abs(l1 - 1) < 1e-12 and abs(l2 - 1) < 1e-12


def test_correlation_matrix_uncorrelated_pair():
    # |0> times a singlet on qubits (1, 2): the (0, 1) pair is uncorrelated
    # with qubit 1 maximally mixed, so its correlation matrix vanishes
    amps = np.zeros(8)
    amps[0b001] = 1 / math.sqrt(2)
    amps[0b010] = -1 / math.sqrt(2)
    assert np.allclose(correlation_matrix(amps, (0, 1)), 0.0, atol=1e-12)


def test_chsh_value_at_optimal_angles():
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    t = correlation_matrix(phi, (0, 1))
    v = alpha_chsh_value(t, (0.0, math.pi / 2), (math.pi / 4, -math.pi / 4), 1.0)
    assert abs(v - 2 * math.sqrt(2)) < 1e-9


def test_chsh_classical_value_on_product_state():
    t = correlation_matrix(np.array([1.0, 0.0, 0.0, 0.0]), (0, 1))
    for alpha in (1.0, 2.0):
        assert alpha_chsh_max(t, alpha) <= 2 * alpha + 1e-12


def test_alpha_rejected_below_one():
    t = np.eye(2)
    with pytest.raises(ValueError):
        alpha_chsh_max(t, 0.5)
    with pytest.raises(ValueError):
        alpha_chsh_value(t, (0, 0), (0, 0), 0.9)


def test_alpha_chsh_max_formula_cases():
    assert abs(alpha_chsh_max(np.eye(2), 1.0) - 2 * math.sqrt(2)) < 1e-12
    t = np.array([[0.0, 0.0], [0.0, 1.0]])
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
        assert np.array_equal(amps, random_real_state(3, rng))


def test_batched_slacks_match_per_state_check():
    alphas = [1.0, 1.25, 2.0, 3.5]
    states = quantum._random_real_states(300, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    slacks = quantum._worst_slacks(states, alphas)
    assert slacks.shape == (300, 4)
    for row, amps in zip(slacks, states):
        state = random_real_state(3, rng)
        assert np.array_equal(amps, state)
        for s, a in zip(row, alphas):
            assert abs(s - check_qubit_monogamy(state, a).worst_slack) <= 1e-12


@pytest.mark.parametrize("k", [1, 7, 1024])
def test_batched_normalization_matches_the_per_row_norm(k):
    v = np.random.default_rng(k).standard_normal((k, 8))
    states = quantum._random_real_states(k, np.random.default_rng(k))
    expected = np.stack([row / np.linalg.norm(row) for row in v])
    assert np.array_equal(states, expected)


def pauli_trace_reference(states: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """tr(rho sigma_u x sigma_v) at [state, u, v], u, v in (x, z), from the
    4x4 products, with rho the pair's reduced density matrix."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    psi = np.moveaxis(states.reshape(-1, 2, 2, 2), (pair[0] + 1, pair[1] + 1), (1, 2))
    psi = psi.reshape(len(states), 4, 2)
    rho = psi @ psi.transpose(0, 2, 1)
    traces = [[np.trace(rho @ np.kron(su, sv), axis1=-2, axis2=-1) for sv in (sx, sz)] for su in (sx, sz)]
    return np.moveaxis(np.array(traces), -1, 0)


def test_correlation_matrices_match_the_pauli_traces():
    # zero amplitudes (the family's, their negations -0.0, and amplitudes in
    # {0, +-c}) test signed zeros in the traces
    family = np.stack([saturating_family(math.pi / 4 * i / 20) for i in range(21)])
    signs = np.random.default_rng(4).integers(-1, 2, size=(300, 8)).astype(float)
    signs = signs[signs.any(axis=1)]
    states = np.concatenate([
        quantum._random_real_states(10**4, np.random.default_rng(3)),
        family,
        -family,
        signs / np.sqrt(np.sum(signs**2, axis=1))[:, None],
    ])
    for pair in ((0, 1), (0, 2), (1, 2)):
        t = quantum._correlation_matrices(states, 3, pair)
        expected = pauli_trace_reference(states, pair)
        assert np.array_equal(t, expected)
        assert np.array_equal(np.signbit(t), np.signbit(expected))
        for amps, t_one in zip(family, expected[10**4:]):
            one = correlation_matrix(amps, pair)
            assert np.array_equal(one, t_one) and np.array_equal(np.signbit(one), np.signbit(t_one))


@pytest.mark.parametrize("n_states", [0, -5])
def test_monogamy_montecarlo_rejects_empty_runs(n_states):
    with pytest.raises(ValueError):
        monogamy_montecarlo(n_states, MC_ALPHAS)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.5])
def test_alpha_must_be_finite_and_at_least_one(alpha):
    t = np.eye(2)
    state = saturating_family(0.0)
    for call in (
        lambda: alpha_chsh_value(t, (0, 0), (0, 0), alpha),
        lambda: alpha_chsh_max(t, alpha),
        lambda: check_qubit_monogamy(state, alpha),
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
        rep = check_qubit_monogamy(amps, alpha)
        assert abs(rep.slack_pair_tradeoff) < 1e-12
        assert abs(rep.slack_agreement) < 1e-12


def test_w_state_has_strict_slack():
    amps = np.zeros(8)
    amps[0b001] = amps[0b010] = amps[0b100] = 1 / math.sqrt(3)
    rep = check_qubit_monogamy(amps, 1.0)
    assert rep.worst_slack > 0.1


def test_saturating_family_normalized_and_boundary():
    for i in range(50):
        theta = (math.pi / 4) * i / 49
        state = saturating_family(theta)
        assert abs(np.sum(state**2) - 1) < 1e-12
        t_ab = correlation_matrix(state, (0, 1))
        t_ac = correlation_matrix(state, (0, 2))
        for alpha in (1.0, 2.0):
            lhs = alpha_chsh_max(t_ab, alpha) ** 2 + 4 * singular_squares(t_ac)[0]
            assert abs(lhs - 4 * (1 + alpha**2)) < 1e-9


def test_saturating_family_endpoints():
    s0 = saturating_family(0.0)
    assert abs(s0[0b010] - 1 / math.sqrt(2)) < 1e-12
    assert abs(s0[0b100] - 1 / math.sqrt(2)) < 1e-12
    s1 = saturating_family(math.pi / 4)
    assert abs(s1[0b010] - 1.0) < 1e-12
    # the range check admits theta up to pi/4 + 1e-12, so that is evaluated too
    s2 = saturating_family(math.pi / 4 + 1e-12)
    assert s2[0b010] == 1.0 and s2[0b100] == 0.0
    with pytest.raises(ValueError):
        saturating_family(1.0)


def test_family_sweep_runs_at_every_point_count():
    # for 26 point counts in 2..399 the last angle (pi/4) (n-1)/(n-1) is one
    # ulp above pi/4, where sqrt(2) sin(theta) exceeded 1 before the clamp
    for n in range(2, 401):
        rows = family_sweep_csv(1.0, n).strip().splitlines()
        assert len(rows) == n + 1
        assert abs(float(rows[-1].split(",")[-1])) < 1e-9


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


@pytest.mark.parametrize("call", [
    lambda: chained_quantum_violation(0, 2),
    lambda: chained_quantum_violation(-3, 2),
    lambda: chained_quantum_violation(2, 1),
    lambda: key_rate(0, 2),
], ids=["M=0", "M=-3", "d=1", "key-rate-M=0"])
def test_violation_rejects_fewer_than_two_settings_or_outcomes(call):
    # M <= 0 stacked an empty phase ladder and raised numpy's
    # "need at least one array to stack"
    with pytest.raises(ValueError, match="need M >= 2 and d >= 2"):
        call()


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


@pytest.mark.parametrize("d, target", [(1, 0.5), (1, 0.0), (0, 0.0)])
def test_min_settings_needs_two_outcomes(d, target):
    with pytest.raises(ValueError, match=f"^need d >= 2 outcomes, got {d}$"):
        min_settings(d, target)


@pytest.mark.parametrize("bound", ["tight", "prior"])
def test_key_rate_rejects_nan_violation(bound):
    with pytest.raises(ValueError, match="^violation must be nonnegative$"):
        key_rate(2, 2, bound=bound, violation=float("nan"))


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: correlation_matrix(np.array([1.0, 0, 0, 0]), (0, 0)), "need two distinct qubit indices in range"),
        (lambda: correlation_matrix(np.array([1.0, 0, 0, 0]), (0, 2)), "need two distinct qubit indices in range"),
        (lambda: monogamy_montecarlo(10, [], seed=0), "need at least one alpha"),
        (lambda: key_rate(2, 2, "loose", violation=0.5), "bound must be 'tight' or 'prior'"),
    ],
    ids=["same-qubit", "qubit-out-of-range", "no-alpha", "bound"],
)
def test_quantum_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
