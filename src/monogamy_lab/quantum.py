"""Quantum-side numerics: qubit monogamy, chained-functional violations,
and key-rate tables.

Three-qubit monogamy: for real pure states and traceless real observables
x.sigma in the (sigma_x, sigma_z) plane, the maximal value of the one-parameter
CHSH form

    I_alpha = alpha (<A1 B1> + <A1 B2>) + <A2 B1> - <A2 B2>

over observables is 2 sqrt(alpha^2 l1 + l2), with l1 >= l2 the eigenvalues of
T T^t for the reduced two-qubit correlation matrix T.  Combined with the
two-qubit correlation trade-off l2 + l1' <= 2 - l1 - l2' this yields the
monogamy inequalities checked here:

    alpha^2 max(I_ab^2, I_ac^2) + min(I_ab^2, I_ac^2) <= 4 alpha^2 (1 + alpha^2)
    I_ab^2 + 4 <A_i C_j>^2 <= 4 (1 + alpha^2)

The second family is saturated (for i = 1) by the states
(b+ |01> + b- |10>)|0> with b+- = sqrt((1 +- sqrt(2) sin t)/2).

Chained-functional violations are evaluated on a maximally entangled
two-qudit pair at the Fourier-basis phase-ladder measurements of Barrett,
Kent and Pironio, PRL 97, 170409 (2006).  One kernel gives the distribution
P([B_y - A_x] = c) of every setting pair (x, y) from one inverse FFT; the
chained value gathers its terms from it, and the full behavior at the
ladder is read off it.  That behavior attains the value, so the value is an
upper bound on the quantum minimum; for d = 2 it equals 2M sin^2(pi/4M).
Everything here is float arithmetic; exactness is never claimed.  numpy
loads on first use: each function that needs it imports it, so importing
this module (and the package) does not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .bell import recursive_bkp
from .monogamy import guessing_bound, guessing_bound_prior
from .scenario import Behavior, Scenario, csv_text

if TYPE_CHECKING:
    import numpy as np

# states drawn, and their correlation matrices held, at a time in monogamy_montecarlo
_MC_BLOCK = 1024


@functools.cache
def _paulis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_x, sigma_z and sigma_u x sigma_v for (u, v) = xx, xz, zx, zz."""
    import numpy as np
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return sx, sz, np.stack([np.kron(su, sv) for su in (sx, sz) for sv in (sx, sz)])


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValueError(f"alpha must be a finite number >= 1, got {alpha}")


@dataclass
class RealPureState:
    """Real amplitudes over n qubits, unit norm within 1e-12."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude count must be 2^n")
        norm = float(np.sum(self.amplitudes**2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm}, not normalized")


def random_real_state(n_qubits: int, rng: np.random.Generator) -> RealPureState:
    return RealPureState(n_qubits, _random_real_states(1, rng, n_qubits)[0])


@dataclass(frozen=True)
class PlaneObservable:
    """Dichotomic observable sin(t) sigma_x + cos(t) sigma_z."""

    angle: float

    @property
    def matrix(self) -> np.ndarray:
        sx, sz, _ = _paulis()
        return math.sin(self.angle) * sx + math.cos(self.angle) * sz

    @property
    def direction(self) -> np.ndarray:
        import numpy as np
        return np.array([math.sin(self.angle), math.cos(self.angle)])


@dataclass
class CorrelationMatrix:
    """2x2 matrix of <sigma_u x sigma_v> over u, v in (x, z) for a qubit pair."""

    matrix: np.ndarray

    @property
    def singular_squares(self) -> tuple[float, float]:
        import numpy as np
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return float(s[0] ** 2), float(s[1] ** 2)


def _correlation_matrices(
    amplitudes: np.ndarray, n_qubits: int, pair: tuple[int, int]
) -> np.ndarray:
    """(k, 2, 2) correlation matrices of one qubit pair for the k real
    states in the rows of ``amplitudes``."""
    import numpy as np
    i, j = pair
    if i == j or not (0 <= i < n_qubits and 0 <= j < n_qubits):
        raise ValueError("need two distinct qubit indices in range")
    k = amplitudes.shape[0]
    psi = amplitudes.reshape((k,) + (2,) * n_qubits)
    psi = np.moveaxis(psi, (i + 1, j + 1), (1, 2)).reshape(k, 4, -1)
    rho = psi @ psi.transpose(0, 2, 1)  # reduced 4x4 density matrices of the pair
    t = np.trace(rho[:, None] @ _paulis()[2], axis1=-2, axis2=-1)
    return t.reshape(k, 2, 2)


def correlation_matrix(state: RealPureState, pair: tuple[int, int]) -> CorrelationMatrix:
    return CorrelationMatrix(_correlation_matrices(state.amplitudes[None], state.n_qubits, pair)[0])


def pair_expectation(t: CorrelationMatrix, a: PlaneObservable, b: PlaneObservable) -> float:
    """<A x B> = a . T b for plane observables."""
    return float(a.direction @ t.matrix @ b.direction)


def alpha_chsh_value(
    t: CorrelationMatrix,
    a_angles: tuple[float, float],
    b_angles: tuple[float, float],
    alpha: float,
) -> float:
    """alpha (<A1B1> + <A1B2>) + <A2B1> - <A2B2> at explicit angles."""
    _check_alpha(alpha)
    a1, a2 = (PlaneObservable(v) for v in a_angles)
    b1, b2 = (PlaneObservable(v) for v in b_angles)
    return (
        alpha * (pair_expectation(t, a1, b1) + pair_expectation(t, a1, b2))
        + pair_expectation(t, a2, b1)
        - pair_expectation(t, a2, b2)
    )


def alpha_chsh_max(t: CorrelationMatrix, alpha: float) -> float:
    """Maximum of the alpha-CHSH form over plane observables: 2 sqrt(a^2 l1 + l2)."""
    _check_alpha(alpha)
    l1, l2 = t.singular_squares
    return 2.0 * math.sqrt(alpha**2 * l1 + l2)


def monogamy_slacks(
    lam_ab: np.ndarray, lam_ac: np.ndarray, lam_bc: np.ndarray, alphas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Slacks of both monogamy inequalities over states x alphas.

    ``lam_ab``, ``lam_ac`` and ``lam_bc`` are (k, 2) arrays of the singular
    squares l1 >= l2 of each state's (0, 1), (0, 2) and (1, 2) correlation
    matrices; ``alphas`` has shape (m,).  Returns the (k, m) slacks of the
    pair trade-off (worst over both orderings) and of the agreement form
    (worst over X in {A, B}).
    """
    import numpy as np
    a2 = np.asarray(alphas, dtype=float) ** 2
    l1, l2 = lam_ab[:, :1], lam_ab[:, 1:]
    t1, t2 = lam_ac[:, :1], lam_ac[:, 1:]
    cap_pair = 4.0 * a2 * (1.0 + a2)
    v_ab_major = 4.0 * (a2 * (a2 * l1 + l2) + a2 * t1 + t2)
    v_ac_major = 4.0 * (a2 * (a2 * t1 + t2) + a2 * l1 + l2)
    slack_pair = cap_pair - np.maximum(v_ab_major, v_ac_major)
    cap_agree = 4.0 * (1.0 + a2)
    v_a_centered = 4.0 * (a2 * l1 + l2) + 4.0 * t1
    v_b_centered = 4.0 * (a2 * l1 + l2) + 4.0 * lam_bc[:, :1]
    slack_agree = cap_agree - np.maximum(v_a_centered, v_b_centered)
    return slack_pair, slack_agree


def _random_real_states(k: int, rng: np.random.Generator, n_qubits: int = 3) -> np.ndarray:
    """(k, 2^n) unit rows: k standard normal draws, each normalized.  The
    same rng gives the same states drawn in one block or one at a time."""
    import numpy as np
    v = rng.standard_normal((k, 2**n_qubits))
    # a norm per row: one vectorized norm rounds some amplitudes differently
    states = v / np.array([np.linalg.norm(row) for row in v])[:, None]
    norms = np.sum(states**2, axis=1)
    worst = norms[np.argmax(np.abs(norms - 1.0))]
    if abs(worst - 1.0) > 1e-12:
        raise ValueError(f"state norm^2 = {worst}, not normalized")
    return states


def _worst_slacks(states: np.ndarray, alphas: Sequence[float]) -> np.ndarray:
    """(k, m) worst slack of each of k three-qubit states (rows) at each alpha."""
    import numpy as np
    t = np.stack([_correlation_matrices(states, 3, pair) for pair in ((0, 1), (0, 2), (1, 2))])
    lam_ab, lam_ac, lam_bc = np.linalg.svd(t, compute_uv=False) ** 2
    return np.minimum(*monogamy_slacks(lam_ab, lam_ac, lam_bc, alphas))


def monogamy_montecarlo(
    n_states: int, alphas: Sequence[float], seed: int = 0
) -> dict:
    """Slack statistics over random real three-qubit states.

    States are drawn and checked in blocks: each state's three correlation
    matrices are built once for every alpha, and the singular values of a
    block come from one stacked SVD.  A seed gives the states of n_states
    calls of :func:`random_real_state`.
    """
    import numpy as np
    if n_states < 1:
        raise ValueError("need at least one state")
    if len(alphas) == 0:
        raise ValueError("need at least one alpha")
    for a in alphas:
        _check_alpha(a)
    rng = np.random.default_rng(seed)
    per_alpha = np.full(len(alphas), math.inf)
    violations = 0
    for start in range(0, n_states, _MC_BLOCK):
        slack = _worst_slacks(_random_real_states(min(_MC_BLOCK, n_states - start), rng), alphas)
        per_alpha = np.minimum(per_alpha, slack.min(axis=0))
        violations += int(np.count_nonzero(slack < -1e-7))
    return {
        "n_states": n_states,
        "alphas": list(alphas),
        "seed": seed,
        "worst_slack": float(per_alpha.min()),
        "worst_slack_per_alpha": {str(a): float(s) for a, s in zip(alphas, per_alpha)},
        "violations": violations,
    }


def saturating_family(theta: float) -> RealPureState:
    """(b+ |01> + b- |10>)|0> with b+- = sqrt((1 +- sqrt(2) sin theta)/2),
    theta in [0, pi/4]; traces the boundary of the agreement monogamy."""
    import numpy as np
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError("theta must lie in [0, pi/4]")
    s = math.sqrt(2.0) * math.sin(theta)
    bp = math.sqrt((1.0 + s) / 2.0)
    bm = math.sqrt((1.0 - s) / 2.0)
    amps = np.zeros(8)
    amps[0b010] = bp
    amps[0b100] = bm
    return RealPureState(3, amps)


def quantum_guessing_bound(violation: float, alpha: float) -> float:
    """Quantum cap on the guessing probability:
    (1 + sqrt(1 + alpha^2 - (I/2)^2))/2, clamped to 1."""
    _check_alpha(alpha)
    rad = 1.0 + alpha**2 - (violation / 2.0) ** 2
    if rad < -1e-12:
        raise ValueError("violation outside the quantum range")
    return min(1.0, 0.5 * (1.0 + math.sqrt(max(rad, 0.0))))


# ---------------------------------------------------------------------------
# Chained-functional violations on maximally entangled qudit pairs.


@dataclass
class ViolationResult:
    settings: int
    outcomes: int
    value: float
    phases_a: np.ndarray
    phases_b: np.ndarray


def _term_tables(M: int, d: int):
    """Setting pairs of the bipartite chained terms, plus the gather index
    J[t, m] mapping the circulant distribution of [A - B] to P([Omega] = m)
    for each term."""
    import numpy as np
    functional = recursive_bkp(2, M, d)
    xs, ys, signs, shifts = [], [], [], []
    for term in functional.terms:
        by_party = {k: (x, s) for k, x, s in term.coeffs}
        xs.append(by_party[0][0])
        ys.append(by_party[1][0])
        signs.append(by_party[0][1])
        shifts.append(term.shift)
    idx = np.empty((len(xs), d - 1), dtype=int)
    for t in range(len(xs)):
        for m in range(1, d):
            # P([Omega]=m) with Omega = sign (A - B) + shift:
            # [A - B] = sign (m - shift), so [B - A] = -sign (m - shift).
            c = (signs[t] * (m - shifts[t])) % d
            idx[t, m - 1] = (-c) % d
    return np.array(xs), np.array(ys), idx


def _difference_distributions(phases_a: np.ndarray, phases_b: np.ndarray) -> np.ndarray:
    """P([B_y - A_x] = c) at [x, y, c] for the phases th^A_x(q), th^B_y(q),
    q = 1..d-1, in row x of ``phases_a`` and row y of ``phases_b`` (th(0) = 0).

    The d outcome pairs with [b - a] = c each have p(a,b|x,y) = |G(c)|^2/d^3
    with G(c) = sum_q w^{qc} e^{-i(th^A_x(q)+th^B_y(q))}, so together they
    have |G(c)/d|^2: one inverse FFT per setting pair."""
    import numpy as np
    theta_a = np.concatenate([np.zeros((len(phases_a), 1)), phases_a], axis=1)
    theta_b = np.concatenate([np.zeros((len(phases_b), 1)), phases_b], axis=1)
    v = np.exp(-1j * (theta_a[:, None] + theta_b[None]))  # (M, M, d)
    return np.abs(np.fft.ifft(v, axis=-1)) ** 2


def chained_quantum_violation(M: int, d: int, seed: int = 0) -> ViolationResult:
    """The chained functional on a maximally entangled two-qudit pair at the
    phase-ladder Fourier-basis measurements.

    Measurement bases are |a> = d^{-1/2} sum_q w^{qa} e^{i th_x(q)} |q> per
    setting (conjugated on the second site), giving
    p(a,b|x,y) = |sum_q w^{q(b-a)} e^{-i(th^A_x(q)+th^B_y(q))}|^2 / d^3.
    The ladder th^A_x(q) = -2 pi q x/(M d), th^B_y(q) = 2 pi q (y + 1/2)/(M d)
    spaces every chain link by 1/(2M); for d = 2 the value is
    2M sin^2(pi/4M).  :func:`violation_behavior` attains the value, so it is
    an upper bound on the quantum minimum.  ``seed`` has no effect; the
    result is deterministic.
    """
    import numpy as np
    if M > 16 or d > 8:
        raise ValueError("desk-scale only: need M <= 16 and d <= 8")
    # The value depends on th^A_x + th^B_y, so Alice descends while Bob
    # ascends.
    q = np.arange(1, d)
    phases_a = np.stack([2 * math.pi * q * (-x / M) / d for x in range(M)])
    phases_b = np.stack([2 * math.pi * q * ((y + 0.5) / M) / d for y in range(M)])
    xs, ys, idx = _term_tables(M, d)
    terms = _difference_distributions(phases_a, phases_b)[xs, ys]
    value = float(np.sum(np.take_along_axis(terms, idx, axis=1) * np.arange(1, d)))
    return ViolationResult(
        settings=M, outcomes=d, value=value, phases_a=phases_a, phases_b=phases_b
    )


def violation_behavior(result: ViolationResult) -> Behavior:
    """The full quantum behavior at the result's phases (float entries):
    p(a,b|x,y) = P([B_y - A_x] = [b - a]) / d."""
    import numpy as np
    M, d = result.settings, result.outcomes
    diff = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d  # [b - a] at [a, b]
    probs = _difference_distributions(result.phases_a, result.phases_b)[:, :, diff] / d
    return Behavior(Scenario(2, M, d), tuple(probs.ravel().tolist()))


# ---------------------------------------------------------------------------
# Key rates.


def key_rate(M: int, d: int, bound: str = "tight", violation: float | None = None) -> float:
    """-log2(tau) for the chained protocol on a maximally entangled pair,
    with tau the guessing-probability cap ('tight': :func:`guessing_bound`,
    'prior': :func:`guessing_bound_prior`).

    This bounds the key rate from below only if Bob has a key setting whose
    outcome equals Alice's A_0: no two chained settings at the ladder are
    perfectly correlated."""
    i_q = chained_quantum_violation(M, d).value if violation is None else violation
    if bound == "tight":
        return -math.log2(guessing_bound(i_q, d))
    if bound == "prior":
        return -math.log2(guessing_bound_prior(i_q, 2, M, d))
    raise ValueError("bound must be 'tight' or 'prior'")


def min_settings(
    d: int,
    target_rate: float,
    bound: str = "tight",
    max_m: int = 16,
    violation: Callable[[int, int], float] | None = None,
) -> int | None:
    """Smallest M with key_rate(M, d) >= target_rate, or None if the target
    is unreachable (rate can never exceed log2 d) or not reached by max_m."""
    _check_max_m(max_m)
    if target_rate > math.log2(d):
        return None
    vio = violation or (lambda m, dd: chained_quantum_violation(m, dd).value)
    for m in range(2, max_m + 1):
        if key_rate(m, d, bound=bound, violation=vio(m, d)) >= target_rate:
            return m
    return None


# ---------------------------------------------------------------------------
# Dataset emitters.


def _check_points(n_points: int) -> None:
    # a grid includes both endpoints
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")


def _check_outcomes(d: int) -> None:
    if d < 2:
        raise ValueError(f"need d >= 2 outcomes, got {d}")


def _check_max_m(max_m: int) -> None:
    # the chained functional needs M >= 2 settings
    if max_m < 2:
        raise ValueError(f"need max_m >= 2 settings, got {max_m}")


def guessing_curve_csv(d: int, n_points: int = 101) -> str:
    """Violation grid with both N = 2 guessing caps (columns I, bound_tight, bound_prior)."""
    _check_outcomes(d)
    _check_points(n_points)
    grid = ((d - 1) * i / (n_points - 1) for i in range(n_points))
    return csv_text(["I", "bound_tight", "bound_prior"], (
        [repr(v), repr(float(guessing_bound(v, d))), repr(float(guessing_bound_prior(v, 2, 2, d)))]
        for v in grid
    ))


def family_sweep_csv(alpha: float, n_points: int) -> str:
    """Boundary sweep of :func:`saturating_family` over theta in [0, pi/4]
    (columns theta, bell_max, outsider_corr, boundary_residual)."""
    _check_points(n_points)
    rows = []
    for i in range(n_points):
        theta = (math.pi / 4) * i / (n_points - 1)
        state = saturating_family(theta)
        bell_max = alpha_chsh_max(correlation_matrix(state, (0, 1)), alpha)
        corr = math.sqrt(correlation_matrix(state, (0, 2)).singular_squares[0])
        residual = bell_max**2 + 4 * corr**2 - 4 * (1 + alpha**2)
        rows.append([repr(theta), repr(bell_max), repr(corr), repr(residual)])
    return csv_text(["theta", "bell_max", "outsider_corr", "boundary_residual"], rows)


def key_rate_table_csv(
    ds: Sequence[int],
    targets: Sequence[float],
    max_m: int = 16,
    violation: Callable[[int, int], float] | None = None,
) -> str:
    """Minimal settings table (columns d, rate_target, min_m_tight, min_m_prior);
    empty cell when the target is not reached by max_m.  Every d and max_m
    must be at least 2 and every target finite."""
    _check_max_m(max_m)
    for d in ds:
        _check_outcomes(d)
    for r in targets:
        if not math.isfinite(r):
            raise ValueError(f"rate target must be finite, got {r}")
    rows = []
    for d in ds:
        for r in targets:
            mt = min_settings(d, r, "tight", max_m, violation)
            mp = min_settings(d, r, "prior", max_m, violation)
            rows.append([d, repr(float(r)), mt if mt else "", mp if mp else ""])
    return csv_text(["d", "rate_target", "min_m_tight", "min_m_prior"], rows)
