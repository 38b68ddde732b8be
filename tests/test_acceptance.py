"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
as they complete).  Exact-arithmetic criteria run at zero tolerance."""

import math
import random
from fractions import Fraction

import numpy as np

from monogamy_lab.bell import (
    classical_minimum,
    complement_mean_residuals,
    evaluate,
    recursive_bkp,
)
from monogamy_lab.monogamy import (
    guessing_bound,
    guessing_bound_prior,
    minimize_lhs_over_ns,
    monogamy_lhs_general,
    tightness_scan,
)
from monogamy_lab.polylp import optimize_over_ns
from monogamy_lab.quantum import (
    alpha_chsh_max,
    chained_quantum_violation,
    correlation_matrix,
    min_settings,
    monogamy_montecarlo,
    saturating_family,
)
from monogamy_lab.sampling import ns_pool, random_ns_mixture
from monogamy_lab.scenario import Scenario
from monogamy_lab.svamp import (
    bell_functional_for,
    critical_epsilon,
    critical_epsilon_common,
    observed_behavior,
    random_adversary_model,
    variational_bound,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


_VIOLATIONS: dict = {}


def violation(m: int, d: int) -> float:
    if (m, d) not in _VIOLATIONS:
        _VIOLATIONS[(m, d)] = chained_quantum_violation(m, d).value
    return _VIOLATIONS[(m, d)]


def test_criterion_1_classical_bound():
    desk = [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)]
    failures = []
    for n, m, d in desk:
        if classical_minimum(recursive_bkp(n, m, d)) != d - 1:
            failures.append((n, m, d))
    report(1, not failures,
           f"vertex minimum equals d-1 exactly on all {len(desk)} scenarios"
           + (f"; failed {failures}" if failures else ""))


def test_criterion_2_ns_minimum_zero():
    instances = [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2)]
    values = {}
    for n, m, d in instances:
        f = recursive_bkp(n, m, d)
        sol = optimize_over_ns(Scenario(n, m, d), f.dense(), "min")
        values[(n, m, d)] = (sol.status, sol.value)
    ok = all(s == "optimal" and v == 0 for s, v in values.values())
    report(2, ok, f"NS minimum exactly 0 for {sorted(values)}")


def test_criterion_3_tightness():
    ok = True
    details = []
    for d in (2, 3):
        rows = tightness_scan(Scenario(3, 2, d), 0, 0, 0)
        got = all(r.status == "optimal" and r.tight for r in rows)
        ok = ok and got and len(rows) == 5
        details.append(f"(3,2,{d}): {len(rows)} grid points all equal (1+t)/{d}")
    report(3, ok, "; ".join(details))


def test_criterion_4_four_party_monogamy():
    sol = minimize_lhs_over_ns(Scenario(4, 2, 2), 0, 0, 0)
    lp_ok = sol.status == "optimal" and sol.value == 1

    rng = random.Random(2024)
    scn = Scenario(4, 2, 2)
    pool = ns_pool(scn, rng, n_vertices=24, n_lp=2)
    bad = 0
    for _ in range(500):
        b = random_ns_mixture(pool, rng)
        k = rng.randrange(3)
        if monogamy_lhs_general(b, k, rng.randrange(2), rng.randrange(2), check=False) < 1:
            bad += 1
    report(4, lp_ok and bad == 0,
           f"LP minimum of the outsider bound = 1 exactly; 500 random NS points, {bad} violations")


def test_criterion_5_guessing_curves():
    ok = True
    for d in (2, 3, 4, 5, 6):
        crossing = Fraction(4 * (d - 1), d * d)
        ok = ok and guessing_bound_prior(crossing, 2, 2, d) == 1
        ok = ok and guessing_bound_prior(crossing * Fraction(999, 1000), 2, 2, d) < 1
    for d in (2, 3, 4):
        for n in (2, 3):
            for i in range(33):
                v = Fraction(i, 32) * (d - 1)
                tight = guessing_bound(v, d)
                prior = guessing_bound_prior(v, n, 2, d)
                ok = ok and tight <= prior
                if v > 0 and d**n * (n - 1) > 4 and prior < 1:
                    ok = ok and tight < prior
    # the d = 2, N = 2 bounds coincide identically (d^N (N-1) = 4)
    ok = ok and guessing_bound(Fraction(1, 7), 2) == guessing_bound_prior(Fraction(1, 7), 2, 2, 2)
    report(5, ok, "prior bound crosses 1 at 4(d-1)/d^2 and dominates the tight bound pointwise")


def test_criterion_6_modular_identities():
    rng = random.Random(6)
    worst = Fraction(0)
    count = 0
    for d in range(2, 7):
        for _ in range(1000):
            raw = [rng.randrange(0, 60) for _ in range(d)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            dist = [Fraction(v, total) for v in raw]
            ra, rb = complement_mean_residuals(dist)
            worst = max(worst, abs(ra), abs(rb))
            count += 1
    report(6, worst == 0, f"both identities exact on {count} random rational distributions")


def test_criterion_7_qubit_monogamy():
    summary = monogamy_montecarlo(10000, [1.0, 1.5, 2.0, 3.0], seed=7)
    mc_ok = summary["violations"] == 0 and summary["worst_slack"] >= -1e-7

    worst_res = 0.0
    for i in range(50):
        theta = (math.pi / 4) * i / 49
        state = saturating_family(theta)
        t_ab = correlation_matrix(state, (0, 1))
        t_ac = correlation_matrix(state, (0, 2))
        lhs = alpha_chsh_max(t_ab, 1.0) ** 2 + 4 * t_ac.singular_squares[0]
        worst_res = max(worst_res, abs(lhs - 8.0))
    family_ok = worst_res <= 1e-9
    report(7, mc_ok and family_ok,
           f"10^4 states x 4 alphas: 0 violations (worst slack {summary['worst_slack']:.2e}); "
           f"family saturates within {worst_res:.2e}")


def test_criterion_8_quantum_violation():
    chsh = chained_quantum_violation(2, 2)
    chsh_ok = abs(chsh.value - (2 - math.sqrt(2))) < 1e-6
    vals = [violation(m, 2) for m in (4, 8, 16)]
    slope = float(np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(vals), 1)[0])
    slope_ok = -1.2 <= slope <= -0.8
    report(8, chsh_ok and slope_ok,
           f"two-setting value {chsh.value:.7f} vs 2-sqrt(2); scaling slope {slope:.3f}")


def test_criterion_9_key_rates():
    ds = (3, 4, 5)
    tight_col = {}
    prior_col = {}
    for d in ds:
        tight_col[d] = min_settings(d, 1.0, "tight", max_m=12, violation=violation)
        prior_col[d] = min_settings(d, 1.0, "prior", max_m=12, violation=violation)
    dominance = all(
        tight_col[d] is not None
        and (prior_col[d] is None or tight_col[d] <= prior_col[d])
        for d in ds
    )
    tight_vals = [tight_col[d] for d in ds]
    monotone = all(a >= b for a, b in zip(tight_vals, tight_vals[1:]))
    report(9, dominance and monotone,
           f"settings needed at rate 1: tight {tight_col}, prior {prior_col} "
           f"(None = not reached by M=12)")


def test_criterion_10_ra_thresholds():
    eps2 = critical_epsilon(2)
    eps2_ok = abs(eps2 - (math.sqrt(2) - 1) ** 2 / 2) <= 1e-15
    common_ok = critical_epsilon_common(2) == Fraction(1, 6)
    series = [critical_epsilon(n) for n in range(2, 9)]
    decreasing = all(a > b for a, b in zip(series, series[1:]))

    rng = random.Random(10)
    scenarios = [Scenario(2, 2, 2), Scenario(2, 3, 2), Scenario(2, 2, 3)]
    pools = {s: ns_pool(s, rng, n_vertices=10, n_lp=1) for s in scenarios}
    bad = 0
    checked = 0
    for i in range(200):
        scn = scenarios[i % 3]
        model = random_adversary_model(
            scn, rng, pools[scn],
            n_strategies=rng.randrange(1, 9),
            epsilon=Fraction(rng.randrange(0, 13), 100),
        )
        obs = observed_behavior(model)
        bv = evaluate(bell_functional_for(scn), obs)
        for x in scn.all_settings():
            for k in range(scn.parties):
                chk = variational_bound(model, x, k, observed=obs, bell_value=bv)
                checked += 1
                if not chk.satisfied:
                    bad += 1
    report(10, eps2_ok and common_ok and decreasing and bad == 0,
           f"thresholds exact ((sqrt(2)-1)^2/2 and 1/6), strictly decreasing to N=8; "
           f"200 adversary models / {checked} checks, {bad} violations")
