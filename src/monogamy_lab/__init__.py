"""Monogamy of Bell-functional violations over no-signalling polytopes.

Exact-rational construction and LP verification of the chained multipartite
Bell functionals, their monogamy trade-offs with an outsider's correlations,
the resulting guessing-probability and key-rate bounds, and
randomness-amplification thresholds for partially free sources.
"""

from .scenario import (
    Behavior,
    DeterministicAssignment,
    Scenario,
    behavior_from_json,
    behavior_to_json,
    deterministic_vertex,
    is_nonsignalling,
    marginal,
    mix,
    product,
    restrict,
    uniform_behavior,
    validate,
)
from .bell import (
    BellFunctional,
    ModularTerm,
    classical_minimum,
    complement_mean_residuals,
    evaluate,
    modular_mean,
    recursive_bkp,
)
from .polylp import (
    LinearProgram,
    LPSolution,
    ns_constraints,
    ns_program,
    optimize_over_ns,
    solve,
    verify_certificate,
)
from .monogamy import (
    agreement_probability,
    guessing_bound,
    guessing_bound_prior,
    minimize_lhs_over_ns,
    monogamy_lhs_general,
    tightness_scan,
)
from .quantum import (
    CorrelationMatrix,
    PlaneObservable,
    RealPureState,
    alpha_chsh_max,
    alpha_chsh_value,
    chained_quantum_violation,
    correlation_matrix,
    key_rate,
    min_settings,
    quantum_guessing_bound,
    saturating_family,
)
from .svamp import (
    AdversaryModel,
    SVSource,
    critical_epsilon,
    critical_epsilon_common,
    feasibility_curve,
    observed_behavior,
    q_factor,
    q_factor_tilde,
    variational_bound,
)

__version__ = "0.1.0"
