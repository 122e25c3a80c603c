"""Minimum-error discrimination of qubit states: quantum optima,
preparation-noncontextual bounds, brute-force verification oracles, a finite
ontological-model simulator, and a CLI for mapping advantage regions."""

from .analytic import (
    BoundPair,
    MirrorEnsemble,
    TwoStateScenario,
    advantage_three,
    advantage_two,
    helstrom_two,
    nc_three_bound,
    nc_two_bound,
    quantum_three,
    quantum_three_branch,
    threshold_prior,
)
from .ontic import (
    FiniteOnticModel,
    ResponseFunction,
    check_mixing_constraint,
    check_three_state_bound,
    check_two_state_bound,
    min_overlap,
    ontic_success,
    operational_probability,
    random_model,
)
from .oracle import (
    OracleResult,
    discrimination_success,
    optimize_three,
    optimize_two,
)
from .qcore import (
    Effect,
    Povm,
    PriorDistribution,
    PureState,
    born_probability,
    confusability,
    make_state,
    mirror_reflect,
    validate_povm,
)

__all__ = [
    "BoundPair",
    "Effect",
    "FiniteOnticModel",
    "MirrorEnsemble",
    "OracleResult",
    "Povm",
    "PriorDistribution",
    "PureState",
    "ResponseFunction",
    "TwoStateScenario",
    "advantage_three",
    "advantage_two",
    "born_probability",
    "check_mixing_constraint",
    "check_three_state_bound",
    "check_two_state_bound",
    "confusability",
    "discrimination_success",
    "helstrom_two",
    "make_state",
    "min_overlap",
    "mirror_reflect",
    "nc_three_bound",
    "nc_two_bound",
    "ontic_success",
    "operational_probability",
    "optimize_three",
    "optimize_two",
    "quantum_three",
    "quantum_three_branch",
    "random_model",
    "threshold_prior",
    "validate_povm",
]

__version__ = "0.1.0"
