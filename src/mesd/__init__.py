"""Minimum-error discrimination of qubit states: quantum optima,
preparation-noncontextual bounds, certified verification oracles, a finite
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
    check_three_state_bound,
    check_two_state_bound,
    min_overlap,
    ontic_success,
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
    "TwoStateScenario",
    "advantage_three",
    "advantage_two",
    "born_probability",
    "check_three_state_bound",
    "check_two_state_bound",
    "confusability",
    "discrimination_success",
    "helstrom_two",
    "make_state",
    "min_overlap",
    "nc_three_bound",
    "nc_two_bound",
    "ontic_success",
    "optimize_three",
    "optimize_two",
    "quantum_three",
    "quantum_three_branch",
    "random_model",
    "threshold_prior",
    "validate_povm",
]

__version__ = "0.1.0"
