"""Finite ontological models and the inequalities behind the classical caps.

An ontological model assigns each preparation an epistemic distribution over
a hidden state space.  Here the space is a finite set of `num_lambdas`
points, so integrals become sums and every inequality used in deriving the
noncontextual bounds can be checked exactly on arbitrary models:

* the optimal-Bayesian-guess success sum_l max_i p_i mu_i(l);
* its cap 1 - sum over pairs of min(p_i, p_j) * overlap(i, j);
* the max/min decomposition identity for three preparations.

No attempt is made to build a model reproducing full qubit statistics; the
point is to verify the bound derivation on finite models where it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PriorDistribution

ROW_SUM_TOL = 1e-12
BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # compares by value, so unhashable
class FiniteOnticModel:
    """Per-preparation epistemic distributions over a finite ontic space.

    `distributions` has one row per preparation; row i is mu(.|psi_i).
    """

    distributions: np.ndarray
    priors: PriorDistribution

    def __post_init__(self) -> None:
        mu = np.array(self.distributions, dtype=float)
        if mu.ndim != 2 or mu.shape[0] < 1 or mu.shape[1] < 1:
            raise ValueError(f"distributions must be a 2-D matrix, got shape {mu.shape}")
        if not np.all(mu >= 0.0):
            raise ValueError("epistemic distributions must be nonnegative")
        row_sums = mu.sum(axis=1)
        if not np.max(np.abs(row_sums - 1.0)) <= ROW_SUM_TOL:
            raise ValueError(f"every row must sum to 1, got sums {row_sums}")
        if len(self.priors) != mu.shape[0]:
            raise ValueError("one prior per preparation required")
        mu.flags.writeable = False
        object.__setattr__(self, "distributions", mu)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteOnticModel):
            return NotImplemented
        return self.priors == other.priors and np.array_equal(
            self.distributions, other.distributions
        )

    @property
    def num_preparations(self) -> int:
        return self.distributions.shape[0]

    def weighted_joints(self) -> np.ndarray:
        """Rows p_i * mu_i(.): the joint mass of (preparation, ontic state)."""
        return np.asarray(self.priors.probabilities)[:, None] * self.distributions


def ontic_success(model: FiniteOnticModel) -> float:
    """Best-possible guessing success sum_l max_i p_i mu_i(l): at each ontic
    state the guesser names the preparation with the largest joint mass."""
    if model.num_preparations < 2:
        raise ValueError("need at least 2 preparations to discriminate")
    return float(model.weighted_joints().max(axis=0).sum())


def min_overlap(model: FiniteOnticModel, i: int, j: int) -> float:
    """Overlap sum_l min(mu_i(l), mu_j(l)) between two epistemic rows.
    1 for identical rows, 0 for disjoint supports."""
    n = model.num_preparations
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"preparation index out of range for {n} preparations")
    if i == j:
        raise ValueError("overlap needs two distinct preparations")
    return float(np.minimum(model.distributions[i], model.distributions[j]).sum())


@dataclass(frozen=True)
class TwoStateBoundReport:
    success: float
    overlap: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ThreeStateBoundReport:
    success: float
    overlap_12: float
    overlap_13: float
    bound: float
    passed: bool
    decomposition_error: float
    decomposition_passed: bool


def check_two_state_bound(model: FiniteOnticModel) -> TwoStateBoundReport:
    """Check success <= 1 - min(p1, p2) * overlap for a 2-preparation model.

    The inequality is a theorem, so a failing report means an implementation
    bug rather than an interesting model.
    """
    if model.num_preparations != 2:
        raise ValueError(
            f"two-state check needs exactly 2 preparations, got {model.num_preparations}"
        )
    success = ontic_success(model)
    overlap = min_overlap(model, 0, 1)
    p1, p2 = model.priors.probabilities
    bound = 1.0 - min(p1, p2) * overlap
    return TwoStateBoundReport(
        success=success,
        overlap=overlap,
        bound=bound,
        passed=success <= bound + BOUND_TOL,
    )


def check_three_state_bound(model: FiniteOnticModel) -> ThreeStateBoundReport:
    """Check the 3-preparation cap and the max/min decomposition identity.

    The cap is 1 - min(p1,p2)*overlap(1,2) - min(p1,p3)*overlap(1,3); it
    holds for arbitrary priors, with (p, p, 1-2p) the case of interest.
    The identity re-expresses the success as 1 minus the pairwise minima of
    the weighted joints plus their triple minimum, and must hold exactly.
    """
    if model.num_preparations != 3:
        raise ValueError(
            f"three-state check needs exactly 3 preparations, got {model.num_preparations}"
        )
    success = ontic_success(model)
    overlap_12 = min_overlap(model, 0, 1)
    overlap_13 = min_overlap(model, 0, 2)
    p1, p2, p3 = model.priors.probabilities
    bound = 1.0 - min(p1, p2) * overlap_12 - min(p1, p3) * overlap_13

    w = model.weighted_joints()
    pairwise = (
        np.minimum(w[0], w[1]).sum()
        + np.minimum(w[0], w[2]).sum()
        + np.minimum(w[1], w[2]).sum()
    )
    triple = np.minimum(np.minimum(w[0], w[1]), w[2]).sum()
    decomposition = 1.0 - float(pairwise) + float(triple)
    decomposition_error = abs(success - decomposition)

    return ThreeStateBoundReport(
        success=success,
        overlap_12=overlap_12,
        overlap_13=overlap_13,
        bound=bound,
        passed=success <= bound + BOUND_TOL,
        decomposition_error=decomposition_error,
        decomposition_passed=decomposition_error <= BOUND_TOL,
    )


def random_model(
    num_preparations: int, num_lambdas: int, rng: np.random.Generator
) -> FiniteOnticModel:
    """Random valid model: rows and priors are normalized positive vectors."""
    mu = rng.random((num_preparations, num_lambdas)) + 1e-12
    mu /= mu.sum(axis=1, keepdims=True)
    priors = rng.random(num_preparations) + 1e-12
    priors /= priors.sum()
    # renormalize in float so the 1e-12 row-sum tolerance is met exactly
    return FiniteOnticModel(
        distributions=mu, priors=PriorDistribution(tuple(priors / priors.sum()))
    )
