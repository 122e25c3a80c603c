"""Finite ontological models and the inequalities behind the classical caps.

An ontological model assigns each preparation an epistemic distribution over
a hidden state space.  Here the space is a finite set of `num_lambdas`
points, so integrals become sums and every inequality used in deriving the
noncontextual bounds can be checked exactly on arbitrary models:

* the optimal-Bayesian-guess success sum_l max_i p_i mu_i(l);
* its cap 1 - sum over pairs of min(p_i, p_j) * overlap(i, j);
* the max/min decomposition identity for three preparations.

`check_models` runs these checks over stacked arrays of N models with the
same number of preparations and ontic points, one numpy reduction per
quantity; `check_two_state_bound` and `check_three_state_bound` are its
one-model case.  `check_random_models` is the stream behind `mesd
ontic-check`: it draws `random_model`'s models straight into per-size
group buffers and checks each group with `check_models`.

No attempt is made to build a model reproducing full qubit statistics; the
point is to verify the bound derivation on finite models where it is exact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .qcore import PriorDistribution, check_priors, real_array

ROW_SUM_TOL = 1e-12
BOUND_TOL = 1e-12
_GROUP = 80  # models per ontic-space size checked at once; 80 x 22.3 KB over L = 2..32


@dataclass(frozen=True, eq=False)  # compares by value, so unhashable
class FiniteOnticModel:
    """Per-preparation epistemic distributions over a finite ontic space.

    `distributions` has one row per preparation; row i is mu(.|psi_i).
    """

    distributions: np.ndarray
    priors: PriorDistribution

    def __post_init__(self) -> None:
        mu = np.array(real_array(self.distributions, "distributions"), dtype=float)
        if mu.ndim != 2 or mu.shape[0] < 1 or mu.shape[1] < 1:
            raise ValueError(f"distributions must be a 2-D matrix, got shape {mu.shape}")
        _check_rows(mu, len(self.priors))
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


def _check_rows(mu: np.ndarray, num_priors: int) -> None:
    """Raise `ValueError` unless every model in `mu` (shape (..., k, L)) has
    nonnegative rows summing to 1 within `ROW_SUM_TOL` and `num_priors` == k.
    The one row check, for `FiniteOnticModel` and `check_models` alike."""
    if not (mu >= 0.0).all():
        raise ValueError("epistemic distributions must be nonnegative")
    row_sums = mu.sum(axis=-1).reshape(-1, mu.shape[-2])
    summed = np.abs(row_sums - 1.0) <= ROW_SUM_TOL
    if not summed.all():
        bad = row_sums[summed.all(axis=1).argmin()]
        raise ValueError(f"every row must sum to 1, got sums {bad}")
    if num_priors != mu.shape[-2]:
        raise ValueError("one prior per preparation required")


def _success(joints: np.ndarray) -> np.ndarray:
    """sum_l max_i of the joints (..., k, L): the guesser names, at each
    ontic state, the preparation with the largest joint mass."""
    return joints.max(axis=-2).sum(axis=-1)


def _sum_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_l min(a(l), b(l)) over the last axis."""
    return np.minimum(a, b).sum(axis=-1)


def ontic_success(model: FiniteOnticModel) -> float:
    """Best-possible guessing success sum_l max_i p_i mu_i(l): at each ontic
    state the guesser names the preparation with the largest joint mass."""
    if model.num_preparations < 2:
        raise ValueError("need at least 2 preparations to discriminate")
    return float(_success(model.weighted_joints()))


def min_overlap(model: FiniteOnticModel, i: int, j: int) -> float:
    """Overlap sum_l min(mu_i(l), mu_j(l)) between two epistemic rows.
    1 for identical rows, 0 for disjoint supports.  Indices are integers,
    numpy's included; a bool or a float is rejected, not read as a mask."""
    for k in (i, j):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"preparation index must be an integer, got {k!r}")
    n = model.num_preparations
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"preparation index out of range for {n} preparations")
    if i == j:
        raise ValueError("overlap needs two distinct preparations")
    return float(_sum_min(model.distributions[i], model.distributions[j]))


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


@dataclass(frozen=True, eq=False)
class ModelChecks:
    """`check_models` results, one entry per model along the first axis.

    `overlaps[:, 0]` is overlap(1, 2) and, for three preparations,
    `overlaps[:, 1]` is overlap(1, 3).  The decomposition fields are None
    for two preparations.
    """

    success: np.ndarray
    overlaps: np.ndarray
    bound: np.ndarray
    passed: np.ndarray
    decomposition_error: np.ndarray | None = None
    decomposition_passed: np.ndarray | None = None


def check_models(distributions: np.ndarray, priors: np.ndarray) -> ModelChecks:
    """Check N finite models at once: `distributions` of shape (N, k, L) and
    `priors` of shape (N, k), for k = 2 or 3 preparations.

    Every model is validated as `FiniteOnticModel` and `PriorDistribution`
    validate one, with the same messages.  Then, per model:
    success <= 1 - sum_j min(p_1, p_j) * overlap(1, j) over j = 2..k, and
    for k = 3 the max/min decomposition identity (see
    `check_three_state_bound`).  The one-model checks run the same
    arithmetic with N = 1, so every value equals theirs bit for bit.
    """
    mu = np.asarray(real_array(distributions, "distributions"), dtype=float)
    p = np.asarray(real_array(priors, "priors"), dtype=float)
    if mu.ndim != 3 or p.ndim != 2 or mu.shape[0] != p.shape[0] or mu.shape[2] < 1:
        raise ValueError(
            f"need distributions (N, k, L) and priors (N, k), got shapes {mu.shape} and {p.shape}"
        )
    if mu.shape[1] not in (2, 3):
        raise ValueError(f"finite-model checks need 2 or 3 preparations, got {mu.shape[1]}")
    check_priors(p)
    _check_rows(mu, p.shape[1])
    return _bound_checks(mu, p)


def _bound_checks(mu: np.ndarray, p: np.ndarray) -> ModelChecks:
    """`check_models` on inputs already validated."""
    joints = p[:, :, None] * mu
    success = _success(joints)
    overlaps = _sum_min(mu[:, :1], mu[:, 1:])
    bound = 1.0
    for j in range(1, mu.shape[1]):
        bound = bound - np.minimum(p[:, 0], p[:, j]) * overlaps[:, j - 1]
    passed = success <= bound + BOUND_TOL
    if mu.shape[1] == 2:
        return ModelChecks(success, overlaps, bound, passed)
    w1, w2, w3 = joints[:, 0], joints[:, 1], joints[:, 2]
    min_12 = np.minimum(w1, w2)
    pairwise = min_12.sum(axis=-1) + _sum_min(w1, w3) + _sum_min(w2, w3)
    triple = _sum_min(min_12, w3)
    error = np.abs(success - (1.0 - pairwise + triple))
    return ModelChecks(success, overlaps, bound, passed, error, error <= BOUND_TOL)


def _check_one(model: FiniteOnticModel, k: int, name: str) -> ModelChecks:
    if model.num_preparations != k:
        raise ValueError(
            f"{name} check needs exactly {k} preparations, got {model.num_preparations}"
        )
    return _bound_checks(model.distributions[None], np.array([model.priors.probabilities]))


def check_two_state_bound(model: FiniteOnticModel) -> TwoStateBoundReport:
    """Check success <= 1 - min(p1, p2) * overlap for a 2-preparation model.

    The inequality is a theorem, so a failing report means an implementation
    bug rather than an interesting model.
    """
    c = _check_one(model, 2, "two-state")
    return TwoStateBoundReport(
        success=c.success.item(),
        overlap=c.overlaps.item(),
        bound=c.bound.item(),
        passed=c.passed.item(),
    )


def check_three_state_bound(model: FiniteOnticModel) -> ThreeStateBoundReport:
    """Check the 3-preparation cap and the max/min decomposition identity.

    The cap is 1 - min(p1,p2)*overlap(1,2) - min(p1,p3)*overlap(1,3); it
    holds for arbitrary priors, with (p, p, 1-2p) the case of interest.
    The identity re-expresses the success as 1 minus the pairwise minima of
    the weighted joints plus their triple minimum, and must hold exactly.
    """
    c = _check_one(model, 3, "three-state")
    return ThreeStateBoundReport(
        success=c.success.item(),
        overlap_12=c.overlaps[0, 0].item(),
        overlap_13=c.overlaps[0, 1].item(),
        bound=c.bound.item(),
        passed=c.passed.item(),
        decomposition_error=c.decomposition_error.item(),
        decomposition_passed=c.decomposition_passed.item(),
    )


def _normalized(mu_draws: np.ndarray, prior_draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws of shape (..., k, L) and (..., k) made into epistemic
    rows and priors: each shifted off zero and scaled to sum to 1 along the
    last axis.  Over leading axes, so a stack of draws normalizes at once."""
    mu = mu_draws + 1e-12
    mu /= mu.sum(axis=-1, keepdims=True)
    priors = prior_draws + 1e-12
    priors /= priors.sum(axis=-1, keepdims=True)
    # renormalize in float so the 1e-12 prior-sum tolerance is met exactly
    return mu, priors / priors.sum(axis=-1, keepdims=True)


def random_model(
    num_preparations: int, num_lambdas: int, rng: np.random.Generator
) -> FiniteOnticModel:
    """Random valid model: rows and priors are normalized positive vectors.
    Both sizes are integers >= 1, numpy's included; a bool or a float is
    rejected, not handed to numpy."""
    for size in (num_preparations, num_lambdas):
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
            raise ValueError(f"model sizes must be integers >= 1, got {size!r}")
    mu_draws = rng.random((num_preparations, num_lambdas))
    mu, priors = _normalized(mu_draws, rng.random(num_preparations))
    return FiniteOnticModel(distributions=mu, priors=PriorDistribution(tuple(priors)))


def check_random_models(
    rng: np.random.Generator, n: int
) -> Iterator[tuple[ModelChecks, ModelChecks]]:
    """Draw `n` pairs of random models and check them in groups: yields
    `(check_models(two), check_models(three))` per group of pairs that share
    an ontic-space size L.

    Each pair draws L = `rng.integers(2, 33)`, then the doubles of
    `random_model(2, L, rng)` and of `random_model(3, L, rng)` (2L, 2, 3L
    and 3), which one `rng.random(out=row)` yields in the same order as
    their four calls, into the next row of L's reusable `(_GROUP, 5L + 5)`
    buffer.  So every model checked is `random_model`'s, bit for bit.  A
    full buffer is checked and reused; the partly filled ones follow, in
    order of L, so memory does not depend on `n`.  `n` is an integer >= 1,
    numpy's included; a bool or a float is rejected on the call."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"model count must be an integer >= 1, got {n!r}")
    return _checked_groups(rng, n)


def _checked_groups(
    rng: np.random.Generator, n: int
) -> Iterator[tuple[ModelChecks, ModelChecks]]:
    """`check_random_models` after its check of `n`."""
    groups: list[np.ndarray | None] = [None] * 33
    filled = [0] * 33
    for _ in range(n):
        size = int(rng.integers(2, 33))
        rows = groups[size]
        if rows is None:
            rows = groups[size] = np.empty((_GROUP, 5 * size + 5))
        rng.random(out=rows[filled[size]])
        filled[size] = (filled[size] + 1) % _GROUP
        if not filled[size]:
            yield _checked(rows, size)
    for size, count in enumerate(filled):
        if count:
            yield _checked(groups[size][:count], size)


def _checked(rows: np.ndarray, size: int) -> tuple[ModelChecks, ModelChecks]:
    """`check_models` of the two- and three-preparation models in `rows`."""
    mu2, p2, mu3, p3 = np.split(rows, [2 * size, 2 * size + 2, 5 * size + 2], axis=1)
    return (check_models(*_normalized(mu2.reshape(-1, 2, size), p2)),
            check_models(*_normalized(mu3.reshape(-1, 3, size), p3)))
