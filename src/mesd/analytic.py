"""Closed-form success probabilities and noncontextual bounds.

Two discrimination tasks are covered:

* two nonorthogonal pure states with priors (p, 1-p), where the quantum
  optimum is the Helstrom bound and the preparation-noncontextual model is
  capped by a piecewise-linear trade-off in the confusability;
* three mirror-symmetric states {cos(t)|0> +/- sin(t)|1>, |0>} with priors
  (p, p, 1-2p), where the quantum optimum has two branches split by a
  threshold prior and the noncontextual cap splits at p = 1/3.

`advantage_three_row` computes the map's slices as arrays, bit-identical to
the scalar `advantage_three`, which stays the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import PriorDistribution, PureState, make_state, real_array, within

HALF_PI = math.pi / 2.0

# A gap is called an advantage only when it clears numeric noise.
ADVANTAGE_TOL = 1e-12


@dataclass(frozen=True)
class TwoStateScenario:
    """Two-state task: prior p for the first state, confusability c between
    the pair.  Both are dimensionless and must lie in [0, 1]."""

    prior_p: float
    confusability_c: float

    def __post_init__(self) -> None:
        if not within(self.prior_p, 0.0, 1.0):
            raise ValueError(f"prior_p must lie in [0, 1], got {self.prior_p!r}")
        if not within(self.confusability_c, 0.0, 1.0):
            raise ValueError(
                f"confusability_c must lie in [0, 1], got {self.confusability_c!r}"
            )


@dataclass(frozen=True)
class MirrorEnsemble:
    """Mirror-symmetric triple at angle theta with priors (p, p, 1-2p).

    theta is restricted to [0, pi/2]; anything outside duplicates an
    ensemble already representable inside.  prior_p <= 1/2 keeps the third
    prior nonnegative.
    """

    theta: float
    prior_p: float

    def __post_init__(self) -> None:
        if not within(self.theta, 0.0, HALF_PI):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta!r}")
        if not within(self.prior_p, 0.0, 0.5):
            raise ValueError(f"prior_p must lie in [0, 1/2], got {self.prior_p!r}")

    def states(self) -> tuple[PureState, PureState, PureState]:
        """(psi1, psi2, psi3) at angles theta, -theta, 0; psi2 is the exact
        mirror image of psi1."""
        return (make_state(self.theta), make_state(-self.theta), make_state(0.0))

    def priors(self) -> PriorDistribution:
        return PriorDistribution((self.prior_p, self.prior_p, 1.0 - 2.0 * self.prior_p))

    @property
    def pair_confusability(self) -> float:
        """c between psi1 and psi2: cos^2(2 theta)."""
        return math.cos(2.0 * self.theta) ** 2

    @property
    def center_confusability(self) -> float:
        """c between psi1 (or psi2) and psi3: cos^2(theta)."""
        return math.cos(self.theta) ** 2


@dataclass(frozen=True)
class BoundPair:
    """Quantum value vs noncontextual cap for one scenario; the gap is
    computed from the two, quantum - noncontextual."""

    quantum: float
    noncontextual: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantum <= 1.0:
            raise ValueError(f"quantum value out of [0, 1]: {self.quantum!r}")
        if not 0.0 <= self.noncontextual <= 1.0:
            raise ValueError(f"noncontextual value out of [0, 1]: {self.noncontextual!r}")

    @property
    def gap(self) -> float:
        return self.quantum - self.noncontextual

    @property
    def advantage(self) -> bool:
        return self.gap > ADVANTAGE_TOL


def helstrom_two(scenario: TwoStateScenario) -> float:
    """Optimal two-state success probability (1 + sqrt(1 - 4p(1-p)c)) / 2.

    The radicand is computed as (1 - 2p)^2 + 4p(1-p)(1-c), a sum of two
    nonnegative terms: 1 - 2p and 1 - c are exact where they are small, so
    nothing cancels near p = 1/2, c = 1.
    """
    p, c = scenario.prior_p, scenario.confusability_c
    return 0.5 * (1.0 + math.sqrt((1.0 - 2.0 * p) ** 2 + 4.0 * p * (1.0 - p) * (1.0 - c)))


def nc_two_bound(scenario: TwoStateScenario) -> float:
    """Preparation-noncontextual cap 1 - min(p, 1-p) * c."""
    p, c = scenario.prior_p, scenario.confusability_c
    return 1.0 - p * c if p <= 0.5 else 1.0 - (1.0 - p) * c


def threshold_prior(theta: float) -> float:
    """Prior p*(theta) = 1 / (2 + cos(theta)(cos(theta) + sin(theta)))
    separating the two branches of the optimal three-state strategy."""
    if not within(theta, 0.0, HALF_PI):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    c = math.cos(theta)
    return 1.0 / (2.0 + c * (c + math.sin(theta)))


def quantum_three_branch(ensemble: MirrorEnsemble) -> str:
    """Which branch of the optimal three-state strategy applies.

    "high-prior" for p >= p*(theta): the optimum is the Helstrom measurement
    of the mirror pair and never guesses state 3.  "low-prior" otherwise:
    all three outcomes are used.  At exactly p = p* the two branch formulas
    agree identically, so the high-prior branch is used.
    """
    return "high-prior" if ensemble.prior_p >= threshold_prior(ensemble.theta) else "low-prior"


def quantum_three(ensemble: MirrorEnsemble) -> float:
    """Optimal quantum success probability for the mirror-symmetric triple.

    p >= p*(theta):  p (1 + sin 2 theta)
    p <  p*(theta):  (1-2p)(p sin^2 t + 1 - 2p - p cos^2 t) / (1 - 2p - p cos^2 t)

    Both branches coincide at p = p* (each equals p (cos t + sin t)^2 there).
    """
    t, p = ensemble.theta, ensemble.prior_p
    if quantum_three_branch(ensemble) == "high-prior":
        value = p * (1.0 + math.sin(2.0 * t))
    else:
        denom = 1.0 - 2.0 * p - p * math.cos(t) ** 2
        value = (1.0 - 2.0 * p) * (p * math.sin(t) ** 2 + denom) / denom
    return min(1.0, max(0.0, value))


def nc_three_bound(ensemble: MirrorEnsemble) -> float:
    """Noncontextual cap for the mirror-symmetric triple.

    With c12 = cos^2(2 theta) and c13 = cos^2(theta):
    p <= 1/3:  1 - p c12 - p c13
    p >  1/3:  1 - p c12 - (1-2p) c13
    """
    p = ensemble.prior_p
    c12 = ensemble.pair_confusability
    c13 = ensemble.center_confusability
    if p <= 1.0 / 3.0:
        return 1.0 - p * c12 - p * c13
    return 1.0 - p * c12 - (1.0 - 2.0 * p) * c13


def advantage_two(scenario: TwoStateScenario) -> BoundPair:
    """Quantum vs noncontextual for the two-state task; the gap is strictly
    positive on the interior of the (p, c) square and zero on its edges."""
    return BoundPair(helstrom_two(scenario), nc_two_bound(scenario))


def advantage_three(ensemble: MirrorEnsemble) -> BoundPair:
    """Quantum vs noncontextual for the three-state task; the gap changes
    sign with the prior, so an advantage exists only restrictively."""
    return BoundPair(quantum_three(ensemble), nc_three_bound(ensemble))


def advantage_three_row(theta: float,
                        priors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`advantage_three` at one theta over an array of priors, as arrays
    (quantum, noncontextual, gap) with the same prior check.  The per-theta factors
    are the scalar functions' `math` expressions and the per-prior arithmetic,
    branches and clamp run in their order, so every element is bit-identical."""
    p_star = threshold_prior(theta)
    p = np.asarray(real_array(priors, "prior_p"), dtype=float)
    outside = ~((0.0 <= p) & (p <= 0.5))
    if outside.any():
        raise ValueError(f"prior_p must lie in [0, 1/2], got {p[outside][0].item()!r}")
    cos_sq, sin_sq = math.cos(theta) ** 2, math.sin(theta) ** 2
    value = p * (1.0 + math.sin(2.0 * theta))
    low = p < p_star  # the complement of quantum_three_branch's p >= p*
    pl = p[low]
    denom = 1.0 - 2.0 * pl - pl * cos_sq
    value[low] = (1.0 - 2.0 * pl) * (pl * sin_sq + denom) / denom
    # min(1.0, max(0.0, v)) as Python evaluates it: NaN and -0.0 give 0.0.
    value = np.where(value > 0.0, value, 0.0)
    quantum = np.where(value < 1.0, value, 1.0)
    weight = np.where(p <= 1.0 / 3.0, p, 1.0 - 2.0 * p)  # of c13 in nc_three_bound
    noncontextual = 1.0 - p * math.cos(2.0 * theta) ** 2 - weight * cos_sq
    return quantum, noncontextual, quantum - noncontextual

