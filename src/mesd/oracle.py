"""Numerical maximization of discrimination success over measurements.

The analytic optima in `analytic` are checked here against optima found
without the closed forms, with the success functional
sum_i p_i <psi_i| E_i |psi_i> evaluated through the Born rule.

Two hypotheses: projective measurements fixed by one angle, searched by a
uniform angle grid and golden-section refinement.  Three hypotheses: all
POVMs, searched by the fixed-point iteration of Jezek, Rehacek and Fiurasek
(PRA 65, 060301(R), 2002), whose complete rank-1 iterates map onto
`MeasurementParams3`.  Each iterate is paired with the Holevo /
Yuen-Kennedy-Lax dual, so the verdict is an interval: the success of the
POVM found and a proven upper bound on the success of every measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import MirrorEnsemble
from .qcore import (
    Effect,
    Povm,
    PriorDistribution,
    PureState,
    born_probability,
    identity_matrix,
    make_state,
    validate_povm,
)

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_WEIGHT_TOL = 1e-12
_MAX_GRID_N = 2**20
# The three-state iteration stops once dual bound - success is this small.
_GAP_TOL = 1e-13
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MeasurementParams2:
    """Orientation of a projective two-outcome measurement in the plane."""

    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle!r}")
        object.__setattr__(self, "angle", self.angle % TWO_PI)


@dataclass(frozen=True)
class MeasurementParams3:
    """In-plane three-outcome POVM a_i |phi(alpha_i)><phi(alpha_i)|.

    weights are the effect traces (a_1, a_2, a_3) and angles the projector
    directions.  Completeness requires sum a_i = 2 and the weighted
    double-angle directions sum a_i (cos 2a_i, sin 2a_i) to cancel; both are
    checked to 1e-9.  Positivity is automatic from a_i >= 0.
    """

    weights: tuple[float, float, float]
    angles: tuple[float, float, float]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        a = tuple(float(x) for x in self.angles)
        if len(w) != 3 or len(a) != 3:
            raise ValueError("three weights and three angles required")
        if not all(x >= -_WEIGHT_TOL for x in w):
            raise ValueError(f"weights must be nonnegative, got {w}")
        w = tuple(max(0.0, x) for x in w)
        if not abs(sum(w) - 2.0) <= 1e-9:
            raise ValueError(f"weights must sum to 2, got sum {sum(w)!r}")
        bx = sum(wi * math.cos(2.0 * ai) for wi, ai in zip(w, a))
        by = sum(wi * math.sin(2.0 * ai) for wi, ai in zip(w, a))
        if not (abs(bx) <= 1e-9 and abs(by) <= 1e-9):
            raise ValueError(
                f"weighted directions must cancel for completeness, got ({bx!r}, {by!r})"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", a)

    def to_povm(self) -> Povm:
        effects = [
            Effect.scaled_projector(wi, make_state(ai))
            for wi, ai in zip(self.weights, self.angles)
        ]
        return validate_povm(effects)


@dataclass(frozen=True)
class OracleResult:
    """The best measurement found, its Born-rule success, the candidates
    evaluated (grid angles plus golden-section steps for optimize_two,
    fixed-point iterates for optimize_three), and dual_bound, an upper bound
    on the success of every measurement, proven up to float rounding: the
    optimum lies in [success, dual_bound].  optimize_two reports 1.0."""

    success: float
    params: MeasurementParams2 | MeasurementParams3
    evaluations: int
    dual_bound: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success out of [0, 1]: {self.success!r}")


def discrimination_success(
    states: Sequence[PureState], priors: PriorDistribution, povm: Povm
) -> float:
    """Born-rule success functional sum_i p_i <psi_i| E_i |psi_i| for a
    hypothesis-indexed POVM (effect i means "guess state i")."""
    if len(states) != len(priors) or len(povm) != len(states):
        raise ValueError("states, priors and POVM outcomes must align")
    return sum(
        p * born_probability(s, e)
        for p, s, e in zip(priors.probabilities, states, povm.effects)
    )


def success_two(
    s1: PureState, s2: PureState, p: float, m: MeasurementParams2
) -> float:
    """Two-state success p <psi2|E2|psi2> + (1-p) <psi1|E1|psi1> where E1 is
    the projector at m.angle (outcome 1 guesses psi1) and E2 = I - E1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p!r}")
    e1 = Effect.projector(make_state(m.angle))
    e2 = Effect(identity_matrix() - e1.matrix)
    return p * born_probability(s2, e2) + (1.0 - p) * born_probability(s1, e1)


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, iters: int
) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    evals = 2
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        evals += 1
    if f1 >= f2:
        return x1, f1, evals
    return x2, f2, evals


def optimize_two(
    s1: PureState,
    s2: PureState,
    p: float,
    grid_n: int = 1024,
    refine_iters: int = 60,
) -> OracleResult:
    """Maximize success_two over the measurement angle.

    Uniform grid of grid_n angles over one projector period [0, pi),
    followed by golden-section refinement in the bracket around the best
    grid point.  The objective is a single harmonic in 2*angle, so the
    refined value is the global maximum.  grid_n must lie in [64, 2**20],
    which bounds the memory of the grid (one float per angle).
    """
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [64, {_MAX_GRID_N}], got {grid_n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p!r}")
    t1, t2 = s1.angle, s2.angle

    def objective(alpha: float) -> float:
        return p * math.sin(t2 - alpha) ** 2 + (1.0 - p) * math.cos(t1 - alpha) ** 2

    alphas = np.linspace(0.0, math.pi, grid_n, endpoint=False)
    values = p * np.sin(t2 - alphas) ** 2 + (1.0 - p) * np.cos(t1 - alphas) ** 2
    best = int(np.argmax(values))
    spacing = math.pi / grid_n
    evals = grid_n

    x, _, used = _golden_max(
        objective, alphas[best] - spacing, alphas[best] + spacing, refine_iters
    )
    evals += used
    if objective(x) < values[best]:
        x = float(alphas[best])
    params = MeasurementParams2(x)
    return OracleResult(
        success=success_two(s1, s2, p, params),
        params=params,
        evaluations=evals,
        dual_bound=1.0,
    )


def _certificate(
    kets: np.ndarray, priors: np.ndarray, effects: np.ndarray
) -> tuple[float, float]:
    """(Tr Gamma, Tr Gamma + 2t) for the complete POVM `effects`: its success
    and an upper bound on the success of every measurement.  With
    Gamma = Herm(sum_i p_i rho_i E_i) and t = max_i lambda_max(p_i rho_i - Gamma)^+,
    Gamma + t I dominates every p_i rho_i, so it is feasible for the
    Holevo / Yuen-Kennedy-Lax dual, whose value is its trace."""
    weighted = priors[:, None, None] * np.einsum("ia,ib->iab", kets, kets)
    total = np.einsum("iab,ibc->ac", weighted, effects)
    gamma = 0.5 * (total + total.T)
    t = max(0.0, float(np.linalg.eigvalsh(weighted - gamma)[:, -1].max()))
    return float(np.trace(gamma)), float(np.trace(gamma)) + 2.0 * t


def _fixed_point(
    kets: np.ndarray, priors: np.ndarray, iters: int
) -> tuple[np.ndarray, float, int]:
    """Best effects, smallest dual bound and number of iterates evaluated of
    the Jezek-Rehacek-Fiurasek iteration E_i <- G^-1 A_i G^-1 from E_i = I/n,
    with A_i = p_i rho_i E_i p_i rho_i and G = (sum_i A_i)^(1/2).  Every
    iterate E_i = a_i G^-1 |psi_i><psi_i| G^-1 is complete and rank-1, so the
    iteration runs on the weights a: the start is a_i = p_i^2 (their scale
    cancels) and a step multiplies a_i by (p_i <psi_i|G^-1|psi_i>)^2.  Plain
    steps crawl where an optimal effect vanishes, at and above the threshold
    prior, so that factor is raised to omega, which doubles while the
    success does not fall and returns to 1 otherwise."""
    weights, ratio = (priors / priors.max()) ** 2, np.ones(len(priors))
    omega, value, primal, dual = 1.0, -np.inf, -np.inf, np.inf
    for evaluations in range(1, iters + 2):
        trial = weights * (ratio / ratio.max()) ** omega
        lam, vecs = np.linalg.eigh(np.einsum("i,ia,ib->ab", trial, kets, kets))
        if not lam[0] > _TINY * lam[1]:  # G singular, or G^-1 inexact in floats
            if evaluations > 1:
                omega = 1.0
                continue
            # Every weighted state lies on one ray r; the projector on r for the
            # outcome with the largest p_i <psi_i|r>^2 plus the complement is optimal.
            k = int(np.argmax(priors * (kets @ vecs[:, -1]) ** 2))
            best = np.zeros((len(kets), 2, 2))
            best[k] = np.outer(vecs[:, -1], vecs[:, -1])
            best[(k + 1) % len(kets)] = np.eye(2) - best[k]
            return best, _certificate(kets, priors, best)[1], 1
        rows = kets @ ((vecs / np.sqrt(lam)) @ vecs.T)
        effects = trial[:, None, None] * np.einsum("ia,ib->iab", rows, rows)
        trial_value, bound = _certificate(kets, priors, effects)
        dual = min(dual, bound)
        if trial_value > primal:
            primal, best = trial_value, effects
        if trial_value >= value or omega == 1.0:
            weights, value, omega = trial / trial.max(), trial_value, 2.0 * omega
            ratio = (priors * np.einsum("ia,ia->i", kets, rows)) ** 2
        else:
            omega = 1.0
        if dual - primal <= _GAP_TOL:
            break
    return best, dual, evaluations


def success_three(ensemble: MirrorEnsemble, m: MeasurementParams3) -> float:
    """Three-state success for an in-plane weighted-projector POVM, computed
    through the Born rule (effect i guesses state i)."""
    return discrimination_success(ensemble.states(), ensemble.priors(), m.to_povm())


def optimize_three(
    ensemble: MirrorEnsemble,
    grid_n: int = 64,
    refine_iters: int = 200,
    seed: int = 0,
) -> OracleResult:
    """Maximize three-state success over all measurements, with a certificate.

    Runs `_fixed_point` for at most `refine_iters` steps and returns the
    best POVM visited as MeasurementParams3, its Born-rule success, the
    smallest dual bound visited and the number of iterates evaluated.
    `grid_n` (>= 16) and `seed` are validated and accepted only: there is
    no grid and no random start, so every seed gives the same result.
    """
    if grid_n < 16 or refine_iters < 0:
        raise ValueError(f"need grid_n >= 16, refine_iters >= 0, got {grid_n}, {refine_iters}")
    # Both mirror kets from one (cos, sin) pair: exact symmetry keeps their
    # weights equal, where over-relaxed steps would amplify rounding noise.
    c, s = math.cos(ensemble.theta), math.sin(ensemble.theta)
    kets = np.array([[c, s], [c, -s], [1.0, 0.0]])
    priors = np.array(ensemble.priors().probabilities)
    effects, dual, evaluations = _fixed_point(kets, priors, refine_iters)
    tops = np.linalg.eigh(effects)[1][:, :, -1]
    params = MeasurementParams3(
        weights=tuple(np.trace(effects, axis1=1, axis2=2)),
        angles=tuple(np.arctan2(tops[:, 1], tops[:, 0])),
    )
    return OracleResult(
        success=success_three(ensemble, params),
        params=params,
        evaluations=evaluations,
        dual_bound=dual,
    )
