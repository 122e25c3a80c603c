"""Numerical maximization of discrimination success over measurements.

The analytic optima in `analytic` are checked here against optima found
without the closed forms, with the success functional
sum_i p_i <psi_i| E_i |psi_i> evaluated through the Born rule.

Two hypotheses: projective measurements fixed by one angle, searched by a
uniform angle grid whose best point and neighbours fix the peak of the
success, a single harmonic in twice the angle.  Three hypotheses: all
POVMs, searched by the fixed-point iteration of Jezek, Rehacek and Fiurasek
(PRA 65, 060301(R), 2002).  Both oracles pair their measurement with the
Holevo / Yuen-Kennedy-Lax dual, so the verdict is an interval: the success
of the measurement found and a proven upper bound on the success of every
measurement.  The effects that the dual certifies are the `Povm` the
verdict reports and scores.

`_certificate` evaluates that dual for any complete POVM in numpy.  The
fixed point runs each step in scalar float arithmetic on the real kets, for
any number of them: the 2x2 matrix S it inverts comes from its three
entries, its determinant by Cauchy-Binet, S^-1/2 from the adjugate, and the
dual's largest eigenvalues from the 2x2 closed form.  A step counts only
when its effects sum to the identity within `COMPLETENESS_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import MirrorEnsemble
from .qcore import (
    COMPLETENESS_TOL,
    TWO_PI,
    Povm,
    PriorDistribution,
    PureState,
    born_probability,
    make_state,
    validate_povm,
)

_MAX_GRID_N = 2**20
# The three-state iteration stops once dual bound - success is this small.
_GAP_TOL = 1e-13
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class OracleResult:
    """The best measurement found as a POVM (effect i guesses state i), its
    Born-rule success, the candidates evaluated (grid angles plus the fitted
    peak for optimize_two, fixed-point iterates for optimize_three), and
    dual_bound, an upper bound on the success of every measurement, proven
    up to float rounding: the optimum lies in [success, dual_bound]."""

    success: float
    povm: Povm
    evaluations: int
    dual_bound: float
    __hash__ = None  # type: ignore[assignment]  # its povm is unhashable

    def __post_init__(self) -> None:
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success out of [0, 1]: {self.success!r}")


def discrimination_success(
    states: Sequence[PureState], priors: PriorDistribution, povm: Povm
) -> float:
    """Born-rule success functional sum_i p_i <psi_i| E_i |psi_i> for a
    hypothesis-indexed POVM (effect i means "guess state i")."""
    if len(states) != len(priors) or len(povm) != len(states):
        raise ValueError("states, priors and POVM outcomes must align")
    return sum(
        p * born_probability(s, e)
        for p, s, e in zip(priors.probabilities, states, povm.effects)
    )


def optimize_two(
    s1: PureState,
    s2: PureState,
    p: float,
    grid_n: int = 1024,
    refine_iters: int = 60,
) -> OracleResult:
    """Maximize two-state success over projective measurements, with a certificate.

    Uniform grid of grid_n angles over one projector period [0, pi).  The
    objective is a single harmonic in 2*angle, so the best grid value and
    its two neighbours fix the peak exactly; the peak is kept within one
    grid step of the best grid angle.  Returns the projective POVM at the
    peak (outcome 1 guesses s1), its Born-rule success and its dual bound
    from `_certificate`.
    grid_n must lie in [64, 2**20], which bounds the memory of the grid (one
    float per angle).  refine_iters (>= 0) is validated and accepted only.
    """
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [64, {_MAX_GRID_N}], got {grid_n}")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p!r}")
    t1, t2 = s1.angle, s2.angle
    alphas = np.linspace(0.0, math.pi, grid_n, endpoint=False)
    values = p * np.sin(t2 - alphas) ** 2 + (1.0 - p) * np.cos(t1 - alphas) ** 2
    best = int(np.argmax(values))
    lo, mid, hi = (float(values[(best + k) % grid_n]) for k in (-1, 0, 1))
    # values = a + c cos(u) + s sin(u) in u = 2 * (alpha - alphas[best]),
    # sampled at u = -h, 0, h; the peak lies at u = atan2(s, c).
    h = TWO_PI / grid_n
    c = (mid - 0.5 * (lo + hi)) / (1.0 - math.cos(h))
    s = (hi - lo) / (2.0 * math.sin(h))
    ket = make_state(float(alphas[best]) + 0.5 * min(h, max(-h, math.atan2(s, c)))).ket
    projector = np.outer(ket, ket)
    effects = np.array([projector, np.eye(2) - projector])
    _, dual = _certificate(np.array([s1.ket, s2.ket]), np.array([1.0 - p, p]), effects)
    return _verdict((s1, s2), PriorDistribution((1.0 - p, p)), effects, grid_n + 1, dual)


def _verdict(
    states: Sequence[PureState],
    priors: PriorDistribution,
    effects: np.ndarray,
    evaluations: int,
    dual: float,
) -> OracleResult:
    """The certified `effects` as a validated POVM, scored through the Born rule."""
    povm = validate_povm(effects)
    return OracleResult(discrimination_success(states, priors, povm), povm, evaluations, dual)


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
    with A_i = p_i rho_i E_i p_i rho_i and G = (sum_i A_i)^(1/2), for any n
    real kets.  Every iterate E_i = a_i G^-1 |psi_i><psi_i| G^-1 is complete
    and rank-1, so the iteration runs on the weights a: the start is
    a_i = p_i^2 (their scale cancels) and a step multiplies a_i by
    (p_i <psi_i|G^-1|psi_i>)^2.  Plain steps crawl where an optimal effect
    vanishes, at and above the threshold prior, so that factor is raised to
    omega, which doubles while the success does not fall and returns to 1
    otherwise.

    A step is scalar float arithmetic on the real kets k_i.  S = G^2 =
    sum_i a_i k_i k_i^T is three numbers (s_xx, s_xy, s_yy), and
    det S = sum_{i<j} a_i a_j (k_i x k_j)^2 by Cauchy-Binet, a sum of
    nonnegative terms with no cancellation.  With r = sqrt(det S),
    G^-1 = S^-1/2 = (adj S + r I) / (r sqrt(tr S + 2r)), and the effects are
    a_i g_i g_i^T with rows g_i = G^-1 k_i.  A step counts only if
    sum_i a_i g_i g_i^T is within COMPLETENESS_TOL of I: a singular or
    ill-conditioned S gives an inexact G^-1, whose effects are no
    measurement and may beat the dual bound, so such a step is skipped with
    omega back at 1.  Its certificate is `_certificate`'s in closed form:
    Tr Gamma = sum_i p_i a_i (k_i.g_i)^2 and t = max_i of
    lambda_max(p_i rho_i - Gamma)^+, where lambda_max of a symmetric 2x2
    matrix m is (m_xx + m_yy)/2 + hypot((m_xx - m_yy)/2, m_xy).  The
    (n, 2, 2) effects are built once, from the best step.  Steps that end
    with a gap above _GAP_TOL give way to the one-ray measurement below if
    its own gap is within _GAP_TOL, or if no step counted."""
    weights = (priors / priors.max()) ** 2
    lam, vecs = np.linalg.eigh(np.einsum("i,ia,ib->ab", weights, kets, kets))
    # The projector on the top eigenvector r for the outcome with the largest
    # p_i <psi_i|r>^2, plus the complement: optimal when every weighted state
    # lies on the ray r (S singular), and often certified when the states
    # almost do, where S^-1/2 is too inexact for the iteration to converge.
    k = int(np.argmax(priors * (kets @ vecs[:, -1]) ** 2))
    ray = np.zeros((len(kets), 2, 2))
    ray[k] = np.outer(vecs[:, -1], vecs[:, -1])
    ray[(k + 1) % len(kets)] = np.eye(2) - ray[k]
    if not lam[0] > _TINY * lam[1]:
        return ray, _certificate(kets, priors, ray)[1], 1
    xs, ys = kets.T.tolist()
    states = list(zip(priors.tolist(), xs, ys))
    crosses = [(i, j, (xs[i] * ys[j] - ys[i] * xs[j]) ** 2)
               for i in range(len(xs)) for j in range(i + 1, len(xs))]
    weights, ratio, best = weights.tolist(), [1.0] * len(states), None
    omega, value, primal, dual = 1.0, -math.inf, -math.inf, math.inf
    for evaluations in range(1, iters + 2):
        top = max(ratio)
        trial = [w * (q / top) ** omega for w, q in zip(weights, ratio)]
        sxx = sxy = syy = 0.0
        for a, (_, x, y) in zip(trial, states):
            sxx, sxy, syy = sxx + a * x * x, sxy + a * x * y, syy + a * y * y
        root = math.sqrt(sum(trial[i] * trial[j] * c for i, j, c in crosses))
        scale = root * math.sqrt(sxx + syy + 2.0 * root)
        if not scale > 0.0:  # S singular
            omega = 1.0
            continue
        uxx, uxy, uyy = (syy + root) / scale, -sxy / scale, (sxx + root) / scale
        rows, overlaps = [], []
        cxx = cxy = cyy = trial_value = gamma_xx = gamma_xy = gamma_yy = 0.0
        for a, (p, x, y) in zip(trial, states):
            u, v = uxx * x + uxy * y, uxy * x + uyy * y
            o = x * u + y * v
            c = p * a * o
            rows.append((u, v))
            overlaps.append(o)
            cxx, cxy, cyy = cxx + a * u * u, cxy + a * u * v, cyy + a * v * v
            trial_value += c * o
            gamma_xx, gamma_xy, gamma_yy = (gamma_xx + c * x * u, gamma_xy + c * (x * v + y * u),
                                            gamma_yy + c * y * v)
        if not max(abs(cxx - 1.0), abs(cxy), abs(cyy - 1.0)) <= COMPLETENESS_TOL:
            omega = 1.0  # S^-1/2 inexact in floats: the effects are no measurement
            continue
        gamma_xy *= 0.5
        t = 0.0
        for p, x, y in states:
            mxx, myy = p * x * x - gamma_xx, p * y * y - gamma_yy
            lam_max = 0.5 * (mxx + myy) + math.hypot(0.5 * (mxx - myy), p * x * y - gamma_xy)
            if lam_max > t:
                t = lam_max
        dual = min(dual, trial_value + 2.0 * t)
        if trial_value > primal:
            primal, best = trial_value, (trial, rows)
        if trial_value >= value or omega == 1.0:
            top = max(trial)
            weights, value, omega = [a / top for a in trial], trial_value, 2.0 * omega
            ratio = [(p * o) ** 2 for (p, _, _), o in zip(states, overlaps)]
        else:
            omega = 1.0
        if dual - primal <= _GAP_TOL:
            break
    else:
        ray_value, ray_bound = _certificate(kets, priors, ray)
        if best is None or ray_bound - ray_value <= _GAP_TOL:
            return ray, ray_bound, evaluations + 1
    trial, rows = best
    rows = np.array(rows)
    effects = np.array(trial)[:, None, None] * np.einsum("ia,ib->iab", rows, rows)
    # `_certificate` may round the bound of these effects below the scalar
    # one; the reported bound is never above the reported effects' own.
    return effects, min(dual, _certificate(kets, priors, effects)[1]), evaluations


def optimize_three(
    ensemble: MirrorEnsemble,
    grid_n: int = 64,
    refine_iters: int = 200,
    seed: int = 0,
) -> OracleResult:
    """Maximize three-state success over all measurements, with a certificate.

    Runs `_fixed_point` for at most `refine_iters` steps and returns the
    best POVM visited, its Born-rule success, the smallest dual bound
    visited and the number of iterates evaluated.  `grid_n` (>= 16) is
    validated and accepted only; `seed` is accepted and ignored.  There is
    no grid and no random start, so every seed gives the same result.
    """
    if grid_n < 16 or refine_iters < 0:
        raise ValueError(f"need grid_n >= 16, refine_iters >= 0, got {grid_n}, {refine_iters}")
    states, priors = ensemble.states(), ensemble.priors()
    kets = np.array([state.ket for state in states])
    effects, dual, evaluations = _fixed_point(kets, np.array(priors.probabilities), refine_iters)
    return _verdict(states, priors, effects, evaluations, dual)
