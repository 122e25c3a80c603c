"""Numerical maximization of discrimination success over measurements.

The analytic optima in `analytic` are checked here against optima found
without the closed forms.  Two hypotheses: projective measurements fixed by
one angle, searched by a uniform angle grid whose best point and neighbours
fix the peak of the success, a single harmonic in twice the angle.  Three
hypotheses: all POVMs, found exactly by `_active_set`, which enumerates the
pairs and triples of active constraints of the Holevo / Yuen-Kennedy-Lax
dual; its optimum for the mirror triple is the closed form of Andersson,
Barnett, Gilson and Hunter (PRA 65, 052308, 2002).  Both oracles pair their
measurement with that dual, so the verdict is an interval: the success of
the measurement found and a proven upper bound on the success of every
measurement.  The success is min(1, Tr Gamma), Tr Gamma = sum_i p_i
<psi_i| E_i |psi_i> of the reported effects, and the upper end is the
solver's dual bound, but never below the success; `_verdict` validates the
effects and orders the interval, so it is ordered by construction.

The private functions share one format: states (p, x, y), prior p and real
ket (x, y), in; effects as rows ((e_xx, e_xy), (e_xy, e_yy)) out.
optimize_two builds one states list, which also gives its grid the states'
angles, and its two effects as rows, and scores them with `_certificate`,
the dual in numpy for any complete POVM.  optimize_three takes both ends
from `_active_set`, which scores the same dual per candidate in scalar
floats, without numpy, and keeps a triple only if its effects sum to I
within `COMPLETENESS_TOL`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .analytic import MirrorEnsemble
from .qcore import (
    COMPLETENESS_TOL,
    Povm,
    PriorDistribution,
    PureState,
    born_probability,
    validate_povm,
)

_MAX_GRID_N = 2**20
TWO_PI = 2.0 * math.pi
_State = tuple[float, float, float]  # (p, x, y): prior p, real ket (x, y)


@dataclass(frozen=True)
class OracleResult:
    """The best measurement found as a POVM (effect i guesses state i), its
    success min(1, Tr Gamma) (scored by `_certificate` for optimize_two, by
    `_active_set` for optimize_three), the candidates evaluated (grid
    angles plus the fitted peak for optimize_two, active-set pairs and
    triples scored for optimize_three), and dual_bound, an upper bound on
    the success of every measurement, proven up to float rounding: the
    optimum lies in [success, dual_bound], and success <= dual_bound always."""

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

    Uniform grid of grid_n angles over one projector period [0, pi).  Each
    state enters the grid as atan2 of its amplitudes, so the grid searches
    the very kets `_certificate` scores, however large the given angle.  The
    objective is a single harmonic in 2*angle, so the best grid value and
    its two neighbours fix the peak exactly; the peak is kept within one
    grid step of the best grid angle.  Returns the projective POVM at the
    peak (outcome 1 guesses s1) with the `_verdict` of its `_certificate`.
    A prior p outside [0, 1], NaN included, is rejected by `PriorDistribution`.
    grid_n must be an integer (numpy's included, bool not) in [64, 2**20],
    which bounds the memory of the grid (one float per angle).
    refine_iters (>= 0) is validated and accepted only.
    """
    if isinstance(grid_n, bool) or not isinstance(grid_n, numbers.Integral):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [64, {_MAX_GRID_N}], got {grid_n}")
    if not refine_iters >= 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    q1, q2 = PriorDistribution((1.0 - p, p)).probabilities
    states = [(q1, *s1.amplitudes), (q2, *s2.amplitudes)]
    t1, t2 = (math.atan2(y, x) for _, x, y in states)
    alphas = np.linspace(0.0, math.pi, grid_n, endpoint=False)
    values = p * np.sin(t2 - alphas) ** 2 + (1.0 - p) * np.cos(t1 - alphas) ** 2
    best = int(np.argmax(values))
    lo, mid, hi = (float(values[(best + k) % grid_n]) for k in (-1, 0, 1))
    # values = a + c cos(u) + s sin(u) in u = 2 * (alpha - alphas[best]),
    # sampled at u = -h, 0, h; the peak lies at u = atan2(s, c).
    h = TWO_PI / grid_n
    c = (mid - 0.5 * (lo + hi)) / (1.0 - math.cos(h))
    s = (hi - lo) / (2.0 * math.sin(h))
    peak = float(alphas[best]) + 0.5 * min(h, max(-h, math.atan2(s, c)))
    x, y = math.cos(peak), math.sin(peak)
    # the projector on (x, y) and I minus it, in the float operations of
    # np.outer and np.eye(2) - projector: 0.0 - x*y, not -(x*y), which would
    # flip the sign of a zero
    effects = [((x * x, x * y), (y * x, y * y)),
               ((1.0 - x * x, 0.0 - x * y), (0.0 - y * x, 1.0 - y * y))]
    return _verdict(effects, grid_n + 1, *_certificate(states, effects))


def _verdict(effects: Sequence, evaluations: int, value: float, bound: float) -> OracleResult:
    """The validated `effects` (2x2 rows), whose Tr Gamma is `value`,
    with the interval success = min(1, value), dual_bound = max(success, bound),
    `bound` being the solver's upper bound on every measurement's success: so
    success <= dual_bound, with no tolerance.  It computes nothing else."""
    povm = validate_povm(effects)
    success = min(1.0, value)
    return OracleResult(success, povm, evaluations, max(success, bound))


def _certificate(states: Sequence[_State], effects: Sequence) -> tuple[float, float]:
    """(Tr Gamma, Tr Gamma + 2t) for the complete POVM `effects` (rows) on
    `states`: its success and an upper bound on every measurement's
    success.  With Gamma = Herm(sum_i p_i rho_i E_i) and
    t = max_i lambda_max(p_i rho_i - Gamma)^+, Gamma + t I dominates every
    p_i rho_i, so it is feasible for the Holevo / Yuen-Kennedy-Lax dual,
    whose value is its trace.  Its arrays are built here, from `states` and
    the rows."""
    table = np.array(states)
    weighted = table[:, 0, None, None] * np.einsum("ia,ib->iab", table[:, 1:], table[:, 1:])
    total = np.einsum("iab,ibc->ac", weighted, effects)
    gamma = 0.5 * (total + total.T)
    t = max(0.0, float(np.linalg.eigvalsh(weighted - gamma)[:, -1].max()))
    return float(np.trace(gamma)), float(np.trace(gamma)) + 2.0 * t


def _active_set(states: Sequence[_State]) -> tuple[list, int, float, float]:
    """Best effects as rows, number of candidates scored, the best effects'
    Tr Gamma and the smallest candidate's dual bound, `_verdict`'s arguments,
    for any n >= 2 states, in scalar floats.  The Holevo / Yuen-Kennedy-Lax
    dual is min Tr Gamma over symmetric 2x2 Gamma >= p_i rho_i, three
    unknowns, so by Caratheodory some pair or triple of active constraints
    carries the optimum: it is exact to score every candidate of both kinds.

    Pair (a, b): the Helstrom measurement, the projector on the positive
    eigenvector of p_a rho_a - p_b rho_b and its complement, or I to one
    outcome if that matrix is semidefinite.  Triple (i, j, m), all priors
    positive: X = Gamma^-1 solves p_i k_i^T X k_i = 1 by Cramer's rule,
    written as Lagrange interpolation of a binary quadratic form,
    X = sum_i (1/p_i) sym(u_j u_m^T) / d_i with u = (-y, x) and
    d_i = (k_j x k_i)(k_m x k_i); then sum_i w_i k_i k_i^T = Gamma^2 gives
    w_i = (Gamma u_j).(Gamma u_m) / d_i, and E_i = w_i (X k_i)(X k_i)^T.
    A triple is scored only if X > 0, w >= 0 and sum_i E_i is within
    COMPLETENESS_TOL of I, which also rejects overflow at tiny theta or p.

    Each candidate is scored with `_certificate` in closed form:
    Tr Gamma = sum_i p_i k_i^T E_i k_i and t = max_i lambda_max(p_i rho_i - Gamma)^+,
    where lambda_max of a symmetric 2x2 m is
    (m_xx + m_yy)/2 + hypot((m_xx - m_yy)/2, m_xy).  The candidate of
    largest Tr Gamma wins; its n rows are built once."""
    candidates = [_pair(states, a, b) for a, b in combinations(range(len(states)), 2)]
    candidates += filter(None, (_triple(states, t) for t in combinations(range(len(states)), 3)))
    weighted = [(p * x * x, p * y * y, p * x * y) for p, x, y in states]  # p rho
    best, value, dual = None, -math.inf, math.inf
    hypot = math.hypot
    for effects in candidates:
        gxx = gxy = gyy = 0.0
        for i, exx, exy, eyy in effects:
            p, x, y = states[i]
            u, v = exx * x + exy * y, exy * x + eyy * y
            gxx, gxy, gyy = gxx + p * x * u, gxy + 0.5 * p * (x * v + y * u), gyy + p * y * v
        t = 0.0
        for rxx, ryy, rxy in weighted:
            mxx, myy = rxx - gxx, ryy - gyy
            top = 0.5 * (mxx + myy) + hypot(0.5 * (mxx - myy), rxy - gxy)
            if top > t:  # as max(t, top): a NaN top keeps t
                t = top
        bound = gxx + gyy + 2.0 * t
        if bound < dual:  # as min(dual, bound): a NaN bound keeps dual
            dual = bound
        if gxx + gyy > value:
            best, value = effects, gxx + gyy
    rows = [((0.0, 0.0), (0.0, 0.0))] * len(states)
    for i, exx, exy, eyy in best:
        rows[i] = ((exx, exy), (exy, eyy))
    return rows, len(candidates), value, dual


def _pair(states: Sequence[_State], a: int, b: int) -> list:
    """Helstrom effects (index, e_xx, e_xy, e_yy) for outcomes a and b."""
    (pa, xa, ya), (pb, xb, yb) = states[a], states[b]
    mxx, myy = pa * xa * xa - pb * xb * xb, pa * ya * ya - pb * yb * yb
    mxy, half = pa * xa * ya - pb * xb * yb, 0.5 * (mxx - myy)
    radius = math.hypot(half, mxy)
    if 0.5 * (mxx + myy) >= radius:
        return [(a, 1.0, 0.0, 1.0)]
    if 0.5 * (mxx + myy) <= -radius:
        return [(b, 1.0, 0.0, 1.0)]
    phi = 0.5 * math.atan2(mxy, half)  # the positive eigenvector's angle
    c, s = math.cos(phi), math.sin(phi)
    return [(a, c * c, c * s, s * s), (b, s * s, -c * s, c * c)]


def _triple(states: Sequence[_State], outcomes: tuple[int, int, int]) -> list | None:
    """Effects (index, e_xx, e_xy, e_yy) of the triple whose three dual
    constraints are all active, or None if it has no such measurement.

    Straight-line algebra on the three picked states: state k's others are
    k - 2 and k - 1, so (1, 2), (2, 0) and (0, 1), and every sum runs over
    k in order, as a loop would.  X's entries start at 0.0, so terms that
    are all -0.0 sum to 0.0; the completeness sums need not, as abs()
    drops the sign of a zero."""
    a, b, c = outcomes
    (p0, x0, y0), (p1, x1, y1), (p2, x2, y2) = states[a], states[b], states[c]
    if not (p0 > 0.0 and p1 > 0.0 and p2 > 0.0):
        return None
    d0 = (x1 * y0 - y1 * x0) * (x2 * y0 - y2 * x0)
    d1 = (x2 * y1 - y2 * x1) * (x0 * y1 - y0 * x1)
    d2 = (x0 * y2 - y0 * x2) * (x1 * y2 - y1 * x2)
    if d0 == 0.0 or d1 == 0.0 or d2 == 0.0:  # two kets on one ray, in floats
        return None
    # p * d may underflow to 0; an inf here fails a test below
    q0, q1, q2 = 1.0 / p0 / d0, 1.0 / p1 / d1, 1.0 / p2 / d2
    axx = 0.0 + q0 * y1 * y2 + q1 * y2 * y0 + q2 * y0 * y1  # X = Gamma^-1
    axy = (0.0 - 0.5 * q0 * (y1 * x2 + x1 * y2) - 0.5 * q1 * (y2 * x0 + x2 * y0)
           - 0.5 * q2 * (y0 * x1 + x0 * y1))
    ayy = 0.0 + q0 * x1 * x2 + q1 * x2 * x0 + q2 * x0 * x1
    det = axx * ayy - axy * axy
    if not (axx > 0.0 and det > 0.0):
        return None
    gxx, gxy, gyy = ayy / det, -axy / det, axx / det
    r0, s0 = gxy * x0 - gxx * y0, gyy * x0 - gxy * y0  # Gamma u_k
    r1, s1 = gxy * x1 - gxx * y1, gyy * x1 - gxy * y1
    r2, s2 = gxy * x2 - gxx * y2, gyy * x2 - gxy * y2
    w0, w1, w2 = (r1 * r2 + s1 * s2) / d0, (r2 * r0 + s2 * s0) / d1, (r0 * r1 + s0 * s1) / d2
    if not (w0 >= 0.0 and w1 >= 0.0 and w2 >= 0.0):
        return None
    u0, v0 = axx * x0 + axy * y0, axy * x0 + ayy * y0  # X k_k
    u1, v1 = axx * x1 + axy * y1, axy * x1 + ayy * y1
    u2, v2 = axx * x2 + axy * y2, axy * x2 + ayy * y2
    exx0, exy0, eyy0 = w0 * u0 * u0, w0 * u0 * v0, w0 * v0 * v0
    exx1, exy1, eyy1 = w1 * u1 * u1, w1 * u1 * v1, w1 * v1 * v1
    exx2, exy2, eyy2 = w2 * u2 * u2, w2 * u2 * v2, w2 * v2 * v2
    if not max(abs(exx0 + exx1 + exx2 - 1.0), abs(exy0 + exy1 + exy2),
               abs(eyy0 + eyy1 + eyy2 - 1.0)) <= COMPLETENESS_TOL:
        return None
    return [(a, exx0, exy0, eyy0), (b, exx1, exy1, eyy1), (c, exx2, exy2, eyy2)]


def optimize_three(
    ensemble: MirrorEnsemble,
    grid_n: int = 64,
    refine_iters: int = 200,
    seed: int = 0,
) -> OracleResult:
    """Maximize three-state success over all measurements, with a certificate.

    Runs `_active_set` and returns the `_verdict` of its scalar scoring,
    without numpy: its best POVM, that POVM's Tr Gamma, the smallest
    candidate bound and the number of candidates scored: the three pairs,
    plus the triple unless it has no measurement (theta = 0, or below
    ~1e-76, where its weights underflow; p in {0, 1/2}; or p above
    p*(theta), where E_3 = 0).  `grid_n` (>= 16) and `refine_iters` (>= 0)
    are validated and accepted only; `seed` is ignored.  There is no grid,
    no iteration and no random start, so every seed gives the same result.

    `MirrorEnsemble` is the one check of (theta, p): the states (p, c, s),
    (p, c, -s), (1 - 2p, 1, 0) with c, s = cos theta, sin theta are built
    from it directly, bit for bit the priors and kets of `ensemble.priors()`
    and `ensemble.states()`.
    """
    if not (grid_n >= 16 and refine_iters >= 0):
        raise ValueError(f"need grid_n >= 16, refine_iters >= 0, got {grid_n}, {refine_iters}")
    c, s, p = math.cos(ensemble.theta), math.sin(ensemble.theta), float(ensemble.prior_p)
    return _verdict(*_active_set([(p, c, s), (p, c, -s), (1.0 - 2.0 * p, 1.0, 0.0)]))
