"""Machine-checked proofs of the closed forms in `mesd.analytic`.

Each identity behind a closed form is reduced symbolically to zero (or to a
factored form whose sign is plain on its domain), and each symbolic
expression is also evaluated against the library function it proves, so a
drift on either side fails.  Write c = cos(theta) and s = sin(theta); an
expression is reduced modulo s^2 = 1 - c^2.
"""

import math

import numpy as np
import pytest
import sympy as sp

from mesd import (
    FiniteOnticModel,
    MirrorEnsemble,
    PriorDistribution,
    TwoStateScenario,
    helstrom_two,
    min_overlap,
    nc_two_bound,
    quantum_three,
    random_model,
    threshold_prior,
)

c, s, p, C = sp.symbols("c s p C", real=True)
P_STAR = 1 / (2 + c * (c + s))  # threshold_prior's closed form
HIGH = p * (1 + 2 * s * c)  # quantum_three's high-prior branch, p (1 + sin 2 theta)
D = 1 - 2 * p - p * c**2
LOW = (1 - 2 * p) * (p * s**2 + D) / D  # its low-prior branch
RHO_1 = sp.Matrix([[c * c, c * s], [c * s, s * s]])  # |psi_1><psi_1|, psi_1 = (c, s)
HIGH_DUAL = sp.diag(p * c * (c + s), p * s * (c + s))
LOW_DUAL = sp.diag(1 - 2 * p, p * s**2 * (1 - 2 * p) / D)

# (theta, p) points inside each branch, and the branch point itself
THETAS = (0.1, 0.4, math.pi / 4, 1.0, 1.4)
TOL = 1e-15


def vanishes(expr) -> bool:
    """`expr` is identically 0 once s^2 = 1 - c^2: the numerator of its
    reduced fraction leaves no remainder modulo s^2 + c^2 - 1 in s."""
    numerator = sp.fraction(sp.cancel(sp.together(expr)))[0]
    return sp.expand(sp.rem(sp.expand(numerator), s**2 + c**2 - 1, s)) == 0


def at(expr, theta: float, prior: float) -> float:
    """`expr` in floats at c = cos(theta), s = sin(theta), p = prior."""
    return float(expr.subs({c: math.cos(theta), s: math.sin(theta), p: prior}))


def low_prior_points():
    return [(t, f * threshold_prior(t)) for t in THETAS for f in (0.2, 0.6, 0.95)]


def high_prior_points():
    return [(t, threshold_prior(t) + f * (0.5 - threshold_prior(t)))
            for t in THETAS for f in (0.05, 0.5, 1.0)]


class TestHighPriorDual:
    def test_trace_is_the_high_branch(self):
        assert vanishes(HIGH_DUAL.trace() - HIGH)

    def test_slack_against_the_first_state_is_rank_one(self):
        # Gamma - p rho_1 = p c s [[1, -1], [-1, 1]]: PSD for c, s >= 0
        slack = HIGH_DUAL - p * RHO_1
        expected = p * c * s * sp.Matrix([[1, -1], [-1, 1]])
        assert all(vanishes(entry) for entry in slack - expected)

    def test_slack_against_the_third_state_changes_sign_at_the_threshold(self):
        # Gamma_00 - (1 - 2p) = p (2 + c^2 + c s) - 1, so it is >= 0 exactly
        # when p >= p*(theta), the high branch's domain
        assert vanishes(HIGH_DUAL[0, 0] - (1 - 2 * p) - (p / P_STAR - 1))

    @pytest.mark.parametrize("theta, prior", high_prior_points())
    def test_matches_quantum_three(self, theta, prior):
        ensemble = MirrorEnsemble(theta, prior)
        assert abs(at(HIGH, theta, prior) - quantum_three(ensemble)) <= TOL
        assert abs(at(HIGH_DUAL.trace(), theta, prior) - quantum_three(ensemble)) <= TOL


class TestLowPriorDual:
    def test_trace_is_the_low_branch(self):
        assert vanishes(LOW_DUAL.trace() - LOW)

    def test_slack_against_the_first_state_is_singular(self):
        assert vanishes((LOW_DUAL - p * RHO_1).det())

    def test_slack_against_the_first_state_has_a_nonnegative_diagonal(self):
        # its diagonal is (D, p^2 c^2 s^2 / D), both >= 0 where D > 0
        slack = LOW_DUAL - p * RHO_1
        assert vanishes(slack[0, 0] - D)
        assert vanishes(slack[1, 1] - p**2 * c**2 * s**2 / D)

    @pytest.mark.parametrize("theta, prior", low_prior_points())
    def test_matches_quantum_three(self, theta, prior):
        ensemble = MirrorEnsemble(theta, prior)
        assert at(D, theta, prior) > 0.0
        assert abs(at(LOW, theta, prior) - quantum_three(ensemble)) <= TOL


class TestThreshold:
    def test_branches_agree_at_the_threshold(self):
        assert vanishes((HIGH - LOW).subs(p, P_STAR))

    @pytest.mark.parametrize("theta", THETAS + (0.0, math.pi / 2))
    def test_matches_threshold_prior(self, theta):
        assert abs(at(P_STAR, theta, 0.0) - threshold_prior(theta)) <= TOL


class TestTwoStates:
    # for p <= 1/2 the cap is 1 - p C and Helstrom (1 + sqrt(R)) / 2 with
    # R = 1 - 4 p (1 - p) C; p > 1/2 is the same task with the states swapped
    R = 1 - 4 * p * (1 - p) * C

    def test_gap_factors(self):
        # R - (1 - 2pC)^2 = 4 C p^2 (1 - C) >= 0 and 1 - 2pC >= 0, so
        # sqrt(R) >= 1 - 2pC: Helstrom >= the cap, strictly for 0 < p, 0 < C < 1
        assert sp.expand(self.R - (1 - 2 * p * C) ** 2 - 4 * C * p**2 * (1 - C)) == 0

    def test_helstrom_radicand(self):
        # helstrom_two's cancellation-free radicand is the same polynomial
        assert sp.expand((1 - 2 * p) ** 2 + 4 * p * (1 - p) * (1 - C) - self.R) == 0

    @pytest.mark.parametrize("prior", [0.0, 0.1, 0.3, 0.5, 0.7, 0.95, 1.0])
    @pytest.mark.parametrize("overlap", [0.0, 0.2, 0.75, 1.0])
    def test_matches_the_library(self, prior, overlap):
        scenario = TwoStateScenario(prior, overlap)
        q = min(prior, 1.0 - prior)
        values = {p: q, C: overlap}
        helstrom = float(((1 + sp.sqrt(self.R)) / 2).subs(values))
        cap = float((1 - p * C).subs(values))
        assert abs(helstrom - helstrom_two(scenario)) <= TOL
        assert abs(cap - nc_two_bound(scenario)) <= TOL
        gap = float((4 * C * p**2 * (1 - C)).subs(values))
        assert abs(gap - (float(self.R.subs(values)) - (1 - 2 * q * overlap) ** 2)) <= TOL


class TestPairwiseOverlaps:
    def test_equality_reading_fails_below_45_degrees(self):
        # c13 + c23 - 1 - c12 = cos 2t (1 - cos 2t), with c13 = c23 = cos^2 t
        # and c12 = cos^2 2t: positive for 0 < t < pi/4, so no model has
        # overlaps equal to all three confusabilities there
        cos_2t = 2 * c**2 - 1
        assert sp.expand(2 * c**2 - 1 - cos_2t**2 - cos_2t * (1 - cos_2t)) == 0

    @pytest.mark.parametrize("theta", THETAS)
    def test_identity_matches_the_ensemble(self, theta):
        ensemble = MirrorEnsemble(theta, 0.3)
        c12, c13 = ensemble.pair_confusability, ensemble.center_confusability
        cos_2t = math.cos(2.0 * theta)
        assert abs((2 * c13 - 1 - c12) - cos_2t * (1 - cos_2t)) <= TOL

    def test_triangle_inequality_on_random_models(self):
        # overlap = 1 - total variation, so w12 >= w13 + w23 - 1 on any space
        rng = np.random.default_rng(13)
        for _ in range(300):
            model = random_model(3, int(rng.integers(1, 12)), rng)
            w12, w13, w23 = (min_overlap(model, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
            assert w12 >= w13 + w23 - 1.0 - 1e-15

    def test_triangle_inequality_is_tight(self):
        # mu_1 and mu_2 share no point, and mu_3 splits its mass between them
        model = FiniteOnticModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                                 PriorDistribution((0.25, 0.25, 0.5)))
        w12, w13, w23 = (min_overlap(model, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
        assert w12 == w13 + w23 - 1.0 == 0.0
