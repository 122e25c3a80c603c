import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesd.analytic import (
    ADVANTAGE_TOL,
    BoundPair,
    MirrorEnsemble,
    TwoStateScenario,
    advantage_three,
    advantage_three_row,
    advantage_two,
    helstrom_two,
    nc_three_bound,
    nc_two_bound,
    quantum_three,
    quantum_three_branch,
    threshold_prior,
)
from mesd.qcore import confusability
from test_oracle import reference_three

# Expected optima frozen from the brute-force measurement search (see
# test_oracle / test_acceptance for the grid-level agreement checks).
HELSTROM_HALF_HALF = 0.8535533905932737
HELSTROM_P01_C05 = 0.9527692569068709
THRESHOLD_PI_THIRD = 0.372715343201596
Q3_PI_THIRD_HALF = 0.9330127018922194
Q3_PI_THIRD_P01 = 0.8774193548387097

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
THETAS = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
PRIORS3 = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
# Two units in the last place of 1: how far a double-precision evaluation
# may sit from the 50-digit value of the same formula.
REFERENCE_TOL = 2 * 2.0**-52


def reference_nc_three(theta: float, p: float) -> float:
    """nc_three_bound's closed form, evaluated independently at 50 digits."""
    with mpmath.workdps(50):
        t, q = mpmath.mpf(theta), mpmath.mpf(p)
        c12, c13 = mpmath.cos(2 * t) ** 2, mpmath.cos(t) ** 2
        if q <= mpmath.mpf(1) / 3:
            return float(1 - q * c12 - q * c13)
        return float(1 - q * c12 - (1 - 2 * q) * c13)


def float_neighbourhood(centre: float, steps: int) -> list[float]:
    """centre and the `steps` adjacent doubles on each side of it."""
    points, lo, hi = [centre], centre, centre
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        points += [lo, hi]
    return points


class TestHelstromTwo:
    def test_orthogonal_states(self):
        assert helstrom_two(TwoStateScenario(0.5, 0.0)) == 1.0

    def test_equal_priors_half_overlap(self):
        assert helstrom_two(TwoStateScenario(0.5, 0.5)) == pytest.approx(
            HELSTROM_HALF_HALF, abs=1e-12
        )

    def test_skewed_priors(self):
        assert helstrom_two(TwoStateScenario(0.1, 0.5)) == pytest.approx(
            HELSTROM_P01_C05, abs=1e-12
        )

    @given(UNIT, UNIT)
    def test_in_unit_interval(self, p, c):
        assert 0.0 <= helstrom_two(TwoStateScenario(p, c)) <= 1.0

    @given(st.floats(min_value=0.01, max_value=0.99), UNIT, UNIT)
    def test_nonincreasing_in_confusability(self, p, c1, c2):
        lo, hi = min(c1, c2), max(c1, c2)
        assert helstrom_two(TwoStateScenario(p, lo)) >= helstrom_two(
            TwoStateScenario(p, hi)
        ) - 1e-12

    @pytest.mark.parametrize("p", [0.49999999381707144, 0.5 - 1e-12, 0.5 + 3e-9])
    def test_identical_states_near_equal_priors(self, p):
        # the radicand 1 - 4p(1-p)c cancels here; (1-2p)^2 + 4p(1-p)(1-c) does not
        assert abs(helstrom_two(TwoStateScenario(p, 1.0)) - max(p, 1.0 - p)) <= 1e-16

    @given(UNIT, UNIT)
    def test_prior_swap_symmetry(self, p, c):
        a = helstrom_two(TwoStateScenario(p, c))
        b = helstrom_two(TwoStateScenario(1.0 - p, c))
        assert a == pytest.approx(b, abs=1e-12)


class TestNcTwoBound:
    def test_equal_priors(self):
        assert nc_two_bound(TwoStateScenario(0.5, 0.6)) == pytest.approx(0.7, abs=1e-15)

    def test_low_prior(self):
        assert nc_two_bound(TwoStateScenario(0.1, 0.5)) == pytest.approx(0.95, abs=1e-15)

    def test_high_prior_mirror(self):
        assert nc_two_bound(TwoStateScenario(0.9, 0.5)) == pytest.approx(0.95, abs=1e-15)

    @given(UNIT, UNIT)
    def test_nonincreasing_in_confusability_and_in_range(self, p, c):
        value = nc_two_bound(TwoStateScenario(p, c))
        assert 0.0 <= value <= 1.0
        if c < 1.0:
            assert nc_two_bound(TwoStateScenario(p, min(1.0, c + 0.01))) <= value + 1e-12


class TestThresholdPrior:
    def test_theta_zero(self):
        assert threshold_prior(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_theta_quarter_pi(self):
        # cos(pi/4) * (cos + sin)(pi/4) = 1
        assert threshold_prior(math.pi / 4) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_theta_third_pi(self):
        assert threshold_prior(math.pi / 3) == pytest.approx(
            THRESHOLD_PI_THIRD, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [-0.1, math.pi / 2 + 0.01])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            threshold_prior(bad)

    @given(THETAS)
    def test_range(self, theta):
        assert 1.0 / (2.0 + 1.2072) <= threshold_prior(theta) <= 0.5


class TestQuantumThree:
    def test_trine_third_prior(self):
        assert quantum_three(MirrorEnsemble(math.pi / 3, 1 / 3)) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_orthogonal_pair_no_third(self):
        assert quantum_three(MirrorEnsemble(math.pi / 4, 0.5)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_trine_equal_pair_priors(self):
        assert quantum_three(MirrorEnsemble(math.pi / 3, 0.5)) == pytest.approx(
            Q3_PI_THIRD_HALF, abs=1e-12
        )

    def test_low_prior_branch_value(self):
        assert quantum_three(MirrorEnsemble(math.pi / 3, 0.1)) == pytest.approx(
            Q3_PI_THIRD_P01, abs=1e-12
        )

    def test_branch_labels(self):
        assert quantum_three_branch(MirrorEnsemble(math.pi / 3, 0.5)) == "high-prior"
        assert quantum_three_branch(MirrorEnsemble(math.pi / 3, 0.1)) == "low-prior"
        p_star = threshold_prior(math.pi / 3)
        assert quantum_three_branch(MirrorEnsemble(math.pi / 3, p_star)) == "high-prior"

    def test_branch_continuity_at_threshold(self):
        # both branch formulas reduce to p (cos t + sin t)^2 at p = p*(t)
        for k in range(1, 16):
            t = 0.1 * k
            p = threshold_prior(t)
            high = p * (1.0 + math.sin(2.0 * t))
            denom = 1.0 - 2.0 * p - p * math.cos(t) ** 2
            low = (1.0 - 2.0 * p) * (p * math.sin(t) ** 2 + denom) / denom
            assert abs(high - low) < 1e-6
            assert quantum_three(MirrorEnsemble(t, p)) == pytest.approx(high, abs=1e-12)

    def test_degenerate_denominator_value(self):
        # theta = 0 collapses the triple; just below p = 1/3 the low-prior
        # denominator 1 - 3p is tiny but positive
        assert quantum_three(MirrorEnsemble(0.0, 1 / 3 - 1e-13)) == pytest.approx(
            reference_three(0.0, 1 / 3 - 1e-13), abs=REFERENCE_TOL
        )

    @given(THETAS, PRIORS3)
    def test_in_unit_interval(self, theta, p):
        value = quantum_three(MirrorEnsemble(theta, p))
        assert 0.0 <= value <= 1.0


class TestNcThreeBound:
    def test_trine_third_prior(self):
        assert nc_three_bound(MirrorEnsemble(math.pi / 3, 1 / 3)) == pytest.approx(
            5 / 6, abs=1e-12
        )

    def test_reduces_to_two_state_bound_at_half(self):
        for k in range(0, 16):
            t = 0.1 * k
            c12 = math.cos(2 * t) ** 2
            assert nc_three_bound(MirrorEnsemble(t, 0.5)) == pytest.approx(
                1.0 - 0.5 * c12, abs=1e-15
            )
            assert nc_three_bound(MirrorEnsemble(t, 0.5)) == pytest.approx(
                nc_two_bound(TwoStateScenario(0.5, c12)), abs=1e-15
            )

    def test_quarter_pi(self):
        assert nc_three_bound(MirrorEnsemble(math.pi / 4, 0.2)) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_branch_agreement_at_one_third(self):
        for k in range(0, 16):
            t = 0.1 * k
            p = 1 / 3
            c12 = math.cos(2 * t) ** 2
            c13 = math.cos(t) ** 2
            low = 1.0 - p * c12 - p * c13
            high = 1.0 - p * c12 - (1.0 - 2.0 * p) * c13
            assert abs(low - high) < 1e-15
            assert nc_three_bound(MirrorEnsemble(t, p)) == pytest.approx(low, abs=1e-15)

    def test_confusabilities_match_state_overlaps(self):
        for t in (0.2, 0.7, 1.2):
            e = MirrorEnsemble(t, 0.3)
            s1, s2, s3 = e.states()
            assert e.pair_confusability == pytest.approx(confusability(s1, s2), abs=1e-12)
            assert e.center_confusability == pytest.approx(confusability(s1, s3), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-8, 1e-3, 0.3, math.pi / 4, 1.2,
                                   math.pi / 2 - 1e-9, math.pi / 2])
def test_piecewise_forms_match_reference_at_their_breaks(theta):
    # 100 doubles on each side of the quantum break p*(theta) and of the
    # noncontextual break p = 1/3, within the domain p <= 1/2
    for centre in (threshold_prior(theta), 1 / 3):
        for p in (p for p in float_neighbourhood(centre, 100) if p <= 0.5):
            ensemble = MirrorEnsemble(theta, p)
            assert quantum_three(ensemble) == pytest.approx(
                reference_three(theta, p), abs=REFERENCE_TOL)
            assert nc_three_bound(ensemble) == pytest.approx(
                reference_nc_three(theta, p), abs=REFERENCE_TOL)


class TestAdvantageTwo:
    def test_equal_priors(self):
        pair = advantage_two(TwoStateScenario(0.5, 0.5))
        assert pair.gap == pytest.approx(HELSTROM_HALF_HALF - 0.75, abs=1e-12)
        assert pair.advantage

    def test_skewed_priors(self):
        pair = advantage_two(TwoStateScenario(0.1, 0.5))
        assert pair.gap == pytest.approx(0.0027692569068709094, abs=1e-12)
        assert pair.advantage

    def test_identical_states(self):
        pair = advantage_two(TwoStateScenario(0.5, 1.0))
        assert pair.quantum == pytest.approx(0.5, abs=1e-12)
        assert pair.noncontextual == pytest.approx(0.5, abs=1e-12)
        assert not pair.advantage

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_strictly_positive_in_interior(self, p, c):
        assert advantage_two(TwoStateScenario(p, c)).gap > 0.0


class TestAdvantageThree:
    def test_gap_positive_at_half(self):
        pair = advantage_three(MirrorEnsemble(math.pi / 3, 0.5))
        assert pair.gap == pytest.approx(0.0580127018922194, abs=1e-12)
        assert pair.advantage

    def test_gap_negative_at_p04(self):
        pair = advantage_three(MirrorEnsemble(math.pi / 3, 0.4))
        assert pair.gap == pytest.approx(-0.1035898384862245, abs=1e-12)
        assert not pair.advantage

    def test_gap_negative_at_third(self):
        pair = advantage_three(MirrorEnsemble(math.pi / 3, 1 / 3))
        assert pair.gap == pytest.approx(-1 / 6, abs=1e-12)
        assert not pair.advantage


def branch_points(theta: float) -> list[float]:
    """0, 1/2, p*(theta) and 1/3 with their adjacent doubles, inside [0, 1/2]."""
    points = [0.0, 0.5]
    for centre in (threshold_prior(theta), 1.0 / 3.0):
        points += [math.nextafter(centre, 0.0), centre, math.nextafter(centre, 1.0)]
    return [p for p in points if p <= 0.5]


class TestAdvantageThreeRow:
    @given(
        theta=st.one_of(st.sampled_from([0.0, math.pi / 2]), THETAS),
        drawn=st.lists(PRIORS3, max_size=12),
        data=st.data(),
    )
    def test_bit_identical_to_the_scalar_path(self, theta, drawn, data):
        priors = data.draw(st.permutations(drawn + branch_points(theta)))
        row = advantage_three_row(theta, np.array(priors))
        pairs = [advantage_three(MirrorEnsemble(theta, p)) for p in priors]
        for got, field in zip(row, ("quantum", "noncontextual", "gap")):
            expected = np.array([getattr(pair, field) for pair in pairs])
            assert got.tobytes() == expected.tobytes(), field
        assert (row[2] > ADVANTAGE_TOL).tolist() == [pair.advantage for pair in pairs]

    @pytest.mark.parametrize("theta,priors", [
        (math.nan, [0.2]),
        (0.3, [0.1, math.nan]),
        (0.3, [0.2, math.nextafter(0.5, 1.0)]),
        (0.3, [-0.1]),
        (math.pi / 2 + 0.1, [0.2]),
    ])
    def test_domain_is_the_scalar_domain(self, theta, priors):
        with pytest.raises(ValueError, match="must lie in"):
            advantage_three_row(theta, np.array(priors))


class TestValidation:
    def test_scenario_out_of_range(self):
        with pytest.raises(ValueError):
            TwoStateScenario(1.5, 0.2)
        with pytest.raises(ValueError):
            TwoStateScenario(0.5, -0.2)

    def test_ensemble_out_of_range(self):
        with pytest.raises(ValueError):
            MirrorEnsemble(-0.1, 0.3)
        with pytest.raises(ValueError):
            MirrorEnsemble(math.pi / 2 + 0.1, 0.3)
        with pytest.raises(ValueError):
            MirrorEnsemble(0.5, 0.6)

    def test_bound_pair_gap_consistency(self):
        with pytest.raises(ValueError):
            BoundPair(quantum=0.9, noncontextual=0.8, gap=0.2)

    @pytest.mark.parametrize("theta", [1e-9, 0.3, 1.2, math.pi / 2])
    def test_mirror_states_are_exact_mirrors(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        first, second, _ = MirrorEnsemble(theta, 0.3).states()
        assert tuple(first.ket) == (c, s)
        assert tuple(second.ket) == (c, -s)

    def test_ensemble_priors(self):
        priors = MirrorEnsemble(0.8, 0.3).priors()
        assert priors.probabilities == pytest.approx((0.3, 0.3, 0.4), abs=1e-15)
