import numpy as np
import pytest

from mesd.ontic import (
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
from mesd.qcore import PriorDistribution


def model(rows, priors) -> FiniteOnticModel:
    return FiniteOnticModel(
        distributions=np.array(rows, dtype=float),
        priors=PriorDistribution(tuple(priors)),
    )


class TestModelValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            model([[1.1, -0.1]], [1.0])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            model([[0.5, 0.4]], [1.0])

    def test_rejects_prior_mismatch(self):
        with pytest.raises(ValueError):
            model([[0.5, 0.5]], [0.5, 0.5])

    def test_shape_properties(self):
        m = model([[0.25, 0.75], [0.5, 0.5]], [0.4, 0.6])
        assert m.num_preparations == 2
        assert m.num_lambdas == 2


class TestResponseFunction:
    def test_columns_must_normalize(self):
        with pytest.raises(ValueError):
            ResponseFunction(np.array([[0.5, 0.2], [0.4, 0.8]]))

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            ResponseFunction(np.array([[1.5, 0.0], [-0.5, 1.0]]))


class TestOperationalProbability:
    def test_affirmative_on_full_support(self):
        m = model([[0.25, 0.75]], [1.0])
        xi = ResponseFunction(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert operational_probability(m, 0, xi, 0) == pytest.approx(1.0, abs=1e-15)

    def test_coin_flip(self):
        m = model([[0.25, 0.75]], [1.0])
        xi = ResponseFunction(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert operational_probability(m, 0, xi, 0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_dot_product(self):
        m = model([[0.25, 0.75]], [1.0])
        xi = ResponseFunction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert operational_probability(m, 0, xi, 0) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        m = model([[0.25, 0.75]], [1.0])
        xi = ResponseFunction(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(ValueError):
            operational_probability(m, 0, xi, 0)

    def test_index_errors(self):
        m = model([[0.25, 0.75]], [1.0])
        xi = ResponseFunction(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            operational_probability(m, 3, xi, 0)
        with pytest.raises(ValueError):
            operational_probability(m, 0, xi, 5)


class TestOnticSuccess:
    def test_disjoint_supports_identify_preparation(self):
        m = model([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
        assert ontic_success(m) == pytest.approx(1.0, abs=1e-15)

    def test_identical_rows_carry_no_information(self):
        m = model([[0.5, 0.5]] * 3, [0.2, 0.3, 0.5])
        assert ontic_success(m) == pytest.approx(0.5, abs=1e-15)

    def test_hand_computation(self):
        m = model([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        assert ontic_success(m) == pytest.approx(0.75, abs=1e-15)

    def test_needs_two_preparations(self):
        with pytest.raises(ValueError):
            ontic_success(model([[1.0, 0.0]], [1.0]))


class TestMinOverlap:
    def test_disjoint(self):
        m = model([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert min_overlap(m, 0, 1) == 0.0

    def test_identical(self):
        m = model([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
        assert min_overlap(m, 0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_hand_computation(self):
        m = model([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        assert min_overlap(m, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_on_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_model(3, int(rng.integers(2, 17)), rng)
            assert min_overlap(m, 0, 1) == pytest.approx(min_overlap(m, 1, 0), abs=1e-15)
            assert min_overlap(m, 1, 2) == pytest.approx(min_overlap(m, 2, 1), abs=1e-15)

    def test_index_validation(self):
        m = model([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ValueError):
            min_overlap(m, 0, 0)
        with pytest.raises(ValueError):
            min_overlap(m, 0, 5)


class TestTwoStateBound:
    def test_equality_case(self):
        report = check_two_state_bound(model([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5]))
        assert report.success == pytest.approx(0.75, abs=1e-15)
        assert report.bound == pytest.approx(0.75, abs=1e-15)
        assert report.passed

    def test_disjoint_supports(self):
        report = check_two_state_bound(model([[1.0, 0.0], [0.0, 1.0]], [0.2, 0.8]))
        assert report.success == pytest.approx(1.0, abs=1e-15)
        assert report.bound == pytest.approx(1.0, abs=1e-15)
        assert report.passed

    def test_random_models_always_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m = random_model(2, int(rng.integers(2, 33)), rng)
            assert check_two_state_bound(m).passed

    def test_wrong_preparation_count(self):
        with pytest.raises(ValueError):
            check_two_state_bound(model([[1.0, 0.0]] * 3, [0.2, 0.3, 0.5]))


class TestThreeStateBound:
    def test_disjoint_supports(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        report = check_three_state_bound(model(rows, [0.2, 0.2, 0.6]))
        assert report.success == pytest.approx(1.0, abs=1e-15)
        assert report.passed

    def test_identical_rows_equality(self):
        rows = [[0.5, 0.5]] * 3
        report = check_three_state_bound(model(rows, [1 / 3, 1 / 3, 1 / 3]))
        assert report.success == pytest.approx(1 / 3, abs=1e-15)
        assert report.bound == pytest.approx(1 / 3, abs=1e-12)
        assert report.passed

    def test_random_models_always_pass(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            m = random_model(3, int(rng.integers(2, 33)), rng)
            report = check_three_state_bound(m)
            assert report.passed
            assert report.decomposition_passed

    def test_decomposition_identity_tight(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(500):
            m = random_model(3, int(rng.integers(2, 33)), rng)
            worst = max(worst, check_three_state_bound(m).decomposition_error)
        assert worst < 1e-12

    def test_mirror_style_priors(self):
        rng = np.random.default_rng(14)
        for p in (0.0, 0.1, 1 / 3, 0.5):
            mu = rng.random((3, 8)) + 1e-9
            mu /= mu.sum(axis=1, keepdims=True)
            m = FiniteOnticModel(
                distributions=mu,
                priors=PriorDistribution((p, p, 1.0 - 2.0 * p)),
            )
            assert check_three_state_bound(m).passed

    def test_wrong_preparation_count(self):
        with pytest.raises(ValueError):
            check_three_state_bound(model([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]))


class TestBayesianInversion:
    def test_posterior_route_matches_joint_route(self):
        # success computed from posteriors p(i|l) must equal the weighted
        # joint form, because p(l) p(i|l) = p_i mu_i(l)
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = random_model(3, int(rng.integers(2, 17)), rng)
            w = m.weighted_joints()
            p_lambda = w.sum(axis=0)
            mask = p_lambda > 0.0
            posterior_route = float(
                (p_lambda[mask] * (w[:, mask] / p_lambda[mask]).max(axis=0)).sum()
            )
            assert abs(posterior_route - ontic_success(m)) < 1e-12


class TestMixingConstraint:
    def test_identical_pairs(self):
        mu = np.array([0.3, 0.7])
        assert check_mixing_constraint(mu, 1.0 - mu, mu, 1.0 - mu)

    def test_disjoint_mixtures_differ(self):
        assert not check_mixing_constraint(
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 1.0]),
        )

    def test_both_mixtures_uniform(self):
        assert check_mixing_constraint(
            np.array([0.5, 0.5, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.5, 0.5]),
            np.array([0.5, 0.0, 0.5, 0.0]),
            np.array([0.0, 0.5, 0.0, 0.5]),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_mixing_constraint(
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
                np.array([0.5, 0.25, 0.25]),
                np.array([0.25, 0.5, 0.25]),
            )

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            check_mixing_constraint(
                np.array([0.7, 0.7]),
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
            )


class TestOrthogonalSupportRule:
    def test_common_support_forces_equality(self):
        # Build two preparation pairs with disjoint in-pair supports mixing
        # to the same average; wherever the first members overlap they must
        # agree entrywise.
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            blocks = [rng.random(k) + 1e-9 for _ in range(4)]
            blocks = [0.25 * b / b.sum() for b in blocks]  # each block mass 1/4
            a, b, c, d = blocks
            zeros = np.zeros(k)
            mu1 = 2.0 * np.concatenate([a, b, zeros, zeros])
            mu1bar = 2.0 * np.concatenate([zeros, zeros, c, d])
            mu2 = 2.0 * np.concatenate([a, zeros, c, zeros])
            mu2bar = 2.0 * np.concatenate([zeros, b, zeros, d])
            assert check_mixing_constraint(mu1, mu1bar, mu2, mu2bar, tol=1e-9)
            assert np.max(np.abs(mu1 * mu1bar)) == 0.0
            assert np.max(np.abs(mu2 * mu2bar)) == 0.0
            common = (mu1 > 0) & (mu2 > 0)
            assert np.allclose(mu1[common], mu2[common], atol=1e-9)


class TestRandomModel:
    def test_rows_and_priors_normalized(self):
        rng = np.random.default_rng(41)
        m = random_model(3, 16, rng)
        assert np.allclose(m.distributions.sum(axis=1), 1.0, atol=1e-12)
        assert abs(sum(m.priors.probabilities) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: model([[np.nan, 1.0], [0.5, 0.5]], [0.5, 0.5]),
        lambda: ResponseFunction(np.array([[np.nan, 0.5], [1.0, 0.5]])),
        lambda: check_mixing_constraint(
            np.array([np.nan, 1.0]), np.array([0.5, 0.5]),
            np.array([0.5, 0.5]), np.array([0.5, 0.5]),
        ),
    ],
    ids=["model", "response", "distribution-row"],
)
def test_nan_rejected(build):
    with pytest.raises(ValueError):
        build()
