import numpy as np
import pytest

from mesd import ontic
from mesd.cli import main
from mesd.ontic import (
    FiniteOnticModel,
    check_models,
    check_random_models,
    check_three_state_bound,
    check_two_state_bound,
    min_overlap,
    ontic_success,
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

    def test_rejects_one_dimensional_distributions(self):
        with pytest.raises(ValueError, match="2-D"):
            FiniteOnticModel(np.array([0.5, 0.5]), PriorDistribution((1.0,)))

    def test_rejects_complex_distributions(self):
        # a float cast would drop the imaginary parts with only a ComplexWarning
        with pytest.raises(ValueError, match="distributions must be real"):
            FiniteOnticModel(np.array([[1 + 1j, 0], [0, 1]]), PriorDistribution((0.5, 0.5)))
        with pytest.raises(ValueError, match="distributions must be real"):
            FiniteOnticModel([[1.0, 0j], [0.0, 1.0]], PriorDistribution((0.5, 0.5)))

    def test_shape_properties(self):
        m = model([[0.25, 0.75], [0.5, 0.5]], [0.4, 0.6])
        assert m.num_preparations == 2


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

    @pytest.mark.parametrize(
        "j", [True, False, np.bool_(True), 1.5, 1.0, np.float64(1.0), None, "1"], ids=repr
    )
    def test_rejects_non_integer_indices(self, j):
        # numpy would read a bool as a mask and a float as a bad index
        m = model([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValueError, match="preparation index must be an integer"):
            min_overlap(m, 0, j)
        with pytest.raises(ValueError, match="preparation index must be an integer"):
            min_overlap(m, j, 0)

    def test_numpy_integer_indices(self):
        m = model([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        assert min_overlap(m, np.int64(0), np.int32(1)) == min_overlap(m, 0, 1) == 0.5


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


class TestRandomModel:
    def test_rows_and_priors_normalized(self):
        rng = np.random.default_rng(41)
        m = random_model(3, 16, rng)
        assert np.allclose(m.distributions.sum(axis=1), 1.0, atol=1e-12)
        assert abs(sum(m.priors.probabilities) - 1.0) < 1e-12

    def test_draws_and_normalization_unchanged(self):
        # the rows, then the priors, each shifted off zero and normalized;
        # the priors twice, so they sum to 1 within the prior tolerance
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        for size in range(2, 33):
            for k in (2, 3):
                mu = ref_rng.random((k, size)) + 1e-12
                mu /= mu.sum(axis=1, keepdims=True)
                priors = ref_rng.random(k) + 1e-12
                priors /= priors.sum()
                expected = model(mu, priors / priors.sum())
                assert random_model(k, size, rng) == expected

    @pytest.mark.parametrize(
        "sizes", [(3, 2.5), (3, True), (True, 3), (np.bool_(True), 3), (3, 4.0), (3, None),
                  (0, 3), (3, 0), (3, -1)], ids=repr
    )
    def test_rejects_bad_sizes(self, sizes):
        # numpy would raise TypeError, or read a bool as 1
        with pytest.raises(ValueError, match="model sizes must be integers >= 1"):
            random_model(*sizes, np.random.default_rng(0))

    def test_numpy_integer_sizes(self):
        expected = random_model(3, 4, np.random.default_rng(5))
        assert random_model(np.int64(3), np.int32(4), np.random.default_rng(5)) == expected


class TestCheckRandomModels:
    @staticmethod
    def key(m: FiniteOnticModel) -> tuple:
        return (m.distributions.shape, m.distributions.tobytes(),
                np.array(m.priors.probabilities).tobytes())

    @pytest.mark.parametrize("n, seed", [(1, 1), (np.int64(3), 7), (2487, 1)], ids=str)
    def test_checks_random_models_bit_for_bit(self, monkeypatch, n, seed):
        # each pair draws L, then random_model(2, L) and random_model(3, L)
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(n):
            size = int(rng.integers(2, 33))
            expected += [random_model(2, size, rng), random_model(3, size, rng)]
        real, checked = ontic.check_models, []

        def recording(distributions, priors):
            checked.extend(map(model, distributions, priors))
            return real(distributions, priors)

        monkeypatch.setattr(ontic, "check_models", recording)
        groups = list(check_random_models(np.random.default_rng(seed), n))
        assert sorted(map(self.key, checked)) == sorted(map(self.key, expected))
        for checks in zip(*groups):
            assert sum(len(c.passed) for c in checks) == n
            assert all(c.passed.all() for c in checks)

    @pytest.mark.parametrize("n", [0, -1, True, np.bool_(True), 2.0, 2.5, "3", None],
                             ids=repr)
    def test_rejects_a_bad_count_on_the_call(self, n):
        # raised by the call itself, before anything is drawn or iterated
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="model count must be an integer >= 1"):
            check_random_models(rng, n)
        assert rng.random() == np.random.default_rng(0).random()


def reference_two(m: FiniteOnticModel) -> tuple:
    """The one-model two-state check written out with scalar arithmetic."""
    w = np.asarray(m.priors.probabilities)[:, None] * m.distributions
    success = float(w.max(axis=0).sum())
    overlap = float(np.minimum(m.distributions[0], m.distributions[1]).sum())
    p1, p2 = m.priors.probabilities
    bound = 1.0 - min(p1, p2) * overlap
    return success, overlap, bound, success <= bound + 1e-12


def reference_three(m: FiniteOnticModel) -> tuple:
    """The one-model three-state check written out with scalar arithmetic."""
    mu = m.distributions
    w = np.asarray(m.priors.probabilities)[:, None] * mu
    success = float(w.max(axis=0).sum())
    overlap_12 = float(np.minimum(mu[0], mu[1]).sum())
    overlap_13 = float(np.minimum(mu[0], mu[2]).sum())
    p1, p2, p3 = m.priors.probabilities
    bound = 1.0 - min(p1, p2) * overlap_12 - min(p1, p3) * overlap_13
    pairwise = (np.minimum(w[0], w[1]).sum() + np.minimum(w[0], w[2]).sum()
                + np.minimum(w[1], w[2]).sum())
    triple = np.minimum(np.minimum(w[0], w[1]), w[2]).sum()
    error = abs(success - (1.0 - float(pairwise) + float(triple)))
    return (success, overlap_12, overlap_13, bound, success <= bound + 1e-12,
            error, error <= 1e-12)


def stacked(models: list[FiniteOnticModel]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([m.distributions for m in models]),
            np.array([m.priors.probabilities for m in models]))


class TestCheckModels:
    def test_two_state_batch_equals_one_model_checks(self):
        rng = np.random.default_rng(51)
        for size in range(2, 33):
            models = [random_model(2, size, rng) for _ in range(5)]
            checks = check_models(*stacked(models))
            assert checks.decomposition_error is None
            for n, m in enumerate(models):
                r = check_two_state_bound(m)
                batch = (checks.success[n], checks.overlaps[n, 0], checks.bound[n],
                         checks.passed[n])
                assert batch == (r.success, r.overlap, r.bound, r.passed) == reference_two(m)

    def test_three_state_batch_equals_one_model_checks(self):
        rng = np.random.default_rng(52)
        for size in range(2, 33):
            models = [random_model(3, size, rng) for _ in range(5)]
            checks = check_models(*stacked(models))
            for n, m in enumerate(models):
                r = check_three_state_bound(m)
                batch = (checks.success[n], checks.overlaps[n, 0], checks.overlaps[n, 1],
                         checks.bound[n], checks.passed[n], checks.decomposition_error[n],
                         checks.decomposition_passed[n])
                one = (r.success, r.overlap_12, r.overlap_13, r.bound, r.passed,
                       r.decomposition_error, r.decomposition_passed)
                assert batch == one == reference_three(m)

    def test_hand_built_models(self):
        mu = np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
        checks = check_models(mu, np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert checks.success.tolist() == [0.75, 1.0]
        assert checks.overlaps.tolist() == [[0.5], [0.0]]
        assert checks.bound.tolist() == [0.75, 1.0]
        assert checks.passed.tolist() == [True, True]

    @pytest.mark.parametrize(
        "rows, priors",
        [
            ([[1.1, -0.1], [0.5, 0.5]], [0.4, 0.6]),
            ([[0.5, 0.4], [0.5, 0.5]], [0.4, 0.6]),
            ([[0.25, 0.75], [0.5, 0.5]], [0.4, 0.5]),
            ([[0.25, 0.75], [0.5, 0.5]], [-0.1, 1.1]),
            ([[np.nan, 1.0], [0.5, 0.5]], [0.5, 0.5]),
        ],
        ids=["negative-entry", "row-sum", "prior-sum", "prior-range", "nan"],
    )
    def test_invalid_model_raises_the_model_message(self, rows, priors):
        with pytest.raises(ValueError) as one:
            model(rows, priors)
        good_rows, good_priors = [[0.25, 0.75], [0.5, 0.5]], [0.4, 0.6]
        with pytest.raises(ValueError) as batch:
            check_models(np.array([good_rows, rows, good_rows]),
                         np.array([good_priors, priors, good_priors]))
        assert str(batch.value) == str(one.value)

    def test_prior_count_mismatch_raises_the_model_message(self):
        rows, priors = [[0.25, 0.75], [0.5, 0.5]], [0.2, 0.3, 0.5]
        with pytest.raises(ValueError) as one:
            model(rows, priors)
        with pytest.raises(ValueError) as batch:
            check_models(np.array([rows, rows]), np.array([priors, priors]))
        assert str(batch.value) == str(one.value) == "one prior per preparation required"

    @pytest.mark.parametrize("k", [1, 4])
    def test_preparation_count_outside_two_or_three(self, k):
        with pytest.raises(ValueError, match=f"need 2 or 3 preparations, got {k}"):
            check_models(np.full((2, k, 3), 1.0 / 3.0), np.full((2, k), 1.0 / k))

    @pytest.mark.parametrize(
        "distributions, priors, name",
        [
            (np.ones((1, 2, 1)) * (1 + 1j), np.array([[0.5, 0.5]]), "distributions"),
            (np.ones((1, 2, 1)), np.array([[0.5, 0.5]], dtype=complex), "priors"),
            (np.full((1, 2, 2), 0.5, dtype=np.complex64), [[0.5, 0.5]], "distributions"),
            (np.array([[[1, 0], [0, 1]]], dtype="timedelta64[s]"), np.array([[0.5, 0.5]]),
             "distributions"),
            (np.eye(2)[None], np.array([[0, 0]], dtype="timedelta64[s]"), "priors"),
            (np.eye(2)[None], np.array([["2020-01-01", "2020-01-01"]], dtype="datetime64[D]"),
             "priors"),
        ],
        ids=["distributions", "zero-imaginary-priors", "complex64", "timedelta64",
             "timedelta64-priors", "datetime64-priors"],
    )
    def test_rejects_complex_input(self, distributions, priors, name):
        # a float cast would drop the imaginary parts with only a ComplexWarning,
        # or read a timedelta or datetime as a count of its units
        with pytest.raises(ValueError, match=f"{name} must be real"):
            check_models(distributions, priors)

    @pytest.mark.parametrize(
        "distributions, priors, name",
        [
            (np.array([[[1 + 1j], [1]]], dtype=object), np.array([[0.5, 0.5]]), "distributions"),
            (np.ones((1, 2, 1)), np.array([[0.5, np.complex128(0.5)]], dtype=object), "priors"),
        ],
        ids=["python-complex", "numpy-complex"],
    )
    def test_rejects_complex_entries_of_object_arrays(self, distributions, priors, name):
        # the float cast ended in float()'s TypeError, or kept a numpy complex's real part
        with pytest.raises(ValueError, match=f"{name} must be real"):
            check_models(distributions, priors)
        if name == "distributions":
            with pytest.raises(ValueError, match="distributions must be real"):
                FiniteOnticModel(distributions[0], PriorDistribution((0.5, 0.5)))

    @pytest.mark.parametrize(
        "distributions, priors, name",
        [
            (np.array([[["0.5", "0.5"], ["1", "0"]]]), np.array([["0.5", "0.5"]]),
             "distributions"),
            (np.array([[[0.5, 0.5], [1.0, 0.0]]]), np.array([["0.5", "0.5"]]), "priors"),
            (np.array([[[b"0.5", b"0.5"], [b"1", b"0"]]]), [[0.5, 0.5]], "distributions"),
            (np.array([[["0.5", 0.5], [1.0, 0.0]]], dtype=object), [[0.5, 0.5]],
             "distributions"),
        ],
        ids=["str", "str-priors", "bytes", "object-str"],
    )
    def test_rejects_text_input(self, distributions, priors, name):
        # a float cast would parse the text
        with pytest.raises(ValueError, match=f"{name} must be real"):
            check_models(distributions, priors)
        if name == "distributions":
            with pytest.raises(ValueError, match="distributions must be real"):
                FiniteOnticModel(distributions[0], PriorDistribution((0.5, 0.5)))

    @pytest.mark.parametrize(
        "shapes", [((2, 3), (1, 2)), ((1, 2, 3), (2, 2)), ((1, 2, 0), (1, 2))],
        ids=["flat", "count", "empty-space"],
    )
    def test_shapes_must_stack(self, shapes):
        mu_shape, prior_shape = shapes
        with pytest.raises(ValueError, match="need distributions"):
            check_models(np.full(mu_shape, 0.5), np.full(prior_shape, 0.5))


def reference_ontic_check(num_models: int, seed: int) -> str:
    """`mesd ontic-check` stdout, built one model at a time."""
    rng = np.random.default_rng(seed)
    lines, two, three, identity = [], 0, 0, 0
    for _ in range(num_models):
        size = int(rng.integers(2, 33))
        r2 = check_two_state_bound(random_model(2, size, rng))
        r3 = check_three_state_bound(random_model(3, size, rng))
        two += r2.passed
        three += r3.passed
        identity += r3.decomposition_passed
        if num_models == 1:
            lines.append(f"two-state: success={r2.success:.9g} overlap={r2.overlap:.9g} "
                         f"bound={r2.bound:.9g} passed={r2.passed}")
            lines.append(f"three-state: success={r3.success:.9g} bound={r3.bound:.9g} "
                         f"passed={r3.passed} "
                         f"decomposition_error={r3.decomposition_error:.9g}")
    lines.append(f"two-state bound: {two}/{num_models} pass")
    lines.append(f"three-state bound: {three}/{num_models} pass")
    lines.append(f"decomposition identity: {identity}/{num_models} pass")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("num_models, seed", [(1, 0), (1, 1), (100, 7), (2500, 3)])
def test_ontic_check_prints_the_one_model_loop(capsys, num_models, seed):
    code = main(["ontic-check", "--num-models", str(num_models), "--seed", str(seed)])
    assert (code, capsys.readouterr().out) == (0, reference_ontic_check(num_models, seed))


@pytest.mark.parametrize(
    "build",
    [
        lambda: model([[np.nan, 1.0], [0.5, 0.5]], [0.5, 0.5]),
    ],
    ids=["model"],
)
def test_nan_rejected(build):
    with pytest.raises(ValueError):
        build()
