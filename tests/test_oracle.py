import math

import mpmath
import numpy as np
import pytest

from mesd import oracle
from mesd.analytic import (
    MirrorEnsemble,
    TwoStateScenario,
    helstrom_two,
    quantum_three,
    threshold_prior,
)
from mesd.oracle import (
    MeasurementParams2,
    MeasurementParams3,
    discrimination_success,
    optimize_three,
    optimize_two,
    success_three,
    success_two,
)
from mesd.qcore import Effect, identity_matrix, make_state, validate_povm

# 0.5 * (1 + sqrt(1 - 4 * 0.3 * 0.7 * 0.75)), frozen after evaluating it
HELSTROM_P03_C075 = 0.804138126514911
TRINE = MirrorEnsemble(math.pi / 3, 1 / 3)
HALF_PI = math.pi / 2


def trine_params() -> MeasurementParams3:
    return MeasurementParams3(
        weights=(2 / 3, 2 / 3, 2 / 3), angles=(math.pi / 3, -math.pi / 3, 0.0)
    )


class TestMeasurementParams:
    def test_angle_normalized(self):
        assert MeasurementParams2(-0.5).angle == pytest.approx(
            2 * math.pi - 0.5, abs=1e-12
        )

    def test_params3_requires_completeness(self):
        with pytest.raises(ValueError):
            MeasurementParams3(weights=(1.0, 1.0, 1.0), angles=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            MeasurementParams3(weights=(2.0, 0.0, 0.0), angles=(0.3, 0.0, 0.0))

    def test_params3_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            MeasurementParams3(
                weights=(-0.5, 1.5, 1.0),
                angles=(0.0, 0.0, math.pi / 2),
            )

    def test_projective_pair_is_valid(self):
        m = MeasurementParams3(weights=(1.0, 1.0, 0.0), angles=(0.2, 0.2 + math.pi / 2, 0.0))
        povm = m.to_povm()
        assert len(povm) == 3

    def test_trine_params_make_a_povm(self):
        total = sum(e.matrix for e in trine_params().to_povm().effects)
        assert np.allclose(total, np.eye(2), atol=1e-12)


class TestSuccessTwo:
    def test_orthogonal_aligned(self):
        s1 = make_state(0.0)
        s2 = make_state(math.pi / 2)
        for p in (0.0, 0.3, 0.5, 1.0):
            assert success_two(s1, s2, p, MeasurementParams2(0.0)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_identical_states_best_label(self):
        psi = make_state(0.4)
        values = [
            success_two(psi, psi, 0.3, MeasurementParams2(a))
            for a in np.linspace(0.0, math.pi, 720, endpoint=False)
        ]
        assert max(values) <= 0.7 + 1e-12
        assert max(values) == pytest.approx(0.7, abs=1e-6)

    def test_optimal_angle_hits_helstrom_value(self):
        # psi1 at 0, psi2 at pi/3, equal priors: optimum 0.5 * (1 + sqrt(0.75))
        s1 = make_state(0.0)
        s2 = make_state(math.pi / 3)
        best = max(
            success_two(s1, s2, 0.5, MeasurementParams2(a))
            for a in np.linspace(0.0, math.pi, 100000, endpoint=False)
        )
        assert best == pytest.approx(0.9330127018922194, abs=1e-7)

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError):
            success_two(make_state(0.0), make_state(1.0), 1.2, MeasurementParams2(0.0))


class TestOptimizeTwo:
    def test_orthogonal(self):
        r = optimize_two(make_state(0.0), make_state(math.pi / 2), 0.5)
        assert r.success == pytest.approx(1.0, abs=1e-9)

    def test_matches_helstrom(self):
        r = optimize_two(make_state(0.0), make_state(math.pi / 6), 0.3)
        assert r.success == pytest.approx(HELSTROM_P03_C075, abs=1e-4)
        assert r.success == pytest.approx(
            helstrom_two(TwoStateScenario(0.3, math.cos(math.pi / 6) ** 2)), abs=1e-4
        )

    def test_identical_states_constant_guess(self):
        psi = make_state(1.3)
        for p in (0.2, 0.5, 0.8):
            r = optimize_two(psi, psi, p)
            assert r.success == pytest.approx(max(p, 1.0 - p), abs=1e-9)

    def test_never_beats_the_true_optimum(self):
        for sep, p in ((0.3, 0.25), (0.9, 0.5), (1.4, 0.7)):
            r = optimize_two(make_state(0.0), make_state(sep), p)
            analytic = helstrom_two(TwoStateScenario(p, math.cos(sep) ** 2))
            assert r.success <= analytic + 1e-12

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            optimize_two(make_state(0.0), make_state(1.0), 0.5, grid_n=32)

    def test_reports_evaluations(self):
        r = optimize_two(make_state(0.0), make_state(1.0), 0.5)
        assert r.evaluations >= 1024


class TestSuccessThree:
    def test_trine_povm_on_trine_ensemble(self):
        assert success_three(TRINE, trine_params()) == pytest.approx(2 / 3, abs=1e-12)

    def test_blind_guess_third_state(self):
        # outcome-3 effect = identity: the guesser always names the third
        # state; not expressible with rank-1 params, so the general Born
        # functional is exercised directly
        ensemble = MirrorEnsemble(math.pi / 3, 0.2)
        zero = Effect(np.zeros((2, 2)))
        povm = validate_povm([zero, zero, Effect(identity_matrix())])
        value = discrimination_success(ensemble.states(), ensemble.priors(), povm)
        assert value == pytest.approx(1.0 - 2.0 * 0.2, abs=1e-12)

    def test_only_third_state_sent(self):
        ensemble = MirrorEnsemble(math.pi / 3, 0.0)
        zero = Effect(np.zeros((2, 2)))
        povm = validate_povm([zero, zero, Effect(identity_matrix())])
        assert discrimination_success(
            ensemble.states(), ensemble.priors(), povm
        ) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_matrix_arithmetic(self):
        # independent route: raw numpy matrices, no qcore types
        ensemble = MirrorEnsemble(0.8, 0.3)
        m = MeasurementParams3(weights=(1.0, 1.0, 0.0), angles=(0.9, 0.9 + math.pi / 2, 0.0))
        expected = 0.0
        priors = (0.3, 0.3, 0.4)
        for pr, sa, w, ma in zip(priors, (0.8, -0.8, 0.0), m.weights, m.angles):
            ket = np.array([math.cos(sa), math.sin(sa)])
            phi = np.array([math.cos(ma), math.sin(ma)])
            effect = w * np.outer(phi, phi)
            expected += pr * float(ket @ effect @ ket)
        assert success_three(ensemble, m) == pytest.approx(expected, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MeasurementParams3(weights=(0.5, 0.5, 0.5), angles=(0.0, 1.0, 2.0))


class TestOptimizeThree:
    def test_trine_optimum(self):
        r = optimize_three(TRINE)
        assert r.success == pytest.approx(2 / 3, abs=1e-3)

    def test_orthogonal_pair(self):
        r = optimize_three(MirrorEnsemble(math.pi / 4, 0.5))
        assert r.success == pytest.approx(1.0, abs=1e-6)

    def test_low_prior_branch(self):
        ensemble = MirrorEnsemble(math.pi / 3, 0.1)
        r = optimize_three(ensemble)
        assert r.success == pytest.approx(quantum_three(ensemble), abs=1e-3)
        assert r.success == pytest.approx(0.8774193548387097, abs=1e-3)

    def test_deterministic_for_fixed_seed(self):
        ensemble = MirrorEnsemble(1.1, 0.27)
        a = optimize_three(ensemble, seed=5)
        b = optimize_three(ensemble, seed=5)
        assert a == b

    def test_never_beats_the_true_optimum(self):
        for theta, p in ((0.4, 0.1), (math.pi / 3, 1 / 3), (1.2, 0.45)):
            ensemble = MirrorEnsemble(theta, p)
            r = optimize_three(ensemble)
            assert r.success <= quantum_three(ensemble) + 1e-12

    def test_spot_grid_agreement(self):
        for theta, p in ((0.3, 0.05), (0.7, 0.35), (1.3, 0.5), (1.5, 0.2)):
            ensemble = MirrorEnsemble(theta, p)
            r = optimize_three(ensemble)
            assert r.success == pytest.approx(quantum_three(ensemble), abs=1e-3)

    def test_result_params_are_valid(self):
        r = optimize_three(MirrorEnsemble(0.9, 0.3))
        povm = r.params.to_povm()
        total = sum(e.matrix for e in povm.effects)
        assert np.allclose(total, np.eye(2), atol=1e-9)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            optimize_three(TRINE, grid_n=8)


@pytest.mark.parametrize("weights,angles", [
    ((math.nan, 1.0, 1.0), (0.0, 0.0, math.pi / 2)),
    ((1.0, 1.0, 0.0), (0.2, 0.2 + math.pi / 2, math.nan)),
    ((1.0, 1.0, 0.0), (math.nan, 0.2 + math.pi / 2, 0.0)),
])
def test_params3_rejects_nan(weights, angles):
    with pytest.raises(ValueError):
        MeasurementParams3(weights=weights, angles=angles)


def test_optimize_two_rejects_oversize_grid_before_allocating(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(oracle.np, "linspace", no_grid)
    with pytest.raises(ValueError, match="grid_n"):
        optimize_two(make_state(0.0), make_state(1.0), 0.5, grid_n=2**20 + 1)


def reference_two(sep: float, p: float) -> float:
    """The Helstrom value for states sep apart, evaluated at 50 digits."""
    with mpmath.workdps(50):
        c, q = mpmath.cos(mpmath.mpf(sep)), mpmath.mpf(p)
        return float((1 + mpmath.sqrt(1 - 4 * q * (1 - q) * c**2)) / 2)


@pytest.mark.parametrize("sep", [0.0, 1e-12, 1e-6, 0.3, math.pi / 4, HALF_PI, 3.0])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.5, 0.5 + 1e-9, 0.7, 1.0])
def test_two_state_certificate_brackets_the_optimum(sep, p):
    r = optimize_two(make_state(0.0), make_state(sep), p)
    exact = reference_two(sep, p)
    assert r.success <= exact + 1e-12
    assert r.dual_bound >= exact - 1e-12
    assert r.dual_bound - r.success <= 1e-12


def test_two_state_peak_stays_in_its_grid_bracket():
    # neighbouring grid values agree to rounding, so only the bracket keeps
    # the fitted peak near the best grid angle
    r = optimize_two(make_state(0.0), make_state(1e-6), 0.5, grid_n=2**20)
    assert r.success == pytest.approx(reference_two(1e-6, 0.5), abs=1e-15)


def reference_three(theta: float, p: float) -> float:
    """quantum_three's closed form, evaluated independently at 50 digits."""
    with mpmath.workdps(50):
        t, q = mpmath.mpf(theta), mpmath.mpf(p)
        c, s = mpmath.cos(t), mpmath.sin(t)
        if q >= 1 / (2 + c * (c + s)):
            return float(q * (1 + mpmath.sin(2 * t)))
        d = 1 - 2 * q - q * c**2
        return float((1 - 2 * q) * (q * s**2 + d) / d)


def certificate_points() -> list[tuple[float, float]]:
    """Edges, the threshold prior p*(theta) and its 1e-9 neighbours, p = 1/3."""
    points = []
    for theta in (0.0, 1e-6, 0.3, math.pi / 4, 1.2, HALF_PI - 1e-9, HALF_PI):
        star = threshold_prior(theta)
        for p in (0.0, 1e-6, 0.1, 1 / 3, star, star * (1 - 1e-9), star * (1 + 1e-9), 0.5):
            if p <= 0.5 and (theta, p) not in points:
                points.append((theta, p))
    return points


@pytest.mark.parametrize("theta,p", certificate_points())
def test_certificate_brackets_the_optimum(theta, p):
    r = optimize_three(MirrorEnsemble(theta, p))
    exact = reference_three(theta, p)
    assert r.success <= exact + 1e-12
    assert r.dual_bound >= exact - 1e-12
    if 0.0 < theta < HALF_PI and 0.0 < p < 0.5:
        assert r.dual_bound - r.success <= 1e-9


@pytest.mark.parametrize("theta,p", [(0.0, 0.1), (0.0, 1 / 3), (0.0, 0.5), (0.3, 0.0),
                                     (HALF_PI, 0.0)])
def test_singular_points_give_complete_params(theta, p):
    # every weighted state lies on one ray, so G in the fixed point is singular
    r = optimize_three(MirrorEnsemble(theta, p))
    total = sum(e.matrix for e in r.params.to_povm().effects)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    assert r.dual_bound == pytest.approx(r.success, abs=1e-12)


def test_result_does_not_depend_on_seed_or_grid():
    ensemble = MirrorEnsemble(1.1, 0.27)
    assert optimize_three(ensemble, seed=1) == optimize_three(ensemble, grid_n=16, seed=2)
