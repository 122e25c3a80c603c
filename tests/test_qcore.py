import collections.abc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesd.ontic import FiniteOnticModel, ResponseFunction
from mesd.oracle import optimize_two
from mesd.qcore import (
    Effect,
    PriorDistribution,
    PureState,
    born_probability,
    confusability,
    identity_matrix,
    make_state,
    mirror_reflect,
    validate_povm,
)

ANGLES = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def circular_diff(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


class TestMakeState:
    def test_basis_states(self):
        assert make_state(0.0).amplitudes == pytest.approx((1.0, 0.0), abs=1e-12)
        assert make_state(math.pi / 2).amplitudes == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_pi_third(self):
        assert make_state(math.pi / 3).amplitudes == pytest.approx(
            (0.5, 0.8660254), abs=1e-7
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            make_state(bad)

    def test_angle_normalized(self):
        assert make_state(-math.pi / 2).angle == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert 0.0 <= make_state(17.3).angle < 2 * math.pi

    @given(ANGLES)
    def test_unit_norm(self, angle):
        cx, sx = make_state(angle).amplitudes
        assert abs(cx * cx + sx * sx - 1.0) < 1e-12


class TestConfusability:
    def test_identical(self):
        psi = make_state(0.7)
        assert confusability(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        psi = make_state(0.7)
        assert confusability(psi, psi.orthogonal()) == pytest.approx(0.0, abs=1e-12)

    def test_mirror_pair_at_pi_third(self):
        # cos^2 of twice the half-opening angle
        c = confusability(make_state(math.pi / 3), make_state(-math.pi / 3))
        assert c == pytest.approx(0.25, abs=1e-12)

    def test_matches_cosine_of_angle_difference(self):
        grid = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
        for a in grid:
            for b in grid:
                expected = math.cos(a - b) ** 2
                assert abs(confusability(make_state(a), make_state(b)) - expected) < 1e-12

    @given(ANGLES, ANGLES)
    def test_in_unit_interval_and_symmetric(self, a, b):
        x = confusability(make_state(a), make_state(b))
        y = confusability(make_state(b), make_state(a))
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(y, abs=1e-12)


class TestBornProbability:
    def test_own_projector(self):
        psi = make_state(1.1)
        assert born_probability(psi, Effect.projector(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector(self):
        psi = make_state(1.1)
        proj = Effect.projector(psi.orthogonal())
        assert born_probability(psi, proj) == pytest.approx(0.0, abs=1e-12)

    @given(ANGLES)
    def test_half_identity(self, angle):
        half = Effect(identity_matrix() / 2)
        assert born_probability(make_state(angle), half) == pytest.approx(0.5, abs=1e-12)

    def test_oversized_effect_rejected(self):
        big = Effect(1.5 * make_state(0.0).projector())
        with pytest.raises(ValueError, match="invalid effect"):
            born_probability(make_state(0.0), big)

    @given(ANGLES)
    def test_povm_outcomes_sum_to_one(self, angle):
        third = 2.0 / 3.0
        povm = validate_povm(
            [
                Effect(third * make_state(0.0).projector()),
                Effect(third * make_state(2 * math.pi / 3).projector()),
                Effect(third * make_state(4 * math.pi / 3).projector()),
            ]
        )
        total = sum(povm.outcome_probabilities(make_state(angle)))
        assert abs(total - 1.0) < 1e-9


class TestMirrorReflect:
    def test_maps_first_mirror_state_to_second(self):
        theta = 0.9
        assert mirror_reflect(make_state(theta)).angle == pytest.approx(
            make_state(-theta).angle, abs=1e-12
        )

    def test_zero_state_fixed(self):
        assert mirror_reflect(make_state(0.0)).angle == 0.0

    @given(ANGLES)
    def test_involution(self, angle):
        psi = make_state(angle)
        assert circular_diff(mirror_reflect(mirror_reflect(psi)).angle, psi.angle) < 1e-9

    @given(ANGLES)
    def test_preserves_overlap_with_zero_state(self, angle):
        psi = make_state(angle)
        zero = make_state(0.0)
        assert confusability(psi, zero) == pytest.approx(
            confusability(mirror_reflect(psi), zero), abs=1e-12
        )

    def test_mirror_ensemble_setwise_invariant(self):
        theta = 1.2
        original = {make_state(a).angle for a in (theta, -theta, 0.0)}
        reflected = {
            mirror_reflect(make_state(a)).angle for a in (theta, -theta, 0.0)
        }
        assert all(
            any(abs(r - o) < 1e-12 for o in original) for r in reflected
        )


class TestEffect:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Effect(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="non-positive effect"):
            Effect(np.array([[-0.5, 0.0], [0.0, 1.0]]))

    def test_matrix_frozen(self):
        e = Effect.identity()
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 5.0


class TestValidatePovm:
    def test_projective_basis(self):
        povm = validate_povm(
            [Effect.projector(make_state(0.0)), Effect.projector(make_state(math.pi / 2))]
        )
        assert len(povm) == 2

    def test_trine_sums_to_identity(self):
        effects = [
            (2.0 / 3.0) * make_state(a).projector()
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ]
        # direct matrix arithmetic is the oracle here
        assert np.allclose(sum(effects), np.eye(2), atol=1e-12)
        povm = validate_povm(effects)
        assert len(povm) == 3

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError, match="incomplete POVM"):
            validate_povm([Effect.projector(make_state(0.0))])

    def test_negative_completion_rejected(self):
        over = 1.5 * make_state(0.0).projector()
        rest = np.eye(2) - over
        with pytest.raises(ValueError, match="non-positive effect"):
            validate_povm([over, rest])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_povm([])

    def test_default_labels(self):
        povm = validate_povm(
            [Effect.projector(make_state(0.3)), Effect.projector(make_state(0.3 + math.pi / 2))]
        )
        assert povm.labels == (0, 1)


class TestPriorDistribution:
    def test_valid(self):
        priors = PriorDistribution((0.2, 0.2, 0.6))
        assert len(priors) == 3
        assert priors[2] == 0.6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PriorDistribution((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PriorDistribution((0.5, 0.4))

    def test_mirror_priors_sum_exactly(self):
        for p in (0.0, 0.1, 1 / 3, 0.4641, 0.5):
            PriorDistribution((p, p, 1.0 - 2.0 * p))


def test_pure_state_direct_construction_normalizes():
    assert PureState(2 * math.pi + 0.25).angle == pytest.approx(0.25, abs=1e-12)


def _unchecked_effect(matrix) -> Effect:
    """An Effect that skipped its own validation, to reach the Born-rule check."""
    effect = object.__new__(Effect)
    object.__setattr__(effect, "matrix", np.array(matrix, dtype=complex))
    return effect


@pytest.mark.parametrize(
    "build",
    [
        lambda: PriorDistribution((math.nan, 0.5, 0.5)),
        lambda: Effect(np.array([[math.nan, 0.0], [0.0, 1.0]])),
        lambda: Effect(math.nan * make_state(0.3).projector()),
        lambda: born_probability(
            make_state(0.3), _unchecked_effect([[math.nan, 0.0], [0.0, 1.0]])
        ),
    ],
    ids=["prior", "effect", "scaled-projector", "born-probability"],
)
def test_nan_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda x: Effect(np.diag([1.0, x])),
        lambda x: validate_povm([np.diag([1.0, x]), np.diag([0.0, 1.0 - x])]),
        lambda x: FiniteOnticModel(np.array([[1.0, 0.0], [x, 1.0 - x]]),
                                   PriorDistribution((0.5, 0.5))),
        lambda x: ResponseFunction(np.array([[1.0, x], [0.0, 1.0 - x]])),
    ],
    ids=["effect", "povm", "ontic-model", "response"],
)
def test_array_holding_values_compare_by_value(build):
    assert build(0.25) == build(0.25)
    assert build(0.25) != build(0.5)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: Effect(np.eye(2)), "Effect"),
        (lambda: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), "Povm"),
        (lambda: optimize_two(make_state(0.0), make_state(0.5), 0.3), "OracleResult"),
        (lambda: FiniteOnticModel(np.eye(2), PriorDistribution((0.5, 0.5))),
         "FiniteOnticModel"),
        (lambda: ResponseFunction(np.eye(2)), "ResponseFunction"),
    ],
    ids=["effect", "povm", "oracle-result", "ontic-model", "response"],
)
def test_array_holding_values_are_unhashable(build, name):
    value = build()
    assert not isinstance(value, collections.abc.Hashable)
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(value)
