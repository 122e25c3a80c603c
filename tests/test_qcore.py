import collections.abc
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mesd.analytic import MirrorEnsemble
from mesd.ontic import FiniteOnticModel
from mesd.oracle import optimize_three, optimize_two
from mesd.qcore import (
    COMPLETENESS_TOL,
    EFFECT_MAX,
    PSD_TOL,
    Effect,
    Povm,
    PriorDistribution,
    PureState,
    born_probability,
    confusability,
    identity_matrix,
    make_state,
    validate_povm,
)

ANGLES = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


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

    @pytest.mark.parametrize("bad", [1j, np.complex128(1 + 1j), np.complex128(0.5),
                                     np.complex64(0.5)], ids=repr)
    def test_complex_rejected(self, bad):
        # float() raises TypeError for 1j, and keeps the real part of numpy's
        with pytest.raises(ValueError, match="state angle must be a real number"):
            make_state(bad)

    @pytest.mark.parametrize("bad", ["0.5", " 0.5 ", b"0.5", bytearray(b"0.5"), np.str_("0.5"),
                                     np.bytes_(b"0.5")], ids=repr)
    def test_text_rejected(self, bad):
        # float() would parse it, where PureState rejects the same text
        with pytest.raises(ValueError, match="state angle must be a real number"):
            make_state(bad)

    @pytest.mark.parametrize("bad", [1j, np.complex128(0.5), np.complex64(0.5), "0.5", None,
                                     10**400],
                             ids=["1j", "complex128", "complex64", "str", "None", "huge-int"])
    def test_pure_state_rejects_non_real_angles(self, bad):
        with pytest.raises(ValueError, match="state angle must be finite"):
            PureState(bad)

    def test_angle_kept_as_given(self):
        for angle in (-math.pi / 2, 17.3, 1e300):
            state = make_state(angle)
            assert state.angle == angle
            assert state.amplitudes == (math.cos(angle), math.sin(angle))

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
        assert confusability(psi, make_state(0.7 + math.pi / 2)) == pytest.approx(0.0, abs=1e-12)

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
        proj = Effect.projector(make_state(1.1 + math.pi / 2))
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
        psi = make_state(angle)
        total = sum(born_probability(psi, e) for e in povm.effects)
        assert abs(total - 1.0) < 1e-9


class TestEffect:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Effect(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="non-positive effect"):
            Effect(np.array([[-0.5, 0.0], [0.0, 1.0]]))

    def test_rejects_non_2x2(self):
        with pytest.raises(ValueError, match="2x2"):
            Effect(np.eye(3))

    def test_matrix_frozen(self):
        e = Effect(identity_matrix())
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

    def test_member_the_born_rule_cannot_score_rejected(self):
        # complete within COMPLETENESS_TOL and each member PSD within PSD_TOL,
        # but the first member's Born weight on v exceeds born_probability's margin
        v, w = make_state(math.pi / 4).projector(), make_state(3 * math.pi / 4).projector()
        rest = -0.99e-12 * v + 0.5 * w
        with pytest.raises(ValueError, match="oversized effect"):
            validate_povm([(1.0 + 1.9995e-9 + 2e-12) * v, rest, rest])


class TestPriorDistribution:
    def test_valid(self):
        priors = PriorDistribution((0.2, 0.2, 0.6))
        assert len(priors) == 3
        assert priors.probabilities[2] == 0.6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PriorDistribution((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PriorDistribution((0.5, 0.4))

    def test_mirror_priors_sum_exactly(self):
        for p in (0.0, 0.1, 1 / 3, 0.4641, 0.5):
            PriorDistribution((p, p, 1.0 - 2.0 * p))

    @pytest.mark.parametrize("probabilities", [((0.5,), 0.5), (0.5 + 0j, 0.5), (0.5, 0.5j), 0.5],
                             ids=["sequence-entry", "complex-entry", "imaginary-entry",
                                  "no-sequence"])
    def test_non_real_entries_raise_value_error(self, probabilities):
        # float() of such an entry raises TypeError, which must not escape
        with pytest.raises(ValueError, match="priors must be a sequence of real numbers"):
            PriorDistribution(probabilities)

    @pytest.mark.parametrize("probabilities", [("0.5", " 0.5 "), (b"0.5", 0.5),
                                               (0.5, np.str_("0.5"))],
                             ids=["str", "bytes", "numpy-str"])
    def test_text_entries_raise_value_error(self, probabilities):
        # float() would parse them
        with pytest.raises(ValueError, match="priors must be a sequence of real numbers"):
            PriorDistribution(probabilities)

    @pytest.mark.parametrize("probabilities", [(np.complex128(0.5 + 1j), 0.5),
                                               (0.5, np.complex64(0.5))],
                             ids=["complex128", "complex64"])
    def test_numpy_complex_entries_raise_value_error(self, probabilities):
        # float() keeps their real parts with only a ComplexWarning
        with pytest.raises(ValueError, match="priors must be a sequence of real numbers"):
            PriorDistribution(probabilities)


def test_pure_state_direct_construction_keeps_angle():
    wrapped = PureState(2 * math.pi + 0.25)
    assert wrapped.angle == 2 * math.pi + 0.25
    assert np.abs(wrapped.ket - PureState(0.25).ket).max() <= 1e-15


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
    ],
    ids=["effect", "povm", "ontic-model"],
)
def test_array_holding_values_compare_by_value(build):
    assert build(0.25) == build(0.25)
    assert build(0.25) != build(0.5)
    assert (build(0.25) == 1) is False


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: Effect(np.eye(2)), "Effect"),
        (lambda: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), "Povm"),
        (lambda: optimize_two(make_state(0.0), make_state(0.5), 0.3), "OracleResult"),
        (lambda: FiniteOnticModel(np.eye(2), PriorDistribution((0.5, 0.5))),
         "FiniteOnticModel"),
    ],
    ids=["effect", "povm", "oracle-result", "ontic-model"],
)
def test_array_holding_values_are_unhashable(build, name):
    value = build()
    assert not isinstance(value, collections.abc.Hashable)
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(value)


@pytest.mark.parametrize("entry", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_is_non_hermitian_without_a_warning(entry, bad):
    matrix = np.eye(2)
    matrix.flat[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-Hermitian effect$"):
            Effect(matrix)


def test_skew_beyond_the_float_range_is_non_hermitian():
    # |b - conj(c)| overflows: abs() of that complex would raise OverflowError
    with pytest.raises(ValueError, match="^non-Hermitian effect$"):
        Effect(np.array([[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]]))


# the member lam * v of the POVM {lam v, rest, rest}, complete within
# COMPLETENESS_TOL, has its largest eigenvalue lam: the EFFECT_MAX edge
_HALF = np.full((2, 2), 0.5)
_REST = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]]) - 0.99e-12 * _HALF


class TestClosedFormBoundaries:
    """Verdicts and messages at the edges of the closed-form 2x2 tests."""

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, -PSD_TOL]),
        np.zeros((2, 2)),
        np.diag([5e-324, 5e-324]),
        np.full((2, 2), 1e-310),
        np.array([[0.0, 5e-324], [5e-324, 0.0]]),
        np.diag([-5e-324, 1.0]),
        np.diag([1e300, 1e300]),
        np.diag([1e300, 0.0]),
        np.full((2, 2), 1e300),
        np.array([[1e300, -1e300j], [1e300j, 1e300]]),
    ], ids=["minus-psd-tol", "zero", "subnormal-diagonal", "subnormal-rank-one",
            "subnormal-off-diagonal", "minus-subnormal", "1e300-diagonal",
            "1e300-rank-one", "1e300-full", "1e300-complex"])
    def test_accepted(self, matrix):
        assert np.array_equal(Effect(matrix).matrix, matrix)

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, -1.0001e-12]),
        np.array([[1e300, 1e300], [1e300, 0.0]]),
        np.array([[1e160, 2e160], [2e160, 1e160]]),
        np.array([[1e308, 1.5e308 - 1.5e308j], [1.5e308 + 1.5e308j, 1e308]]),
    ], ids=["below-psd-tol", "1e300-indefinite", "1e160-indefinite", "off-diagonal-beyond-max"])
    def test_rejected(self, matrix):
        with pytest.raises(ValueError, match="^non-positive effect$"):
            Effect(matrix)

    @pytest.mark.parametrize("lam", [1.0 + 2.0005e-9, EFFECT_MAX])
    def test_member_at_effect_max_accepted(self, lam):
        assert len(validate_povm([lam * _HALF, _REST, _REST])) == 3

    def test_member_above_effect_max_rejected(self):
        with pytest.raises(ValueError, match="^oversized effect: an eigenvalue above 1$"):
            validate_povm([(1.0 + 2.0015e-9) * _HALF, _REST, _REST])


def _hermitian(lam_min, lam_max, angle, phase) -> np.ndarray:
    """U diag(lam_min, lam_max) U^H for the unitary U fixed by angle and phase."""
    c, s = math.cos(angle), math.sin(angle) * complex(math.cos(phase), math.sin(phase))
    u = np.array([[c, -s.conjugate()], [s, c]])
    return u @ np.diag([lam_min, lam_max]) @ u.conj().T


# an offset of lambda_min from -PSD_TOL, log-spread over [1e-15, 1]
OFFSETS = st.builds(lambda sign, e, m: sign * m * 10.0**e, st.sampled_from([-1.0, 1.0]),
                    st.integers(-15, 0), st.floats(0.1, 1.0))
PHASES = st.floats(-math.pi, math.pi)


@settings(max_examples=500, deadline=None)
@given(OFFSETS, st.floats(0.0, 2.0), st.floats(0.0, math.pi), PHASES)
def test_positivity_verdict_matches_eigvalsh(offset, lam_max, angle, phase):
    # margins below 1e-14 are inside eigvalsh's own rounding
    matrix = _hermitian(-PSD_TOL + offset, lam_max, angle, phase)
    lam_min = np.linalg.eigvalsh(matrix)[0]
    assume(abs(lam_min + PSD_TOL) >= 1e-14)
    try:
        Effect(matrix)
    except ValueError as error:
        assert str(error) == "non-positive effect"
        assert lam_min < -PSD_TOL
    else:
        assert lam_min >= -PSD_TOL


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e-12, 0.9e-12), st.floats(-1e-6, 1e-6), PHASES)
def test_effect_max_verdict_matches_eigvalsh(offset, tilt, phase):
    # a rank-one member lam |psi><psi| near pi/4, where it can reach
    # EFFECT_MAX with the POVM still complete within COMPLETENESS_TOL:
    # the sum misses I by (lam - 1 - 1.98e-12) / 2 <= 1e-9 in each entry
    v = _hermitian(0.0, 1.0, math.pi / 4 + tilt, phase)
    member = (EFFECT_MAX + offset) * v
    rest = 0.5 * (np.eye(2) - v) - 0.99e-12 * v
    lam_max = np.linalg.eigvalsh(member)[-1]
    assume(abs(lam_max - EFFECT_MAX) >= 1e-14)
    try:
        validate_povm([member, rest, rest])
    except ValueError as error:
        assert str(error) == "oversized effect: an eigenvalue above 1"
        assert lam_max > EFFECT_MAX
    else:
        assert lam_max <= EFFECT_MAX


def test_checks_make_no_eigensolver_call(monkeypatch):
    # optimize_two's oracle._certificate calls eigvalsh, so the POVMs are
    # found first (optimize_three calls none since its verdict is scalar)
    povms = [
        optimize_two(make_state(0.0), make_state(0.5), 0.3).povm,
        optimize_three(MirrorEnsemble(0.7, 0.2)).povm,
        optimize_three(MirrorEnsemble(0.7, 0.45)).povm,
    ]

    def eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for povm in povms:
        matrices = [e.matrix for e in povm.effects]
        assert validate_povm(matrices) == povm
        assert validate_povm([Effect(m) for m in matrices]) == povm
    with pytest.raises(ValueError, match="non-positive effect"):
        Effect(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="oversized effect"):
        validate_povm([(1.0 + 2.0015e-9) * _HALF, _REST, _REST])


class TestPovmMembers:
    def test_generator_keeps_every_member(self):
        effects = [Effect.projector(make_state(a)) for a in (0.3, 0.3 + math.pi / 2)]
        povm = Povm(e for e in effects)
        assert len(povm) == 2
        assert povm.effects == tuple(effects)

    def test_generator_of_an_incomplete_povm_rejected(self):
        effects = [Effect.projector(make_state(0.3))]
        with pytest.raises(ValueError, match="^incomplete POVM$"):
            Povm(e for e in effects)

    @pytest.mark.parametrize("member", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]], None])
    def test_raw_member_rejected(self, member):
        with pytest.raises(ValueError, match="validate_povm"):
            Povm([member])


class TestErrorOrder:
    def test_non_positive_member_before_incompleteness(self):
        with pytest.raises(ValueError, match="^non-positive effect$"):
            validate_povm([np.diag([0.25, 0.25]), np.diag([-0.5, 0.0])])

    @pytest.mark.parametrize("members", [
        [np.diag([2.0, 0.0])],
        [np.diag([0.0, 1.0]), np.diag([3.0, 0.0])],
        [np.diag([3.0, 0.0]), np.diag([0.0, 1.0]), np.diag([0.5, 0.0])],
    ], ids=["one", "last", "first"])
    def test_incomplete_before_oversized(self, members):
        with pytest.raises(ValueError, match="^incomplete POVM$"):
            validate_povm(members)


def _numpy_incomplete(effects) -> tuple[bool, float]:
    """The completeness verdict as numpy gave it, with its entrywise
    distance of the stacked sum from I."""
    with np.errstate(all="ignore"):  # a sum of 1e308 entries overflows
        stack = np.array([e.matrix for e in effects])
        distance = float(np.abs(stack.sum(axis=0) - np.eye(2)).max())
    return distance > COMPLETENESS_TOL, distance


MEMBERS = st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0),
                             st.floats(0.0, math.pi), PHASES), max_size=4)


@settings(max_examples=500, deadline=None)
@given(MEMBERS, st.sampled_from(["a", "d", "c"]), st.sampled_from([-1.0, 1.0]),
       st.floats(-1e-14, 1e-14), PHASES, st.sampled_from([1.0, 1e300, 1e308]),
       st.integers(1, 2))
def test_completeness_verdict_matches_numpy_sum(members, entry, sign, miss, phase, scale, copies):
    # members with sum <= 0.9 I, completed by a Hermitian member whose sum
    # misses I by COMPLETENESS_TOL + miss in one entry; then scaled (the
    # 1e308 sums of two copies overflow to inf) and repeated
    share = 0.9 / max(len(members), 1)
    matrices = [share * _hermitian(lo, hi, angle, ph) for lo, hi, angle, ph in members]
    rest = np.eye(2, dtype=complex) - sum(matrices, np.zeros((2, 2)))
    gap = COMPLETENESS_TOL + miss
    if entry == "c":
        rest[1, 0] += gap * complex(math.cos(phase), math.sin(phase))
        rest[0, 1] = rest[1, 0].conjugate()
    else:
        rest[(0, 0) if entry == "a" else (1, 1)] += sign * gap
    matrices.append(rest)
    # exactly Hermitian, so the scaled members stay effects
    effects = [Effect(scale * 0.5 * (m + m.conj().T)) for m in matrices] * copies
    expected, distance = _numpy_incomplete(effects)
    # np.abs of a complex entry may differ from a float hypot in its last bits
    assume(abs(distance - COMPLETENESS_TOL) >= 1e-20)
    try:
        Povm(effects)
    except ValueError as error:
        assert (str(error) == "incomplete POVM") == expected
    else:
        assert not expected


@pytest.mark.parametrize("members", [
    [np.diag([1e308, 1e308])] * 2,
    [np.full((2, 2), 1e308)] * 2,
    [np.full((2, 2), 1e300)] * 3,
    [np.array([[1e308, 1e308j], [-1e308j, 1e308]])] * 2,
], ids=["diagonal-overflow", "full-overflow", "1e300-full", "complex-overflow"])
def test_overflowing_sum_is_incomplete_without_a_warning(members):
    effects = [Effect(m) for m in members]
    assert _numpy_incomplete(effects)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^incomplete POVM$"):
            Povm(effects)


# floats at the edges of the entry checks: signed zeros, subnormals, huge,
# negative and non-finite values, mixed with ordinary ones
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-12, -1e-12, 0.5, 1.0,
                     1e150, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
)
ROWS = st.builds(lambda xx, xy, yy: ((xx, xy), (xy, yy)), EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)


def _outcome(build):
    """The built value, or the message of the ValueError it raised."""
    try:
        return build()
    except ValueError as error:
        return str(error)


@settings(max_examples=1000, deadline=None)
@given(ROWS)
def test_rows_constructor_matches_the_public_one(rows):
    fast = _outcome(lambda: Effect._from_rows(rows))
    slow = _outcome(lambda: Effect(rows))
    if isinstance(slow, str):
        assert fast == slow
        return
    assert isinstance(fast, Effect)
    assert fast == slow
    assert tuple(complex(v) for v in fast._entries) == slow._entries
    assert fast.matrix.tobytes() == slow.matrix.tobytes()
    assert (fast.matrix.dtype, fast.matrix.shape) == (slow.matrix.dtype, slow.matrix.shape)
    assert not fast.matrix.flags.writeable
    assert fast.matrix is fast.matrix  # built once
    assert repr(fast) == repr(slow)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(ROWS, st.booleans()), min_size=1, max_size=3))
def test_povm_of_rows_effects_matches_validate_povm(members):
    # rows effects (real entries) mixed with parsed ones (complex entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a sum
        fast = _outcome(lambda: Povm([Effect._from_rows(r) if f else Effect(r)
                                      for r, f in members]))
    slow = _outcome(lambda: validate_povm([np.array(r) for r, _ in members]))
    assert fast == slow


@pytest.mark.parametrize("build", [
    lambda: Effect(np.eye(2)),
    lambda: Effect(np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
    lambda: Effect._from_rows(((0.25, -0.0), (-0.0, 1.0))),
    lambda: Effect.projector(make_state(0.3)),
], ids=["public", "complex", "rows", "projector"])
@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_effect_survives_pickle_and_copy(build, clone):
    effect = build()
    twin = clone(effect)
    assert twin == effect and twin is not effect
    assert twin.matrix.tobytes() == effect.matrix.tobytes()
    assert not twin.matrix.flags.writeable
    assert repr(twin) == repr(effect)
    # and after the original's matrix was read
    assert clone(effect).matrix.tobytes() == effect.matrix.tobytes()


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_povm_survives_pickle_and_deepcopy(clone):
    povm = Povm([Effect._from_rows(((0.25, 0.0), (0.0, 0.5))), Effect(np.diag([0.75, 0.5]))])
    twin = clone(povm)
    assert twin == povm
    assert [e.matrix.tobytes() for e in twin.effects] == [e.matrix.tobytes() for e in povm.effects]


def test_effect_repr_names_its_matrix():
    assert repr(Effect(np.eye(2))) == f"Effect(matrix={np.eye(2, dtype=complex)!r})"
    assert repr(Effect._from_rows(((1.0, 0.0), (0.0, 1.0)))) == repr(Effect(np.eye(2)))


def test_rows_effect_builds_only_its_matrix_lazily():
    effect = Effect._from_rows(((1.0, 0.0), (0.0, 0.0)))
    with pytest.raises(AttributeError, match="no attribute 'matric'"):
        effect.matric  # noqa: B018
    with pytest.raises(dataclasses.FrozenInstanceError):
        effect.matrix = np.eye(2)


@pytest.mark.parametrize("matrix", [
    [["1", "0"], ["0", "0"]],
    np.array([["1", "0"], ["0", "0"]]),
    np.array([[b"1", b"0"], [b"0", b"0"]]),
    np.array([[1, 0], [0, 0]], dtype="timedelta64[s]"),
    np.array([[1, 0], [0, 0]], dtype="datetime64[s]"),
    np.array([[1, "0"], [0, 0]], dtype=object),
    np.array([[1, 0], [b"0", 0]], dtype=object),
    np.array([[1, 0], [0, bytearray(b"0")]], dtype=object),
    np.array([[1, 0], [0, np.str_("0")]], dtype=object),
], ids=["str-lists", "str", "bytes", "timedelta64", "datetime64", "object-str",
        "object-bytes", "object-bytearray", "object-numpy-str"])
def test_effect_rejects_text_and_datetimes(matrix):
    # a complex cast would parse the text, or count the datetime's units
    with pytest.raises(ValueError, match="^effect must be numeric, got "):
        Effect(matrix)


def test_povm_of_text_rejected():
    with pytest.raises(ValueError, match="^effect must be numeric"):
        validate_povm([[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]])


@pytest.mark.parametrize("matrix", [
    np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
    np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=object),
    [[1, 0], [0, 0]],
    np.array([[True, False], [False, False]]),
    np.array([[1, 0], [0, 0]], dtype=object),
], ids=["complex", "object-complex", "int-lists", "bool", "object-int"])
def test_effect_keeps_accepting_numbers(matrix):
    assert np.array_equal(Effect(matrix).matrix, np.array(matrix, dtype=complex))


@pytest.mark.parametrize("effects", [5, None, 0.5], ids=repr)
def test_povm_of_no_iterable_raises_value_error(effects):
    # tuple() of it raises TypeError, which must not escape
    with pytest.raises(ValueError, match="^POVM members must be an iterable of Effects, got "):
        Povm(effects)
