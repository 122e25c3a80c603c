import copy
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesd import oracle, qcore
from mesd.analytic import (
    MirrorEnsemble,
    TwoStateScenario,
    helstrom_two,
    quantum_three,
    quantum_three_branch,
    threshold_prior,
)
from mesd.oracle import discrimination_success, optimize_three, optimize_two
from mesd.qcore import Effect, PriorDistribution, identity_matrix, make_state, validate_povm

# 0.5 * (1 + sqrt(1 - 4 * 0.3 * 0.7 * 0.75)), frozen after evaluating it
HELSTROM_P03_C075 = 0.804138126514911
TRINE = MirrorEnsemble(math.pi / 3, 1 / 3)
HALF_PI = math.pi / 2


def rank_one(weights, angles) -> list[np.ndarray]:
    """Effects a_i |phi(alpha_i)><phi(alpha_i)| as raw matrices, unvalidated."""
    return [
        w * np.outer([math.cos(a), math.sin(a)], [math.cos(a), math.sin(a)])
        for w, a in zip(weights, angles)
    ]


def trine_povm():
    return validate_povm(rank_one((2 / 3, 2 / 3, 2 / 3), (math.pi / 3, -math.pi / 3, 0.0)))


def two_state_success(s1, s2, p, angle) -> float:
    """Success of the projective measurement at `angle` (outcome 1 guesses s1)."""
    projector = make_state(angle).projector()
    povm = validate_povm([projector, identity_matrix() - projector])
    return discrimination_success((s1, s2), PriorDistribution((1.0 - p, p)), povm)


class TestRankOneMeasurements:
    """Rank-1 effects a_i |phi_i><phi_i|, validated as a POVM."""

    def test_requires_completeness(self):
        with pytest.raises(ValueError, match="incomplete"):
            validate_povm(rank_one((1.0, 1.0, 1.0), (0.0, 1.0, 2.0)))
        with pytest.raises(ValueError, match="incomplete"):
            validate_povm(rank_one((2.0, 0.0, 0.0), (0.3, 0.0, 0.0)))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            validate_povm(rank_one((-0.5, 1.5, 1.0), (0.0, 0.0, math.pi / 2)))

    def test_projective_pair_is_valid(self):
        povm = validate_povm(rank_one((1.0, 1.0, 0.0), (0.2, 0.2 + math.pi / 2, 0.0)))
        assert len(povm) == 3

    def test_trine_makes_a_povm(self):
        total = sum(e.matrix for e in trine_povm().effects)
        assert np.allclose(total, np.eye(2), atol=1e-12)


class TestSuccessTwo:
    def test_orthogonal_aligned(self):
        s1 = make_state(0.0)
        s2 = make_state(math.pi / 2)
        for p in (0.0, 0.3, 0.5, 1.0):
            assert two_state_success(s1, s2, p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_best_label(self):
        psi = make_state(0.4)
        values = [
            two_state_success(psi, psi, 0.3, a)
            for a in np.linspace(0.0, math.pi, 720, endpoint=False)
        ]
        assert max(values) <= 0.7 + 1e-12
        assert max(values) == pytest.approx(0.7, abs=1e-6)

    def test_optimal_angle_hits_helstrom_value(self):
        # psi1 at 0, psi2 at pi/3, equal priors: optimum 0.5 * (1 + sqrt(0.75))
        s1 = make_state(0.0)
        s2 = make_state(math.pi / 3)
        best = max(
            two_state_success(s1, s2, 0.5, a)
            for a in np.linspace(0.0, math.pi, 100000, endpoint=False)
        )
        assert best == pytest.approx(0.9330127018922194, abs=1e-7)

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError):
            two_state_success(make_state(0.0), make_state(1.0), 1.2, 0.0)

    def test_outcome_count_must_match_states(self):
        povm = validate_povm(rank_one((1.0, 1.0, 0.0), (0.2, 0.2 + math.pi / 2, 0.0)))
        with pytest.raises(ValueError, match="align"):
            discrimination_success((make_state(0.0), make_state(1.0)),
                                   PriorDistribution((0.5, 0.5)), povm)

    def test_result_success_out_of_range(self):
        povm = validate_povm([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="success"):
            oracle.OracleResult(1.5, povm, 1, 1.5)

    @pytest.mark.parametrize("effects,angle", [
        ([np.diag([1.0 + 5e-10, 0.0]), np.diag([0.0, 1.0])], 0.0),
        ([(1.0 + 1.98e-9) * make_state(math.pi / 4).projector(),
          make_state(3 * math.pi / 4).projector()], math.pi / 4),
    ], ids=["diagonal", "rotated"])
    def test_every_accepted_povm_is_scored(self, effects, angle):
        # completeness is checked entrywise, so an accepted POVM may miss I
        # by 2 * COMPLETENESS_TOL in operator norm and a Born weight exceed 1
        states = (make_state(angle), make_state(angle + HALF_PI))
        povm = validate_povm(effects)
        assert discrimination_success(states, PriorDistribution((1.0, 0.0)), povm) == 1.0


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

    def test_negative_refine_iters(self):
        with pytest.raises(ValueError, match="refine_iters must be >= 0, got -1"):
            optimize_two(make_state(0.0), make_state(1.0), 0.5, refine_iters=-1)

    def test_reports_evaluations(self):
        r = optimize_two(make_state(0.0), make_state(1.0), 0.5)
        assert r.evaluations >= 1024

    @pytest.mark.parametrize("knob", ["grid_n", "refine_iters"])
    def test_rejects_nan_knobs(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must .*, got nan"):
            optimize_two(make_state(0.0), make_state(1.0), 0.5, **{knob: math.nan})

    @pytest.mark.parametrize("grid_n", [64.5, 128.0, np.float64(128.0), True, "128"], ids=repr)
    def test_rejects_a_grid_n_that_is_no_integer(self, grid_n):
        # numpy's linspace would raise TypeError, or read True as 1
        with pytest.raises(ValueError, match="grid_n must be an integer, got"):
            optimize_two(make_state(0.0), make_state(1.0), 0.5, grid_n=grid_n)

    def test_numpy_integer_grid_n(self):
        args = make_state(0.0), make_state(1.0), 0.3
        assert optimize_two(*args, grid_n=np.int32(100)) == optimize_two(*args, grid_n=100)


class TestSuccessThree:
    def test_trine_povm_on_trine_ensemble(self):
        value = discrimination_success(TRINE.states(), TRINE.priors(), trine_povm())
        assert value == pytest.approx(2 / 3, abs=1e-12)

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
        weights, angles = (1.0, 1.0, 0.0), (0.9, 0.9 + math.pi / 2, 0.0)
        expected = 0.0
        priors = (0.3, 0.3, 0.4)
        for pr, sa, w, ma in zip(priors, (0.8, -0.8, 0.0), weights, angles):
            ket = np.array([math.cos(sa), math.sin(sa)])
            phi = np.array([math.cos(ma), math.sin(ma)])
            effect = w * np.outer(phi, phi)
            expected += pr * float(ket @ effect @ ket)
        povm = validate_povm(rank_one(weights, angles))
        value = discrimination_success(ensemble.states(), ensemble.priors(), povm)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            validate_povm(rank_one((0.5, 0.5, 0.5), (0.0, 1.0, 2.0)))


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
        total = sum(e.matrix for e in r.povm.effects)
        assert np.allclose(total, np.eye(2), atol=1e-9)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            optimize_three(TRINE, grid_n=8)

    @pytest.mark.parametrize("knobs,got", [({"grid_n": math.nan}, "nan, 200"),
                                           ({"refine_iters": math.nan}, "64, nan")])
    def test_rejects_nan_knobs(self, knobs, got):
        with pytest.raises(ValueError, match=f"need grid_n >= 16, refine_iters >= 0, got {got}"):
            optimize_three(TRINE, **knobs)


@pytest.mark.parametrize("weights,angles", [
    ((math.nan, 1.0, 1.0), (0.0, 0.0, math.pi / 2)),
    ((1.0, 1.0, 0.0), (0.2, 0.2 + math.pi / 2, math.nan)),
    ((1.0, 1.0, 0.0), (math.nan, 0.2 + math.pi / 2, 0.0)),
])
def test_params3_rejects_nan(weights, angles):
    with pytest.raises(ValueError):
        validate_povm(rank_one(weights, angles))


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


@pytest.mark.parametrize(
    "sep", [0.0, 1e-12, 1e-6, 0.3, math.pi / 4, HALF_PI, 3.0, 1e15, 1e300]
)
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
    """Edges, the threshold prior p*(theta) and its 1e-9 neighbours, p = 1/3,
    and theta so small that the triple's products of cross products
    (k_j x k_i)(k_m x k_i), of order theta^2, come near float underflow."""
    points = []
    for theta in (0.0, 5.6e-154, 1e-150, 1e-6, 0.3, math.pi / 4, 1.2, HALF_PI - 1e-9,
                  HALF_PI):
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
                                     (HALF_PI, 0.0), (1.0, 4.686913769124442e-156)])
def test_singular_points_give_complete_params(theta, p):
    # every weighted state lies on one ray, so the triple has no
    # measurement and a pair carries the optimum; at a pair prior of
    # 4.7e-156 the triple's weights, of order p^2, are subnormal
    r = optimize_three(MirrorEnsemble(theta, p))
    total = sum(e.matrix for e in r.povm.effects)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    assert r.dual_bound == pytest.approx(r.success, abs=1e-12)


@pytest.mark.parametrize("theta,p", [(1e-151, 0.1), (1e-147, 1e-6), (1e-146, 1e-6)])
def test_tiny_theta_is_certified_in_few_evaluations(theta, p):
    # the triple's weights, built from squares of Gamma's entry of order
    # p theta^2, underflow, so the triple is dropped: the result is still a
    # certified measurement, found among at most four candidates
    r = optimize_three(MirrorEnsemble(theta, p))
    assert np.allclose(sum(e.matrix for e in r.povm.effects), np.eye(2), atol=1e-12)
    assert r.dual_bound - r.success <= 1e-12
    assert r.evaluations <= 10


def test_result_does_not_depend_on_seed_or_grid():
    ensemble = MirrorEnsemble(1.1, 0.27)
    reference = optimize_three(ensemble, seed=1)
    assert reference == optimize_three(ensemble, grid_n=16, seed=2)
    assert reference == optimize_three(ensemble, seed=-1)


def ensemble_states(states, priors) -> list:
    """The private layer's states (p, x, y) of these `PureState`s and priors."""
    return [(q, *s.amplitudes) for q, s in zip(priors, states)]


def two_case(sep, p):
    return (lambda: optimize_two(make_state(0.0), make_state(sep), p),
            ensemble_states((make_state(0.0), make_state(sep)), (1.0 - p, p)))


def three_case(theta, p):
    ensemble = MirrorEnsemble(theta, p)
    return (lambda: optimize_three(ensemble),
            ensemble_states(ensemble.states(), ensemble.priors().probabilities))


# the last three had dual_bound below success by a few ulps when the success
# was scored a second time through the complex Born rule
@pytest.mark.parametrize("solve,states", [
    two_case(0.4, 0.3),
    three_case(0.7, 0.2),
    three_case(0.45039278944848277, 0.37801416068305643),
    three_case(1e-107, 0.4),
    two_case(0.6132699954853426, 0.5),
], ids=["two", "three", "three-inverted", "three-tiny-theta", "two-inverted"])
def test_reported_povm_is_the_certified_one(solve, states):
    r = solve()
    effects = np.array([e.matrix.real for e in r.povm.effects])
    value, bound = oracle._certificate(states, effects)
    assert value == pytest.approx(r.success, abs=1e-15)
    assert r.success <= r.dual_bound <= bound


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, HALF_PI), st.floats(0.0, 1.0))
def test_two_state_oracle_brackets_the_reference(sep, p):
    r = optimize_two(make_state(0.0), make_state(sep), p)
    assert r.success - 1e-12 <= reference_two(sep, p) <= r.dual_bound + 1e-12
    assert r.success <= r.dual_bound
    assert np.allclose(sum(e.matrix for e in r.povm.effects), np.eye(2), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, HALF_PI), st.floats(0.0, 0.5))
def test_three_state_oracle_brackets_the_reference(theta, p):
    r = optimize_three(MirrorEnsemble(theta, p))
    assert r.success - 1e-12 <= reference_three(theta, p) <= r.dual_bound + 1e-12
    assert r.success <= r.dual_bound
    assert np.allclose(sum(e.matrix for e in r.povm.effects), np.eye(2), rtol=0, atol=1e-9)


def test_certificate_holds_on_a_mirror_grid():
    # test_reported_povm_is_the_certified_one on a 61 x 61 grid, edges included
    for theta in np.linspace(0.0, HALF_PI, 61).tolist():
        for p in np.linspace(0.0, 0.5, 61).tolist():
            ensemble = MirrorEnsemble(theta, p)
            r = optimize_three(ensemble)
            states = ensemble_states(ensemble.states(), ensemble.priors().probabilities)
            effects = np.array([e.matrix.real for e in r.povm.effects])
            value, bound = oracle._certificate(states, effects)
            _, _, scalar_value, scalar_bound = oracle._active_set(states)
            assert r.dual_bound - r.success <= 1e-13, (theta, p)
            assert abs(r.success - quantum_three(ensemble)) <= 1e-12, (theta, p)
            assert abs(value - r.success) <= 1e-15, (theta, p)
            # the verdict's bound is the scalar scoring's, exactly; numpy's
            # rounds differently, by an ulp or so
            assert r.dual_bound == max(r.success, scalar_bound), (theta, p)
            assert max(abs(value - scalar_value), abs(bound - scalar_bound)) <= 1e-15, (theta, p)
            assert r.success <= r.dual_bound, (theta, p)


def asymmetric_triples():
    """An ill-conditioned triple, then 3000 with angles uniform on [0, pi)
    and Dirichlet(1, 1, 1) priors."""
    yield ((2.001332399255296, 0.37708151718077787, 0.6288029319331891),
           (0.018896048274615516, 0.9022067599914836, 0.07889719173390088))
    rng = np.random.default_rng(7)
    for _ in range(3000):
        yield rng.uniform(0.0, math.pi, 3), rng.dirichlet((1.0, 1.0, 1.0))


def angle_states(angles, priors) -> list:
    """States (p, x, y) with real kets at `angles`, computed by numpy."""
    kets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return list(zip(np.asarray(priors, dtype=float).tolist(), *kets.T.tolist()))


def solve_kets(angles, priors) -> oracle.OracleResult:
    """`optimize_three`'s solver and verdict on real kets at `angles`."""
    return oracle._verdict(*oracle._active_set(angle_states(angles, priors)))


def test_active_set_certifies_asymmetric_triples():
    # effects that miss I are no measurement and can beat their own dual
    # bound, so both are checked; the first triple is ill-conditioned
    for angles, priors in asymmetric_triples():
        states = angle_states(angles, priors)
        effects, evaluations, value, dual = oracle._active_set(states)
        assert np.abs(np.sum(effects, axis=0) - np.eye(2)).max() <= 1e-9, (angles, priors)
        assert dual >= oracle._certificate(states, effects)[0] - 1e-13, (angles, priors)
        r = oracle._verdict(effects, evaluations, value, dual)
        assert r.dual_bound - r.success <= 1e-9, (angles, priors)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_active_set_certifies_random_ensembles_of_more_than_three_kets(n):
    # 100 seeded ensembles: angles uniform on [0, pi), Dirichlet(1, ..., 1) priors
    rng = np.random.default_rng(n)
    for _ in range(100):
        angles, priors = rng.uniform(0.0, math.pi, n), rng.dirichlet(np.ones(n))
        states = angle_states(angles, priors)
        effects, evaluations, value, dual = oracle._active_set(states)
        assert np.abs(np.sum(effects, axis=0) - np.eye(2)).max() <= 1e-9, (angles, priors)
        assert abs(oracle._certificate(states, effects)[0] - value) <= 1e-15, (angles, priors)
        r = oracle._verdict(effects, evaluations, value, dual)
        assert r.success <= r.dual_bound, (angles, priors)
        assert r.dual_bound - r.success <= 1e-12, (angles, priors)


@pytest.mark.parametrize("n", range(2, 11))
def test_active_set_on_evenly_spaced_rays(n):
    # equal priors 1/n: Gamma = I/n is feasible, with trace 2/n, and the
    # uniform POVM (2/n) |k><k| reaches it
    r = solve_kets([math.pi * k / n for k in range(n)], [1.0 / n] * n)
    assert r.success == pytest.approx(2 / n, abs=1e-15)
    assert r.dual_bound - r.success <= 1e-15


def test_active_set_matches_the_reference_at_log_spaced_points():
    for theta in np.geomspace(1e-8, HALF_PI, 14).tolist():
        for p in np.geomspace(1e-8, 0.5, 14).tolist():
            r = optimize_three(MirrorEnsemble(theta, p))
            assert abs(r.success - reference_three(theta, p)) <= 1e-14, (theta, p)


def test_active_set_on_two_kets_and_the_trine():
    for sep in (0.0, 1e-12, 1e-6, 0.3, math.pi / 4, HALF_PI, 3.0):
        for p in (0.0, 1e-9, 0.3, 0.5, 0.5 + 1e-9, 0.7, 1.0):
            r = solve_kets((0.0, sep), (1.0 - p, p))
            assert abs(r.success - reference_two(sep, p)) <= 1e-12, (sep, p)
            assert r.dual_bound - r.success <= 1e-12, (sep, p)
    trine = solve_kets((math.pi / 3, -math.pi / 3, 0.0), (1 / 3, 1 / 3, 1 / 3))
    assert trine.success == pytest.approx(2 / 3, abs=1e-15)
    assert trine.dual_bound - trine.success <= 1e-15


def test_active_set_winner_has_the_closed_form_support():
    # The interior of a 121 x 121 mirror grid; on its 480 edge cells
    # (theta in {0, pi/2} or p in {0, 1/2}) two kets coincide or a prior vanishes.
    for theta in (HALF_PI * i / 120 for i in range(1, 120)):
        c, s = math.cos(theta), math.sin(theta)
        for p in (0.5 * j / 120 for j in range(1, 120)):
            effects = oracle._active_set([(p, c, s), (p, c, -s), (1.0 - 2.0 * p, 1.0, 0.0)])[0]
            support = {i + 1 for i in range(3) if np.any(effects[i])}
            branch = quantum_three_branch(MirrorEnsemble(theta, p))
            assert support == ({1, 2} if branch == "high-prior" else {1, 2, 3}), (theta, p)


def test_third_state_is_guessed_only_below_the_threshold_prior():
    # p*(60 deg) = 0.373: on the high-prior branch above it, E_3 = 0
    high, low = ([float(np.trace(e.matrix).real) for e in
                  optimize_three(MirrorEnsemble(math.pi / 3, p)).povm.effects] for p in (0.45, 0.3))
    assert high == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)
    # Tr E_3 = 1 - (p sin(t) cos(t) / (1 - 2p - p cos(t)^2))^2 = 1 - 0.27 / 1.69
    assert low[2] == pytest.approx(1.0 - 0.27 / 1.69, abs=1e-12)


def test_triple_with_an_indefinite_dual_is_not_scored():
    # its weights are >= 0 and its effects sum to I, a measurement, but
    # Gamma = X^-1 is indefinite, so no dual optimum: only the pairs count
    r = solve_kets((1.7204467186970536, 1.012105887261728, 2.3603568486751816),
                   (0.014922235208191139, 0.8899345397004653, 0.09514322509134346))
    assert r.evaluations == 3
    assert r.dual_bound - r.success <= 1e-15


def loop_triple(states, outcomes):
    """`oracle._triple` written as loops over k, the reference for the
    straight-line one.  Its completeness sums add left to right from 0.0,
    as sum() does before Python 3.12, whose sum() of floats compensates."""
    picked = [states[i] for i in outcomes]
    if not all(p > 0.0 for p, _, _ in picked):
        return None
    others = [(picked[k - 2][1:], picked[k - 1][1:]) for k in range(3)]
    crosses = [(xj * y - yj * x) * (xm * y - ym * x)
               for (_, x, y), ((xj, yj), (xm, ym)) in zip(picked, others)]
    if 0.0 in crosses:
        return None
    axx = axy = ayy = 0.0
    for (p, _, _), ((xj, yj), (xm, ym)), d in zip(picked, others, crosses):
        q = 1.0 / p / d
        axx, axy, ayy = axx + q * yj * ym, axy - 0.5 * q * (yj * xm + xj * ym), ayy + q * xj * xm
    det = axx * ayy - axy * axy
    if not (axx > 0.0 and det > 0.0):
        return None
    gxx, gxy, gyy = ayy / det, -axy / det, axx / det
    effects = []
    for i, (_, x, y), ((xj, yj), (xm, ym)), d in zip(outcomes, picked, others, crosses):
        w = ((gxy * xj - gxx * yj) * (gxy * xm - gxx * ym)
             + (gyy * xj - gxy * yj) * (gyy * xm - gxy * ym)) / d
        if not w >= 0.0:
            return None
        u, v = axx * x + axy * y, axy * x + ayy * y
        effects.append((i, w * u * u, w * u * v, w * v * v))
    sums = [0.0, 0.0, 0.0]
    for e in effects:
        sums = [sums[k] + e[k + 1] for k in range(3)]
    sxx, sxy, syy = sums
    if not max(abs(sxx - 1.0), abs(sxy), abs(syy - 1.0)) <= oracle.COMPLETENESS_TOL:
        return None
    return effects


def triple_cases():
    """6000 seeded (states, outcomes), each with its outcomes in a random
    order: near-trines, random triples, one prior zeroed (0.0 or -0.0) and
    two kets on one ray, all with kets of mixed signs (and, but for the
    near-trines, lengths), then mirror triples at theta from 1e-160 to 1."""
    rng = np.random.default_rng(28)
    for n in range(6000):
        kind = n % 5
        angles = rng.uniform(-math.pi, math.pi, 3)
        priors = rng.dirichlet((1.0, 1.0, 1.0)).tolist()
        if kind == 0:
            angles = angles[0] + np.array([0.0, 1.0, 2.0]) * math.pi / 3 + rng.normal(0.0, 0.05, 3)
            priors = rng.dirichlet((30.0, 30.0, 30.0)).tolist()
        scales = rng.choice([-1.0, 1.0], 3) * (1.0 if kind == 0 else rng.uniform(0.5, 2.0, 3))
        kets = [(r * math.cos(a), r * math.sin(a))
                for a, r in zip(angles.tolist(), scales.tolist())]
        if kind == 2:
            priors[n % 3] = (0.0, -0.0)[n % 2]
        elif kind == 3:
            x, y = kets[n % 3]
            kets[(n + 1) % 3] = (x, y) if n % 2 else (-x, -y)
        elif kind == 4:
            theta = float(10.0 ** rng.uniform(-160.0, 0.0))
            p = float(rng.uniform(0.0, 0.5))
            c, s = math.cos(theta), math.sin(theta)
            priors, kets = [p, p, 1.0 - 2.0 * p], [(c, s), (c, -s), (1.0, 0.0)]
        states = [(q, x, y) for q, (x, y) in zip(priors, kets)]
        yield states, tuple(rng.permutation(3).tolist())


def test_triple_matches_its_loop_form_bit_for_bit():
    # + - * / only: the same operations in the same order give the same bits
    def bits(effects):
        return None if effects is None else [(i, *map(float.hex, e)) for i, *e in effects]

    scored = 0
    for states, outcomes in triple_cases():
        reference = bits(loop_triple(states, outcomes))
        assert bits(oracle._triple(states, outcomes)) == reference, (states, outcomes)
        scored += reference is not None
    assert scored >= 1000  # most near-trines and many mirror triples have a measurement


def mirror_points():
    """theta in {0, 1e-300, pi/4, pi/2} x p in {0, p*(theta), 1/3, 1/2}, then
    1000 seeded uniform points."""
    for theta in (0.0, 1e-300, math.pi / 4, HALF_PI):
        for p in (0.0, threshold_prior(theta), 1 / 3, 0.5):
            yield theta, p
    rng = np.random.default_rng(17)
    yield from zip(rng.uniform(0.0, HALF_PI, 1000).tolist(), rng.uniform(0.0, 0.5, 1000).tolist())


def test_optimize_three_builds_the_ensembles_kets_and_priors(monkeypatch):
    seen = []

    def active_set(states):
        seen.append(states)
        return solve(states)

    solve = oracle._active_set
    monkeypatch.setattr(oracle, "_active_set", active_set)
    for theta, p in mirror_points():
        ensemble = MirrorEnsemble(theta, p)
        optimize_three(ensemble)
        table = np.array(seen.pop())
        kets, priors = table[:, 1:], table[:, 0]
        expected_kets = np.array([s.ket for s in ensemble.states()])
        expected_priors = np.array(ensemble.priors().probabilities)
        for got, expected in ((kets, expected_kets), (priors, expected_priors)):
            # bit for bit: tobytes tells -0.0 (the kets' sin(-0.0)) from 0.0
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), (theta, p)


def test_optimize_three_uses_no_numpy(monkeypatch):
    # the three-state path runs in Python floats from MirrorEnsemble to _verdict
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"oracle.np.{name} used")

    monkeypatch.setattr(oracle, "np", NoNumpy())
    for theta, p in mirror_points():
        r = optimize_three(MirrorEnsemble(theta, p))
        assert r.success - 1e-12 <= reference_three(theta, p) <= r.dual_bound + 1e-12, (theta, p)


def test_optimize_three_calls_no_numpy_linear_algebra(monkeypatch):
    # its verdict comes from _active_set's scalar scoring alone
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy linear algebra called")

    monkeypatch.setattr(oracle, "_certificate", forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, forbidden)
    assert np.linalg.eigvalsh is forbidden
    for theta, p in mirror_points():
        r = optimize_three(MirrorEnsemble(theta, p))
        assert r.success - 1e-12 <= reference_three(theta, p) <= r.dual_bound + 1e-12, (theta, p)
        assert r.success <= r.dual_bound, (theta, p)


@pytest.mark.parametrize("solve", [
    lambda: optimize_three(MirrorEnsemble(0.7, 0.2)),
    lambda: optimize_three(TRINE),
    lambda: optimize_two(make_state(0.0), make_state(0.5), 0.3),
], ids=["three", "trine", "two"])
@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_oracle_result_survives_pickle_and_deepcopy(solve, clone):
    result = solve()
    twin = clone(result)
    assert twin == result
    assert [e.matrix.tobytes() for e in twin.povm.effects] == \
        [e.matrix.tobytes() for e in result.povm.effects]
    assert all(not e.matrix.flags.writeable for e in twin.povm.effects)


@pytest.mark.parametrize("theta", [0.0, 0.7, HALF_PI])
@pytest.mark.parametrize("prior", ["0", "1/3", "p*", "1/2"])
def test_optimize_three_validates_its_povm_without_numpy(monkeypatch, theta, prior):
    # effects are checked from their rows: no numpy in qcore or in oracle
    class NoNumpy:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            raise AssertionError(f"{self.module}.np.{name} used")

    p = {"0": 0.0, "1/3": 1 / 3, "p*": threshold_prior(theta), "1/2": 0.5}[prior]
    ensemble = MirrorEnsemble(theta, p)
    expected = optimize_three(ensemble)
    with monkeypatch.context() as patch:
        patch.setattr(qcore, "np", NoNumpy("qcore"))
        patch.setattr(oracle, "np", NoNumpy("oracle"))
        result = optimize_three(ensemble)
    assert result == expected
    assert (result.success, result.dual_bound, result.evaluations) == \
        (expected.success, expected.dual_bound, expected.evaluations)
    assert [e.matrix.tobytes() for e in result.povm.effects] == \
        [e.matrix.tobytes() for e in expected.povm.effects]


@pytest.mark.parametrize("solve,match", [
    (lambda: optimize_two(make_state(0.0), make_state(1.0), 0.5, refine_iters="a"),
     "refine_iters must be >= 0, got a"),
    (lambda: optimize_two(make_state(0.0), make_state(1.0), 0.5, refine_iters=None),
     "refine_iters must be >= 0, got None"),
    (lambda: optimize_two(make_state(0.0), make_state(1.0), 0.5, refine_iters=1j),
     "refine_iters must be >= 0, got 1j"),
    (lambda: optimize_three(TRINE, grid_n=None), "got None, 200"),
    (lambda: optimize_three(TRINE, grid_n="64"), "got 64, 200"),
    (lambda: optimize_three(TRINE, refine_iters="a"), "got 64, a"),
    (lambda: optimize_three(TRINE, refine_iters=np.array([1, 2])), r"got 64, \[1 2\]"),
], ids=["two-text", "two-none", "two-complex", "three-none", "three-text",
        "three-refine-text", "three-array"])
def test_non_number_knobs_raise_value_error(solve, match):
    # the comparison with a bound raised TypeError, or numpy's ambiguous truth value
    with pytest.raises(ValueError, match=match):
        solve()
