import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesd import oracle
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


def two_case(sep, p):
    return (lambda: optimize_two(make_state(0.0), make_state(sep), p),
            [make_state(0.0).ket, make_state(sep).ket], [1.0 - p, p])


def three_case(theta, p):
    ensemble = MirrorEnsemble(theta, p)
    return (lambda: optimize_three(ensemble), [s.ket for s in ensemble.states()],
            ensemble.priors().probabilities)


# the last three had dual_bound below success by a few ulps when the success
# was scored a second time through the complex Born rule
@pytest.mark.parametrize("solve,kets,priors", [
    two_case(0.4, 0.3),
    three_case(0.7, 0.2),
    three_case(0.45039278944848277, 0.37801416068305643),
    three_case(1e-107, 0.4),
    two_case(0.6132699954853426, 0.5),
], ids=["two", "three", "three-inverted", "three-tiny-theta", "two-inverted"])
def test_reported_povm_is_the_certified_one(solve, kets, priors):
    r = solve()
    effects = np.array([e.matrix.real for e in r.povm.effects])
    value, bound = oracle._certificate(np.array(kets), np.array(priors), effects)
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
            kets = np.array([s.ket for s in ensemble.states()])
            effects = np.array([e.matrix.real for e in r.povm.effects])
            value, bound = oracle._certificate(
                kets, np.array(ensemble.priors().probabilities), effects)
            assert r.dual_bound - r.success <= 1e-13, (theta, p)
            assert abs(r.success - quantum_three(ensemble)) <= 1e-12, (theta, p)
            assert abs(value - r.success) <= 1e-15, (theta, p)
            assert bound >= r.dual_bound, (theta, p)
            assert r.success <= r.dual_bound, (theta, p)


def asymmetric_triples():
    """An ill-conditioned triple, then 3000 with angles uniform on [0, pi)
    and Dirichlet(1, 1, 1) priors."""
    yield ((2.001332399255296, 0.37708151718077787, 0.6288029319331891),
           (0.018896048274615516, 0.9022067599914836, 0.07889719173390088))
    rng = np.random.default_rng(7)
    for _ in range(3000):
        yield rng.uniform(0.0, math.pi, 3), rng.dirichlet((1.0, 1.0, 1.0))


def solve_kets(angles, priors) -> oracle.OracleResult:
    """`optimize_three`'s solver and verdict on real kets at `angles`."""
    kets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    priors = np.asarray(priors, dtype=float)
    effects, dual, evaluations = oracle._active_set(kets, priors)
    return oracle._verdict(kets, priors, effects, evaluations, dual)


def test_active_set_certifies_asymmetric_triples():
    # effects that miss I are no measurement and can beat their own dual
    # bound, so both are checked; the first triple is ill-conditioned
    for angles, priors in asymmetric_triples():
        kets, priors = np.stack([np.cos(angles), np.sin(angles)], axis=1), np.asarray(priors)
        effects, dual, evaluations = oracle._active_set(kets, priors)
        assert np.abs(effects.sum(axis=0) - np.eye(2)).max() <= 1e-9, (angles, priors)
        assert dual >= oracle._certificate(kets, priors, effects)[0] - 1e-13, (angles, priors)
        r = oracle._verdict(kets, priors, effects, evaluations, dual)
        assert r.dual_bound - r.success <= 1e-9, (angles, priors)


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
        kets = np.array([(c, s), (c, -s), (1.0, 0.0)])
        for p in (0.5 * j / 120 for j in range(1, 120)):
            effects, _, _ = oracle._active_set(kets, np.array([p, p, 1.0 - 2.0 * p]))
            support = {i + 1 for i in range(3) if effects[i].any()}
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

    def active_set(kets, priors):
        seen.append((kets, priors))
        return solve(kets, priors)

    solve = oracle._active_set
    monkeypatch.setattr(oracle, "_active_set", active_set)
    for theta, p in mirror_points():
        ensemble = MirrorEnsemble(theta, p)
        optimize_three(ensemble)
        kets, priors = seen.pop()
        expected_kets = np.array([s.ket for s in ensemble.states()])
        expected_priors = np.array(ensemble.priors().probabilities)
        for got, expected in ((kets, expected_kets), (priors, expected_priors)):
            # bit for bit: tobytes tells -0.0 (the kets' sin(-0.0)) from 0.0
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), (theta, p)
