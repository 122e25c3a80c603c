"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them)."""

import math
import time

import numpy as np

from mesd.analytic import (
    MirrorEnsemble,
    TwoStateScenario,
    advantage_three,
    advantage_two,
    helstrom_two,
    nc_three_bound,
    nc_two_bound,
    quantum_three,
    threshold_prior,
)
from mesd.cli import main
from mesd.ontic import check_three_state_bound, check_two_state_bound, random_model
from mesd.oracle import optimize_three, optimize_two
from mesd.qcore import make_state

THETA_GRID = [0.1 * k for k in range(0, 16)] + [math.pi / 2]


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_trine_optimum():
    ensemble = MirrorEnsemble(math.pi / 3, 1 / 3)
    analytic_ok = abs(quantum_three(ensemble) - 2 / 3) <= 1e-12
    start = time.perf_counter()
    result = optimize_three(ensemble)
    elapsed = time.perf_counter() - start
    oracle_ok = abs(result.success - 2 / 3) <= 1e-3
    _verdict(
        1,
        f"trine optimum 2/3: analytic diff {abs(quantum_three(ensemble) - 2/3):.2e}, "
        f"oracle diff {abs(result.success - 2/3):.2e} in {elapsed:.2f}s",
        analytic_ok and oracle_ok and elapsed < 10.0,
    )


def test_criterion_2_two_state_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 16):
        sep = k * (math.pi / 2) / 15
        s1, s2 = make_state(0.0), make_state(sep)
        c = math.cos(sep) ** 2
        for j in range(1, 20):
            p = 0.05 * j
            expected = helstrom_two(TwoStateScenario(p, c))
            result = optimize_two(s1, s2, p)
            worst = max(worst, abs(result.success - expected))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        f"two-state oracle agreement on 15x19 grid: worst {worst:.2e} in {elapsed:.1f}s",
        worst <= 1e-4 and elapsed < 30.0,
    )


def test_criterion_3_three_state_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 16):
        theta = 0.1 * k
        for j in range(11):
            p = 0.05 * j
            ensemble = MirrorEnsemble(theta, p)
            expected = quantum_three(ensemble)
            result = optimize_three(ensemble)
            worst = max(worst, abs(result.success - expected))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        f"three-state oracle agreement on 15x11 grid: worst {worst:.2e} in {elapsed:.1f}s",
        worst <= 1e-3 and elapsed < 300.0,
    )


def test_criterion_4_two_state_universal_advantage():
    interior_ok = True
    min_gap = math.inf
    for i in range(1, 100):
        p = i / 100.0
        for j in range(1, 100):
            c = j / 100.0
            gap = advantage_two(TwoStateScenario(p, c)).gap
            min_gap = min(min_gap, gap)
            if gap <= 0.0:
                interior_ok = False
    boundary_ok = True
    worst_boundary = 0.0
    edge_points = [(p / 100.0, c) for p in range(101) for c in (0.0, 1.0)]
    edge_points += [(p, c / 100.0) for p in (0.0, 1.0) for c in range(101)]
    for p, c in edge_points:
        gap = abs(advantage_two(TwoStateScenario(p, c)).gap)
        worst_boundary = max(worst_boundary, gap)
        if gap > 1e-12:
            boundary_ok = False
    _verdict(
        4,
        f"two-state gap > 0 on 99x99 interior (min {min_gap:.2e}), "
        f"= 0 on boundary (worst {worst_boundary:.2e})",
        interior_ok and boundary_ok,
    )


def test_criterion_5_restricted_three_state_advantage():
    theta = math.pi / 3

    def gap(p: float) -> float:
        return advantage_three(MirrorEnsemble(theta, p)).gap

    signs_ok = (
        gap(0.1) < 0.0
        and gap(1 / 3) < 0.0
        and gap(0.4) < 0.0
        and gap(0.48) > 0.0
        and gap(0.5) > 0.0
    )
    lo, hi = 0.4, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    root_ok = abs(root - 0.4641) <= 5e-4
    _verdict(
        5,
        f"three-state advantage restricted: signs correct, crossover at {root:.4f}",
        signs_ok and root_ok,
    )


def test_criterion_6_reductions_at_equal_pair_priors():
    worst_q = 0.0
    worst_nc = 0.0
    for theta in THETA_GRID:
        c12 = math.cos(2.0 * theta) ** 2
        q = quantum_three(MirrorEnsemble(theta, 0.5))
        worst_q = max(worst_q, abs(q - helstrom_two(TwoStateScenario(0.5, c12))))
        n = nc_three_bound(MirrorEnsemble(theta, 0.5))
        worst_nc = max(worst_nc, abs(n - (1.0 - 0.5 * c12)))
    _verdict(
        6,
        f"p=1/2 reductions to the two-state forms: worst {max(worst_q, worst_nc):.2e}",
        worst_q <= 1e-12 and worst_nc <= 1e-12,
    )


def test_criterion_7_branch_continuity():
    worst_nc = 0.0
    worst_q = 0.0
    for theta in THETA_GRID:
        c12 = math.cos(2.0 * theta) ** 2
        c13 = math.cos(theta) ** 2
        p = 1 / 3
        low = 1.0 - p * c12 - p * c13
        high = 1.0 - p * c12 - (1.0 - 2.0 * p) * c13
        worst_nc = max(worst_nc, abs(low - high))

        p_star = threshold_prior(theta)
        high_branch = p_star * (1.0 + math.sin(2.0 * theta))
        denom = 1.0 - 2.0 * p_star - p_star * math.cos(theta) ** 2
        if denom > 1e-12:
            low_branch = (
                (1.0 - 2.0 * p_star)
                * (p_star * math.sin(theta) ** 2 + denom)
                / denom
            )
            worst_q = max(worst_q, abs(high_branch - low_branch))
    _verdict(
        7,
        f"branch continuity: noncontextual at p=1/3 worst {worst_nc:.2e}, "
        f"quantum at p* worst {worst_q:.2e}",
        worst_nc <= 1e-15 and worst_q <= 1e-6,
    )


def test_criterion_8_ontic_theorem_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    all_ok = True
    worst_identity = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 33))
        if not check_two_state_bound(random_model(2, size, rng)).passed:
            all_ok = False
    for _ in range(10_000):
        size = int(rng.integers(2, 33))
        report = check_three_state_bound(random_model(3, size, rng))
        worst_identity = max(worst_identity, report.decomposition_error)
        if not (report.passed and report.decomposition_passed):
            all_ok = False
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        f"ontic bounds on 2x10^4 random models, identity worst "
        f"{worst_identity:.2e}, in {elapsed:.1f}s",
        all_ok and worst_identity <= 1e-12 and elapsed < 60.0,
    )


def test_criterion_9_cli_map_determinism(tmp_path, capsys):
    ok = True
    identical = True
    for fmt in ("csv", "json"):
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        ok &= main(["map", "--theta-steps", "61", "--prior-steps", "41",
                    "--out", str(first), "--format", fmt]) == 0
        ok &= main(["map", "--theta-steps", "61", "--prior-steps", "41",
                    "--out", str(second), "--format", fmt]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    _verdict(
        9,
        "map output byte-identical across runs, in CSV and in JSON",
        ok and identical,
    )
