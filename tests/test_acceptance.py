"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with -s) after its assertions hold at the stated tolerance."""

import time

import numpy as np
import pytest

import groupcontest as gc
from helpers import (
    BR_OPS,
    CLOSED_FORMS,
    draw_best_response_case,
    effort,
    make_spec,
    oracle_for_case,
    random_profile,
    random_spec,
    win_probability_five,
)


def _certified_solutions(seed, regime, count):
    """Seeded random specs pinned inside one existing-equilibrium
    regime, solved and certified; returns (spec, result) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        base = random_spec(rng, theta=1.0)
        cut = gc.thresholds(base)
        u = 1.0 if i % 10 == 0 else float(rng.uniform(0.05, 1.0))  # hit the boundary too
        theta = cut.theta_no_sabotage * u if regime is gc.Regime.NO_SABOTAGE else cut.theta_sabotage / u
        spec = make_spec(base.group1.valuations, base.group2.valuations, theta)
        result = gc.solve(spec)
        assert result.regime is regime
        report = gc.is_epsilon_nash(spec, result.profile, 1e-6 * spec.max_abs_valuation())
        assert report.is_epsilon_nash, (
            f"spec {spec} not certified: "
            f"{max(d.improvement for d in report.deviations):.3g}"
        )
        out.append((spec, result))
    return out


def test_criterion_01_no_sabotage_certification():
    start = time.perf_counter()
    solutions = _certified_solutions(101, gc.Regime.NO_SABOTAGE, 200)
    elapsed = time.perf_counter() - start
    assert len(solutions) == 200
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 200/200 no-sabotage solutions certified in {elapsed:.2f}s")


def test_criterion_02_sabotage_certification():
    start = time.perf_counter()
    solutions = _certified_solutions(202, gc.Regime.SABOTAGE, 200)
    elapsed = time.perf_counter() - start
    assert len(solutions) == 200
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: 200/200 sabotage solutions certified in {elapsed:.2f}s")


def test_criterion_03_symmetric_thresholds():
    for c in (0.5, 1.0, 3.0):
        spec = make_spec([c, -c], [c, -c], 1.0)
        cut = gc.thresholds(spec)
        assert cut.theta_no_sabotage == pytest.approx(0.5, rel=1e-12)
        assert cut.theta_sabotage == pytest.approx(2.0, rel=1e-12)
        regime, _ = gc.classify(spec)
        assert regime is gc.Regime.NO_PURE
    print("\nACCEPTANCE 3 PASS: symmetric cutoffs are 1/2 and 2; theta=1 has no pure equilibrium")


def test_criterion_04_threshold_ordering():
    rng = np.random.default_rng(404)
    n = 100_000
    start = time.perf_counter()
    tops = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(n, 2)))
    bots = -np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(n, 2)))
    violations = 0
    for i in range(n):
        spec = gc.ContestSpec(
            gc.GroupSpec((tops[i, 0], bots[i, 0])),
            gc.GroupSpec((tops[i, 1], bots[i, 1])),
            1.0,
        )
        cut = gc.thresholds(spec)
        if not cut.theta_no_sabotage < cut.theta_sabotage:
            violations += 1
    elapsed = time.perf_counter() - start
    for i in range(100):  # the construction really does produce valid specs
        gc.validate_spec(
            gc.ContestSpec(
                gc.GroupSpec((tops[i, 0], bots[i, 0])),
                gc.GroupSpec((tops[i, 1], bots[i, 1])),
                1.0,
            )
        )
    assert violations == 0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 PASS: 100000 specs, 0 ordering violations, {elapsed:.2f}s")


def test_criterion_05_refutation_suites():
    rng = np.random.default_rng(505)
    specs = [
        random_spec(rng, theta=float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
                    min_size=3, max_size=5)
        for _ in range(20)
    ]
    for forbidden in gc.ForbiddenClass:
        refuted = 0
        for k, spec in enumerate(specs):
            records = gc.refute_class(spec, forbidden, 5, seed=1000 + k)
            tol = 1e-9 * spec.max_abs_valuation()
            assert all(r.deviation.improvement > tol for r in records)
            refuted += len(records)
        assert refuted == 100
    print("\nACCEPTANCE 5 PASS: 100/100 samples refuted for each of the four classes")


def test_criterion_06_best_response_oracles():
    for op in BR_OPS:
        rng = np.random.default_rng(606)
        for _ in range(1000):
            params = draw_best_response_case(rng, op)
            oracle_effort, oracle_value, objective = oracle_for_case(op, params)
            effort = CLOSED_FORMS[op](params)
            assert effort == pytest.approx(oracle_effort, abs=1e-3)
            achieved = float(objective(np.array([effort]))[0])
            assert achieved == pytest.approx(oracle_value, abs=1e-6)
    print(f"\nACCEPTANCE 6 PASS: 1000 draws per rule match the grid oracle "
          f"(effort 1e-3, payoff 1e-6) for all {len(BR_OPS)} rules")


def test_criterion_07_csf_properties():
    rng = np.random.default_rng(707)
    n = 10_000

    # Normalization + branch agreement on a grid covering every sign
    # pattern, zeros included.
    z = rng.uniform(-50, 50, size=(n, 2))
    z[rng.random(n) < 0.05, 0] = 0.0
    z[rng.random(n) < 0.05, 1] = 0.0
    for z1, z2 in z:
        p1 = win_probability_five(z1, z2)
        assert 0.0 <= p1 <= 1.0
        assert 0.0 <= 1.0 - p1 <= 1.0
        assert p1 == gc.win_probability_short(z1, z2)

    # Scale invariance.
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    for (z1, z2), s in zip(z, lam):
        assert gc.win_probability_short(s * z1, s * z2) == pytest.approx(
            gc.win_probability_short(z1, z2), abs=1e-12
        )

    # Sign-correct finite differences against the analytic derivatives,
    # both quadrants (ratio-capped draws keep the second difference
    # above float cancellation noise at the pinned step size).
    p = gc.win_probability_short
    for quadrant in (1.0, -1.0):
        for _ in range(n // 2):
            z1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            z2 = z1 * float(np.exp(rng.uniform(np.log(1 / 8), np.log(8.0))))
            z1, z2 = quadrant * z1, quadrant * z2
            h = 1e-5 * max(1.0, abs(z1) + abs(z2))
            d1 = (p(z1 + h, z2) - p(z1 - h, z2)) / (2 * h)
            d2 = (p(z1 + h, z2) - 2 * p(z1, z2) + p(z1 - h, z2)) / h**2
            s = z1 + z2
            if quadrant > 0:
                assert d1 > 0 and d2 < 0
                assert d1 == pytest.approx(z2 / s**2, rel=1e-4)
                assert d2 == pytest.approx(-2 * z2 / s**3, rel=1e-4)
            else:
                assert d1 > 0 and d2 > 0
                assert d1 == pytest.approx(-z2 / s**2, rel=1e-4)
                assert d2 == pytest.approx(2 * z2 / s**3, rel=1e-4)
    print("\nACCEPTANCE 7 PASS: normalization, branch agreement, scale invariance, "
          "and derivative signs hold on the randomized grid")


def test_criterion_08_gap_dynamics_never_converge():
    spec = make_spec([1.0, -1.0], [1.0, -1.0], 1.0)
    statuses = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        initial = random_profile(rng, spec, scale=1e-3)
        order = "round_robin" if seed % 2 == 0 else "simultaneous"
        result = gc.best_response_dynamics(spec, initial, 1000, order)
        assert result.status is not gc.DynamicsStatus.CONVERGED
        statuses.append(result.status.value)
    print(f"\nACCEPTANCE 8 PASS: gap dynamics states over 10 seeds: {sorted(set(statuses))}")


def test_criterion_09_region_monotonicity():
    grid = list(np.linspace(0.05, 5.0, 100))
    small_w = gc.region_sample(1, 0.8, grid, grid)
    large_w = gc.region_sample(1, 1.2, grid, grid)
    # larger w never adds points
    assert (~(large_w.margin >= 0) | (small_w.margin >= 0)).all()
    small_theta = gc.region_sample(2, 1.0, grid, grid, theta=1.0)
    large_theta = gc.region_sample(2, 1.0, grid, grid, theta=1.6)
    # larger theta never removes points
    assert (~(small_theta.margin >= 0) | (large_theta.margin >= 0)).all()
    print("\nACCEPTANCE 9 PASS: 100x100 region sweeps are monotone in w and theta")


def test_criterion_10_spend_bound():
    solutions = _certified_solutions(110, gc.Regime.NO_SABOTAGE, 200)
    for spec, result in solutions:
        top1 = spec.group1.valuations[0]
        top2 = spec.group2.valuations[0]
        spend = (
            effort(result.profile, gc.PlayerId(1, 1)).x
            + effort(result.profile, gc.PlayerId(2, 1)).x
        )
        assert spend == pytest.approx(top1 * top2 / (top1 + top2), rel=1e-10)
        assert spend < min(top1, top2)
    print("\nACCEPTANCE 10 PASS: equilibrium spend equals v11*v21/(v11+v21) and stays "
          "below the smaller top valuation")
