import hashlib
import json
import math
import operator
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest import verify
from helpers import (
    Effort,
    _stationary as stationary_oracle,
    corpus_case,
    corpus_group,
    deviation_hex,
    effort,
    efforts,
    efforts_st,
    grid_deviation,
    make_spec,
    players,
    profile_distance,
    profile_of,
    random_profile,
    random_spec,
    reference_dynamics,
    reference_refute_class,
    residual,
    scalar_search,
    specs,
)


@pytest.fixture
def no_sabotage_spec():
    return make_spec([4, 1, -1], [4, 2, -1], 0.5)


@pytest.fixture
def sabotage_spec():
    return make_spec([1, -4], [1, -4], 2.5)


@pytest.fixture
def gap_spec():
    return make_spec([1, -1], [1, -1], 1.0)


class TestBestDeviation:
    def test_equilibrium_profile_has_no_profitable_deviation(self, no_sabotage_spec):
        profile = gc.solve(no_sabotage_spec).profile
        d = gc.best_deviation(no_sabotage_spec, profile, gc.PlayerId(1, 1))
        assert d.improvement <= 1e-9

    def test_mixed_sign_efforts_are_refuted_by_cost_cutting(self, no_sabotage_spec):
        # Own group positive, rival negative: winning is free, so any
        # positive spend by the winner can be cut.
        profile = (
            gc.StrategyProfile.zeros(no_sabotage_spec)
            .replace(gc.PlayerId(1, 1), 1.0, 0.0)
            .replace(gc.PlayerId(2, 3), 0.0, 5.0)
        )
        d = gc.best_deviation(no_sabotage_spec, profile, gc.PlayerId(1, 1))
        assert d.improvement > 0.9
        assert d.new_x < 1.0

    def test_all_zero_profile_tempts_builders(self, no_sabotage_spec):
        profile = gc.StrategyProfile.zeros(no_sabotage_spec)
        for player in (gc.PlayerId(1, 2), gc.PlayerId(2, 1)):
            d = gc.best_deviation(no_sabotage_spec, profile, player)
            assert d.improvement > 0
            assert d.new_x > 0 and d.new_y == 0

    def test_improvement_is_exact_payoff_difference(self, sabotage_spec):
        rng = np.random.default_rng(8)
        profile = random_profile(rng, sabotage_spec, scale=2.0)
        for p in players(sabotage_spec):
            d = gc.best_deviation(sabotage_spec, profile, p)
            deviated = profile.replace(p, d.new_x, d.new_y)
            diff = gc.payoff(sabotage_spec, deviated, p) - gc.payoff(sabotage_spec, profile, p)
            assert d.improvement == diff
            assert d.improvement >= 0

    def test_applying_deviation_never_increases_next_improvement(self, gap_spec):
        rng = np.random.default_rng(9)
        for _ in range(10):
            profile = random_profile(rng, gap_spec, scale=1.5)
            for p in players(gap_spec):
                d = gc.best_deviation(gap_spec, profile, p)
                after = profile.replace(p, d.new_x, d.new_y)
                again = gc.best_deviation(gap_spec, after, p)
                assert again.improvement <= d.improvement + 1e-12

    def test_search_matches_fine_brute_force(self, no_sabotage_spec):
        # A deviation never benefits from straddling (for a fixed
        # effective contribution the cheap way funds one axis only), so
        # a very fine per-axis scan is a true optimum oracle.  The
        # candidate search must come within a coarse-grid step of it.
        spec = no_sabotage_spec
        rng = np.random.default_rng(13)
        for _ in range(5):
            profile = random_profile(rng, spec, scale=3.0)
            for p in players(spec):
                v = gc.valuation(spec, p)
                _, z_minus, z_other = residual(spec, profile, p)
                e = effort(profile, p)
                reach = 4.0 * (spec.max_abs_valuation() + abs(z_minus) + abs(z_other))
                grid = np.linspace(0.0, reach, 200_001)
                zeros = np.zeros_like(grid)
                best = max(
                    np.max(v * gc.p1_values(z_minus + grid, z_other) - grid),
                    np.max(v * gc.p1_values(z_minus - spec.theta * grid, z_other) - grid),
                    v * float(gc.p1_values(z_minus + e.x - spec.theta * e.y, z_other))
                    - e.x - e.y,
                )
                brute_improvement = best - gc.payoff(spec, profile, p)
                d = gc.best_deviation(spec, profile, p)
                assert d.improvement >= brute_improvement - 1e-6 * spec.max_abs_valuation()

    def test_thresholds_bracket_the_refutation_mechanism(self):
        # Just past the lower cutoff the no-sabotage profile falls to a
        # sabotage deviation by a bottom player; just below the upper
        # cutoff the all-sabotage profile falls to a constructive
        # deviation by a top player.
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(20):
            base = random_spec(rng)
            cut = gc.thresholds(base)
            vals = (base.group1.valuations, base.group2.valuations)
            if cut.theta_sabotage / cut.theta_no_sabotage < 1.2:
                continue
            checked += 1

            inside = make_spec(*vals, 1.08 * cut.theta_no_sabotage)
            would_be = gc.solve(make_spec(*vals, cut.theta_no_sabotage)).profile
            report = gc.is_epsilon_nash(inside, would_be)
            assert not report.is_epsilon_nash
            culprit = max(report.deviations, key=lambda d: d.improvement)
            assert gc.valuation(inside, culprit.player) < 0 and culprit.new_y > 0

            inside = make_spec(*vals, cut.theta_sabotage / 1.08)
            would_be = gc.solve(make_spec(*vals, cut.theta_sabotage)).profile
            report = gc.is_epsilon_nash(inside, would_be)
            assert not report.is_epsilon_nash
            culprit = max(report.deviations, key=lambda d: d.improvement)
            assert gc.valuation(inside, culprit.player) > 0 and culprit.new_x > 0
        assert checked >= 10

    def test_players_verify_concurrently(self, sabotage_spec):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(15)
        profile = random_profile(rng, sabotage_spec, scale=2.0)
        roster = list(players(sabotage_spec))
        sequential = [gc.best_deviation(sabotage_spec, profile, p) for p in roster]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda p: gc.best_deviation(sabotage_spec, profile, p), roster)
            )
        assert parallel == sequential


def _offset_to_zero(spec, profile, group, t):
    """Top player builds theta*t, bottom player sabotages t: the
    group's effective effort is exactly 0."""
    profile = profile.replace(gc.PlayerId(group, 1), spec.theta * t, 0.0)
    return profile.replace(gc.PlayerId(group, spec.group(group).size), 0.0, t)


@st.composite
def search_cases(draw):
    """A spec and a profile whose efforts mix x and y freely; half the
    time one group's effective effort is exactly 0, by idleness or by
    offsetting efforts."""
    spec = draw(specs())
    profile = gc.StrategyProfile.zeros(spec)
    for p in players(spec):
        profile = profile.replace(p, draw(efforts_st), draw(efforts_st))
    zero = draw(st.sampled_from([None, "idle", "offset"]))
    if zero is not None:
        g = draw(st.integers(1, 2))
        for k in range(1, spec.group(g).size + 1):
            profile = profile.replace(gc.PlayerId(g, k), 0.0, 0.0)
        if zero == "offset":
            profile = _offset_to_zero(spec, profile, g, draw(st.floats(1e-3, 50.0)))
    return spec, profile


def _magnitudes(lo: int, hi: int):
    """Floats in [2**(lo - 1), 2**hi)."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(lo, hi))


@st.composite
def wide_scale_cases(draw):
    """A valid spec whose valuations within one group may span 2**-1000
    to 2**1000, and a profile of efforts from 0 and the subnormals up to
    the float range's edge whose groups' effective efforts are finite."""

    def group():
        pos, neg = (
            sorted(draw(st.lists(_magnitudes(-1000, 1000), min_size=1, max_size=3, unique=True)))
            for _ in "+-"
        )
        return [*reversed(pos), *(-v for v in neg)]

    spec = make_spec(group(), group(), draw(_magnitudes(-60, 60)))
    effort = st.one_of(st.just(0.0), _magnitudes(-1074, 1024))
    profile = profile_of(
        tuple(tuple(Effort(draw(effort), draw(effort)) for _ in range(n)) for n in spec.sizes())
    )
    eff = gc.effective_efforts(spec, profile)
    assume(math.isfinite(eff.z1) and math.isfinite(eff.z2))
    return spec, profile


class TestExactSearch:
    @settings(max_examples=60)
    @given(wide_scale_cases())
    def test_any_scale_raises_nothing(self, case):
        spec, profile = case
        report = gc.is_epsilon_nash(spec, profile)
        for d in report.deviations:
            assert gc.best_deviation(spec, profile, d.player) == d
        for order in ("round_robin", "simultaneous"):
            gc.best_response_dynamics(spec, profile, 1, order)

    @given(search_cases())
    def test_dense_grid_oracle_never_beats_the_search(self, case):
        spec, profile = case
        tol = 1e-12 * spec.max_abs_valuation()
        report = gc.is_epsilon_nash(spec, profile)
        assert report.candidate_count <= 5 * len(report.deviations)
        for d in report.deviations:
            assert d == gc.best_deviation(spec, profile, d.player)
            _, _, oracle = grid_deviation(spec, profile, d.player)
            assert oracle <= d.improvement + tol

    def test_limit_point_when_both_groups_offset_to_zero(self, no_sabotage_spec):
        # Offsets small enough that dropping them never pays: every
        # player's supremum is |v|/2 beyond staying put, approached just
        # past her kink and never attained.
        spec = no_sabotage_spec
        profile = gc.StrategyProfile.zeros(spec)
        profile = _offset_to_zero(spec, _offset_to_zero(spec, profile, 1, 3e-3), 2, 5e-3)
        assert gc.effective_efforts(spec, profile).z1 == 0.0
        for d in gc.is_epsilon_nash(spec, profile).deviations:
            v = gc.valuation(spec, d.player)
            assert d.improvement == pytest.approx(abs(v) / 2, rel=1e-12)
            assert residual(spec, profile.replace(d.player, d.new_x, d.new_y), d.player).z * v > 0
            assert (d.new_y == 0.0) if v > 0 else (d.new_x == 0.0)

    @pytest.mark.parametrize("z_other", [0.0, 1e-200, -1e-200])
    def test_limit_point_survives_large_cancelling_efforts(self, z_other):
        # Group 1's extreme players hold huge offsetting efforts, so a
        # step past the kink of one ulp of the valuation would round
        # away in the group sum.  The middle players can still move the
        # group's winning probability to 0 or 1 at negligible cost.
        spec = make_spec([4, 1, -1, -2], [4, 2, -1], 0.5)
        profile = _offset_to_zero(spec, gc.StrategyProfile.zeros(spec), 1, 1e9)
        profile = profile.replace(gc.PlayerId(2, 1), max(z_other, 0.0), 0.0)
        profile = profile.replace(gc.PlayerId(2, 3), 0.0, max(-z_other, 0.0) / spec.theta)
        eff = gc.effective_efforts(spec, profile)
        p_now = gc.win_probability_short(eff.z1, eff.z2)
        for p in (gc.PlayerId(1, 2), gc.PlayerId(1, 3)):
            v = gc.valuation(spec, p)
            gain = v * (1.0 - p_now) if v > 0 else -v * p_now
            d = gc.best_deviation(spec, profile, p)
            assert d.improvement == pytest.approx(gain, abs=1e-6)
            if gain > 0:
                z = gc.effective_efforts(spec, profile.replace(p, d.new_x, d.new_y)).z1
                assert z * v > 0

    @pytest.mark.parametrize("k", [-600, 600])
    def test_stationary_point_at_extreme_scale(self, k):
        # v * z_other would overflow (k > 0) or underflow (k < 0) unscaled.
        s = math.ldexp(1.0, k)
        spec = make_spec([4 * s, 1 * s, -1 * s], [4 * s, 2 * s, -1 * s], 0.5)
        profile = gc.solve(spec).profile
        top = gc.PlayerId(1, 1)
        d = gc.best_deviation(spec, profile.replace(top, 1.5 * s, 0.0), top)
        assert d.new_x == s and d.improvement > 0

    def test_kink_beyond_the_float_range_is_no_candidate(self):
        # Neutralizing 1e10 of building takes 1e310 of sabotage at this theta.
        spec = make_spec([1, -1], [1, -1], 1e-300)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(1, 1), 1e10, 0.0)
        d = gc.best_deviation(spec, profile, gc.PlayerId(1, 2))
        assert (d.new_x, d.new_y, d.improvement) == (0.0, 0.0, 0.0)

    def test_huge_opposite_efforts_keep_finite_odds(self):
        # |z1| + |z2| overflows: the odds come from the halved efforts, so
        # dropping 1e308 of building, which still wins, gains 1e308.
        spec = make_spec([1, -1], [1, -1], 1.0)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(1, 1), 1e308, 0.0)
        profile = profile.replace(gc.PlayerId(2, 2), 0.0, 1e308)
        d = gc.is_epsilon_nash(spec, profile).deviations[0]
        assert (d.player, d.new_x, d.new_y, d.improvement) == (gc.PlayerId(1, 1), 0.0, 0.0, 1e308)
        deviated = profile.replace(d.player, d.new_x, d.new_y)
        assert d.improvement == gc.payoff(spec, deviated, d.player) - gc.payoff(
            spec, profile, d.player
        )

    @pytest.mark.parametrize("rival_y", [1e8, 1e6])
    def test_candidate_with_overflowing_group_sum_is_cut_back(self, rival_y):
        # Player (1, 2)'s stationary sabotage, about 1e154 at theta 1e300,
        # takes her group's effective effort below -1e308.  Her payoff
        # rises all the way to the float range's edge, so the best effort
        # is the largest y whose theta * y is finite.  A rival y of 1e8
        # searches on z_minus - theta * y, 1e6 inside the rounding band.
        spec = make_spec([1e300, -1e300], [1e300, -1e300], 1e300)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(1, 1), 1e308, 0.0)
        profile = profile.replace(gc.PlayerId(2, 2), 0.0, rival_y)
        player = gc.PlayerId(1, 2)
        d = gc.best_deviation(spec, profile, player)
        assert d.new_x == 0.0
        assert math.isfinite(1e300 * d.new_y)
        assert 1e300 * math.nextafter(d.new_y, math.inf) == math.inf
        now = gc.payoff(spec, profile, player)
        deviated = profile.replace(player, d.new_x, d.new_y)
        assert d.improvement == gc.payoff(spec, deviated, player) - now
        probe = profile.replace(player, 0.0, 1.7e8)
        assert d.improvement > gc.payoff(spec, probe, player) - now > 4e299
        report = gc.is_epsilon_nash(spec, profile)
        assert report.deviations[1] == d
        for p, found in zip(players(spec), report.deviations):
            assert deviation_hex(scalar_search(spec, profile, p)[0]) == (
                deviation_hex(found)
            )

    def test_kink_that_overflows_the_plain_y_sum_is_cut_back(self):
        # At theta 0.75 * 2**-57, player (2, 5)'s kink is the largest float:
        # theta times it stays far from the float range's edge, but the plain
        # sum of her group's y column, which the group sum takes before
        # scaling it by theta, overflows.  The rival group is idle, so the
        # search scores the limit point on the rebuilt group sum.
        spec = make_spec([0.5, -0.5], [0.875, 0.75, 0.5, -0.5, -0.75, -0.875],
                         math.ldexp(0.75, -57))
        profile = gc.StrategyProfile.zeros(spec)
        profile = profile.replace(gc.PlayerId(2, 4), 0.0, math.ldexp(0.5, 972))
        profile = profile.replace(gc.PlayerId(2, 6), math.ldexp(0.75, 967), 0.0)
        report = gc.is_epsilon_nash(spec, profile)
        for p, found in zip(players(spec), report.deviations):
            assert found == gc.best_deviation(spec, profile, p)
            deviated = profile.replace(p, found.new_x, found.new_y)
            assert math.isfinite(gc.effective_efforts(spec, deviated).z2)
        for order in ("round_robin", "simultaneous"):
            gc.best_response_dynamics(spec, profile, 1, order)

    def test_valuations_beyond_one_scale(self):
        # Player (1, 2)'s valuation, rival effort and residual 1e300 span
        # more than the float range: scaled together, v underflows to 0.
        spec = make_spec([1e300, 1e-300, -1], [1, -1], 1.0)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(1, 1), 1e300, 0.0)
        profile = profile.replace(gc.PlayerId(2, 1), 1e-300, 0.0)
        d = gc.best_deviation(spec, profile, gc.PlayerId(1, 2))
        assert (d.new_x, d.new_y, d.improvement) == (0.0, 0.0, 0.0)
        assert gc.is_epsilon_nash(spec, profile).deviations[1] == d

    @pytest.mark.parametrize("v,z_minus,z_other", [(1e-300, -1e31, 1e30), (-1e-300, 1e31, -1e30)])
    def test_stationary_point_scales_v_and_z_other_apart(self, v, z_minus, z_other):
        # sqrt(v * z_other) is 1e-135, far below the rounding of
        # |z_minus| - |z_other| = 9e30, which is the stationary effort.
        assert verify._stationary(v, 1.0, z_minus, z_other) == 9e30

    def test_refutes_every_class_on_random_specs(self):
        rng = np.random.default_rng(31)
        refuted = 0
        for i in range(200):
            theta = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            spec = random_spec(rng, theta=theta, max_size=5)
            for forbidden in gc.ForbiddenClass:
                try:
                    refuted += len(gc.refute_class(spec, forbidden, 2, seed=i))
                except gc.ClassUnsatisfiable:
                    pass
        assert refuted > 1000

    # Efforts reach down to 1e-200 (about 2**-664): from 2**-300 up every
    # scaled value stays a normal float, where power-of-two scaling is exact.
    @given(search_cases(), st.integers(-300, 600))
    def test_search_scales_exactly_with_powers_of_two(self, case, k):
        spec, profile = case
        big = make_spec(
            *([math.ldexp(v, k) for v in g.valuations] for g in (spec.group1, spec.group2)),
            spec.theta,
        )
        doc = gc.profile_to_dict(profile)
        for group in doc["efforts"]:
            for e in group:
                e["x"], e["y"] = math.ldexp(e["x"], k), math.ldexp(e["y"], k)
        scaled = gc.profile_from_dict(doc)
        for p in players(spec):
            d, f = gc.best_deviation(spec, profile, p), gc.best_deviation(big, scaled, p)
            assert (f.new_x, f.new_y) == (math.ldexp(d.new_x, k), math.ldexp(d.new_y, k))
            assert f.improvement == math.ldexp(d.improvement, k)


@st.composite
def group_search_cases(draw):
    """A spec with 2 to 40 players per group at valuation scale 2**k,
    k in [-600, 600], and a profile where every player mixes x and y or
    a few players are active; sometimes one group is idle, offset to an
    effective effort of exactly 0, or offset to within rounding of 0."""
    k = draw(st.integers(-600, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = [corpus_group(rng, draw(st.integers(2, 40)), math.ldexp(1.0, k)) for _ in "12"]
    spec = make_spec(*vals, draw(st.floats(0.01, 100.0)))
    roster = list(players(spec))
    if draw(st.booleans()):
        active = roster
    else:
        active = draw(st.lists(st.sampled_from(roster), min_size=1, max_size=3, unique=True))
    profile = gc.StrategyProfile.zeros(spec)
    for p in active:
        profile = profile.replace(
            p, math.ldexp(draw(efforts_st), k), math.ldexp(draw(efforts_st), k)
        )
    band = draw(st.sampled_from([None, "idle", "offset", "in_band"]))
    if band is not None:
        g = draw(st.integers(1, 2))
        for i in range(1, spec.group(g).size + 1):
            profile = profile.replace(gc.PlayerId(g, i), 0.0, 0.0)
        if band != "idle":
            t = math.ldexp(draw(st.floats(1e-3, 50.0)), k)
            slack = t * draw(st.floats(1e-9, 1e-3)) if band == "in_band" else 0.0
            profile = profile.replace(gc.PlayerId(g, 1), spec.theta * t + slack, 0.0)
            profile = profile.replace(gc.PlayerId(g, spec.group(g).size), 0.0, t)
    return spec, profile


def _count_calls(monkeypatch) -> list[str]:
    """Record each call of ``effective_efforts``, through every binding of
    it in the package, and of ``StrategyProfile.replace``."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    effective = counted("effective_efforts", gc.effective_efforts)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "groupcontest" and hasattr(module, "effective_efforts"):
            monkeypatch.setattr(module, "effective_efforts", effective)
    monkeypatch.setattr(
        gc.StrategyProfile, "replace", counted("replace", gc.StrategyProfile.replace)
    )
    return calls


def _hash_report(h, r) -> None:
    h.update(f"{r.is_epsilon_nash}:{r.epsilon.hex()}:{r.candidate_count}\n".encode())
    for d in r.deviations:
        h.update(f"{deviation_hex(d)}\n".encode())


def _profile_hex(profile) -> str:
    return " ".join(f"{e.x.hex()},{e.y.hex()}" for g in efforts(profile) for e in g)


def _verification_digest(cases: int, seed: int) -> str:
    """SHA-256 over every verdict, candidate count and deviation that
    ``is_epsilon_nash`` reports on a seeded corpus, plus two players'
    ``best_deviation`` per profile, every float written exactly."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(cases):
        spec, profile = corpus_case(rng)
        _hash_report(h, gc.is_epsilon_nash(spec, profile))
        roster = list(players(spec))
        for j in rng.choice(len(roster), size=2, replace=False):
            d = gc.best_deviation(spec, profile, roster[int(j)])
            h.update(f"{deviation_hex(d)}\n".encode())
    return h.hexdigest()


def _reference_run(spec, initial, max_iters: int, order: str):
    """``reference_dynamics``' run, once ``best_response_dynamics`` is
    checked to agree with it on every field it returns, bit for bit."""
    got = gc.best_response_dynamics(spec, initial, max_iters, order)
    want = reference_dynamics(spec, initial, max_iters, order)
    assert (got.status, got.iterations, got.period) == (want.status, want.iterations, want.period)
    assert _profile_hex(got.profile) == _profile_hex(want.profile)
    assert type(got.last_delta) is float
    assert got.last_delta.hex() == want.last_delta.hex()
    return want


def _dynamics_digest(runs: int, seed: int) -> str:
    """SHA-256 over status, iterations, period and every trajectory
    profile of dynamics from seeded jitter on small specs at valuation
    scales 2**k, alternating round-robin and simultaneous play.  The
    profiles are the reference's, which keeps them all."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for i in range(runs):
        s = math.ldexp(1.0, int(rng.integers(-600, 601)))
        n1, n2 = (int(n) for n in rng.integers(2, 6, 2))
        theta = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        spec = make_spec(corpus_group(rng, n1, s), corpus_group(rng, n2, s), theta)
        initial = random_profile(rng, spec, scale=1e-3 * s)
        r = _reference_run(spec, initial, 40, ("round_robin", "simultaneous")[i % 2])
        h.update(f"{r.status.value}:{r.iterations}:{r.period}\n".encode())
        for profile in r.trajectory:
            h.update(f"{_profile_hex(profile)}\n".encode())
    return h.hexdigest()


def _refutation_digest(specs: int, seed: int) -> str:
    """SHA-256 over every sampled profile and refuting deviation that
    ``refute_class`` returns for each forbidden class on seeded specs at
    valuation scales 2**k, every float written exactly."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for i in range(specs):
        s = math.ldexp(1.0, int(rng.integers(-600, 601)))
        theta = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        spec = make_spec(*(corpus_group(rng, int(rng.integers(2, 7)), s) for _ in "12"), theta)
        for forbidden in gc.ForbiddenClass:
            try:
                records = gc.refute_class(spec, forbidden, 3, seed=i)
            except gc.ClassUnsatisfiable:
                h.update(f"{forbidden.value}:unsatisfiable\n".encode())
                continue
            for r in records:
                h.update(
                    f"{forbidden.value}:{_profile_hex(r.profile)}:{deviation_hex(r.deviation)}\n"
                    .encode()
                )
    return h.hexdigest()


# Finite floats, +-0.0 and subnormals included, some near 2**+-1000, in
# pairs that are either drawn apart or within about CYCLE_TOL of each other.
wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        math.ldexp,
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        st.one_of(st.integers(-1074, -990), st.integers(990, 1024)),
    ),
)
effort_pairs = st.one_of(
    st.tuples(wide_floats, wide_floats),
    st.tuples(wide_floats, st.floats(-2e-6, 2e-6)).map(lambda p: (p[0], p[0] + p[1])),
)


def row_gap(a, b) -> float:
    """The largest change between two rows of efforts, as the dynamics
    cycle check takes it."""
    return max(map(abs, map(operator.sub, a, b)))


def _ladder_spec(n: int) -> gc.ContestSpec:
    """n players a group, valued n down to n/2 + 1 and -1 down to -n/2,
    theta 1."""
    vals = [float(v) for v in range(n, n // 2, -1)] + [-float(v) for v in range(1, n // 2 + 1)]
    return make_spec(vals, vals, 1.0)


class TestGroupSearch:
    """The group-at-once search reproduces the player-by-player search
    bit for bit.  The digests were computed with the player-by-player
    search, before the group-at-once one replaced it."""

    @settings(max_examples=25)
    @given(group_search_cases(), st.data())
    def test_matches_player_by_player_oracle(self, case, data):
        spec, profile = case
        expected = [scalar_search(spec, profile, p) for p in players(spec)]
        report = gc.is_epsilon_nash(spec, profile)
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d, _ in expected
        ]
        assert report.candidate_count == sum(n for _, n in expected)
        assert report.is_epsilon_nash == all(d.improvement <= report.epsilon for d, _ in expected)
        for d, _ in data.draw(st.lists(st.sampled_from(expected), min_size=1, max_size=4)):
            assert deviation_hex(gc.best_deviation(spec, profile, d.player)) == deviation_hex(d)

    def test_verification_golden_digest(self):
        assert _verification_digest(150, 2026) == (
            "f3458834ebc962aa4d847122dc62dff4118a9fafeac306200bf53732419069ba"
        )

    def test_dynamics_golden_digest(self):
        assert _dynamics_digest(40, 2027) == (
            "adc96e729c3886ad1ad66e6be6ff1efa6ad4416e35bdb4e35688fb421547e461"
        )

    # Every effort of a 2x200 ladder uniform in [0, 2] leaves both groups
    # inside the rounding band, as does the all-zero 2x400 ladder, so no
    # group goes to the arrays.  The digests were computed while the
    # search still took its group values from ``effective_efforts``.
    @pytest.mark.parametrize(
        "n,seed,digest",
        [
            (400, None, "b85ad74cb6cacc5b0601ca219cb202b236eaf5316e9053293add46d78d781e17"),
            (200, 0, "aec4b69a048e906d76664849b3583333df9ce246345b3bef9a132d1c87e7bdfa"),
        ],
        ids=["zero_2x400", "mixed_2x200"],
    )
    def test_in_band_golden_digest(self, n, seed, digest):
        spec = _ladder_spec(n)
        if seed is None:
            profile = gc.StrategyProfile.zeros(spec)
        else:
            profile = random_profile(np.random.default_rng(seed), spec, scale=2.0)
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count == 0
        h = hashlib.sha256()
        _hash_report(h, report)
        assert h.hexdigest() == digest

    def test_large_in_band_group_matches_oracle(self):
        # Past ARRAY_MIN_PLAYERS, but inside the band: the scalar loop.
        spec = _ladder_spec(50)
        profile = random_profile(np.random.default_rng(1), spec, scale=2.0)
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count == 0
        expected = [scalar_search(spec, profile, p) for p in players(spec)]
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d, _ in expected
        ]
        assert report.candidate_count == sum(n for _, n in expected)

    def test_non_finite_group_sum_is_refused(self, no_sabotage_spec):
        big = gc.StrategyProfile.zeros(no_sabotage_spec)
        for k in (1, 2):
            big = big.replace(gc.PlayerId(1, k), 1e308, 0.0)
        with pytest.raises(gc.NonFiniteInput):
            gc.is_epsilon_nash(no_sabotage_spec, big)
        with pytest.raises(gc.NonFiniteInput):
            gc.best_deviation(no_sabotage_spec, big, gc.PlayerId(2, 1))

    def test_unknown_player(self, no_sabotage_spec):
        profile = gc.StrategyProfile.zeros(no_sabotage_spec)
        for player in (gc.PlayerId(1, 0), gc.PlayerId(1, 4), gc.PlayerId(3, 1)):
            with pytest.raises(gc.UnknownPlayer):
                gc.best_deviation(no_sabotage_spec, profile, player)


ARRAY_KINDS = ("closed_form", "perturbed", "mixed", "sparse", "far_kink")


@st.composite
def array_search_cases(draw):
    """A spec with ARRAY_MIN_PLAYERS to 200 players per group at valuation
    scale 2**k and a profile of one of ``ARRAY_KINDS``: the closed-form
    equilibrium or every effort of it times 1.5, every player mixing x
    and y (many improvers), a few players active on their own axis, or
    builders only under a theta so small that every saboteur's kink lies
    beyond the float range.  In the last two, one group's efforts are
    2**12 times the other's: with this many active players a group is
    outside the rounding band only against a much larger rival effort.
    The far kinks make ``_search_array`` decline, so ``far_kink`` profiles
    exercise the scalar loop's cut-backs for groups of array size."""
    kind = draw(st.sampled_from(ARRAY_KINDS))
    k = draw(st.integers(100 if kind == "far_kink" else -600, 600))
    s = math.ldexp(1.0, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.integers(verify.ARRAY_MIN_PLAYERS, 200)
    vals = [corpus_group(rng, draw(sizes), s) for _ in "12"]
    if kind in ("closed_form", "perturbed"):
        cut = gc.thresholds(make_spec(*vals, 1.0))
        theta = cut.theta_no_sabotage / 2 if draw(st.booleans()) else 2 * cut.theta_sabotage
    elif kind == "far_kink":
        theta = math.ldexp(1.0, -1000)
    else:
        theta = draw(st.floats(0.05, 20.0))
    spec = make_spec(*vals, theta)
    if kind in ("closed_form", "perturbed"):
        factor = 1.5 if kind == "perturbed" else 1.0
        solved = efforts(gc.solve(spec).profile)
        pairs = [[(factor * e.x, factor * e.y) for e in g] for g in solved]
    elif kind == "sparse":
        pairs = [[(0.0, 0.0)] * len(g) for g in vals]
        for _ in range(3):
            g = int(rng.integers(2))
            i = int(rng.integers(len(vals[g])))
            e = s * float(rng.uniform(1e-3, 10.0))
            pairs[g][i] = (e, 0.0) if vals[g][i] > 0 else (0.0, e / theta)
    else:
        big = draw(st.integers(0, 1))
        pairs = [
            [tuple(s * float(rng.uniform(0, 2)) if rng.random() < 0.6 else 0.0 for _ in "xy")
             for _ in g]
            for g in vals
        ]
        pairs[big] = [(x * 2**12, y * 2**12) for x, y in pairs[big]]
        if kind == "far_kink":
            pairs = [[(x, 0.0) for x, _ in g] for g in pairs]
    return spec, profile_of(pairs)


TIE_KINDS = ("dyadic", "stationary", "at_kink", "idle", "far_kink")


def _dyadic_group(draw, n: int, s: float) -> list[float]:
    """n valid valuations that are multiples of s/4, interior ties allowed."""
    n_pos = draw(st.integers(1, n - 1))
    mags = st.integers(1, 32)
    pos = sorted(draw(st.lists(mags, min_size=n_pos, max_size=n_pos)), reverse=True)
    neg = sorted(draw(st.lists(mags, min_size=n - n_pos, max_size=n - n_pos)))
    pos[0] += 1
    neg[-1] += 1
    return [s * m / 4 for m in pos] + [-s * m / 4 for m in neg]


@st.composite
def tie_prone_cases(draw):
    """2 to 12 players per group at valuation scale 2**k and a profile
    prone to score ties, one of ``TIE_KINDS``: dyadic valuations and
    efforts, some 2**-60 of the scale so that they vanish beside a
    payoff; the same with one player moved to its own stationary point;
    a top player whose stationary point is its kink (the rival's effort
    equals its valuation, its own group sabotages); one group idle; or
    builders only under theta = 2**-1000, so every saboteur's kink lies
    beyond the float range."""
    kind = draw(st.sampled_from(TIE_KINDS))
    k = draw(st.integers(100 if kind == "far_kink" else -600, 600))
    s = math.ldexp(1.0, k)
    vals = [_dyadic_group(draw, draw(st.integers(2, 12)), s) for _ in "12"]
    if kind == "far_kink":
        theta = math.ldexp(1.0, -1000)
    else:
        theta = math.ldexp(draw(st.integers(1, 32)), -draw(st.integers(0, 4)))
    spec = make_spec(*vals, theta)
    dyadic = st.sampled_from([0.0, 0.0, 2.0**-60, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
    efforts = [[[s * draw(dyadic), s * draw(dyadic)] for _ in g] for g in vals]
    if kind == "far_kink":
        efforts = [[[x, 0.0] for x, _ in g] for g in efforts]
    elif kind == "idle":
        g = draw(st.integers(0, 1))
        efforts[g] = [[0.0, 0.0] for _ in vals[g]]
    elif kind == "at_kink":
        g = draw(st.integers(0, 1))
        efforts[g] = [[0.0, 0.0] for _ in vals[g]]
        efforts[g][-1][1] = s * draw(dyadic.filter(bool))
        efforts[1 - g] = [[0.0, 0.0] for _ in vals[1 - g]]
        efforts[1 - g][0][0] = vals[g][0]
    profile = profile_of(efforts)
    if kind == "stationary":
        p = draw(st.sampled_from(list(players(spec))))
        _, z_minus, z_other = residual(spec, profile, p)
        e = verify._stationary(gc.valuation(spec, p), theta, z_minus, z_other)
        if math.isfinite(e):
            profile = profile.replace(p, *verify._on_axis(gc.valuation(spec, p), e))
    return spec, profile


# Player (2, 2) scores the candidates 0 and x = 0.5 equal to the last bit:
# the search must pick the first of tied scores.
TIED_SCORES = (
    make_spec([0.5, -0.25, -0.25, -0.25, -0.25, -0.25, -0.5],
              [3.25, 3.0, 0.25, -0.25, -0.25, -0.25, -0.5], 1.0),
    gc.StrategyProfile(
        ((0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 1.5)),
        ((0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0), (0.0, 0.25, 2.0, 0.0, 0.0, 0.5, 0.0)),
    ),
)


def _certify_large_group(rng: np.random.Generator, half: int) -> list[float]:
    """``half`` positive then ``half`` negative valuations, descending,
    the top one 2 to 8 and the bottom one -2 to -8."""
    top, bottom = rng.uniform(2.0, 8.0), -rng.uniform(2.0, 8.0)
    pos = np.sort(rng.uniform(0.05, 0.95, half - 1) * top)[::-1]
    neg = np.sort(rng.uniform(0.05, 0.95, half - 1) * -bottom)
    return [float(v) for v in (top, *pos, *(-neg), bottom)]


def _large_regime_reports(seeds):
    """``is_epsilon_nash`` at 100 + 100 players per group, theta at half
    the lower cutoff and at twice the upper one, on the closed-form
    profile and on every effort of it times 1.5."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        vals = [_certify_large_group(rng, 100) for _ in "12"]
        cut = gc.thresholds(make_spec(*vals, 1.0))
        for theta in (cut.theta_no_sabotage / 2, 2 * cut.theta_sabotage):
            spec = make_spec(*vals, theta)
            solved = gc.solve(spec).profile
            for factor in (1.0, 1.5):
                profile = gc.StrategyProfile(
                    tuple(tuple(factor * x for x in g) for g in solved.xs),
                    tuple(tuple(factor * y for y in g) for g in solved.ys),
                )
                yield gc.is_epsilon_nash(spec, profile)


VERIFICATION_GOLDEN = "f3458834ebc962aa4d847122dc62dff4118a9fafeac306200bf53732419069ba"


class TestArraySearch:
    """Groups of ``ARRAY_MIN_PLAYERS`` or more players outside the rounding
    band are searched on arrays, with the scalar loop's results bit for
    bit."""

    @settings(max_examples=40)
    @given(array_search_cases(), st.data())
    def test_matches_player_by_player_oracle(self, case, data):
        spec, profile = case
        expected = [scalar_search(spec, profile, p) for p in players(spec)]
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count >= 1
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d, _ in expected
        ]
        assert report.candidate_count == sum(n for _, n in expected)
        # One player's search takes the scalar path at any group size.
        for d, _ in data.draw(st.lists(st.sampled_from(expected), min_size=1, max_size=4)):
            assert deviation_hex(gc.best_deviation(spec, profile, d.player)) == deviation_hex(d)

    def test_verification_golden_digest_on_arrays(self, monkeypatch):
        monkeypatch.setattr(verify, "ARRAY_MIN_PLAYERS", 2)
        assert _verification_digest(150, 2026) == VERIFICATION_GOLDEN

    # Computed with the array search that selected by three passes of
    # np.where, before the score matrix replaced them.  No call declines:
    # these are the benchmark's large groups, at 100 a group.
    def test_large_regime_golden_digest(self):
        h = hashlib.sha256()
        with _array_calls() as calls:
            for report in _large_regime_reports(range(3)):
                _hash_report(h, report)
        assert len(calls) == 12  # one per report: both groups in one call
        assert all(scored is not None for _, scored in calls)
        assert h.hexdigest() == (
            "87232047cadd239cc6625614fe884955a6dd05fad310ab5e810ba55f33edd7b9"
        )

    @settings(max_examples=150)
    @given(tie_prone_cases())
    @example(TIED_SCORES)
    def test_tie_prone_profiles_match_the_scalar_loop(self, case):
        spec, profile = case
        with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 2):
            arrays = gc.is_epsilon_nash(spec, profile)
        with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 10**9):
            scalar = gc.is_epsilon_nash(spec, profile)
        assert [deviation_hex(d) for d in arrays.deviations] == [
            deviation_hex(d) for d in scalar.deviations
        ]
        assert arrays.candidate_count == scalar.candidate_count
        assert arrays.is_epsilon_nash == scalar.is_epsilon_nash
        assert not any(
            math.isnan(f) for d in arrays.deviations for f in (d.new_x, d.new_y, d.improvement)
        )

    def test_stationary_point_at_the_kink_is_scored_once(self):
        # Group 1's top player faces z_minus = -1 and z_other = 4 = v, so
        # her stationary point sqrt(v * z_other) - z_other - z_minus is the
        # kink -z_minus = 1 exactly: one candidate, counted once.
        n = verify.ARRAY_MIN_PLAYERS
        vals = [4.0] + [1.0] * (n - 3) + [-1.0, -2.0]
        spec = make_spec(vals, vals, 1.0)
        profile = gc.StrategyProfile.zeros(spec)
        profile = profile.replace(gc.PlayerId(1, n), 0.0, 1.0)
        profile = profile.replace(gc.PlayerId(2, 1), 4.0, 0.0)
        expected = [scalar_search(spec, profile, p) for p in players(spec)]
        report = gc.is_epsilon_nash(spec, profile)
        assert report.candidate_count == sum(n for _, n in expected)
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d, _ in expected
        ]

    def test_non_finite_candidate_is_cut_back(self, monkeypatch):
        # The bottom saboteur's stationary point in group 1 needs about
        # 1e450 of sabotage in effective terms: the group sum overflows, so
        # that candidate is cut back to the float range's edge, on arrays
        # as in the scalar loop.
        n = verify.ARRAY_MIN_PLAYERS
        vals = [1.0] + [-1.0] * (n - 2) + [-1e300]
        spec = make_spec(vals, vals, 1e300)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(2, n), 0.0, 1.0)
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count >= 1
        monkeypatch.setattr(verify, "ARRAY_MIN_PLAYERS", 10**9)
        scalar = gc.is_epsilon_nash(spec, profile)
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d in scalar.deviations
        ]
        assert report.candidate_count == scalar.candidate_count
        d = report.deviations[n - 1]
        assert d.player == gc.PlayerId(1, n)
        assert 1e300 * math.nextafter(d.new_y, math.inf) == math.inf
        probe = profile.replace(d.player, 0.0, 1e8)
        now = gc.payoff(spec, profile, d.player)
        assert d.improvement > gc.payoff(spec, probe, d.player) - now

    def test_stationary_point_of_a_tiny_valuation(self, monkeypatch):
        # Against a rival effort of 1e30 the players valued at 1e-300 share
        # no power-of-two scale with it: scaled together, v underflows to 0.
        n = verify.ARRAY_MIN_PLAYERS
        spec = make_spec([1e300] + [1e-300] * (n - 2) + [-1.0], [1.0, -1.0], 1.0)
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(2, 1), 1e30, 0.0)
        profile = profile.replace(gc.PlayerId(1, n), 0.0, 1e31)
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count >= 1
        monkeypatch.setattr(verify, "ARRAY_MIN_PLAYERS", 10**9)
        scalar = gc.is_epsilon_nash(spec, profile)
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d in scalar.deviations
        ]
        assert report.candidate_count == scalar.candidate_count

    def test_exact_improvements_rebuild_nothing(self, monkeypatch):
        # 796 improving players: each gain comes from its group's sums
        # with the move swapped in, not from a rebuilt profile.
        spec = _ladder_spec(400)
        profile = gc.StrategyProfile.zeros(spec)
        for g in (1, 2):
            profile = profile.replace(gc.PlayerId(g, 1), 1.0, 0.0)
        calls = _count_calls(monkeypatch)
        report = gc.is_epsilon_nash(spec, profile)
        assert sum(d.improvement > 0 for d in report.deviations) == 796
        assert calls == []


STACKED_KINDS = ("unequal", "one_in_band", "near_edge", "tiny")


def _stacked_case(kind: str, n1: int, n2: int, seed: int, draw=None):
    """One profile of ``stacked_cases``; ``draw`` makes the discrete
    choices, or the seed where it is None."""
    rng = np.random.default_rng(seed)
    pick = (lambda options: options[int(rng.integers(len(options)))]) if draw is None else (
        lambda options: draw(st.sampled_from(options))
    )
    if kind == "near_edge":
        s, theta = math.ldexp(1.0, int(rng.integers(-10, 11))), math.ldexp(1.0, -pick((8, 10, 12)))
    elif kind == "tiny":
        s, theta = math.ldexp(1.0, -1000), float(rng.uniform(0.05, 20.0))
    else:
        s, theta = math.ldexp(1.0, int(rng.integers(-600, 601))), float(rng.uniform(0.05, 20.0))
    vals = [corpus_group(rng, n1, s), corpus_group(rng, n2, s)]
    if kind == "unequal":
        cut = gc.thresholds(make_spec(*vals, 1.0))
        theta = pick((cut.theta_no_sabotage / 2, 2 * cut.theta_sabotage))
        factor = pick((1.0, 1.5))
        solved = efforts(gc.solve(make_spec(*vals, theta)).profile)
        pairs = [[(factor * e.x, factor * e.y) for e in g] for g in solved]
    elif kind == "one_in_band":
        # The mixing group is outside the band, the building one inside.
        small = pick((0, 1))
        pairs = [
            [tuple(s * float(rng.uniform(0, 2)) if rng.random() < 0.6 else 0.0 for _ in "xy")
             for _ in g]
            for g in vals
        ]
        big = vals[1 - small]
        pairs[1 - small] = [(s * 2**16 * float(rng.uniform(0.5, 2)), 0.0) for _ in big]
    elif kind == "near_edge":
        # Both groups outside the band.  Every saboteur's kink, z_minus /
        # theta, lies beyond the float range, and group 2's bottom player
        # sabotages at nearly 2**1023.
        pairs = [[(0.0, 0.0)] * len(g) for g in vals]
        pairs[0][0] = (math.ldexp(float(rng.uniform(1, 2)), 1019), 0.0)
        pairs[1][0] = (math.ldexp(float(rng.uniform(1, 2)), 1021), 0.0)
        pairs[1][-1] = (0.0, math.ldexp(float(rng.uniform(1, 1.9)), 1023))
    else:
        # Everyone builds, about 2**80 a group: both groups are outside the
        # band, and v * 2**-81 underflows to 0 in the common scaling.
        pairs = [[(math.ldexp(float(rng.uniform(1, 2)), 80) / len(g), 0.0) for _ in g]
                   for g in vals]
    return kind, make_spec(*vals, theta), profile_of(pairs)


@st.composite
def stacked_cases(draw):
    """Both groups of a profile in one ``_search_array`` call, one of
    ``STACKED_KINDS``: the closed-form equilibrium of two groups of
    unequal sizes, or every effort of it times 1.5; one group mixing x
    and y while the other builds 2**16 times harder, so that only the
    first is outside the rounding band; efforts near 2**1023 under a
    theta of 2**-8 or less, so that candidates of both groups pass
    ``SUM_EDGE``; or valuations at scale 2**-1000 against efforts
    near 2**80, where the stationary point's common scaling underflows.
    ``_search_array`` declines every ``near_edge`` and ``tiny`` call, and
    the scalar loop searches both groups."""
    kind = draw(st.sampled_from(STACKED_KINDS))
    top = 12 if kind == "near_edge" else 40
    n1 = draw(st.integers(2, top))
    n2 = draw(st.integers(2, top).filter(lambda n: n != n1))
    return _stacked_case(kind, n1, n2, draw(st.integers(0, 2**32 - 1)), draw)


SIGNED_EFFORTS = st.one_of(st.floats(0.0, 1e300), st.just(-0.0))


@contextmanager
def _array_calls():
    """Patch ``_search_array`` to record each call's parts and what it
    returned: the points scored, or None where it declined."""
    calls, search = [], verify._search_array

    def record(theta, parts):
        scored = search(theta, parts)
        # A declined call extends no list: the scalar loop fills them all.
        assert scored is not None or not any(picks or busy for *_, picks, busy in parts)
        calls.append((parts, scored))
        return scored

    with mock.patch.object(verify, "_search_array", record):
        yield calls


def _report_bits(report):
    """The verdict, epsilon, count and every row, each float as hex."""
    return (
        report.is_epsilon_nash,
        report.epsilon.hex(),
        report.candidate_count,
        [deviation_hex(d) for d in report.deviations],
    )


def _scalar_report(spec, profile):
    """``is_epsilon_nash`` with every group searched by the scalar loop."""
    with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 10**9):
        return gc.is_epsilon_nash(spec, profile)


def _far_kink_case(n: int, seed: int):
    """A ``far_kink`` profile of ``array_search_cases`` at n players a
    group, drawn from a seed: valuation scale 2**100, theta = 2**-1000,
    builders only, group 1's efforts 2**12 times group 2's."""
    s, rng = 2.0**100, np.random.default_rng(seed)
    vals = [corpus_group(rng, n, s) for _ in "12"]
    pairs = [[s * float(rng.uniform(0, 2)) if rng.random() < 0.6 else 0.0 for _ in g]
             for g in vals]
    pairs[0] = [x * 2**12 for x in pairs[0]]
    return make_spec(*vals, 2.0**-1000), profile_of([[(x, 0.0) for x in g] for g in pairs])


class TestStackedSearch:
    """One ``_search_array`` call scores every group of a profile that goes
    to the arrays, each column carrying its group's values, with the
    scalar loop's reports bit for bit."""

    @settings(max_examples=60)
    @given(stacked_cases())
    @example(_stacked_case("unequal", 31, 7, 0))  # sabotage, every effort times 1.5
    @example(_stacked_case("unequal", 7, 31, 3))  # no sabotage, closed form
    @example(_stacked_case("near_edge", 5, 7, 1))
    @example(_stacked_case("tiny", 9, 4, 2))
    def test_matches_the_scalar_loop(self, case):
        kind, spec, profile = case
        with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 1), _array_calls() as calls:
            stacked = gc.is_epsilon_nash(spec, profile)
        with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 10**9):
            scalar = gc.is_epsilon_nash(spec, profile)
        assert _report_bits(stacked) == _report_bits(scalar)
        [(parts, scored)] = calls
        if kind != "unequal":
            assert len(parts) == (1 if kind == "one_in_band" else 2)
        # Near the float range's edge and on underflow the call declines,
        # and the scalar loop searches its groups.
        assert (scored is None) == (kind in ("near_edge", "tiny"))

    def test_edge_cuts_back_a_column_of_group_2(self):
        """The near-edge call declines, and the scalar loop's ``_edge``
        cuts back candidates of both groups, each on its own columns.  Each
        group's bottom player sabotages at the largest float, so a y of |v|
        for the other saboteur, valued about 2**1000, overflows the y
        column's sum: its kink, beyond the float range, is cut back from |v|
        to below it."""
        s, top = 2.0**1000, sys.float_info.max
        spec = make_spec([4 * s, 2 * s, -s, -3 * s], [3 * s, s, -2 * s, -4 * s], 2.0**-8)
        profile = profile_of([[(2.0**1019, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, top)],
                              [(2.0**1021, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, top)]])
        with (mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 1), _array_calls() as calls,
              mock.patch.object(verify, "_edge", wraps=verify._edge) as spy):
            report = gc.is_epsilon_nash(spec, profile)
        assert [scored for _, scored in calls] == [None]
        assert _report_bits(report) == _report_bits(_scalar_report(spec, profile))
        cut = [c.args for c in spy.call_args_list if verify._edge(*c.args) < c.args[5]]
        assert any(args[1][0] is profile.xs[1] for args in cut)
        assert any(args[1][0] is profile.xs[0] for args in cut)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_far_kinks_are_counted_not_bisected(self, seed):
        """Builders only under theta = 2**-1000: every saboteur's kink lies
        beyond the float range and pays less than staying out, as any effort
        of |v| or more does.  The search cuts it back from |v|, not from the
        kink: ``_edge`` is asked for no effort above |v| and finds the sums
        finite at each |v| it is asked for, so it bisects none of them.  The
        report is the player-by-player oracle's, row for row."""
        spec, profile = _far_kink_case(200, seed)
        with mock.patch.object(verify, "_edge", wraps=verify._edge) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        expected = [scalar_search(spec, profile, p) for p in players(spec)]
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(d) for d, _ in expected
        ]
        assert report.candidate_count == sum(n for _, n in expected)
        assert spy.call_count > 0
        for args in (c.args for c in spy.call_args_list):
            v, e = args[3], args[5]
            assert e < abs(v) or (e == abs(v) and verify._edge(*args) == e)

    def test_a_winner_below_v_past_the_edge_is_kept(self):
        """A builder valued 1.5e308 beside a teammate sabotaging 0.8e308:
        its peak, about 0.8e308, lies below |v| but takes the group's gross
        effort past ``SUM_EDGE``.  Its sums stay finite, it is cut back from
        its own effort, not from |v|, and it wins, as in the oracle."""
        spec = make_spec([1.5e308, -1e308], [1.0, -1.0], 1.0)
        profile = profile_of([[(0.0, 0.0), (0.0, 0.8e308)], [(2.0**1000, 0.0), (0.0, 0.0)]])
        player = gc.PlayerId(1, 1)
        deviation = gc.best_deviation(spec, profile, player)
        expected, _ = scalar_search(spec, profile, player)
        assert deviation_hex(deviation) == deviation_hex(expected)
        assert 0.75e308 < deviation.new_x < 1.5e308

    def test_underflow_fallback_takes_each_columns_rival(self):
        """The tiny call declines on underflow, and the scalar loop's
        ``_stationary`` takes each group's own rival effort."""
        _, spec, profile = _stacked_case("tiny", 9, 4, 2)
        eff = gc.effective_efforts(spec, profile)
        with mock.patch.object(verify, "ARRAY_MIN_PLAYERS", 1), mock.patch.object(
            verify, "_stationary", wraps=verify._stationary
        ) as spy:
            gc.is_epsilon_nash(spec, profile)
        assert {c.args[3] for c in spy.call_args_list} == {eff.z1, eff.z2}

    @given(
        st.lists(st.tuples(SIGNED_EFFORTS, st.sampled_from([0.0, -0.0])), min_size=1),
        st.floats(0.01, 100.0),
    )
    @example([(-0.0, -0.0)] * 3, 1.0)
    @example([(0.0, 0.0)] * 3, 1.0)
    @example([(-0.0, 0.0), (0.0, -0.0)], 2.0)
    @example([(-0.0, -0.0), (1.5, -0.0)], 0.5)
    def test_gross_without_y_is_the_sum_of_x(self, pairs, theta):
        # ``_group_values`` takes this identity for a group whose ys are all +-0.0.
        xs = [x for x, _ in pairs]
        assert sum(xs).hex() == sum([x + theta * y for x, y in pairs]).hex()

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_overflowing_gross_at_array_size(self, theta):
        # 32 players a group; the gross effort x + theta * y overflows.  The
        # suite turns numpy's RuntimeWarning into an error, so none is raised.
        valuations = (*range(16, 0, -1), *range(-1, -17, -1))
        spec = gc.validate_spec(gc.ContestSpec(gc.GroupSpec(valuations), gc.GroupSpec(valuations), theta))
        profile = gc.StrategyProfile.zeros(spec).replace(gc.PlayerId(2, 1), 1.0, 0.0)
        one = profile.replace(gc.PlayerId(1, 1), 1e308, 1e308)
        report = gc.is_epsilon_nash(spec, one)
        assert not report.is_epsilon_nash
        two = one.replace(gc.PlayerId(1, 2), 1e308, 0.0)
        with pytest.raises(gc.NonFiniteInput):
            gc.is_epsilon_nash(spec, two)


# Efforts as the search meets them: +-0.0 and positive, at scales 2**-600,
# 1 and 2**600.
UNIT_EFFORTS = st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, -0.0]))


class TestGroupValues:
    """``_group_values`` is the one home of a group's (z, gross, band)."""

    @given(
        st.lists(st.tuples(UNIT_EFFORTS, UNIT_EFFORTS), min_size=2, max_size=12),
        st.sampled_from([-600, 0, 600]),
        st.booleans(),
        st.floats(0.01, 100.0),
    )
    @example([(-0.0, -0.0), (0.0, -0.0)], 0, False, 1.0)
    @example([(-0.0, 0.0), (1.5, -0.0), (0.0, 0.25)], 600, False, 0.5)
    @example([(3.0, 1.0), (-0.0, 2.0)], -600, True, 3.0)
    def test_pins_z_gross_and_band(self, pairs, scale, idle_y, theta):
        gx = [math.ldexp(x, scale) for x, _ in pairs]
        # An idle y column keeps each y's sign: all +-0.0.
        gy = [math.copysign(0.0, y) if idle_y else math.ldexp(y, scale) for _, y in pairs]
        n = len(pairs)
        valuations = (1.0, *[0.5] * (n - 2), -1.0)
        spec = gc.validate_spec(gc.ContestSpec(gc.GroupSpec(valuations), gc.GroupSpec(valuations), theta))
        profile = gc.StrategyProfile((tuple(gx), tuple(gx)), (tuple(gy), tuple(gy)))
        z, gross, band = verify._group_values(theta, gx, gy)
        assert z.hex() == gc.effective_efforts(spec, profile).z1.hex()
        assert gross.hex() == sum([x + theta * y for x, y in zip(gx, gy)]).hex()
        terms = sum(e != 0.0 for e in gx + gy)
        assert band == verify.ROUNDING_BAND * (terms + 4) * math.ulp(gross)


class TestPlayerIds:
    """Report rows carry the ids ``players`` yields, as equal values, on
    both search paths."""

    @pytest.mark.parametrize("n", [verify.ARRAY_MIN_PLAYERS - 1, verify.ARRAY_MIN_PLAYERS])
    def test_rows_carry_the_players_ids(self, n):
        spec = _ladder_spec(n)
        solved = efforts(gc.solve(spec).profile)
        profile = profile_of(tuple(tuple(Effort(1.5 * e.x, 1.5 * e.y) for e in g) for g in solved))
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count == (1 if n >= verify.ARRAY_MIN_PLAYERS else 0)
        assert any(d.improvement > 0 for d in report.deviations)
        roster = list(players(spec))
        assert [d.player for d in report.deviations] == roster
        # Shared, not rebuilt: a second report holds the same id objects.
        again = gc.is_epsilon_nash(spec, profile)
        assert all(a.player is b.player for a, b in zip(report.deviations, again.deviations))
        for p in roster:
            assert gc.best_deviation(spec, profile, p).player == p


def _scaled_closed_form(spec, scale):
    solved = efforts(gc.solve(spec).profile)
    return profile_of(tuple(tuple(Effort(scale * e.x, scale * e.y) for e in g) for g in solved))


class TestSharedRows:
    """Idle players, at (+0.0, +0.0) and staying put, share one row each;
    only busy players and movers get a row of their own."""

    def test_rows_take_their_ids_from_the_idle_rows(self):
        spec = _ladder_spec(60)
        gc.is_epsilon_nash(spec, _scaled_closed_form(spec, 1.0))
        maxsize = verify._idle_rows.cache_parameters()["maxsize"]
        # Churn more (group, size) keys than maxsize through the search.
        for n in range(61, 61 + maxsize // 2 + 4):
            other = _ladder_spec(n)
            gc.is_epsilon_nash(other, gc.StrategyProfile.zeros(other))
        report = gc.is_epsilon_nash(spec, _scaled_closed_form(spec, 1.5))
        idle = verify._idle_rows(1, 60) + verify._idle_rows(2, 60)
        assert len(report.deviations) == len(idle)
        own = [(d, r) for d, r in zip(report.deviations, idle) if d is not r]
        assert sum(d.improvement > 0 for d, _ in own) > 0  # movers, not only busy rows
        assert all(d.player is r.player for d, r in own)

    def test_shared_rows_are_bounded(self):
        cache = verify._idle_rows
        maxsize = cache.cache_parameters()["maxsize"]
        for n in range(2, maxsize // 2 + 4):
            spec = _ladder_spec(n)
            gc.is_epsilon_nash(spec, gc.StrategyProfile.zeros(spec))
        assert cache.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("n", [3, verify.ARRAY_MIN_PLAYERS])
    def test_negative_zero_efforts_keep_their_sign(self, n):
        spec = _ladder_spec(n)
        signed = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]
        profile = profile_of(
            tuple(
                # The top player builds; the idle ones take every signed zero.
                (g[0], *(Effort(*signed[(k + 2 * i) % 4]) for k in range(1, n)))
                for i, g in enumerate(efforts(gc.solve(spec).profile))
            )
        )
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            report = gc.is_epsilon_nash(spec, profile)
        assert spy.call_count == (1 if n >= verify.ARRAY_MIN_PLAYERS else 0)
        rows = [(d.new_x.hex(), d.new_y.hex()) for d in report.deviations]
        assert rows == [(e.x.hex(), e.y.hex()) for g in efforts(profile) for e in g]
        assert [deviation_hex(d) for d in report.deviations] == [
            deviation_hex(gc.best_deviation(spec, profile, p)) for p in players(spec)
        ]

    def test_only_busy_players_and_movers_build_rows(self):
        spec = _ladder_spec(200)
        closed, scaled = _scaled_closed_form(spec, 1.0), _scaled_closed_form(spec, 1.5)
        gc.is_epsilon_nash(spec, closed)
        with mock.patch.object(verify, "Deviation", wraps=verify.Deviation) as spy:
            gc.is_epsilon_nash(spec, closed)
        assert spy.call_count == 2  # one per group's top player
        with mock.patch.object(verify, "Deviation", wraps=verify.Deviation) as spy:
            report = gc.is_epsilon_nash(spec, scaled)
        movers = sum(d.improvement > 0 for d in report.deviations)
        assert movers > 0
        assert spy.call_count <= 2 + movers


class TestIsEpsilonNash:
    def test_certifies_sabotage_equilibrium(self, sabotage_spec):
        profile = gc.solve(sabotage_spec).profile
        report = gc.is_epsilon_nash(sabotage_spec, profile, 1e-6)
        assert report.is_epsilon_nash
        assert report.epsilon == 1e-6
        assert len(report.deviations) == 4

    def test_refutes_perturbed_equilibrium(self, sabotage_spec):
        base = gc.solve(sabotage_spec).profile
        bottom = gc.PlayerId(1, 2)
        perturbed = base.replace(bottom, 0.0, effort(base, bottom).y + 0.1)
        report = gc.is_epsilon_nash(sabotage_spec, perturbed, 1e-6)
        assert not report.is_epsilon_nash
        d = max(report.deviations, key=lambda d: d.improvement)
        assert d.player == bottom
        assert d.new_y == pytest.approx(1.0, abs=1e-6)  # restores the optimum

    def test_refutes_no_sabotage_profile_inside_gap(self, gap_spec):
        # The would-be no-sabotage equilibrium: tops spend 1/4 each.
        profile = (
            gc.StrategyProfile.zeros(gap_spec)
            .replace(gc.PlayerId(1, 1), 0.25, 0.0)
            .replace(gc.PlayerId(2, 1), 0.25, 0.0)
        )
        report = gc.is_epsilon_nash(gap_spec, profile)
        assert not report.is_epsilon_nash
        saboteurs = [d for d in report.deviations if d.improvement > 0.2]
        assert saboteurs
        for d in saboteurs:
            assert d.player.index == 2
            assert d.new_y == pytest.approx(0.25, abs=1e-6)

    def test_default_epsilon_scales_with_valuations(self, no_sabotage_spec):
        report = gc.is_epsilon_nash(no_sabotage_spec, gc.solve(no_sabotage_spec).profile)
        assert report.epsilon == 4e-6

    def test_rejects_bad_epsilon(self, no_sabotage_spec):
        with pytest.raises(gc.ContestError):
            gc.is_epsilon_nash(no_sabotage_spec, gc.StrategyProfile.zeros(no_sabotage_spec), 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, no_sabotage_spec, epsilon):
        profile = gc.StrategyProfile.zeros(no_sabotage_spec)
        with pytest.raises(gc.ContestError, match="finite and positive"):
            gc.is_epsilon_nash(no_sabotage_spec, profile, epsilon)

    def test_report_serialization(self, no_sabotage_spec):
        report = gc.is_epsilon_nash(no_sabotage_spec, gc.solve(no_sabotage_spec).profile)
        doc = report.to_json_dict()
        assert set(doc) == {"epsilon", "is_epsilon_nash", "players"}
        assert doc["is_epsilon_nash"] is True
        assert doc["players"][0] == {
            "group": 1,
            "index": 1,
            "best_improvement": 0.0,
            "deviation": {"x": 1.0, "y": 0.0},
        }
        json.dumps(doc)  # must be serializable as-is


@st.composite
def refutation_cases(draw):
    """A spec of 2 to 8 players a group from ``corpus_group`` at valuation
    scale 2**k, |k| <= 600, theta in [0.2, 5], with a forbidden class, a
    seed and 1 to 4 samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = math.ldexp(1.0, draw(st.integers(-600, 600)))
    vals = [corpus_group(rng, draw(st.integers(2, 8)), s) for _ in "12"]
    spec = make_spec(*vals, draw(st.floats(0.2, 5.0)))
    forbidden = draw(st.sampled_from(list(gc.ForbiddenClass)))
    return spec, forbidden, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4))


def _refutation_bits(refute, spec, forbidden, seed, samples):
    """Every record's profile and deviation, each float as hex, or the
    type of the exception raised."""
    try:
        records = refute(spec, forbidden, samples, seed)
    except gc.ContestError as exc:
        return type(exc)
    return [(_profile_hex(r.profile), deviation_hex(r.deviation)) for r in records]


class TestRefuteClass:
    @settings(max_examples=300)
    @given(refutation_cases())
    def test_matches_the_replace_chain_oracle(self, case):
        # The column-list sampler makes the Generator calls of the
        # replace-chain one, in the same order, and searches the same players.
        assert _refutation_bits(gc.refute_class, *case) == _refutation_bits(
            reference_refute_class, *case
        )

    @pytest.mark.parametrize("forbidden", list(gc.ForbiddenClass))
    def test_all_classes_refuted(self, forbidden):
        rng = np.random.default_rng(20)
        for _ in range(3):
            spec = random_spec(rng, theta=float(rng.uniform(0.2, 4.0)), min_size=3)
            records = gc.refute_class(spec, forbidden, 8, seed=77)
            assert len(records) == 8
            tol = 1e-9 * spec.max_abs_valuation()
            for r in records:
                assert r.deviation.improvement > tol

    def test_opposite_signs_construction(self, no_sabotage_spec):
        records = gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.OPPOSITE_SIGNS, 20, seed=5)
        for r in records:
            eff = gc.effective_efforts(no_sabotage_spec, r.profile)
            assert eff.z1 * eff.z2 < 0

    def test_some_zero_construction(self, no_sabotage_spec):
        records = gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.SOME_ZERO_Z, 20, seed=6)
        for r in records:
            eff = gc.effective_efforts(no_sabotage_spec, r.profile)
            assert eff.z1 == 0.0 or eff.z2 == 0.0

    def test_straddle_construction(self, no_sabotage_spec):
        records = gc.refute_class(
            no_sabotage_spec, gc.ForbiddenClass.STRADDLE_OR_WRONG_SIGN, 20, seed=7
        )
        for r in records:
            wrong = False
            for p in players(no_sabotage_spec):
                v = gc.valuation(no_sabotage_spec, p)
                e = effort(r.profile, p)
                wrong = wrong or (v > 0 and e.y > 0) or (v < 0 and e.x > 0)
            assert wrong

    def test_free_rider_lands_on_extreme_player(self, no_sabotage_spec):
        records = gc.refute_class(
            no_sabotage_spec, gc.ForbiddenClass.FREE_RIDER_VIOLATION, 20, seed=8
        )
        for r in records:
            assert r.deviation.player.index in (
                1,
                no_sabotage_spec.group(r.deviation.player.group).size,
            )

    @pytest.mark.parametrize("k", [-990, 990])
    @pytest.mark.parametrize("forbidden", list(gc.ForbiddenClass))
    def test_extreme_scale(self, forbidden, k):
        # Both groups hold free-rider candidates: group 1 two non-top
        # builders, group 2 a non-bottom saboteur.
        s = math.ldexp(1.0, k)
        spec = make_spec([4 * s, 2 * s, 1 * s, -1 * s], [4 * s, 2 * s, -1 * s, -2 * s], 0.7)
        tol = 1e-9 * spec.max_abs_valuation()
        records = gc.refute_class(spec, forbidden, 20, seed=990)
        assert len(records) == 20
        for r in records:
            assert r.deviation.improvement > tol
            assert all(0.0 <= e < math.inf for column in r.profile.xs + r.profile.ys for e in column)
            if forbidden is not gc.ForbiddenClass.FREE_RIDER_VIOLATION:
                continue
            # The violator is the one active player inside her group's ends.
            (violator,) = (
                p for p in players(spec)
                if effort(r.profile, p) != Effort(0.0, 0.0)
                and p.index not in (1, spec.group(p.group).size)
            )
            v = gc.valuation(spec, violator)
            _, z_minus, z_other = residual(spec, r.profile, violator)
            e = effort(r.profile, violator)
            own = e.x if v > 0 else e.y
            peak = stationary_oracle(v, spec.theta, z_minus, z_other)
            assert own > 0.0
            assert math.isclose(own, peak, rel_tol=1e-12)

    def test_fall_back_refutes_what_the_suspect_cannot(self):
        # The threshold 1e-9 * max|v| is absolute: with the builders' valuations
        # 2**-40 of the largest, the free-rider suspect (1, 1) gains far less
        # than it, and the rest of the roster refutes the sample.
        t = 2.0**-40
        spec = make_spec([3 * t, 2 * t, t, -4], [3 * t, -1, -4], 0.7)
        tol = 1e-9 * spec.max_abs_valuation()
        forbidden = gc.ForbiddenClass.FREE_RIDER_VIOLATION
        by_seed = {seed: gc.refute_class(spec, forbidden, 4, seed=seed) for seed in range(4)}
        for records in by_seed.values():
            for r in records:
                assert r.deviation.improvement > tol
                if r.deviation.player == gc.PlayerId(1, 4):
                    suspect = gc.best_deviation(spec, r.profile, gc.PlayerId(1, 1))
                    assert suspect.improvement <= tol
        assert any(r.deviation.player == gc.PlayerId(1, 4) for r in by_seed[1])

    def test_refutation_golden_digest(self):
        assert _refutation_digest(6, 2028) == (
            "2333f30a9f295d4e26d85e7fb097d7121b62e09c7f6d7a6908c50f8ea28cab2b"
        )

    def test_unsatisfiable_class(self):
        spec = make_spec([1, -1], [2, -3], 1.0)
        with pytest.raises(gc.ClassUnsatisfiable):
            gc.refute_class(spec, gc.ForbiddenClass.FREE_RIDER_VIOLATION, 2, seed=1)

    def test_seed_reproducibility(self, no_sabotage_spec):
        a = gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.OPPOSITE_SIGNS, 6, seed=3)
        b = gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.OPPOSITE_SIGNS, 6, seed=3)
        assert a == b
        c = gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.OPPOSITE_SIGNS, 6, seed=4)
        assert a != c

    def test_rejects_bad_samples(self, no_sabotage_spec):
        with pytest.raises(gc.ContestError):
            gc.refute_class(no_sabotage_spec, gc.ForbiddenClass.OPPOSITE_SIGNS, 0, seed=1)


class TestDynamics:
    def _jitter(self, spec, seed, scale=1e-3):
        rng = np.random.default_rng(seed)
        return random_profile(rng, spec, scale=scale * spec.max_abs_valuation())

    def test_converges_to_no_sabotage_equilibrium(self, no_sabotage_spec):
        result = gc.best_response_dynamics(
            no_sabotage_spec, self._jitter(no_sabotage_spec, 1), 1000, "round_robin"
        )
        assert result.status is gc.DynamicsStatus.CONVERGED
        assert profile_distance(result.profile, gc.solve(no_sabotage_spec).profile) < 1e-6

    def test_converges_to_sabotage_equilibrium(self, sabotage_spec):
        result = gc.best_response_dynamics(
            sabotage_spec, self._jitter(sabotage_spec, 2), 1000, "round_robin"
        )
        assert result.status is gc.DynamicsStatus.CONVERGED
        assert profile_distance(result.profile, gc.solve(sabotage_spec).profile) < 1e-6

    def test_gap_never_converges(self, gap_spec):
        for seed in range(3):
            result = gc.best_response_dynamics(
                gap_spec, self._jitter(gap_spec, seed), 300, "round_robin"
            )
            assert result.status is not gc.DynamicsStatus.CONVERGED

    def test_simultaneous_order(self, no_sabotage_spec):
        result = gc.best_response_dynamics(
            no_sabotage_spec, self._jitter(no_sabotage_spec, 3), 1000, "simultaneous"
        )
        assert result.status is gc.DynamicsStatus.CONVERGED

    def test_converged_profiles_are_epsilon_nash(self, sabotage_spec):
        for seed in range(3):
            result = gc.best_response_dynamics(
                sabotage_spec, self._jitter(sabotage_spec, seed), 1000, "round_robin"
            )
            assert result.status is gc.DynamicsStatus.CONVERGED
            assert gc.is_epsilon_nash(sabotage_spec, result.profile).is_epsilon_nash

    def test_round_robin_calls_neither_replace_nor_effective_efforts(
        self, gap_spec, monkeypatch
    ):
        # Each search reads the live columns, and each move is written into them.
        initial = self._jitter(gap_spec, 4)
        want = reference_dynamics(gap_spec, initial, 30, "round_robin")
        moves = sum(
            a != b
            for before, after in zip(want.trajectory, want.trajectory[1:])
            for ga, gb in zip(efforts(before), efforts(after))
            for a, b in zip(ga, gb)
        )
        calls = _count_calls(monkeypatch)
        # Each player's search builds no per-search records: no pick layer.
        with mock.patch.object(verify, "_search_moves", wraps=verify._search_moves) as spy:
            result = gc.best_response_dynamics(gap_spec, initial, 30, "round_robin")
        assert result.profile == want.profile
        assert moves > 0
        assert calls == []
        assert spy.call_count == 0

    def test_simultaneous_moves_are_written_in_place(self, monkeypatch):
        # One iteration's moves cost O(n): no replace copies a group per move.
        base = _ladder_spec(200)
        cut = gc.thresholds(base)
        theta = math.sqrt(cut.theta_no_sabotage * cut.theta_sabotage)
        spec = make_spec(base.group1.valuations, base.group2.valuations, theta)
        initial = self._jitter(spec, 0)
        want = reference_dynamics(spec, initial, 3, "simultaneous")
        assert want.profile != initial
        calls = _count_calls(monkeypatch)
        got = gc.best_response_dynamics(spec, initial, 3, "simultaneous")
        assert calls == []
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert _profile_hex(got.profile) == _profile_hex(want.profile)
        assert got.last_delta.hex() == want.last_delta.hex()

    # One iteration that moves, and a run that converges at once from the
    # closed-form equilibrium, in both orders.
    @pytest.mark.parametrize("order", ["round_robin", "simultaneous"])
    @pytest.mark.parametrize("spec_name, max_iters", [
        ("gap_spec", 1), ("no_sabotage_spec", 300),
    ])
    def test_initial_is_untouched_and_result_holds_tuples(
        self, request, spec_name, max_iters, order
    ):
        spec = request.getfixturevalue(spec_name)
        initial = self._jitter(spec, 0) if max_iters == 1 else gc.solve(spec).profile
        before = _profile_hex(initial)
        result = gc.best_response_dynamics(spec, initial, max_iters, order)
        assert result.iterations == 1
        assert _profile_hex(initial) == before
        assert (result.profile == initial) is (max_iters > 1)
        for columns in (result.profile.xs, result.profile.ys):
            assert type(columns) is tuple
            assert all(type(c) is tuple for c in columns)
        assert hash(result.profile) == hash(gc.StrategyProfile(
            result.profile.xs, result.profile.ys
        ))

    def test_last_step_bookkeeping(self, gap_spec):
        initial = self._jitter(gap_spec, 0)
        result = gc.best_response_dynamics(gap_spec, initial, 50, "round_robin")
        want = reference_dynamics(gap_spec, initial, 50, "round_robin")
        assert want.trajectory[0] == initial
        assert want.trajectory[-1] == result.profile
        assert result.last_delta == profile_distance(*want.trajectory[-2:])
        if result.status is gc.DynamicsStatus.CYCLING:
            assert result.period >= 2

    # Every status in both orders; MaxIters also after a single iteration.
    @pytest.mark.parametrize("spec_name, order, max_iters, status", [
        ("no_sabotage_spec", "round_robin", 300, "Converged"),
        ("no_sabotage_spec", "simultaneous", 300, "Converged"),
        ("gap_spec", "round_robin", 300, "Cycling"),
        ("gap_spec", "simultaneous", 300, "Cycling"),
        ("gap_spec", "round_robin", 4, "MaxIters"),
        ("gap_spec", "round_robin", 1, "MaxIters"),
        ("gap_spec", "simultaneous", 1, "MaxIters"),
    ])
    def test_last_delta_matches_reference(self, request, spec_name, order, max_iters, status):
        spec = request.getfixturevalue(spec_name)
        want = _reference_run(spec, self._jitter(spec, 0), max_iters, order)
        assert want.status.value == status

    @settings(max_examples=60)
    @given(
        st.integers(-600, 600),
        st.integers(2, 6),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["round_robin", "simultaneous"]),
        st.integers(1, 40),
    )
    def test_matches_row_by_row_reference(self, k, n1, n2, seed, jitter, order, max_iters):
        rng = np.random.default_rng(seed)
        s = math.ldexp(1.0, k)
        theta = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        spec = make_spec(corpus_group(rng, n1, s), corpus_group(rng, n2, s), theta)
        initial = (
            random_profile(rng, spec, scale=1e-3 * s) if jitter
            else gc.StrategyProfile.zeros(spec)
        )
        _reference_run(spec, initial, max_iters, order)

    def test_matches_reference_on_the_gap_workload_runs(self):
        # The README spec at the seven thetas of the dynamics_gap benchmark,
        # half the lower cutoff to twice the upper.  Some earlier rows share
        # the latest row's largest effort within CYCLE_TOL but differ
        # elsewhere, so the cycle check's full compare also rejects rows.
        vals = ([4, 1, -1], [4, 2, -1])
        cut = gc.thresholds(make_spec(*vals, 1.0))
        keyed = rejected = 0
        for theta in np.geomspace(cut.theta_no_sabotage / 2, 2 * cut.theta_sabotage, 7):
            spec = make_spec(*vals, float(theta))
            for seed in range(5):
                for order in ("round_robin", "simultaneous"):
                    r = _reference_run(spec, self._jitter(spec, seed), 1000, order)
                    rows = [(*p.xs[0], *p.xs[1], *p.ys[0], *p.ys[1]) for p in r.trajectory]
                    for i, row in enumerate(rows):
                        for earlier in rows[:max(i - 1, 0)]:
                            if abs(max(earlier) - max(row)) <= verify.CYCLE_TOL:
                                keyed += 1
                                rejected += row_gap(earlier, row) > verify.CYCLE_TOL
        assert rejected > 0
        assert keyed > rejected

    # Max is 1-Lipschitz in the max norm and rounding is monotone, so the
    # cycle check may skip rows whose largest effort is off by more than
    # the tolerance.
    @settings(max_examples=500)
    @given(
        st.lists(effort_pairs, min_size=1, max_size=8),
        st.sampled_from([0.0, 5e-324, verify.CONVERGENCE_TOL, verify.CYCLE_TOL]),
    )
    def test_largest_effort_key_never_skips_a_close_row(self, pairs, tol):
        a, b = zip(*pairs)
        if row_gap(a, b) <= tol:
            assert abs(max(a) - max(b)) <= tol

    # Ladder specs at 20, 45 and 60 players a group, theta at half the lower
    # cutoff, inside the gap and at twice the upper cutoff, from seeded
    # jitter and from all zeros, in both orders, 48 iterations at most.
    # Gap runs go past 32 iterations, and one ends MaxIters at 48.  The
    # digest was computed while profiles still held one ``Effort`` a player
    # and dynamics still stacked its whole history on every iteration.
    def test_ladder_golden_digest(self):
        h = hashlib.sha256()
        with mock.patch.object(verify, "_search_array", wraps=verify._search_array) as spy:
            for n in (20, 45, 60):
                base = _ladder_spec(n)
                cut = gc.thresholds(base)
                low, high = cut.theta_no_sabotage, cut.theta_sabotage
                for theta in (low / 2, math.sqrt(low * high), 2 * high):
                    spec = make_spec(base.group1.valuations, base.group2.valuations, theta)
                    starts = (self._jitter(spec, n), gc.StrategyProfile.zeros(spec))
                    for order in ("round_robin", "simultaneous"):
                        for initial in starts:
                            r = _reference_run(spec, initial, 48, order)
                            h.update(f"{r.status.value}:{r.iterations}:{r.period}\n".encode())
                            for profile in r.trajectory:
                                h.update(f"{_profile_hex(profile)}\n".encode())
        assert spy.call_count > 0  # simultaneous play at 45 and 60 reaches the arrays
        assert h.hexdigest() == (
            "50032cdaa7516aa01454577210dd71e8c1bd431e97f76517d591037a7c7c09f3"
        )

    def test_input_validation(self, gap_spec):
        with pytest.raises(gc.ContestError):
            gc.best_response_dynamics(gap_spec, gc.StrategyProfile.zeros(gap_spec), 0)
        with pytest.raises(gc.ContestError):
            gc.best_response_dynamics(gap_spec, gc.StrategyProfile.zeros(gap_spec), 5, "mixed")
        other = make_spec([1, 0.5, -1], [1, -1], 1.0)
        with pytest.raises(gc.ShapeMismatch):
            gc.best_response_dynamics(gap_spec, gc.StrategyProfile.zeros(other), 5)
