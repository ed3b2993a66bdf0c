import contextlib
import io
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupcontest as gc
from groupcontest import cli
from helpers import (
    Effort,
    RegionRow,
    effort,
    make_spec,
    random_spec,
    region_rows,
    region_rows_csv,
    specs,
)

# Positive finite axis points from ordinary sizes out to 1e-300 and 1e300,
# where ``.9g`` prints exponents and products leave the float range.
region_points = st.one_of(st.floats(0.01, 100.0), st.floats(1e-300, 1e300))
region_axes = st.lists(region_points, min_size=1, max_size=8)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("region")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


class TestThresholds:
    def test_symmetric_tops_and_bottoms(self):
        # tops a, bottom magnitudes b: cutoffs a/(2b) and 2a/b
        spec = make_spec([3, -2], [3, -2], 1.0)
        cut = gc.thresholds(spec)
        assert cut.theta_no_sabotage == pytest.approx(3 / 4, rel=1e-12)
        assert cut.theta_sabotage == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_fully_symmetric(self, c):
        spec = make_spec([c, -c], [c, -c], 1.0)
        cut = gc.thresholds(spec)
        assert cut.theta_no_sabotage == pytest.approx(0.5, rel=1e-12)
        assert cut.theta_sabotage == pytest.approx(2.0, rel=1e-12)

    def test_asymmetric_example(self):
        cut = gc.thresholds(make_spec([4, 1, -1], [4, 2, -1], 0.5))
        assert cut.theta_no_sabotage == 2.0
        assert cut.theta_sabotage == 8.0
        assert cut.theta_no_sabotage < cut.theta_sabotage

    @given(specs())
    def test_strict_ordering(self, spec):
        cut = gc.thresholds(spec)
        assert cut.theta_no_sabotage < cut.theta_sabotage


class TestClassify:
    def test_gap_in_symmetric_case(self):
        regime, boundary = gc.classify(make_spec([1, -1], [1, -1], 1.0))
        assert regime is gc.Regime.NO_PURE and not boundary

    def test_no_sabotage_example(self):
        regime, boundary = gc.classify(make_spec([4, 1, -1], [4, 2, -1], 0.5))
        assert regime is gc.Regime.NO_SABOTAGE and not boundary

    def test_sabotage_example(self):
        regime, boundary = gc.classify(make_spec([1, -4], [1, -4], 2.5))
        assert regime is gc.Regime.SABOTAGE and not boundary

    def test_boundary_flags(self):
        cut = gc.thresholds(make_spec([4, 1, -1], [4, 2, -1], 1.0))
        low = make_spec([4, 1, -1], [4, 2, -1], cut.theta_no_sabotage)
        assert gc.classify(low) == (gc.Regime.NO_SABOTAGE, True)
        high = make_spec([4, 1, -1], [4, 2, -1], cut.theta_sabotage)
        assert gc.classify(high) == (gc.Regime.SABOTAGE, True)

    @given(specs())
    def test_exactly_one_regime(self, spec):
        regime, _ = gc.classify(spec)
        cut = gc.thresholds(spec)
        if spec.theta <= cut.theta_no_sabotage:
            assert regime is gc.Regime.NO_SABOTAGE
        elif spec.theta >= cut.theta_sabotage:
            assert regime is gc.Regime.SABOTAGE
        else:
            assert regime is gc.Regime.NO_PURE

    def test_theta_sweep_is_monotone(self):
        # Raising theta walks through the regimes in one direction only.
        order = {gc.Regime.NO_SABOTAGE: 0, gc.Regime.NO_PURE: 1, gc.Regime.SABOTAGE: 2}
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = random_spec(rng)
            cut = gc.thresholds(base)
            thetas = np.geomspace(cut.theta_no_sabotage / 4, cut.theta_sabotage * 4, 60)
            stages = [
                order[gc.classify(make_spec(base.group1.valuations, base.group2.valuations, t))[0]]
                for t in thetas
            ]
            assert stages == sorted(stages)


class TestSolve:
    def test_no_sabotage_profile(self):
        spec = make_spec([4, 1, -1], [4, 2, -1], 0.5)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.NO_SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 1)) == Effort(1.0, 0.0)
        assert effort(result.profile, gc.PlayerId(2, 1)) == Effort(1.0, 0.0)
        assert result.effective.z1 == 1.0 and result.effective.z2 == 1.0
        assert gc.win_probability_short(result.effective.z1, result.effective.z2) == 0.5
        assert gc.is_epsilon_nash(spec, result.profile).is_epsilon_nash

    def test_sabotage_profile(self):
        spec = make_spec([1, -4], [1, -4], 2.5)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 2)) == Effort(0.0, 1.0)
        assert effort(result.profile, gc.PlayerId(2, 2)) == Effort(0.0, 1.0)
        assert result.effective.z1 == -2.5 and result.effective.z2 == -2.5
        assert gc.is_epsilon_nash(spec, result.profile).is_epsilon_nash

    def test_gap_returns_no_profile(self):
        result = gc.solve(make_spec([1, -1], [1, -1], 1.0))
        assert result.regime is gc.Regime.NO_PURE
        assert result.profile is None and result.effective is None

    @given(specs(theta=st.floats(0.01, 0.99)))
    def test_structure_of_solutions(self, spec):
        # Scale theta into each existing-equilibrium regime and check
        # the support: only the extreme player of each group is active,
        # on the right axis, with the right sign of group effort.
        cut = gc.thresholds(spec)
        vals = (spec.group1.valuations, spec.group2.valuations)
        low = make_spec(*vals, spec.theta * cut.theta_no_sabotage)
        result = gc.solve(low)
        assert result.regime is gc.Regime.NO_SABOTAGE
        assert result.effective.z1 > 0 and result.effective.z2 > 0
        for p in gc.players(low):
            e = effort(result.profile, p)
            assert e.y == 0.0
            assert (e.x > 0) == (p.index == 1)
        high = make_spec(*vals, cut.theta_sabotage / spec.theta)
        result = gc.solve(high)
        assert result.regime is gc.Regime.SABOTAGE
        assert result.effective.z1 < 0 and result.effective.z2 < 0
        for p in gc.players(high):
            e = effort(result.profile, p)
            assert e.x == 0.0
            assert (e.y > 0) == (p.index == high.group(p.group).size)

    @given(specs(theta=st.floats(0.01, 0.99)))
    def test_total_spend_bound(self, spec):
        vals = (spec.group1.valuations, spec.group2.valuations)
        cut = gc.thresholds(spec)
        low = make_spec(*vals, spec.theta * cut.theta_no_sabotage)
        result = gc.solve(low)
        top1, top2 = vals[0][0], vals[1][0]
        spend = (
            effort(result.profile, gc.PlayerId(1, 1)).x
            + effort(result.profile, gc.PlayerId(2, 1)).x
        )
        assert spend == pytest.approx(top1 * top2 / (top1 + top2), rel=1e-10)
        assert spend < min(top1, top2)


def _scaled(spec, k):
    vals = [[math.ldexp(v, k) for v in g.valuations] for g in (spec.group1, spec.group2)]
    return make_spec(*vals, spec.theta)


class TestScale:
    @pytest.mark.parametrize("s", [1e160, 1e-170])
    def test_extreme_unit_scales(self, s):
        spec = make_spec([4 * s, -s], [4 * s, -2 * s], 0.5)
        cut = gc.thresholds(spec)
        assert cut.theta_no_sabotage == pytest.approx(1.0, rel=1e-12)
        assert cut.theta_sabotage == pytest.approx(6.0, rel=1e-12)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.NO_SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 1)).x == pytest.approx(s, rel=1e-12)
        assert gc.is_epsilon_nash(spec, result.profile).is_epsilon_nash

    @pytest.mark.parametrize("top, bottom", [(1e300, -1e-30), (1e308, -5e-324)])
    def test_valuations_spanning_more_than_the_float_range(self, top, bottom):
        # Both cutoffs exceed the largest float: theta is below the lower one.
        spec = make_spec([top, bottom], [top, bottom], 0.5)
        assert gc.thresholds(spec) == gc.Thresholds(math.inf, math.inf)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.NO_SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 1)).x == top / 4

    def test_tops_vanishing_next_to_bottoms(self):
        # Both cutoffs lie below the smallest float: theta is above the upper one.
        spec = make_spec([5e-324, -1e308], [5e-324, -1e308], 0.5)
        assert gc.thresholds(spec) == gc.Thresholds(0.0, 0.0)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 2)).y == 2.5e307

    def test_top_valuations_spanning_more_than_the_float_range(self):
        spec = make_spec([1e300, -1], [1e-10, -1], 1e-12)
        result = gc.solve(spec)
        assert result.regime is gc.Regime.NO_SABOTAGE
        assert effort(result.profile, gc.PlayerId(1, 1)).x == pytest.approx(1e-10, rel=1e-12)

    @given(
        specs(),
        st.sampled_from(["low", "high", "as_drawn"]),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.integers(-1000, 1000),
    )
    def test_power_of_two_scaling_is_exact(self, spec, where, u, k):
        cut = gc.thresholds(spec)
        vals = (spec.group1.valuations, spec.group2.valuations)
        if where == "low":
            spec = make_spec(*vals, cut.theta_no_sabotage * u)
        elif where == "high":
            spec = make_spec(*vals, cut.theta_sabotage / u)
        big = _scaled(spec, k)
        assert gc.thresholds(big) == gc.thresholds(spec)
        assert gc.classify(big) == gc.classify(spec)
        result, scaled = gc.solve(spec), gc.solve(big)
        assert scaled.regime is result.regime and scaled.boundary == result.boundary
        if result.profile is None:
            assert scaled.profile is None
            return
        for p in gc.players(spec):
            e, f = effort(result.profile, p), effort(scaled.profile, p)
            assert (f.x, f.y) == (math.ldexp(e.x, k), math.ldexp(e.y, k))


class TestRegionSample:
    def test_figure1_boundary_point(self):
        assert gc.region_sample(1, 1.0, [2.0], [2.0]).margin.tolist() == [[0.0]]

    def test_figure1_outside_point(self):
        assert gc.region_sample(1, 1.0, [1.0], [1.0]).margin.tolist() == [[-0.5]]

    def test_figure2_boundary_point(self):
        grid = gc.region_sample(2, 1.0, [1.0], [1.0], theta=2.0)
        assert grid.margin.tolist() == [[0.0]]

    def test_margin_flag_coherent(self):
        grid = gc.region_sample(1, 0.8, np.linspace(0.2, 4, 17), np.linspace(0.2, 4, 17))
        lines = gc.region_csv(grid).splitlines()[1:]
        assert [line.endswith(",true") for line in lines] == (grid.margin >= 0).ravel().tolist()

    def test_figure1_monotone_in_w(self):
        grid = list(np.linspace(0.2, 4.0, 25))
        tight = gc.region_sample(1, 1.3, grid, grid)
        loose = gc.region_sample(1, 0.7, grid, grid)
        assert (~(tight.margin >= 0) | (loose.margin >= 0)).all()
        assert (tight.margin < loose.margin).all()

    def test_figure2_monotone_in_theta(self):
        grid = list(np.linspace(0.2, 4.0, 25))
        small = gc.region_sample(2, 1.0, grid, grid, theta=1.0)
        large = gc.region_sample(2, 1.0, grid, grid, theta=2.0)
        assert (~(small.margin >= 0) | (large.margin >= 0)).all()

    def test_grid_errors(self):
        with pytest.raises(gc.EmptyGrid):
            gc.region_sample(1, 1.0, [], [1.0])
        with pytest.raises(gc.NonPositiveGridPoint):
            gc.region_sample(1, 1.0, [1.0, 0.0], [1.0])
        with pytest.raises(gc.ContestError):
            gc.region_sample(2, 1.0, [1.0], [1.0])  # theta missing

    def test_csv_rendering(self):
        text = gc.region_csv(gc.region_sample(1, 1.0, [2.0, 1 / 3], [2.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "axis1,axis2,margin,in_region"
        assert lines[1] == "2,2,0,true"
        assert lines[2] == "0.333333333,2,-0.714285714,false"

    def test_grid_arrays(self):
        axis1 = np.array([3.0, 1.0, 2.0])
        grid = gc.region_sample(1, 0.5, axis1, [4.0, 0.5, 1.0, 2.0, 8.0])
        assert grid.margin.shape == (3, 5) and len(grid) == 15
        assert grid.axis1.tolist() == [3.0, 1.0, 2.0]
        assert grid.margin[2, 3] == 2.0 * 2.0 / 4.0 - 0.5
        for array in (grid.axis1, grid.axis2, grid.margin):
            assert array.dtype == np.float64
            with pytest.raises(ValueError):
                array[0] = 1.0
        axis1[0] = 5.0  # the caller's array is copied, not frozen
        assert grid.axis1[0] == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_non_positive_point(self, bad):
        with pytest.raises(gc.NonPositiveGridPoint, match="finite and positive"):
            gc.region_sample(1, 1.0, [1.0], [2.0, bad])

    @pytest.mark.parametrize("fixed", [math.nan, math.inf, -math.inf])
    def test_non_finite_fixed(self, fixed):
        with pytest.raises(gc.ContestError, match="finite"):
            gc.region_sample(1, fixed, [1.0], [1.0])

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0])
    def test_figure2_theta_must_be_finite_positive(self, theta):
        with pytest.raises(gc.ContestError, match="theta"):
            gc.region_sample(2, 1.0, [1.0], [1.0], theta=theta)

    @settings(max_examples=60)  # two CLI runs per example
    @given(
        figure=st.sampled_from([1, 2]),
        theta=st.floats(1e-3, 1e3),
        fixed=st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False)),
        axis1=region_axes,
        axis2=region_axes,
        ends=st.tuples(region_points, region_points, st.integers(1, 6)),
    )
    def test_matches_point_by_point_oracle(self, spec_dir, figure, theta, fixed, axis1, axis2, ends):
        grid = gc.region_sample(figure, fixed, axis1, axis2, theta=theta)
        rows = region_rows(figure, fixed, axis1, axis2, theta)
        assert gc.region_csv(grid) == region_rows_csv(rows)
        assert len(grid) == len(rows)
        points = [(a1, a2) for a1 in grid.axis1.tolist() for a2 in grid.axis2.tolist()]
        assert points == [(r.axis1, r.axis2) for r in rows]
        assert (grid.margin >= 0).ravel().tolist() == [r.in_region for r in rows]
        for got, want in zip(grid.margin.ravel().tolist(), rows, strict=True):
            assert _bits(got) == _bits(want.margin)

        # The CLI sweeps evenly spaced axes; theta comes from the spec.
        spec = spec_dir / "spec.json"
        spec.write_text(json.dumps({
            "theta": theta,
            "groups": [{"valuations": [4, 1, -1]}, {"valuations": [4, 2, -1]}],
        }))
        lo, hi, steps = ends
        axis = np.linspace(lo, hi, steps).tolist()
        rows = region_rows(figure, fixed, axis, axis, theta)
        argv = ["region", "--spec", str(spec), "--figure", str(figure), f"--fixed={fixed!r}",
                "--axis1", f"{lo!r}:{hi!r}:{steps}", "--axis2", f"{lo!r}:{hi!r}:{steps}"]
        assert _cli_output(argv) == region_rows_csv(rows)
        expected = io.StringIO()
        try:
            with contextlib.redirect_stdout(expected):
                cli._emit([
                    {"axis1": r.axis1, "axis2": r.axis2, "margin": r.margin,
                     "in_region": r.in_region}
                    for r in rows
                ])
        except cli.NonFiniteOutput:  # JSON cannot spell a nan margin: the sweep is refused
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.run([*argv, "--format", "json"]) == 1
            assert out.getvalue() == ""
        else:
            assert _cli_output([*argv, "--format", "json"]) == expected.getvalue()


def _one_row_csv(margins: list[float]) -> tuple[str, str]:
    """``region_csv`` of a one-row grid holding ``margins`` (axis points
    all 1), and the oracle's CSV of the same rows."""
    margin = np.array([margins], dtype=np.float64)
    grid = gc.RegionGrid(np.ones(1), np.ones(margin.shape[1]), margin)
    rows = [RegionRow(1.0, 1.0, m >= 0, m) for m in margins]
    return gc.region_csv(grid), region_rows_csv(rows)


# Exact 9-digit half-way ties, which '%.9g' rounds half to even, the same
# ties in other binary scales, and the floats nearest to decimal ties,
# whose scaled products often round onto the tie.
_TIES = [123456788.5, 123456789.5, 1234567885.0, 1234567895.0]
_SPELLING_CORPUS = (
    _TIES
    + [math.ldexp(t, k) for t in _TIES for k in range(-60, 61)]
    + [float(f"{d}5e{k}") for d in (100000000, 324305772, 500000001, 999999999)
       for k in range(-40, 30)]
    + [math.nextafter(10.0**k, to) for k in range(-30, 31) for to in (math.inf, -math.inf)]
    + [10.0**k for k in range(-30, 31)]
    + [999999999.5, 999999999.49999994, 9.999999995, 0.00099999999949999996, 1e-4, 1e-5]
)


class TestRegionCsv:
    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_margin_spelling_matches_format(self, margins):
        got, want = _one_row_csv(margins)
        assert got == want

    def test_margin_spelling_corpus(self):
        margins = _SPELLING_CORPUS + [-m for m in _SPELLING_CORPUS]
        got, want = _one_row_csv(margins)
        assert got == want

    def test_no_runtime_warning_on_special_margins(self):
        margins = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                   5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _one_row_csv(margins)
        assert got == want

    # Block edges fall inside rows: one row longer than a block, rows that
    # do not divide a block, one column, and one point.
    @pytest.mark.parametrize("figure, n1, n2", [
        (2, 1, 40000), (1, 250, 300), (1, 40000, 1), (1, 1, 1),
    ])
    def test_blocks_match_oracle(self, figure, n1, n2):
        if figure == 2:  # exponent forms, and margins that overflow to inf
            axis1 = np.geomspace(1e290, 1e300, n1).tolist()
            axis2 = np.geomspace(1e-300, 1e300, n2).tolist()
            theta = 1e10
        else:
            axis1 = np.geomspace(1e-3, 1e3, n1).tolist()
            axis2 = np.linspace(0.1, 5.0, n2).tolist()
            theta = None
        grid = gc.region_sample(figure, 0.8, axis1, axis2, theta=theta)
        assert gc.region_csv(grid) == region_rows_csv(region_rows(figure, 0.8, axis1, axis2, theta))
