"""Slicing search: grids, exhaustive optimization, curve."""

import math

import pytest

from semcloud.optimizer import (
    NonFiniteModel,
    OptResult,
    SearchSpace,
    optimize_slicing,
    sweet_spot_curve,
    write_curve,
)
from semcloud.optimizer.search import geometric_grid


def bowl(nc_star=400, ns_star=80):
    """Smooth strictly convex objective with a known interior minimum."""
    def objective(nc, ns):
        return (math.log(nc / nc_star)) ** 2 + (math.log(ns / ns_star)) ** 2
    return objective


class TestGrids:
    def test_geometric_grid_bounds_and_monotone(self):
        grid = geometric_grid(10, 1000, 8)
        assert grid[0] == 10 and grid[-1] == 1000
        assert grid == sorted(set(grid))

    def test_small_ranges_deduplicate(self):
        assert geometric_grid(3, 3, 5) == [3]
        assert geometric_grid(2, 3, 10) == [2, 3]

    def test_candidates_are_feasible(self):
        space = SearchSpace(n=3870)
        cands = list(space.candidates())
        assert cands
        assert all(1 <= ns <= nc <= 3870 for nc, ns in cands)

    def test_tiny_n(self):
        assert list(SearchSpace(n=1).candidates()) == [(1, 1)]

    def test_candidates_are_built_once_in_grid_order(self):
        space = SearchSpace(n=3870)
        grid = [(nc, ns) for nc in space.nc_values() for ns in space.ns_values(nc)]
        assert space.candidates() is space.candidates()
        assert list(space.candidates()) == grid
        assert space == SearchSpace(n=3870) and hash(space) == hash(SearchSpace(n=3870))


class TestOptimize:
    def test_matches_exhaustive_enumeration(self):
        space = SearchSpace(n=3870)
        objective = bowl()
        result = optimize_slicing(objective, space)
        best = min(space.candidates(),
                   key=lambda p: (objective(*p), -p[1], -p[0]))
        assert (result.nc, result.ns) == best
        assert result.value == pytest.approx(objective(*best))
        assert result.evaluated == len(list(space.candidates()))
        assert result.dropped == 0

    def test_positive_scaling_preserves_argmin(self):
        space = SearchSpace(n=2000)
        objective = bowl(300, 50)
        a = optimize_slicing(objective, space)
        b = optimize_slicing(lambda nc, ns: 17.5 * objective(nc, ns), space)
        assert (a.nc, a.ns) == (b.nc, b.ns)

    def test_constant_objective_ties_to_finest_slicing(self):
        space = SearchSpace(n=500)
        result = optimize_slicing(lambda nc, ns: 1.0, space)
        # larger ns wins ties, then larger nc; finest is ns = nc = n
        assert (result.nc, result.ns) == (500, 500)

    def test_non_finite_values_are_dropped(self):
        space = SearchSpace(n=500)
        objective = bowl(100, 30)

        def holed(nc, ns):
            return math.nan if ns < 20 else objective(nc, ns)

        result = optimize_slicing(holed, space)
        assert result.dropped > 0
        assert result.ns >= 20

    def test_all_non_finite_raises(self):
        with pytest.raises(NonFiniteModel):
            optimize_slicing(lambda nc, ns: math.inf, SearchSpace(n=100))

    def test_result_is_an_opt_result(self):
        result = optimize_slicing(bowl(), SearchSpace(n=1000))
        assert isinstance(result, OptResult)


class TestCurve:
    def test_curve_minimum_matches_restricted_search(self):
        space = SearchSpace(n=3870)
        objective = bowl()
        nc = optimize_slicing(objective, space).nc
        curve = sweet_spot_curve(objective, space)
        best_ns = min(curve, key=lambda p: (p[1], -p[0]))[0]
        restricted = min(
            ((c, s) for c, s in space.candidates() if c == nc),
            key=lambda p: (objective(*p), -p[1]))
        assert best_ns == restricted[1]

    def test_explicit_nc_and_nan_passthrough(self):
        space = SearchSpace(n=1000)

        def holed(nc, ns):
            return math.nan if ns == nc else float(ns)

        curve = sweet_spot_curve(holed, space, nc=64)
        assert curve[0][0] >= 1
        assert math.isnan(curve[-1][1])

    def test_write_curve(self, tmp_path):
        path = tmp_path / "curve.tsv"
        write_curve(path, [(1, 2.0), (2, 3.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "ns\tvalue"
        assert lines[1] == "1\t2.0"

