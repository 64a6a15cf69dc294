"""Slicing search: grids, exhaustive optimization, curve."""

import functools
import math

import pytest

from semcloud.optimizer import (
    NonFiniteModel,
    OptResult,
    SearchSpace,
    optimize_slicing,
    sweet_spot_curve,
)
from semcloud.optimizer.search import geometric_grid


def reference_grid(lo, hi, steps):
    """geometric_grid as it was written before the grid became one tight loop."""
    lo = max(1, int(lo))
    hi = max(lo, int(hi))
    if steps < 2 or lo == hi:
        return [lo] if lo == hi else [lo, hi]
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    values = []
    for k in range(steps):
        v = int(round(lo * ratio**k))
        v = min(max(v, lo), hi)
        if not values or v != values[-1]:
            values.append(v)
    return values


@functools.lru_cache(maxsize=None)
def _reference_ns_grid(nc, steps, span):
    return tuple(reference_grid(nc / span, nc, steps))


def reference_candidates(n, nc_steps=16, ns_steps=16, span=64):
    """Every (nc, ns) pair by the per-pair filter ``1 <= ns <= nc <= n``."""
    return tuple((nc, ns) for nc in reference_grid(n / span, n, nc_steps)
                 for ns in _reference_ns_grid(nc, ns_steps, span) if 1 <= ns <= nc <= n)


def reference_search(objective, space):
    """``(nc, ns, value, evaluated, dropped)`` of a scan that keeps the
    candidate of least ``(value, -ns, -nc)``, dropping non-finite values."""
    best = None
    evaluated = dropped = 0
    for nc, ns in space.candidates():
        evaluated += 1
        value = float(objective(nc, ns))
        if not math.isfinite(value):
            dropped += 1
            continue
        key = (value, -ns, -nc)
        if best is None or key < best[0]:
            best = (key, nc, ns, value)
    return best[1], best[2], best[3], evaluated, dropped


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

    @pytest.mark.parametrize("lo, hi, steps", [
        (50, 10, 5), (0.3, 10, 5), (-4, 0.5, 5), (7, 7, 5), (7, 7, 0),
        (10, 100, 0), (10, 100, 1), (10, 100, 2),
    ], ids=["lo-above-hi", "lo-below-1", "both-below-1", "lo-equals-hi",
            "lo-equals-hi-0-steps", "0-steps", "1-step", "2-steps"])
    def test_grid_and_curve_are_never_empty(self, lo, hi, steps):
        grid = geometric_grid(lo, hi, steps)
        assert grid and grid == sorted(set(grid)) and grid[0] >= 1
        # so sweet_spot_curve always has a row: one per ns of its grid
        space = SearchSpace(n=100, ns_steps=max(steps, 1))
        for nc in (0, 1, 100):
            curve = sweet_spot_curve(lambda nc, ns: float(ns), space, nc)
            assert [ns for ns, _ in curve] == space.ns_values(nc) != []

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


class TestExactness:
    """The grid and the scan against the code they replaced, value for value."""

    # Every n up to 4,000 (the fleet's sizes) and every 11th n to 30,000;
    # every lo below hi up to 200 at the two step counts in use, and every
    # lo and hi up to 40 at each step count from 1 to 20.  The whole ranges
    # (every n to 30,000; lo and hi to 300 at steps 1 to 20) take about
    # 15 s and compared equal once.
    SIZES = (*range(4001), *range(4001, 30001, 11))
    GRID_CASES = [(lo, hi, steps) for steps in (5, 16) for lo in range(201)
                  for hi in range(lo + 1, 201)]
    GRID_CASES += [(lo, hi, steps) for steps in range(1, 21) for lo in range(41)
                   for hi in range(41)]

    def test_candidates_at_the_defaults(self):
        for n in self.SIZES:
            assert SearchSpace(n).candidates() == reference_candidates(n), n

    def test_candidates_at_the_small_project_steps(self):
        for n in range(5001):
            assert (SearchSpace(n, nc_steps=5, ns_steps=5, span=16).candidates()
                    == reference_candidates(n, 5, 5, 16)), n

    def test_geometric_grid(self):
        lo, hi, steps = zip(*self.GRID_CASES)
        assert list(map(geometric_grid, lo, hi, steps)) == list(map(reference_grid, lo, hi, steps))

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.0],
        [-0.0, 0.0, 1.0],
        [1.0, math.nan, -0.0, math.inf, 0.0, -math.inf, 0.0],
        [2.5] * 7,
    ], ids=["zero-first", "negative-zero-first", "non-finite-dropped", "all-equal"])
    def test_ties_and_non_finite_values(self, values):
        space = SearchSpace(n=500)
        cycle = {pair: values[i % len(values)] for i, pair in enumerate(space.candidates())}
        def objective(nc, ns):
            return cycle[(nc, ns)]

        result = optimize_slicing(objective, space)
        nc, ns, value, evaluated, dropped = reference_search(objective, space)
        assert (result.nc, result.ns, result.evaluated, result.dropped) == (
            nc, ns, evaluated, dropped)
        assert repr(result.value) == repr(value)

    def test_an_objective_that_raises_midway(self):
        space = SearchSpace(n=500)
        raise_at = space.candidates()[37]

        def objective_for(calls):
            def objective(nc, ns):
                calls.append((nc, ns))
                if (nc, ns) == raise_at:
                    raise ZeroDivisionError("model failed")
                return float(nc - ns)
            return objective

        calls, reference_calls = [], []
        with pytest.raises(ZeroDivisionError):
            optimize_slicing(objective_for(calls), space)
        with pytest.raises(ZeroDivisionError):
            reference_search(objective_for(reference_calls), space)
        assert calls == reference_calls == list(space.candidates()[:38])


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
        result = optimize_slicing(objective, space)
        curve = sweet_spot_curve(objective, space, result.nc)
        best = min(curve, key=lambda p: (p[1], -p[0]))
        restricted = min(
            ((c, s) for c, s in space.candidates() if c == result.nc),
            key=lambda p: (objective(*p), -p[1]))
        assert best[0] == restricted[1]
        # the curve's least value at the optimum's nc, largest ns first, is the optimum
        assert best == (result.ns, result.value)

    def test_explicit_nc_and_nan_passthrough(self):
        space = SearchSpace(n=1000)

        def holed(nc, ns):
            return math.nan if ns == nc else float(ns)

        curve = sweet_spot_curve(holed, space, nc=64)
        assert curve[0][0] >= 1
        assert math.isnan(curve[-1][1])

