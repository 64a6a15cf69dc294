"""Slicing parameter search.

The objective is a callable ``f(nc, ns) -> float`` (typically a fitted
time model queried at fixed workload features).  Grids are geometric
because runtime responds to relative, not absolute, changes in the chunk
and slice counts.  Candidate pairs always satisfy ``1 <= ns <= nc <= n``.
"""

import dataclasses
import functools
import math

from ..errors import DomainError


class OptimizerError(DomainError):
    pass


class EmptySpace(OptimizerError):
    """The search space contains no feasible (nc, ns) pair."""


class NonFiniteModel(OptimizerError):
    """The objective returned no finite value on the whole grid."""


def geometric_grid(lo, hi, steps):
    """Integer geometric grid from lo to hi inclusive, deduplicated."""
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


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """Candidate grid for the chunk count nc and slice count ns."""

    n: int
    nc_steps: int = 16
    ns_steps: int = 16
    span: int = 64

    def __post_init__(self):
        for name in ("nc_steps", "ns_steps", "span"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))

    def nc_values(self):
        return geometric_grid(self.n / self.span, self.n, self.nc_steps)

    def ns_values(self, nc):
        return geometric_grid(nc / self.span, nc, self.ns_steps)

    def candidates(self):
        """Every feasible (nc, ns) pair, by nc and then ns, built once per space."""
        return self._candidates

    @functools.cached_property
    def _candidates(self):
        return tuple((nc, ns) for nc in self.nc_values() for ns in self.ns_values(nc)
                     if 1 <= ns <= nc <= self.n)


@dataclasses.dataclass(frozen=True)
class OptResult:
    nc: int
    ns: int
    value: float
    evaluated: int
    dropped: int


def optimize_slicing(objective, space):
    """Exhaustive minimisation of objective(nc, ns) over the space.

    Non-finite objective values are dropped.  Ties on the objective are
    broken toward larger ns, then larger nc, preferring the finer
    slicing among equally fast configurations.
    """
    best = None
    evaluated = 0
    dropped = 0
    for nc, ns in space.candidates():
        evaluated += 1
        value = float(objective(nc, ns))
        if not math.isfinite(value):
            dropped += 1
            continue
        key = (value, -ns, -nc)
        if best is None or key < best[0]:
            best = (key, nc, ns, value)
    if evaluated == 0:
        raise EmptySpace("no feasible (nc, ns) candidates for n=%d" % space.n)
    if best is None:
        raise NonFiniteModel(
            "objective was non-finite on all %d candidates" % evaluated
        )
    return OptResult(nc=best[1], ns=best[2], value=best[3], evaluated=evaluated, dropped=dropped)


def sweet_spot_curve(objective, space, nc=None):
    """Objective as a function of ns at fixed nc.

    When nc is omitted the exhaustive optimum's nc is used, so the curve
    shows the valley around the selected configuration.  Returns a list
    of (ns, value) pairs; non-finite values are reported as nan.
    """
    if nc is None:
        nc = optimize_slicing(objective, space).nc
    curve = []
    for ns in space.ns_values(nc):
        value = float(objective(nc, ns))
        curve.append((ns, value if math.isfinite(value) else math.nan))
    if not curve:
        raise EmptySpace("no ns candidates for nc=%d" % nc)
    return curve


def write_curve(path, curve, header=("ns", "value")):
    """Write a (x, y) curve as a tab-delimited text file."""
    lines = ["\t".join(header)]
    for x, y in curve:
        lines.append("%s\t%s" % (x, repr(float(y))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
