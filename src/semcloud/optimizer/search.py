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
    last = None
    for k in range(steps):
        v = round(lo * ratio**k)
        if v < lo:
            v = lo
        elif v > hi:
            v = hi
        if v != last:
            values.append(v)
            last = v
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
        # every ns grid lies in [1, nc]; only an n below 1 puts nc above n
        return tuple((nc, ns) for nc in self.nc_values() if nc <= self.n
                     for ns in self.ns_values(nc))


@dataclasses.dataclass(frozen=True)
class OptResult:
    nc: int
    ns: int
    value: float
    evaluated: int
    dropped: int


def optimize_slicing(objective, space):
    """Exhaustive minimisation of objective(nc, ns) over the space.

    The objective is called once per candidate, in grid order.  Non-finite
    values are dropped.  Ties on the objective are broken toward larger ns,
    then larger nc, preferring the finer slicing among equally fast
    configurations.
    """
    pairs = space.candidates()
    values = [float(objective(nc, ns)) for nc, ns in pairs]
    if not values:
        raise EmptySpace("no feasible (nc, ns) candidates for n=%d" % space.n)
    finite = list(filter(math.isfinite, values))
    if not finite:
        raise NonFiniteModel(
            "objective was non-finite on all %d candidates" % len(values)
        )
    low = min(finite)
    ns, nc, value = max((ns, nc, value) for (nc, ns), value in zip(pairs, values)
                        if value == low)
    return OptResult(nc=nc, ns=ns, value=value, evaluated=len(values),
                     dropped=len(values) - len(finite))


def sweet_spot_curve(objective, space, nc):
    """Objective as a function of ns at fixed nc.

    At the exhaustive optimum's nc the curve shows the valley around the
    selected configuration.  Returns a list of (ns, value) pairs;
    non-finite values are reported as nan.
    """
    curve = []
    for ns in space.ns_values(nc):
        value = float(objective(nc, ns))
        curve.append((ns, value if math.isfinite(value) else math.nan))
    return curve
