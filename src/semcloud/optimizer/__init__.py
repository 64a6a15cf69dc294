from .search import (
    EmptySpace,
    NonFiniteModel,
    OptResult,
    SearchSpace,
    optimize_slicing,
    sweet_spot_curve,
)

__all__ = [
    "EmptySpace",
    "NonFiniteModel",
    "OptResult",
    "SearchSpace",
    "optimize_slicing",
    "sweet_spot_curve",
]
