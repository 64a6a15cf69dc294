from ..errors import DomainError


class SimError(DomainError):
    pass


class InsufficientResources(SimError):
    """No placement satisfies the memory reservations.

    Carries the binding constraint so the caller can report which
    reservation failed to fit.
    """

    def __init__(self, step, reservation_mb, best_free_mb):
        self.step = step
        self.reservation_mb = reservation_mb
        self.best_free_mb = best_free_mb
        super().__init__(
            "%s reservation %.1f MB exceeds best free node capacity %.1f MB"
            % (step, reservation_mb, best_free_mb)
        )


class SimulatedOutOfMemory(SimError):
    """An instance's working set exceeded its reservation."""
