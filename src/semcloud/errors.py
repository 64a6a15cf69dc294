"""The one root of every domain error the layers raise, and the errors of
the modules a numpy-free stage reads (``pilots``, ``cli``'s simulate)."""


class DomainError(Exception):
    """Bad input or state a layer rejects; the CLI exits 1 on it."""


class LearningError(DomainError):
    """Base class for model-fitting errors, and for unreadable pilot stats."""


class ConfigureError(DomainError):
    """The rule corpus cannot configure a pipeline, or none was configured."""
