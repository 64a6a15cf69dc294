"""The one root of every domain error the layers raise, and the errors of
the modules a numpy-free stage reads (``pilots``, ``cli``'s reader)."""


class DomainError(Exception):
    """Bad input or state a layer rejects; the CLI exits 1 on it."""


class InputError(DomainError):
    """A file a stage reads from the workdir is missing or unreadable."""


class LearningError(DomainError):
    """Base class for model-fitting errors, and for malformed pilot stats."""


class ConfigureError(DomainError):
    """The rule corpus cannot configure a pipeline."""
