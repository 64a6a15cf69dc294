"""The one root of every domain error the layers raise."""


class DomainError(Exception):
    """Bad input or state a layer rejects; the CLI exits 1 on it."""
