from ..errors import DomainError


class DatalogError(DomainError):
    """Base class for every engine error."""


class DatalogSyntaxError(DatalogError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SafetyError(DatalogError):
    """A head variable is not bound by any positive atom or binding."""


class ProgramRecursionError(DatalogError):
    """The predicate dependency graph contains a cycle."""


class MissingExternal(DatalogError):
    """A rule calls an external function that is not registered."""


class SignatureMismatch(DatalogError):
    """Registered external arity does not match a call site."""


class TypeMismatch(DatalogError):
    """Arithmetic or comparison applied to a non-numeric constant."""


class EmptyAggregate(DatalogError):
    """A comprehension aggregate matched no facts; fails the rule instance."""
