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
    """A rule reads a variable where it is not bound, or binds one twice."""


class ProgramRecursionError(DatalogError):
    """The predicate dependency graph contains a cycle."""


class MissingExternal(DatalogError):
    """A rule calls an external function that is not registered."""


class SignatureMismatch(DatalogError):
    """Registered external arity does not match a call site, an external
    returned a different number of values than it was given rows, or a
    fitted model's feature count is not its external's arity."""


class TypeMismatch(DatalogError):
    """Arithmetic or comparison applied to a non-numeric constant."""
