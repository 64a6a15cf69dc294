from ..errors import DomainError


class EtlError(DomainError):
    pass


class UnreadableSource(EtlError):
    """The source file cannot be opened or parsed at the container level."""


class MappingGap(EtlError):
    """A source field has no unified mapping, or a record lacks a key field."""


class BadCell(EtlError):
    """A raw record's cell cannot become the value of its unified field."""

    def __init__(self, source, index, field, value, expected="a number"):
        self.source = source
        self.index = index
        self.field = field
        self.value = value
        super().__init__(
            "%s: record %d: field %r holds %r, not %s" % (source, index, field, value, expected)
        )


class MissingReference(EtlError):
    """The reference store has no row for the slice's machine/program."""

    def __init__(self, machine_id, program_id=None):
        self.machine_id = machine_id
        self.program_id = program_id
        key = machine_id if program_id is None else "%s/%s" % (machine_id, program_id)
        super().__init__("no reference entry for %s" % key)


class CapacityExceeded(EtlError):
    """The fast store cannot hold the prepared slice."""

    def __init__(self, needed_bytes, free_bytes):
        self.needed_bytes = needed_bytes
        self.free_bytes = free_bytes
        super().__init__(
            "store needs %d bytes but only %d are free" % (needed_bytes, free_bytes)
        )
