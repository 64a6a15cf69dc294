class EtlError(Exception):
    pass


class UnreadableSource(EtlError):
    """The source file cannot be opened or parsed at the container level."""


class MappingGap(EtlError):
    """A source field has no unified mapping."""


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
