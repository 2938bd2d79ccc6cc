"""Exception types shared across the library."""


def describe(exc: BaseException) -> str:
    """One line for a failure: the message, then each note attached to
    the exception (PEP 678), such as the ensemble member that raised it."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", [])])


class WavestackError(Exception):
    """Base class for all library errors."""


class InvalidInput(WavestackError):
    """The config, a data file or a checkpoint is at fault (CLI exit 2)."""


class SeriesTooShort(InvalidInput):
    pass


class NonFiniteInput(WavestackError):
    pass


class ResolutionTooFine(WavestackError):
    pass


class ShapeMismatch(WavestackError):
    pass


class InputTooShort(WavestackError):
    pass


class NonFiniteGradient(WavestackError):
    pass


class NonFiniteLoss(WavestackError):
    pass


class MissingColumn(InvalidInput):
    pass


class MalformedCsv(InvalidInput):
    """A data file the csv reader cannot parse, such as one with a field
    over its size limit."""


class NonNumericCell(InvalidInput):
    def __init__(self, row, message=None):
        super().__init__(message or f"non-numeric cell at row {row}")
        self.row = row


class EmptySeries(InvalidInput):
    pass


class PartitionTooShort(InvalidInput):
    pass


class ZeroVariance(InvalidInput):
    pass


class ConfigError(InvalidInput):
    pass


class ConfigMismatch(InvalidInput):
    pass


class CorruptCheckpoint(InvalidInput):
    pass
