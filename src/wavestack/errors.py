"""Exception types shared across the library."""


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
