"""Exception types shared across the library."""


class WavestackError(Exception):
    """Base class for all library errors."""


class SeriesTooShort(WavestackError):
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


class MissingColumn(WavestackError):
    pass


class NonNumericCell(WavestackError):
    def __init__(self, row, message=None):
        super().__init__(message or f"non-numeric cell at row {row}")
        self.row = row


class EmptySeries(WavestackError):
    pass


class PartitionTooShort(WavestackError):
    pass


class ZeroVariance(WavestackError):
    pass


class ConfigError(WavestackError):
    pass


class ConfigMismatch(WavestackError):
    pass


class CorruptCheckpoint(WavestackError):
    pass
