"""Exception types shared across the package."""


class WideCnnError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(WideCnnError):
    """Shapes, layouts, or layer wiring are inconsistent."""


class UnsupportedLayerError(WideCnnError):
    """An operation was asked to handle a layer kind it does not support."""


class NumericOverflowError(WideCnnError):
    """A non-finite value appeared during evaluation; names the layer."""


class AssumptionError(WideCnnError):
    """A precondition on data or architecture is violated.

    Carries an optional machine-readable ``witness`` (e.g. the first
    offending index tuple) for diagnostics.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WidthError(WideCnnError):
    """A layer is too narrow for the requested operation."""


class ConstructionFailedError(WideCnnError):
    """A constructive weight synthesis exhausted its retry budget."""


class IllConditionedError(WideCnnError):
    """A linear system is numerically singular."""


class GenerationError(WideCnnError):
    """Synthetic data generation failed to meet its postconditions."""


class RangeError(WideCnnError):
    """A value lies outside the range on which an activation is inverted."""


class NumericError(WideCnnError):
    """A numerical routine (e.g. SVD) failed to converge."""


class FormatError(WideCnnError):
    """A file does not conform to its documented byte or text format."""


class ConfigError(WideCnnError):
    """An experiment configuration is malformed or has unknown keys."""


class TrainingDivergedError(WideCnnError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
