"""Exception types shared across the package."""


class InscorrError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(InscorrError, ValueError):
    """Array shapes are incompatible for the requested operation."""


class LabelError(InscorrError, ValueError):
    """A class label lies outside the valid range."""


class ContractError(InscorrError, ValueError):
    """A documented precondition was violated by the caller."""


class NumericError(InscorrError, ArithmeticError):
    """A computation produced non-finite values."""


class DataError(InscorrError, ValueError):
    """Input data contains invalid entries (e.g. NaN losses)."""


class CapacityError(InscorrError, ValueError):
    """A resource pool is too small for the requested operation."""


class ParameterError(InscorrError, ValueError):
    """A transform parameter lies outside its documented range."""


class ConfigError(InscorrError, ValueError):
    """An experiment configuration is invalid; message names the key path."""


class DatasetLoadError(InscorrError, IOError):
    """Base class for dataset/checkpoint deserialization failures."""


class FormatError(DatasetLoadError):
    """Bad magic bytes: the file is not in the expected container format."""


class VersionError(DatasetLoadError):
    """The container version is not the one this code reads."""


class TruncatedError(DatasetLoadError):
    """The file ended before the declared payload was complete."""


class ChecksumError(DatasetLoadError):
    """The payload checksum does not match the stored value."""
