"""Exception types shared across the package, one per way a failure is
handled. cli.main prints any of them as one error line."""


class InscorrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(InscorrError, ValueError):
    """A config key or command-line flag is invalid; the message names it."""


class ContractError(InscorrError, ValueError):
    """A caller broke a documented precondition: a shape, a label or a
    parameter outside its range."""


class CapacityError(InscorrError, ValueError):
    """A class holds fewer rows than the open_set noise asks to replace."""


class NumericError(InscorrError, ArithmeticError):
    """A computation produced non-finite values (NaN losses included)."""


class FormatError(InscorrError, IOError):
    """A file is not a readable container; the message names the fault:
    magic, version, truncation, trailing bytes or crc."""
