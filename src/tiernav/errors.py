"""Shared exception types, mapped to CLI exit codes in cli.py."""


class TiernavError(Exception):
    """Base class for all package errors."""


class ShapeError(TiernavError):
    """Operand shapes disagree with an operation's contract."""


class ConfigError(TiernavError):
    """Bad configuration value, unknown key, or out-of-range setting."""


class ContractError(TiernavError):
    """A caller violated an operation precondition."""


class StateError(TiernavError):
    """A backward through a tape that an earlier backward consumed."""


class NumericsError(TiernavError):
    """Non-finite values or numerical failure during training."""


class GenerationError(TiernavError):
    """World or episode generation failed after bounded retries."""


class InfeasibleError(TiernavError):
    """No path exists between the requested endpoints."""


class MissingPrerequisiteError(TiernavError):
    """A command needs an artifact produced by an earlier command."""
