"""Shared exception types."""


class DomainMismatchError(ValueError):
    """Operands live in different scalar domains."""


class InfiniteDomainError(RuntimeError):
    """An enumeration was requested that only finite domains support."""


class ChartMismatchError(ValueError):
    """Objects attached to different charts were combined."""


class ConfigError(ValueError):
    """A configuration file or field spec could not be interpreted, or asks
    for more than a limit admits: a config size, or a listing past 10^5."""


class ReconstructionError(ValueError):
    """The given lines are not the transversal set of any regulus."""
