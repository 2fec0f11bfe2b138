"""Exception taxonomy shared by every module.

Each failure class maps to one family of contract violations so the CLI
can translate them into distinct exit codes.
"""


class RirlError(Exception):
    """Base class for all package errors."""


class ShapeError(RirlError):
    """Array dimensions disagree with the operation's contract."""


class ConfigError(RirlError):
    """Invalid configuration value, spec document, or CLI argument."""


class DataError(RirlError):
    """Malformed or unusable input data (CSV rows, windows, scalers)."""


class TrainingError(RirlError):
    """Training could not proceed or diverged."""


class CheckError(RirlError):
    """Gradient verification hit a non-finite loss."""


class EstimationError(RirlError):
    """Too little data to estimate a statistic."""


class ExplorationError(RirlError):
    """DAG exploration cannot start or continue."""


class PersistenceError(RirlError):
    """Model or table files could not be written or read back intact."""


class MetricError(RirlError):
    """A metric is undefined for the given inputs."""


class PlotError(RirlError):
    """Plot emission received unusable series."""
