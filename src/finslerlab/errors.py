"""Exception hierarchy shared across the library."""


class FinslerError(Exception):
    """Base class for all library errors."""


class ConfigurationError(FinslerError):
    """Invalid orders, dimensions or options requested at setup time."""


class JetDomainError(FinslerError):
    """Elementary jet operation applied outside its domain (sqrt/log/div)."""


class GeometryError(FinslerError):
    """Geometric construction failed (root bracketing, degenerate rays)."""


class MetricValidityError(FinslerError):
    """A metric failed a positivity / homogeneity / definiteness check."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class PreconditionError(FinslerError):
    """An operation was called on inputs outside its stated preconditions."""


class ChartExitError(FinslerError):
    """A geodesic left the coordinate chart before the requested parameter."""

    def __init__(self, message, t_exit=None):
        super().__init__(message)
        self.t_exit = t_exit


class NumericalIntegrityError(FinslerError):
    """Two independent numerical routes disagree beyond their error budget."""
