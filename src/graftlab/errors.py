"""Exception types shared across the package."""


class GraftLabError(Exception):
    """Base class for all graftlab errors."""


class DomainError(GraftLabError):
    """A coordinate lies outside the chart or a field's domain."""


class SolvabilityError(GraftLabError):
    """The periodic variation problem has no solution (nonzero mean forcing)."""


class ConvergenceError(GraftLabError):
    """An iterative solver failed to converge."""


class ConfigError(GraftLabError):
    """Invalid run configuration."""
