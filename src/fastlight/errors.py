"""Exception types shared across the package."""


class FastlightError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FastlightError, ValueError):
    """A numeric argument is outside its documented domain."""


class DegeneratePeakError(FastlightError, RuntimeError):
    """A correlation has no unique maximum to interpolate."""


class ConfigError(FastlightError, ValueError):
    """A scenario configuration file or preset is invalid."""
