"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: configuration errors exit
with 2, numerical failures exit with 3.
"""


class GeoLqrError(Exception):
    """Base class for all toolkit errors."""


class AngleNearPi(GeoLqrError):
    """Rotation is at or near the cut locus where the logarithm is singular."""


class NotControllable(GeoLqrError):
    """The (A, B) pair fails the controllability rank test."""


class NoStabilizingSolution(GeoLqrError):
    """No stabilizing positive definite Riccati solution exists."""


class StepTooLarge(GeoLqrError):
    """Backward Riccati integration escaped toward infinity."""


class NumericalDivergence(GeoLqrError):
    """Simulated angular velocity exceeded the divergence threshold."""


class ObstacleContact(GeoLqrError):
    """A trajectory touched or entered an obstacle region."""


class NoConvergence(GeoLqrError):
    """Iterative solver exhausted its iteration budget."""


class NoDescent(GeoLqrError):
    """Line search failed to reduce the cost repeatedly."""


class ConfigError(GeoLqrError):
    """Base class for scenario configuration problems."""


class ParseError(ConfigError):
    """Configuration text is not valid JSON or not a JSON object."""


class ValidationError(ConfigError, ValueError):
    """A value is out of range or violates the config schema.

    Library constructors raise it naming their own argument ("h",
    "obstacles[1]"); the config parser prefixes the section path
    ("avoidance.obstacles[1]").

    Attributes:
        path: dotted path of the offending field, e.g. "initial.rotation";
            empty when the value as a whole is at fault.
        message: what is wrong, without the path.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
