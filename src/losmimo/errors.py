class LosMimoError(Exception):
    """Base class for all losmimo errors."""


class ConfigurationError(LosMimoError):
    """Invalid scenario or geometry configuration."""


class SingularGeometryError(LosMimoError):
    """A user position coincides with an antenna position."""


class DegenerateChannelError(LosMimoError):
    """A channel column is identically zero."""


class SingularChannelError(LosMimoError):
    """Channel Gram matrix is rank deficient (condition number > 1e12)."""


class MaxminError(LosMimoError):
    """No certified max-min target: D is not finite and positive, C is not
    finite, or the probe cap was reached."""
