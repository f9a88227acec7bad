"""Exception types shared across the package."""


class FairpaceError(Exception):
    """Base class for all package errors."""


class ZeroExpectedValue(FairpaceError):
    """A valuation row has zero expected value under the reference distribution."""


class InvalidHorizon(FairpaceError):
    """Requested sequence horizon is not a positive integer."""


class LengthMismatch(FairpaceError):
    """Sequences paced in lockstep have different lengths."""


class DimensionMismatch(FairpaceError):
    """Inputs describe inconsistent agent or item dimensions."""


class NoConvergence(FairpaceError):
    """An iterative routine failed to reach its tolerance."""


class NonpositiveBeta(FairpaceError):
    """Dual objective evaluated at a vector with nonpositive entries."""


class NonpositiveReference(FairpaceError):
    """Relative error requested against a reference with nonpositive entries."""


class InvalidRank(FairpaceError):
    """Market generator rank outside [1, min(n, m)]."""


class GridMismatch(FairpaceError):
    """Metric series with different time grids or metric sets were aggregated."""


class ConfigError(FairpaceError):
    """Experiment configuration is missing or malformed."""


class NoConvergenceWarning(UserWarning):
    """A solver hit its iteration cap; the best iterate found is still returned."""
