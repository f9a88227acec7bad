"""Exception types shared across the package.

The command line maps each error to one exit code (see fairpace.cli):
ConfigError to 2 and NoConvergence to 3. Any other exception is a bug.
"""


class FairpaceError(Exception):
    """Base class of the package's errors, for callers that catch either."""


class ConfigError(FairpaceError):
    """Input the package refuses: a malformed or inconsistent configuration,
    document, argument or problem. The command line exits 2 on it, with one
    line starting `config error: `."""


class NoConvergence(FairpaceError):
    """A required iterative routine failed to reach its tolerance. The
    command line exits 3 on it, with one line starting `numerical failure: `."""


class NoConvergenceWarning(UserWarning):
    """A solver hit its iteration cap; the best iterate found is still returned."""
