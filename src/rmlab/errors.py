"""Exception taxonomy shared across the package.

Every input check raises one of two classes: ConfigError when the input is
malformed or out of its domain (a non-unit vector, a negative width, text
that is not a number), RegimeError when well-formed input fails a
mathematical hypothesis (delta >= a/(2 pi), r >= 1/2 in the entropy bound).
Both subclass ValueError. The CLI exits 2 on ConfigError and 3 on
RegimeError; any other exception is a bug and exits 1 with its traceback.
"""


class RegimeError(ValueError):
    """A precondition on the mathematical regime is violated.

    The message names the violated inequality so callers (and the CLI)
    can report exactly which hypothesis failed.
    """


class ConfigError(ValueError):
    """An input or experiment configuration is malformed or out of its domain."""
