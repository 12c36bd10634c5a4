"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input file; message carries the offending row where known."""


class ValidationError(ValueError):
    """Structurally parseable input that violates a model constraint."""


class ConfigError(ValueError):
    """Invalid parameter name, value, or task configuration."""


class InvariantError(RuntimeError):
    """A simulation state the engine must never reach: the program is at
    fault, not its input. Not a ValueError, so batches never record it as
    a row error and carry on."""
