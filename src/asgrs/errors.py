"""Exception types shared across the package."""


class UnsupportedParameterError(ValueError):
    """A parameter is outside the desk-scale bounds this build supports."""


class DegenerateStateError(ValueError):
    """An all-zero state was given to a register that cannot leave it."""


class KeyValidationError(ValueError):
    """Parameters or key violate the generator's constraints."""
