"""Exception types shared across the package."""


class GicircError(Exception):
    """Base class for all package-specific errors."""


class PhysicalityError(GicircError, ValueError):
    """A state, preparation, or channel violates quantum physicality."""


class InstabilityError(GicircError, ValueError):
    """Amplifier parameters lie at or beyond the instability pole."""


class NoSolutionError(GicircError, ValueError):
    """A requested inversion has no solution in the allowed range."""


class CircuitError(GicircError, ValueError):
    """A circuit document is syntactically or semantically invalid."""


class ModeError(GicircError, IndexError, ValueError):
    """A mode index lies outside the register."""
