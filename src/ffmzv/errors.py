"""Exception types shared across the package."""


class FFMZVError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(FFMZVError, ZeroDivisionError):
    """Inversion of zero in a field, or a zero denominator."""


class InsufficientPrecision(FFMZVError):
    """A truncated series does not carry enough coefficients for the request."""


class PrecisionTooExpensive(FFMZVError):
    """A brute-force enumeration would exceed the configured budget."""


class ReductionDiverged(FFMZVError):
    """Rewriting to the Thakur basis cannot finish.

    Either an index re-entered its own rewriting, and the trail is that
    cycle, or an index needs more rewriting levels than the cap allows,
    and the trail is the chain of indices being rewritten when the cap
    was hit, outermost first.  Rewriting nested deeper than the
    interpreter's recursion limit carries the input's support instead.
    """

    def __init__(self, message, trail=()):
        super().__init__(message)
        self.trail = tuple(trail)


class EmptyIndex(FFMZVError):
    """A head/tail operation was applied to the empty index."""


class NotAdmissible(FFMZVError):
    """A characteristic-zero value was requested outside its convergence domain."""


class InvalidInput(FFMZVError):
    """Structurally invalid input (mismatched dimensions, bad literals)."""
