"""Exception and warning types shared across the package."""


class RingflowError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(RingflowError, ValueError):
    """A physical parameter or option violates its documented range."""


class OutOfDomain(RingflowError, ValueError):
    """A position or time lies outside the evaluable domain."""


class NoExtremum(RingflowError, ArithmeticError):
    """No pressure maximum exists for the requested field and time."""


class InfeasibleConstraint(RingflowError, ValueError):
    """The pressure floor cannot be met by any admissible withdrawal."""


class ConvergenceFailure(RingflowError, ArithmeticError):
    """A linear solve produced a residual above the accepted tolerance."""


class NonFiniteResult(RingflowError, ArithmeticError):
    """A result holds a NaN or an infinity, which JSON output cannot carry."""


class ParseError(RingflowError, ValueError):
    """The scenario document is not syntactically valid."""


class ValidationError(RingflowError, ValueError):
    """The scenario document is well formed but violates an invariant."""


class NegativeWithdrawalWarning(UserWarning):
    """The inverted withdrawal came out negative: the target pressure lies
    above the zero-withdrawal pressure at the tap position."""
