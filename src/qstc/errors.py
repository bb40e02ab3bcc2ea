"""Exception hierarchy shared by all qstc modules."""


class QstcError(Exception):
    """Base class for all errors raised by qstc."""


class ValidationError(QstcError):
    """Malformed input: bad coupling lists, non-positive couplings, bad flags."""


class StructuralError(QstcError):
    """A structural precondition failed (e.g. glueing an even-length chain)."""


class NumericalError(QstcError):
    """Numerical backend failure (eigensolver non-convergence, ...)."""


class InfeasibleDesignError(QstcError):
    """Requested inverse design lies outside its feasibility interval."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class UnsupportedInputError(QstcError):
    """Input outside the supported domain (e.g. non-integer couplings)."""
