"""Exception hierarchy shared by all qstc modules, and the one unknown-key check."""


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


def check_keys(data, allowed, where):
    """Raise :class:`ValidationError` unless ``data`` is a dict whose keys are all allowed.

    The message names every unknown key, so a misspelt key never falls back
    to a default without a word.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
