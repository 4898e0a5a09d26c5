"""Structured exception types shared across the package."""


class QciError(Exception):
    """Base class for every structured error raised by this package."""


class NotPrimeError(QciError):
    """The modulus handed to a prime field is not prime."""


class InvalidOrderError(QciError):
    """The order handed to a cyclotomic field is not a positive integer, or
    exceeds scalars.MAX_CYCLOTOMIC_ORDER."""


class ScalarSyntaxError(QciError):
    """A scalar literal does not match the scalar grammar."""


class NotInFieldError(QciError):
    """A scalar literal mentions the root symbol z outside a cyclotomic field."""


class DivisionByZeroError(QciError, ZeroDivisionError):
    """Exact division by the zero scalar."""


class BadDiagonalError(QciError):
    """Some q_ii differs from 1."""


class BadReciprocalError(QciError):
    """Some pair violates q_ij * q_ji = 1."""


class BadExponentError(QciError):
    """Some nilpotency exponent a_i is below 2, or n is below 2."""


class TooLargeError(QciError):
    """The algebra dimension exceeds the configured cap."""


class BadDimLimitError(QciError):
    """The QCI_DIM_LIMIT environment variable is not an integer of at least 1."""


class TooManyGeneratorsError(QciError):
    """Permutation enumeration refused: n exceeds the search bound."""


class NotCompatibleError(QciError):
    """The permutation does not preserve the presentation."""


class NotInvolutionError(QciError):
    """The permutation is not self-inverse."""


class NakayamaOrderError(QciError):
    """Some h_{e_i} is not +-1, so a sign classification is undefined."""


class RegimeHypothesisError(QciError):
    """The hypotheses of the requested closed-form regime do not hold."""


class WitnessInvalidError(QciError):
    """A proposed (permutation, scalars) witness violates its defining equations."""


class CrossCheckError(QciError):
    """Two independent computation routes disagreed; indicates an internal bug."""


class SingularMatrixError(QciError):
    """An exact linear solve met a singular matrix."""


class NotInvertibleError(QciError):
    """An algebra element has no two-sided inverse."""


class FileSyntaxError(QciError):
    """A presentation or structure file is not well-formed JSON."""


class FileSemanticError(QciError):
    """A presentation or structure file violates a documented invariant."""


class FileWriteError(QciError):
    """An output file cannot be opened for writing."""
