"""Exception types shared across the package.

Every error raised on a documented failure path derives from SteinError.
Errors that signal a rejected input (a violated construction invariant,
a malformed document, an element used outside its context) derive from
ValidationError; the command line maps those to exit code 2.
"""

from __future__ import annotations


class SteinError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SteinError):
    """An input violates a documented invariant."""


# -- field construction and arithmetic --------------------------------------

class ZeroLeadingCoefficient(ValidationError):
    """Leading coefficient of a defining polynomial is zero (or degree < 1)."""


class NotSquarefree(ValidationError):
    """Defining polynomial shares a factor with its derivative."""


class NoRootInInterval(ValidationError):
    """The isolating interval contains no root of the defining polynomial."""


class MultipleRootsInInterval(ValidationError):
    """The isolating interval contains more than one root."""


class DivisionByZero(SteinError, ZeroDivisionError):
    """Division by zero, or by a zero divisor of a reducible quotient ring."""


class FieldMismatch(ValidationError):
    """Operands belong to different (incompatible) fields."""


# -- breakpoint modules and slope groups ------------------------------------

class NonDense(ValidationError):
    """The proposed breakpoint module is not dense in the reals."""


class DependentBasis(ValidationError):
    """Module basis elements are linearly dependent over Q."""


class NotInvariant(ValidationError):
    """The module is not carried into itself by a required slope."""


class UnsupportedSlopeGroup(ValidationError):
    """Slope generators outside the supported shapes (e.g. two independent
    irrational generators)."""


class UnsupportedComparison(SteinError):
    """Slope groups that live in different fields cannot be compared."""


class BoundExceeded(SteinError):
    """A bounded search ran out of budget, or a number lies beyond the
    range where primality is certified; the command line exits 2."""


class InvalidEndpoint(ValidationError):
    """Interval endpoint is missing from the module or not positive."""


# -- piecewise linear elements ----------------------------------------------

class BreakpointNotInGamma(ValidationError):
    """A breakpoint or offset lies outside the breakpoint module."""


class SlopeNotInLambda(ValidationError):
    """A slope lies outside the slope group."""


class NotBijective(ValidationError):
    """The proposed pieces do not tile the target interval bijectively."""


class UnorderedBreakpoints(ValidationError):
    """Breakpoints are not strictly increasing from zero."""


class ContextMismatch(ValidationError):
    """Two elements from different group contexts were combined."""


class OutOfDomain(ValidationError):
    """A point lies outside the half-open interval of the group."""


class EmptyLibrary(SteinError):
    """No generator of the built-in shapes fits inside the interval."""


class WrongContext(ValidationError):
    """An operation specific to one group family was applied elsewhere."""


class NotAntichain(ValidationError):
    """A word list contains a prefix of one of its own words."""


class NotComplete(ValidationError):
    """A prefix-free word list does not exhaust the full interval."""


# -- codings ----------------------------------------------------------------

class ForbiddenFactor(ValidationError):
    """A word contains the factor excluded by the coding alphabet."""


class EmptyWord(ValidationError):
    """An operation that needs a nonempty word received an empty one."""


class UnparsableWord(ValidationError):
    """A word cannot be decomposed into the substitution's block alphabet."""


# -- classification ---------------------------------------------------------

class UnsupportedGamma(SteinError):
    """Coinvariants requested for a module the calculator cannot handle."""


class NotInGamma(ValidationError):
    """A class representative lies outside the breakpoint module."""


class UnsupportedInput(SteinError):
    """Input shape outside the supported classification families."""


# -- documents and command line ---------------------------------------------

class ParseError(ValidationError):
    """A document is not valid JSON or not of the documented shape."""


class UsageError(SteinError):
    """Bad command line invocation; mapped to exit code 64."""
