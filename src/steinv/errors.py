"""Exception types shared across the package.

Every error raised on a documented failure path derives from SteinError,
and the command line maps every SteinError to exit code 2 (UsageError to
64).  A rejected input raises ValidationError, with a message that names
the check it failed; a question left open is a value, not an error (the
None of SlopeGroup.equals for groups in different fields).  A subclass
exists only where some caller reacts to it differently from its parent:

- SteinError: the command line catches it and exits 2;
- ValidationError: the base of every rejected input;
- UsageError: the command line exits 64 on it;
- ParseError: the command line turns a malformed rational argument into
  a UsageError;
- BoundExceeded: classification gives up a unit search when factoring
  runs out of budget;
- UnsupportedGamma: classification skips the coinvariant comparison;
- FieldMismatch: FieldElement.__eq__ answers False;
- NotSquarefree, NoRootInInterval, MultipleRootsInInterval: a caller
  searching for an isolating interval tells a bad polynomial from an
  interval to split or drop;
- DependentBasis: a caller drawing random bases discards dependent ones;
- DivisionByZero: also a ZeroDivisionError, so builtin handlers catch it.
"""

from __future__ import annotations


class SteinError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SteinError):
    """An input violates a documented invariant."""


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


class DependentBasis(ValidationError):
    """Module basis elements are linearly dependent over Q."""


class BoundExceeded(SteinError):
    """A bounded search ran out of budget, or a number lies beyond the
    range where primality is certified; the command line exits 2."""


class UnsupportedGamma(SteinError):
    """Coinvariants requested for a module the calculator cannot handle."""


class ParseError(ValidationError):
    """A document is not valid JSON or not of the documented shape."""


class UsageError(SteinError):
    """Bad command line invocation; mapped to exit code 64."""
