"""Exception hierarchy shared by all subrec modules.

One class per refusal a caller tells apart, each with its CLI exit code:

* :class:`InputError` (exit 2): the file, the morphism or an argument is
  unusable; the message says which.
* :class:`MorphismSyntaxError` (exit 2), an :class:`InputError`: a
  malformed morphism file; it carries the 1-based ``line`` and ``column``.
* :class:`NotAperiodicError` (exit 1), an :class:`InputError`: the fixed
  point is periodic, so no recognizability constant exists.
* :class:`CapExceeded` (exit 3): a configured resource cap would be
  exceeded.

All of them derive from :class:`SubrecError`, the refusal that
``morphism.per_morphism`` stores and raises again.
"""


class SubrecError(Exception):
    """Base class for all errors raised by subrec."""


class InputError(SubrecError):
    """The input (file, morphism, or argument) is unusable."""


class MorphismSyntaxError(InputError):
    """Malformed morphism file; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotAperiodicError(InputError):
    """The operation requires an aperiodic fixed point (screening failed)."""


class CapExceeded(SubrecError):
    """A configured resource cap (size, window) would be exceeded."""
