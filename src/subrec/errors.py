"""Exception hierarchy shared by all subrec modules.

Input problems (bad files, bad morphisms, bad arguments) derive from
:class:`InputError`; blown resource caps derive from :class:`CapExceeded`.
The CLI maps these to exit codes 2 and 3 respectively.
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


class EmptyImageError(MorphismSyntaxError):
    """A rule maps a letter to the empty word (erasing rule)."""


class UnknownLetterError(MorphismSyntaxError):
    """An image uses a letter that has no rule of its own."""


class DuplicateRuleError(MorphismSyntaxError):
    """The same left-hand side appears in two rules."""


class NotPrimitiveError(InputError):
    """The operation requires a primitive morphism."""


class NotAperiodicError(InputError):
    """The operation requires an aperiodic fixed point (screening failed)."""


class NotAFactorError(InputError):
    """The given word does not belong to the factor language."""


class InvalidSeedError(InputError):
    """The seed letters are not prolongable at the claimed power."""


class LevelUnavailableError(InputError):
    """The window's desubstitution tower does not reach the requested level."""


class WindowTooSmallError(InputError):
    """The window cannot fit the contexts the verifier must compare."""


class DegenerateWidthError(InputError):
    """All images have length 1: the fixed point is periodic."""


class BadParametersError(InputError):
    """Arguments violate an operation's documented domain."""


class CapExceeded(SubrecError):
    """A configured resource cap (size, window) would be exceeded."""


class SizeExceededError(CapExceeded):
    """Materializing the requested word would exceed the length cap."""

    def __init__(self, needed, cap):
        super().__init__(f"word of length {needed} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap
