"""Exception types shared across the package.

Bad input of any kind (out of range, malformed, non-finite, or outside an
operation's domain) is an ArgumentError; arithmetic that broke on valid
input is a NumericError.  Both are LagssmErrors, which the CLI reports.
"""


class LagssmError(Exception):
    """Base class for all package errors."""


class ArgumentError(LagssmError, ValueError):
    """An argument is out of range, malformed, non-finite, or inconsistent."""


class NumericError(LagssmError, ArithmeticError):
    """A linear-algebra step failed (singular or ill-conditioned system)."""
