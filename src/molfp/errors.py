"""Exception hierarchy for the molfp package."""

from __future__ import annotations


class MolfpError(Exception):
    """Base class for all molfp errors."""


class ParseError(MolfpError):
    """Input-text error carrying a character position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message, position)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.message} (at position {self.position})"

    def __reduce__(self):
        return type(self), (self.message, self.position)


class SmilesSyntaxError(ParseError):
    """Malformed SMILES text."""


class UnclosedRingError(SmilesSyntaxError):
    """A ring-closure digit was opened but never matched."""


class UnbalancedParenError(SmilesSyntaxError):
    """Branch parentheses do not balance."""


class ChargeOverflowError(SmilesSyntaxError):
    """Formal charge magnitude above the supported limit."""


class SmartsSyntaxError(ParseError):
    """Malformed SMARTS text."""


class UnsupportedPrimitiveError(SmartsSyntaxError):
    """SMARTS construct outside the supported subset (e.g. recursive $(...))."""


class ValenceError(MolfpError):
    """No permitted valence accommodates an atom's bond-order sum."""


class AromaticityError(MolfpError):
    """Aromatic atom or bond outside any ring."""


class KeySetError(MolfpError):
    """Substructure key-set file failed to load or compile."""


class ConfigError(MolfpError):
    """Invalid fingerprint or batch configuration."""


class FoldError(MolfpError):
    """Fold target does not divide the vector length."""


class ShapeError(MolfpError):
    """Mismatched vector or matrix shapes."""


class CompositionError(MolfpError):
    """Incompatible transformer composition."""


class FormatError(MolfpError):
    """Malformed serialized matrix or .smi input; carries the offending line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message, line)
        self.message = message
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"

    def __reduce__(self):
        return type(self), (self.message, self.line)


class RingClosureOverflowError(MolfpError):
    """A canonical SMILES would need more than 99 ring closures open at once."""


class RecordError(MolfpError):
    """A record raised an exception outside this hierarchy; the message
    names the original type, ``record_index`` the record."""


def as_record_error(exc: Exception, record_index: int) -> MolfpError:
    """``exc`` itself when it is a MolfpError, else a RecordError that
    wraps it."""
    if isinstance(exc, MolfpError):
        return exc
    wrapped = RecordError(f"{type(exc).__name__}: {exc}")
    wrapped.record_index = record_index
    wrapped.__cause__ = exc
    return wrapped
