"""Exception hierarchy for the molfp package, and ``run_records``, the one
per-record loop: its "raise" mode stops at the first bad record."""

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
        return type(self), (self.message, self.position), self.__dict__


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
        return type(self), (self.message, self.line), self.__dict__


class RingClosureOverflowError(MolfpError):
    """A canonical SMILES would need more than 99 ring closures open at once."""


class RecordError(MolfpError):
    """A record raised an exception outside this hierarchy; the message
    names the original type, ``record_index`` the record."""


def run_records(fn, records, start: int, error_mode: str):
    """``fn`` over each record: (outputs, failures).  A failing record's
    error, wrapped in a RecordError when outside MolfpError, gets
    ``record_index`` ``start`` + offset; "raise" mode raises the first,
    "skip" mode lists each as (index, error kind, message)."""
    outputs = []
    failures = []
    for index, record in enumerate(records, start):
        try:
            outputs.append(fn(record))
        except Exception as exc:
            if not isinstance(exc, MolfpError):
                wrapped = RecordError(f"{type(exc).__name__}: {exc}")
                wrapped.__cause__ = exc
                exc = wrapped
            exc.record_index = index
            if error_mode == "raise":
                raise exc
            failures.append((index, type(exc).__name__, str(exc)))
    return outputs, failures
