"""Shared exception base classes and the text-record reader.

Every domain error raised by this package derives from :class:`Error`, so
callers (the CLI in particular) can distinguish domain failures from bugs.
Every artifact parser reads its text through :func:`records`,
:func:`header` and :func:`ints`, so comments, headers and integer fields
follow one rule and fail with :class:`FormatError`.
"""

from __future__ import annotations

from collections.abc import Iterable


class Error(Exception):
    """Base class for all domain errors raised by ghcrypt."""


class FormatError(Error):
    """A serialized artifact (key file, word, program, ...) is malformed."""


def records(text: str) -> list[str]:
    """The lines of ``text`` without '#' comments, surrounding whitespace
    and blank lines."""
    return [line for raw in text.splitlines()
            if (line := raw.split("#", 1)[0].strip())]


def header(lines: list[str], magic: str, nfields: int = 0) -> list[str]:
    """The ``nfields`` fields that follow the tokens of ``magic`` on the
    first record; FormatError unless the record is exactly that."""
    fixed = magic.split()
    tokens = lines[0].split() if lines else []
    if tokens[:len(fixed)] != fixed or len(tokens) != len(fixed) + nfields:
        got = lines[0] if lines else ""
        raise FormatError(f"expected {magic!r} and {nfields} fields, got {got!r}")
    return tokens[len(fixed):]


def ints(tokens: Iterable[str], what: str) -> list[int]:
    """Every token as an int, or one FormatError naming ``what``."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"non-integer {what}") from None
