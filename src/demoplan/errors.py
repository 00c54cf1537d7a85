"""Exception types shared across the package.

Every error that bad user input can cause derives from InputError. A loader
puts the path of the file it read in front of the message, and the command
line catches InputError alone to exit with code 3.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class InputError(ValueError):
    """Bad input from a file, a command line literal or a caller; the
    message says what is wrong and, for a file, starts with its path."""


@contextmanager
def located(where: object) -> Iterator[None]:
    """Put ``where`` (a path, a record) in front of the message of any
    InputError raised inside; the exception keeps its class and attributes."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


class ParseError(InputError):
    """A file or text blob is structurally malformed (bad JSON shape, bad CLI literal)."""


class ValidationError(InputError):
    """Semantically invalid data: ill-typed atoms, broken invariants, bad config values.

    Carries optional context so trace loaders can point at the offending frame.
    """

    def __init__(self, message: str, *, frame: int | None = None, atom: str | None = None):
        parts = [message]
        if frame is not None:
            parts.append(f"frame {frame}")
        if atom is not None:
            parts.append(f"atom {atom}")
        super().__init__(": ".join(parts))
        self.frame = frame
        self.atom = atom


class InvalidEffect(InputError):
    """An effect adds and deletes the same atom."""


class SchemaError(InputError):
    """Vocabulary, type table, or operator-library content is inconsistent."""


class NoActorError(InputError):
    """A trace declares no object whose type any classifier rule accepts as actor."""


class NoEffectSegment(Exception):
    """A segment changed nothing, so no operator can be extracted from it."""


class EmptyDomain(InputError):
    """Asked to emit a planning domain from a library with no operators."""


class UnsupportedFeature(InputError):
    """The PDDL input uses a construct outside the supported subset."""


class PddlSyntaxError(InputError):
    """Malformed PDDL text; reports the line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SearchLimitExceeded(RuntimeError):
    """The planner hit its node limit before proving the goal solvable or not."""
