"""Exception types shared across the pipeline.

Parsers raise IngestError subclasses carrying a 1-based line number where
one applies.
"""

from __future__ import annotations


class IngestError(Exception):
    """Base for all input-parsing failures."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedHeader(IngestError):
    pass


class RowParseError(IngestError):
    pass


class DuplicateCountry(IngestError):
    pass


class JsonSyntaxError(IngestError):
    pass


class MissingField(IngestError):
    pass


class HopOrderError(IngestError):
    pass


class InvalidCidr(IngestError):
    pass


class InvalidAsn(IngestError):
    pass


class InvalidCountry(IngestError):
    pass


class MalformedMatrix(IngestError):
    """Valid JSON that does not describe a well-formed matrix."""


class HttpError(Exception):
    """Non-success HTTP response."""

    def __init__(self, status: int, url: str = ""):
        self.status = status
        self.url = url
        super().__init__(f"HTTP {status} for {url}" if url else f"HTTP {status}")


class PaginationLoop(Exception):
    """The paginated listing pointed back at a page already fetched."""


class EmptyInput(Exception):
    """An operation that needs at least one record received none."""


class EmptyTraceroute(Exception):
    """AS-path extraction requires at least one hop."""


class UnknownAsnInVerdicts(Exception):
    """A verdict references an AS pair outside the covered matrix pairs."""


class ConfigError(Exception):
    """Bad run configuration: missing files, invalid thresholds, unknown keys."""
