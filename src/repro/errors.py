"""Exception hierarchy shared across the ThreatRaptor reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library failures without swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AuditError(ReproError):
    """Raised when audit log records cannot be parsed or are malformed."""


class StorageError(ReproError):
    """Raised by the storage substrate (relational store, segments,
    snapshots) and by the property graph of ``repro.benchmark.cypher``."""


class NLPError(ReproError):
    """Raised by the lightweight NLP substrate."""


class ExtractionError(ReproError):
    """Raised by the threat behavior extraction pipeline."""


class TBQLError(ReproError):
    """Base class for errors raised by the TBQL subsystem."""


class TBQLSyntaxError(TBQLError):
    """Raised when a TBQL query fails to lex or parse.

    Attributes:
        line: 1-based line of the offending token (when known).
        column: 1-based column of the offending token (when known).
        diagnostic: the structured
            :class:`~repro.tbql.diagnostics.ParseDiagnostic` (message,
            line, column, source-context line) when the raiser had the
            source text at hand, else ``None``.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, diagnostic=None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(message + location)
        self.line = line
        self.column = column
        self.diagnostic = diagnostic


class TBQLSemanticError(TBQLError):
    """Raised when a parsed TBQL query violates semantic rules."""


class SynthesisError(TBQLError):
    """Raised when a TBQL query cannot be synthesized from a behavior graph."""


class ExecutionError(TBQLError):
    """Raised when query execution fails against the storage backends."""


class BenchmarkError(ReproError):
    """Raised by the evaluation benchmark when a case is misconfigured."""


class StreamingError(ReproError):
    """Raised by the live streaming ingestion / standing-query subsystem.

    Attributes:
        status: optional HTTP status the query service should answer with
            when the error crosses the service boundary (default 400).
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceError(ReproError):
    """Raised by the HTTP query-service client on transport or API errors.

    Attributes:
        status: the HTTP status code when the server answered with an error
            response, ``None`` for transport-level failures.
        retry_after: seconds suggested by a ``Retry-After`` header (a 429
            backpressure answer), ``None`` when the server sent none.
        diagnostic: the structured parse-error dict (message, line,
            column, context) from a 400 payload, ``None`` otherwise.
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None,
                 diagnostic: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.diagnostic = diagnostic
