"""Exception types shared across the package.

Keeping these in one module lets the CLI map them onto exit codes without
importing every subsystem. Each error survives pickling, so one raised in a
worker process reaches the CLI with its type, message and attributes: a
class whose constructor formats its message rebuilds from the constructor's
own arguments.
"""

from __future__ import annotations


class CoexlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidScenarioError(CoexlabError):
    """A scenario or config value is out of range or malformed.

    ``path`` points at the offending field, e.g. ``nodes[0].q``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.detail = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.detail)


class MissingDecisionError(CoexlabError):
    """An agent-controlled node was not given a decision for a slot."""


class UnsupportedPopulationError(CoexlabError):
    """The closed-form reference cannot handle this node mix."""


class WindowTooShortError(CoexlabError):
    """Not enough history to run the requested analysis."""


class BackendUnavailableError(CoexlabError):
    """The completion backend failed, after retrying transient failures.

    ``status`` carries the last HTTP status code, or None for transport
    errors such as timeouts.
    """

    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class MalformedResponseError(CoexlabError):
    """The backend answered, but not in the shape the caller requires."""


class UnrecognizedTemplateError(CoexlabError):
    """The scripted backend received a prompt it has no handler for."""


class StrategyParseError(CoexlabError):
    """Strategy text failed syntactic parsing. Carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(f"{d.path}: {d.message}" for d in self.diagnostics)
        super().__init__(f"strategy parse failed: {detail}")

    def __reduce__(self):
        return type(self), (self.diagnostics,)


class MaterializationExhaustedError(CoexlabError):
    """All retry attempts at obtaining a valid strategy failed."""

    def __init__(self, attempts):
        self.attempts = list(attempts)
        super().__init__(
            f"no valid strategy after {len(self.attempts)} attempt(s)"
        )

    def __reduce__(self):
        return type(self), (self.attempts,)


class MetricDomainError(CoexlabError):
    """A metric was evaluated outside its mathematical domain."""


class MemoryFrozenError(CoexlabError):
    """A write hit a memory that is frozen for the online stage."""


class TracingDisabledError(CoexlabError):
    """A decision trace was requested from a run that recorded none."""
