"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class RuleParseError(ReproError):
    """Raised when the rule DSL parser encounters malformed input."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class UnknownSimilarityError(ReproError, KeyError):
    """Raised when a similarity function name is not in the registry."""


class UnknownFeatureError(ReproError, KeyError):
    """Raised when a feature id is not known to a memo or feature space."""


class SchemaError(ReproError):
    """Raised when a table or record violates the declared schema."""


class BlockingError(ReproError):
    """Raised when a blocker is misconfigured or given incompatible tables."""


class MatchingError(ReproError):
    """Raised when a matcher is asked to run in an inconsistent state."""


class StateError(ReproError):
    """Raised when incremental matching state is missing or stale."""


class ChangeError(ReproError):
    """Raised when an edit to the matching function cannot be applied."""


class EstimationError(ReproError):
    """Raised when cost/selectivity estimation is given unusable input."""


class StreamingError(ReproError):
    """Raised when a record-level delta cannot be validated or applied
    (unknown record id, duplicate insert, malformed delta)."""


class RefinementError(ReproError):
    """Raised when the rule-refinement search is misconfigured or asked to
    run without the inputs it needs (no gold labels, no started state)."""
