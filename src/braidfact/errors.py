"""Shared error types, and the work counter that raises SearchBudgetExceeded."""

from __future__ import annotations


class FormatError(ValueError):
    """A text input does not conform to one of the documented file formats."""


class ValidationError(ValueError):
    """A factorization an operation cannot use: its factors do not multiply
    to its target, or it is not of the kind the operation needs (pi1 needs
    a cuspidal factorization of the full twist)."""


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before finishing.

    Distinct from a completed search that found nothing within its bounds.
    """

    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class WorkBudget:
    """Counts units of search work; the first unit past limit raises."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used)
