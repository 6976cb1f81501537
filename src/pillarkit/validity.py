"""Shared clause-based validity report used by all certificate checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError


def json_int(v) -> int:
    """``v`` itself when it is a JSON integer: a certificate names its ids,
    counts and version with nothing else, not a bool, float or string."""
    if type(v) is not int:
        raise PreconditionError(f"expected an integer, got {v!r}")
    return v


@dataclass
class ValidityReport:
    """Outcome of checking a structure against its invariants.

    ``failures`` pairs a stable clause name with a human-readable
    message; an empty list means valid.
    """

    failures: list[tuple[str, str]] = field(default_factory=list)

    def add(self, clause: str, message: str) -> None:
        self.failures.append((clause, message))

    @property
    def valid(self) -> bool:
        return not self.failures

    def clauses(self) -> set[str]:
        return {c for c, _ in self.failures}

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "failures": [{"clause": c, "message": m} for c, m in self.failures],
        }

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return "invalid: " + "; ".join(f"[{c}] {m}" for c, m in self.failures)
