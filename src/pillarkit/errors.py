"""Exception types shared across the toolkit."""

from __future__ import annotations


class PillarkitError(Exception):
    """Base class for all toolkit errors."""


class GraphParseError(PillarkitError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InternalError(PillarkitError):
    """A broken invariant inside the toolkit: a bug, never bad input."""


class PreconditionError(PillarkitError, ValueError):
    """An operation was called outside its stated contract."""


class NoPathError(PillarkitError):
    """Two sets are disconnected once the avoid set is deleted."""


class StageError(PillarkitError):
    """A multi-stage search starved; names the stage and what was reached.

    ``details`` holds sizes/counts that explain how far the stage got,
    so callers (and the CLI) can emit a useful failure report.
    """

    def __init__(self, stage: str, message: str, details: dict | None = None):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.details = dict(details or {})


class LengthNotRealizedError(PillarkitError):
    """No path of the requested exact length.  Only the detour strategy
    (``Adjuster.realize``) fills ``nearest``, with the nearest lengths its
    detours realize; after a complete search proved the length
    unrealizable it is empty, since no other length was searched."""

    def __init__(self, target: int, nearest: list[int]):
        near = f" (nearest achievable: {', '.join(map(str, nearest))})" if nearest else ""
        super().__init__(f"length {target} not realized{near}")
        self.target = target
        self.nearest = list(nearest)
