"""Exception types shared across the package."""

from __future__ import annotations


class SpiderwebError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(SpiderwebError):
    """An array configuration violates one or more structural invariants."""

    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


class ConfigParseError(SpiderwebError):
    """A config file or override could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScheduleConflictError(SpiderwebError):
    """A step table over-subscribes a shared resource or puts a qubit in two regions, or twice, in one window."""

    def __init__(self, step: int, resource: str, occupants: tuple[str, ...], capacity: int,
                 detail: str = ""):
        self.step = step
        self.resource = resource
        self.occupants = occupants
        self.capacity = capacity
        super().__init__(f"step {step}: " + (detail or (
            f"resource {resource!r} holds {len(occupants)} electrons "
            f"({', '.join(occupants)}), capacity {capacity}"
        )))
