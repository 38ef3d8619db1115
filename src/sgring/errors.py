"""Exception types shared across the package, and the cooperative deadline.

`with Deadline(seconds):` sets the budget until the block exits, and
`tick()`, called in every loop that can run long, raises DeadlineExceeded
once it has run out.  The scope lives in a context variable, so it covers
the thread that opened it and no other; the CLI runs one thread.
"""
import time
from contextvars import ContextVar
from typing import Optional


class SgringError(Exception):
    """Base class for all package errors."""


class InputError(SgringError, ValueError):
    """Invalid user input: malformed generators, bad gluing data, schema violations."""


class DeadlineExceeded(SgringError, RuntimeError):
    """A cooperative deadline ran out before the computation finished."""


class CertificationError(SgringError, RuntimeError):
    """A window or budget was too small to certify the requested property, or
    a Betti table lacks degrees that its semigroup must have."""


class Deadline:
    """Wall-clock budget, None for no limit.  `tick` checks the innermost
    open scope; leaving one restores the scope around it."""

    __slots__ = ("expires", "_token")

    def __init__(self, seconds: Optional[float] = None):
        self.expires = None if seconds is None else time.monotonic() + seconds

    def __enter__(self) -> "Deadline":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _CURRENT.reset(self._token)

    def check(self) -> None:
        if self.expires is not None and time.monotonic() > self.expires:
            raise DeadlineExceeded("cooperative deadline exceeded")


_CURRENT: ContextVar[Optional[Deadline]] = ContextVar("sgring_deadline", default=None)


def tick() -> None:
    """Raise DeadlineExceeded if the deadline of the current scope has run out."""
    deadline = _CURRENT.get()
    if deadline is not None:
        deadline.check()
