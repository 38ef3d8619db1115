"""Exception types shared across the package, and the cooperative deadline."""
import time
from typing import Optional


class SgringError(Exception):
    """Base class for all package errors."""


class InputError(SgringError, ValueError):
    """Invalid user input: malformed generators, bad gluing data, schema violations."""


class DeadlineExceeded(SgringError, RuntimeError):
    """A cooperative deadline ran out before the computation finished."""


class BoundInsufficient(SgringError, RuntimeError):
    """A scan bound was certified too small (nonzero data found on the boundary shell)."""


class CertificationError(SgringError, RuntimeError):
    """A window or budget was too small to certify the requested property."""


class Deadline:
    """Wall-clock budget checked cooperatively inside long-running loops."""

    __slots__ = ("expires",)

    def __init__(self, seconds: Optional[float] = None):
        self.expires = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.expires is not None and time.monotonic() > self.expires:
            raise DeadlineExceeded("cooperative deadline exceeded")

    @property
    def remaining(self) -> Optional[float]:
        return None if self.expires is None else max(0.0, self.expires - time.monotonic())


def tick(deadline: Optional[Deadline]) -> None:
    if deadline is not None:
        deadline.check()
