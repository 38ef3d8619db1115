"""What every layer of the package shares: the exception types, the
cooperative deadline and the `Frozen` base of the value classes.

`with Deadline(seconds):` sets the budget until the block exits, and
`tick()`, called in every loop that can run long, raises DeadlineExceeded
once it has run out.  The scope lives in a context variable, so it covers
the thread that opened it and no other; the CLI runs one thread.

`Frozen` gives the value classes that validate their input or hold more
than their fields (`Order`, `BinomialIdeal`, the semigroups and their
specs, `GroebnerBasis`, `BettiTable`) equality, hash and repr over their
fields, and refuses assignment; plain records are NamedTuples.  It lives
here, below every layer, so that the numerical semigroups load without the
monomial layer.
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


class Frozen:
    """Value semantics over the attributes named in `_fields`: equality
    between instances of the same class, a hash, a repr in constructor
    form, and an AttributeError on any assignment or deletion.  Subclass
    constructors set their attributes once, with `_set`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
