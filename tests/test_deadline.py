"""The deadline is one scope per command: `with Deadline(seconds):` sets it,
`tick()` reads it, and no function takes a deadline argument."""
import ast
import inspect
import threading
from pathlib import Path

import pytest

import sgring
from sgring.errors import Deadline, DeadlineExceeded, _CURRENT, tick
from sgring.theorems import FIXTURES

SRC = Path(sgring.__file__).resolve().parent


def test_leaving_a_scope_restores_the_one_around_it():
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        tick()
    tick()  # the expired scope is gone
    assert _CURRENT.get() is None
    with Deadline(60) as outer:
        with pytest.raises(DeadlineExceeded), Deadline(-1.0):
            tick()
        assert _CURRENT.get() is outer
        tick()
    with Deadline(None):  # no limit
        tick()


def test_a_scope_covers_only_the_thread_that_opened_it():
    seen = []

    def worker():
        tick()  # a new thread starts outside every scope
        seen.append(_CURRENT.get())

    with Deadline(-1.0):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(10)
    assert not thread.is_alive() and seen == [None]


def _parameters(obj) -> list[str]:
    try:
        return list(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # builtins without a signature
        return []


def test_no_public_callable_takes_a_deadline():
    assert _parameters(tick) == []
    checked = 0
    for name in sgring.__all__:
        obj = getattr(sgring, name)
        if not callable(obj):
            continue
        assert "deadline" not in _parameters(obj), name
        checked += 1
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if callable(member):
                    assert "deadline" not in _parameters(member), f"{name}.{attr}"
    assert checked > 40
    for f in FIXTURES:
        # bench/tracing.py calls run with one argument, the builder
        assert _parameters(f.build) == [], f.label
        assert len(_parameters(f.run)) == 1 and "deadline" not in _parameters(f.run), f.label


def test_only_cli_main_opens_a_scope():
    scopes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                assert node.arg != "deadline", f"{path.name}:{node.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.With) and any(
                            isinstance(item.context_expr, ast.Call)
                            and getattr(item.context_expr.func, "id", None) == "Deadline"
                            for item in inner.items):
                        scopes.append((path.name, node.name))
    assert scopes == [("cli.py", "main")]
