"""Modules load on first use: `import sgring` loads no submodule, and each
CLI command loads only the modules it runs.  The import checks run in a
fresh interpreter, since this test process has imported everything already."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sgring

SUBMODULES = {"errors", "groebner", "linalg", "monomials", "resolution",
              "semigroups", "theorems", "toric", "verdicts"}
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def fresh_python(code: str) -> str:
    """Last stdout line of code run in a new interpreter that imports this
    process's copy of sgring."""
    src = str(Path(sgring.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return res.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The sgring submodules a fresh interpreter holds after running code."""
    return set(fresh_python(textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(m[len("sgring."):] for m in sys.modules
                              if m.startswith("sgring."))))
        """)).split())


def test_import_sgring_loads_no_submodule():
    assert loaded_after("import sgring") == set()


def test_hilbert_loads_only_the_parsing_layers():
    loaded = loaded_after("""
        from sgring import cli
        assert cli.main(["hilbert", "--numerical", "3,5,7"]) == 0
        """)
    assert loaded == {"errors", "monomials", "linalg", "semigroups", "cli"}


def test_verify_loads_theorems_only_when_parsed():
    assert "theorems" not in loaded_after("""
        from sgring import cli
        cli.build_parser().parse_args(["hilbert", "--numerical", "3,5"])
        """)
    assert "theorems" in loaded_after("""
        from sgring import cli
        cli.build_parser().parse_args(["verify", "join-sifr"])
        """)


def test_tracer_wraps_the_names_handlers_import():
    """Handlers import their toric and verdicts names when they run, after
    Tracer.install() (as in bench/cli_child.py), and must get the wrapped ones."""
    out = json.loads(fresh_python(f"""
        import importlib.util, json
        spec = importlib.util.spec_from_file_location("tracing", {str(TRACING)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        from sgring import cli
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["analyze", "--numerical", "3,5,7"])
        finally:
            tracer.uninstall()
        print(json.dumps([code, tracing.summarize(tracer.data())["calls"]]))
        """))
    code, calls = out
    assert code == 0
    for name in ("cli.main", "toric.toric_ideal", "verdicts.cm_tangent_cone",
                 "verdicts.gorenstein_numerical"):
        assert calls.get(name, 0) >= 1, (name, calls)


def test_every_public_name_is_its_defining_object():
    assert len(sgring.__all__) == 68
    assert SUBMODULES <= set(sgring.__all__)
    assert set(sgring.__all__) <= set(dir(sgring))
    for name in sgring.__all__:
        obj = getattr(sgring, name)
        if name in SUBMODULES:
            assert obj is sys.modules[f"sgring.{name}"]
            continue
        home = sgring._ORIGIN[name]
        assert obj is getattr(sys.modules[f"sgring.{home}"], name), name
        # the table names the defining module, not one that re-imports it
        assert getattr(obj, "__module__", f"sgring.{home}") == f"sgring.{home}", name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sgring.no_such_name
    assert not hasattr(sgring, "cli_main")
