"""Modules load on first use: `import sgring` loads no submodule, and each
CLI command loads only the modules it runs and none of `UNNEEDED`.  The
import checks run in a fresh interpreter, since this test process has
imported everything already."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sgring

SUBMODULES = {"affine", "errors", "groebner", "linalg", "monomials", "resolution",
              "semigroups", "theorems", "toric", "verdicts"}
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# standard-library modules no command needs: `dataclasses` builds each class
# with exec and imports `inspect`, several milliseconds of every start-up
UNNEEDED = ("dataclasses", "inspect")


def fresh_python(code: str) -> str:
    """Last stdout line of code run in a new interpreter that imports this
    process's copy of sgring."""
    src = str(Path(sgring.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return res.stdout.splitlines()[-1]


def loaded_after(code: str, unneeded=UNNEEDED) -> tuple[set[str], set[str]]:
    """The sgring submodules a fresh interpreter holds after running code,
    and the names of `unneeded` it holds."""
    sgring_modules, held = json.loads(fresh_python(
        textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([[m[len("sgring."):] for m in sys.modules
                           if m.startswith("sgring.")],
                          [m for m in {tuple(unneeded)!r} if m in sys.modules]]))
        """)))
    return set(sgring_modules), set(held)


def test_import_sgring_loads_no_submodule():
    assert loaded_after("import sgring") == (set(), set())


def test_the_numerical_layer_loads_alone():
    """Numerical semigroups compile neither the affine nor the monomial
    layer, nor linalg with the fractions and decimal modules it imports."""
    assert loaded_after("from sgring.semigroups import NumericalSemigroup",
                        UNNEEDED + ("fractions", "decimal")) == ({"errors", "semigroups"}, set())


# the parsing layers, which load with sgring.cli
PARSING = {"errors", "semigroups", "cli"}
# what affine input, a construction or a Betti scan loads on top of them
AFFINE = {"affine", "monomials", "linalg"}
VERDICTS = PARSING | AFFINE | {"groebner", "toric", "resolution", "verdicts"}
HARNESS = VERDICTS | {"theorems"}
GLUE = ["glue", "--left", "3,5", "--right", "7,12", "--b", "1,1", "--a", "1,1"]

# exactly the sgring modules each command loads: a new eager import fails a
# named case
COMMAND_MODULES = [
    pytest.param(["analyze", "--numerical", "3,5,7"], VERDICTS, id="analyze"),
    pytest.param(GLUE, PARSING | AFFINE, id="glue"),
    pytest.param(GLUE + ["--projective"], VERDICTS, id="glue-projective"),
    pytest.param(["star-glue", "--left", "3,5,7", "--right", "9,11", "--b", "0,0,4",
                  "--a", "2,1"], HARNESS, id="star-glue"),
    pytest.param(["extend", "--numerical", "3,5", "--l", "2", "--u", "2,1"], HARNESS,
                 id="extend"),
    pytest.param(["join", "--left", "2,3", "--right", "4,5"], HARNESS, id="join"),
    pytest.param(["betti", "--numerical", "3,5,7"], PARSING | AFFINE | {"resolution"},
                 id="betti"),
    # a ray off the axes: the certified box reads the reduced toric basis
    pytest.param(["betti", "--affine", "2 1;3 0;1 3"],
                 PARSING | AFFINE | {"resolution", "toric", "groebner"}, id="betti-off-axis"),
    pytest.param(["pf", "--numerical", "3,5,7"], PARSING | AFFINE | {"resolution"}, id="pf"),
    pytest.param(["sifr", "--numerical", "3,5,7"], PARSING | AFFINE | {"resolution"},
                 id="sifr"),
    pytest.param(["hilbert", "--numerical", "3,5,7"], PARSING, id="hilbert"),
    pytest.param(["verify", "join-sifr"], HARNESS, id="verify"),
    pytest.param(["fixtures"], HARNESS, id="fixtures"),
]


def test_import_cli_loads_the_parsing_layers_only():
    assert loaded_after("import sgring.cli") == (PARSING, set())


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES)
def test_command_loads_exactly(argv, modules):
    loaded = loaded_after(f"""
        import contextlib, io
        from sgring import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        """)
    assert loaded == (modules, set())


def test_verify_loads_theorems_only_when_parsed():
    assert "theorems" not in loaded_after("""
        from sgring import cli
        cli.build_parser().parse_args(["hilbert", "--numerical", "3,5"])
        """)[0]
    assert "theorems" in loaded_after("""
        from sgring import cli
        cli.build_parser().parse_args(["verify", "join-sifr"])
        """)[0]


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
