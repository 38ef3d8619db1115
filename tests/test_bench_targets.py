"""The benchmark's tracer wraps sgring functions by name; every name must exist."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, owner, attr, _, _ in tracing.TARGETS:
        # imported one by one: `import sgring.cli` loads only the parsing layers
        module = importlib.import_module(f"sgring.{mod_name}")
        if owner is None:
            found = callable(getattr(module, attr, None))
        else:  # Tracer.install reads the class __dict__: inherited names do not count
            found = attr in vars(getattr(module, owner, object))
        if not found:
            missing.append(".".join(filter(None, (mod_name, owner, attr))))
    assert not missing, f"bench/tracing.py wraps names sgring no longer defines: {missing}"
