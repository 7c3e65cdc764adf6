"""The benchmark tracer wraps hyqa functions by name; a traced function
that is deleted or renamed must fail here, not in a `--trace 1` run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("hyqa_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    """Each TARGETS entry names a module attribute, or an entry of a
    class's own __dict__, as Tracer.install looks them up."""
    missing = []
    for mod_name, owner_name, attr, span_name, _ in load_tracer().TARGETS:
        module = importlib.import_module(f"hyqa.{mod_name}")
        if owner_name is None:
            found = callable(getattr(module, attr, None))
        else:
            owner = getattr(module, owner_name, None)
            found = isinstance(owner, type) and attr in owner.__dict__
        if not found:
            missing.append((mod_name, owner_name, attr, span_name))
    assert not missing
