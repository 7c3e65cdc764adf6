"""Each module's __all__ lists exactly the public functions and classes it
defines, so a deleted name cannot linger there and a public one cannot be
left out; and no module imports another's private names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hyqa

# Modules without an __all__: the command-line shell and two small helpers
# whose every public name is shared.
_WITHOUT_ALL = {"cli", "container", "scored"}
MODULES = sorted(m.name for m in pkgutil.iter_modules(hyqa.__path__) if m.name not in _WITHOUT_ALL)


def _is_definition(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"hyqa.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and _is_definition(obj) and obj.__module__ == module.__name__
    }
    listed = module.__all__
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert [attr for attr in listed if not hasattr(module, attr)] == []
    assert {attr for attr in listed if _is_definition(getattr(module, attr))} == defined


@pytest.mark.parametrize("path", sorted(Path(hyqa.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_no_private_import_from_another_module(path):
    """A name one hyqa module shares with another is public: no module
    imports an underscore name from a hyqa module."""
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hyqa")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


SOURCES = sorted(Path(hyqa.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_only_scored_builds_scored_passages(path):
    """Every ranking becomes records through scored.ranked_passages: no
    other module calls ScoredPassage(...)."""
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ScoredPassage"
    ]
    assert path.stem == "scored" or calls == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    """Each name a module imports is read somewhere in it, so a fold
    cannot leave a dead import behind."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
