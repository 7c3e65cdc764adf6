"""Each module's __all__ lists exactly the public functions and classes it
defines, so a deleted name cannot linger there and a public one cannot be
left out; no module imports another's private names; and the names the
docs mention exist."""

import ast
import importlib
import inspect
import io
import pkgutil
import re
import tokenize
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


def _defined_names(tree) -> set[str]:
    """Every name a module binds: its functions, classes, arguments,
    variables and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _prose(source: str, tree) -> list[str]:
    """The comments and docstrings of a module."""
    comments = [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    docstrings = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return comments + docstrings


def test_private_names_in_comments_and_docstrings_are_defined():
    """A comment or docstring that names an underscore name (not a dunder)
    names one that some hyqa module still binds, so a deleted helper
    leaves no stale mention behind."""
    defined, mentioned = set(), {}
    for path in SOURCES:
        source = path.read_text()
        tree = ast.parse(source)
        defined |= _defined_names(tree)
        for text in _prose(source, tree):
            for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", text):
                mentioned.setdefault(name, path.stem)
    assert mentioned, "no private name found in any comment or docstring"
    assert {name: stem for name, stem in mentioned.items() if name not in defined} == {}


def _resolve(dotted: str):
    """The hyqa object that `module.name...` (or `hyqa.module...`) names."""
    parts = dotted.split(".")
    if parts[0] == "hyqa":
        parts = parts[1:]
    obj = importlib.import_module(f"hyqa.{parts[0]}")
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj


def test_readme_module_references_resolve():
    """Each backticked `module.name` in README.md whose module is a hyqa
    module (or `hyqa` itself) names an attribute that exists."""
    modules = {m.name for m in pkgutil.iter_modules(hyqa.__path__)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    references = [
        dotted
        for dotted in re.findall(r"`([a-z_]\w*(?:\.\w+)+)[`(]", readme)
        if dotted.split(".")[0] in modules or dotted.split(".")[0] == "hyqa"
    ]
    assert references, "no module reference found in README.md"
    unresolved = []
    for dotted in references:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            unresolved.append(dotted)
    assert unresolved == []
