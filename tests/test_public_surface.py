"""Each module's __all__ lists exactly the public functions and classes it
defines, so a deleted name cannot linger there and a public one cannot be
left out; each of them is reached from another definition or has a stated
reason; no module imports another's private names; and the names the docs
mention exist."""

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


_ACCEPTANCE = "acceptance contract: tests/test_acceptance.py calls it by name in criterion "
_TRACER = "benchmark tracer: benchmark/tracer.py TARGETS wraps it by name"
# The exports no definition in hyqa reaches, each with the reason it stays.
UNREACHED = {
    "sparse_search": _ACCEPTANCE + "2 and 8",
    "dense_search": _ACCEPTANCE + "3 and 8",
    "build_ivf_index": _ACCEPTANCE + "3",
    "ivf_search": _ACCEPTANCE + "3",
    "similarity": _ACCEPTANCE + "4",
    "batch_loss": _ACCEPTANCE + "1 and 4",
    "sample_top_p_top_k": _ACCEPTANCE + "5",
    "best_spans": _ACCEPTANCE + "7",
    "span_score": _ACCEPTANCE + "7",
    "exact_match": _ACCEPTANCE + "9",
    "top_n_f1": _ACCEPTANCE + "9",
    "answerability": _TRACER,
    "extract_answer": _TRACER,
    "tokenize": "test reference: the tokens with offsets that tests check terms and token_bounds against",
    "encode_generation_target": "paper fidelity: the generator's sentence-answer-question target, "
    "which decode_generation_target inverts",
    "load_gold_squad": "paper fidelity: reads SQuAD-format golds, the format of the paper's COVID-QA",
    "open_version": "paper fidelity: the open-domain gold set of an MRC dataset",
    "run_adaptation": "demo 04 and benchmark/workloads.py run it; the CLI runs its stages one by one",
}


def _exports(tree) -> list[str]:
    """The names in a module's __all__; none without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_reached_or_listed():
    """Each function or class in a module's __all__ is referenced, as a name
    or as an attribute of its module, by some hyqa definition or statement
    other than its own definition (the CLI counts as a caller; a docstring
    does not), or UNREACHED gives its reason. UNREACHED lists exactly the
    exports no definition reaches, so no entry goes stale."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    exports = set()
    for stem, tree in trees.items():
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        exports |= {(stem, name) for name in _exports(tree) if name in defined}
    reached = set()
    for stem, tree in trees.items():
        imports = [
            (node.module, alias)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        ]
        names = {alias.asname or alias.name: (module, alias.name) for module, alias in imports if module}
        modules = {alias.asname or alias.name: alias.name for module, alias in imports if not module}
        for statement in tree.body:
            owner = (stem, getattr(statement, "name", None))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    target = names.get(node.id, (stem, node.id))
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != owner:
                    reached.add(target)
    assert len(exports) > len(UNREACHED)
    assert sorted(name for _, name in exports - reached) == sorted(UNREACHED)


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
