"""Each module's __all__ lists exactly the public functions and classes it
defines, so a deleted name cannot linger there and a public one cannot be
left out; each of them, and each public method of an exported class, is
reached from another definition or has a stated reason; each parameter
default is overridden by some hyqa call and left out by another, or has a
stated reason; no module imports another's private names; and the names
the docs mention exist."""

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
    "NgramLM.fit": _ACCEPTANCE + "6",
    "NgramLM.next": "test reference: tests read a fitted model's distributions through it",
    "GenTarget.serialize": "paper fidelity: the writer half of the generator's target format",
    "ExternalLogits.load": _ACCEPTANCE + "11",
    "ExternalLogits.dump_record": _ACCEPTANCE + "11",
}


def _exports(tree) -> list[str]:
    """The names in a module's __all__; none without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _relative_imports(tree) -> tuple[dict, dict]:
    """The names a module imports from hyqa modules, each mapped to its
    (module, name), and the hyqa modules it imports, each mapped to its
    name."""
    imports = [
        (node.module, alias)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    names = {alias.asname or alias.name: (module, alias.name) for module, alias in imports if module}
    modules = {alias.asname or alias.name: alias.name for module, alias in imports if not module}
    return names, modules


def test_every_export_is_reached_or_listed():
    """Each function or class in a module's __all__ is referenced, as a name
    or as an attribute of its module, by some hyqa definition or statement
    other than its own definition (the CLI counts as a caller; a docstring
    does not), or UNREACHED gives its reason. So is each public method of
    an exported class, `Class.method` in UNREACHED, reached as
    test_every_parameter_default_is_set_or_listed resolves calls: a method
    reached only from itself is not reached. UNREACHED lists exactly the
    exports no definition reaches, so no entry goes stale."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    exports = set()
    for stem, tree in trees.items():
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        exports |= {(stem, name) for name in _exports(tree) if name in defined}
    functions = _functions(trees)
    methods = {key for key in functions if (key[0], key[1]) in exports and not key[2].startswith("_")}
    called = {callee for caller, callee, _ in _calls(trees, functions) if caller != callee}
    reached = set()
    for stem, tree in trees.items():
        names, modules = _relative_imports(tree)
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
    unreached = [name for _, name in exports - reached] + [f"{owner}.{name}" for _, owner, name in methods - called]
    assert len(exports) + len(methods) > len(UNREACHED)
    assert sorted(unreached) == sorted(UNREACHED)


# The parameters with a default that no hyqa call sets, each with the reason
# it stays a parameter.
UNSET = {
    ("cli", "main", "argv"): "the console script calls main(); tests pass the command line as argv",
    ("pipeline", "evaluate_run", "match_ks"): "acceptance contract: tests/test_acceptance.py passes "
    "match_ks=(5,) in criteria 10 and 12",
}


def _functions(trees) -> dict:
    """(module, class or None, name) -> (def node, decorator names) of every
    module-level function and every method of a module-level class."""
    found = {}
    for stem, tree in trees.items():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in methods:
                if isinstance(fn, ast.FunctionDef):
                    owner = node.name if isinstance(node, ast.ClassDef) else None
                    found[(stem, owner, fn.name)] = (fn, {getattr(d, "id", None) for d in fn.decorator_list})
    return found


def _defaulted(fn, skip: int) -> list[tuple[int | None, str]]:
    """(positional index or None, name) of each parameter with a default,
    indices counted after the first `skip` (self or cls)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None
    ]


def _calls(trees, functions) -> list[tuple[tuple, tuple, object]]:
    """(caller key, callee key, ast.Call or None) for each hyqa call of a
    function in `functions`. A name is resolved through the module's own
    definitions and its relative imports; Class(...) and cls(...) in a
    classmethod call Class.__init__; self.m, cls.m and Class.m call that
    class's m, and super().m its hyqa bases' m; m of a module bound by an
    import statement (pickle.load, np.save) calls no hyqa method; any other
    obj.m calls every hyqa method named m. A reference
    that is not a call hands the function on, so it counts as a call that
    may set every parameter (None)."""
    classes = {(stem, owner) for stem, owner, _ in functions if owner}
    by_method: dict[str, list] = {}
    for key in functions:
        if key[1]:
            by_method.setdefault(key[2], []).append(key)
    found = []
    for stem, tree in trees.items():
        names, modules = _relative_imports(tree)
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        parents = {
            (stem, node.name): [names.get(b.id, (stem, b.id)) for b in node.bases if isinstance(b, ast.Name)]
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        }

        def resolve(expr, owner, decorators) -> list[tuple]:
            if isinstance(expr, ast.Name):
                if expr.id == "cls" and "classmethod" in decorators:
                    return [(stem, owner, "__init__")]
                module, name = names.get(expr.id, (stem, expr.id))
                if (module, name) in classes:
                    return [(module, name, "__init__")]
                return [(module, None, name)]
            if not isinstance(expr, ast.Attribute):
                return []
            if isinstance(expr.value, ast.Call) and getattr(expr.value.func, "id", None) == "super":
                return [(*parent, expr.attr) for parent in parents.get((stem, owner), [])]
            base = getattr(expr.value, "id", None)
            if base in modules:
                return [(modules[base], None, expr.attr)]
            if base in imported:
                return []
            if base in ("self", "cls") and owner:
                return [(stem, owner, expr.attr)]
            if base in names and names[base] in classes:
                return [(*names[base], expr.attr)]
            if (stem, base) in classes:
                return [(stem, base, expr.attr)]
            return by_method.get(expr.attr, [])

        def scan(caller, body, owner, decorators):
            nodes = [node for part in body for node in ast.walk(part)]
            # Called expressions, receivers and annotations are not values
            # that hand a function on.
            skip = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
            skip |= {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
            for node in nodes:
                for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                    skip |= {id(inner) for inner in ast.walk(annotation)} if annotation else set()
            for node in nodes:
                if isinstance(node, ast.Call):
                    found.extend((caller, key, node) for key in resolve(node.func, owner, decorators))
                elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip:
                    found.extend((caller, key, None) for key in resolve(node, owner, decorators) if key[2] != "__init__")

        for (module, owner, name), (fn, decorators) in functions.items():
            if module == stem:
                scan((stem, owner, name), [fn], owner, decorators)
        # Module-level statements (the CLI's `main()`) call as the module.
        scan((stem, None, None), [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))], None, set())
    return [(caller, callee, call) for caller, callee, call in found if callee in functions]


def _sets(call, index, name) -> bool:
    """Whether the call passes the parameter at positional `index` (or
    keyword-only) named `name`."""
    if call is None or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _defaults_no_call(matches) -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each parameter with a default, of a
    function or method some hyqa call reaches, for which no hyqa call other
    than the function's own gives matches(call, index, name)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    functions = _functions(trees)
    calls = [(callee, call) for caller, callee, call in _calls(trees, functions) if caller != callee]
    assert len(calls) > 100
    found = set()
    for key in {callee for callee, _ in calls}:
        fn, decorators = functions[key]
        bound = key[1] is not None and "staticmethod" not in decorators
        for index, name in _defaulted(fn, int(bound)):
            if not any(matches(call, index, name) for callee, call in calls if callee == key):
                found.add((key[0], ".".join(filter(None, key[1:])), name))
    return sorted(found)


def test_every_parameter_default_is_set_or_listed():
    """Each parameter with a default, of a function or method some hyqa call
    reaches, is passed by some hyqa call other than the function's own:
    by keyword, by enough positional arguments, or by * or **. The CLI
    counts as a caller. A default no call sets is a constant in disguise,
    so it must become one, or UNSET gives its reason; UNSET lists exactly
    the unset ones, so no entry goes stale. Config dataclass fields are not
    parameters of a def, so they are not scanned."""
    assert _defaults_no_call(_sets) == sorted(UNSET)


# The parameter defaults that every hyqa call reaching them overrides, each
# with the caller outside hyqa that leaves it out.
RELIED_OUTSIDE = {
    ("corpus", "chunk_retrieval_passages", "max_words"): "benchmark/workloads.py chunks at the default",
    ("corpus", "ingest_documents", "source"): "benchmark/workloads.py ingests without a source",
    ("sparse", "build_sparse_index", "params"): "benchmark/workloads.py and demos 01 and 03 index with "
    "the default BM25Params",
    ("encoder", "loss_gradient", "touched"): "acceptance contract: tests/test_acceptance.py criterion 1 "
    "takes the full-size gradient",
    ("syngen", "candidate_targets", "sentences"): "acceptance contract: tests/test_acceptance.py "
    "criterion 6 leaves it out",
    ("syngen", "generate_examples", "sentences"): "acceptance contract: tests/test_acceptance.py "
    "criterion 6 leaves it out",
}


def _leaves_out(call, index, name) -> bool:
    """Whether the call may leave out the parameter at positional `index`
    (or keyword-only) named `name`: it does not pass it, or it passes * or
    **. A function handed on as a value (None) counts as passing it, as in
    _sets: the one hyqa function that hands a defaulted function on,
    cli.cmd_chunk, calls it with every argument."""
    starred = call is not None and (
        any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
    )
    return starred or not _sets(call, index, name)


def test_every_parameter_default_is_relied_on_or_listed():
    """Each parameter with a default, of a function or method some hyqa call
    reaches, is left out by some hyqa call other than the function's own
    (one that passes * or ** may leave it out). A default every call
    overrides restates the caller's value, which can drift from it, so the
    parameter must become required, or RELIED_OUTSIDE names the caller
    outside hyqa that leaves it out; RELIED_OUTSIDE lists exactly those,
    so no entry goes stale. The CLI counts as a caller."""
    assert _defaults_no_call(_leaves_out) == sorted(RELIED_OUTSIDE)


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
