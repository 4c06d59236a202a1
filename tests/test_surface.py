"""The package's surface: no definition, import or export that nothing uses.

A definition is live when a module-level statement of ``src/nclab`` reaches
it, directly or through live definitions.  Functions and classes match by
name; methods match loosely, by any attribute or identifier string of their
name, since ``x.name`` and ``attrgetter("name")`` do not say what ``x`` is.
Whatever is not live is kept on purpose in ``KEEP``, with its reason, or
reached from a kept name; a ``KEEP`` entry that turns live or disappears is
stale, so the decisions of ROADMAP items 1, 7 and 10 shrink it.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import nclab

ROOT = Path(__file__).parents[1]
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src/nclab").glob("*.py"))}

KEEP = {
    # benchmarks/tracing.py wraps these by name, and Tracer() raises for a
    # missing one: in its self-test and in --trace 1 (ROADMAP item 1).
    "nth_root_branch": "wrapped by the benchmark tracer",
    "correction_unitary": "wrapped by the benchmark tracer",
    "level_independence_residual": "wrapped by the benchmark tracer",
    # A root experiment kind (ROADMAP item 10) would run these.
    "general_root_search": "reserved for a root kind",
    "root_residual": "reserved for a root kind",
    "RootReport": "reserved for a root kind",
    "circle_function_fit": "reserved for a root kind",
    "circle_function_distance": "reserved for a root kind",
    # A covering experiment kind (ROADMAP item 7) would run it.
    "covering_generator_products": "reserved for a covering kind",
    # Generators and oracles of the tests; moved into tests/ they would be no shorter.
    "random_unitary": "test generator",
    "BranchFunction.random": "test generator",
    "CompactFunction.zero": "test oracle",
    "RootTower.level": "test oracle",
    "SpectralDecomposition.reconstruct": "test oracle, and the CI's runtime check",
    "BranchFunction.to_json": "the CI writes its branch configs with it",
    # Formed on read; no module reads them.
    "TorusRep.U": "the README quick start and the tests read them",
    "TorusRep.V": "the README quick start and the tests read them",
    # Entry points called from outside the package.
    "main": "the nclab console script and python -m nclab.cli",
}


def _is_main_guard(node) -> bool:
    """``if __name__ == "__main__":``, an entry point like the console script."""
    test = getattr(node, "test", None)
    return isinstance(test, ast.Compare) and getattr(test.left, "id", None) == "__name__"


def _imported_modules(tree) -> set:
    """Names bound by ``import x`` or ``import x as y``, whose attributes are
    the module's (``np.random``), never a definition of the package."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _definitions():
    """{key: (nodes to scan once live, whether it is a method)}: a function
    is its whole node; a class is its body without its methods; a method,
    dunders excluded (Python calls them), is keyed ``Class.method``."""
    defs = {}
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = ([node], False)
            elif isinstance(node, ast.ClassDef):
                methods = [
                    n for n in node.body
                    if isinstance(n, ast.FunctionDef) and not n.name.startswith("__")
                ]
                rest = [n for n in node.body if n not in methods]
                defs[node.name] = (rest + node.bases + node.decorator_list, False)
                defs.update({f"{node.name}.{m.name}": ([m], True) for m in methods})
    return defs


def _references(nodes, modules) -> tuple[set, set]:
    """(names loaded, attribute names and identifier strings) in ``nodes``."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) not in modules:
                attributes.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    attributes.add(sub.value)
    return names, attributes


def _reached(defs, start) -> set:
    """The keys of ``defs`` that the statements ``start`` reach, transitively."""
    modules = set().union(*map(_imported_modules, MODULES.values()))
    names, attributes = _references(start, modules)
    reached, grown = set(), True
    while grown:
        grown = False
        for key, (nodes, method) in defs.items():
            short = key.rsplit(".", 1)[-1]
            if key not in reached and (short in attributes or (not method and short in names)):
                reached.add(key)
                more_names, more_attributes = _references(nodes, modules)
                names |= more_names
                attributes |= more_attributes
                grown = True
    return reached


def _module_statements() -> list:
    """Every module-level statement but definitions, imports, the export list
    ``__all__`` (names, not uses) and the ``__main__`` guard."""
    return [
        node
        for tree in MODULES.values()
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))
        and not _is_main_guard(node)
        and getattr(getattr(node, "targets", [None])[0], "id", None) != "__all__"
    ]


def test_every_definition_is_live_or_kept():
    defs = _definitions()
    live = _reached(defs, _module_statements())
    seeds = [node for key in KEEP if key in defs for node in defs[key][0]]
    kept = set(KEEP) | _reached(defs, seeds)
    assert sorted(set(defs) - live - kept) == []


def test_keep_holds_only_unreached_definitions():
    defs = _definitions()
    live = _reached(defs, _module_statements())
    assert sorted(key for key in KEEP if key not in defs) == []
    assert sorted(key for key in KEEP if key in live) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_or_private_imports(module):
    tree = MODULES[module]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if module == "__init__":
        used |= set(nclab.__all__)
    aliases = [
        (node, alias)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    unused = [a.name for _, a in aliases if (a.asname or a.name).split(".")[0] not in used]
    # A relative import of a single-underscore name reaches into another module.
    private = [a.name for n, a in aliases if getattr(n, "level", 0) and re.match(r"_[^_]", a.name)]
    assert (unused, private) == ([], [])


def test_exports_resolve_and_the_readme_imports_only_exports():
    assert [name for name in nclab.__all__ if not hasattr(nclab, name)] == []
    readme = (ROOT / "README.md").read_text()
    quick_start = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(quick_start))
        if isinstance(node, ast.ImportFrom) and node.module == "nclab"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in nclab.__all__] == []


def test_every_traced_name_exists():
    tree = ast.parse((ROOT / "benchmarks/tracing.py").read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    ]
    missing = [
        f"{layer.value}.{name.value}"
        for layer, functions in zip(layers.keys, layers.values)
        for name in functions.keys
        if not hasattr(importlib.import_module(f"nclab.{layer.value}"), name.value)
    ]
    assert missing == []
