"""Code that nothing uses is deleted, and ``src/`` holds the checker.

Every top-level function, class and assignment of ``src/persistcheck`` must be
named somewhere outside its own definition, in ``src/``, ``tests/`` or
``perfbench/`` (a word match, so a re-export, a test or a traced name counts).
It must also be reached from a product root by name and attribute
references, each resolved in the module that makes it (its own definitions,
its ``from`` imports, ``m.name`` for a module ``m`` it imports): the CLI,
the ``__init__`` exports, the ``m.name`` the benchmark mentions, or the
case-study artifacts of ``AWAITING``.  A definition that only
the tests use lives in ``tests/definitions.py``.
Every method other than a dunder must be named as ``.method`` outside its own
definition.  The shared verdicts memo has one way in: ``framework.shared_call``.
The owner table's seeds (``Owners.placed``) are named only where the table
keeps and hands them back, and ``framework.py`` names no witness format.
Only ``SemanticImpl.blocks`` asks an implementation for its executions.
Every name a module of ``src/persistcheck`` (``__init__.py`` aside) imports
is used in that module.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "persistcheck"
EXEMPT = {"__version__", "__all__"}

#: Case-study artifacts that only tests reach: the persistification
#: transformers and the broken min-max counter (Mirror over Px86 through
#: ``verify-impl``), and the durable register spec and global-spec
#: preservation (``verify-impl`` on the transactions).  A name leaves this set
#: when the CLI reaches it or when it is deleted.
AWAITING = {
    "_persistify",
    "check_global_preservation",
    "mmcounter_impl_broken",
    "persistify_flit",
    "persistify_flit_mutated",
    "persistify_mirror",
    "persistify_mirror_mutated",
    "reg_durlin_spec",
}


def _definitions(tree):
    """(name, is_method, first line, last line) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, False, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, False, node.lineno, node.end_lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, True, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id not in EXEMPT:
                    yield t.id, False, node.lineno, node.end_lineno


def _words(text):
    return Counter(re.findall(r"\w+", text))


def _attributes(text):
    return Counter(re.findall(r"\.(\w+)", text))


def test_every_definition_is_referenced():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    texts = {p: p.read_text(encoding="utf-8") for p in files}
    words = Counter()
    attributes = Counter()
    for text in texts.values():
        words += _words(text)
        attributes += _attributes(text)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for name, is_method, first, last in _definitions(ast.parse(texts[path])):
            own = "\n".join(lines[first - 1 : last])
            if is_method:
                uses = attributes[name] - _attributes(own)[name]
            else:
                uses = words[name] - _words(own)[name]
            if uses <= 0:
                unused.append(f"{path.name}: {'.' if is_method else ''}{name}")
    assert not unused, f"defined but never referenced: {unused}"


def _source_module(node, stems):
    """The module of ``persistcheck`` an import reads from, or None."""
    name = node.module or ""
    if node.level == 0:
        if not name.startswith("persistcheck"):
            return None
        name = name[len("persistcheck") :].lstrip(".")
    return name if name in stems else ("__init__" if not name else None)


def _module_tables():
    """Per module of ``src/persistcheck``: its parsed tree, its top-level
    definitions (name -> nodes) and the names its ``from`` imports bind,
    anywhere in it (name -> (module, the name there), or (module, None) for
    a module bound by ``from . import m``)."""
    stems = {p.stem for p in PACKAGE.glob("*.py")}
    tables = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, binds = {}, {}
        for node in tree.body:
            for name, is_method, _, _ in _definitions(ast.Module([node], [])):
                if not is_method:
                    defs.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _source_module(node, stems)
                if source is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if source == "__init__" and alias.name in stems:
                        binds[bound] = (alias.name, None)
                    else:
                        binds[bound] = (source, alias.name)
        tables[path.stem] = (tree, defs, binds)
    return tables


def _resolve(tables, module, name):
    """The definition (module, name) that ``name`` read in ``module`` names:
    the module's own, or the one its imports bind, followed through
    re-exports; None for anything else."""
    while module in tables:
        _, defs, binds = tables[module]
        if name in defs:
            return module, name
        if binds.get(name, (None, None))[1] is None:
            return None
        module, name = binds[name]
    return None


def _resolved_references(tables, module, node):
    """The definitions a statement of ``module`` reads: a name through the
    module's own definitions and imports, ``m.name`` through the module that
    ``m`` binds, and each name an import inside the statement brings in."""
    stems = set(tables)
    binds = tables[module][2]
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield _resolve(tables, module, n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            source, name = binds.get(n.value.id, (None, None))
            if name is None and source is not None:
                yield _resolve(tables, source, n.attr)
        elif isinstance(n, ast.ImportFrom):
            source = _source_module(n, stems)
            for alias in n.names if source is not None else ():
                yield _resolve(tables, source, alias.name)


def _benchmark_mentions(tables):
    """The definitions ``perfbench/`` names as ``m.name``, in code
    (``pc.m.name``) or in a string (a traced name such as
    ``"model.Execution.restrict_events"``)."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute):
                found.add(_resolve(tables, n.value.attr, n.attr))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                found.update(_resolve(tables, m, name) for m, name in re.findall(r"(\w+)\.(\w+)", n.value))
    return found - {None}


def _reached(tables, roots):
    """The definitions (module, name) reached from ``roots``."""
    seen = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        for node in tables[module][1][name]:
            todo.extend(r for r in _resolved_references(tables, module, node) if r is not None and r not in seen)
    return seen


def test_every_definition_is_reached_from_a_product_root():
    # roots: all of cli and __main__, the names __init__ exports, the names
    # the benchmark mentions, and what a module runs when imported.  A
    # reference is resolved in its own module, so a definition is reached
    # only through a reference that names it, not through another module's
    # definition of the same name.
    tables = _module_tables()
    roots = _benchmark_mentions(tables)
    for module, (tree, defs, _) in tables.items():
        for node in tree.body:
            is_definition = any(node in nodes for nodes in defs.values())
            if module in ("cli", "__main__", "__init__") or not (
                is_definition or isinstance(node, (ast.Import, ast.ImportFrom))
            ):
                roots.update(_resolved_references(tables, module, node))
    roots.discard(None)
    awaiting = {(m, name) for m, (_, defs, _) in tables.items() for name in defs if name in AWAITING}
    missing = AWAITING - {name for _, name in awaiting}
    assert not missing, f"AWAITING names no longer defined: {sorted(missing)}"
    early = sorted(awaiting & _reached(tables, roots))
    assert not early, f"AWAITING names a product root reaches; take them out of AWAITING: {early}"
    defined = {(m, name) for m, (_, defs, _) in tables.items() for name in defs}
    unreached = sorted(f"{m}: {name}" for m, name in defined - _reached(tables, roots | awaiting))
    assert not unreached, f"defined in src/ but reached from no product root (move to tests/definitions.py): {unreached}"


def _names_memo(node):
    return (
        isinstance(node, ast.Name) and node.id == "_VERDICTS"
        or isinstance(node, ast.Attribute) and node.attr == "_VERDICTS"
        or isinstance(node, ast.alias) and node.name == "_VERDICTS"
        or isinstance(node, ast.Constant) and node.value == "_VERDICTS"
    )


def test_only_shared_call_reads_or_writes_the_shared_verdicts_memo():
    # besides its own definition, the memo is named by the scope that opens
    # it, by shared_call, and by check_consistent's test for an open scope
    allowed = {("framework", n) for n in ("_VERDICTS", "shared_verdicts", "shared_call", "check_consistent")}
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(_names_memo(n) for n in ast.walk(node)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    owners = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    owners = [t.id if isinstance(t, ast.Name) else "<module>" for t in targets]
                else:
                    owners = ["<module>"]
                naming.update((path.stem, o) for o in owners)
    assert ("framework", "shared_call") in naming
    assert naming <= allowed, f"the shared verdicts memo is named outside shared_call: {sorted(naming - allowed)}"


def _scoped(node, scope=()):
    """Each node below ``node``, with the names of the classes and functions
    around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield child, inner
        yield from _scoped(child, inner)


def test_only_the_owner_table_names_its_seeds_and_the_framework_no_witness_format():
    # a seed is what a library's own check gave, and only that check reads
    # it: the owner table keeps it and hands it back, and the framework
    # knows no library's witness format
    allowed = {("framework", "Owners.__init__"), ("framework", "Owners._local")}
    naming, formats = set(), {"Placement"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "placed":
                naming.add((path.stem, ".".join(scope)))
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Witness"):
                formats.add(node.name)
    assert ("framework", "Owners._local") in naming
    assert naming <= allowed, f"the owner table's seeds are named outside it: {sorted(naming - allowed)}"
    assert {"Px86Witness", "WeakRegWitness"} <= formats
    named = set()
    for node in ast.walk(ast.parse((PACKAGE / "framework.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.add(node.name)
    assert not named & formats, f"framework.py names a witness format: {sorted(named & formats)}"


def test_only_the_blocks_table_asks_for_executions():
    # an implementation's members are kept once, as the bind's blocks: the
    # table of blocks is the one reader of the graphs ``executions`` builds
    asking = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "executions":
                asking.add((path.stem, ".".join(scope)))
    assert asking == {("substitution", "SemanticImpl.blocks")}, f"executions asked outside blocks: {sorted(asking)}"


def test_no_interface_restates_what_its_hook_answers():
    from persistcheck.lang import CallCtx
    from persistcheck.libs import builtin_spec

    # the names the builtin_spec docstring lists; lin:<seq> and durlin:<seq>
    # wrap sequential specs over interfaces that have no hook
    listed = builtin_spec.__doc__.split(":", 1)[1].replace(".", "").split(",")
    names = [n.strip() for n in listed if "<" not in n]
    assert {"px86", "mirror", "scmem"} <= set(names)
    restated = []
    for name in names:
        iface = builtin_spec(name).interface
        if iface.call_semantics is None:
            continue
        for m, arity in iface.methods.items():
            answer = iface.call_semantics(m, (100, 0, 1)[: arity or 0], CallCtx([0, 1], 100))
            if answer is not None and m in iface.void:
                restated.append(f"{name}: {m}")
    assert not restated, f"void states calls the call_semantics hook answers: {restated}"


def _annotation_names(node):
    """The names an annotation reads, a string annotation's included."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from _annotation_names(ast.parse(n.value, mode="eval"))


def test_every_import_is_used():
    # a name bound by an import is used where the module reads it: as a name
    # (an ``if TYPE_CHECKING:`` test included), or inside an annotation,
    # quoted or not
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = {"annotations"}  # the ``from __future__`` feature
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            annotations = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                annotations = [a.annotation for a in every if a is not None] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                annotations = [node.annotation]
            for annotation in annotations:
                if annotation is not None:
                    used.update(_annotation_names(annotation))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"
