"""Code that nothing uses is deleted.

Every top-level function, class and assignment of ``src/persistcheck`` must be
named somewhere outside its own definition, in ``src/``, ``tests/`` or
``perfbench/`` (a word match, so a re-export, a test or a traced name counts).
Every method other than a dunder must be named as ``.method`` outside its own
definition.  The shared verdicts memo has one way in: ``framework.shared_call``.
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
            if answer is not None and m in iface.returns:
                restated.append(f"{name}: {m}")
    assert not restated, f"returns states calls the call_semantics hook answers: {restated}"


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
