"""Code that nothing uses is deleted.

Every top-level function, class and assignment of ``src/persistcheck`` must be
named somewhere outside its own definition, in ``src/``, ``tests/`` or
``perfbench/`` (a word match, so a re-export, a test or a traced name counts).
Every method other than a dunder must be named as ``.method`` outside its own
definition.
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
