"""Golden outputs: the reports users read stay byte for byte the same.

Covers ``check --json`` on every ``litmus/**/*.lit`` file,
``worked-examples``, and ``verify-impl flit flit --over px86 --corpus
litmus/flit``; stdout, stderr and exit code of each.  The ``verify-impl``
report is large, so only its sha256 digest, its line count and its summary
line are kept.  Every command runs in-process through ``cli.main``.

A change that is meant to alter one of these reports regenerates the files
under ``tests/golden/`` with ``PYTHONPATH=src python
tests/test_golden_outputs.py`` (run from the repository root) and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from persistcheck.cli import main
from persistcheck.model import Execution, PlainExecution

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INDEX = GOLDEN / "index.json"

LITMUS_FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "litmus").rglob("*.lit"))
CASES = {
    **{f"check:{p}": ["check", p, "--json"] for p in LITMUS_FILES},
    "worked-examples": ["worked-examples"],
    "verify-impl:flit": ["verify-impl", "flit", "flit", "--over", "px86", "--corpus", "litmus/flit"],
}
DIGEST_ONLY = {"verify-impl:flit"}


def _run(argv):
    """Run one command from the repository root; return (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _file_for(name: str) -> Path:
    return GOLDEN / (name.replace(":", "__").replace("/", "__") + ".out")


def _record(name: str, code: int, out: str, err: str) -> dict:
    rec = {"exit": code, "stderr": err}
    if name in DIGEST_ONLY:
        lines = out.splitlines()
        rec.update(
            sha256=hashlib.sha256(out.encode("utf-8")).hexdigest(),
            lines=len(lines),
            summary=lines[-1] if lines else "",
        )
    return rec


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        index[name] = _record(name, code, out, err)
        if name not in DIGEST_ONLY:
            _file_for(name).write_text(out, encoding="utf-8")
    INDEX.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_golden_cases_cover_every_litmus_file():
    assert len(LITMUS_FILES) == 18
    assert set(json.loads(INDEX.read_text(encoding="utf-8"))) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = json.loads(INDEX.read_text(encoding="utf-8"))[name]
    code, out, err = _run(CASES[name])
    assert _record(name, code, out, err) == want
    if name not in DIGEST_ONLY:
        assert out == _file_for(name).read_text(encoding="utf-8")


def test_reports_read_no_pair_view(monkeypatch):
    # every layer reads po and hb as closed rows: with their pair views made
    # to raise, each report still equals its golden
    def pair_view(self):
        raise AssertionError("po or hb read as a pair set")

    for cls, name in ((Execution, "po"), (Execution, "hb"), (PlainExecution, "po")):
        monkeypatch.setattr(cls, name, property(pair_view))
    index = json.loads(INDEX.read_text(encoding="utf-8"))
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        assert _record(name, code, out, err) == index[name], name
        if name not in DIGEST_ONLY:
            assert out == _file_for(name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    regenerate()
