"""CLI subcommands: exit codes, determinism, report shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import persistcheck.cli as cli
from persistcheck.cli import main
from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig
from persistcheck.substitution import SemanticImpl

ROOT = Path(__file__).resolve().parent.parent
LITMUS = ROOT / "litmus"


def run_cli(args):
    return main(list(args))


def test_check_pass_exit_zero(capsys):
    assert run_cli(["check", str(LITMUS / "sb.lit")]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_check_expectation_mismatch_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.lit"
    bad.write_text(
        """
collection px86
globals
  x := alloc()
program
  t0: store(x, 1); r := load(x)
expect consistent outcome r=0
"""
    )
    assert run_cli(["check", str(bad)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_check_budget_exhaustion_is_unknown_exit_three(capsys):
    # With a budget of one, the hereditary walk checks a whole run and then
    # runs out on its first immediate prefix (each of the five
    # BudgetExceeded raised carries the walk's "explored" key), so the
    # consistent outcomes are UNKNOWN rather than FAIL "observed
    # inconsistent".  The px86 witness search never runs out: builtin_spec
    # floors its budget at 100,000.  The r1=1,r2=0 run has no px86 witness
    # as a whole, so it is refuted before any prefix is explored.
    assert run_cli(["check", str(LITMUS / "mp.lit"), "--budget", "1", "--json"]) == 3
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
    status = {rec["what"]: rec["status"] for rec in records}
    assert status == {
        "mp.lit: expect inconsistent outcome r1=1,r2=0": "PASS",
        "mp.lit: expect consistent outcome r1=1,r2=1": "UNKNOWN",
        "mp.lit: expect consistent outcome r1=0,r2=0": "UNKNOWN",
    }


def test_check_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.lit"
    bad.write_text("collection px86\nprogram\n t0: r := := load(x)\n")
    assert run_cli(["check", str(bad)]) == 2


BAD_VALUE_HEAD = "collection px86\nglobals\n  x := alloc()\nprogram\n  t0: store(x, 1); r := load(x)\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("domain x", "bad domain value 'x'"),
        ("unroll", "unroll must be one positive integer, found 'unroll'"),
        ("unroll -1", "unroll must be one positive integer, found 'unroll -1'"),
        ("expect consistent outcome r=abc", "bad value of r 'abc'"),
        ("expect consistent outcome r", "expected 'register=value', found 'r'"),
        ("expect consistent outcome r=0, r=1", "register r named twice in one outcome"),
    ],
)
def test_check_bad_litmus_value_exit_two(tmp_path, capsys, line, message):
    f = tmp_path / "bad.lit"
    f.write_text(BAD_VALUE_HEAD + line + "\n")
    assert run_cli(["check", str(f)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message} (line 6, col 0)\n"


def test_verify_impl_corpus_bad_value_exit_two(tmp_path, capsys):
    (tmp_path / "bad.lit").write_text(BAD_VALUE_HEAD + "domain x\n")
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: bad.lit: bad domain value 'x' (line 6, col 0)\n"


def test_check_unknown_model_exit_two(tmp_path):
    f = tmp_path / "m.lit"
    f.write_text("collection nosuchlib\nprogram\n t0: skip\n")
    assert run_cli(["check", str(f)]) == 2


def test_check_json_report(capsys):
    assert run_cli(["check", str(LITMUS / "coherence.lit"), "--json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    for l in lines:
        rec = json.loads(l)
        assert rec["status"] in ("PASS", "FAIL", "INFO")


def test_check_deterministic_output(capsys):
    run_cli(["check", str(LITMUS / "mp.lit"), "--json"])
    first = capsys.readouterr().out
    run_cli(["check", str(LITMUS / "mp.lit"), "--json"])
    second = capsys.readouterr().out
    assert first == second


_CHECK_ALL = """
import sys
from persistcheck.cli import main
for path in sys.argv[1:]:
    print("exit", main(["check", path, "--json"]))
print("exit", main(["worked-examples"]))
"""


def test_output_is_independent_of_hash_seed():
    # every litmus file and the worked examples, under two hash seeds
    files = sorted(str(p.relative_to(ROOT)) for p in LITMUS.rglob("*.lit"))
    assert len(files) == 18
    outs = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-c", _CHECK_ALL, *files], capture_output=True, text=True, cwd=ROOT, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("exit 0") == 19


def test_check_dot_dump(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert run_cli(["check", str(LITMUS / "coherence.lit"), "--dot", str(dot)]) == 0
    assert dot.exists() and "digraph" in dot.read_text()


def test_check_dot_draws_a_consistent_execution(tmp_path, capsys):
    # the first complete run of lb.lit reads r1=1, r2=1, which the file
    # expects to be inconsistent; --dot draws the witness of the first
    # justified outcome instead
    from persistcheck.framework import check_hereditarily_consistent
    from persistcheck.lang import behaviors, parse_litmus
    from persistcheck.libs import builtin_spec
    from persistcheck.model import execution_to_dot

    dot = tmp_path / "lb.dot"
    assert run_cli(["check", str(LITMUS / "lb.lit"), "--dot", str(dot)]) == 0
    lit = parse_litmus((LITMUS / "lb.lit").read_text())
    coll = Collection([builtin_spec("px86")])
    got = behaviors(list(lit.phases), coll, config=InterpConfig(unroll=4), outcome_regs=["r1", "r2"])
    first = min(got, key=repr)
    assert first == (("r1", 0), ("r2", 0))
    x = got.witness[first]
    assert dot.read_text() == execution_to_dot(x)
    assert check_hereditarily_consistent(coll, x)


def test_check_dot_without_consistent_outcome_writes_nothing(tmp_path, capsys):
    f = tmp_path / "none.lit"
    f.write_text("collection px86\nprogram\n  t0: r := load(7)\nexpect inconsistent outcome r=0\n")
    dot = tmp_path / "none.dot"
    assert run_cli(["check", str(f), "--dot", str(dot)]) == 0
    assert not dot.exists()
    assert "no consistent execution" in capsys.readouterr().err


def test_check_dot_into_a_missing_directory_exit_two(tmp_path, capsys):
    # exit 1 is a failed expectation: an unwritable DOT path is a usage error
    dot = tmp_path / "missing" / "x.dot"
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--dot", str(dot)]) == 2
    out, err = capsys.readouterr()
    assert out.count("[PASS]") == 3
    assert err == f"error: cannot write {dot}: No such file or directory\n"
    assert not dot.parent.exists()


def test_worked_examples_exit_zero(capsys):
    assert run_cli(["worked-examples"]) == 0
    out = capsys.readouterr().out
    assert "✓" in out and "✗" not in out


def test_worked_examples_budget_row_is_unknown(monkeypatch, capsys):
    import persistcheck.cli as cli
    from persistcheck.framework import Verdict

    monkeypatch.setattr(cli, "check_durably_linearizable", lambda *a, **k: Verdict.budget())
    assert run_cli(["worked-examples"]) == 3
    row = next(l for l in capsys.readouterr().out.splitlines() if "durably linearizable" in l)
    assert row.split()[-2:] == ["False", "unknown"]


def test_worked_examples_mismatch_beats_unknown(monkeypatch, capsys):
    import persistcheck.cli as cli
    from persistcheck.framework import Verdict

    monkeypatch.setattr(cli, "check_durably_linearizable", lambda *a, **k: Verdict.budget())
    monkeypatch.setattr(cli, "check_linearizable", lambda *a, **k: Verdict.fail("no"))
    assert run_cli(["worked-examples"]) == 1
    assert "✗" in capsys.readouterr().out


def test_verify_impl_output_is_independent_of_hash_seed(tmp_path):
    # record indices follow the order in which the corpus runs are built
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "f2_crash.lit").write_text((LITMUS / "flit" / "f2_crash.lit").read_text())
    outs = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        )
        args = ["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(corpus)]
        proc = subprocess.run(
            [sys.executable, "-m", "persistcheck", *args], capture_output=True, text=True, cwd=ROOT, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0].splitlines()[-1])["summary"] == "ok"


def test_verify_impl_unknown_name(capsys):
    assert run_cli(["verify-impl", "nope", "flit", "--over", "px86"]) == 2


def test_verify_impl_reads_its_file_as_an_implementation(capsys):
    # a litmus file given as the implementation is a parse error, not a crash
    impl = str(LITMUS / "coherence.lit")
    assert run_cli(["verify-impl", impl, "flit", "--over", "px86", "--corpus", str(LITMUS / "flit")]) == 2
    assert "error: unexpected line 'collection px86'" in capsys.readouterr().err


FLIT_BODIES = {
    "fnew": "method fnew() := r := alloc(); c := alloc(); return r",
    "fwrite_p": "method fwrite_p(l, v) := a := faa(l + 1, 1); store(l, v); fo(l); b := faa(l + 1, 0 - 1)",
    "fwrite_v": "method fwrite_v(l, v) := sfence(); store(l, v)",
    "fread_p": "method fread_p(l) := v := load(l); c := load(l + 1); if (c > 0) { fo(l) }; return v",
    "fread_v": "method fread_v(l) := v := load(l); return v",
    "ffinish": "method ffinish() := sfence()",
}
FLIT_FILE_ARGS = ["flit", "--over", "px86", "--corpus", str(LITMUS / "flit"), "--max-crashes", "0"]


def test_verify_impl_a_method_declared_twice_exit_two(tmp_path, capsys):
    # the one-alloc fnew given last no longer silently wins
    impl = tmp_path / "twice.impl"
    impl.write_text("\n".join(list(FLIT_BODIES.values()) + ["method fnew() := r := alloc(); return r"]) + "\n")
    assert run_cli(["verify-impl", str(impl)] + FLIT_FILE_ARGS) == 2
    assert capsys.readouterr().err == "error: method fnew is declared twice (line 7, col 0)\n"


def test_verify_impl_a_spec_method_with_no_body_exit_two(tmp_path, capsys, monkeypatch):
    # named before the corpus is interpreted, not as the event it leaves unowned
    impl = tmp_path / "nowrite.impl"
    impl.write_text("\n".join(v for m, v in FLIT_BODIES.items() if m != "fwrite_p") + "\n")

    def interpret(*args, **kwargs):
        raise AssertionError("corpus interpreted")

    monkeypatch.setattr(cli, "interpret_toplevel", interpret)
    assert run_cli(["verify-impl", str(impl)] + FLIT_FILE_ARGS) == 2
    assert capsys.readouterr().err == "error: nowrite has no body for fwrite_p, which no --over library owns\n"


def test_check_unknown_method_exit_two(tmp_path, capsys):
    path = tmp_path / "q.lit"
    path.write_text("collection px86\nprogram\n  t0: qpush(1, 2)\n")
    assert run_cli(["check", str(path)]) == 2
    assert "error: method qpush" in capsys.readouterr().err


def test_check_faa_with_a_non_integer_delta_exit_two(tmp_path, capsys):
    path = tmp_path / "faa.lit"
    path.write_text("collection px86\nglobals\n  x := alloc()\nprogram\n  t0: r := faa(x, null)\n")
    assert run_cli(["check", str(path)]) == 2
    assert "error: faa delta None is not an integer" in capsys.readouterr().err


def test_verify_impl_unknown_method_exit_two(capsys):
    # the reg corpus calls regnew, which no interface of px86 or flit declares
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(LITMUS / "reg_flit")])
    assert code == 2
    assert "error: event 0 with label regnew()" in capsys.readouterr().err


def test_verify_impl_corpus_parse_error_exit_two(tmp_path, capsys):
    (tmp_path / "broken.lit").write_text("collection flit\nprogram\n  t0: r := := load(x)\n")
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: broken.lit: ")


def test_check_globals_after_a_crash_exit_two(tmp_path, capsys):
    # only the first phase may declare globals
    f = tmp_path / "late.lit"
    f.write_text("collection px86\nprogram\n  t0: skip\ncrash\nglobals\n  x := alloc()\nprogram\n  t0: skip\n")
    assert run_cli(["check", str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: globals after a crash: only the first phase may declare globals (line 5, col 0)\n"
    )


NOT_UTF8 = b"collection px86\n% caf\xe9\n"


def test_check_a_file_that_is_not_utf8_exit_two(tmp_path, capsys):
    f = tmp_path / "latin1.lit"
    f.write_bytes(NOT_UTF8)
    assert run_cli(["check", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {f} is not UTF-8 (invalid continuation byte at byte 21)\n"


def test_verify_impl_an_implementation_that_is_not_utf8_exit_two(tmp_path, capsys):
    f = tmp_path / "latin1.impl"
    f.write_bytes(NOT_UTF8)
    assert run_cli(["verify-impl", str(f), "flit", "--over", "px86"]) == 2
    assert capsys.readouterr().err == f"error: {f} is not UTF-8 (invalid continuation byte at byte 21)\n"


def test_verify_impl_a_corpus_file_that_is_not_utf8_exit_two(tmp_path, capsys):
    f = tmp_path / "latin1.lit"
    f.write_bytes(NOT_UTF8)
    assert run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: latin1.lit: {f} is not UTF-8 (invalid continuation byte at byte 21)\n"


def test_verify_impl_empty_corpus(tmp_path, capsys):
    assert (
        run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path)])
        == 2
    )


@pytest.mark.parametrize("corpus", ["missing", "file.lit"])
def test_verify_impl_a_corpus_that_is_not_a_directory_exit_two(tmp_path, capsys, corpus):
    (tmp_path / "file.lit").write_text((LITMUS / "sb.lit").read_text(encoding="utf-8"), encoding="utf-8")
    path = tmp_path / corpus
    assert run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: {path} is not a directory\n"


def test_verify_impl_a_library_named_twice_in_over_exit_two(capsys):
    assert run_cli(["verify-impl", "flit", "flit", "--over", "px86,px86", "--corpus", str(LITMUS / "flit")]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: library px86 already registered\n"


@pytest.mark.parametrize("over", [",", " , ", ""])
def test_verify_impl_an_over_that_names_no_library_is_a_usage_error(over, capsys):
    # it used to reach the bind and fail there on the first method it met
    assert run_cli(["verify-impl", "flit", "flit", "--over", over, "--corpus", str(LITMUS / "flit")]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage:")
    assert err.endswith("error: argument --over: names no library\n")


def test_verify_impl_small_corpus(tmp_path, capsys):
    (tmp_path / "a.lit").write_text(
        """
collection flit
globals
  l := fnew()
program
  t0: fwrite_p(l, 1); r := fread_p(l)
"""
    )
    code = run_cli(
        ["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path), "--budget", "20000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["summary"] == "ok"


#: one thread storing to x and loading it eight times: more than 10,000
#: interpreter runs over the default domain
EIGHT_LOADS = """
collection px86
globals
  x := alloc()
program
  t0: store(x, 1); a := load(x); b := load(x); c := load(x); d := load(x); e := load(x); f := load(x); g := load(x); h := load(x)
expect consistent outcome a=1
expect inconsistent outcome a=0
"""

SMALL_FLIT = """
collection flit
globals
  l := fnew()
program
  t0: fwrite_p(l, 1); r := fread_p(l)
"""


def test_verify_impl_out_of_budget_is_unknown(tmp_path, capsys):
    # at budget 3 the hereditary walk runs out on every concrete with a
    # consistent refinement (px86 refutes the others whole): no verdict, not
    # a counterexample
    (tmp_path / "a.lit").write_text(SMALL_FLIT)
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path), "--budget", "3"])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    records = [json.loads(line) for line in lines[:-1]]
    assert code == 3
    assert summary["summary"] == "unknown"
    undecided = [r for r in records if r["undecided"]]
    assert summary["budget_hits"] == len(undecided) > 0
    assert {r["detail"] for r in undecided} == {"hereditary consistency check hit budget"}
    assert not any(r["lifted"] is not None or r["wf_downward"] is False for r in records)


def test_check_out_of_runs_is_unknown_exit_three(tmp_path, capsys):
    f = tmp_path / "loads.lit"
    f.write_text(EIGHT_LOADS)
    assert run_cli(["check", str(f), "--budget", "10000", "--json"]) == 3
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [(r["status"], r["detail"]) for r in records] == [
        ("UNKNOWN", "interpretation exceeded max_runs=10000")
    ] * 2


MCAS_LIT = "collection mirror\nglobals\n  l := mnew()\nprogram\n  t0: c := mcas(l, 0, 1); r := mrd(l)\n"
MCAS_ARGS = ["verify-impl", "mirror", "mirror", "--over", "px86", "--max-crashes", "0", "--budget", "10000"]


def test_verify_impl_bind_out_of_runs_is_unknown(tmp_path, capsys):
    # interpreting mcas over px86 at unroll 4 takes more than 10,000 runs, so
    # every graph that calls it binds to an undecided record, with no concrete
    (tmp_path / "m.lit").write_text(MCAS_LIT)
    assert run_cli(MCAS_ARGS + ["--corpus", str(tmp_path)]) == 3
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    summary, records = lines[-1], lines[:-1]
    assert summary["summary"] == "unknown" and summary["budget_hits"] == summary["records"] == len(records)
    unbound = [r for r in records if r["concrete"] is None]
    assert unbound and all(r["undecided"] for r in unbound)
    assert {r["detail"] for r in unbound} == {"interpreting the implementation exceeded max_runs=10000"}
    assert summary["bound"].startswith(f"corpus={len(records)} graphs (0 bind to no concrete, ")


def test_verify_impl_interprets_an_out_of_runs_call_once(tmp_path, capsys, monkeypatch):
    # mcas runs out of runs whatever it returns: the ten graphs that call it
    # (returning 0 or 1) share one interpretation, and each still binds to
    # an undecided record
    (tmp_path / "m.lit").write_text(MCAS_LIT)
    interpreted = []
    interpret = SemanticImpl._interpret

    def logging(self, method, args, loc_start):
        interpreted.append(method)
        return interpret(self, method, args, loc_start)

    monkeypatch.setattr(SemanticImpl, "_interpret", logging)
    assert run_cli(MCAS_ARGS + ["--corpus", str(tmp_path)]) == 3
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert interpreted.count("mcas") == 1
    unbound = {
        "concrete": None,
        "matching": None,
        "lifted": None,
        "wf_downward": None,
        "witness_chain": None,
        "detail": "interpreting the implementation exceeded max_runs=10000",
        "undecided": True,
    }
    assert lines[:-1] == [{"abstract": i, **unbound} for i in range(10)]
    assert lines[-1] == {
        "summary": "unknown",
        "records": 10,
        "budget_hits": 10,
        "bound": "corpus=10 graphs (0 bind to no concrete, 0 over max_concrete), max_concrete=64, budget=10000",
    }


def test_verify_impl_corpus_out_of_runs_is_noted_and_unknown(tmp_path, capsys):
    (tmp_path / "a.lit").write_text(SMALL_FLIT)
    (tmp_path / "loads.lit").write_text(EIGHT_LOADS)
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path), "--budget", "10000"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "note: loads.lit: interpretation exceeded max_runs=10000, no graph taken\n"
    lines = [json.loads(l) for l in out.splitlines()]
    # a.lit's graphs are verified, and none of them is undecided
    assert lines[-1]["summary"] == "unknown" and lines[-1]["records"] == len(lines) - 1 > 0
    assert not any(r["undecided"] for r in lines[:-1]) and lines[-1]["budget_hits"] == 1
    # a corpus of that file alone checks nothing, and is still no usage error
    (tmp_path / "a.lit").unlink()
    assert run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path), "--budget", "10000"]) == 3
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["summary"] == "unknown"


def test_check_rejects_an_expectation_on_a_register_no_outcome_holds(tmp_path, capsys):
    # an outcome holds the registers of the last phase: r is assigned before
    # the crash, q nowhere, and x is a global
    head = "collection px86\nglobals\n  x := alloc()\nprogram\n  t0: store(x, 1); r := load(x)\ncrash\nprogram\n  t1: s := load(x)\n"
    f = tmp_path / "regs.lit"
    for tail, reg in [
        ("expect inconsistent outcome r=1, s=1", "r"),
        ("expect inconsistent outcome q=1", "q"),
        ("expect consistent outcome r=1, s=1", "r"),
        ("expect consistent outcome s=1, x=101", "x"),
    ]:
        f.write_text(head + tail + "\n")
        assert run_cli(["check", str(f)]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: regs.lit: expectation names register {reg}, which no last-phase thread assigns\n"
    f.write_text(head + "expect consistent outcome s=1\n")
    assert run_cli(["check", str(f)]) == 0


def test_bad_budget_flag(capsys):
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--budget", "-5"]) == 2


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "persistcheck.cli", "check", str(LITMUS / "lb.lit")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def test_package_runs_as_module(capsys):
    # ``python -m persistcheck`` from a checkout, with only src/ on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "persistcheck", "check", "litmus/sb.lit", "--json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--json"]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count('"PASS"') == 3


def test_manifest_configures_registry(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"libraries": [{"name": "px86", "budget": 50000}], "unroll": 3}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"libraries": [{"name": "nosuchlib"}]}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(bad)]) == 2


def test_unknown_names_are_reported_unquoted_and_located(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"libraries": ["px86", {"name": "nosuchlib"}]}')
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.lit").write_text("collection nosuch\nprogram\n  t0: r := load(1)\n")
    cases = [
        (["check", str(LITMUS / "sb.lit"), "--manifest", str(bad)], f"manifest {bad}: library 1: unknown spec nosuchlib"),
        (["check", str(LITMUS / "sb.lit"), "--model", "nosuch"], "unknown spec nosuch"),
        (["check", str(LITMUS / "sb.lit"), "--model", "lin:nosuch"], "unknown sequential spec nosuch"),
        (["verify-impl", "nope", "flit", "--over", "px86"], "unknown implementation nope"),
        (["verify-impl", "flit", "nope", "--over", "px86"], "unknown spec nope"),
        (["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(corpus)], "a.lit: unknown spec nosuch"),
    ]
    for args, message in cases:
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_rejects_a_zero_budget(tmp_path, capsys):
    # a zero budget would leave every flit check undecided
    manifest = tmp_path / "m.json"
    manifest.write_text('{"libraries": [{"name": "flit", "budget": 0}]}')
    assert run_cli(["check", str(LITMUS / "flit" / "f1_write_read.lit"), "--manifest", str(manifest)]) == 2
    assert "budget of flit must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [('{"budget": 5}', "library 1 has no name"), ('{"name": 5}', "the name of library 1 must be a string, found 5")],
)
def test_manifest_names_the_library_without_a_name(tmp_path, capsys, entry, message):
    manifest = tmp_path / "m.json"
    manifest.write_text(f'{{"libraries": ["px86", {entry}]}}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: manifest {manifest}: {message}\n"


def test_manifest_rejects_a_zero_unroll(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"libraries": ["px86"], "unroll": 0}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    assert "unroll must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "a manifest must be a JSON object whose libraries and domain are lists"),
        ('{"libraries": 5}', "a manifest must be a JSON object whose libraries and domain are lists"),
        ('{"libraries": ["px86"], "domain": 5}', "a manifest must be a JSON object whose libraries and domain are lists"),
        ('{"libraries": ["px86"], "domain": [[1]]}', "a manifest domain holds integers and null only"),
        ('{"libraries": [5]}', "a manifest library must be a name or an object, found 5"),
        ('{"libraries": ["px86"], "unroll": 2.5}', "manifest unroll must be an integer, found 2.5"),
        ('{"libraries": ["px86"], "unroll": "3"}', "manifest unroll must be an integer, found '3'"),
    ],
)
def test_manifest_of_the_wrong_shape_exit_two(tmp_path, capsys, text, message):
    manifest = tmp_path / "m.json"
    manifest.write_text(text)
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message}\n"


def test_manifest_naming_a_library_twice_exit_two(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"libraries": [{"name": "px86"}, {"name": "px86"}]}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: manifest {manifest}: library 1: library px86 already registered\n"


def test_manifest_naming_a_library_whose_methods_clash_exit_two(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"libraries": ["px86", "scmem"]}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: manifest {manifest}: library 1: method store of scmem clashes with px86\n"


@pytest.mark.parametrize("budget", ['"50000"', "2.9", "true", '"abc"'])
def test_manifest_rejects_a_budget_that_is_not_an_integer(tmp_path, capsys, budget):
    manifest = tmp_path / "m.json"
    manifest.write_text(f'{{"libraries": ["weakreg", {{"name": "px86", "budget": {budget}}}]}}')
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--manifest", str(manifest)]) == 2
    out, err = capsys.readouterr()
    found = repr(json.loads(budget))
    assert not out and err == f"error: manifest {manifest}: the budget of library 1 must be an integer, found {found}\n"


def test_model_named_twice_exit_two(capsys):
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--model", "px86", "--model", "px86"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: library px86 already registered\n"


def test_model_override_flips_sb_verdict(capsys):
    # the weak SB outcome is consistent under px86 but not under SC memory
    assert run_cli(["check", str(LITMUS / "sb.lit")]) == 0
    assert run_cli(["check", str(LITMUS / "sb.lit"), "--model", "scmem"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out  # the r1=0,r2=0 expectation no longer holds


def test_partial_outcome_expectation(tmp_path, capsys):
    # an expectation may constrain a subset of the registers
    f = tmp_path / "partial.lit"
    f.write_text(
        """
collection px86
globals
  x := alloc()
  y := alloc()
program
  t0: store(x, 1); r1 := load(y)
  t1: store(y, 1); r2 := load(x)
expect consistent outcome r1=0
expect inconsistent outcome r1=7
"""
    )
    assert run_cli(["check", str(f)]) == 0


def test_negative_max_crashes_exit_two(capsys):
    # a negative bound used to drop every single-phase corpus file silently
    args = ["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(LITMUS / "flit"), "--max-crashes", "-1"]
    assert run_cli(args) == 2
    assert "max_crashes" in capsys.readouterr().err


def test_each_subcommand_parses_only_the_flags_it_reads(capsys):
    sb = str(LITMUS / "sb.lit")
    verify = ["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(LITMUS / "flit")]
    rejected = [
        ["worked-examples", "--budget", "5"],
        ["worked-examples", "--json"],
        ["check", sb, "--max-events", "5"],
        ["check", sb, "--max-crashes", "0"],
        verify + ["--model", "px86"],
        verify + ["--dot", "x.dot"],
        verify + ["--manifest", "m.json"],
        verify + ["--json"],
        ["check", sb, "--seed", "1"],
        verify + ["--seed", "1"],
    ]
    for args in rejected:
        assert run_cli(args) == 2, args
        assert "unrecognized arguments" in capsys.readouterr().err
