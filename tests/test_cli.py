"""CLI subcommands: exit codes, determinism, report shape."""

import json
import os
import subprocess
import sys
from pathlib import Path


from persistcheck.cli import main
from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig

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


def test_verify_impl_empty_corpus(tmp_path, capsys):
    assert (
        run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path)])
        == 2
    )


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


def test_verify_impl_out_of_budget_is_unknown(tmp_path, capsys):
    # at budget 3 every matching search runs out: no verdict, not a
    # counterexample
    (tmp_path / "a.lit").write_text(
        """
collection flit
globals
  l := fnew()
program
  t0: fwrite_p(l, 1); r := fread_p(l)
"""
    )
    code = run_cli(["verify-impl", "flit", "flit", "--over", "px86", "--corpus", str(tmp_path), "--budget", "3"])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert code == 3
    assert summary["summary"] == "unknown"
    assert summary["budget_hits"] == summary["records"] > 0
    assert all(json.loads(line)["undecided"] for line in lines[:-1])


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
