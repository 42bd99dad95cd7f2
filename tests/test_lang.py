"""Parser, interpreter, crash-restart semantics, linking, and behaviors."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistcheck.framework as framework
from definitions import interpret, prefix_immediate
from persistcheck.framework import Collection
from persistcheck.lang import (
    Assign,
    Bin,
    CallCmd,
    If,
    InterpConfig,
    LinkError,
    LitmusFile,
    ParseError,
    Prog,
    Reg,
    Return,
    Seq,
    Skip,
    SyntacticImpl,
    Val,
    While,
    behaviors,
    interpret_phases,
    interpret_toplevel,
    link,
    parse_impl,
    parse_litmus,
    parse_statements,
)
from persistcheck.libs import builtin_spec, sc_prune_factory
from persistcheck.px86 import px86_spec

LITMUS = Path(__file__).resolve().parent.parent / "litmus"

PX = Collection([px86_spec()])
CFG = InterpConfig(unroll=4, max_runs=50_000)


def sb_litmus():
    return parse_litmus(
        """
% store buffering
collection px86
globals
  x := alloc()
  y := alloc()
program
  t0: store(x, 1); r1 := load(y)
  t1: store(y, 1); r2 := load(x)
expect consistent outcome r1=0, r2=0
""",
        name="sb",
    )


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def test_parse_single_thread_prog():
    lit = parse_litmus("collection px86\nprogram\n t1: r := load(x)\n")
    assert isinstance(lit, LitmusFile)
    assert lit.phases[0].thread_ids() == [1]
    body = lit.phases[0].threads[1]
    assert body == Seq((CallCmd("r", "load", (Reg("x"),)),))


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        parse_litmus("collection px86\nprogram\n t1: r := := load(x)\n")
    with pytest.raises(ParseError):
        parse_litmus("program\n t1: skip\n")  # missing collection


def test_percent_is_modulo_outside_a_comment_line():
    # a comment is a line whose first non-blank character is %
    lit = parse_litmus("collection px86\n  % a comment\nprogram\n  t0: r := 7 % 4; store(x, r)\n")
    assert lit.phases[0].threads[0] == Seq(
        (Assign("r", Bin("%", Val(7), Val(4))), CallCmd(None, "store", (Reg("x"), Reg("r"))))
    )
    impl = parse_impl("% a comment\nmethod m(a) := r := a % 2\n  % another\n  return r\n")
    assert impl.methods["m"][1] == Seq((Assign("r", Bin("%", Reg("a"), Val(2))), Return(Reg("r"))))


def test_parse_impl_file():
    impl = parse_impl(
        """
impl toy
method twice(a) := r := a + a; return r
method nop() := skip
"""
    )
    assert isinstance(impl, SyntacticImpl)
    assert impl.method_names() == {"twice", "nop"}
    params, body = impl.methods["twice"]
    assert params == ("a",)


def test_parse_expressions_and_control():
    s = parse_statements("if (a >= 2 && !done) { r := min(a, 3) } else { skip }; while (i < 2) { i := i + 1 }")
    assert isinstance(s.cmds[0], If)
    assert isinstance(s.cmds[1], While)
    s2 = parse_statements("r := a - 1")
    assert s2.cmds[0] == Assign("r", Bin("-", Reg("a"), Val(1)))


def test_parse_litmus_phases_and_expectations():
    lit = parse_litmus(
        """
collection px86
globals
  x := alloc()
program
  t0: store(x, 1)
crash
program
  t5: r := load(x)
expect consistent outcome r=1
expect consistent outcome r=0
"""
    )
    assert len(lit.phases) == 2
    assert len(lit.expectations) == 2
    assert lit.expectations[0].outcome == (("r", 1),)


# --------------------------------------------------------------------------
# Interpretation
# --------------------------------------------------------------------------


def test_skip_program_empty_execution():
    prog = Prog(threads={0: Skip()})
    it = interpret(prog, PX, CFG)
    parts = it.partial_executions()
    assert any(g.is_empty() for g in parts)
    completes = it.complete_executions()
    assert len(completes) == 1 and completes[0][1].is_empty()


def test_single_load_enumerates_domain():
    lit = parse_litmus("collection px86\nglobals\n x := alloc()\nprogram\n t0: r := load(x)\n")
    it = interpret(lit.phases[0], PX, CFG)
    rets = {env["r"] for env, g in it.complete_executions()}
    # literals of the program ∪ {0, null} ∪ allocated locations
    assert 0 in rets and None in rets
    assert any(isinstance(v, int) and v > 100 for v in rets)


def test_while_true_never_returns():
    prog = Prog(threads={0: While(Val(1), Skip())})
    it = interpret(prog, PX, CFG)
    assert it.complete_executions() == []
    assert it.partial_executions()  # prefixes only


def test_per_thread_po_total():
    lit = sb_litmus()
    it = interpret(lit.phases[0], PX, CFG)
    env, g = it.complete_executions()[0]
    for t in (0, 1):
        evs = [e for e in g.events if g.lab[e].thread == t]
        for i, a in enumerate(evs):
            for b in evs[i + 1 :]:
                assert (a, b) in g.po or (b, a) in g.po


def test_partial_executions_prefix_closed():
    # removing the last event of any thread from a member of ⟦P⟧^⊥ yields
    # another member (downward closure)
    lit = parse_litmus("collection px86\nglobals\n x := alloc()\nprogram\n t0: store(x, 1); r := load(x)\n")
    it = interpret(lit.phases[0], PX, CFG)
    parts = it.partial_executions()
    traces = {tuple(repr(l) for l in g.labels()) for g in parts}
    for g in parts:
        th_events = [e for e in g.events if g.lab[e].thread == 0]
        if th_events:
            shorter = g.restrict_events(set(g.events) - {th_events[-1]})
            assert tuple(repr(l) for l in shorter.labels()) in traces


def test_toplevel_no_crash_is_plain_semantics():
    prog = Prog(threads={0: Skip()})
    runs = interpret_toplevel(prog, PX, max_crashes=0, config=CFG)
    assert all(g.crash_events() == [] for _, g in runs)


def test_toplevel_one_crash_trivial_program():
    prog = Prog(threads={0: Skip()})
    runs = interpret_toplevel(prog, PX, max_crashes=1, config=CFG)
    # ε · Crash · ε is present
    assert any(len(g) == 1 and g.lab[0].is_crash for _, g in runs)


def test_toplevel_counts_match_hand_enumeration():
    # two stores, one crash: 5 pre-crash cuts x (1 complete + 5 partial) runs
    text = "collection px86\nprogram\n t0: store(7, 1); store(7, 2)\n"
    prog = parse_litmus(text).phases[0]
    runs = interpret_toplevel(prog, PX, max_crashes=1, config=CFG)
    assert len(runs) == 30


def test_phases_share_globals_without_reinit():
    lit = parse_litmus(
        """
collection px86
globals
  x := alloc()
program
  t0: store(x, 1)
crash
program
  t5: r := load(x)
"""
    )
    runs = interpret_phases(list(lit.phases), PX, CFG)
    # phase 2 executions contain no second alloc/init of x
    for env, g in runs:
        allocs = [e for e in g.events if g.lab[e].method == "alloc"]
        assert len(allocs) <= 1


@pytest.mark.parametrize(
    "lib, init, body, want",
    [
        # the queue allocated once survives the crash, so the re-run pop can
        # see the push of the era before (it used to give no outcome at all)
        ("durqueue", "q := qnew()", "r := qpop(q); qpush(q, 1)", {None, 1}),
        # a persisted write is read back after the crash (a re-run rnew or
        # alloc used to reset the location to 0)
        ("weakreg", "x := rnew()", "r := rread(x); rwrite(x, 1); pfence()", {0, 1}),
        ("px86", "x := alloc()", "r := load(x); store(x, 1); flush(x)", {0, 1}),
    ],
)
def test_toplevel_crash_keeps_globals(lib, init, body, want):
    text = f"collection {lib}\nglobals\n {init}\nprogram\n t0: {body}\n"
    prog = parse_litmus(text).phases[0]
    coll = Collection([builtin_spec(lib)])
    got = behaviors(prog, coll, max_crashes=1, outcome_regs=["r"])
    assert {dict(o)["r"] for o in got} == want
    for _, g in interpret_toplevel(prog, coll, max_crashes=1, config=CFG):
        assert sum(1 for l in g.labels() if l.method in ("qnew", "rnew", "alloc")) <= 1


@pytest.mark.parametrize("lib, new", [("mmcounter", "mmnew"), ("flit", "fnew")])
def test_constructor_gets_every_cell_its_interface_names(lib, new):
    # both constructors own two cells, so the second allocation starts at 103
    from persistcheck.framework import check_encapsulated

    deps = {"mmcounter": "ltrans", "flit": "px86"}
    prog = parse_litmus(f"collection {lib} {deps[lib]}\nprogram\n t0: a := {new}(); b := {new}()\n").phases[0]
    coll = Collection([builtin_spec(deps[lib]), builtin_spec(lib)])
    complete = [(env, g) for env, g in interpret_toplevel(prog, coll, 0, CFG) if env is not None]
    assert [env for env, _ in complete] == [{"a": 101, "b": 103}]
    assert check_encapsulated(coll, complete[0][1])


def test_two_counters_bind_to_their_implementation():
    from persistcheck.libs import mmcounter_impl
    from persistcheck.substitution import SemanticImpl, exec_bind

    prog = parse_litmus("collection mmcounter ltrans\nprogram\n t0: a := mmnew(); b := mmnew()\n").phases[0]
    coll = Collection([builtin_spec("ltrans"), builtin_spec("mmcounter")])
    impl = SemanticImpl(mmcounter_impl(), Collection([builtin_spec("ltrans")]), CFG)
    (g,) = [g for env, g in interpret_toplevel(prog, coll, 0, CFG) if env is not None]
    assert exec_bind(g, impl)


# --------------------------------------------------------------------------
# Linking
# --------------------------------------------------------------------------


def toy_impl():
    return SyntacticImpl(
        name="toy",
        methods={
            "m": ((), Skip()),
            "double": (("a",), Seq((Return(Bin("+", Reg("a"), Reg("a"))),))),
        },
    )


def test_link_replaces_call_with_body():
    prog = Prog(threads={0: Seq((CallCmd(None, "m", ()),))})
    linked = link(prog, toy_impl())
    from persistcheck.lang import _methods_called

    assert "m" not in _methods_called(linked.threads[0])


def test_link_return_value_wiring():
    prog = Prog(threads={0: Seq((CallCmd("r", "double", (Val(21),)),))})
    linked = link(prog, toy_impl())
    it = interpret(linked, PX, CFG)
    (env, g), = it.complete_executions()
    assert env["r"] == 42 and g.is_empty()


def test_link_rejects_recursion():
    rec = SyntacticImpl(
        name="rec",
        methods={"m": ((), Seq((CallCmd(None, "m", ()),)))},
    )
    prog = Prog(threads={0: Seq((CallCmd(None, "m", ()),))})
    with pytest.raises(LinkError):
        link(prog, rec)


_LINK_PFLIT = """
from persistcheck.lang import CallCmd, LinkError, Prog, Seq, link
from persistcheck.libs import flit_impl, persistify_flit
try:
    link(Prog(threads={0: Seq((CallCmd(None, "fnew", ()),))}), persistify_flit(flit_impl()))
except LinkError as e:
    print(e)
"""


def test_link_recursion_error_is_independent_of_hash_seed():
    # p(flit) appends the finish-op to every method, ffinish included, and
    # maps store to fwrite_p inside fwrite_p: the cycle reported is the
    # first one met in sorted method order, whatever the set order
    src = str(Path(__file__).resolve().parent.parent / "src")
    messages = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _LINK_PFLIT], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        messages.append(proc.stdout)
    assert messages[0] == messages[1] == "recursive implementation through ffinish\n"


def test_link_arity_mismatch():
    prog = Prog(threads={0: Seq((CallCmd("r", "double", ()),))})
    from persistcheck.lang import ArityMismatch

    with pytest.raises(ArityMismatch):
        link(prog, toy_impl())


def test_link_associativity_probe():
    # (P · I1) · I2 equals P · (I1 flattened with I2) as semantics: compare
    # interpreted outcomes
    i1 = SyntacticImpl(name="i1", methods={"f": (("a",), Seq((CallCmd("r", "g", (Reg("a"),)), Return(Reg("r")))))})
    i2 = SyntacticImpl(name="i2", methods={"g": (("b",), Seq((Return(Bin("+", Reg("b"), Val(1))),)))})
    prog = Prog(threads={0: Seq((CallCmd("out", "f", (Val(5),)),))})
    left = link(link(prog, i1), i2)
    it = interpret(left, PX, CFG)
    (env, g), = it.complete_executions()
    assert env["out"] == 6


def test_return_inside_while_inlines_correctly():
    # method: while (1) { if (a > 0) { return a }; a := a + 1 }
    body = While(Val(1), Seq((If(Bin(">", Reg("a"), Val(0)), Seq((Return(Reg("a")),)), Skip()), Assign("a", Bin("+", Reg("a"), Val(1))))))
    impl = SyntacticImpl(name="loopy", methods={"first_pos": (("a",), body)})
    prog = Prog(threads={0: Seq((CallCmd("r", "first_pos", (Val(0),)),))})
    linked = link(prog, impl)
    it = interpret(linked, PX, CFG)
    vals = {env["r"] for env, g in it.complete_executions()}
    assert vals == {1}


# --------------------------------------------------------------------------
# Behaviors
# --------------------------------------------------------------------------


def test_behaviors_store_then_load():
    lit = parse_litmus(
        "collection px86\nglobals\n x := alloc()\nprogram\n t0: store(x, 1); r := load(x)\n"
    )
    outs = behaviors(list(lit.phases), PX, config=CFG, outcome_regs=["r"])
    assert outs == {(("r", 1),)}


def test_behaviors_empty_program():
    prog = Prog(threads={0: Skip()})
    outs = behaviors(prog, PX, config=CFG, outcome_regs=[])
    assert outs == {()}


def test_behaviors_sb_includes_00():
    lit = sb_litmus()
    outs = behaviors(list(lit.phases), PX, config=CFG, outcome_regs=["r1", "r2"])
    assert (("r1", 0), ("r2", 0)) in outs
    assert (("r1", 1), ("r2", 1)) in outs
    assert (("r1", 0), ("r2", 1)) in outs


# --------------------------------------------------------------------------
# Sourced runs (declared value flow)
# --------------------------------------------------------------------------


def _without_value_flow(spec):
    return dataclasses.replace(spec, interface=dataclasses.replace(spec.interface, value_flow=None))


PX_UNSOURCED = Collection([_without_value_flow(px86_spec())])


def _litmus_runs(name, coll, complete_only):
    lit = parse_litmus((LITMUS / name).read_text())
    cfg = InterpConfig(domain=lit.domain, unroll=4, max_runs=50_000)
    return interpret_phases(list(lit.phases), coll, cfg, complete_only=complete_only)


def _same_runs(a, b):
    return [(env, g.labels(), g.po_reduced) for env, g in a] == [(env, g.labels(), g.po_reduced) for env, g in b]


def test_iriw_builds_only_sourced_runs():
    assert len(_litmus_runs("iriw.lit", PX, complete_only=True)) == 16
    assert len(_litmus_runs("iriw.lit", PX_UNSOURCED, complete_only=True)) == 625
    everything = _litmus_runs("iriw.lit", PX, complete_only=False)
    assert sum(1 for env, _ in everything if env is not None) == 625
    assert _same_runs(everything, _litmus_runs("iriw.lit", PX_UNSOURCED, complete_only=False))


def test_sourced_runs_are_the_sourced_subsequence():
    # on a crash file, complete_only keeps exactly the runs whose reads are
    # sourced, in the order the undeclared interpretation gives them
    from persistcheck.lang import ValueFlow

    flow = ValueFlow(PX)
    kept = _litmus_runs("crash_flush.lit", PX, complete_only=True)
    every = _litmus_runs("crash_flush.lit", PX_UNSOURCED, complete_only=True)
    assert _same_runs(kept, [(env, g) for env, g in every if flow.sourced(g.labels())])
    assert 0 < len(kept) < len(every)


def test_corpus_runs_do_not_depend_on_value_flow():
    # the flit corpus and the verify-impl corpora are built without
    # complete_only, so the declaration must not touch them
    for p in sorted((LITMUS / "flit").glob("*.lit")):
        lit = parse_litmus(p.read_text())
        names = [n for n in lit.collection]
        with_flow = Collection([builtin_spec(n) for n in names] + [px86_spec()] * ("px86" not in names))
        without = Collection(
            [builtin_spec(n) for n in names] + [_without_value_flow(px86_spec())] * ("px86" not in names)
        )
        cfg = InterpConfig(domain=tuple(lit.domain) + (0, 1), unroll=2, max_runs=50_000)
        assert _same_runs(interpret_phases(list(lit.phases), with_flow, cfg), interpret_phases(list(lit.phases), without, cfg))
        for crashes in (0, 1):
            a = interpret_toplevel(lit.phases[0], with_flow, crashes, cfg)
            assert _same_runs(a, interpret_toplevel(lit.phases[0], without, crashes, cfg))


def test_scmem_declares_no_value_flow():
    # scmem loads 0 from a location nothing wrote, which a declared value
    # flow would drop
    spec = builtin_spec("scmem")
    assert spec.interface.value_flow is None
    prog = parse_litmus("collection scmem\nprogram\n t0: r := load(7)\n").phases[0]
    assert behaviors(prog, Collection([spec]), outcome_regs=["r"]) == {(("r", 0),)}
    assert behaviors(prog, PX, outcome_regs=["r"]) == set()


_FLOW_READS = ["{r} := load(x)", "{r} := load(y)", "{r} := faa(x, 1)", "{r} := cas(x, 0, 1)"]
_FLOW_OPS = _FLOW_READS + ["store(x, 1)", "store(y, 1)", "flush(x)"]


@st.composite
def _px86_programs(draw):
    """0-1 crash, 1-3 threads in all over locations x and y, 1-2 calls per
    thread and at most four in all; thread ids and registers are distinct
    across the phases."""
    crashes = draw(st.integers(0, 1))
    phases = []
    tid = calls = 0
    for i in range(crashes + 1):
        threads = []
        for _ in range(draw(st.integers(1, 3 - tid - (crashes - i)))):
            body = draw(st.lists(st.sampled_from(_FLOW_OPS), min_size=1, max_size=min(2, 4 - calls))) if calls < 4 else ["skip"]
            threads.append(f"  t{tid}: " + "; ".join(op.format(r=f"r{calls + j}") for j, op in enumerate(body)))
            calls += len(body)
            tid += 1
        phases.append("program\n" + "\n".join(threads))
    return "collection px86\nglobals\n  x := alloc()\n  y := alloc()\n" + "\ncrash\n".join(phases) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_px86_programs())
@example("collection px86\nglobals\n  x := alloc()\nprogram\n  t0: r0 := load(x)\ncrash\nprogram\n  t1: store(x, 1)\n")
@example("collection px86\nglobals\n  x := alloc()\nprogram\n  t0: store(x, 1); flush(x)\ncrash\nprogram\n  t1: r0 := cas(x, 1, 0); r1 := load(x)\n")
def test_sourced_behaviors_differential(text):
    # dropping unsourced runs changes no justified or undecided outcome
    phases = list(parse_litmus(text).phases)
    got = behaviors(phases, PX, config=CFG)
    want = behaviors(phases, PX_UNSOURCED, config=CFG)
    assert got == want
    assert got.undecided == want.undecided


# --------------------------------------------------------------------------
# Shared consistency verdicts
# --------------------------------------------------------------------------


def _witness_key(x):
    return x.plain.labels(), x.plain.po_order.rows, sorted(x.sw), x.hb_order.rows


@pytest.mark.parametrize("path", sorted(LITMUS.rglob("*.lit")), ids=lambda p: str(p.relative_to(LITMUS)))
def test_behaviors_equal_with_and_without_shared_verdicts(path, monkeypatch):
    # the call ``persistcheck check`` makes, with the CLI's default budget
    lit = parse_litmus(path.read_text(encoding="utf-8"), name=path.name)
    coll = Collection([builtin_spec(n, budget=100_000) for n in lit.collection])
    cfg = InterpConfig(domain=tuple(lit.domain), unroll=lit.unroll or 4, max_runs=100_000, prune_factory=sc_prune_factory())
    regs = sorted({r for ex in lit.expectations if ex.outcome for r, _ in ex.outcome})

    def run():
        out = behaviors(list(lit.phases), coll, config=cfg, outcome_regs=regs, budget=100_000)
        return set(out), out.undecided, {o: _witness_key(x) for o, x in out.witness.items()}

    shared = run()
    monkeypatch.setattr(framework, "check_consistent", framework._check_consistent)
    assert shared == run()
