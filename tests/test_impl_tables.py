"""One table of interpretations and one of blocks per implementation.

``SemanticImpl`` keeps per (method, args, location base) the body's
interpretation, or the stats of the ``BudgetExceeded`` it raised, and per
label and base the members as the bind places them (``blocks``).  Its
membership test ``_contains`` reads the blocks' labels.  The differential
tests run it against the implementation it replaced
(``semantic_impl_reference``), which kept graphs per label and base,
complete runs by return value, interpretations, exhausted runs and
members' label sequences in five caches: on every (label, base) the bind
asks for, both must give the same executions, the same blocks and the same
membership answers, and run out of runs alike.

``exec_bind`` first walks the events in id order, keeping the bases that
some choice of blocks reaches.  A graph with an event that has no block at
any of them binds to nothing, and no choice is enumerated.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

import semantic_impl_reference as ref
from persistcheck.framework import BudgetExceeded, Collection
from persistcheck.lang import InterpConfig, interpret_toplevel, parse_litmus
from persistcheck.libs import flit_impl, flit_impl_mutated_no_fo, mirror_impl, mirror_spec, px86_spec
from persistcheck.model import Label, PlainExecution
from persistcheck.substitution import SemanticImpl, exec_bind
from test_substitution import _crash_corpus

PX = Collection([px86_spec()])
#: the implementation config ``verify-impl`` runs with at its defaults
CLI_CFG = InterpConfig(unroll=4, max_runs=100_000)

MIRROR_CORPUS = """
collection mirror
globals
  l := mnew()
program
  t0: c := mcas(l, 0, 1); r := mrd(l)
"""


@lru_cache(maxsize=None)
def _flit_corpus():
    return tuple(g for crashes in range(3) for g in _crash_corpus("flit", crashes))


def _mirror_corpus():
    lit = parse_litmus(MIRROR_CORPUS, name="mirror.lit")
    runs = interpret_toplevel(lit.phases[0], Collection([mirror_spec()]), 0, InterpConfig(unroll=4, max_runs=100_000))
    return [g for env, g in runs if env is not None]


#: name -> (implementation, its config, corpus)
CASES = {
    "flit": (flit_impl, CLI_CFG, _flit_corpus),
    "flit_no_fo": (flit_impl_mutated_no_fo, CLI_CFG, _flit_corpus),
    # at unroll 4, interpreting mcas runs out of runs
    "mirror": (mirror_impl, InterpConfig(unroll=2, max_runs=100_000), _mirror_corpus),
}


def _asked(make, cfg, corpus):
    """Every (label without its thread, base) that ``exec_bind`` asks the
    implementation's blocks of over ``corpus``, in order of first asking.
    Without a ``BudgetExceeded``, the bind's first pass asks at every base
    that a choice reaches, so this holds every key the bind before the pass
    asked for."""
    impl = SemanticImpl(make(), PX, cfg)
    asked = {}
    blocks = impl.blocks

    def spy(label, base):
        asked[replace(label, thread=None), base] = None
        return blocks(label, base)

    impl.blocks = spy
    for g in corpus:
        exec_bind(g, impl, max_results=65)
    return list(asked)


def _run(f, *args):
    try:
        return f(*args)
    except BudgetExceeded as e:
        return ("budget", e.stats)


def _graph(g):
    return g.lab, g.po_order.rows


def _block(b):
    labels = b.labels if hasattr(b, "labels") else tuple(b._labels)
    return b.rows, b.allocs, b.writes, b.needs, b.ctors, b.uses, b.owned, labels, b.on(3)


@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_match_the_five_caches(case):
    make, cfg, corpus = CASES[case]
    asked = _asked(make, cfg, corpus())
    assert asked
    new, old = SemanticImpl(make(), PX, cfg), ref.SemanticImpl(make(), PX, cfg)
    members = {}
    for label, base in asked:
        got = new.executions(label, base)
        assert [_graph(g) for g in got] == [_graph(g) for g in old.executions(label, base)]
        blocks = new.blocks(replace(label, thread=0), base)
        assert [_block(b) for b in blocks] == [_block(b) for b in old.blocks(replace(label, thread=0), base)]
        assert [b.labels for b in blocks] == [g.lab for g in got]
        members.setdefault((label.method, label.args, base), []).extend(b.labels for b in blocks)
    # members of a call, and members of the same call returning another
    # value, with threads set or not: every one where a call has few, an
    # even spread of 60 where it has hundreds (mirror's mcas)
    answers = []
    for label, base in asked:
        seqs = members[label.method, label.args, base]
        for labels in seqs[:: max(1, len(seqs) // 60)]:
            for call in (label, replace(label, thread=3)):
                for seq in (labels, [replace(l, thread=None) if l.is_call else l for l in labels]):
                    want = old._contains(call, seq)
                    assert new._contains(call, seq) == want
                    answers.append(want)
    assert True in answers
    assert False in answers or case == "mirror"


@pytest.mark.parametrize("max_runs", [1, 3, 8])
def test_tables_run_out_of_runs_as_the_five_caches_did(max_runs):
    cfg = InterpConfig(unroll=4, max_runs=max_runs)
    asked = _asked(flit_impl, CLI_CFG, _flit_corpus()[:40])
    new, old = SemanticImpl(flit_impl(), PX, cfg), ref.SemanticImpl(flit_impl(), PX, cfg)
    interpreted = []
    interpret = new._interpret
    new._interpret = lambda *key: interpreted.append(key) or interpret(*key)
    outcomes = []
    for _ in range(2):  # asked again, a kept budget verdict is raised again
        for label, base in asked:
            got = _run(new.executions, label, base)
            want = _run(old.executions, label, base)
            if isinstance(want, list):
                got, want = [_graph(g) for g in got], [_graph(g) for g in want]
            assert got == want
            outcomes.append(isinstance(want, tuple))
            assert _run(lambda: [_block(b) for b in new.blocks(label, base)]) == _run(
                lambda: [_block(b) for b in old.blocks(label, base)]
            )
    assert True in outcomes
    assert len(interpreted) == len(set(interpreted))


def test_each_interpretation_is_kept_once():
    impl = SemanticImpl(flit_impl(), PX, CLI_CFG)
    for ret in (0, 1, None):
        impl.blocks(Label("fread_p", (101,), ret, thread=ret), 102)
    assert list(impl._runs) == [("fread_p", (101,), 102)]
    assert len(impl._blocks) == 3
    assert sum(isinstance(v, dict) for v in vars(impl).values()) <= 3


def test_bind_with_an_event_of_no_member_enumerates_no_choice():
    # each fread_p has 3 members at base 102, and the last event reads a
    # value the body cannot load: choices would ask the blocks 3^k times
    impl = SemanticImpl(flit_impl(), PX, InterpConfig(domain=(0, 1), unroll=2))
    labels = [Label("fnew", (), 101, thread=0)] + [Label("fread_p", (101,), 0, thread=0)] * 5
    labels += [Label("fread_p", (101,), 7, thread=0)]
    g = PlainExecution(labels, [(i, i + 1) for i in range(len(labels) - 1)])
    calls = []
    blocks = impl.blocks

    def spy(label, base):
        calls.append((label, base))
        return blocks(label, base)

    impl.blocks = spy
    assert len(blocks(labels[1], 102)) == 3
    facts = []
    assert exec_bind(g, impl, facts=facts) == [] and facts == []
    assert len(calls) <= len(labels)
    # the same graph without its last event binds to every choice
    h = g.restrict_events(range(len(labels) - 1))
    assert len(exec_bind(h, impl)) == 3**5
