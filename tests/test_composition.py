"""The execution builders of ``model`` on closed rows against the builders
they replaced (``composition_reference``): ``seq_compose`` of two and three
parts with crashes and pending calls, ``history_to_execution`` on histories
with shared threads, crashes and pending calls, ``down_sets``, the lock sw
hook, and ``interpret_phases`` on every litmus file.  Labels, po rows, hb
rows, outcomes and order must all be equal."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import composition_reference as ref
from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig, Prog, interpret_phases, parse_litmus
from persistcheck.libs import _lock_sw_hook, builtin_spec, sc_prune_factory
from persistcheck.model import (
    BOT,
    CRASH,
    CRASH_EV,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Ret,
    down_sets,
    history_to_execution,
    parallel_execution,
    seq_compose,
    sequence_execution,
)

LITMUS = Path(__file__).resolve().parent.parent / "litmus"
SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

DONE = Label("store", (1, 1), None, thread=0)
PENDING = Label("store", (1, 2), BOT, thread=0)


@st.composite
def executions(draw, max_events: int = 5) -> PlainExecution:
    """A plain execution of complete calls, pending calls and crashes, with
    random forward po edges; a pending call gets edges to crashes only."""
    kinds = draw(st.lists(st.sampled_from(["done", "pending", "crash"]), max_size=max_events))
    labels = [
        CRASH if k == "crash" else Label("store", (1, i), None if k == "done" else BOT, thread=draw(st.integers(0, 2)))
        for i, k in enumerate(kinds)
    ]
    n = len(labels)
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (labels[a].is_complete or labels[b].is_crash) and draw(st.booleans())
    ]
    return PlainExecution(labels, edges)


def same_plain(got: PlainExecution, want: PlainExecution) -> None:
    assert got.labels() == want.labels()
    assert got.po_order.rows == want.po_order.rows


@SETTINGS
@example(sequence_execution([PENDING]), sequence_execution([CRASH, DONE]), PlainExecution([], []))
@example(sequence_execution([PENDING]), sequence_execution([DONE]), sequence_execution([CRASH]))
@example(sequence_execution([DONE, CRASH, PENDING]), sequence_execution([DONE]), sequence_execution([CRASH, DONE]))
@given(executions(), executions(), executions())
def test_seq_compose_matches_pair_set_reference(a, b, c):
    same_plain(seq_compose(a, b), ref.seq_compose(a, b))
    same_plain(seq_compose(a, b, c), ref.seq_compose(ref.seq_compose(a, b), c))


@st.composite
def histories(draw) -> History:
    """Invocations, returns and crashes of up to three threads per era, the
    thread ids fresh after each crash; some calls stay pending."""
    events = []
    era = 0
    open_calls = set()
    for step in draw(st.lists(st.sampled_from(["t0", "t1", "t2", "crash"]), max_size=12)):
        if step == "crash":
            events.append(CRASH_EV)
            era += 1
            open_calls = set()
            continue
        t = 10 * era + int(step[1])
        if t in open_calls:
            events.append(Ret(draw(st.integers(0, 2)), t))
            open_calls.discard(t)
        else:
            events.append(Inv(draw(st.sampled_from(["rread", "rwrite"])), (draw(st.integers(0, 1)),), t))
            open_calls.add(t)
    return History(events)


@SETTINGS
@example(History([Inv("a", (), 0), CRASH_EV, Inv("b", (), 1), Ret(1, 1), CRASH_EV, Inv("c", (), 2)]))
@example(History([Inv("a", (), 0), Inv("b", (), 1), Ret(1, 0), Inv("c", (), 0), Ret(2, 1), Ret(3, 0)]))
@given(histories())
def test_history_to_execution_matches_pair_scan_reference(h):
    got, want = history_to_execution(h), ref.history_to_execution(h)
    same_plain(got.plain, want.plain)
    assert got.hb_order.rows == want.hb_order.rows
    assert got.sw == want.sw


@SETTINGS
@given(executions(max_events=6))
def test_down_sets_match_pair_set_reference(g):
    assert down_sets(g) == ref.down_sets(g)


def lacq(thread):
    return Label("lacq", (1,), None, thread=thread)


def lrel(thread):
    return Label("lrel", (1,), None, thread=thread)


@st.composite
def lock_executions(draw) -> PlainExecution:
    """One or two eras of up to two per-thread chains of lock calls, glued
    through a crash; at most six sections per era keep the reference's
    permutations few."""
    parts = []
    for era in range(draw(st.integers(1, 2))):
        chains = draw(st.lists(st.lists(st.booleans(), max_size=3), max_size=2))
        if era:
            parts.append(sequence_execution([CRASH]))
        parts.append(parallel_execution(*([lacq(10 * era + t) if acq else lrel(10 * era + t) for acq in c] for t, c in enumerate(chains))))
    return seq_compose(*parts)


def _acyclic(g: PlainExecution, sw) -> bool:
    try:
        Execution(g, sw)
    except ValueError:
        return False
    return True


@SETTINGS
@example(sequence_execution([lacq(0), lrel(0), lacq(0), lrel(0)]))
@given(lock_executions())
def test_lock_sw_hook_matches_permutation_reference(g):
    # the reference also proposes orders against po, which no execution has
    want = [sw for sw in ref._lock_sw_hook(g) if _acyclic(g, sw)] or [frozenset()]
    assert _lock_sw_hook(g) == want


def _litmus_cases():
    for path in sorted(LITMUS.rglob("*.lit")):
        for complete_only in (False, True):
            yield pytest.param(path, complete_only, id=f"{path.relative_to(LITMUS)}-{'complete' if complete_only else 'all'}")


@pytest.mark.parametrize("path,complete_only", list(_litmus_cases()))
def test_interpret_phases_matches_glue_reference(path, complete_only):
    # a single-phase file is also run with one restart after a crash; with
    # partial runs in both eras only where the file has at most 100 runs,
    # as the runs multiply across the crash (lb.lit: 314 give 90,746)
    lit = parse_litmus(path.read_text(encoding="utf-8"), name=path.name)
    coll = Collection([builtin_spec(name) for name in lit.collection])

    def runs(phases, interpret):
        config = InterpConfig(domain=tuple(lit.domain), unroll=lit.unroll or 4, prune_factory=sc_prune_factory())
        return [(env, g.labels(), g.po_order.rows) for env, g in interpret(phases, coll, config, complete_only=complete_only)]

    phases = list(lit.phases)
    got = runs(phases, interpret_phases)
    assert got == runs(phases, ref.interpret_phases)
    if len(phases) == 1 and (complete_only or len(got) <= 100):
        restarted = [phases[0], Prog(threads=phases[0].threads)]
        assert runs(restarted, interpret_phases) == runs(restarted, ref.interpret_phases)
