"""Build each execution once and search it once.

Restrictions that keep every event return their input, a hereditary chain
builds its executions only when read, and inside a ``shared_verdicts`` scope
a Px86 witness search runs once per exact execution, shared by the sw hook
and the consistency check.  The differential tests run the same checks with
the shared search replaced by a plain one; every result must agree.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistcheck.cli as cli
import persistcheck.framework as framework
import persistcheck.px86 as px86
import persistcheck.substitution as sub
from persistcheck.framework import Collection, check_consistent, check_hereditarily_consistent, shared_verdicts
from persistcheck.lang import candidate_refinements, candidate_sw_sets
from persistcheck.libs import flit_impl, flit_impl_mutated_no_fo, flit_spec
from persistcheck.model import (
    CRASH,
    Execution,
    Label,
    PlainExecution,
    anonymize,
    parallel_execution,
    restrict,
    seq_compose,
    sequence_execution,
    star,
)
from persistcheck.px86 import alloc, load, px86_consistent, px86_spec, search_px86_witness, store
from persistcheck.substitution import SemanticImpl
from test_substitution import FLIT_CFG, _litmus_corpus

ROOT = Path(__file__).resolve().parent.parent
LITMUS_FILES = sorted((ROOT / "litmus").rglob("*.lit"))
X = 1


def _unshared_call(key, compute):
    """``framework.shared_call`` without the memo."""
    return compute()


def _exact(x):
    return (tuple(x.plain.labels()), x.plain.po_order.rows, tuple(sorted(x.sw)), x.hb_order.rows)


def _log_hereditary(monkeypatch, module, log):
    """Record status, reason and chain subsets of every hereditary verdict
    computed through ``module``."""
    check = framework.check_hereditarily_consistent

    def logged(coll, x, budget=10_000):
        v = check(coll, x, budget=budget)
        log.append((v.status, v.reason, v.witness.subsets if v else None))
        return v

    monkeypatch.setattr(module, "check_hereditarily_consistent", logged)


# --------------------------------------------------------------------------
# Shared search against a plain one
# --------------------------------------------------------------------------


@pytest.mark.parametrize("path", LITMUS_FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_shared_search_matches_plain_search_on_litmus_behaviors(path, monkeypatch):
    behaviors = cli.behaviors

    def run():
        log, seen = [], []

        def recorded(*args, **kwargs):
            out = behaviors(*args, **kwargs)
            witnesses = {o: _exact(x) for o, x in out.witness.items()}
            seen.append((sorted(out), sorted(out.undecided), sorted(witnesses.items())))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(cli, "behaviors", recorded)
            _log_hereditary(mp, framework, log)
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = cli.cmd_check(str(path), cli.RunConfig(json_out=True))
        return code, text.getvalue(), seen, log

    shared = run()
    monkeypatch.setattr(px86, "shared_call", _unshared_call)
    assert shared == run()
    assert shared[2] and shared[3]


@pytest.mark.parametrize("make", [flit_impl, flit_impl_mutated_no_fo])
def test_shared_search_matches_plain_search_on_flit_verification(make, monkeypatch):
    corpus = _litmus_corpus("flit", 8, 40)
    px, high = Collection([px86_spec()]), Collection([flit_spec()])

    def run():
        log = []
        with monkeypatch.context() as mp:
            _log_hereditary(mp, sub, log)
            report = sub.verify_impl_bounded(SemanticImpl(make(), px, FLIT_CFG), high, px, corpus, budget=20_000)
        return [vars(r) for r in report.records], report.budget_hits, report.bound_note, log

    shared = run()
    monkeypatch.setattr(px86, "shared_call", _unshared_call)
    assert shared == run()
    assert len(shared[0]) > 40 and any(status == "consistent" for status, _, _ in shared[3])


def test_a_flit_verification_searches_each_exact_execution_once(monkeypatch):
    corpus = _litmus_corpus("flit", 8, 40)
    px, high = Collection([px86_spec()]), Collection([flit_spec()])
    for make in (flit_impl, flit_impl_mutated_no_fo):
        searched = {}

        def counted(x, budget=200_000, stats=None):
            labels, po, _, hb = _exact(x)
            searched[labels, po, hb] = searched.get((labels, po, hb), 0) + 1
            return search_px86_witness(x, budget, stats)

        monkeypatch.setattr(px86, "search_px86_witness", counted)
        sub.verify_impl_bounded(SemanticImpl(make(), px, FLIT_CFG), high, px, corpus, budget=20_000)
        assert searched and max(searched.values()) == 1


# --------------------------------------------------------------------------
# Reuse is bounded by the consumer's budget
# --------------------------------------------------------------------------


def _three_writers(*reads):
    """Three threads store 1, 2 and 3 to one location that a fourth reads."""
    init = sequence_execution([alloc(X, thread=9), store(X, 0, thread=9)])
    writers = [[store(X, v, thread=t)] for t, v in enumerate((1, 2, 3))]
    return seq_compose(init, parallel_execution(*writers, [load(X, v, thread=3) for v in reads]))


def test_a_hook_search_longer_than_the_spec_budget_is_not_reused(monkeypatch):
    g = _three_writers(3, 1, 2)
    stats = {}
    assert search_px86_witness(Execution(g), 20_000, stats) is not None
    steps = stats["steps"]  # six: more than the two registration spends
    calls = []

    def counted(*args):
        calls.append(args[1])
        return search_px86_witness(*args)

    monkeypatch.setattr(px86, "search_px86_witness", counted)
    short = Collection([px86_spec(budget=steps - 1)])
    assert check_consistent(short, Execution(g)).is_budget
    with shared_verdicts():
        # the hook completes its search at 20,000 steps and proposes an sw set
        assert len(candidate_sw_sets(short, g)) == 2
        assert check_consistent(short, Execution(g)).is_budget
        for x in candidate_refinements(short, g):
            assert check_hereditarily_consistent(short, x).is_budget
    # a budget that covers the recorded steps reuses the hook's search
    exact = Collection([px86_spec(budget=steps)])
    calls.clear()
    with shared_verdicts():
        candidate_sw_sets(exact, g)
        assert check_consistent(exact, Execution(g))
    assert calls == [20_000]


def test_a_kept_search_longer_than_a_later_budget_gives_that_budget_verdict(monkeypatch):
    # the check comes first here, the hook's order above reversed
    x = Execution(_three_writers(3, 1, 2))
    steps = dict(px86_consistent(x, 20_000).stats)["steps"]
    fresh = px86_consistent(x, steps - 1)
    assert fresh.is_budget
    calls = []

    def counted(*args):
        calls.append(args[1])
        return search_px86_witness(*args)

    monkeypatch.setattr(px86, "search_px86_witness", counted)
    with shared_verdicts():
        assert px86_consistent(x, 20_000)
        short = px86_consistent(x, steps - 1)
    assert (short.status, short.stats) == (fresh.status, fresh.stats)
    assert calls == [20_000]


def test_px86_verdicts_carry_the_steps_of_the_search_they_reuse():
    found, refuted = _three_writers(3, 1, 2), _three_writers(1, 2, 1)
    alone = [px86_consistent(Execution(g)) for g in (found, refuted)]
    assert [v.status for v in alone] == ["consistent", "inconsistent"]
    assert [dict(v.stats) for v in alone] == [
        {"stage": "px86 witness search", "steps": 6},
        {"stage": "px86 witness search", "steps": 7},
    ]
    coll = Collection([px86_spec()])
    with shared_verdicts():
        for g in (found, refuted):
            candidate_sw_sets(coll, g)
        reused = [px86_consistent(Execution(g)) for g in (found, refuted)]
    assert reused == alone


# --------------------------------------------------------------------------
# Restrictions that change nothing, and chains built on demand
# --------------------------------------------------------------------------

OWNED = frozenset({"a", "b"})


def _owns(l):
    return l.method in OWNED


@st.composite
def _mixed_executions(draw):
    """Calls of two libraries (``a``, ``b`` and ``c``), some tagged, and
    crashes; random po, sw and extra hb edges."""
    n = draw(st.integers(0, 7))
    labels = []
    for _ in range(n):
        method = draw(st.sampled_from(["a", "b", "c", None]))
        if method is None:
            labels.append(CRASH)
        else:
            tags = frozenset(draw(st.sets(st.sampled_from("PT"), max_size=1)))
            labels.append(Label(method, (), None, tags, draw(st.integers(0, 1))))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    po = [e for e in pairs if draw(st.integers(0, 2)) == 0]
    sw = [e for e in pairs if draw(st.integers(0, 4)) == 0]
    extra = [e for e in pairs if draw(st.integers(0, 5)) == 0]
    return Execution(PlainExecution(labels, po), sw, set(po) | set(sw) | set(extra))


def _rebuild(x, keep, relabel=None):
    """The restriction as built before it could return its input."""
    idx = {old: new for new, old in enumerate(keep)}
    labels = [(relabel or {}).get(e, x.lab[e]) for e in keep]
    sw = [(idx[a], idx[b]) for a, b in x.sw if a in idx and b in idx]
    plain = PlainExecution(labels, x.plain.po_order.restrict(keep))
    return Execution(plain, sw, x.hb_order.restrict(keep))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed_executions(), st.data())
def test_restrictions_return_their_input_exactly_when_nothing_changes(x, data):
    owned = [e for e in x.events if x.lab[e].is_crash or _owns(x.lab[e])]
    got = restrict(x, _owns)
    assert (got is x) == (owned == list(x.events))
    assert _exact(got) == _exact(_rebuild(x, owned))

    tagged = {e: star(x.lab[e].tags, x.lab[e].thread) for e in x.events if e not in owned and x.lab[e].tags}
    kept = sorted(set(owned) | set(tagged))
    got = anonymize(_owns, x)
    assert (got is x) == (kept == list(x.events) and not tagged)
    assert _exact(got) == _exact(_rebuild(x, kept, tagged))

    keep = sorted(data.draw(st.sets(st.sampled_from(x.events))) if x.events else [])
    whole = keep == list(x.events)
    got = x.restrict_events(keep)
    assert (got is x) == whole and _exact(got) == _exact(_rebuild(x, keep))
    plain = x.plain.restrict_events(keep)
    assert (plain is x.plain) == whole and plain.labels() == got.plain.labels()
    assert plain.po_order.rows == got.plain.po_order.rows


def test_a_hereditary_chain_is_built_only_when_read(monkeypatch):
    x = Execution(_three_writers(3, 1, 2))
    v = check_hereditarily_consistent(Collection([px86_spec()]), x)
    assert v and len(v.witness.subsets) == len(x) + 1 and "chain" not in vars(v.witness)
    built = []
    restrict_events = Execution.restrict_events

    def counted(self, keep):
        built.append(sorted(keep))
        return restrict_events(self, keep)

    monkeypatch.setattr(Execution, "restrict_events", counted)
    subsets = v.witness.subsets
    assert built == []
    chain = v.witness.chain
    assert built == [sorted(s) for s in subsets] and v.witness.chain is chain
    assert [_exact(c) for c in chain] == [_exact(restrict_events(x, s)) for s in subsets]
    assert [len(c) for c in v.witness] == [len(s) for s in subsets]


def test_a_flit_verification_builds_no_chain(monkeypatch):
    def unread(self):
        raise AssertionError("a hereditary chain was built")

    monkeypatch.setattr(framework.HereditaryChain, "chain", property(unread))
    px = Collection([px86_spec()])
    impl = SemanticImpl(flit_impl(), px, FLIT_CFG)
    report = sub.verify_impl_bounded(impl, Collection([flit_spec()]), px, _litmus_corpus("flit", 8, 12), budget=20_000)
    assert any(r.lifted for r in report.records)
