"""Build only the projections a predicate or hook reads.

``check_consistent`` cuts each library's restriction from its one owner
pass and anonymizes only for a global predicate of the library's own,
``check_immediately_wellformed`` restricts and anonymizes only for
well-formedness predicates of the library's own, ``candidate_sw_sets`` skips
the default sw hook, and ``Execution.restrict_events`` restricts hb only when
it is not po.  The differential tests run the checks against the code they
replaced (``projection_reference``), installed from the test; every result
must agree.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistcheck.framework as framework
import persistcheck.lang as lang
import projection_reference as ref
from persistcheck.framework import (
    Collection,
    HereditaryChain,
    UnknownMethod,
    check_consistent,
    check_hereditarily_consistent,
    check_wellformed,
)
from persistcheck.lang import candidate_refinements, candidate_sw_sets, interpret_phases, link_phases, parse_litmus
from persistcheck.libs import (
    B_TAG,
    E_TAG,
    PTR_TAG,
    T_TAG,
    counter_spec,
    durqueue_spec,
    lock_spec,
    lstrans_spec,
    ltrans_impl,
    ltrans_spec,
    sc_prune_factory,
    weakreg_spec,
)
from persistcheck.model import BOT, CRASH, Execution, Label, PlainExecution, bits, immediate_prefix_masks
from persistcheck.px86 import D_TAG, P_TAG, px86_spec
from persistcheck.sc import PFENCE

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

#: Per collection: its specs, and the (method, arity) pairs and tags that
#: random labels are drawn from.  ``zz`` is owned by no library.  The
#: transaction libraries come with the lock that ``lstrans`` is built on, so
#: that one collection mixes default sw hooks with a hook of its own.
COLLECTIONS = {
    "undo_low": (
        lambda: [weakreg_spec(), durqueue_spec()],
        [("rnew", 0), ("rwrite", 2), ("rread", 1), (PFENCE, 0), ("qnew", 0), ("qappend", 2), ("qpop", 1), ("zz", 0)],
        [T_TAG],
    ),
    "ltrans": (
        lambda: [ltrans_spec(), counter_spec(), lstrans_spec(), lock_spec()],
        [("pt_new", 0), ("pt_begin", 0), ("pt_end", 0), ("pt_read", 1), ("pt_write", 2), ("pt_recover", 0)]
        + [("cnew", 0), ("cinc", 1), ("cread", 1), ("lpt_begin", 0), ("lpt_end", 0), ("lacq", 1), ("lrel", 1)],
        [T_TAG, PTR_TAG, B_TAG, E_TAG],
    ),
    "px86": (
        lambda: [px86_spec()],
        [("alloc", 0), ("store", 2), ("load", 1), ("flush", 1), ("fo", 1), ("mfence", 0), ("sfence", 0)],
        [D_TAG, P_TAG],
    ),
}


@st.composite
def _executions(draw, name):
    """Up to six calls of the collection's methods (some pending, some
    tagged) and up to two crashes, with random forward po, sw and extra hb
    edges; a pending call gets po edges to crashes only."""
    _, methods, tags = COLLECTIONS[name]
    n = draw(st.integers(0, 6))
    crashes = set(draw(st.sets(st.integers(0, n - 1), max_size=2))) if n else set()
    labels = []
    for i in range(n):
        if i in crashes:
            labels.append(CRASH)
            continue
        method, arity = draw(st.sampled_from(methods))
        args = tuple(draw(st.integers(0, 2)) for _ in range(arity))
        ret = BOT if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from([None, 0, 1, 2]))
        tagged = frozenset(draw(st.sets(st.sampled_from(tags), max_size=2)))
        labels.append(Label(method, args, ret, tagged, draw(st.integers(0, 2))))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    po = [(a, b) for a, b in pairs if (labels[a].is_complete or labels[b].is_crash) and draw(st.integers(0, 1))]
    sw = [e for e in pairs if draw(st.integers(0, 3)) == 0]
    plain = PlainExecution(labels, po)
    if draw(st.booleans()):
        return Execution(plain, sw)
    extra = [e for e in pairs if draw(st.integers(0, 4)) == 0]
    return Execution(plain, sw, set(plain.po) | set(sw) | set(extra))


def _exact(x):
    return (tuple(x.plain.labels()), x.plain.po_order.rows, tuple(sorted(x.sw)), x.hb_order.rows)


def _witness(w):
    if isinstance(w, HereditaryChain):
        return [sorted(s) for s in w.subsets]
    return _exact(w) if isinstance(w, Execution) else w


def _outcome(check, *args, **kwargs):
    try:
        v = check(*args, **kwargs)
    except (UnknownMethod, ValueError) as e:
        return ("raised", type(e).__name__, str(e))
    if isinstance(v, list):
        return v
    return (v.status, v.reason, _witness(v.witness), v.stats)


@contextmanager
def _parent_projections():
    """The projections as the replaced code built them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framework, "_check_consistent", ref.check_consistent_unshared)
        mp.setattr(framework, "check_immediately_wellformed", ref.check_immediately_wellformed)
        mp.setattr(lang, "candidate_sw_sets", ref.candidate_sw_sets)
        mp.setattr(Execution, "restrict_events", ref.restrict_events)
        yield


def _checks(coll, x):
    return [
        _outcome(check_consistent, coll, x),
        _outcome(check_hereditarily_consistent, coll, x, budget=2_000),
        _outcome(check_wellformed, coll, x, budget=2_000),
        _outcome(lang.candidate_sw_sets, coll, x.plain),
    ]


def _differential(name):
    @SETTINGS
    @given(_executions(name))
    def test(x):
        coll = Collection(COLLECTIONS[name][0]()).freeze()
        got = _checks(coll, x)
        with _parent_projections():
            assert got == _checks(coll, x)

    return test


test_undo_low_checks_match_the_parent_projections = _differential("undo_low")
test_ltrans_checks_match_the_parent_projections = _differential("ltrans")
test_px86_checks_match_the_parent_projections = _differential("px86")


@SETTINGS
@given(st.sampled_from(sorted(COLLECTIONS)).flatmap(_executions), st.data())
def test_restrict_events_matches_the_parent_and_keeps_hb_as_po(x, data):
    keep = sorted(data.draw(st.sets(st.sampled_from(x.events))) if x.events else [])
    got = x.restrict_events(keep)
    assert _exact(got) == _exact(ref.restrict_events(x, keep))
    hb_is_po = x.hb_order is x.plain.po_order
    assert (got.hb_order is got.plain.po_order) == hb_is_po
    # and so on down a chain of restrictions
    deeper = got.restrict_events(range(len(got) // 2))
    assert (deeper.hb_order is deeper.plain.po_order) == hb_is_po


def _hb_prefixes(x):
    """Every hb-prefix mask of ``x``."""
    found, stack = set(), [(1 << len(x)) - 1]
    while stack:
        mask = stack.pop()
        if mask not in found:
            found.add(mask)
            stack.extend(immediate_prefix_masks(x.hb_order.rows, mask))
    return sorted(found)


@SETTINGS
@given(st.sampled_from(sorted(COLLECTIONS)), st.data())
def test_a_key_read_by_mask_is_the_restriction_key(name, data):
    # the walks name a prefix by its mask: ``Execution.key`` must read the
    # exact key of the restriction off the rows, on every hb-prefix and on
    # every library's projection of one, which keeps the crashes
    x = data.draw(_executions(name))
    specs = COLLECTIONS[name][0]()
    keeps = [sum(1 << e for e in x.events if x.lab[e].is_crash or s.interface.owns(x.lab[e])) for s in specs]
    # the same events with hb = po, as an execution with no sw keeps it
    same = Execution(x.plain)
    assert same.hb_order is same.plain.po_order
    for y in (x, same):
        prefixes = _hb_prefixes(y)
        for mask in prefixes + [m & keep for m in prefixes for keep in keeps]:
            labels, po, sw, hb = y.key(mask)
            assert isinstance(sw, frozenset)
            assert (labels, po, tuple(sorted(sw)), hb) == _exact(y.restrict_events(bits(mask)))
        full = y.key((1 << len(y)) - 1)
        assert full[1] is y.plain.po_order.rows and full[3] is y.hb_order.rows and full[2] is y.sw


# --------------------------------------------------------------------------
# Projections left unbuilt
# --------------------------------------------------------------------------

UNDO_1X1 = """collection ltrans
globals
  a := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a)
"""


def _undo_runs(low, limit):
    phases = link_phases(parse_litmus(UNDO_1X1).phases, ltrans_impl())
    cfg = lang.InterpConfig(unroll=10, max_runs=600_000, prune_factory=sc_prune_factory())
    runs = (g for env, g in interpret_phases(phases, low, cfg, complete_only=True) if env is not None)
    return [g for g, _ in zip(runs, range(limit))]


def _count(monkeypatch, owner, attr):
    calls = []
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_an_undo_log_crash_run_is_justified_without_anonymizing(monkeypatch):
    low = Collection([weakreg_spec(), durqueue_spec()]).freeze()
    runs = _undo_runs(low, 40)
    anonymized = _count(monkeypatch, framework, "anonymize")
    verdicts = []
    for g in runs:
        for x in candidate_refinements(low, g):
            verdicts.append(check_hereditarily_consistent(low, x, budget=6_000).status)
    assert anonymized == []
    assert any(g.crash_events() for g in runs)
    assert {"consistent", "inconsistent"} <= set(verdicts)

    built = _count(monkeypatch, PlainExecution, "restrict_events")
    assert [candidate_sw_sets(low, g) for g in runs] == [[frozenset()]] * len(runs)
    assert built == []


def test_a_collection_with_global_predicates_still_anonymizes(monkeypatch):
    coll = Collection([ltrans_spec(), counter_spec()]).freeze()
    x = Execution(
        PlainExecution(
            [
                Label("pt_new", (), 1, frozenset(), 0),
                Label("cnew", (), 2, frozenset(), 0),
                Label("pt_begin", (), None, frozenset({B_TAG}), 0),
                Label("cinc", (2,), None, frozenset({T_TAG}), 0),
                Label("pt_end", (), None, frozenset({E_TAG}), 0),
            ],
            [(0, 1), (1, 2), (2, 3), (3, 4)],
        )
    )
    anonymized = _count(monkeypatch, framework, "anonymize")
    v = check_consistent(coll, x)
    assert not v and v.reason.startswith("ltrans.global_consistent")
    assert len(anonymized) == 1
    check_wellformed(coll, x)
    assert len(anonymized) > 1


def test_a_restriction_of_an_execution_whose_hb_is_po_keeps_hb_as_po():
    plain = PlainExecution([Label("m", (i,), None, frozenset(), 0) for i in range(4)], [(0, 1), (1, 2), (2, 3)])
    for x in (Execution(plain), Execution(plain, [(0, 2)])):
        assert x.hb_order is x.plain.po_order
        sub = x.restrict_events([0, 2, 3])
        assert sub.hb_order is sub.plain.po_order and sub.plain.po_order.rows == (0b110, 0b100, 0)
    crossing = Execution(PlainExecution(plain.labels(), [(0, 1), (2, 3)]), [(1, 2)])
    sub = crossing.restrict_events([0, 1, 3])
    assert sub.hb_order is not sub.plain.po_order and sub.hb_order.rows == (0b110, 0b100, 0)
