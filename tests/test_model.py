"""Core model tests.

Expected values tagged DERIVED in the module contract are computed by the
independent oracles at the top of this file (brute-force closure, down-set
enumeration, quadratic scans) and then asserted against the implementation.
"""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from definitions import (
    execution_canonical_hash,
    execution_from_json,
    execution_to_json,
    prefix_immediate,
    thread_chains,
)
from persistcheck.model import (
    BOT,
    CRASH,
    CRASH_EV,
    Call,
    Execution,
    History,
    Inv,
    Label,
    Order,
    PlainExecution,
    Pomset,
    Ret,
    anonymize,
    canonical_hash,
    closure,
    down_sets,
    execution_to_dot,
    history_to_execution,
    iso_eq,
    parallel_execution,
    prefixes,
    restrict,
    seq_compose,
    sequence_execution,
    tag_set,
    transitive_reduction,
)
from persistcheck.model import _iso_signatures
from persistcheck.px86 import derive_sets, load, store
from test_acceptance import _random_history

# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def oracle_closure(edges):
    """Brute-force transitive closure by repeated relational composition."""
    rel = set(edges)
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c}
        if extra <= rel:
            return rel
        rel |= extra


def reference_closure(edges):
    """The frozenset-of-pairs closure the bit-row kernel replaced."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a in list(succ):
            new = set()
            for b in succ[a]:
                new |= succ.get(b, set())
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    return frozenset((a, b) for a, bs in succ.items() for b in bs)


def reference_reduction(edges):
    """The frozenset-of-pairs transitive reduction the kernel replaced."""
    clo = reference_closure(edges)
    if any(a == b for a, b in clo):
        raise ValueError("relation is cyclic")
    succ = {}
    for a, b in clo:
        succ.setdefault(a, set()).add(b)
    return frozenset(
        (a, b) for a, bs in succ.items() for b in bs if not any((c, b) in clo for c in bs if c != b)
    )


def reference_iso_signatures(events, order, lab):
    """The pair-scan refinement signatures the row-based ones replaced."""
    sig = {e: (repr(lab[e]),) for e in events}
    preds = {e: [a for a, b in order if b == e] for e in events}
    succs = {e: [b for a, b in order if a == e] for e in events}
    for _ in range(max(1, len(events))):
        new = {
            e: (
                sig[e],
                tuple(sorted(sig[p] for p in preds[e])),
                tuple(sorted(sig[s] for s in succs[e])),
            )
            for e in events
        }
        if len(set(new.values())) == len(set(sig.values())):
            sig = new
            break
        sig = new
    return sig


def oracle_down_sets(events, po):
    """All down-closed subsets, by filtering the full powerset."""
    out = []
    evs = sorted(events)
    for r in range(len(evs) + 1):
        for combo in itertools.combinations(evs, r):
            s = set(combo)
            if all(a in s for (a, b) in po if b in s):
                out.append(frozenset(s))
    return out


def oracle_eb(g):
    """Quadratic scan: (a, b) with some crash po-between."""
    po = g.po
    out = set()
    for a in g.events:
        for b in g.events:
            for c in g.crash_events():
                if (a, c) in po and (c, b) in po:
                    out.add((a, b))
    return out


# --------------------------------------------------------------------------
# Labels
# --------------------------------------------------------------------------


def test_crash_label_carries_nothing():
    assert CRASH.is_crash and CRASH.is_complete
    with pytest.raises(ValueError):
        Label(None, args=(1,))
    with pytest.raises(ValueError):
        Label(None, thread=1)


def test_call_completeness():
    w = Label("store", (1, 2), None, thread=0)
    assert w.is_complete  # returned null
    pending = Label("store", (1, 2), BOT, thread=0)
    assert not pending.is_complete


# --------------------------------------------------------------------------
# Histories
# --------------------------------------------------------------------------


def test_history_alternation_enforced():
    History([Inv("push", (1,), 0), Ret(None, 0)])
    with pytest.raises(ValueError):
        History([Ret(None, 0)])
    with pytest.raises(ValueError):
        History([Inv("a", (), 0), Inv("b", (), 0)])


def test_history_thread_ids_fresh_after_crash():
    History([Inv("a", (), 0), Ret(None, 0), CRASH_EV, Inv("a", (), 1), Ret(None, 1)])
    with pytest.raises(ValueError):
        History([Inv("a", (), 0), Ret(None, 0), CRASH_EV, Inv("a", (), 0)])


def test_project_thread_weak_register_history():
    # h[t3] of the two-order register history = R(y):1 · R(x):0
    h = History(
        [
            Inv("rwrite", (10, 1), 1),
            Inv("rwrite", (11, 1), 2),
            Inv("rread", (11,), 3),
            Ret(1, 3),
            Inv("rread", (10,), 3),
            Ret(0, 3),
            CRASH_EV,
            Inv("rread", (11,), 4),
            Ret(0, 4),
            Inv("rread", (10,), 4),
            Ret(1, 4),
        ]
    )
    t3 = h.project_thread(3)
    assert t3.events == (
        Inv("rread", (11,), 3),
        Ret(1, 3),
        Inv("rread", (10,), 3),
        Ret(0, 3),
    )


def test_ops_drops_crashes_only():
    h = History([Inv("a", (), 0), Ret(None, 0), CRASH_EV, Inv("a", (), 1)])
    assert h.ops().events == (Inv("a", (), 0), Ret(None, 0), Inv("a", (), 1))
    crash_free = History([Inv("a", (), 0), Ret(None, 0)])
    assert crash_free.ops() == crash_free


def test_project_location_queue_example():
    def loc(c):
        return frozenset({c.args[0]}) if c.args else frozenset({c.ret})

    h = History(
        [
            Inv("qnew", (), 0),
            Ret(7, 0),
            Inv("qpush", (7, 1), 0),
            Ret(None, 0),
            Inv("qpush", (8, 2), 1),
            Ret(None, 1),
        ]
    )
    hx = h.project_location(7, loc)
    assert [e.method for e in hx.events if isinstance(e, Inv)] == ["qnew", "qpush"]


def test_calls_and_incomplete():
    h = History([Inv("a", (), 0), Inv("b", (), 1), Ret(3, 1)])
    calls = h.calls()
    assert len(calls) == 2
    assert calls[0].ret is BOT and not calls[0].is_complete
    assert calls[1].ret == 3 and calls[1].ret_index == 2


def _calls_built_twice(h):
    """``History.calls`` as it was: each call built at its invocation and
    built again at its return."""
    out = []
    open_call = {}  # thread -> index into out
    for i, e in enumerate(h.events):
        if isinstance(e, Inv):
            open_call[e.thread] = len(out)
            out.append(Call(e.method, e.args, BOT, e.thread, e.tags, i, None))
        elif isinstance(e, Ret):
            j = open_call.pop(e.thread)
            c = out[j]
            out[j] = Call(c.method, c.args, e.value, c.thread, c.tags, c.inv_index, i)
    return out


def test_calls_match_the_two_step_construction():
    """On the 500 acceptance-2 histories, and on each joined to the next by
    a crash (its pending calls stay pending, the next one's threads are
    renumbered fresh), with tags on every third invocation."""
    rng = random.Random(20260808)
    hs = [_random_history(rng) for _ in range(500)]
    tagged = [
        History(
            Inv(e.method, e.args, e.thread, frozenset({"P"})) if isinstance(e, Inv) and i % 3 == 0 else e
            for i, e in enumerate(h.events)
        )
        for h in hs
    ]
    crashed = []
    for a, b in zip(tagged, tagged[1:] + tagged[:1]):
        t = 1 + max((e.thread for e in a.events), default=0)
        later = [
            Inv(e.method, e.args, e.thread + t, e.tags) if isinstance(e, Inv) else Ret(e.value, e.thread + t)
            for e in b.events
        ]
        crashed.append(History(list(a.events) + [CRASH_EV] + later + [CRASH_EV]))
    assert sum(h.crash_count() for h in crashed) == 1_000
    for h in hs + tagged + crashed:
        assert h.calls() == _calls_built_twice(h), h


def test_eras_split():
    h = History([Inv("a", (), 0), Ret(None, 0), CRASH_EV, Inv("b", (), 1)])
    eras = h.eras()
    assert len(eras) == 2
    assert eras[0].events == (Inv("a", (), 0), Ret(None, 0))
    assert eras[1].events == (Inv("b", (), 1),)
    assert History([]).eras() == [History([])]


# --------------------------------------------------------------------------
# Plain executions
# --------------------------------------------------------------------------


def w(v=1, x=1, thread=0, ret=None):
    return Label("store", (x, v), ret, thread=thread)


def r(v=0, x=1, thread=0):
    return Label("load", (x,), v, thread=thread)


def test_po_cyclic_rejected():
    with pytest.raises(ValueError):
        PlainExecution([w(), r()], [(0, 1), (1, 0)])


def test_an_unclosed_hb_order_is_rejected():
    # each event hb-before the other: the rows leave the diagonal empty, so
    # the acyclicity check alone would take this cyclic hb
    with pytest.raises(ValueError, match="not transitively closed"):
        Execution(PlainExecution([w(), r()], []), (), Order([0b10, 0b01]))
    # an acyclic chain that leaves out 0 → 2
    with pytest.raises(ValueError, match="not transitively closed"):
        Execution(PlainExecution([w(), r(), w(2)], []), (), Order([0b010, 0b100, 0]))
    assert Execution(PlainExecution([w(), r()], []), (), Order([0b10, 0])).hb == {(0, 1)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_is_closed_matches_the_closure(rows):
    assert Order(rows).is_closed() == (Order.close_rows(rows).rows == tuple(rows))


def test_a_non_label_is_rejected():
    with pytest.raises(TypeError, match="not a label"):
        PlainExecution([w(), "load"], [])
    with pytest.raises(TypeError, match="not a label"):
        sequence_execution([w(), None])


def test_sw_naming_an_unknown_event_is_rejected():
    # the events are 0 and 1: -1 and 2 are out of range, whatever labels hold
    g = PlainExecution([w(thread=0), r(1, thread=1)], [])
    for edge in [(-1, 1), (0, -1), (0, 2), (2, 1)]:
        with pytest.raises(ValueError, match="sw mentions unknown event"):
            Execution(g, sw=[edge])


def test_executions_store_labels_in_a_tuple_and_events_as_a_range():
    labels = [w(), r(1), CRASH]
    for g in (sequence_execution(labels), Pomset(labels, [(0, 1)])):
        assert g.lab == tuple(labels) and g.events == range(3) and g.labels() == labels
    x = Execution(sequence_execution(labels))
    assert x.lab is x.plain.lab and x.events is x.plain.events


#: Bytes one chain of 12 calls holds once its reduced po is read: 2,736 when
#: the labels were a dict and each pair of the reduction a tuple of its own,
#: 1,536 with the label tuple, the event range and the shared pair table in
#: a frozenset, 936 with the reduction a tuple of the shared pairs.
CHAIN_BYTES = 1_200


def test_chains_with_their_reduction_hold_few_bytes():
    labels = [w(i) for i in range(12)]
    sequence_execution(labels).po_reduced  # the shared pair table reaches 12 events
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chains = [sequence_execution(labels) for _ in range(200)]
        for g in chains:
            assert len(g.po_reduced) == 11
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / len(chains)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held < CHAIN_BYTES


def test_incomplete_call_invariant():
    pending = Label("store", (1, 1), BOT, thread=0)
    with pytest.raises(ValueError):
        PlainExecution([pending, r()], [(0, 1)])
    # crash successor is fine
    PlainExecution([pending, CRASH], [(0, 1)])


def test_seq_compose_unit():
    empty = PlainExecution([], [])
    g = sequence_execution([w(), r(1)])
    assert iso_eq(seq_compose(empty, g), g)
    assert iso_eq(seq_compose(g, empty), g)


def test_seq_compose_forced_edge():
    g1 = sequence_execution([w()])
    g2 = sequence_execution([r(1)])
    out = seq_compose(g1, g2)
    assert (0, 1) in out.po


def test_seq_compose_incomplete_crash_oracle():
    # G1 = {incomplete call c}, G2 = {Crash k, read r po-after k}:
    # po must contain (c, k) and (c, r) only via transitivity through k.
    pending = Label("store", (1, 1), BOT, thread=0)
    g1 = sequence_execution([pending])
    g2 = PlainExecution([CRASH, r(0, thread=1)], [(0, 1)])
    out = seq_compose(g1, g2)
    # oracle: hand-expanded closure of the defining relation
    base = {(1, 2), (0, 1)}  # g2-internal edge shifted, plus (c, crash)
    assert set(out.po) == oracle_closure(base)
    # and with the read not po-after the crash, (c, r) must be absent
    g2b = PlainExecution([CRASH, r(0, thread=1)], [])
    out_b = seq_compose(g1, g2b)
    assert (0, 1) in out_b.po and (0, 2) not in out_b.po


def test_seq_compose_associative_random():
    rng = random.Random(7)
    for _ in range(20):
        chains = []
        for k in range(3):
            n = rng.randint(0, 2)
            chains.append(
                sequence_execution(
                    [w(v=rng.randint(0, 2), thread=k, ret=None) for _ in range(n)]
                )
            )
        a, b, c = chains
        left = seq_compose(seq_compose(a, b), c)
        right = seq_compose(a, seq_compose(b, c))
        assert iso_eq(left, right)


def test_prefixes_singleton_and_chain():
    g = sequence_execution([w()])
    ps = prefixes(g)
    assert len(ps) == 2
    chain = sequence_execution([w(1), w(2), w(3)])
    assert len(prefixes(chain)) == 4


def test_prefixes_antichain_oracle():
    g = parallel_execution([w(1, thread=0)], [w(2, thread=1)], [w(3, thread=2)])
    expected = oracle_down_sets(g.events, g.po)
    assert len(expected) == 8
    assert len(down_sets(g)) == 8
    assert len(prefixes(g)) == 8  # distinct labels: no iso-collapse


def test_prefixes_dedup_up_to_iso():
    g = parallel_execution([w(1, thread=0)], [w(1, thread=0)])
    # two events with identical labels: subsets {a} and {b} are isomorphic
    assert len(prefixes(g)) == 3


def test_prefix_immediate():
    g = sequence_execution([w(1), w(2)])
    g1 = sequence_execution([w(1)])
    assert prefix_immediate(g1, g)
    assert not prefix_immediate(g, g1)
    assert not prefix_immediate(sequence_execution([w(2)]), g)


def test_prefixes_preserve_invariants():
    pending = Label("store", (1, 1), BOT, thread=0)
    g = PlainExecution([pending, CRASH, r(1, thread=1)], [(0, 1), (1, 2)])
    for p in prefixes(g):
        # constructor re-validates; also check incomplete-maximality directly
        for e in p.events:
            if p.lab[e].is_call and not p.lab[e].is_complete:
                succs = [b for (a, b) in p.po_reduced if a == e]
                assert all(p.lab[s].is_crash for s in succs)


# --------------------------------------------------------------------------
# Era machinery
# --------------------------------------------------------------------------


def test_era_before_crash_free():
    g = sequence_execution([w(), r(1)])
    assert g.eb.pairs == frozenset()


def test_era_before_two_eras():
    g = sequence_execution([w(thread=0), CRASH, r(1, thread=1)])
    assert g.eb.pairs == frozenset({(0, 2)})
    # built once and kept
    assert g.eb is g.eb


def test_era_before_oracle_three_eras():
    labels = [w(1, thread=0), CRASH, w(2, thread=1), CRASH, r(2, thread=2)]
    g = sequence_execution(labels)
    assert g.eb.pairs == frozenset(oracle_eb(g))
    # same-era, as px86 derives it, on the same shape with px86 labels
    px = sequence_execution([store(1, 1, thread=0), CRASH, store(1, 2, thread=1), CRASH, load(1, 2, thread=2)])
    se = derive_sets(Execution(px)).se
    assert se[0] & 1 and not se[0] >> 2 & 1


def test_tag_set():
    e0 = Label("a", (), None, frozenset({"T"}), 0)
    e1 = Label("b", (), None, frozenset(), 0)
    g = sequence_execution([e0, e1])
    assert tag_set(g, "T") == frozenset({0})
    empty = PlainExecution([], [])
    assert tag_set(empty, "T") == frozenset()
    both = sequence_execution([e0, e0.with_tags({"P"})])
    assert tag_set(both, "T") == frozenset({0, 1})


# --------------------------------------------------------------------------
# Executions: restrict / anonymize
# --------------------------------------------------------------------------


def _mk_exec():
    labels = [
        Label("qpush", (1, 5), None, frozenset(), 0),
        Label("foreign", (), None, frozenset({"T"}), 0),
        Label("plain", (), None, frozenset(), 0),
        CRASH,
        Label("qpop", (1,), 5, frozenset(), 1),
    ]
    g = PlainExecution(labels, thread_chains(labels) + [(0, 3), (1, 3), (2, 3), (3, 4)])
    return Execution(g)


def owns_queue(l):
    return l.method in {"qpush", "qpop"}


def test_restrict_identity_and_filter():
    x = _mk_exec()
    rx = restrict(x, owns_queue)
    methods = [rx.lab[e].method for e in rx.events]
    assert methods == ["qpush", None, "qpop"]
    # restricting an all-owned execution is the identity up to event ids
    labels = [Label("qpush", (1, 1), None, frozenset(), 0)]
    y = Execution(PlainExecution(labels, []))
    ry = restrict(y, owns_queue)
    assert iso_eq(ry.plain, y.plain)
    empty = Execution(PlainExecution([], []))
    assert restrict(empty, owns_queue).is_empty()


def test_anonymize_oracle():
    x = _mk_exec()
    ax = anonymize(owns_queue, x)
    # oracle: relabel-and-filter by hand
    methods = [ax.lab[e].method for e in ax.events]
    assert methods == ["qpush", "⋆", None, "qpop"]
    star_ev = ax.events[1]
    assert ax.lab[star_ev].tags == frozenset({"T"})
    # po edge from qpush through to the star survives
    assert (0, 1) in ax.po


def test_anonymize_all_owned_unchanged():
    labels = [Label("qpush", (1, 1), None, frozenset(), 0), Label("qpop", (1,), 1, frozenset(), 0)]
    x = Execution(PlainExecution(labels, [(0, 1)]))
    ax = anonymize(owns_queue, x)
    assert iso_eq(ax.plain, x.plain)


def test_restrict_after_anonymize_equals_restrict():
    x = _mk_exec()
    lhs = restrict(anonymize(owns_queue, x), owns_queue)
    rhs = restrict(x, owns_queue)
    assert iso_eq(lhs.plain, rhs.plain)


# --------------------------------------------------------------------------
# Execution invariants
# --------------------------------------------------------------------------


def test_hb_must_contain_po_and_sw():
    labels = [w(thread=0), r(1, thread=1)]
    g = PlainExecution(labels, [])
    with pytest.raises(ValueError):
        Execution(g, sw=[(0, 1)], hb=[])
    x = Execution(g, sw=[(0, 1)])  # hb defaulted to (po ∪ sw)+
    assert (0, 1) in x.hb


def test_hb_cycle_rejected():
    labels = [w(thread=0), r(1, thread=1)]
    g = PlainExecution(labels, [])
    with pytest.raises(ValueError):
        Execution(g, sw=[], hb=[(0, 1), (1, 0)])


# --------------------------------------------------------------------------
# Pomset isomorphism
# --------------------------------------------------------------------------


def test_iso_basic():
    p = Pomset(["a", "b"], [(0, 1)])
    q = Pomset(["b", "a"], [(1, 0)])
    assert iso_eq(p, q)
    assert canonical_hash(p) == canonical_hash(q)
    assert not iso_eq(p, Pomset(["a", "b"], []))


def test_iso_respects_labels():
    p = Pomset(["a", "a"], [(0, 1)])
    q = Pomset(["a", "b"], [(0, 1)])
    assert not iso_eq(p, q)


def test_history_to_execution_hb():
    h = History(
        [
            Inv("a", (), 0),
            Ret(1, 0),
            Inv("b", (), 1),
            Ret(2, 1),
        ]
    )
    x = history_to_execution(h)
    assert (0, 1) in x.hb  # a returned before b invoked
    # overlapping calls are incomparable
    h2 = History([Inv("a", (), 0), Inv("b", (), 1), Ret(1, 0), Ret(2, 1)])
    x2 = history_to_execution(h2)
    assert (0, 1) not in x2.hb and (1, 0) not in x2.hb


def test_history_to_execution_crash_is_both():
    h = History([Inv("a", (), 0), Ret(1, 0), CRASH_EV, Inv("b", (), 1), Ret(2, 1)])
    x = history_to_execution(h)
    crash = [e for e in x.events if x.lab[e].is_crash][0]
    call_a = [e for e in x.events if x.lab[e].method == "a"][0]
    call_b = [e for e in x.events if x.lab[e].method == "b"][0]
    assert (call_a, crash) in x.hb and (crash, call_b) in x.hb


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_json_roundtrip():
    x = _mk_exec()
    text = execution_to_json(x)
    y = execution_from_json(text)
    assert execution_to_json(y) == text


def test_dot_export_mentions_all_events():
    x = _mk_exec()
    dot = execution_to_dot(x)
    for e in x.events:
        assert f"e{e}" in dot


# --------------------------------------------------------------------------
# Bit-row order kernel against the frozenset reference
# --------------------------------------------------------------------------

# Non-dense ids, negative ids, and ids past one machine word.
KERNEL_IDS = st.sampled_from([-7, -1, 0, 1, 2, 3, 5, 8, 63, 64, 200])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(KERNEL_IDS, KERNEL_IDS), max_size=20))
def test_kernel_matches_reference_on_random_relations(edges):
    assert closure(iter(edges)) == reference_closure(edges)
    try:
        want = reference_reduction(edges)
    except ValueError:
        with pytest.raises(ValueError):
            transitive_reduction(edges)
    else:
        assert transitive_reduction(iter(edges)) == want


def _reference_preds(rows):
    """``Order.preds`` as it was before it transposed whole rows: one step
    per set bit."""
    cols = [0] * len(rows)
    for a, row in enumerate(rows):
        bit = 1 << a
        while row:  # the bits of ``row``, walked inline
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 70).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@example([1])
@example([(1 << 64) - 1] * 64)
@example([(1 << 65) - 1] * 65)
def test_preds_transpose_the_rows(rows):
    # any bit matrix, not only closed orders; widths across the power-of-two
    # strides, the last row of a stride and the first past it included
    order = Order(rows)
    assert list(order.preds()) == _reference_preds(rows)
    assert order.preds() is order.preds()


_KINDS = {
    "own": lambda i: Label("qpush", (1, i), None, frozenset(), 0),
    "tagged": lambda i: Label("foreign", (i,), None, frozenset({"T"}), 1),
    "plain": lambda i: Label("plain", (i,), None, frozenset(), 2),
    "crash": lambda i: CRASH,
}


@st.composite
def random_executions(draw):
    """An execution on up to 9 events whose po, sw and extra hb edges all
    run forward in one random total order, plus a random subset of events."""
    n = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=n, max_size=n))
    labels = [_KINDS[k](i) for i, k in enumerate(kinds)]
    rank = draw(st.permutations(range(n)))
    forward = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)]
    edges = st.lists(st.sampled_from(forward), max_size=12) if forward else st.just([])
    po, sw, extra = draw(edges), draw(edges), draw(edges)
    keep = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return labels, po, sw, extra, keep


def _cut(rel, keep):
    idx = {old: new for new, old in enumerate(sorted(keep))}
    return {(idx[a], idx[b]) for a, b in rel if a in idx and b in idx}


def _assert_relations(x, po, sw, hb):
    """x carries the closures of ``po`` and ``hb`` built from scratch, and
    the era-before relation of its po."""
    assert x.po == reference_closure(po)
    assert x.plain.po_reduced == tuple(sorted(reference_reduction(po)))
    assert x.sw == frozenset(sw)
    assert x.hb == reference_closure(hb)
    assert x.plain.eb.pairs == frozenset(oracle_eb(x.plain))
    assert x.plain.eb.preds() == tuple(sum(1 << a for a, b in oracle_eb(x.plain) if b == e) for e in x.events)
    # iso signatures and hashes read off the rows equal the pair-scan ones
    assert _iso_signatures(x.events, x.plain.po_order, x.lab) == reference_iso_signatures(x.events, x.po, x.lab)
    union = reference_iso_signatures(x.events, set(x.po) | set(x.sw) | set(x.hb), x.lab)
    assert _iso_signatures(x.events, x.hb_order, x.lab) == union
    assert execution_canonical_hash(x) == hash(tuple(sorted(union.values())))
    assert canonical_hash(x.plain) == hash(tuple(sorted(reference_iso_signatures(x.events, x.po, x.lab).values())))


@settings(max_examples=200, deadline=None)
@given(random_executions(), st.booleans())
def test_restrict_and_anonymize_match_closing_from_scratch(case, explicit_hb):
    labels, po, sw, extra, keep = case
    hb = set(po) | set(sw) | set(extra) if explicit_hb else set(po) | set(sw)
    x = Execution(PlainExecution(labels, po), sw, hb if explicit_hb else None)
    _assert_relations(x, po, sw, hb)
    po_c, hb_c = reference_closure(po), reference_closure(hb)

    sub = x.restrict_events(keep)
    assert sub.plain.labels() == [labels[e] for e in sorted(keep)]
    _assert_relations(sub, _cut(po_c, keep), _cut(sw, keep), _cut(hb_c, keep))

    ax = anonymize(owns_queue, x)
    kept = [e for e, l in enumerate(labels) if l.is_crash or owns_queue(l) or l.tags]
    assert [l.method for l in ax.plain.labels()] == [
        "⋆" if labels[e].tags else labels[e].method for e in kept
    ]
    _assert_relations(ax, _cut(po_c, kept), _cut(sw, kept), _cut(hb_c, kept))
