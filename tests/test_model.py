"""Core model tests.

Expected values tagged DERIVED in the module contract are computed by the
independent oracles at the top of this file (brute-force closure, down-set
enumeration, quadratic scans) and then asserted against the implementation.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistcheck.model import (
    BOT,
    CRASH,
    CRASH_EV,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Pomset,
    Ret,
    anonymize,
    canonical_hash,
    closure,
    down_sets,
    era_before,
    era_split,
    execution_canonical_hash,
    execution_from_json,
    execution_to_dot,
    execution_to_json,
    history_to_execution,
    iso_eq,
    parallel_execution,
    prefix_immediate,
    prefixes,
    restrict,
    seq_compose,
    sequence_execution,
    tag_set,
    thread_chains,
    transitive_reduction,
)
from persistcheck.model import _iso_signatures
from persistcheck.px86 import derive_sets, load, store

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


def test_era_split_crash_free():
    g = sequence_execution([w(), r(1)])
    parts = era_split(g)
    assert len(parts) == 1 and iso_eq(parts[0], g)
    assert era_before(g) == frozenset()


def test_era_split_two_eras():
    g = sequence_execution([w(thread=0), CRASH, r(1, thread=1)])
    parts = era_split(g)
    assert len(parts) == 2
    assert parts[0].labels() == [w(thread=0)]
    assert parts[1].labels() == [r(1, thread=1)]
    assert (0, 2) in era_before(g)


def test_era_before_oracle_three_eras():
    labels = [w(1, thread=0), CRASH, w(2, thread=1), CRASH, r(2, thread=2)]
    g = sequence_execution(labels)
    assert era_before(g) == frozenset(oracle_eb(g))
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


def test_era_split_reconcat_superset():
    # splitting at crashes and regluing with crash singletons reproduces a
    # po-superset of the original
    labels = [w(1, thread=0), r(1, thread=1), CRASH, w(2, thread=5)]
    g = PlainExecution(labels, thread_chains(labels) + [(0, 2), (1, 2), (2, 3)])
    parts = era_split(g)
    glued = parts[0]
    for part in parts[1:]:
        glued = seq_compose(seq_compose(glued, sequence_execution([CRASH])), part)
    assert len(glued) == len(g)
    # map events by label occurrence order and compare po
    def key(gr):
        return [repr(gr.lab[e]) for e in gr.events]

    order = {lbl: i for i, lbl in enumerate(key(g))}
    mapping = {e: order[repr(glued.lab[e])] for e in glued.events}
    original_po = set(g.po)
    glued_po = {(mapping[a], mapping[b]) for a, b in glued.po}
    assert original_po <= glued_po


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
    assert x.plain.po_reduced == reference_reduction(po)
    assert x.sw == frozenset(sw)
    assert x.hb == reference_closure(hb)
    assert era_before(x.plain) == frozenset(oracle_eb(x.plain))
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
