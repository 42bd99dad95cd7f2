"""Flit's and Mirror's checks and Mirror's sw hook on the one linearization
search, against the eager loops they replaced (``eager_reference``): the same
status and the same hook list on random executions with 0-2 crashes, pending
calls, explicit P tags and random sw sets, and every witness the search
returns checked against the definitions of lin, nvo and P."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eager_reference as ref
from persistcheck.framework import BudgetExceeded
from persistcheck.libs import _mirror_sw_hook, check_flit, check_mirror
from persistcheck.model import BOT, CRASH, Execution, Label, PlainExecution
from persistcheck.px86 import P_TAG

LOCS = (50, 52)


def _flit_label(draw, thread):
    method = draw(st.sampled_from(["fwrite_p", "fwrite_v", "fread_p", "fread_v", "ffinish", "fnew"]))
    if method == "fnew":
        return Label(method, (), draw(st.sampled_from(LOCS)), frozenset(), thread)
    if method == "ffinish":
        return Label(method, (), None, frozenset(), thread)
    loc = draw(st.sampled_from(LOCS))
    if method.startswith("fwrite"):
        return Label(method, (loc, draw(st.integers(1, 2))), None, frozenset(), thread)
    return Label(method, (loc,), draw(st.integers(0, 2)), frozenset(), thread)


def _mirror_label(draw, thread):
    method = draw(st.sampled_from(["mwr", "mwr", "mrd", "mrd", "mcas", "mnew"]))
    if method == "mnew":
        return Label(method, (), draw(st.sampled_from(LOCS)), frozenset(), thread)
    loc = draw(st.sampled_from(LOCS))
    if method == "mwr":
        return Label(method, (loc, draw(st.integers(1, 2))), None, frozenset(), thread)
    if method == "mrd":
        return Label(method, (loc,), draw(st.integers(0, 2)), frozenset(), thread)
    args = (loc, draw(st.integers(0, 2)), draw(st.integers(1, 2)))
    return Label(method, args, draw(st.integers(0, 1)), frozenset(), thread)


def _is_read(l):
    return l.method in ("mrd", "mcas", "fread_p", "fread_v")


def _is_write(l):
    return l.method in ("mwr", "fwrite_p", "fwrite_v") or l.method == "mcas" and l.ret == 1


@st.composite
def executions(draw, lib):
    """1-3 eras (0-2 crashes), 1-2 threads per era with 0-2 calls each and
    at most five calls in all; a thread's last call may be pending.  Some
    executions carry P tags on random events.  sw holds, per read, no edge or
    one from an earlier same-location write, and at times one more random
    forward edge."""
    label = _flit_label if lib == "flit" else _mirror_label
    crashes = draw(st.integers(0, 2))
    labels, po = [], []
    tid, left = 0, 5
    for era in range(crashes + 1):
        if era:
            labels.append(CRASH)
            po += [(e, len(labels) - 1) for e in range(len(labels) - 1)]
        first = len(labels)
        for _ in range(draw(st.integers(1, 2))):
            length = draw(st.integers(0, min(2, left)))
            left -= length
            for k in range(length):
                l = label(draw, tid)
                if k == length - 1 and draw(st.integers(0, 2)) == 0:
                    l = Label(l.method, l.args, BOT, l.tags, l.thread)
                if k:
                    po.append((len(labels) - 1, len(labels)))
                labels.append(l)
            tid += 1
        if era:
            po += [(first - 1, e) for e in range(first, len(labels))]
    if labels and draw(st.booleans()):
        tagged = draw(st.sets(st.integers(0, len(labels) - 1)))
        labels = [l.with_tags({P_TAG}) if i in tagged and not l.is_crash else l for i, l in enumerate(labels)]
    calls = [i for i, l in enumerate(labels) if not l.is_crash]
    sw = []
    for r in calls:
        if _is_read(labels[r]):
            srcs = [w for w in calls if w < r and _is_write(labels[w]) and labels[w].args[0] == labels[r].args[0]]
            src = draw(st.sampled_from([None] + srcs))
            if src is not None:
                sw.append((src, r))
    if len(calls) > 1 and draw(st.integers(0, 3)) == 0:
        a, b = sorted(draw(st.lists(st.sampled_from(calls), min_size=2, max_size=2, unique=True)))
        sw.append((a, b))
    return Execution(PlainExecution(labels, po), sorted(set(sw)))


def _close(n, pairs):
    rel = set(pairs)
    for k in range(n):
        rel |= {(a, b) for a, c in rel if c == k for d, b in rel if d == k}
    return rel


def _lin_holds(x, lin):
    """lin orders the calls of x, extends hb and keeps era order."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = x.plain.era_of()
    pos = {e: i for i, e in enumerate(lin)}
    assert sorted(lin) == ids
    assert all(pos[a] < pos[b] for a, b in x.hb if a in pos and b in pos)
    assert all(pos[a] < pos[b] for a in ids for b in ids if era[a] < era[b])
    return ids, era, pos


def _latest(writes, r, pos, visible):
    srcs = [w for w in writes if w != r and pos[w] < pos[r] and visible(w)]
    return max(srcs, key=pos.__getitem__) if srcs else None


def _flit_witness_holds(x, w):
    ids, era, pos = _lin_holds(x, w["lin"])
    lab = x.lab
    P, nvo = set(w["P"]), set(map(tuple, w["nvo"]))
    W = [e for e in ids if lab[e].method in ("fwrite_p", "fwrite_v")]
    WP = [e for e in W if lab[e].method == "fwrite_p"]
    tagged = {e for e in x.events if P_TAG in lab[e].tags}
    assert P == tagged if tagged else P <= set(W)
    for r in ids:
        if lab[r].method in ("fread_p", "fread_v") and lab[r].ret is not BOT:
            same = [e for e in W if lab[e].args[0] == lab[r].args[0]]
            src = _latest(same, r, pos, lambda e: era[e] == era[r] or e in P)
            assert lab[r].ret == (0 if src is None else lab[src].args[1])
    dep = _close(len(x), [(a, b) for a, b in x.po if era[a] == era[b]] + [
        (a, b)
        for a in WP
        for b in ids
        if lab[b].method == "fread_p"
        and lab[a].args[0] == lab[b].args[0]
        and pos[a] < pos[b]
        and (era[a] == era[b] or a in P)
    ])
    assert {(a, b) for a in WP for b in W if (a, b) in dep} <= nvo
    assert all((a, a) not in _close(len(x), nvo) for a in ids)
    assert all(a in P for a in WP for f in ids if lab[f].method == "ffinish" and (a, f) in dep)
    assert all(a in P for a, b in nvo if b in P)


def _mirror_witness_holds(x, w):
    ids, era, pos = _lin_holds(x, w["lin"])
    lab = x.lab
    W = [e for e in ids if _is_write(lab[e])]
    assert set(w["P"]) == {e for e in W if lab[e].is_complete}
    rf = set()
    for r in ids:
        l = lab[r]
        if l.method not in ("mrd", "mcas"):
            continue
        same = [e for e in W if lab[e].args[0] == l.args[0]]
        src = _latest(same, r, pos, lambda e: era[e] == era[r] or lab[e].is_complete)
        seen = 0 if src is None else lab[src].args[-1]
        if src is not None:
            rf.add((src, r))
        if l.method == "mrd":
            assert l.ret is BOT or l.ret == seen
        elif l.ret in (0, 1):
            assert (seen == l.args[1]) == (l.ret == 1)
    assert set(x.sw) == rf
    chain = _close(len(x), [(a, b) for a, b in set(x.po) | set(x.sw) if a in pos and b in pos and era[a] == era[b]])
    nvo = {(a, b) for a, b in chain if a in W and b in W}
    assert set(map(tuple, w["nvo"])) == nvo
    assert all(a in w["P"] for a, b in nvo if b in w["P"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(executions("flit"))
def test_flit_search_matches_eager_reference(x):
    v = check_flit(x)
    assert v.status == ref.check_flit(x).status
    assert dict(v.stats)["stage"] == "linearization enumeration"
    if v:
        _flit_witness_holds(x, v.witness)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(executions("mirror"))
def test_mirror_search_matches_eager_reference(x):
    v = check_mirror(x)
    assert v.status == ref.check_mirror(x).status
    assert dict(v.stats)["stage"] == "linearization enumeration"
    if v:
        _mirror_witness_holds(x, v.witness)
    assert _mirror_sw_hook(x.plain) == ref._mirror_sw_hook(x.plain)


def test_mirror_hook_keeps_the_cut_of_its_reference():
    # seven unordered writes and reads have far more than 2,000 prefixes to
    # extend: the hook keeps the sets found before the cut, as the eager one did
    labels = [
        Label("mwr", (50, 1), None, frozenset(), i) if i % 2 else Label("mrd", (50,), 1, frozenset(), i) for i in range(7)
    ]
    g = PlainExecution(labels, [])
    assert _mirror_sw_hook(g) == ref._mirror_sw_hook(g)
    with pytest.raises(BudgetExceeded):
        list(ref.linear_extensions(g.po_order, budget=[2_000]))
