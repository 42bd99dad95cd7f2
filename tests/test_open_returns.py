"""Open returns: a pending call is placed once, with return ⊥, and takes the
return its sequential spec's state gives.

The checks are compared with the parent code they replaced, kept in
``lin_reference``, which guesses each pending return from a value domain.
The two agree except where the reference completes a pending constructor
with a location that another call names; the differential tests therefore
hand the reference the same input with its pending constructors left out,
and two explicit tests pin the verdicts that changed.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lin_reference
from persistcheck.libs import (
    S_MEM,
    S_MMCOUNTER,
    S_QUEUE_ALIASED,
    S_REG_ABSTRACT,
    _register_iface,
    durqueue_spec,
    execution_linearizable,
    mmcounter_interface,
    queue_interface,
)
from persistcheck.model import BOT, CRASH, Call, Execution, History, Inv, Label, PlainExecution, Ret
from persistcheck.px86 import px86_interface
from persistcheck.sc import S_QUEUE, S_WEAKREG, check_linearizable

X, Y = 10, 11


# --------------------------------------------------------------------------
# Histories
# --------------------------------------------------------------------------

#: kind -> (spec, constructor, [(method, arity, returns a value)])
_HISTORY_LIBS = {
    "register": (S_WEAKREG, "rnew", [("rread", 1, True), ("rwrite", 2, False)]),
    "queue": (S_QUEUE, "qnew", [("qpop", 1, True), ("qpush", 2, False)]),
}


@st.composite
def _histories(draw):
    """A register or queue history on X and Y after a complete constructor
    of X: four to nine more calls, up to eight of them left pending,
    constructors (complete or pending) included.  Each call is invoked,
    takes effect and returns at drawn times, in that order, and takes the
    return the spec's state gives when it takes effect, so most histories
    are linearizable and a pending call that took effect can be needed by a
    later return.  A pending call takes effect three times in four; one
    return in ten is redrawn at random."""
    kind = draw(st.sampled_from(sorted(_HISTORY_LIBS)))
    spec, new, ops = _HISTORY_LIBS[kind]
    call = st.tuples(
        st.sampled_from(ops + [(new, 0, True)]),
        st.sampled_from([X, X, Y]),
        st.sampled_from([1, 2]),
        st.integers(0, 8),
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 9),
    )
    calls = draw(st.lists(call, min_size=4, max_size=9))
    points = []
    for i, ((method, arity, _), loc, val, start, to_effect, to_return, pending, _) in enumerate(calls):
        pending = pending and (i or len(calls) < 9)  # at most eight pending
        points.append((start, 0, i))
        if not pending or to_effect < 3:
            points.append((start + to_effect, 1, i))
        if not pending:
            points.append((start + to_effect + to_return, 2, i))
    events = [Inv(new, (), 0), Ret(X, 0)]
    state = spec.step(spec.init(), Call(new, (), X, 0, frozenset(), 0, 1))
    rets = {}
    for _, phase, i in sorted(points):
        (method, arity, returns), loc, val, _, _, _, _, perturb = calls[i]
        args = () if method == new else (loc, val)[:arity]
        if phase == 0:
            events.append(Inv(method, args, i + 1))
        elif phase == 1:
            candidates = [loc] if method == new else [None, 0, 1, 2]
            rets[i] = candidates[0]  # kept by the history if the spec rejects every one
            for r in candidates:
                nxt = spec.step(state, Call(method, args, r, 0, frozenset(), 0, 1))
                if nxt is not None:
                    state, rets[i] = nxt, r
                    break
        else:
            redraw = returns and method != new and perturb == 0
            events.append(Ret(draw(st.sampled_from([0, 1, 2, None])) if redraw else rets[i], i + 1))
    return kind, History(events)


def _without_pending(h: History, method: str) -> History:
    pending = {c.inv_index for c in h.calls() if c.method == method and not c.is_complete}
    return History([e for i, e in enumerate(h.events) if i not in pending])


# qnew():10 · qpush(10,1) · qpush(10,2) · [qpop(10) pending] · qpop(10):2: the
# pending pop must take the head for the later pop to return 2
_PENDING_POP_TAKES_THE_HEAD = History(
    [Inv("qnew", (), 0), Ret(X, 0), Inv("qpush", (X, 1), 0), Ret(None, 0), Inv("qpush", (X, 2), 0), Ret(None, 0)]
    + [Inv("qpop", (X,), 1), Inv("qpop", (X,), 2), Ret(2, 2)]
)
# rnew():10 · rwrite(10,1) · [rnew() pending] · rread(10):0
_RESET_BY_PENDING_RNEW = History(
    [
        Inv("rnew", (), 0),
        Ret(X, 0),
        Inv("rwrite", (X, 1), 0),
        Ret(None, 0),
        Inv("rnew", (), 1),
        Inv("rread", (X,), 2),
        Ret(0, 2),
    ]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_histories())
@example(("register", _RESET_BY_PENDING_RNEW))
@example(("queue", _PENDING_POP_TAKES_THE_HEAD))
@example(("register", History([Inv("rread", (X,), t) for t in range(8)])))
@example(("queue", History([Inv("qnew", (), 0), Ret(X, 0)] + [Inv("qpop", (X,), t) for t in range(1, 9)])))
def test_open_returns_match_reference_on_histories(case):
    kind, h = case
    spec, new, _ = _HISTORY_LIBS[kind]
    v = check_linearizable(h, spec)
    want = lin_reference.check_linearizable(_without_pending(h, new), spec)
    assert not v.is_budget
    assert v.status == want.status, h


def test_pending_rnew_no_longer_resets_a_written_register():
    # the reference completes the pending rnew() as :10 between the write and
    # the read; with its return open it allocates no named location
    h = _RESET_BY_PENDING_RNEW
    assert lin_reference.check_linearizable(h, S_WEAKREG)
    v = check_linearizable(h, S_WEAKREG)
    assert not v and not v.is_budget
    assert v.reason == "no linearization into weakreg"


def test_pending_calls_are_one_candidate_each():
    # rwrite(10,1), a pending rread(10), then rread(10):1: with an open
    # return the pending read is one candidate, which keeps the state and so
    # is tried but not placed; the reference tries it once per value of its
    # domain (10, 1, 0 and null), and places none, since 1 keeps the state
    h = History(
        [Inv("rwrite", (X, 1), 0), Ret(None, 0), Inv("rread", (X,), 1), Inv("rread", (X,), 2), Ret(1, 2)]
    )
    v = check_linearizable(h, S_WEAKREG)
    assert v and dict(v.stats)["nodes"] == 3
    assert [c.ret for c in v.witness] == [None, 1]
    ref = lin_reference.check_linearizable(h, S_WEAKREG)
    assert ref and dict(ref.stats)["nodes"] == 6
    assert [c.ret for c in ref.witness] == [None, 1]


# --------------------------------------------------------------------------
# Executions
# --------------------------------------------------------------------------

#: lib -> (spec, interface, constructor, write, read, location)
_EXEC_LIBS = {
    "reg": (S_REG_ABSTRACT, _register_iface(), "regnew", "regwrite", "regread", 101),
    "queue": (S_QUEUE_ALIASED, queue_interface(), "qnew", "qpush", "qpop", 201),
    "mmcounter": (S_MMCOUNTER, mmcounter_interface(), "mmnew", "mmadd", "mmmin", 301),
    "scmem": (S_MEM, px86_interface(), "alloc", "store", "load", 401),
}
_CONSTRUCTORS = {lib[2] for lib in _EXEC_LIBS.values()}


def _mmcounter_keep(l, last):
    # before the last era only constructors and Ptr-tagged calls count
    if last or "Ptr" in l.tags or l.method in _CONSTRUCTORS:
        return "keep" if l.is_complete else "optional"
    return "drop"


def _prefix_keep(l, last):
    # every call of an earlier era may be left out, complete or not
    return "keep" if last and l.is_complete else "optional"


_KEEPS = {"default": None, "mmcounter": _mmcounter_keep, "prefix": _prefix_keep}


def _pending_ctors_dropped(keep):
    def k(l, last):
        if l.method in _CONSTRUCTORS and not l.is_complete:
            return "drop"
        return keep(l, last) if keep else "keep" if l.is_complete else "optional"

    return k


@st.composite
def _executions(draw):
    """Executions of 1-3 eras (0-2 crashes) over one library, 1-2 threads per
    era with 1-2 calls each, at most seven calls; a thread's last call may be
    pending (constructors included), and up to three forward sw edges."""
    lib = draw(st.sampled_from(sorted(_EXEC_LIBS)))
    _, _, new, write, read, loc = _EXEC_LIBS[lib]
    labels, po = [], []
    tid = 0
    for era in range(draw(st.integers(0, 2)) + 1):
        if era:
            labels.append(CRASH)
            po += [(e, len(labels) - 1) for e in range(len(labels) - 1)]
        first = len(labels)
        for _ in range(draw(st.integers(1, 2))):
            length = draw(st.integers(1, 2)) if len(labels) < 6 + era else 0
            for k in range(length):
                method = draw(st.sampled_from([new, write, read, read]))
                tags = {"Ptr"} if draw(st.booleans()) else set()
                done = k < length - 1 or draw(st.booleans())
                if method == new:
                    args, ret = (), loc
                elif method == write:
                    args, ret = (loc, draw(st.sampled_from([1, 2]))), None
                else:
                    args, ret = (loc,), draw(st.sampled_from([0, 1, 2, None]))
                if k:
                    po.append((len(labels) - 1, len(labels)))
                labels.append(Label(method, args, ret if done else BOT, frozenset(tags), tid))
            tid += 1
        if era:
            po += [(first - 1, e) for e in range(first, len(labels))]
    n = len(labels)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    return lib, labels, po, [(a, b) for a, b in edges if a < b]


# [qpush(201,1):None, qnew() pending], no po: the reference completes the
# pending qnew() as :201 and places it before the push
_QUEUE_ADOPTED = ("queue", [Label("qpush", (201, 1), None, frozenset(), 0), Label("qnew", (), BOT, frozenset(), 1)], [], [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_executions(), st.sampled_from(sorted(_KEEPS)))
@example(_QUEUE_ADOPTED, "default")
def test_open_returns_match_reference_on_executions(case, keep):
    lib, labels, po, sw = case
    spec, iface = _EXEC_LIBS[lib][:2]
    x = Execution(PlainExecution(labels, po), sw)
    v = execution_linearizable(x, spec, keep=_KEEPS[keep])
    want = lin_reference.execution_linearizable(x, spec, iface, keep=_pending_ctors_dropped(_KEEPS[keep]))
    assert not v.is_budget
    assert v.status == want.status, (labels, po, sw)


def test_pending_qnew_is_no_longer_adopted_by_a_push():
    _, labels, po, sw = _QUEUE_ADOPTED
    x = Execution(PlainExecution(labels, po), sw)
    assert lin_reference.execution_linearizable(x, S_QUEUE_ALIASED, queue_interface())
    v = durqueue_spec().local_consistent(x)
    assert not v and not v.is_budget
    assert v.reason == "no linearization into queue"
