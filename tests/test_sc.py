"""SC reference machinery: happens-before, (durable) linearizability, the
sequential queue/register specs, and the weak persistent register.

The linearizability checker is validated against a naive all-permutations
oracle; derived expected values come from that oracle.
"""

import itertools
import random
from typing import FrozenSet, Iterable, List, Set, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lin_reference
import mask_reference
from definitions import s_queue, s_weakreg
from eager_reference import linear_extensions
from persistcheck.framework import BudgetExceeded, Verdict

from persistcheck.model import CRASH_EV, Call, History, Inv, Order, Ret
from persistcheck.sc import (
    PFENCE,
    S_QUEUE,
    S_WEAKREG,
    WEAKREG_METHODS,
    WeakRegWitness,
    check_durably_linearizable,
    check_linearizable,
    check_weakreg_consistent,
    _returns_before_invokes,
    completions_and_truncations,
    happens_before,
    iter_completions,
)

X, Y = 10, 11


# --------------------------------------------------------------------------
# Oracle: brute-force linearizability
# --------------------------------------------------------------------------


def oracle_linearizable(h, spec, domain=None):
    """Brute force: enumerate every linear extension of hb for every
    completion/truncation and run the full recognizer on each (no
    spec-driven pruning, unlike the checker)."""

    def extensions(remaining, hb):
        if not remaining:
            yield []
            return
        for i in sorted(remaining):
            if any(a in remaining for (a, b) in hb if b == i):
                continue
            for rest in extensions(remaining - {i}, hb):
                yield [i] + rest

    for hh in iter_completions(h, domain):
        calls = hh.calls()
        hb = happens_before(hh)
        for order in extensions(set(range(len(calls))), hb):
            if spec.accepts([calls[i] for i in order]):
                return True
    return False


# --------------------------------------------------------------------------
# Histories used throughout
# --------------------------------------------------------------------------


def two_order_weakreg_history(pfence=False):
    """The classic weak-register history: t3 sees y=1 but x=0 before the
    crash; afterwards y=0 and x=1 (volatile and persist orders disagree).
    The post-crash thread is t5 to satisfy thread freshness."""
    pre = [
        Inv("rwrite", (X, 1), 1),
        Inv("rwrite", (Y, 1), 2),
        Inv("rread", (Y,), 3),
        Ret(1, 3),
        Inv("rread", (X,), 3),
        Ret(0, 3),
    ]
    if pfence:
        pre += [Inv(PFENCE, (), 4), Ret(None, 4)]
    post = [
        Inv("rread", (Y,), 5),
        Ret(0, 5),
        Inv("rread", (X,), 5),
        Ret(1, 5),
    ]
    return History(pre + [CRASH_EV] + post)


# --------------------------------------------------------------------------
# happens-before
# --------------------------------------------------------------------------


def test_hb_single_call():
    h = History([Inv("rread", (X,), 0), Ret(0, 0)])
    assert happens_before(h) == frozenset()


def test_hb_sequential_two_calls():
    h = History([Inv("a", (), 0), Ret(None, 0), Inv("b", (), 1), Ret(None, 1)])
    assert happens_before(h) == frozenset({(0, 1)})


def test_hb_overlapping_incomparable():
    h = History([Inv("a", (), 0), Inv("b", (), 1), Ret(None, 0), Ret(None, 1)])
    assert happens_before(h) == frozenset()


def test_hb_interval_order_2plus2_free():
    # hb of any history is an interval order: no a<b, c<d with a≮d and c≮b
    rng = random.Random(42)
    for _ in range(60):
        events = []
        open_threads = {}
        tid = 0
        for _ in range(rng.randint(0, 10)):
            if open_threads and rng.random() < 0.5:
                t = rng.choice(sorted(open_threads))
                events.append(Ret(None, t))
                del open_threads[t]
            else:
                events.append(Inv("m", (), tid))
                open_threads[tid] = True
                tid += 1
        h = History(events)
        hb = happens_before(h)
        for (a, b) in hb:
            for (c, d) in hb:
                assert (a, d) in hb or (c, b) in hb


# --------------------------------------------------------------------------
# Completions and truncations
# --------------------------------------------------------------------------


def test_completions_complete_history():
    h = History([Inv("a", (), 0), Ret(None, 0)])
    assert completions_and_truncations(h) == [h]


def test_completions_one_incomplete():
    h = History([Inv("rread", (X,), 0)])
    out = completions_and_truncations(h, domain=[0, 1])
    assert len(out) == 3  # dropped, ret 0, ret 1


def test_completions_two_incomplete_product():
    h = History([Inv("rread", (X,), 0), Inv("rread", (Y,), 1)])
    out = completions_and_truncations(h, domain=[0, 1])
    assert len(out) == 9


def test_completions_budget():
    # eight pending reads: each may be left out, so the history is
    # linearizable however many calls are pending
    events = [Inv("rread", (X,), t) for t in range(8)]
    assert check_linearizable(History(events), S_WEAKREG)
    # two complete calls need two candidate calls tried; a budget of one
    # stops the search
    events += [Inv("rread", (X,), 8), Ret(0, 8), Inv("rread", (Y,), 9), Ret(0, 9)]
    v = check_linearizable(History(events), S_WEAKREG, budget=1)
    assert v.is_budget
    assert dict(v.stats)["stage"] == "linearization search"


# --------------------------------------------------------------------------
# Sequential specs
# --------------------------------------------------------------------------


def _call(method, args, ret, thread=0):
    h = History([Inv(method, args, thread), Ret(ret, thread)])
    return h.calls()[0]


def test_s_queue_examples():
    new = _call("qnew", (), X)
    assert s_queue([new, _call("qpush", (X, 1), None), _call("qpop", (X,), 1)])
    assert s_queue([new, _call("qpop", (X,), None)])  # pop on empty: null
    assert not s_queue([new, _call("qpush", (X, 1), None), _call("qpush", (X, 2), None), _call("qpop", (X,), 2)])


def test_s_queue_fifo_two_pops():
    new = _call("qnew", (), X)
    seq = [
        new,
        _call("qpush", (X, 1), None),
        _call("qpush", (X, 2), None),
        _call("qpop", (X,), 1),
        _call("qpop", (X,), 2),
        _call("qpop", (X,), None),
    ]
    assert s_queue(seq)


def test_s_weakreg_examples():
    assert s_weakreg([_call("rnew", (), X), _call("rwrite", (X, 1), None), _call("rread", (X,), 1)])
    assert s_weakreg([_call("rnew", (), X), _call("rread", (X,), 0)])
    assert not s_weakreg([_call("rwrite", (X, 1), None), _call("rwrite", (X, 2), None), _call("rread", (X,), 1)])


# --------------------------------------------------------------------------
# Linearizability
# --------------------------------------------------------------------------


def test_linearizable_queue_concurrent_push_pop():
    h = History(
        [
            Inv("qnew", (), 0),
            Ret(X, 0),
            Inv("qpush", (X, 1), 0),
            Inv("qpop", (X,), 1),
            Ret(1, 1),
            Ret(None, 0),
        ]
    )
    assert bool(check_linearizable(h, S_QUEUE)) == oracle_linearizable(h, S_QUEUE)
    assert check_linearizable(h, S_QUEUE)


def test_not_linearizable_pop_wrong_value():
    h = History(
        [
            Inv("qnew", (), 0),
            Ret(X, 0),
            Inv("qpush", (X, 1), 0),
            Ret(None, 0),
            Inv("qpop", (X,), 1),
            Ret(2, 1),
        ]
    )
    assert not check_linearizable(h, S_QUEUE)
    assert not oracle_linearizable(h, S_QUEUE)


def test_empty_history_linearizable():
    assert check_linearizable(History([]), S_QUEUE)


def test_linearizable_rejects_crash():
    h = History([Inv("a", (), 0), Ret(None, 0), CRASH_EV])
    with pytest.raises(ValueError):
        check_linearizable(h, S_QUEUE)


def _random_register_history(rng, max_calls=6):
    events = []
    open_threads = {}
    tid = 0
    calls = 0
    while calls < max_calls and len(events) < 2 * max_calls:
        roll = rng.random()
        if open_threads and roll < 0.4:
            t = rng.choice(sorted(open_threads))
            kind = open_threads.pop(t)
            events.append(Ret(rng.choice([0, 1, None]) if kind == "r" else None, t))
        elif roll < 0.9:
            if rng.random() < 0.5:
                events.append(Inv("rread", (rng.choice([X, Y]),), tid))
                open_threads[tid] = "r"
            else:
                events.append(Inv("rwrite", (rng.choice([X, Y]), rng.choice([1, 2])), tid))
                open_threads[tid] = "w"
            tid += 1
            calls += 1
        else:
            break
    return History(events)


def test_linearizable_agrees_with_oracle_on_random_histories():
    rng = random.Random(1234)
    for _ in range(120):
        h = _random_register_history(rng)
        got = bool(check_linearizable(h, S_WEAKREG))
        want = oracle_linearizable(h, S_WEAKREG)
        assert got == want, f"disagreement on {h!r}"


def _eager_linearizable(h, spec, domain=None, budget=200_000):
    """The eager search that check_linearizable replaced: every completion
    and truncation of h built as a History, then a linear-extension search
    of each.  Returns True, False, or None (budget exceeded)."""
    remaining = [budget]
    try:
        for hh in iter_completions(h, domain, limit=10):
            calls = hh.calls()
            for _ in linear_extensions(
                _returns_before_invokes(calls),
                step=lambda st, i: spec.step(st, calls[i]),
                state=spec.init(),
                budget=remaining,
            ):
                return True
    except BudgetExceeded:
        return None
    return False


_HISTORY_OPS = {
    "register": [("rread", 1, True), ("rwrite", 2, False)],
    "queue": [("qpop", 1, True), ("qpush", 2, False)],
}


@st.composite
def _pending_histories(draw):
    """A register or queue history on X (a queue made by a complete qnew
    first) with up to nine calls, up to eight of them left pending."""
    kind = draw(st.sampled_from(sorted(_HISTORY_OPS)))
    events = [Inv("qnew", (), 0), Ret(X, 0)] if kind == "queue" else []
    tid = 1
    open_calls = {}
    for _ in range(draw(st.integers(1, 9))):
        if open_calls and draw(st.booleans()):
            t = draw(st.sampled_from(sorted(open_calls)))
            events.append(Ret(draw(st.sampled_from([0, 1, 2, None])) if open_calls.pop(t) else None, t))
        method, arity, returns = draw(st.sampled_from(_HISTORY_OPS[kind]))
        events.append(Inv(method, (X, draw(st.sampled_from([1, 2])))[:arity], tid))
        open_calls[tid] = returns
        tid += 1
    while len(open_calls) > 8 or (open_calls and draw(st.booleans())):
        t = min(open_calls)
        events.append(Ret(draw(st.sampled_from([0, 1, 2, None])) if open_calls.pop(t) else None, t))
    return kind, History(events)


# a complete read of X returning 0, and one returning 1
_READ_0, _READ_1 = ([Inv("rread", (X,), 2), Ret(v, 2)] for v in (0, 1))
# w1 w2 and w2 w1 place the same calls but leave 2 and 1 in X
_SAME_SET_OTHER_STATE = History([Inv("rwrite", (X, 1), 0), Inv("rwrite", (X, 2), 1), Ret(None, 0), Ret(None, 1)] + _READ_1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pending_histories())
@example(("register", History([Inv("rread", (X,), t) for t in range(8)])))
@example(("register", _SAME_SET_OTHER_STATE))
@example(("queue", History([Inv("qnew", (), 0), Ret(X, 0)] + [Inv("qpop", (X,), t) for t in range(1, 9)])))
def test_lazy_linearizable_differential(case):
    """The lazy search of the kept reference gives the eager search's
    verdict, pending calls of non-void methods ranging over a two-value
    domain (the open-return check takes no domain; ``test_open_returns``
    compares it with this reference)."""
    kind, h = case
    spec = S_QUEUE if kind == "queue" else S_WEAKREG
    v = lin_reference.check_linearizable(h, spec, domain=[0, 1])
    assert not v.is_budget
    assert bool(v) == _eager_linearizable(h, spec, domain=[0, 1]), h


def test_linearizable_stats_on_every_verdict():
    # the pending rwrite (one candidate), then rread:1; the pending rread is
    # left out
    ok = History([Inv("rwrite", (X, 1), 0), Inv("rread", (X,), 1), Ret(1, 1), Inv("rread", (X,), 2)])
    # w0 w1 r fails, and w1 w0 reaches the same (placed, state) pair
    bad = History([Inv("rwrite", (X, 1), 0), Inv("rwrite", (X, 1), 1), Ret(None, 0), Ret(None, 1)] + _READ_0)
    v, w = check_linearizable(ok, S_WEAKREG), check_linearizable(bad, S_WEAKREG)
    assert v and not w
    assert dict(v.stats) == {"stage": "linearization search", "nodes": 2, "memo_hits": 0}
    assert dict(w.stats) == {"stage": "linearization search", "nodes": 5, "memo_hits": 1}
    # the weak-register search reports on both outcomes too
    u = check_weakreg_consistent(two_order_weakreg_history())
    z = check_weakreg_consistent(two_order_weakreg_history(pfence=True), with_pfence=True)
    assert u and not z
    assert dict(u.stats) == {"stage": "weakreg lin/nvo search", "nodes": 42, "memo_hits": 8}
    assert dict(z.stats) == {"stage": "weakreg lin/nvo search", "nodes": 49, "memo_hits": 9}


@pytest.mark.parametrize("k, nodes, memo_hits", [(0, 4, 0), (4, 113, 49), (8, 2_817, 1_793)])
def test_pending_reads_budget_unit(k, nodes, memo_hits):
    """The budget unit, one node per candidate tried: ``rwrite(10,1):None ·
    rwrite(10,2) ∥ rread(10):0`` with k pending ``rread(10)`` calls invoked
    before the read returns.  Each subset of the pending reads is searched
    once, since the memo key holds the placed-or-dropped mask."""
    h = History(
        [Inv("rwrite", (X, 1), 0), Ret(None, 0), Inv("rwrite", (X, 2), 0), Inv("rread", (X,), 1)]
        + [Inv("rread", (X,), 2 + j) for j in range(k)]
        + [Ret(0, 1)]
    )
    v = check_linearizable(h, S_WEAKREG)
    assert v.status == "inconsistent"
    assert dict(v.stats) == {"stage": "linearization search", "nodes": nodes, "memo_hits": memo_hits}


# --------------------------------------------------------------------------
# Durable linearizability
# --------------------------------------------------------------------------


def test_durlin_two_order_history_rejected():
    h = two_order_weakreg_history()
    assert not check_durably_linearizable(h, S_WEAKREG)


def test_durlin_crash_free_equals_linearizable():
    rng = random.Random(99)
    for _ in range(40):
        h = _random_register_history(rng, max_calls=5)
        assert bool(check_durably_linearizable(h, S_WEAKREG)) == bool(
            check_linearizable(h, S_WEAKREG)
        )


def test_durlin_queue_across_crash():
    h = History(
        [
            Inv("qnew", (), 0),
            Ret(X, 0),
            Inv("qpush", (X, 1), 0),
            Ret(None, 0),
            CRASH_EV,
            Inv("qpop", (X,), 9),
            Ret(1, 9),
        ]
    )
    assert check_durably_linearizable(h, S_QUEUE)
    # and the completed push may not be lost
    h2 = History(
        [
            Inv("qnew", (), 0),
            Ret(X, 0),
            Inv("qpush", (X, 1), 0),
            Ret(None, 0),
            CRASH_EV,
            Inv("qpop", (X,), 9),
            Ret(None, 9),
        ]
    )
    assert not check_durably_linearizable(h2, S_QUEUE)


# --------------------------------------------------------------------------
# Weak persistent registers
# --------------------------------------------------------------------------


def test_two_order_weakreg_history_consistent():
    v = check_weakreg_consistent(two_order_weakreg_history(), with_pfence=False)
    assert v
    # nvo of era 1 must order W(x,1) before W(y,1)... only the persisted-set
    # shape is asserted: x's write persisted, y's did not.
    w = v.witness
    assert any(0 in p for p in w.persisted)  # call 0 = rwrite(x,1)
    assert all(1 not in p for p in w.persisted)  # call 1 = rwrite(y,1)


def test_weakreg_history_with_pfence_inconsistent():
    v = check_weakreg_consistent(two_order_weakreg_history(pfence=True), with_pfence=True)
    assert not v


def test_weakreg_single_era_equals_linearizability():
    rng = random.Random(31)
    for _ in range(40):
        h = _random_register_history(rng, max_calls=4)
        got = bool(check_weakreg_consistent(h))
        want = bool(check_linearizable(h, S_WEAKREG))
        assert got == want, f"disagreement on {h!r}"


def test_weakreg_rejects_foreign_methods():
    h = History([Inv("qpush", (X, 1), 0), Ret(None, 0)])
    with pytest.raises(ValueError):
        check_weakreg_consistent(h)


def test_weakreg_completed_write_must_be_readable_same_era():
    h = History(
        [
            Inv("rwrite", (X, 1), 0),
            Ret(None, 0),
            Inv("rread", (X,), 1),
            Ret(0, 1),
        ]
    )
    # read overlaps nothing: write returned before the read began
    assert not check_weakreg_consistent(h)


def test_durlin_implies_weakreg_on_random_corpus():
    rng = random.Random(2718)
    n_checked = 0
    for _ in range(60):
        h = _random_register_history(rng, max_calls=4)
        # maybe insert a crash in the middle (fresh threads afterwards)
        evs = list(h.events)
        if rng.random() < 0.5 and evs:
            cut = rng.randrange(len(evs))
            open_pre = {e.thread for e in evs[:cut] if isinstance(e, Inv)}
            post = [
                e
                for e in evs[cut:]
                if isinstance(e, Inv) and e.thread not in open_pre
            ]
            # keep matched returns of surviving post invocations
            kept_threads = {e.thread for e in post}
            post_full = [
                e
                for e in evs[cut:]
                if (isinstance(e, Inv) and e.thread in kept_threads)
                or (isinstance(e, Ret) and e.thread in kept_threads and e.thread not in open_pre)
            ]
            try:
                h = History(evs[:cut] + [CRASH_EV] + post_full)
            except ValueError:
                continue
        if bool(check_durably_linearizable(h, S_WEAKREG)):
            n_checked += 1
            assert check_weakreg_consistent(h), f"weakreg rejected durlin history {h!r}"
    assert n_checked >= 10


def test_weakreg_witness_serializes():
    import json

    v = check_weakreg_consistent(two_order_weakreg_history())
    d = v.witness.to_json_dict()
    assert set(d) == {"lin", "nvo", "P", "mo", "took_effect_incomplete"}
    json.dumps(d)


def test_weakreg_three_eras():
    # value persisted in era 1 stays readable in era 3; an unpersisted write
    # from era 2 can be lost while era 1's survives
    h = History(
        [
            Inv("rwrite", (X, 1), 0),
            Ret(None, 0),
            Inv(PFENCE, (), 0),
            Ret(None, 0),
            CRASH_EV,
            Inv("rwrite", (X, 2), 5),
            CRASH_EV,
            Inv("rread", (X,), 9),
            Ret(1, 9),
        ]
    )
    assert check_weakreg_consistent(h, with_pfence=True)
    # but a value nobody wrote is not readable
    h2 = History(
        [
            Inv("rwrite", (X, 1), 0),
            Ret(None, 0),
            CRASH_EV,
            CRASH_EV,
            Inv("rread", (X,), 9),
            Ret(3, 9),
        ]
    )
    assert not check_weakreg_consistent(h2)


# --------------------------------------------------------------------------
# Weak register: the one lazy search against the eager k-sequentialization
# enumerator it replaced (kept here, verbatim, as the reference)
# --------------------------------------------------------------------------


def _is_write(c: Call) -> bool:
    return c.method == "rwrite"


def _is_fence(c: Call) -> bool:
    return c.method == PFENCE


def _is_new(c: Call) -> bool:
    return c.method == "rnew"


def _durable(c: Call) -> bool:
    return _is_write(c) or _is_new(c) or _is_fence(c)


def _complete_call(c: Call) -> Call:
    if c.is_complete:
        return c
    return Call(c.method, c.args, None, c.thread, c.tags, c.inv_index, None)


def _eager_weakreg_consistent(
    h: History, with_pfence: bool = False, budget: int = 500_000
) -> Verdict:
    """Weak persistent register consistency of an SC history.

    Searches for per-era volatile orders lin_i (extending happens-before),
    persisted durable subsets P_i with persist orders nvo_i, such that for
    every k ≤ #eras the sequence P_1·…·P_{k-1}·lin_k belongs to the
    sequential register spec.  Same-location writes must be ordered the same
    way by lin and nvo (the shared mo).  With the fence rule enabled, writes
    volatile-ordered before an executed PFENCE must persist before it.

    Incomplete writes may take effect and may persist (both searched);
    incomplete reads, news, and fences are truncated (their inclusion never
    enables additional behaviour).
    """
    calls = h.calls()
    hb = _returns_before_invokes(calls)
    eras_hist = h.eras()
    era_calls: List[List[int]] = []
    seen = 0
    for ehist in eras_hist:
        k = len(ehist.calls())
        era_calls.append(list(range(seen, seen + k)))
        seen += k
    return _weakreg_search(calls, era_calls, hb, with_pfence, budget)


def _weakreg_search(
    calls: List[Call],
    era_calls: List[List[int]],
    hb: Order,
    with_pfence: bool,
    budget: int,
) -> Verdict:
    for c in calls:
        if c.method not in WEAKREG_METHODS:
            raise ValueError(f"not a weak-register call: {c!r}")
        if _is_fence(c) and not with_pfence:
            raise ValueError("history uses PFENCE but the fence rule is disabled")
    n = len(era_calls)
    counter = [budget]
    stage = "weakreg lin/nvo search"

    def wloc(j):
        c = calls[j]
        return c.ret if _is_new(c) else c.args[0]

    def era_options(i: int, need_persist: bool):
        """(A, lin, P, nvo) choices for era i, deterministically ordered."""
        idxs = era_calls[i]
        complete = [j for j in idxs if calls[j].is_complete]
        inc_writes = [j for j in idxs if not calls[j].is_complete and _is_write(calls[j])]
        for included in itertools.chain.from_iterable(
            itertools.combinations(inc_writes, r) for r in range(len(inc_writes) + 1)
        ):
            a_set = sorted(set(complete) | set(included))
            for ext in linear_extensions(hb.restrict(a_set), budget=counter, stage=stage):
                lin_i = [a_set[k] for k in ext]
                pos = {j: p for p, j in enumerate(lin_i)}
                if not need_persist:
                    yield a_set, lin_i, frozenset(), ()
                    continue
                durable = [j for j in lin_i if _durable(calls[j])]
                required: Set[int] = set()
                if with_pfence:
                    for f in lin_i:
                        if not _is_fence(calls[f]):
                            continue
                        required.add(f)
                        for w in lin_i:
                            if _is_write(calls[w]) and pos[w] < pos[f]:
                                required.add(w)
                optional = [j for j in durable if j not in required]
                for extra in itertools.chain.from_iterable(
                    itertools.combinations(optional, r) for r in range(len(optional) + 1)
                ):
                    p_set = frozenset(required | set(extra))
                    members = [j for j in lin_i if j in p_set]
                    # nvo constraints: per-location write order follows lin
                    # (allocation acts as the initial-value write), and
                    # fenced writes persist before their fence
                    nvo_pairs: Set[Tuple[int, int]] = set()
                    ws = [j for j in members if _is_write(calls[j]) or _is_new(calls[j])]
                    for a, b in itertools.combinations(ws, 2):
                        if wloc(a) == wloc(b):
                            nvo_pairs.add((a, b) if pos[a] < pos[b] else (b, a))
                    if with_pfence:
                        for f in members:
                            if not _is_fence(calls[f]):
                                continue
                            for w in a_set:
                                if _is_write(calls[w]) and pos[w] < pos[f]:
                                    if w not in p_set:
                                        nvo_pairs = None  # unsatisfiable
                                        break
                                    nvo_pairs.add((w, f))
                            if nvo_pairs is None:
                                break
                    if nvo_pairs is None:
                        continue
                    # one linear extension suffices: persisted contributions
                    # hold no reads, so any k-sequentialization verdict only
                    # depends on the per-location last persisted write, which
                    # mo pins identically in every extension
                    ordered = sorted(members)
                    ix = {j: k for k, j in enumerate(ordered)}
                    nvo = Order.close(len(ordered), [(ix[a], ix[b]) for a, b in nvo_pairs])
                    for nvo_ext in linear_extensions(nvo, budget=counter, stage=stage):
                        yield a_set, lin_i, p_set, tuple(ordered[k] for k in nvo_ext)
                        break

    def seq_for(indices: Iterable[int]) -> List[Call]:
        return [_complete_call(calls[j]) for j in indices]

    def search(i: int, chosen: List[Tuple[List[int], List[int], FrozenSet[int], Tuple[int, ...]]]):
        if i == n:
            return list(chosen)
        need_persist = i < n - 1
        for opt in era_options(i, need_persist):
            chosen.append(opt)
            # check k = i+1 now: persisted prefixes of eras < i+1 then lin_{i+1}
            seq: List[Call] = []
            for a_set, lin_j, p_j, nvo_j in chosen[:-1]:
                seq.extend(seq_for(nvo_j))
            seq.extend(seq_for(chosen[-1][1]))
            if S_WEAKREG.accepts(seq):
                res = search(i + 1, chosen)
                if res is not None:
                    return res
            chosen.pop()
        return None

    try:
        found = search(0, [])
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if found is None:
        return Verdict.fail("no k-sequentialization family exists")
    lin = tuple(tuple(o[1]) for o in found)
    nvo = tuple(tuple(o[3]) for o in found)
    persisted = tuple(frozenset(o[2]) for o in found)
    completed = frozenset(
        j for o in found for j in o[0] if not calls[j].is_complete
    )
    mo: List[Tuple[int, int]] = []
    for o in found:
        pos = {j: p for p, j in enumerate(o[1])}
        ws = [j for j in o[1] if _is_write(calls[j])]
        for a, b in itertools.combinations(ws, 2):
            if calls[a].args[0] == calls[b].args[0]:
                mo.append((a, b) if pos[a] < pos[b] else (b, a))
    return Verdict.ok(WeakRegWitness(lin, nvo, persisted, tuple(mo), completed))


def _weakreg_checked_witness(h, w):
    """An independent check of a witness: each lin_i holds era i's complete
    calls plus some of its incomplete writes and extends hb; for every k the
    persisted calls of eras < k (in persist order) followed by lin_k are
    accepted by S_WEAKREG; nvo orders P_i and keeps lin's per-location write
    order; in non-last eras every fence and every write before it persist."""
    calls = h.calls()
    crashes = [i for i, e in enumerate(h.events) if e == CRASH_EV]
    era = [sum(p < c.inv_index for p in crashes) for c in calls]
    hb = happens_before(h)
    last = len(crashes)
    assert len(w.lin) == len(w.nvo) == len(w.persisted) == last + 1
    for k, lin_k in enumerate(w.lin):
        pos = {j: p for p, j in enumerate(lin_k)}
        assert len(pos) == len(lin_k)
        assert all(era[j] == k and (calls[j].is_complete or calls[j].method == "rwrite") for j in lin_k)
        assert {j for j, c in enumerate(calls) if era[j] == k and c.is_complete} <= set(pos)
        assert all(pos[a] < pos[b] for a, b in hb if a in pos and b in pos)
        assert len(w.nvo[k]) == len(w.persisted[k]) and set(w.nvo[k]) == w.persisted[k] <= set(pos)
        writes = [j for j in w.nvo[k] if not _is_fence(calls[j])]
        assert all(pos[a] < pos[b] for a, b in itertools.combinations(writes, 2) if _wloc(calls[a]) == _wloc(calls[b]))
        seq = [j for i in range(k) for j in w.nvo[i]] + list(lin_k)
        assert S_WEAKREG.accepts(_complete_call(calls[j]) for j in seq)
        if k == last:
            assert not w.persisted[k]
            continue
        fences = [pos[j] for j in lin_k if _is_fence(calls[j])]
        fenced = [j for j in lin_k if fences and pos[j] <= max(fences) and calls[j].method in ("rwrite", PFENCE)]
        assert set(fenced) <= w.persisted[k]
    assert w.completed_incomplete == {j for lin_k in w.lin for j in lin_k if not calls[j].is_complete}


def _wloc(c):
    return c.ret if _is_new(c) else c.args[0]


@st.composite
def _weakreg_crash_histories(draw):
    """Up to three eras of up to three fresh threads with one or two calls
    each on two locations; a thread's last call may be pending at the crash
    (or at the end), and PFENCE appears only with the fence rule on."""
    fence = draw(st.booleans())
    methods = ["rnew", "rwrite", "rread"] + ([PFENCE] if fence else [])
    events, tid = [], 0
    for k in range(draw(st.integers(1, 3))):
        if k:
            events.append(CRASH_EV)
        threads = []
        for _ in range(draw(st.integers(1, 3))):
            evs = []
            for _ in range(draw(st.integers(1, 2))):
                m, loc = draw(st.sampled_from(methods)), draw(st.sampled_from([X, Y]))
                args = {"rnew": (), "rwrite": (loc, draw(st.integers(1, 2))), "rread": (loc,), PFENCE: ()}[m]
                evs += [Inv(m, args, tid), Ret({"rnew": loc, "rread": draw(st.integers(0, 2))}.get(m), tid)]
            if draw(st.booleans()):
                evs.pop()
            threads.append(evs)
            tid += 1
        while any(threads):
            live = [t for t in threads if t]
            events.append(live[draw(st.integers(0, len(live) - 1))].pop(0))
    return fence, History(events)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_weakreg_crash_histories())
@example((False, two_order_weakreg_history()))
@example((True, two_order_weakreg_history(pfence=True)))
def test_weakreg_lazy_search_differential(case):
    """The lazy search decides as the eager enumerator does, and each
    witness it finds passes the independent k-sequentialization check."""
    fence, h = case
    v = check_weakreg_consistent(h, with_pfence=fence)
    assert not v.is_budget
    assert bool(v) == bool(_eager_weakreg_consistent(h, with_pfence=fence)), h
    if v:
        _weakreg_checked_witness(h, v.witness)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_weakreg_crash_histories(), st.sampled_from([4, 12, 500_000]))
@example((False, two_order_weakreg_history()), 500_000)
@example((True, two_order_weakreg_history(pfence=True)), 500_000)
def test_weakreg_history_check_is_the_execution_check(case, budget):
    """A history's weak-register check, the execution check on
    ``history_to_execution(h)``, gives the verdict its own history set-up
    gave (``mask_reference``): status, reason, witness and stats, budget
    verdicts included."""
    fence, h = case
    assert check_weakreg_consistent(h, fence, budget) == mask_reference.check_weakreg_consistent(h, fence, budget)
