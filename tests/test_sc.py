"""SC reference machinery: happens-before, (durable) linearizability, the
sequential queue/register specs, and the weak persistent register.

The linearizability checker is validated against a naive all-permutations
oracle; derived expected values come from that oracle.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persistcheck.framework import BudgetExceeded, linear_extensions

from persistcheck.model import CRASH_EV, History, Inv, Ret
from persistcheck.sc import (
    PFENCE,
    S_QUEUE,
    S_WEAKREG,
    check_durably_linearizable,
    check_linearizable,
    check_weakreg_consistent,
    _returns_before_invokes,
    completions_and_truncations,
    happens_before,
    iter_completions,
    s_queue,
    s_weakreg,
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
    assert check_linearizable(History(events), S_WEAKREG, domain=[0])
    # two complete calls need two candidate calls tried; a budget of one
    # stops the search
    events += [Inv("rread", (X,), 8), Ret(0, 8), Inv("rread", (Y,), 9), Ret(0, 9)]
    v = check_linearizable(History(events), S_WEAKREG, domain=[0], budget=1)
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
    """The lazy search gives the eager search's verdict, pending calls of
    non-void methods ranging over a two-value domain."""
    kind, h = case
    spec = S_QUEUE if kind == "queue" else S_WEAKREG
    v = check_linearizable(h, spec, domain=[0, 1])
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
        want = bool(check_linearizable(h, S_WEAKREG, domain=[None]))
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
