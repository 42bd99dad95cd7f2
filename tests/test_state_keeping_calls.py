"""The linearization search never places an optional candidate that keeps
the spec state, such as a pending read or a pending constructor: it counts
the candidate as tried and goes on.  Every status it decides must be the
status of the search that placed such candidates too (``kernel_reference``,
kept verbatim), on every caller: history linearizability and durable
linearizability, ``make_durlin_spec`` over the register and the queue, the
weak register and Flit, on random histories and executions of 0-2 crashes
with pending reads, writes, pushes, pops and constructors."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference
from persistcheck import libs, sc
from persistcheck.libs import check_flit, make_durlin_spec, queue_interface, weakreg_interface
from persistcheck.model import BOT, CRASH_EV, History, Inv, Ret, history_to_execution
from persistcheck.sc import (
    PFENCE,
    S_QUEUE,
    S_REGISTER,
    S_WEAKREG,
    check_durably_linearizable,
    check_linearizable,
    weakreg_consistent_execution,
)
from test_flit_mirror_search import executions

LOCS = (10, 11)
MAX_CALLS = 12
#: Each search's budget; a status the reference leaves undecided is not compared.
BUDGET = 20_000

#: Per library: method -> (argument strategies, return strategy).
CALLS = {
    "register": {
        "rnew": ((), st.sampled_from(LOCS)),
        "rwrite": ((st.sampled_from(LOCS), st.integers(1, 2)), st.none()),
        "rread": ((st.sampled_from(LOCS),), st.integers(0, 2)),
        PFENCE: ((), st.none()),
    },
    "queue": {
        "qnew": ((), st.sampled_from(LOCS)),
        "qpush": ((st.sampled_from(LOCS), st.integers(1, 2)), st.none()),
        "qpop": ((st.sampled_from(LOCS),), st.sampled_from([1, 2, None])),
    },
}


@st.composite
def histories(draw, lib, max_crashes):
    """Up to ``MAX_CALLS`` calls of ``lib`` over ``max_crashes + 1`` eras at
    most, each call on a fresh thread.  A call returns at a random later
    point of its era or stays pending; a crash leaves every open call
    pending."""
    methods = CALLS[lib]
    events, tid, calls = [], 0, 0
    for era in range(draw(st.integers(0, max_crashes)) + 1):
        if era:
            events.append(CRASH_EV)
        open_calls = []
        for _ in range(draw(st.integers(0, 2 * MAX_CALLS))):
            if open_calls and draw(st.booleans()):
                t, method = open_calls.pop(draw(st.integers(0, len(open_calls) - 1)))
                events.append(Ret(draw(methods[method][1]), t))
            elif calls < MAX_CALLS:
                method = draw(st.sampled_from(sorted(methods)))
                events.append(Inv(method, tuple(draw(a) for a in methods[method][0]), tid))
                open_calls.append((tid, method))
                tid, calls = tid + 1, calls + 1
    return History(events)


@contextmanager
def reference_kernel():
    """Every search of ``sc`` and ``libs`` run by the reference, which
    takes no ``succs``: it tests every event it scans."""

    def ref(preds, options, must, spec, budget, stats, succs=None):
        return kernel_reference.linearizations(preds, options, must, spec, budget, stats)

    with mock.patch.object(sc, "linearizations", ref), mock.patch.object(libs, "linearizations", ref):
        yield


def assert_same_status(check, *args):
    with reference_kernel():
        want = check(*args)
    got = check(*args)
    if not want.is_budget:
        assert got.status == want.status, (want.stats, got.stats)


#: A pending write must take effect for the read: a search that skipped
#: every optional candidate it did not keep the state with would miss it.
PENDING_WRITE_READ = History([Inv("rwrite", (10, 1), 0), Inv("rread", (10,), 1), Ret(1, 1)])
#: Pending constructors and reads around a read no order explains.
PENDING_NEW_BAD_READ = History(
    [Inv("rnew", (), 0), Inv("rwrite", (10, 1), 1), Ret(None, 1), Inv("rnew", (), 2), Inv("rread", (10,), 3)]
    + [Inv("rread", (10,), 4), Ret(2, 4)]
)
PENDING_QNEW_PUSH_POP = History(
    [Inv("qnew", (), 0), Ret(10, 0), Inv("qnew", (), 1), Inv("qnew", (), 2), Inv("qpush", (10, 1), 3)]
    + [Inv("qpop", (10,), 4), Ret(1, 4)]
)
PENDING_WRITE_AT_CRASH = History([Inv("rwrite", (10, 1), 0), CRASH_EV, Inv("rread", (10,), 1), Ret(1, 1)])


def cases(max_crashes):
    """(library, history) pairs of either library."""
    return st.sampled_from(sorted(CALLS)).flatmap(lambda lib: st.tuples(st.just(lib), histories(lib, max_crashes)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases(0))
@example(("register", PENDING_WRITE_READ))
@example(("register", PENDING_NEW_BAD_READ))
@example(("queue", PENDING_QNEW_PUSH_POP))
def test_history_linearizability_status(case):
    lib, h = case
    spec = S_WEAKREG if lib == "register" else S_QUEUE
    assert_same_status(check_linearizable, h, spec, BUDGET)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases(2))
@example(("register", PENDING_WRITE_AT_CRASH))
@example(("queue", PENDING_QNEW_PUSH_POP))
def test_durable_linearizability_status(case):
    lib, h = case
    spec, iface = (S_REGISTER, weakreg_interface()) if lib == "register" else (S_QUEUE, queue_interface())
    assert_same_status(check_durably_linearizable, h, spec, BUDGET)
    assert_same_status(make_durlin_spec(spec, iface, BUDGET).local_consistent, history_to_execution(h))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(histories("register", 2))
@example(PENDING_WRITE_READ)
@example(PENDING_WRITE_AT_CRASH)
def test_weak_register_status(h):
    assert_same_status(weakreg_consistent_execution, history_to_execution(h), True, BUDGET)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(executions("flit"))
def test_flit_status(x):
    assert_same_status(check_flit, x, BUDGET)


def test_reference_places_what_the_search_skips():
    """The two searches differ where they should: only the reference places
    the pending constructor."""
    h = History([Inv("rnew", (), 0), Inv("rwrite", (10, 1), 1), Ret(None, 1), Inv("rread", (10,), 2), Ret(1, 2)])
    with reference_kernel():
        want = check_linearizable(h, S_WEAKREG)
    got = check_linearizable(h, S_WEAKREG)
    assert [c.ret for c in want.witness] == [BOT, None, 1]
    assert [c.ret for c in got.witness] == [None, 1]
