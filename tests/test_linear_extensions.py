"""The one linearization search (``sc.linearizations``), run as a
linear-extension enumerator, against a brute-force filter of
``itertools.permutations``; the eager enumerator it replaced, kept as a test
reference, against the same filter; and the budget stage names the callers
of the search report."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import linear_extensions
from persistcheck.framework import BudgetExceeded
from persistcheck.libs import check_flit, check_mirror, durqueue_spec
from persistcheck.model import CRASH, Execution, History, Inv, Label, Order, Ret, sequence_execution
from persistcheck.sc import (
    ANY_ORDER,
    S_WEAKREG,
    SequentialSpec,
    check_linearizable,
    era_preds,
    linearizations,
    weakreg_consistent_execution,
)

# --------------------------------------------------------------------------
# Brute-force reference
# --------------------------------------------------------------------------


def reference(n, pairs, eras, rejected):
    """The era-monotone linear extensions of ``pairs`` none of whose prefixes
    is rejected, in lexicographic order, and the number of prefixes the
    enumerator extends: every valid non-empty prefix whose proper prefixes
    are all accepted (a rejected prefix is counted, then cut)."""

    # the events each event must follow: its predecessors and earlier eras
    need = {e: {a for a, b in pairs if b == e} for e in range(n)}
    if eras is not None:
        for e in range(n):
            need[e] |= {j for j in range(n) if eras[j] < eras[e]}

    def valid(seq):
        before = set()
        for e in seq:
            if not need[e] <= before:
                return False
            before.add(e)
        return True

    def live(seq):
        return not any(rejected(seq[:k]) for k in range(1, len(seq) + 1))

    perms = list(itertools.permutations(range(n)))
    exts = [p for p in perms if valid(p) and live(p)]
    prefixes = {p[:k] for p in perms for k in range(1, n + 1)}
    extended = [s for s in prefixes if valid(s) and live(s[:-1])]
    return exts, len(extended)


@st.composite
def cases(draw):
    """A random DAG on up to 7 events (edges forward in a random total
    order), optional eras and a prefix-rejecting rule."""
    n = draw(st.integers(0, 7))
    rank = draw(st.permutations(range(n)))
    forward = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)]
    pairs = draw(st.lists(st.sampled_from(forward), max_size=10)) if forward else []
    eras = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    # a prefix is rejected when its last event sits at a banned position
    banned = draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=6))
    return n, pairs, eras, frozenset(banned)


def _enumerate(n, pairs, eras, spec, budget):
    """The event sequences ``linearizations`` yields for the order ``pairs``
    (era-monotone when ``eras`` is given), one candidate per event, and its
    stats."""
    order = Order.close(n, pairs)
    preds = order.preds() if eras is None else era_preds(order, eras)
    stats = {"stage": "probe"}
    found = linearizations(preds, [[i] for i in range(n)], (1 << n) - 1, spec, budget, stats)
    return [tuple(i for i, _ in lin) for lin in found], stats


@settings(max_examples=300, deadline=None)
@given(cases(), st.integers(0, 60))
def test_enumerator_matches_permutation_filter(case, spare):
    n, pairs, eras, banned = case

    def rejected(seq):
        return (len(seq) - 1, seq[-1]) in banned

    # path-unique states: the state is the sequence itself, so nothing is
    # memoized and every candidate tried extends a distinct prefix
    def step(state, i):
        nxt = state["seq"] + (i,)
        return None if rejected(nxt) else {"seq": nxt}

    unique = SequentialSpec("path-unique", lambda: {"seq": ()}, step)
    want, extended = reference(n, pairs, eras, rejected)
    got, stats = _enumerate(n, pairs, eras, unique, math.inf)
    assert got == want
    assert stats == {"stage": "probe", "nodes": extended, "memo_hits": 0}
    assert _enumerate(n, pairs, eras, ANY_ORDER, math.inf)[0] == reference(n, pairs, eras, lambda seq: False)[0]

    # a state that depends only on the placed set: failed subtrees are
    # memoized, and the same sequences come out
    def by_length(state, i):
        return None if (state["len"], i) in banned else {"len": state["len"] + 1}

    assert _enumerate(n, pairs, eras, SequentialSpec("by length", lambda: {"len": 0}, by_length), math.inf)[0] == want

    # a budget of b raises exactly when more than b prefixes are extended
    budget = min(spare, extended + 1)
    if extended > budget:
        with pytest.raises(BudgetExceeded) as err:
            _enumerate(n, pairs, eras, unique, budget)
        assert err.value.stats == {"stage": "probe", "nodes": budget + 1, "memo_hits": 0}
    else:
        assert _enumerate(n, pairs, eras, unique, budget) == (want, stats)

    # the eager enumerator the search replaced, kept as a test reference
    def eager_step(state, i):
        nxt = state + (i,)
        return None if rejected(nxt) else nxt

    order = Order.close(n, pairs)
    assert list(linear_extensions(order, eras, step=eager_step, state=())) == want
    remaining = [extended]
    assert list(linear_extensions(order, eras, eager_step, (), remaining)) == want
    assert remaining == [0]


# --------------------------------------------------------------------------
# Budget exhaustion names the caller's stage
# --------------------------------------------------------------------------


def _stage(v):
    assert v.is_budget
    return dict(v.stats)["stage"]


def test_linearizability_budget_names_its_stage():
    h = History([Inv("rnew", (), 0), Ret(1, 0), Inv("rwrite", (1, 5), 1), Ret(None, 1)])
    assert check_linearizable(h, S_WEAKREG)
    assert _stage(check_linearizable(h, S_WEAKREG, budget=1)) == "linearization search"


def test_durable_linearizability_budget_names_its_stage():
    labels = [
        Label("qnew", (), 50, frozenset(), 0),
        Label("qpush", (50, 1), None, frozenset(), 0),
        CRASH,
        Label("qpop", (50,), 1, frozenset(), 5),
    ]
    x = Execution(sequence_execution(labels))
    assert durqueue_spec().local_consistent(x)
    assert _stage(durqueue_spec(budget=1).local_consistent(x)) == "linearization enumeration"


def test_weak_register_budget_names_its_stage():
    labels = [
        Label("rnew", (), 1, frozenset(), 0),
        Label("rwrite", (1, 5), None, frozenset(), 0),
        Label("rread", (1,), 5, frozenset(), 0),
    ]
    x = Execution(sequence_execution(labels))
    assert weakreg_consistent_execution(x)
    assert _stage(weakreg_consistent_execution(x, budget=1)) == "weakreg lin/nvo search"


def test_flit_budget_names_its_stage():
    labels = [
        Label("fwrite_p", (50, 1), None, frozenset({"D"}), 0),
        Label("fread_p", (50,), 1, frozenset(), 0),
    ]
    x = Execution(sequence_execution(labels))
    assert check_flit(x)
    assert _stage(check_flit(x, budget=1)) == "linearization enumeration"


def test_mirror_budget_names_its_stage():
    labels = [
        Label("mwr", (50, 1), None, frozenset({"D"}), 0),
        Label("mrd", (50,), 1, frozenset(), 0),
    ]
    x = Execution(sequence_execution(labels), sw=[(0, 1)])
    assert check_mirror(x)
    assert _stage(check_mirror(x, budget=1)) == "linearization enumeration"
