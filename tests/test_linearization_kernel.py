"""The linearization search as one generator with an explicit stack,
against the recursive generator it replaced (``generator_reference``),
which places every candidate its spec accepts.  The search never places a
candidate of an event outside ``must`` whose step keeps the state: it counts
it as tried and goes on.

Random searches: closed predecessor masks on 0-10 events, options that mix
events with no candidate and events with 1-3, random ``must`` masks, and
four specs (every order, the register, the queue, and a spec that rejects
a candidate placed twice in a row).  The search must yield the reference's
sequences in order, less every sequence that places a state-keeping
optional candidate, also for a consumer that closes the generator after k
yields; when the reference is exhausted, so is the search, in no more
nodes.  Its budget must bound it: at exactly the nodes of its first yield
(or of its exhaustion) it runs as unbounded, and at one less it raises
``BudgetExceeded`` with that count."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import generator_reference as ref
from persistcheck.framework import BudgetExceeded
from persistcheck.model import Label
from persistcheck.sc import ANY_ORDER, PFENCE, S_QUEUE, S_WEAKREG, SequentialSpec, linearizations

#: The most yields a run takes before it closes the generator: a search of
#: 10 unordered events yields 10! sequences.
MAX_YIELDS = 60

NO_REPEAT = SequentialSpec("no repeat", dict, lambda st, c: None if st.get("last") == c else {"last": c})

#: Per spec: the candidates drawn for its options.
SPECS = {
    "any order": (ANY_ORDER, [0, 1, 2, 3]),
    "no repeat": (NO_REPEAT, [0, 1, 2]),
    "register": (
        S_WEAKREG,
        [
            Label("rwrite", (10, 1), None),
            Label("rwrite", (10, 2), None),
            Label("rread", (10,), 0),
            Label("rread", (10,), 1),
            Label("rread", (10,), 2),
            Label("rread", (10,)),
            Label(PFENCE, (), None),
        ],
    ),
    "queue": (
        S_QUEUE,
        [
            Label("qnew", (), 10),
            Label("qpush", (10, 1), None),
            Label("qpush", (10, 2), None),
            Label("qpop", (10,), 1),
            Label("qpop", (10,), None),
            Label("qpop", (10,)),
        ],
    ),
}


@st.composite
def searches(draw):
    """(spec name, preds, options, must): each event after a random subset
    of the events before it in a random order, closed under transitivity."""
    n = draw(st.integers(0, 10))
    name = draw(st.sampled_from(sorted(SPECS)))
    pool = SPECS[name][1]
    sizes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    preds = [0] * n
    for j, e in enumerate(order):
        before = order[:j]
        for a in draw(st.lists(st.sampled_from(before), unique=True)) if before else ():
            preds[e] |= 1 << a | preds[a]
    options = [tuple(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))) for size in sizes]
    must = draw(st.integers(0, (1 << n) - 1))
    return name, preds, options, must


def run(kernel, preds, options, must, spec, budget, k=MAX_YIELDS):
    """What a consumer of ``kernel`` that takes at most ``k`` yields sees:
    each yield with ``stats`` then, how the run ended, and ``stats`` at the
    end."""
    stats = {"stage": "search"}
    gen = kernel(preds, options, must, spec, budget, stats)
    seen, end = [], "exhausted"
    try:
        while len(seen) < k:
            lin = next(gen, None)
            if lin is None:
                break
            seen.append((lin, dict(stats)))
        else:
            gen.close()
            end = "closed"
    except BudgetExceeded as e:
        end = ("budget", e.stats)
    return seen, end, dict(stats)


def keeps_a_state(lin, must, spec):
    """Whether ``lin`` places a candidate of an event outside ``must`` whose
    step keeps the state."""
    st = spec.init()
    for i, c in lin:
        nxt = spec.step(st, c)
        if not must >> i & 1 and nxt == st:
            return True
        st = nxt
    return False


def filtered_reference(preds, options, must, spec, k):
    """The reference's first ``k`` yields that place no state-keeping
    optional candidate, and how its run ended: "closed" once it has them,
    else "exhausted", or "budget" past ``REFERENCE_NODES``."""
    stats = {}
    gen = ref.linearizations(preds, options, must, spec, REFERENCE_NODES, stats)
    kept = []
    try:
        for lin in gen:
            if len(kept) == k:
                gen.close()
                return kept, "closed", stats
            if not keeps_a_state(lin, must, spec):
                kept.append(lin)
    except BudgetExceeded:
        return kept, "budget", stats
    return kept, "exhausted", stats


#: The most nodes the reference takes to find a search's yields; it may
#: place many optional candidates before its first sequence that the search
#: yields.
REFERENCE_NODES = 20_000

#: A pending read (0), a pending write (1) and a complete read (2) after the
#: write: the read keeps the state, the write does not.
PENDING = (
    "register",
    [0, 0, 0b10],
    [(Label("rread", (10,)),), (Label("rwrite", (10, 1), None),), (Label("rread", (10,), 1),)],
    0b100,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=searches(), k=st.integers(0, 4))
@example(case=("any order", [], [], 0), k=0)
@example(case=("any order", [], [], 0), k=1)
@example(case=("register", [0, 1, 3], [(), (), ()], 0), k=1)
@example(case=("queue", [0, 0, 0, 0], [(), (), (), ()], 0), k=2)
@example(case=PENDING, k=1)
def test_search_matches_recursive_reference(case, k):
    name, preds, options, must = case
    spec = SPECS[name][0]
    for limit in (MAX_YIELDS, k):
        want, ref_end, ref_stats = filtered_reference(preds, options, must, spec, limit)
        seen, end, stats = run(linearizations, preds, options, must, spec, math.inf, limit)
        got = [lin for lin, _ in seen]
        if ref_end == "budget":
            assert got[: len(want)] == want
            continue
        assert got == want, limit
        if ref_end == "exhausted" and len(want) < limit:
            assert end == "exhausted" and stats["nodes"] <= ref_stats["nodes"]
    seen, end, stats = run(linearizations, preds, options, must, spec, math.inf, 1)
    n = seen[0][1]["nodes"] if seen else stats["nodes"]
    assert run(linearizations, preds, options, must, spec, n, 1) == (seen, end, stats)
    if n:
        seen, end, _ = run(linearizations, preds, options, must, spec, n - 1, 1)
        assert not seen and end[0] == "budget" and end[1]["nodes"] == n


def test_stats_before_the_first_yield():
    """Both set ``nodes`` and ``memo_hits`` when called, before the search
    runs."""
    for kernel in (ref.linearizations, linearizations):
        stats = {"stage": "search", "nodes": 7}
        kernel([0, 1], [(0,), (1,)], 3, ANY_ORDER, math.inf, stats)
        assert stats == {"stage": "search", "nodes": 0, "memo_hits": 0}
