"""The linearization search as one generator with an explicit stack,
against the recursive generator it replaced (``generator_reference``).

Random searches: closed predecessor masks on 0-10 events, options that mix
events with no candidate and events with 1-3, random ``must`` masks, and
four specs (every order, the register, the queue, and a spec that rejects
a candidate placed twice in a row).  Each is run at an unbounded budget,
at exactly the nodes of its first yield (or of its exhaustion), and at one
less.  Every yielded list, ``stats`` after each yield and at the end, and
``BudgetExceeded.stats`` must be equal, also for a consumer that closes the
generator after k yields."""

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


def first_nodes(preds, options, must, spec):
    """The nodes of the reference's first yield, or of its exhaustion."""
    seen, _, stats = run(ref.linearizations, preds, options, must, spec, math.inf, k=1)
    return seen[0][1]["nodes"] if seen else stats["nodes"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=searches(), k=st.integers(0, 4))
@example(case=("any order", [], [], 0), k=0)
@example(case=("any order", [], [], 0), k=1)
@example(case=("register", [0, 1, 3], [(), (), ()], 0), k=1)
@example(case=("queue", [0, 0, 0, 0], [(), (), (), ()], 0), k=2)
def test_search_matches_recursive_reference(case, k):
    name, preds, options, must = case
    spec = SPECS[name][0]
    n = first_nodes(preds, options, must, spec)
    for budget in (math.inf, n, n - 1):
        for limit in (MAX_YIELDS, k):
            want = run(ref.linearizations, preds, options, must, spec, budget, limit)
            got = run(linearizations, preds, options, must, spec, budget, limit)
            assert got == want, (budget, limit)


def test_stats_before_the_first_yield():
    """Both set ``nodes`` and ``memo_hits`` when called, before the search
    runs."""
    for kernel in (ref.linearizations, linearizations):
        stats = {"stage": "search", "nodes": 7}
        kernel([0, 1], [(0,), (1,)], 3, ANY_ORDER, math.inf, stats)
        assert stats == {"stage": "search", "nodes": 0, "memo_hits": 0}

