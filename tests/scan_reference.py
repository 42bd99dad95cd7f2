"""The linearization search before it skipped a blocked event's successors,
kept verbatim as a test reference: ``linearizations``, the explicit-stack
generator that never places a state-keeping optional candidate, whose node
tests every unplaced event it has a candidate for, one by one, against its
``must`` predecessors."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from persistcheck.framework import BudgetExceeded
from persistcheck.sc import SequentialSpec


def linearizations(
    preds: Sequence[int],
    options: Sequence[Sequence[object]],
    must: int,
    spec: SequentialSpec,
    budget: float,
    stats: dict,
) -> Iterator[List[Tuple[int, object]]]:
    """Depth-first search for the sequences in ``spec`` placing every event
    of the mask ``must`` and any others of ``0..n-1``, each at most once and
    as one of its candidates ``options[i]``, yielded as ``(event, candidate)``
    lists in lexicographic order (at each position the smallest event, then
    its first candidate).  An event is placeable once the ``must`` events of
    its predecessor mask ``preds[i]`` are placed; placing it drops its
    unplaced predecessors, and a sequence ends once ``must`` is placed.
    (Placed-or-dropped mask, spec state) pairs whose subtree yielded nothing
    are memoized as failed (Wing & Gong 1993; Lowe 2017).  ``stats``, which
    names the ``stage``, counts ``nodes`` (candidates tried, one budget unit
    each) and ``memo_hits``; past the budget, ``BudgetExceeded`` carries it.

    A candidate of an event outside ``must`` whose step keeps the state (a
    pending read, a pending constructor) is tried but never placed.  Placing
    it would leave ``must`` as far from placed as before and only drop it
    and its unplaced predecessors, which the branch that leaves it out still
    holds: each sequence below it, less it, is yielded without it.  So the
    search yields, in order, exactly the sequences that place no such
    candidate, and finds a sequence whenever one exists.

    The search is one generator with an explicit stack of open nodes.  A
    node walks only the unplaced events that have a candidate (the set bits
    of ``live & ~done``), in ascending order; the counters are kept in
    locals and written to ``stats`` at each yield and when the search ends,
    whether it is exhausted, closed or raises."""
    stats.update(nodes=0, memo_hits=0)
    live = sum(1 << i for i, cands in enumerate(options) if cands)
    must_preds = [p & must for p in preds]
    step = spec.step

    def search() -> Iterator[List[Tuple[int, object]]]:
        nodes = memo_hits = yielded = 0
        failed = set()
        lin: List[Tuple[int, object]] = []
        # the open nodes below the current one, each suspended at its event
        # i and the next candidate k of cands
        stack = []
        st = spec.init()
        try:
            if not must:
                yield []
                return
            key, before, done, rest, cands, k = (0, frozenset(st.items())), 0, 0, live, (), 0
            while True:
                # on to the next placeable event of rest once cands is tried
                while k == len(cands) and rest:
                    low = rest & -rest
                    rest ^= low
                    i = low.bit_length() - 1
                    if not must_preds[i] & ~done:
                        cands, k = options[i], 0
                if k == len(cands):
                    # every candidate of the current node is tried
                    if yielded == before:
                        failed.add(key)
                    if not stack:
                        return
                    key, before, done, st, rest, i, cands, k = stack.pop()
                    lin.pop()
                    continue
                c = cands[k]
                k += 1
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded({**stats, "nodes": nodes, "memo_hits": memo_hits})
                nxt = step(st, c)
                if nxt is None or not must >> i & 1 and nxt == st:
                    continue
                placed = done | 1 << i | preds[i]
                if placed & must == must:
                    yielded += 1
                    stats["nodes"], stats["memo_hits"] = nodes, memo_hits
                    yield lin + [(i, c)]
                    continue
                child = (placed, frozenset(nxt.items()))
                if child in failed:
                    memo_hits += 1
                    continue
                lin.append((i, c))
                stack.append((key, before, done, st, rest, i, cands, k))
                key, before, done, st, rest, cands, k = child, yielded, placed, nxt, live & ~placed, (), 0
        finally:
            stats["nodes"], stats["memo_hits"] = nodes, memo_hits

    return search()
