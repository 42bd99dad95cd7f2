"""The linearization search before it became one generator with an
explicit stack, kept verbatim as a test reference: ``linearizations``, a
recursive generator ``rec`` per placed candidate, which loops over every
index of ``options`` at every node."""

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
    each) and ``memo_hits``; past the budget, ``BudgetExceeded`` carries it."""
    stats.update(nodes=0, memo_hits=0)
    failed = set()
    lin: List[Tuple[int, object]] = []
    yielded = [0]

    def rec(done: int, st) -> Iterator[List[Tuple[int, object]]]:
        if done & must == must:
            yielded[0] += 1
            yield list(lin)
            return
        key = (done, frozenset(st.items()))
        if key in failed:
            stats["memo_hits"] += 1
            return
        before = yielded[0]
        for i, cands in enumerate(options):
            if done >> i & 1 or preds[i] & must & ~done:
                continue
            for c in cands:
                stats["nodes"] += 1
                if stats["nodes"] > budget:
                    raise BudgetExceeded(stats)
                nxt = spec.step(st, c)
                if nxt is not None:
                    lin.append((i, c))
                    yield from rec(done | 1 << i | preds[i], nxt)
                    lin.pop()
        if yielded[0] == before:
            failed.add(key)

    return rec(0, spec.init())
