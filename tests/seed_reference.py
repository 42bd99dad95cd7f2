"""The prefix walks before they were seeded, kept verbatim as test
references: the owner table that asks each library's ``local_consistent``
with no seed, and ``check_hereditarily_consistent`` and ``check_wellformed``
walking it."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from persistcheck.framework import (
    BUDGET,
    BudgetExceeded,
    Collection,
    HereditaryChain,
    LibrarySpec,
    Prefix,
    Verdict,
    _always_ok,
    _as_execution,
    _owned_events,
    check_consistent,
    check_immediately_wellformed,
)
from persistcheck.model import Execution, History, anonymize, bits, immediate_prefix_masks


class Owners:
    """The owner table of an execution ``x`` under a collection.

    One owner pass (``_owned_events``, which raises ``UnknownMethod`` on an
    event no library owns) gives each event's library, the sw edges of
    ``x`` that span two libraries, and per library the bit mask of its
    events and the crashes (``keeps``).  A prefix of ``x`` is named by the
    mask of the events it keeps (``prefix``), and a library's projection of
    it is cut straight from ``x`` on ``mask & keeps[library]``.  ``local``
    holds each library's ``local_consistent`` verdict by that projected
    mask, so a walk that drops another library's event does not check this
    one again.  A table lives as long as the check or walk that built it."""

    def __init__(self, coll: Collection, x: Execution):
        self.coll, self.x = coll, x
        self.full = (1 << len(x)) - 1
        self.specs = coll.specs()
        self.owner: List[Optional[LibrarySpec]] = [None] * len(x)
        self.keeps: Dict[str, int] = {}
        crashes = sum(1 << e for e in x.events if x.lab[e].is_crash)
        owned = _owned_events(coll, x)
        for spec in self.specs:
            mask = crashes
            for e in owned[spec.name]:
                mask |= 1 << e
                self.owner[e] = spec
            self.keeps[spec.name] = mask
        owner = self.owner
        # a crash has no owner: its edges span no library
        self.spanning = frozenset(
            (a, b) for a, b in x.sw if owner[a] is not None and owner[b] is not None and owner[a] is not owner[b]
        )
        self.local: Dict[Tuple[str, int], Verdict] = {}

    def prefix(self, mask: int) -> "Prefix":
        return Prefix(self, mask)

    def cut(self, p: "Prefix", mask: int) -> Execution:
        """The events of ``mask``, a subset of the prefix ``p``'s: ``p``'s
        own execution when that is all of them."""
        return p.execution if mask == p.mask else self.x.restrict_events(bits(mask))

    def consistent(self, p: "Prefix") -> Verdict:
        mask = p.mask
        if not mask:
            return Verdict.ok()
        if any(mask >> a & mask >> b & 1 for a, b in self.spanning):
            # name the first spanning edge in the prefix's own sw set and ids
            keep = list(bits(mask))
            a, b = next((a, b) for a, b in p.execution.sw if (keep[a], keep[b]) in self.spanning)
            return Verdict.fail(f"sw edge ({a},{b}) spans two libraries")
        for spec in self.specs:
            if spec.local_consistent is not _always_ok:
                key = (spec.name, mask & self.keeps[spec.name])
                v = self.local.get(key)
                if v is None:
                    v = self.local[key] = spec.local_consistent(self.cut(p, key[1]))
                if not v:
                    return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
            if spec.global_consistent is not _always_ok:
                v = spec.global_consistent(anonymize(spec.interface.owns, p.execution))
                if not v:
                    return Verdict(v.status, f"{spec.name}.global_consistent: {v.reason}", v.witness, v.stats)
        return Verdict.ok()


def check_hereditarily_consistent(
    coll: Collection, x, budget: int = 10_000
) -> Verdict:
    """Existence of a chain ∅ ⊏ … ⊏ X of consistent executions.

    For histories, every prefix h[1..k] is checked (SC mode); for executions,
    the search walks immediate prefixes (one hb-maximal event removed),
    memoizing each prefix's chain by the subset of ``x``'s event ids it keeps.
    One owner table serves the walk: each prefix goes to ``check_consistent``
    as a ``Prefix`` of it, each library's projection is cut straight from
    ``x``, and a library's local verdict is computed once per projection, so
    dropping another library's event does not check it again.  The mask
    memo and the table live for this call only; the consistency verdicts of
    the prefixes are shared beyond it, with every other check of the same
    exact execution, only inside a ``shared_verdicts`` scope.  The witness is the
    chain, given by its subsets and built only when read.  A prefix whose
    consistency check runs out of budget is neither consistent nor refuted:
    unless a chain avoids it, the verdict is budget-exceeded.
    """
    if isinstance(x, History):
        chain: List[History] = []
        for k in range(len(x) + 1):
            p = x.prefix(k)
            v = check_consistent(coll, p)
            if not v:
                return Verdict(v.status, f"prefix h[1..{k}]: {v.reason}", p, v.stats)
            chain.append(p)
        return Verdict.ok(witness=HereditaryChain(chain))

    x = _as_execution(x)
    owners = Owners(coll, x)
    hb_rows = x.hb_order.rows
    memo: Dict[int, Optional[List[int]]] = {}
    explored = 0
    stalled: List[Verdict] = []

    def search(mask: int) -> Optional[List[int]]:
        nonlocal explored
        if not mask:
            return [mask]
        if mask in memo:
            return memo[mask]
        explored += 1
        if explored > budget:
            raise BudgetExceeded({"explored": explored})
        result: Optional[List[int]] = None
        v = check_consistent(coll, owners.prefix(mask))
        if v.is_budget:
            stalled.append(v)
        if v:
            for smaller in immediate_prefix_masks(hb_rows, mask):
                res = search(smaller)
                if res is not None:
                    result = res + [mask]
                    break
        memo[mask] = result
        return result

    try:
        masks = search((1 << len(x)) - 1)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if masks is None:
        if stalled:
            return stalled[0]
        return Verdict.fail("no consistent immediate-prefix chain", witness=None)
    return Verdict.ok(witness=HereditaryChain(subsets=[frozenset(bits(m)) for m in masks], source=x))


def check_wellformed(coll: Collection, x, budget: int = 10_000) -> Verdict:
    """For all G'' ⊏_imm G' ⊑ X: if G'' is consistent then G' is immediately
    well-formed.  Walks the prefix lattice depth first, naming each prefix
    by the subset of ``x``'s event ids it keeps; ``budget`` bounds the number
    of distinct subsets visited.  One owner table serves the walk: each
    prefix's consistency is checked once, each library's local consistency
    once per projection, and an event no library owns raises
    ``UnknownMethod`` before the walk starts.

    A prefix none of whose immediate prefixes is consistent, but one of which
    ran out of budget, may still owe well-formedness: if it is not immediately
    well-formed, the verdict is budget-exceeded unless a definite failure is
    found elsewhere."""
    x = _as_execution(x)
    owners = Owners(coll, x)
    hb_rows = x.hb_order.rows
    consistent: Dict[int, Verdict] = {}
    seen = set()
    stack = [owners.full]
    stalled: List[Verdict] = []
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if len(seen) > budget:
            return Verdict.budget({"explored": len(seen)})
        prevs = immediate_prefix_masks(hb_rows, cur)
        owed = not cur
        undecided: Optional[Verdict] = None
        for p in prevs:
            pv = consistent.get(p)
            if pv is None:
                pv = consistent[p] = check_consistent(coll, owners.prefix(p))
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            g = owners.prefix(cur)
            v = check_immediately_wellformed(coll, g)
            if not v:
                reason = f"prefix of size {cur.bit_count()}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, g.execution, v.stats)
                stalled.append(
                    Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", g.execution, undecided.stats)
                )
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()
