"""The consistency check and the prefix walks that the owner table replaced,
kept verbatim as test references: ``check_consistent`` with its exact-key
sharing, ``_check_consistent`` with one owner pass per prefix, the
hereditary walk that builds each prefix whole and restricts it again per
library, and the well-formedness walk with ``check_immediately_wellformed``
restricting each prefix by ``owns``."""

from __future__ import annotations

from typing import Dict, List, Optional

from persistcheck.framework import (
    BUDGET,
    _VERDICTS,
    BudgetExceeded,
    Collection,
    HereditaryChain,
    Verdict,
    _always_ok,
    _as_execution,
    _owned_events,
    check_encapsulated,
)
from persistcheck.model import History, anonymize, bits, immediate_prefix_masks, restrict


def check_consistent(coll: Collection, x) -> Verdict:
    """Per-library restriction and anonymization consistency (plus the sw
    decomposition condition).

    Inside a ``shared_verdicts`` scope a decided verdict is computed once per
    exact execution and returned again on later calls; a budget-exceeded
    verdict is recomputed each time.  Outside a scope nothing is kept."""
    verdicts = _VERDICTS.get()
    if verdicts is None:
        return _check_consistent(coll, x)
    x = _as_execution(x)
    key = (coll, tuple(x.plain.labels()), x.plain.po_order.rows, x.sw, x.hb_order.rows)
    v = verdicts.get(key)
    if v is None:
        v = _check_consistent(coll, x)
        if not v.is_budget:
            verdicts[key] = v
    return v


def _check_consistent(coll: Collection, x) -> Verdict:
    """``check_consistent`` without the shared verdicts.  Each library's
    restriction is cut from the one owner pass; a predicate left at its
    default is not called, so its projection is not built."""
    x = _as_execution(x)
    if x.is_empty():
        return Verdict.ok()
    owned = _owned_events(coll, x)
    owner = {e: name for name, evs in owned.items() for e in evs}
    for a, b in x.sw:
        # a crash has no owner: its edges span no library
        if a in owner and b in owner and owner[a] != owner[b]:
            return Verdict.fail(f"sw edge ({a},{b}) spans two libraries")
    crashes = [e for e in x.events if x.lab[e].is_crash]
    for spec in coll.specs():
        if spec.local_consistent is not _always_ok:
            v = spec.local_consistent(x.restrict_events(owned[spec.name] + crashes))
            if not v:
                return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
        if spec.global_consistent is not _always_ok:
            v = spec.global_consistent(anonymize(spec.interface.owns, x))
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
    That mask memo lives for this call only; the consistency verdicts of the
    prefixes are shared beyond it, with every other check of the same exact
    execution, only inside a ``shared_verdicts`` scope.  The witness is the
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
        v = check_consistent(coll, x.restrict_events(bits(mask)))
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



def check_immediately_wellformed(coll: Collection, x) -> Verdict:
    x = _as_execution(x)
    if not check_encapsulated(coll, x):
        return Verdict.fail("not encapsulated")
    for spec in coll.specs():
        if spec.local_wellformed is _always_ok:
            continue
        v = spec.local_wellformed(restrict(x, spec.interface.owns))
        if not v:
            return Verdict(v.status, f"{spec.name}.wellformed: {v.reason}", v.witness, v.stats)
    for spec in coll.tagdep():
        if spec.global_wellformed is _always_ok:
            continue
        v = spec.global_wellformed(anonymize(spec.interface.owns, x))
        if not v:
            return Verdict(v.status, f"{spec.name}.global_wellformed: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


def check_wellformed(coll: Collection, x, budget: int = 10_000) -> Verdict:
    """For all G'' ⊏_imm G' ⊑ X: if G'' is consistent then G' is immediately
    well-formed.  Walks the prefix lattice depth first, naming each prefix
    by the subset of ``x``'s event ids it keeps; ``budget`` bounds the number
    of distinct subsets visited, and each prefix's consistency is checked
    once per walk.

    A prefix none of whose immediate prefixes is consistent, but one of which
    ran out of budget, may still owe well-formedness: if it is not immediately
    well-formed, the verdict is budget-exceeded unless a definite failure is
    found elsewhere."""
    x = _as_execution(x)
    hb_rows = x.hb_order.rows
    consistent: Dict[int, Verdict] = {}
    seen = set()
    stack = [(1 << len(x)) - 1]
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
                pv = consistent[p] = check_consistent(coll, x.restrict_events(bits(p)))
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            g = x.restrict_events(bits(cur))
            v = check_immediately_wellformed(coll, g)
            if not v:
                reason = f"prefix of size {len(g)}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, g, v.stats)
                stalled.append(Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", g, undecided.stats))
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()
