"""The lifting step and chain before they read the concrete execution
through masks and shared their steps, kept verbatim as test references:
``lift_chain`` restricts the concrete execution to each link and calls
``lift_step`` on the restriction, which projects hb and external hb from
the restriction's own rows.  ``_project_rows``, ``_projected_hb`` and
``_within`` are copied with them.

``lift_chain`` calls ``lift_step`` through this module, so a test can swap
in another step."""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple

from persistcheck.framework import BudgetExceeded, Collection, check_consistent
from persistcheck.model import Execution, Order, PlainExecution, bits


def _project_rows(rows: Sequence[int], img: Sequence[int], k: int) -> List[int]:
    """∃f⟨r⟩ on bit rows: event c maps to ``img[c]`` in ``0..k-1``."""
    out = [0] * k
    for a, row in enumerate(rows):
        if row:
            to = 0
            for b in bits(row):
                to |= 1 << img[b]
            out[img[a]] |= to
    return [row & ~(1 << y) for y, row in enumerate(out)]


def _projected_hb(xc: Execution, img: Sequence[int], k: int) -> Tuple[List[int], List[int]]:
    """The projections of hb and of its external part hb \\ (po ∪ sw)⁺."""
    hb = xc.hb_order.rows
    inner = xc.plain.po_order.extend(xc.sw).rows
    external = [h & ~i for h, i in zip(hb, inner)]
    return _project_rows(hb, img, k), _project_rows(external, img, k)


def _within(rows: Sequence[int], bound: Sequence[int]) -> bool:
    return not any(row & ~b for row, b in zip(rows, bound))


def lift_step(
    xc: Execution,
    f: Mapping[int, int],
    ga: PlainExecution,
    prev_abs: Optional[Execution],
    prev_ids: FrozenSet[int],
    coll_high: Collection,
    budget: int = 4_000,
    failure: Optional[List[str]] = None,
) -> Optional[Execution]:
    """One lifting step: find an abstract execution X over the f-image of
    xc's events that refines the corresponding restriction of ga, extends the
    previous step's abstract execution, and makes f a refined matching.

    All ids are original: xc over the full concrete id space, ga the full
    abstract plain execution, prev_ids the abstract id subset of the previous
    step.  The returned execution is over ga ids restricted to the image
    (renumbered densely over sorted ids).  Returns None when every candidate
    is refuted; raises ``BudgetExceeded`` when none lifts and the abstract
    consistency check of one of them ran out of budget."""
    image = sorted({f[c] for c in xc.events})
    ren = {old: new for new, old in enumerate(image)}
    g_sub = ga.restrict_events(image)
    k = len(image)
    f_dense = [ren[f[c]] for c in xc.events]
    proj_hb, proj_external = _projected_hb(xc, f_dense, k)
    po = g_sub.po_order.rows
    # every candidate hb is this closed base extended by its sw edges
    base = Order.close_rows([e | p for e, p in zip(proj_external, po)])
    # candidate sw edges must each be justified by a projected hb edge
    # (po pairs stay eligible: some specs derive sw from reads-from, which
    # may relate same-thread events)
    cands = [(a, b) for a in range(k) for b in bits(proj_hb[a])]
    if len(cands) > 14:
        cands = [(a, b) for a in range(k) for b in bits(proj_hb[a] & ~po[a])]
    if prev_abs is not None:
        # the new abstract execution must extend the previous one
        keep = [ren[i] for i in sorted(prev_ids)]
        at = {old: new for new, old in enumerate(keep)}
        plain_kept = (
            [g_sub.lab[e] for e in keep] == prev_abs.plain.labels()
            and g_sub.po_order.restrict(keep).rows == prev_abs.plain.po_order.rows
        )
    spent = 0
    budgeted = False
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            spent += 1
            if spent > budget:
                raise BudgetExceeded({"sw-subsets": spent})
            hb = base.extend(combo)
            if not hb.is_acyclic():
                continue
            if prev_abs is not None and not (
                plain_kept
                and hb.restrict(keep).rows == prev_abs.hb_order.rows
                and {(at[a], at[b]) for a, b in combo if a in at and b in at} == prev_abs.sw
            ):
                continue
            if not _within(Order.close(k, combo).rows, proj_hb):
                continue
            xa = Execution(g_sub, combo, hb)
            v = check_consistent(coll_high, xa)
            if v:
                return xa
            budgeted = budgeted or v.is_budget
            if failure is not None:
                failure[:] = [v.reason]
    if budgeted:
        raise BudgetExceeded({"stage": "lifting"})
    return None



def lift_chain(
    xc: Execution,
    subsets: Sequence[FrozenSet[int]],
    f: Mapping[int, int],
    ga: PlainExecution,
    coll_high: Collection,
    budget: int = 4_000,
    failure: Optional[List[str]] = None,
) -> Optional[List[Execution]]:
    """Lift a hereditary-consistency chain of the concrete execution to a
    chain of consistent abstract executions (the inductive content of the
    compositional-correctness condition).  On failure, ``failure`` (if given)
    receives the last failing spec condition."""
    prev_abs: Optional[Execution] = None
    prev_image: FrozenSet[int] = frozenset()
    out: List[Execution] = []
    for ids in subsets:
        sub_ids = sorted(ids)
        xi = xc.restrict_events(sub_ids)
        back = {new: old for new, old in enumerate(sub_ids)}
        fi = {new: f[back[new]] for new in xi.events}
        image = frozenset(fi.values())
        if image == prev_image and prev_abs is not None:
            out.append(prev_abs)
            continue
        xa = lift_step(xi, fi, ga, prev_abs, prev_image, coll_high, budget, failure)
        if xa is None:
            return None
        out.append(xa)
        prev_abs = xa
        prev_image = image
    return out

