"""The projections that building only what a predicate or hook reads
replaced, kept verbatim as test references: the consistency check that
restricts and anonymizes the execution for every library, the immediate
well-formedness check that does the same, the sw-candidate composition that
restricts the run for every library's hook, and ``Execution.restrict_events``
restricting po and hb separately."""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Tuple

from persistcheck.framework import Collection, Verdict, _as_execution, _owned_events, check_encapsulated
from persistcheck.model import Execution, PlainExecution, anonymize, restrict


def check_consistent_unshared(coll: Collection, x) -> Verdict:
    """``check_consistent`` without the shared verdicts."""
    x = _as_execution(x)
    if x.is_empty():
        return Verdict.ok()
    owned = _owned_events(coll, x)
    crashes = {e for e in x.events if x.lab[e].is_crash}
    for a, b in x.sw:
        if a in crashes or b in crashes:
            continue
        if not any(a in set(evs) and b in set(evs) for evs in owned.values()):
            return Verdict.fail(f"sw edge ({a},{b}) spans two libraries")
    for spec in coll.specs():
        rx = restrict(x, spec.interface.owns)
        v = spec.local_consistent(rx)
        if not v:
            return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
        ax = anonymize(spec.interface.owns, x)
        v = spec.global_consistent(ax)
        if not v:
            return Verdict(v.status, f"{spec.name}.global_consistent: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


def check_immediately_wellformed(coll: Collection, x) -> Verdict:
    x = _as_execution(x)
    if not check_encapsulated(coll, x):
        return Verdict.fail("not encapsulated")
    for spec in coll.specs():
        rx = restrict(x, spec.interface.owns)
        v = spec.local_wellformed(rx)
        if not v:
            return Verdict(v.status, f"{spec.name}.wellformed: {v.reason}", v.witness, v.stats)
    for spec in coll.tagdep():
        ax = anonymize(spec.interface.owns, x)
        v = spec.global_wellformed(ax)
        if not v:
            return Verdict(v.status, f"{spec.name}.global_wellformed: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


def candidate_sw_sets(coll: Collection, g: PlainExecution) -> List[FrozenSet[Tuple[int, int]]]:
    """Compose the per-library witness hooks into candidate sw sets for g."""
    per_lib: List[List[FrozenSet[Tuple[int, int]]]] = []
    for spec in coll.specs():
        keep = sorted(
            e for e in g.events if g.lab[e].is_crash or spec.interface.owns(g.lab[e])
        )
        if not keep:
            continue
        sub = g.restrict_events(keep)
        back = {new: old for new, old in enumerate(keep)}
        cands = []
        for edge_set in spec.sw_candidates(sub):
            cands.append(frozenset((back[a], back[b]) for a, b in edge_set))
        per_lib.append(cands or [frozenset()])
    out: List[FrozenSet[Tuple[int, int]]] = []
    seen = set()
    for combo in itertools.product(*per_lib) if per_lib else [()]:
        edges = frozenset().union(*combo) if combo else frozenset()
        if edges not in seen:
            seen.add(edges)
            out.append(edges)
    return out


def restrict_events(self: Execution, keep: Iterable[int]) -> Execution:
    """Sub-execution on a subset of events (ids renumbered densely); the
    execution itself when every event is kept."""
    keep_sorted = sorted(set(keep))
    if keep_sorted == list(self.events):
        return self
    idx = {old: new for new, old in enumerate(keep_sorted)}
    sub = self.plain.restrict_events(keep_sorted)
    sw = [(idx[a], idx[b]) for a, b in self.sw if a in idx and b in idx]
    return Execution(sub, sw, self.hb_order.restrict(keep_sorted))
