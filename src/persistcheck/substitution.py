"""Pomset substitution, matchings, and bounded implementation verification.

The bind operation replaces each event of a pomset by an implementing pomset,
ordered lexicographically.  Plain matchings witness that a concrete plain
execution arises from binding an abstract one with an implementation;
refined matchings additionally transport consistency and happens-before.
``verify_impl_bounded`` drives both over a corpus of abstract executions:
for every concrete member of G·I, hereditary consistency at the low level
must lift to a consistent abstract refinement (one lifting step per chain
link), and well-formedness must transport downward.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .framework import (
    BudgetExceeded,
    Collection,
    LibrarySpec,
    Verdict,
    check_consistent,
    check_hereditarily_consistent,
    check_immediately_wellformed,
)
from .lang import InterpConfig, Interpretation, Prog, SyntacticImpl
from .model import (
    BOT,
    Execution,
    Label,
    PlainExecution,
    Pomset,
    anonymize,
    canonical_hash,
    closure,
    is_irreflexive,
    iso_eq,
)

Edge = Tuple[int, int]


# --------------------------------------------------------------------------
# Projected relations and pomset bind
# --------------------------------------------------------------------------


def existproj(f: Mapping[int, int], r: Iterable[Edge]) -> FrozenSet[Edge]:
    """∃f⟨r⟩: (y1, y2) with y1 ≠ y2 and some r-related preimages."""
    out = set()
    for a, b in r:
        if a in f and b in f and f[a] != f[b]:
            out.add((f[a], f[b]))
    return frozenset(out)


def pomset_bind(p: Pomset, g: Callable[[object], Pomset]) -> Pomset:
    """Replace each event of p by the pomset g(label), ordered
    lexicographically: inner events inherit the outer order, and within one
    outer event the inner order applies."""
    inners = [g(p.lab[e]) for e in p.events]
    offsets = []
    labels: List = []
    for inner in inners:
        offsets.append(len(labels))
        labels.extend(inner.labels())
    order: Set[Edge] = set()
    for e in p.events:
        inner = inners[e]
        off = offsets[e]
        for a, b in inner.order:
            order.add((off + a, off + b))
    for e1, e2 in p.order:
        for a in range(len(inners[e1])):
            for b in range(len(inners[e2])):
                order.add((offsets[e1] + a, offsets[e2] + b))
    return Pomset(labels, order)


def set_bind(ps: Iterable[Pomset], g: Callable[[object], Sequence[Pomset]]) -> List[Pomset]:
    """Set-level bind: union over per-event choices of inner pomsets,
    deduplicated up to isomorphism."""
    out: List[Pomset] = []
    seen: Dict[int, List[Pomset]] = {}
    for p in ps:
        choice_lists = [list(g(p.lab[e])) for e in p.events]
        for combo in itertools.product(*choice_lists):
            table = {e: combo[i] for i, e in enumerate(p.events)}
            q = _bind_by_event(p, table)
            h = canonical_hash(q)
            bucket = seen.setdefault(h, [])
            if not any(iso_eq(q, other) for other in bucket):
                bucket.append(q)
                out.append(q)
    return out


def _bind_by_event(p: Pomset, table: Mapping[int, Pomset]) -> Pomset:
    inners = [table[e] for e in p.events]
    offsets = []
    labels: List = []
    for inner in inners:
        offsets.append(len(labels))
        labels.extend(inner.labels())
    order: Set[Edge] = set()
    for e in p.events:
        for a, b in inners[e].order:
            order.add((offsets[e] + a, offsets[e] + b))
    for e1, e2 in p.order:
        for a in range(len(inners[e1])):
            for b in range(len(inners[e2])):
                order.add((offsets[e1] + a, offsets[e2] + b))
    return Pomset(labels, order)


# --------------------------------------------------------------------------
# Semantic implementations
# --------------------------------------------------------------------------


def _strip_thread(l: Label) -> Label:
    return replace(l, thread=None) if l.thread is not None else l


class SemanticImpl:
    """A map from method-call labels to sets of plain executions, downward
    closed, realized by interpreting a syntactic implementation's bodies.

    Implementations with private globals are not supported here (their state
    couples distinct calls); verify such libraries end to end through the
    interpreter instead.
    """

    def __init__(self, syn: SyntacticImpl, coll_low: Collection, config: InterpConfig = InterpConfig()):
        if syn.globals:
            raise ValueError(
                "semantic implementations of libraries with private globals are unsupported"
            )
        self.syn = syn
        self.coll_low = coll_low
        self.config = config
        self.methods = syn.method_names()
        self._alloc_methods = frozenset(
            m for s in coll_low.specs() for m in s.interface.constructors
        )
        self._cache: Dict[Tuple, List[PlainExecution]] = {}
        #: the same executions with their threads stripped, for ``contains``
        self._stripped: Dict[Tuple, List[PlainExecution]] = {}

    def owns(self, label: Label) -> bool:
        return label.is_call and label.method in self.methods

    def alloc_count(self, g: PlainExecution) -> int:
        return sum(1 for e in g.events if g.lab[e].method in self._alloc_methods)

    def _interpret(self, method: str, args: Tuple, loc_start: int) -> Interpretation:
        params, body = self.syn.methods[method]
        if len(params) != len(args):
            raise ValueError(f"arity mismatch calling {method}")
        env = {"null": None}
        env.update(dict(zip(params, args)))
        prog = Prog(threads={0: body})
        return Interpretation(prog, self.coll_low, self.config, globals_env=env, loc_start=loc_start)

    def executions(self, label: Label, loc_start: int = 100) -> List[PlainExecution]:
        """Plain executions implementing the call.  Complete labels map to
        complete runs returning the label's value; incomplete labels map to
        every partial run.  Empty pomsets are excluded (bind drops events
        otherwise, breaking surjectivity of the matching)."""
        if not self.owns(label):
            raise ValueError(f"label {label!r} is not implemented by {self.syn.name}")
        key = (label.method, label.args, label.ret, loc_start)
        if key in self._cache:
            return self._cache[key]
        it = self._interpret(label.method, label.args, loc_start)
        if label.ret is BOT:
            graphs = [g for g in it.partial_executions() if not g.is_empty()]
        else:
            want = label.ret
            graphs = []
            for run_ret, gs in it.return_values().items():
                if run_ret == want:
                    graphs.extend(g for g in gs if not g.is_empty())
        self._cache[key] = graphs
        return graphs

    def contains(self, label: Label, g: PlainExecution) -> bool:
        """Membership of g (any thread labelling) in I(label), up to iso."""
        norm = PlainExecution([_strip_thread(l) for l in g.labels()], g.po_order)
        allocs = sorted(
            g.lab[e].ret for e in g.events if g.lab[e].method in self._alloc_methods
        )
        if allocs:
            loc_start = min(a for a in allocs if isinstance(a, int)) - 1
        else:
            loc_start = self.config.loc_base
        label = _strip_thread(label)
        key = (label.method, label.args, label.ret, loc_start)
        if key not in self._stripped:
            self._stripped[key] = [
                PlainExecution([_strip_thread(l) for l in cand.labels()], cand.po_order)
                for cand in self.executions(label, loc_start)
            ]
        return any(iso_eq(norm, cand) for cand in self._stripped[key])


class IdentityImpl(SemanticImpl):
    """The identity implementation: each call maps to its own singleton."""

    def __init__(self, coll: Collection, methods: Iterable[str]):
        self.syn = SyntacticImpl(name="identity", methods={m: ((), None) for m in methods})
        self.coll_low = coll
        self.config = InterpConfig()
        self.methods = frozenset(methods)
        self._alloc_methods = frozenset(
            m for s in coll.specs() for m in s.interface.constructors
        )
        self._cache = {}
        self._stripped = {}

    def executions(self, label: Label, loc_start: int = 100) -> List[PlainExecution]:
        return [PlainExecution([_strip_thread(label)], [])]


def identity_impl(coll: Collection, methods: Iterable[str]) -> SemanticImpl:
    return IdentityImpl(coll, methods)


# --------------------------------------------------------------------------
# exec_bind: G · I
# --------------------------------------------------------------------------


def exec_bind(
    g: PlainExecution,
    impl: SemanticImpl,
    loc_base: int = 100,
    max_results: int = 10_000,
) -> List[PlainExecution]:
    """All plain executions obtained by replacing each implemented event of g
    with a member of its implementation (lexicographic order).  Non-library
    events and crashes pass through unchanged; inner events inherit the
    abstract event's thread.  Location bases are threaded through events in
    id order so allocations line up with the abstract allocator.  The result
    is truncated (deterministically) at ``max_results``."""
    events = list(g.events)
    out: List[PlainExecution] = []
    seen: Dict[int, List[PlainExecution]] = {}

    def rec(i: int, base: int, chosen: List[PlainExecution]):
        if len(out) >= max_results:
            return
        if i == len(events):
            table = {}
            for e, inner in zip(events, chosen):
                thread = g.lab[e].thread
                labels = [
                    l if l.is_crash else replace(l, thread=thread)
                    for l in inner.labels()
                ]
                table[e] = Pomset(labels, inner.po_reduced)
            q = _bind_by_event(Pomset(g.labels(), g.po_reduced), table)
            try:
                pe = PlainExecution(q.labels(), q.reduced)
            except ValueError:
                return
            h = canonical_hash(pe)
            bucket = seen.setdefault(h, [])
            if not any(iso_eq(pe, other) for other in bucket):
                bucket.append(pe)
                out.append(pe)
            return
        e = events[i]
        lab = g.lab[e]
        if impl.owns(lab):
            options = impl.executions(_strip_thread(lab), base)
        else:
            options = [PlainExecution([lab], [])]
        for inner in options:
            consumed = impl.alloc_count(inner)
            rec(i + 1, base + consumed, chosen + [inner])

    rec(0, loc_base, [])
    return out


# --------------------------------------------------------------------------
# Plain matchings
# --------------------------------------------------------------------------


def _chains_by_thread(g: PlainExecution) -> Dict[object, List[int]]:
    """Events grouped by thread (crashes under a dedicated key), each group
    required to be po-totally-ordered."""
    groups: Dict[object, List[int]] = {}
    for e in g.events:
        l = g.lab[e]
        key = "crash" if l.is_crash else ("none" if l.thread is None else l.thread)
        groups.setdefault(key, []).append(e)
    po = g.po
    for key, evs in groups.items():
        evs.sort()
        for i in range(len(evs) - 1):
            if (evs[i], evs[i + 1]) not in po:
                raise ValueError(f"events of thread {key} are not totally ordered")
    return groups


def is_plain_matching(f: Mapping[int, int], gc: PlainExecution, ga: PlainExecution, impl: SemanticImpl) -> bool:
    if set(f.keys()) != set(gc.events):
        return False
    if set(f.values()) != set(ga.events):
        return False  # surjectivity
    if existproj(f, gc.po) != ga.po:
        return False
    for e in ga.events:
        pre = sorted(c for c in gc.events if f[c] == e)
        block = gc.restrict_events(pre)
        lab = ga.lab[e]
        if impl.owns(lab):
            if not impl.contains(lab, block):
                return False
        else:
            if len(pre) != 1 or _strip_thread(gc.lab[pre[0]]) != _strip_thread(lab):
                return False
    return True


def find_plain_matching(
    gc: PlainExecution,
    ga: PlainExecution,
    impl: SemanticImpl,
    budget: int = 50_000,
) -> Optional[Dict[int, int]]:
    """Search for a surjection f : gc.E → ga.E satisfying the plain-matching
    conditions.  Per-thread events must form chains (true of interpreter and
    bind outputs); blocks are consecutive per thread, candidates explored in
    lexicographic order, first witness returned."""
    try:
        groups_c = _chains_by_thread(gc)
        groups_a = _chains_by_thread(ga)
    except ValueError:
        return None
    if set(groups_a) - set(groups_c):
        return None
    era = gc.era_of()
    spent = [0]

    def spend():
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceeded({"partitions": spent[0]})

    def thread_assignments(key) -> Optional[List[Dict[int, int]]]:
        cs = groups_c.get(key, [])
        as_ = groups_a.get(key, [])
        if not as_:
            return None if cs else [dict()]
        if key == "crash":
            if len(cs) != len(as_):
                return None
            return [dict(zip(cs, as_))]
        k, m = len(as_), len(cs)
        if m < k:
            return None
        options: List[Dict[int, int]] = []
        for cut in itertools.combinations(range(1, m), k - 1):
            spend()
            bounds = [0] + list(cut) + [m]
            assignment: Dict[int, int] = {}
            ok = True
            for j, a in enumerate(as_):
                block_ids = cs[bounds[j] : bounds[j + 1]]
                # a block across a crash cannot project onto po; restricting
                # to it would also cut an incomplete call from its crash
                if era[block_ids[0]] != era[block_ids[-1]]:
                    ok = False
                    break
                block = gc.restrict_events(block_ids)
                lab = ga.lab[a]
                if impl.owns(lab):
                    if not impl.contains(lab, block):
                        ok = False
                        break
                else:
                    if len(block_ids) != 1 or _strip_thread(gc.lab[block_ids[0]]) != _strip_thread(lab):
                        ok = False
                        break
                for c in block_ids:
                    assignment[c] = a
            if ok:
                options.append(assignment)
        return options if options else None

    keys = sorted(set(groups_c) | set(groups_a), key=repr)
    per_key: List[List[Dict[int, int]]] = []
    for key in keys:
        opts = thread_assignments(key)
        if opts is None:
            return None
        per_key.append(opts)
    for combo in itertools.product(*per_key):
        f: Dict[int, int] = {}
        for part in combo:
            f.update(part)
        if existproj(f, gc.po) == ga.po:
            return f
    return None


# --------------------------------------------------------------------------
# Refined matchings and lifting
# --------------------------------------------------------------------------


def is_refined_matching(
    f: Mapping[int, int],
    xc: Execution,
    xa: Execution,
    consistent_low: Callable[[Execution], Verdict],
    consistent_high: Callable[[Execution], Verdict],
) -> Tuple[bool, Dict[str, object]]:
    """Conditions of the refined matching, with a per-condition report."""
    report: Dict[str, object] = {}
    v_low = consistent_low(xc)
    v_high = consistent_high(xa)
    if v_low.is_budget or v_high.is_budget:
        report["consistency"] = "unknown"
    else:
        report["consistency"] = bool(v_low) and bool(v_high)
    proj_hb = existproj(f, xc.hb)
    sw_plus = closure(xa.sw)
    report["sw-justified"] = sw_plus <= proj_hb
    ext = closure(set(xc.sw) | set(xc.po))
    external = frozenset((a, b) for (a, b) in xc.hb if (a, b) not in ext)
    want_hb = closure(set(existproj(f, external)) | set(xa.po) | set(xa.sw))
    report["hb-determined"] = want_hb == xa.hb
    ok = report["consistency"] is True and report["sw-justified"] and report["hb-determined"]
    return ok, report


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
    (renumbered densely over sorted ids)."""
    image = sorted({f[c] for c in xc.events})
    ren = {old: new for new, old in enumerate(image)}
    g_sub = ga.restrict_events(image)
    f_dense = {c: ren[f[c]] for c in xc.events}
    proj_hb = existproj(f_dense, xc.hb)
    ext_rel = closure(set(xc.sw) | set(xc.po))
    external = frozenset((a, b) for (a, b) in xc.hb if (a, b) not in ext_rel)
    proj_external = existproj(f_dense, external)
    # candidate sw edges must each be justified by a projected hb edge
    # (po pairs stay eligible: some specs derive sw from reads-from, which
    # may relate same-thread events)
    cands = sorted(proj_hb)
    if len(cands) > 14:
        cands = sorted((a, b) for (a, b) in proj_hb if (a, b) not in g_sub.po)
    spent = [0]
    prev_ren = {old: new for new, old in enumerate(sorted(prev_ids))}
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            spent[0] += 1
            if spent[0] > budget:
                raise BudgetExceeded({"sw-subsets": spent[0]})
            sw = frozenset(combo)
            hb = closure(set(proj_external) | set(g_sub.po) | set(sw))
            if not is_irreflexive(hb):
                continue
            missing = (set(g_sub.po) | set(sw)) - set(hb)
            if missing:
                continue
            try:
                xa = Execution(g_sub, sw, hb)
            except ValueError:
                continue
            # the new abstract execution must extend the previous one
            if prev_abs is not None:
                keep = [ren[i] for i in sorted(prev_ids)]
                sub = xa.restrict_events(keep)
                if not (
                    sub.plain.labels() == prev_abs.plain.labels()
                    and sub.plain.po == prev_abs.plain.po
                    and sub.sw == prev_abs.sw
                    and sub.hb == prev_abs.hb
                ):
                    continue
            if closure(sw) - proj_hb:
                continue
            v = check_consistent(coll_high, xa)
            if not v:
                if failure is not None:
                    failure[:] = [v.reason]
                continue
            return xa
    return None


def check_lifting_step(
    xc_prev_ids: Iterable[int],
    xc: Execution,
    x_prev: Execution,
    ga: PlainExecution,
    f: Mapping[int, int],
    coll_high: Collection,
    budget: int = 4_000,
) -> Optional[Execution]:
    """Spec-facing wrapper of the lifting problem.

    ``xc_prev_ids`` names the events of the immediate prefix of ``xc`` (one
    hb-maximal event removed); ``x_prev`` is a consistent abstract execution
    over the f-image of those events (renumbered densely over sorted ids).
    Returns an abstract execution completing the cube, or None.
    """
    prev_ids_c = frozenset(xc_prev_ids)
    if len(prev_ids_c) != len(xc) - 1:
        raise ValueError("xc_prev must be an immediate prefix of xc")
    if not check_consistent(coll_high, x_prev):
        raise ValueError("x_prev must be consistent")
    prev_ids = frozenset(f[c] for c in prev_ids_c)
    return lift_step(xc, f, ga, x_prev, prev_ids, coll_high, budget)


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


# --------------------------------------------------------------------------
# Global-spec preservation
# --------------------------------------------------------------------------


def check_global_preservation(
    dep: LibrarySpec,
    xc: Execution,
    xa: Execution,
    f: Mapping[int, int],
) -> Tuple[bool, Dict[str, object]]:
    """Condition 2 of compositional correctness for one dependency: global
    well-formedness transports downward and global consistency upward, under
    anonymization; non-implemented events must have singleton preimages."""
    report: Dict[str, object] = {}
    owns = dep.interface.owns
    for e in xa.events:
        if owns(xa.lab[e]) or xa.lab[e].is_crash:
            pre = [c for c in xc.events if f.get(c) == e]
            if len(pre) != 1:
                report["singleton-preimage"] = False
                return False, report
    report["singleton-preimage"] = True
    aa = anonymize(owns, xa)
    ac = anonymize(owns, xc)
    wf_a = bool(dep.global_wellformed(aa))
    wf_c = bool(dep.global_wellformed(ac))
    gc_c = bool(dep.global_consistent(ac))
    gc_a = bool(dep.global_consistent(aa))
    report["wf-downward"] = (not wf_a) or wf_c
    report["consistency-upward"] = (not gc_c) or gc_a
    ok = bool(report["wf-downward"] and report["consistency-upward"])
    return ok, report


# --------------------------------------------------------------------------
# Bounded implementation verification
# --------------------------------------------------------------------------


@dataclass
class VerifyRecord:
    abstract_index: int
    concrete_index: int
    matching_found: Optional[bool]  # None: the search hit its budget
    lifted: Optional[bool] = None
    wellformed_downward: Optional[bool] = None
    detail: str = ""
    witness_chain: Optional[int] = None  # length of the lifted chain
    #: a search ran out of budget, so a counterexample may have been missed
    undecided: bool = False

    @property
    def failed(self) -> bool:
        return self.matching_found is False or self.lifted is False or self.wellformed_downward is False

    def to_json(self) -> str:
        return json.dumps(
            {
                "abstract": self.abstract_index,
                "concrete": self.concrete_index,
                "matching": self.matching_found,
                "lifted": self.lifted,
                "wf_downward": self.wellformed_downward,
                "witness_chain": self.witness_chain,
                "detail": self.detail,
                "undecided": self.undecided,
            }
        )


@dataclass
class VerifyReport:
    records: List[VerifyRecord] = field(default_factory=list)
    budget_hits: int = 0
    bound_note: str = ""

    @property
    def ok(self) -> bool:
        """No counterexample; undecided records do not count against it."""
        return not self.counterexamples()

    def counterexamples(self) -> List[VerifyRecord]:
        return [r for r in self.records if r.failed]

    def undecided(self) -> List[VerifyRecord]:
        return [r for r in self.records if r.undecided and not r.failed]

    def to_json_lines(self) -> str:
        return "\n".join(r.to_json() for r in self.records)


def _refinements(coll: Collection, g: PlainExecution) -> List[Execution]:
    from .lang import candidate_refinements

    return list(candidate_refinements(coll, g))


def verify_impl_bounded(
    impl: SemanticImpl,
    coll_high: Collection,
    coll_low: Collection,
    corpus: Sequence[PlainExecution],
    budget: int = 5_000,
    max_concrete: int = 64,
    check_wf: bool = True,
) -> VerifyReport:
    """Corpus-bounded check of the correctness conditions.

    For every abstract plain execution G in the corpus and every concrete
    G' ∈ G·I (up to ``max_concrete``): a plain matching must exist; every
    hereditarily consistent low-level execution refining G' must lift, link
    by link along its witness chain, to consistent abstract executions; and
    immediate well-formedness of an abstract refinement must transport to
    some concrete refinement.  The report states the explored bound.
    """
    report = VerifyReport(
        bound_note=f"corpus={len(corpus)} graphs, max_concrete={max_concrete}, budget={budget}"
    )
    for gi, ga in enumerate(corpus):
        concretes = exec_bind(ga, impl, max_results=max_concrete)
        for ci, gc in enumerate(concretes):
            rec = VerifyRecord(gi, ci, matching_found=False)
            try:
                f = find_plain_matching(gc, ga, impl, budget=budget)
            except BudgetExceeded:
                report.budget_hits += 1
                rec.matching_found, rec.undecided = None, True
                rec.detail = "matching search hit budget"
                report.records.append(rec)
                continue
            if f is None:
                rec.detail = "no plain matching (surjection existence fails)"
                report.records.append(rec)
                continue
            rec.matching_found = True
            # hereditary consistency upward
            found_consistent_low = False
            for xc in _refinements(coll_low, gc):
                v = check_hereditarily_consistent(coll_low, xc, budget=budget)
                if v.is_budget:
                    report.budget_hits += 1
                    rec.undecided = True
                    rec.detail = rec.detail or "hereditary consistency check hit budget"
                    continue
                if not v:
                    continue
                found_consistent_low = True
                why: List[str] = []
                try:
                    chain = lift_chain(xc, v.witness.subsets, f, ga, coll_high, budget=budget, failure=why)
                except BudgetExceeded:
                    report.budget_hits += 1
                    rec.undecided = True
                    rec.detail = rec.detail or "lifting hit budget"
                    continue
                if chain is None:
                    rec.lifted = False
                    rec.detail = "no consistent abstract refinement lifts the chain" + (
                        f" (last failure: {why[0]})" if why else ""
                    )
                    break
                rec.witness_chain = len(chain)
            if rec.lifted is None and found_consistent_low and not rec.undecided:
                rec.lifted = True
            if not found_consistent_low and not rec.detail:
                rec.detail = "no hereditarily consistent concrete refinement"
            # well-formedness downward
            if check_wf:
                xa0 = Execution(ga)
                if check_immediately_wellformed(coll_high, xa0):
                    wf_ok = False
                    for xc0 in _refinements(coll_low, gc):
                        if check_immediately_wellformed(coll_low, xc0):
                            wf_ok = True
                            break
                    rec.wellformed_downward = wf_ok
                    if not wf_ok and not rec.detail:
                        rec.detail = "immediate well-formedness does not transport"
                else:
                    rec.wellformed_downward = None
            report.records.append(rec)
    return report
