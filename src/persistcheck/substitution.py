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
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import lang
from .framework import (
    BudgetExceeded,
    Collection,
    LibrarySpec,
    Verdict,
    check_consistent,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    shared_verdicts,
)
from .lang import InterpConfig, Interpretation, Prog, SyntacticImpl
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    Pomset,
    anonymize,
    bits,
    canonical_hash,
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


def _bind_rows(outer: Sequence[int], inners: Sequence[Sequence[int]]) -> List[int]:
    """The lexicographic bind of closed orders on bit rows: inner block ``e``
    is shifted to its offset, and each of its rows also holds the blocks of
    ``e``'s outer successors.  With both levels closed, so is the result."""
    offsets: List[int] = []
    masks: List[int] = []
    width = 0
    for rows in inners:
        offsets.append(width)
        masks.append(((1 << len(rows)) - 1) << width)
        width += len(rows)
    out: List[int] = []
    for e, rows in enumerate(inners):
        later = 0
        for s in bits(outer[e]):
            later |= masks[s]
        out.extend(row << offsets[e] | later for row in rows)
    return out


def _bind(p: Pomset, inners: Sequence[Pomset]) -> Pomset:
    """p with event ``e`` replaced by ``inners[e]``, lexicographically."""
    labels = [l for inner in inners for l in inner.labels()]
    return Pomset(labels, Order(_bind_rows(p.po_order.rows, [q.po_order.rows for q in inners])))


def pomset_bind(p: Pomset, g: Callable[[object], Pomset]) -> Pomset:
    """Replace each event of p by the pomset g(label), ordered
    lexicographically: inner events inherit the outer order, and within one
    outer event the inner order applies."""
    return _bind(p, [g(p.lab[e]) for e in p.events])


def set_bind(ps: Iterable[Pomset], g: Callable[[object], Sequence[Pomset]]) -> List[Pomset]:
    """Set-level bind: union over per-event choices of inner pomsets,
    deduplicated up to isomorphism."""
    out: List[Pomset] = []
    seen: Dict[int, List[Pomset]] = {}
    for p in ps:
        choice_lists = [list(g(p.lab[e])) for e in p.events]
        for combo in itertools.product(*choice_lists):
            q = _bind(p, combo)
            h = canonical_hash(q)
            bucket = seen.setdefault(h, [])
            if not any(iso_eq(q, other) for other in bucket):
                bucket.append(q)
                out.append(q)
    return out


# --------------------------------------------------------------------------
# Semantic implementations
# --------------------------------------------------------------------------


def _strip_thread(l: Label) -> Label:
    return replace(l, thread=None) if l.thread is not None else l


def _unthreaded(l: Label) -> Tuple:
    """What identifies ``_strip_thread(l)``, without building it."""
    return (l.method, l.args, l.ret, l.tags)


def _po_sequence(g: PlainExecution) -> Optional[List[Label]]:
    """g's labels in po order if g is a chain, else None: the po rows of a
    chain of n events hold n-1, …, 0 successors."""
    at = {row.bit_count(): e for e, row in enumerate(g.po_order.rows)}
    return [g.lab[at[k]] for k in reversed(range(len(g)))] if len(at) == len(g) else None


class SemanticImpl:
    """A map from method-call labels to sets of plain executions, downward
    closed, realized by interpreting a syntactic implementation's bodies.
    Each body runs as one thread, so every member is a chain.

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
        #: per ``executions`` key, its members' labels without threads, in po order
        self._members: Dict[Tuple, FrozenSet[Tuple]] = {}

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
        """Membership of g (any thread labelling) in I(label): g is a chain
        with a member's labels in po order."""
        labels = _po_sequence(g)
        return labels is not None and self._contains(label, labels)

    def _contains(self, label: Label, labels: Sequence[Label]) -> bool:
        """``contains`` on a chain given by its labels in po order, against
        the runs allocating from just below its first returned location (a
        block that returns none matches the same runs at every base)."""
        locs = [l.ret for l in labels if l.method in self._alloc_methods and isinstance(l.ret, int)]
        loc_start = min(locs) - 1 if locs else self.config.loc_base
        key = (label.method, label.args, label.ret, loc_start)
        members = self._members.get(key)
        if members is None:
            members = self._members[key] = frozenset(
                tuple(map(_unthreaded, _po_sequence(run))) for run in self.executions(label, loc_start)
            )
        return tuple(map(_unthreaded, labels)) in members


class IdentityImpl(SemanticImpl):
    """The identity implementation: each call maps to its own singleton."""

    def __init__(self, coll: Collection, methods: Iterable[str]):
        super().__init__(SyntacticImpl("identity", {m: ((), None) for m in methods}), coll)

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
    with a member of its implementation (lexicographic order), one per choice
    of members; ``set_bind`` is the bind that deduplicates up to isomorphism.
    Non-library events and crashes pass through unchanged; inner events
    inherit the abstract event's thread.  Location bases are threaded through
    events in id order so allocations line up with the abstract allocator.
    A choice that breaks the incomplete-call condition of plain executions
    yields nothing.  The result is truncated (deterministically) at
    ``max_results``."""
    events = list(g.events)
    out: List[PlainExecution] = []

    def rec(i: int, base: int, chosen: List[PlainExecution]):
        if len(out) >= max_results:
            return
        if i == len(events):
            labels = [
                l if l.is_crash else replace(l, thread=g.lab[e].thread)
                for e, inner in zip(events, chosen)
                for l in inner.labels()
            ]
            rows = _bind_rows(g.po_order.rows, [inner.po_order.rows for inner in chosen])
            try:
                out.append(PlainExecution(labels, Order(rows)))
            except ValueError:
                pass
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
    po = g.po_order.rows
    for key, evs in groups.items():
        for a, b in zip(evs, evs[1:]):
            if not po[a] >> b & 1:
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
            if len(pre) != 1 or _unthreaded(gc.lab[pre[0]]) != _unthreaded(lab):
                return False
    return True


def _thread_assignments(
    cs: List[int], as_: List[int], crash: bool, fits: Callable[[int, List[int]], bool], spend: Callable[[], None]
) -> Optional[List[Dict[int, int]]]:
    """The maps of one thread's concrete chain ``cs`` onto its abstract chain
    ``as_`` (crashes one to one): consecutive nonempty blocks, block ``j``
    fitting ``as_[j]``, in lexicographic order of the cuts.  The walk over
    (abstract index, block start) tries each span once, charging ``spend``."""
    if not as_:
        return None if cs else [dict()]
    if crash:
        return [dict(zip(cs, as_))] if len(cs) == len(as_) else None
    k, m = len(as_), len(cs)
    if m < k:
        return None
    ends: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}  # (j, start) -> block ends of as_[j:]

    def walk(j: int, start: int) -> List[Tuple[int, ...]]:
        if (j, start) not in ends:
            ends[j, start] = []
            for end in (m,) if j == k - 1 else range(start + 1, m - k + j + 2):
                spend()
                if fits(as_[j], cs[start:end]):
                    ends[j, start] += [(end,) + rest for rest in (walk(j + 1, end) if end < m else [()])]
        return ends[j, start]

    options = [{c: a for a, s, e in zip(as_, (0,) + cut, cut) for c in cs[s:e]} for cut in walk(0, 0)]
    return options or None


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
            raise BudgetExceeded({"spans": spent[0]})

    def fits(a: int, block_ids: List[int]) -> bool:
        """Whether the concrete block can implement the abstract event."""
        # a block across a crash cannot project onto po; restricting to it
        # would also cut an incomplete call from its crash
        if era[block_ids[0]] != era[block_ids[-1]]:
            return False
        lab = ga.lab[a]
        if impl.owns(lab):
            # a span of a checked thread chain, so its ids are in po order
            return impl._contains(lab, [gc.lab[c] for c in block_ids])
        return len(block_ids) == 1 and _unthreaded(gc.lab[block_ids[0]]) == _unthreaded(lab)

    keys = sorted(set(groups_c) | set(groups_a), key=repr)
    per_key: List[List[Dict[int, int]]] = []
    for key in keys:
        opts = _thread_assignments(groups_c.get(key, []), groups_a.get(key, []), key == "crash", fits, spend)
        if opts is None:
            return None
        per_key.append(opts)
    for combo in itertools.product(*per_key):
        f: Dict[int, int] = {}
        for part in combo:
            f.update(part)
        if _project_rows(gc.po_order.rows, [f[c] for c in gc.events], len(ga)) == list(ga.po_order.rows):
            return f
    return None


# --------------------------------------------------------------------------
# Refined matchings and lifting
# --------------------------------------------------------------------------


def _projected_hb(xc: Execution, img: Sequence[int], k: int) -> Tuple[List[int], List[int]]:
    """The projections of hb and of its external part hb \\ (po ∪ sw)⁺."""
    hb = xc.hb_order.rows
    inner = xc.plain.po_order.extend(xc.sw).rows
    external = [h & ~i for h, i in zip(hb, inner)]
    return _project_rows(hb, img, k), _project_rows(external, img, k)


def _within(rows: Sequence[int], bound: Sequence[int]) -> bool:
    return not any(row & ~b for row, b in zip(rows, bound))


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
    k = len(xa)
    proj_hb, proj_external = _projected_hb(xc, [f[c] for c in xc.events], k)
    report["sw-justified"] = _within(Order.close(k, xa.sw).rows, proj_hb)
    base = [e | p for e, p in zip(proj_external, xa.plain.po_order.rows)]
    report["hb-determined"] = Order.close_rows(base).extend(xa.sw).rows == xa.hb_order.rows
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


@shared_verdicts()
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
    some concrete refinement.  The report states the explored bound,
    counting the graphs that bind to no concrete (they give no record) and
    those with more than ``max_concrete`` concretes (only the first
    ``max_concrete`` are checked).
    """
    report = VerifyReport()
    empty = capped = 0

    def undecided(rec: VerifyRecord, why: str) -> None:
        report.budget_hits += 1
        rec.undecided = True
        rec.detail = rec.detail or why

    for gi, ga in enumerate(corpus):
        concretes = exec_bind(ga, impl, max_results=max_concrete + 1)
        empty += not concretes
        if len(concretes) > max_concrete:
            capped += 1
            del concretes[max_concrete:]
        # the abstract side of well-formedness transport, once per graph
        wf_high = check_immediately_wellformed(coll_high, Execution(ga)) if check_wf and concretes else None
        for ci, gc in enumerate(concretes):
            rec = VerifyRecord(gi, ci, matching_found=False)
            try:
                f = find_plain_matching(gc, ga, impl, budget=budget)
            except BudgetExceeded:
                rec.matching_found = None
                undecided(rec, "matching search hit budget")
                report.records.append(rec)
                continue
            if f is None:
                rec.detail = "no plain matching (surjection existence fails)"
                report.records.append(rec)
                continue
            rec.matching_found = True
            # looked up on its module, so a patched or traced generator is the one called
            refinements = list(lang.candidate_refinements(coll_low, gc))
            # hereditary consistency upward
            found_consistent_low = False
            for xc in refinements:
                v = check_hereditarily_consistent(coll_low, xc, budget=budget)
                if v.is_budget:
                    undecided(rec, "hereditary consistency check hit budget")
                    continue
                if not v:
                    continue
                found_consistent_low = True
                why: List[str] = []
                try:
                    chain = lift_chain(xc, v.witness.subsets, f, ga, coll_high, budget=budget, failure=why)
                except BudgetExceeded:
                    undecided(rec, "lifting hit budget")
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
            # well-formedness downward: an out-of-budget check on either
            # level leaves the transport undecided
            if wf_high is not None and wf_high.is_budget:
                undecided(rec, "well-formedness check hit budget")
            elif wf_high:
                unknown = False
                for xc0 in refinements:
                    v = check_immediately_wellformed(coll_low, xc0)
                    if v:
                        rec.wellformed_downward = True
                        break
                    unknown = unknown or v.is_budget
                else:
                    if unknown:
                        undecided(rec, "well-formedness check hit budget")
                    else:
                        rec.wellformed_downward = False
                        rec.detail = rec.detail or "immediate well-formedness does not transport"
            report.records.append(rec)
    report.bound_note = (
        f"corpus={len(corpus)} graphs ({empty} bind to no concrete, {capped} over max_concrete), "
        f"max_concrete={max_concrete}, budget={budget}"
    )
    return report
