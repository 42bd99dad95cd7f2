"""Pomset substitution, plain matchings, lifting, and bounded implementation
verification.

``exec_bind`` replaces each event of an abstract plain execution by a member
of its implementation, ordered lexicographically, and gives the plain
matching of each result; ``find_plain_matching`` searches one for a given
pair.  ``verify_impl_bounded`` takes each plain matching from the bind, over a
corpus of abstract executions: for every concrete member of G·I, hereditary
consistency at the low level must lift along it to a consistent abstract
refinement (one lifting step per chain link), and well-formedness must
transport downward.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import lang
from .framework import (
    BudgetExceeded,
    Collection,
    HereditaryChain,
    LibrarySpec,
    Prefix,
    Verdict,
    _always_ok,
    _prefix,
    check_consistent,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    shared_call,
    shared_verdicts,
)
from .lang import InterpConfig, Interpretation, Prog, SyntacticImpl
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    anonymize,
    bits,
)


# --------------------------------------------------------------------------
# Projected relations and the bind on rows
# --------------------------------------------------------------------------


def _project_rows(rows: Sequence[int], img: Sequence[int], k: int, mask: int = -1) -> List[int]:
    """∃f⟨r⟩ on bit rows: event c maps to ``img[c]`` in ``0..k-1``.  Only
    the events of ``mask`` (by default all) and the pairs among them count."""
    out = [0] * k
    for a, row in enumerate(rows):
        row &= mask
        if row and mask >> a & 1:
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


# --------------------------------------------------------------------------
# Semantic implementations
# --------------------------------------------------------------------------


def _unthreaded(l: Label) -> Tuple:
    """What identifies ``l`` up to its thread, without building a label."""
    return (l.method, l.args, l.ret, l.tags)


class _Block:
    """A member ``inner`` of an implementation as ``exec_bind`` places it,
    with what it adds to a concrete's sourcing and encapsulation under the
    implementation's low collection, worked out once per member:

    * ``writes``: the value-flow keys its events write (``lang.ValueFlow``).
    * ``needs``: per key that one of its events reads and no other of its
      events writes, whether the block writes it (then only by that reader).
    * ``ctors``: per constructor with locations, its library and locations.
    * ``uses``: per use (a call with locations that is no constructor) that
      no po-earlier constructor of the block covers, its library and
      locations.
    * ``owned``: every event is a crash or owned by a library.

    ``labels`` are in po order, as the interpreter builds a thread's run;
    its labels on a thread (``on``) are built once per thread."""

    __slots__ = ("rows", "allocs", "writes", "needs", "ctors", "uses", "owned", "labels", "_on")

    def __init__(self, inner: PlainExecution, impl: "SemanticImpl"):
        coll = impl.coll_low
        self.rows, self.allocs = inner.po_order.rows, impl.alloc_count(inner)
        self.labels, self._on = inner.lab, {}
        flows = [impl._flow.of(l) for l in self.labels]
        writers: Dict[tuple, int] = {}
        for _, ws in flows:
            for w in ws:
                writers[w] = writers.get(w, 0) + 1
        self.writes = frozenset(writers)
        needs: Dict[tuple, bool] = {}
        for r, ws in flows:
            if r is not None and writers.get(r, 0) <= (r in ws):
                needs[r] = r in ws
        self.needs = tuple(needs.items())
        ctors: List[Tuple[int, str, FrozenSet]] = []
        uses: List[Tuple[int, str, FrozenSet]] = []
        self.owned = True
        for e, l in enumerate(self.labels):
            spec = coll.owner_of(l)
            if spec is None:
                self.owned = self.owned and l.is_crash
                continue
            locs = spec.interface.locations(l)
            if locs:
                (ctors if l.method in spec.interface.constructors else uses).append((e, spec.name, locs))
        self.ctors = tuple((lib, locs) for _, lib, locs in ctors)
        self.uses = tuple(
            (lib, locs)
            for e, lib, locs in uses
            if not any(clib == lib and locs <= clocs and self.rows[c] >> e & 1 for c, clib, clocs in ctors)
        )

    def on(self, thread: Optional[int]) -> Tuple[Label, ...]:
        """Its labels, each call's on ``thread``."""
        got = self._on.get(thread)
        if got is None:
            got = self._on[thread] = tuple(
                l if l.is_crash or l.thread == thread else replace(l, thread=thread) for l in self.labels
            )
        return got


class SemanticImpl:
    """A map from method-call labels to sets of plain executions, downward
    closed, realized by interpreting a syntactic implementation's bodies.
    Each body runs as one thread, so every member is a chain.

    Each body is interpreted once per arguments and location base
    (``executions``), and its members are kept only as the bind's blocks.

    An implementation is one verification session: ``verdicts`` is the
    ``shared_verdicts`` memo of every ``verify_impl_bounded`` call on it, so
    checking a corpus graph by graph shares what one call over the corpus
    shares.  The memo grows with every distinct consistency check, Px86
    search, lifting step and hereditary verdict it keeps (no entry ran out
    of budget); drop the implementation to drop the memo.

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
        self._flow = lang.ValueFlow(coll_low)
        #: per (method, args, location base), its interpretation, or the
        #: stats of the ``BudgetExceeded`` it raised
        self._runs: Dict[Tuple, object] = {}
        #: per (method, args, return, location base), its members as the
        #: bind places them
        self._blocks: Dict[Tuple, List[_Block]] = {}
        #: the shared verdicts of the calls of ``verify_impl_bounded`` on it
        self.verdicts: Dict[tuple, object] = {}

    def owns(self, label: Label) -> bool:
        return label.is_call and label.method in self.methods

    def alloc_count(self, g: PlainExecution) -> int:
        return sum(1 for l in g.lab if l.method in self._alloc_methods)

    def _interpret(self, method: str, args: Tuple, loc_start: int) -> Interpretation:
        params, body = self.syn.methods[method]
        if len(params) != len(args):
            raise ValueError(f"arity mismatch calling {method}")
        env = {"null": None}
        env.update(dict(zip(params, args)))
        prog = Prog(threads={0: body})
        return Interpretation(prog, self.coll_low, self.config, globals_env=env, loc_start=loc_start)

    def executions(self, label: Label, loc_start: int) -> List[PlainExecution]:
        """Plain executions implementing the call, whatever its thread.
        Complete labels map to complete runs returning the label's value;
        incomplete labels map to every partial run.  Empty pomsets are
        excluded (bind drops events otherwise, breaking surjectivity of the
        matching).  The body does not
        read the return value, so it is interpreted once per method,
        arguments and base; an interpretation that runs out of runs keeps
        its stats, and raises ``BudgetExceeded`` with them again.  Only
        ``blocks`` asks, once per label and base."""
        key = (label.method, label.args, loc_start)
        it = self._runs.get(key)
        if it is None:
            try:
                it = self._interpret(label.method, label.args, loc_start)
            except BudgetExceeded as e:
                it = e.stats
            self._runs[key] = it
        if isinstance(it, dict):
            raise BudgetExceeded(it)
        graphs = it.partial_executions() if label.ret is BOT else it.return_values().get(label.ret, [])
        return [g for g in graphs if not g.is_empty()]

    def blocks(self, label: Label, loc_start: int) -> List[_Block]:
        """The members of ``executions(label, loc_start)``, each as the bind
        places it, kept per label (up to its thread) and location base."""
        key = (label.method, label.args, label.ret, loc_start)
        got = self._blocks.get(key)
        if got is None:
            got = self._blocks[key] = [_Block(inner, self) for inner in self.executions(label, loc_start)]
        return got

    def _contains(self, label: Label, labels: Sequence[Label]) -> bool:
        """Membership in I(label) of the chain whose labels, in po order and
        with any threads, are ``labels``, against the blocks allocating from
        just below its first returned location (a block that returns none
        matches the same members at every base)."""
        locs = [l.ret for l in labels if l.method in self._alloc_methods and isinstance(l.ret, int)]
        loc_start = min(locs) - 1 if locs else self.config.loc_base
        want = tuple(map(_unthreaded, labels))
        return any(tuple(map(_unthreaded, b.labels)) == want for b in self.blocks(label, loc_start))


# --------------------------------------------------------------------------
# exec_bind: G · I
# --------------------------------------------------------------------------


def exec_bind(
    g: PlainExecution,
    impl: SemanticImpl,
    max_results: int = 10_000,
    facts: Optional[List[Tuple[bool, Optional[bool]]]] = None,
) -> List[Tuple[PlainExecution, Dict[int, int]]]:
    """All plain executions obtained by replacing each implemented event of g
    with a member of its implementation (lexicographic order), one per choice
    of members, each with the plain matching that maps a concrete event to
    the abstract event whose block holds it.
    Non-library events and crashes pass through unchanged; inner events
    inherit the abstract event's thread.  Location bases are threaded through
    events in id order from ``impl.config.loc_base``, so allocations line up
    with the abstract allocator.
    Every choice is a plain execution: a pending call's member ends in its
    one pending event, and the abstract call's po-successors are crashes,
    which pass through.  The result is truncated (deterministically) at
    ``max_results``.

    First, one pass over the events in id order keeps the bases that some
    choice for the earlier events reaches.  An event with no block at any
    of them ends every choice, so the bind returns ``[]`` and loses no
    concrete.  A ``BudgetExceeded`` ends the pass and the enumeration
    decides; it asks blocks only at bases the pass reaches, so an empty bind
    never runs out of runs, and one that runs out never comes out empty.

    ``facts``, if given, receives per concrete ``(sourced, encapsulated)``
    under ``impl.coll_low``, decided from its blocks' facts (``_Block``) as
    the choices are made:

    * ``sourced``: each read has a write of its key (``lang.ValueFlow``) by
      another event that is not era-after it, as Px86's reads-from
      candidates have.  A member holds no crash (its body runs as one
      thread), so an inner event is era-before another block's event as its
      abstract event is, ``g.eb``.  ``written`` holds per key the events
      whose chosen blocks write it; a read that its block leaves unsourced
      needs such an event that is not era-after its own, nor its own when
      the block writes the key only by the reader.
    * ``encapsulated``: ``check_encapsulated`` of ``Execution(gc)``, whose hb
      is po.  A use that no earlier constructor of its block covers needs
      one in a block whose abstract event is po-before its own, and, as
      constructors must be disjoint, that is the one ``ctor_at`` holds at
      any of its locations.  A concrete with an event that no library owns
      gets ``None``: its checks raise ``UnknownMethod``."""
    labs = g.lab
    po, eb = g.po_order.rows, g.eb.rows
    out: List[Tuple[PlainExecution, Dict[int, int]]] = []
    #: an event that passes through, as its one block
    through = [None if impl.owns(l) else [_Block(PlainExecution([l], []), impl)] for l in labs]
    reach = {impl.config.loc_base}
    try:
        for i, l in enumerate(labs):
            reach = {base + b.allocs for base in reach for b in through[i] or impl.blocks(l, base)}
        if not reach:
            return out
    except BudgetExceeded:
        pass
    #: the chosen blocks, each with its labels on its event's thread
    chosen: List[Tuple[_Block, Tuple[Label, ...]]] = []
    #: per write key, the row of the events whose chosen blocks write it
    written: Dict[tuple, int] = {}
    #: per constructor location: the event of its block, its library and its
    #: locations
    ctor_at: Dict[object, Tuple[int, str, FrozenSet]] = {}
    clashes = 0

    def sourced() -> bool:
        return all(
            written.get(r, 0) & ~eb[i] & ~(own << i) for i, (b, _) in enumerate(chosen) for r, own in b.needs
        )

    def encapsulated() -> Optional[bool]:
        if not all(b.owned for b, _ in chosen):
            return None
        if clashes:
            return False
        for i, (b, _) in enumerate(chosen):
            for lib, locs in b.uses:
                c = ctor_at.get(next(iter(locs)))
                if c is None or c[1] != lib or not locs <= c[2] or not po[c[0]] >> i & 1:
                    return False
        return True

    def rec(i: int, base: int):
        nonlocal clashes
        if len(out) >= max_results:
            return
        if i == len(labs):
            labels = [l for _, block in chosen for l in block]
            f = dict(enumerate(e for e, (_, block) in enumerate(chosen) for _ in block))
            rows = _bind_rows(po, [b.rows for b, _ in chosen])
            out.append((PlainExecution(labels, Order(rows)), f))
            if facts is not None:
                facts.append((sourced(), encapsulated()))
            return
        for b in through[i] or impl.blocks(labs[i], base):
            for w in b.writes:
                written[w] = written.get(w, 0) | 1 << i
            placed, clashed = [], 0
            for lib, locs in b.ctors:
                for loc in locs:
                    if loc in ctor_at:
                        clashed += 1
                    else:
                        ctor_at[loc] = (i, lib, locs)
                        placed.append(loc)
            clashes += clashed
            chosen.append((b, b.on(labs[i].thread)))
            rec(i + 1, base + b.allocs)
            chosen.pop()
            clashes -= clashed
            for loc in placed:
                del ctor_at[loc]
            for w in b.writes:
                written[w] ^= 1 << i

    rec(0, impl.config.loc_base)
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
    eb = gc.eb.rows
    spent = [0]

    def spend():
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceeded({"spans": spent[0]})

    def fits(a: int, block_ids: List[int]) -> bool:
        """Whether the concrete block can implement the abstract event."""
        # a block across a crash cannot project onto po; restricting to it
        # would also cut an incomplete call from its crash
        if eb[block_ids[0]] >> block_ids[-1] & 1:
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


def _hb_parts(xc: Execution) -> Tuple[Sequence[int], List[int]]:
    """The rows of xc's hb and of its external part hb \\ (po ∪ sw)⁺."""
    hb = xc.hb_order.rows
    inner = xc.plain.po_order.extend(xc.sw).rows
    return hb, [h & ~i for h, i in zip(hb, inner)]


def _project_link(
    hb: Sequence[int],
    external: Sequence[int],
    f: Mapping[int, int],
    ids: Iterable[int],
    image: Sequence[int],
    mask: int = -1,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The projections of the rows ``hb`` and ``external``, restricted to the
    events ``ids`` (whose bit mask is ``mask``), onto their f-image ``image``
    (ascending), renumbered densely."""
    ren = {a: y for y, a in enumerate(image)}
    img = [0] * len(hb)
    for c in ids:
        img[c] = ren[f[c]]
    k = len(image)
    return tuple(_project_rows(hb, img, k, mask)), tuple(_project_rows(external, img, k, mask))


def _within(rows: Sequence[int], bound: Sequence[int]) -> bool:
    return not any(row & ~b for row, b in zip(rows, bound))


def _lift_projected(
    image: Tuple[int, ...],
    proj_hb: Tuple[int, ...],
    proj_external: Tuple[int, ...],
    ga: PlainExecution,
    prev_abs: Optional[Execution],
    prev_ids: FrozenSet[int],
    coll_high: Collection,
    budget: int,
    failure: Optional[List[str]],
) -> Optional[Execution]:
    """``_lift_core`` through ``shared_call``: computed once per exact input
    inside a ``shared_verdicts`` scope.  The key holds the collection (by
    identity), ga's labels and po rows, the budget, the image and both
    projections, the previous abstract execution's labels, po rows, hb rows
    and sw, and ``prev_ids``: everything the step reads.  The step's last
    refutation, kept with it, is written into ``failure``; a step that runs
    out of budget raises, is never kept and writes nothing."""
    prev = None
    if prev_abs is not None:
        prev = (prev_abs.plain.lab, prev_abs.plain.po_order.rows, prev_abs.hb_order.rows, prev_abs.sw)
    key = (
        _lift_core, coll_high, ga.lab, ga.po_order.rows, budget,
        image, proj_hb, proj_external, prev, prev_ids,
    )
    xa, why = shared_call(
        key, lambda: _lift_core(image, proj_hb, proj_external, ga, prev_abs, prev_ids, coll_high, budget)
    )
    if why is not None and failure is not None:
        failure[:] = [why]
    return xa


def _lift_core(
    image: Tuple[int, ...],
    proj_hb: Tuple[int, ...],
    proj_external: Tuple[int, ...],
    ga: PlainExecution,
    prev_abs: Optional[Execution],
    prev_ids: FrozenSet[int],
    coll_high: Collection,
    budget: int,
) -> Tuple[Optional[Execution], Optional[str]]:
    """One lifting step given the concrete side as the ascending abstract
    ``image`` and the projections onto it of hb and of external hb: the sw
    subsets of projected hb edges are tried smallest first, and the first
    candidate that is acyclic, extends ``prev_abs``, is sw-justified and is
    consistent is returned, with the reason of the last candidate refuted
    before it (``None`` if none was); no candidate gives ``None`` and that
    last reason."""
    ren = {old: new for new, old in enumerate(image)}
    g_sub = ga.restrict_events(image)
    k = len(image)
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
        # the new abstract execution must extend the previous one; its plain
        # part is ga cut to the previous image, which this image holds
        keep = [ren[i] for i in sorted(prev_ids)]
        at = {old: new for new, old in enumerate(keep)}
    spent = 0
    budgeted = False
    why: Optional[str] = None
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            spent += 1
            if spent > budget:
                raise BudgetExceeded({"sw-subsets": spent})
            hb = base.extend(combo)
            if not hb.is_acyclic():
                continue
            if prev_abs is not None and not (
                hb.restrict(keep).rows == prev_abs.hb_order.rows
                and {(at[a], at[b]) for a, b in combo if a in at and b in at} == prev_abs.sw
            ):
                continue
            if not _within(Order.close(k, combo).rows, proj_hb):
                continue
            xa = Execution(g_sub, combo, hb)
            v = check_consistent(coll_high, xa)
            if v:
                return xa, why
            budgeted = budgeted or v.is_budget
            why = v.reason
    if budgeted:
        raise BudgetExceeded({"stage": "lifting"})
    return None, why


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
    receives the last failing spec condition.

    Each link is a set of xc's event ids that is hb-downward closed, as the
    links of a hereditary chain are, so the closure of po ∪ sw restricted
    to it is the restriction of xc's closure: hb and external hb are
    derived once for xc, and each link reads them through its bit mask.  A
    link that is not downward closed raises ``ValueError``."""
    hb, external = _hb_parts(xc)
    preds = xc.hb_order.preds()
    prev_abs: Optional[Execution] = None
    prev_image: Tuple[int, ...] = ()
    out: List[Execution] = []
    for ids in subsets:
        mask = 0
        for c in ids:
            mask |= 1 << c
        if any(preds[c] & ~mask for c in ids):
            raise ValueError("a chain link must be hb-downward closed")
        image = tuple(sorted({f[c] for c in ids}))
        if image == prev_image and prev_abs is not None:
            out.append(prev_abs)
            continue
        proj_hb, proj_external = _project_link(hb, external, f, ids, image, mask)
        xa = _lift_projected(
            image, proj_hb, proj_external, ga, prev_abs, frozenset(prev_image), coll_high, budget, failure
        )
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
    concrete_index: Optional[int]  # None: the graph's bind ran out of interpreter runs
    lifted: Optional[bool] = None
    wellformed_downward: Optional[bool] = None
    detail: str = ""
    witness_chain: Optional[int] = None  # length of the lifted chain
    #: a search ran out of budget, so a counterexample may have been missed
    undecided: bool = False

    @property
    def failed(self) -> bool:
        return self.lifted is False or self.wellformed_downward is False

    def to_json(self) -> str:
        return json.dumps(
            {
                "abstract": self.abstract_index,
                "concrete": self.concrete_index,
                "matching": True if self.concrete_index is not None else None,
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


def _refinements(coll: Collection, gc: PlainExecution) -> Iterator[Prefix]:
    """The candidate refinements of ``gc``, built as they are asked for, each
    with an owner table of its own that serves both of its checks.
    ``candidate_refinements`` is looked up on its module when the first one
    is asked for, so a patched or traced generator is the one called."""
    for xc in lang.candidate_refinements(coll, gc):
        yield _prefix(coll, xc)


def _hereditary(coll: Collection, xc: Prefix, budget: int) -> Verdict:
    """``check_hereditarily_consistent(coll, xc, budget=budget)`` through
    ``shared_call``, keyed by the collection (by identity), the budget and
    the exact key of ``xc`` (``Execution.key``): the refinements of distinct
    concretes are often the same execution.  A kept OK verdict holds its
    chain as the masks of its links, and its witness is rebuilt on ``xc``'s
    own execution, whose events those are."""

    def compute() -> Verdict:
        v = check_hereditarily_consistent(coll, xc, budget=budget)
        if not v:
            return v
        masks = tuple(sum(1 << e for e in s) for s in v.witness.subsets)
        return Verdict(v.status, v.reason, masks, v.stats)

    v = shared_call((_hereditary, coll, budget) + xc.owners.x.key(xc.mask), compute)
    if not v:
        return v
    chain = HereditaryChain(subsets=[frozenset(bits(m)) for m in v.witness], source=xc.execution)
    return Verdict(v.status, v.reason, chain, v.stats)


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
    G' ∈ G·I (up to ``max_concrete``), built by the plain matching f: every
    hereditarily consistent low-level execution refining G' must lift along
    f, link by link along its witness chain, to consistent abstract
    executions; and immediate well-formedness of an abstract refinement must
    transport to some concrete refinement.  The report states the explored
    bound, counting the graphs that bind to no concrete (they give no
    record) and those with more than ``max_concrete`` concretes (only the
    first ``max_concrete`` are checked).  A graph whose bind runs out of
    interpreter runs gives one undecided record with no concrete.

    The bind gives each concrete whether its reads have a source and
    whether it is encapsulated (``exec_bind``'s ``facts``), under
    ``coll_low``, which must therefore be ``impl.coll_low``.  An unsourced
    concrete builds no refinement for the hereditary check: a refinement
    adds sw and tags, never labels, so the declaring library's local check
    fails on every one, and the record says "no hereditarily consistent
    concrete refinement".  Where ``Execution(gc)``, with no sw and no tags,
    is one of its refinements (``lang.unsourced_refines_itself``), the
    well-formedness transport checks it first and builds the refinements
    only if that check fails, so the verdict is the one over all of them.
    A collection that declares no value flow has every concrete sourced.

    Where every library's well-formedness predicates are ``_always_ok``, as
    for Px86, immediate well-formedness is encapsulation on hb.  A
    refinement keeps the concrete's labels, up to tags that no location or
    owner reads, and its hb ⊇ po, so a constructor po-before a use is
    hb-before it: an encapsulated concrete transports well-formedness with
    no check, as soon as it has a candidate (a refinement, or itself where
    it is unsourced and checked on itself first).  Otherwise, and wherever a
    library checks more than encapsulation, each candidate is checked in
    turn until one is immediately well-formed.

    The call opens a ``shared_verdicts`` scope on ``impl.verdicts``, which
    lives as long as ``impl``: a later call on the same implementation gets
    every decided consistency verdict, Px86 search, lifting step and
    hereditary verdict (one per distinct refinement and budget) of the
    earlier ones, and its records are those it would compute afresh.  The
    memo's memory is held until ``impl`` is dropped.
    """
    if coll_low is not impl.coll_low:
        raise ValueError("coll_low must be the implementation's low collection")
    report = VerifyReport()
    empty = capped = 0
    itself_first = lang.unsourced_refines_itself(coll_low)
    wf_is_encapsulation = all(s.local_wellformed is _always_ok for s in coll_low.specs()) and all(
        s.global_wellformed is _always_ok for s in coll_low.tagdep()
    )

    def undecided(rec: VerifyRecord, why: str) -> VerifyRecord:
        report.budget_hits += 1
        rec.undecided = True
        rec.detail = rec.detail or why
        return rec

    with shared_verdicts(impl.verdicts):
        for gi, ga in enumerate(corpus):
            facts: List[Tuple[bool, Optional[bool]]] = []
            try:
                concretes = exec_bind(ga, impl, max_results=max_concrete + 1, facts=facts)
            except BudgetExceeded:
                why = f"interpreting the implementation exceeded max_runs={impl.config.max_runs}"
                report.records.append(undecided(VerifyRecord(gi, None), why))
                continue
            empty += not concretes
            if len(concretes) > max_concrete:
                capped += 1
                del concretes[max_concrete:]
            # the abstract side of well-formedness transport, once per graph
            wf_high = check_immediately_wellformed(coll_high, Execution(ga)) if check_wf and concretes else None
            for ci, ((gc, f), (sourced, encapsulated)) in enumerate(zip(concretes, facts)):
                rec = VerifyRecord(gi, ci)
                refinements = list(_refinements(coll_low, gc)) if sourced else []
                # hereditary consistency upward
                found_consistent_low = False
                for xc in refinements:
                    v = _hereditary(coll_low, xc, budget)
                    if v.is_budget:
                        undecided(rec, "hereditary consistency check hit budget")
                        continue
                    if not v:
                        continue
                    found_consistent_low = True
                    why: List[str] = []
                    try:
                        chain = lift_chain(xc.execution, v.witness.subsets, f, ga, coll_high, budget=budget, failure=why)
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
                elif wf_high and wf_is_encapsulation and encapsulated and (refinements or not sourced and itself_first):
                    rec.wellformed_downward = True
                elif wf_high:
                    unknown = False
                    wf_candidates = refinements if sourced else _refinements(coll_low, gc)
                    if not sourced and itself_first:
                        wf_candidates = itertools.chain([Execution(gc)], wf_candidates)
                    for xc0 in wf_candidates:
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
