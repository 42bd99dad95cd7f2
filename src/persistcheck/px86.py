"""The Px86 library: label classes, derived sets, axioms, witness search.

Consistency of a Px86 execution is existential: there must be a reads-from
relation (inverse total and functional on reads, updates included), a strict
order ``tso`` total on writes-and-updates, a strict persist order ``nvo`` on
durable events, and a persisted set ``P`` closed downward under ``nvo``,
jointly satisfying the axioms A1..A9 plus the cross-era reads-from axiom
(called ``new`` here).  All three relations point forward in era order, and
the search needs no check of its own for it: a reads-from source is never
era-after its read, and era-before lies within po and hb, so a tso or nvo
edge against it closes a cycle of hb ∪ tso, which A1 rejects.

The witness search is deterministic: reads-from candidates, write orders,
and persisted sets are explored in a fixed order and the first witness wins.
Along a prefix walk the library's check is ``framework.Seeded``: a prefix
whose events the walk's last OK witness places, reading only from one
another, takes that witness cut to it (:func:`px86_replay`) and is not
searched.

Relations are held as bit rows, one Python int per event (bit ``b`` of
``row[a]`` set iff ``(a, b)`` is related), and event sets as single rows:
era-before is a closed :class:`~persistcheck.model.Order`, and the search's
tso and nvo are closed orders.  Each axiom is written once, on rows; pairs
are built only for the returned :class:`Px86Witness`.

Two engineering refinements over the displayed axioms (see the project
notes): allocation events are durable constructors but do not participate in
per-location coherence or serve reads, and the persisted set is forced to
contain completed synchronous flushes as well as optimized flushes that are
followed (same era, program order) by a completed store fence, memory fence,
or update — without this, flush instructions would order persists without
ever guaranteeing them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .framework import (
    BudgetExceeded,
    LibraryInterface,
    LibrarySpec,
    Seeded,
    SpecError,
    Verdict,
    cell_loc,
    shared_call,
)
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    bits,
    same_era,
)
from .sc import ANY_ORDER, linearizations

D_TAG = "D"
P_TAG = "P"

PX86_METHODS = {
    "store": 2,
    "load": 1,
    "upd": 3,
    "flush": 1,
    "fo": 1,
    "mfence": 0,
    "sfence": 0,
    "alloc": 0,
}

_DURABLE_METHODS = frozenset({"store", "upd", "flush", "fo", "alloc"})


# -- label constructors ------------------------------------------------------


def store(x: int, v, thread: int = 0) -> Label:
    return Label("store", (x, v), None, frozenset({D_TAG}), thread)


def load(x: int, v, thread: int = 0) -> Label:
    return Label("load", (x,), v, frozenset(), thread)


def upd(x: int, v_read, v_written, thread: int = 0, ret=BOT) -> Label:
    """Read-modify-write: reads v_read, installs v_written."""
    if ret is BOT:
        ret = v_read
    return Label("upd", (x, v_read, v_written), ret, frozenset({D_TAG}), thread)


def alloc(x: int, thread: int = 0) -> Label:
    return Label("alloc", (), x, frozenset({D_TAG}), thread)


_px86_loc = cell_loc("alloc", ("store", "load", "upd", "flush", "fo"))


def px86_call_semantics(method: str, args: Tuple, ctx) -> Optional[List[Tuple[Tuple[Label, ...], object]]]:
    """Interpreter hook for the calls the default call semantics cannot
    state: an update returns the value it reads, allocation emits a
    zero-initializing store, and the derived RMW forms faa/cas expand into
    update (or failed-read) labels.  Every other call takes the default
    (None).  A faa delta that is not an integer raises ``SpecError``."""
    if method == "upd":
        return [((upd(args[0], args[1], args[2]),), args[1])]
    if method == "alloc":
        x = ctx.fresh_loc()
        return [((alloc(x), store(x, 0)), x)]
    if method == "faa":
        x, d = args
        if not isinstance(d, int):
            raise SpecError(f"faa delta {d!r} is not an integer")
        return [
            ((upd(x, v, v + d),), v)
            for v in ctx.domain
            if isinstance(v, int)
        ]
    if method == "cas":
        x, exp, new = args
        succeed = [((upd(x, exp, new, ret=1),), 1)]
        fail = [
            ((load(x, v),), 0)
            for v in ctx.domain
            if v != exp
        ]
        return succeed + fail
    return None


def px86_interface() -> LibraryInterface:
    methods = dict(PX86_METHODS)
    methods.update({"faa": 2, "cas": 3})
    return LibraryInterface(
        name="px86",
        methods=methods,
        constructors=frozenset({"alloc"}),
        loc=_px86_loc,
        tags_introduced=frozenset({D_TAG, P_TAG}),
        tags_used=frozenset(),
        method_tags={m: frozenset({D_TAG}) for m in _DURABLE_METHODS},
        void=frozenset({"store", "flush", "fo", "mfence", "sfence"}),
        call_semantics=px86_call_semantics,
        value_flow=px86_value_flow,
    )


# -- derived sets ------------------------------------------------------------


def _mask(events: Iterable[int]) -> int:
    """The row holding exactly ``events``."""
    return sum(1 << e for e in set(events))


@dataclass(frozen=True)
class DerivedSets:
    """The event classes and era relations of a Px86 execution, as rows.

    A class is one row (bit ``e`` set iff event ``e`` is in it), a relation
    one row per event (bit ``b`` of ``rel[a]`` set iff ``(a, b)`` is in it).
    ``eb`` is era-before, a closed :class:`Order`; ``se`` is same-era
    (era-before neither way, so reflexive), ``ehb`` external happens-before
    (hb without po), and ``same_loc[e]`` the events at ``loc.get(e)``
    (``None`` for events without a location).
    """

    R: int
    W: int
    U: int
    FL: int
    FO: int
    MF: int
    SF: int
    D: int
    ALLOC: int
    loc: Mapping[int, Optional[int]]
    eb: Order
    se: Tuple[int, ...]
    ehb: Tuple[int, ...]
    same_loc: Tuple[int, ...]

    @property
    def WU(self) -> int:
        return self.W | self.U


def derive_sets(x: Execution) -> DerivedSets:
    g = x.plain
    by_method = dict.fromkeys(PX86_METHODS, 0)
    loc: Dict[int, Optional[int]] = {}
    at: Dict[Optional[int], int] = {}
    for e in g.events:
        l = g.lab[e]
        if l.is_crash:
            continue
        by_method[l.method] |= 1 << e
        ls = _px86_loc(l)
        loc[e] = lx = next(iter(ls)) if ls else None
        at[lx] = at.get(lx, 0) | 1 << e
    R, W, U, FL, FO, MF, SF, AL = (
        by_method[m] for m in ("load", "store", "upd", "flush", "fo", "mfence", "sfence", "alloc")
    )
    eb, se = g.eb, same_era(g)
    # hb is acyclic and contains po, so no hb edge runs against po
    ehb = tuple(h & ~p for h, p in zip(x.hb_order.rows, g.po_order.rows))
    same_loc = tuple(at.get(loc.get(e), 0) for e in g.events)
    return DerivedSets(R, W, U, FL, FO, MF, SF, W | U | FL | FO | AL, AL, loc, eb, se, ehb, same_loc)


def value_written(l: Label):
    if l.method == "store":
        return l.args[1]
    if l.method == "upd":
        return l.args[2]
    return None


def value_read(l: Label):
    if l.method == "load":
        return l.ret
    if l.method == "upd":
        return l.args[1]
    return None


def px86_value_flow(l: Label) -> Tuple[Optional[Tuple], Optional[Tuple]]:
    """The ``(loc, value)`` a label reads and the one it writes, or ``None``
    each: loads and updates read, stores and updates write.  An unreturned
    load reads ``BOT``, which any write at its location can source."""
    loc = next(iter(_px86_loc(l)), None)
    read = (loc, value_read(l)) if l.method in ("load", "upd") else None
    write = (loc, value_written(l)) if l.method in ("store", "upd") else None
    return read, write


# -- witness -----------------------------------------------------------------


@dataclass(frozen=True)
class Px86Witness:
    rf: FrozenSet[Tuple[int, int]]
    tso: FrozenSet[Tuple[int, int]]
    nvo: FrozenSet[Tuple[int, int]]
    persisted: FrozenSet[int]

    def to_json_dict(self) -> dict:
        return {
            "rf": sorted(map(list, self.rf)),
            "tso": sorted(map(list, self.tso)),
            "nvo": sorted(map(list, self.nvo)),
            "P": sorted(self.persisted),
        }


# The axiom helpers take tso and nvo as rows, closed or not: closed orders
# from the search, a given witness's pairs unclosed from the tests' axiom
# report.


def _forced_tso(x: Execution, ds: DerivedSets) -> List[int]:
    """Rows of the tso edges that A3-A6 force on same-era program order (the
    reads-from edges of A1 depend on rf and are added by the search).  A
    crash is same-era with the events on both of its sides, so crashes are
    kept out on both ends: tso orders calls only."""
    fences = ds.MF | ds.U
    crashes = _mask(x.plain.crash_events())
    forced = []
    for a, (po_a, se_a) in enumerate(zip(x.plain.po_order.rows, ds.se)):
        bit = 1 << a
        if bit & crashes:
            forced.append(0)
            continue
        after = po_a & se_a & ~crashes
        row = after & (fences | ds.SF)  # A3, A4: into fences and updates
        if bit & (fences | ds.R):
            row |= after  # A3
        if bit & ds.SF:
            row |= after & ~ds.R  # A4
        if bit & (ds.W | ds.FL):
            row |= after & (ds.W | ds.FL)  # A5
        if ds.loc.get(a) is not None:  # A6
            if bit & (ds.W | ds.FL):
                row |= after & ds.same_loc[a] & ds.FO
            elif bit & ds.FO:
                row |= after & ds.same_loc[a] & ds.FL
        forced.append(row)
    return forced


def _axiom_a2(x: Execution, ds: DerivedSets, rf, tso: Sequence[int]) -> Optional[Tuple]:
    # Coherence: the hypothesis is same-era (cross-era visibility is governed
    # by the persisted set via the cross-era axiom, not by po/tso), while the
    # conclusion spans eras (tso is total and era-monotone on writes, so a
    # post-crash overwrite forbids reading anything tso-older).
    po = x.plain.po_order.rows
    for w, r in sorted(rf):
        for w2 in bits(tso[w] & ds.WU & ds.same_loc[w]):
            if ((tso[w2] | po[w2]) & ds.se[w2]) >> r & 1:
                return (w, r, w2)
    return None


def _nvo_required(x: Execution, ds: DerivedSets, tso: Sequence[int]) -> List[int]:
    """Rows of the nvo edges that A7-A9 require of ``tso``."""
    po = x.plain.po_order.rows
    tso_se = [t & s for t, s in zip(tso, ds.se)]
    req = []
    for a, row_se in enumerate(tso_se):
        bit, row = 1 << a, 0
        if bit & ds.D:
            if ds.loc.get(a) is not None:
                row = row_se & ds.D & ds.same_loc[a]  # A7: per-location same-era tso
            # A8: durable-to-flush on the same location via same-era tso or external hb
            row |= (tso[a] | ds.ehb[a]) & ds.se[a] & (ds.FL | ds.FO) & ds.same_loc[a]
        # A9: flushes propagate persistence ordering to later durables
        if bit & ds.FL:
            row |= row_se & ds.D
        elif bit & ds.FO:
            for g_ in bits(po[a] & ds.se[a] & (ds.MF | ds.SF | ds.U)):
                row |= tso_se[g_] & ds.D
        req.append(row)
    return req


def _forced_persists(x: Execution, ds: DerivedSets) -> int:
    """Completed flushes persist; completed-fence-covered fo's persist."""
    po = x.plain.po_order.rows
    complete = _mask(e for e in x.events if x.lab[e].is_complete)
    covered = (f for f in bits(ds.FO) if po[f] & ds.se[f] & (ds.MF | ds.SF | ds.U) & complete)
    return ds.FL & complete | _mask(covered)


def _cross_era(ds: DerivedSets, rf, nvo: Sequence[int], persisted: int) -> Optional[Tuple]:
    """The first cross-era read whose source is not persisted, or is followed
    in nvo by a persisted same-location write era-before the read (``new``)."""
    eb = ds.eb.rows
    for w, r in sorted(rf):
        if eb[w] >> r & 1:
            if not persisted >> w & 1:
                return (w, r, "source not persisted")
            for w2 in bits(ds.WU & ds.same_loc[w] & persisted & nvo[w]):
                if eb[w2] >> r & 1:
                    return (w, r, f"persisted {w2} intervenes")
    return None


def _read_candidates(x: Execution, eb: Order) -> Optional[Dict[int, Tuple[int, List[int]]]]:
    """Per read, the row of the other writes at its location that are not
    era-after it (``eb``), and the list of those that may source it; or
    ``None`` if some read's list is empty.  It reads the declared value
    flow, as the interpreter's sourcing check does, so the two cannot
    disagree on which runs are unsourced.  A label that is not Px86's raises
    ``ValueError``."""
    labels = x.lab
    for l in labels:
        if not l.is_crash and l.method not in PX86_METHODS:
            raise ValueError(f"not a px86 label: {l!r}")
    flow = [px86_value_flow(l) for l in labels]
    at: Dict[object, int] = {}
    for w, (_, written) in enumerate(flow):
        if written is not None:
            at[written[0]] = at.get(written[0], 0) | 1 << w
    cands: Dict[int, Tuple[int, List[int]]] = {}
    for r, (read, _) in enumerate(flow):
        if read is None:
            continue
        loc, v = read
        # an unreturned load's value is unconstrained: any same-loc write
        same = at.get(loc, 0) & ~(1 << r) & ~eb.rows[r]
        opts = [w for w in bits(same) if v is BOT or flow[w][1][1] == v]
        if not opts:
            return None
        cands[r] = (same, opts)
    return cands


def _rf_candidates(x: Execution, eb: Order) -> Optional[Dict[int, List[int]]]:
    """Per read, the sources :func:`_read_candidates` gives (``None`` where
    it does) that program order does not refute, in order; a list may be
    empty.  A read ``r`` reads no write po-after it (the rf edge closes a
    cycle with the tso A3 forces), nor one po-before a write or update
    ``w2`` at the location that is po-before ``r`` with no crash between,
    read off ``eb`` (tso runs from the write to ``w2``, by A3/A5 within an
    era and era-monotonicity across eras, so A2 fails).  A refuted choice
    holds no witness, so the search's first witness does not change."""
    cands = _read_candidates(x, eb)
    if cands is None:
        return None
    po, ebr = x.plain.po_order.rows, eb.rows
    kept: Dict[int, List[int]] = {}
    for r, (same, opts) in cands.items():
        last = sum(1 << w2 for w2 in bits(same) if (po[w2] & ~ebr[w2]) >> r & 1)
        kept[r] = [w for w in opts if not (po[r] >> w & 1 or po[w] & last)]
    return kept


def search_px86_witness(
    x: Execution, budget: int = 200_000, stats: Optional[Dict[str, int]] = None
) -> Optional[Px86Witness]:
    """Deterministic backtracking search for a consistent witness.  Each
    reads-from choice that program order does not refute
    (:func:`_rf_candidates`) and each write order tried is one step;
    ``stats``, if given, receives the ``steps`` spent.  A read left with no
    source ends the search at 0 steps, before any set-up.  The search reads
    the execution's labels, po and hb, never sw on its own; a label that is
    not Px86's raises ``ValueError``."""
    meter = {} if stats is None else stats
    meter["steps"] = 0
    cands = _rf_candidates(x, x.plain.eb)
    if cands is None or not all(cands.values()):
        return None
    reads = sorted(cands)
    ds = derive_sets(x)
    po = x.plain.po_order.rows
    eb = ds.eb.rows
    explicit_p = _mask(e for e in x.events if P_TAG in x.lab[e].tags)
    wu = list(bits(ds.WU))
    # per write, the rows of the writes (by index in wu) era-before and era-after it
    eb_w = ds.eb.restrict(wu)
    eb_wu, wu_eb = eb_w.preds(), eb_w.rows
    forced = Order.close_rows(_forced_tso(x, ds))
    forced_p = _forced_persists(x, ds)
    all_wu = (1 << len(wu)) - 1

    def spend():
        meter["steps"] += 1
        if meter["steps"] > budget:
            raise BudgetExceeded({"steps": meter["steps"]})

    for rf_combo in itertools.product(*(cands[r] for r in reads)):
        spend()
        rf = frozenset((w, r) for r, w in zip(reads, rf_combo))
        # A1: rf lies in same-era tso or po, and base puts the rf edges po
        # lacks in tso; a source era-before its read is po-before it (eb ⊆ po)
        base = forced.extend((w, r) for w, r in rf if not po[w] >> r & 1)
        if not base.is_acyclic():
            continue
        base_wu = base.restrict(wu)
        # a forced edge among writes that points back in era order leaves no
        # era-monotone write order
        if any(row & eb_wu[i] for i, row in enumerate(base_wu.rows)):
            continue
        needed = _mask(w for w, r in rf if eb[w] >> r & 1) | forced_p
        # the era-monotone write orders, smallest first; ``spend`` counts those tried
        preds = [p | q for p, q in zip(base_wu.preds(), eb_wu)]
        succs = [s | t for s, t in zip(base_wu.rows, wu_eb)]
        for order in linearizations(preds, [[e] for e in wu], all_wu, ANY_ORDER, math.inf, {}, succs):
            spend()
            perm = [e for _, e in order]
            tso = base.extend(zip(perm, perm[1:]))
            # hb holds eb, so a tso cycle or a tso edge against eb is a cycle here
            hb_tso = Order.close_rows([h | t for h, t in zip(x.hb_order.rows, tso.rows)])
            if not hb_tso.is_acyclic() or _axiom_a2(x, ds, rf, tso.rows) is not None:
                continue
            # A7-A9 require edges of tso, hb and po;tso only: nvo lies
            # within hb_tso, so it is acyclic and points forward in eras
            nvo = Order.close_rows(_nvo_required(x, ds, tso.rows))
            if explicit_p and needed & ~explicit_p:
                continue
            # close P downward under nvo (closed, so one pass suffices)
            p = explicit_p or needed
            for a, row in enumerate(nvo.rows):
                if row & p:
                    p |= 1 << a
            if (explicit_p and p != explicit_p) or p & ~ds.D:
                continue
            if _cross_era(ds, rf, nvo.rows, p) is None:
                return Px86Witness(rf, tso.pairs, nvo.pairs, frozenset(bits(p)))
    return None


def _search(x: Execution, budget: int, mask: Optional[int] = None) -> Tuple[Optional[Px86Witness], int]:
    """``search_px86_witness`` of the projection of ``x`` on ``mask`` (all
    of ``x`` by default) at ``budget``, and its steps, through
    ``shared_call``.  The key is the projection's labels, po rows and hb
    rows, read off ``x`` by the mask (``Execution.key``), so the projection
    is built only when the search runs.  A kept search longer than
    ``budget`` raises as a new search would: the search is deterministic
    and spends one step at a time."""
    full = (1 << len(x)) - 1
    mask = full if mask is None else mask
    labels, po, _, hb = x.key(mask)

    def run() -> Tuple[Optional[Px86Witness], int]:
        stats: Dict[str, int] = {}
        y = x if mask == full else x.restrict_events(bits(mask))
        return search_px86_witness(y, budget, stats), stats["steps"]

    w, steps = shared_call((search_px86_witness, labels, po, hb), run)
    if steps > budget:
        raise BudgetExceeded({"steps": budget + 1})
    return w, steps


def px86_consistent(x: Execution, budget: int = 200_000, mask: Optional[int] = None) -> Verdict:
    """Whether a witness exists for the projection of ``x`` on ``mask`` (all
    of ``x`` by default), by search.  The search runs once per exact
    projection inside a ``shared_verdicts`` scope, shared with the sw hook
    (``_search``), and a kept search builds no projection; an OK or FAIL
    verdict's stats name the stage and the steps of that search, whichever
    caller ran it.  ``px86_spec``'s check gives this verdict on each
    projection that replays no seed."""
    try:
        w, steps = _search(x, budget, mask)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    stats = {"stage": "px86 witness search", "steps": steps}
    if w is None:
        return Verdict.fail("no px86 witness (rf/tso/nvo/P) exists", stats=stats)
    return Verdict.ok(witness=w, stats=stats)


def _px86_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate synchronizes-with sets: none, or the cross-thread reads-from
    edges of the first witness, searched through ``_search`` at 20,000
    steps.  A search that runs out, or a label that is not Px86's (the
    search's ``ValueError``, raised before any reads-from choice is cut),
    proposes no sw set."""
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    try:
        w, _ = _search(Execution(g), 20_000)
    except (BudgetExceeded, ValueError):
        return out
    if w is not None:
        ext = frozenset(
            (a, b)
            for (a, b) in w.rf
            if g.lab[a].thread is not None and g.lab[a].thread != g.lab[b].thread
        )
        if ext:
            out.append(ext)
    return out


def px86_replay(other: int, w: Px86Witness, mask: int) -> Optional[Px86Witness]:
    """The witness ``w`` of the projection on ``other``, in its ids, cut to
    the events of ``mask``, in the ids of the projection on ``mask``; or
    ``None`` unless ``other`` holds every event of ``mask`` and every read
    of ``mask`` reads from an event of ``mask``.

    The cut is a witness whenever ``other`` is a superset of ``mask`` and
    ``mask`` holds every crash po-before its events: the eras, the derived
    sets and hb of ``mask`` are those of ``other``'s projection cut to it,
    every axiom is a condition on the events and the relations it names,
    and the tso and nvo edges and the persists that ``mask`` forces are
    among those that ``other`` forces."""
    if mask & ~other:
        return None
    idx: Dict[int, int] = {}
    for i, e in enumerate(bits(other)):
        if mask >> e & 1:
            idx[i] = len(idx)
    rf = []
    for a, r in w.rf:
        if r in idx:
            if a not in idx:
                return None
            rf.append((idx[a], idx[r]))
    return Px86Witness(
        frozenset(rf),
        frozenset((idx[a], idx[b]) for a, b in w.tso if a in idx and b in idx),
        frozenset((idx[a], idx[b]) for a, b in w.nvo if a in idx and b in idx),
        frozenset(idx[e] for e in w.persisted if e in idx),
    )


def px86_spec(budget: int = 200_000) -> LibrarySpec:
    """The Px86 library.  Its local check is ``Seeded``: it decides the
    projection on a mask by replaying the seed's witness, given on the
    projection on another mask, cut to this one (:func:`px86_replay`;
    stage ``px86 replay``, no steps, not bounded by ``budget``), and
    otherwise by :func:`px86_consistent` of ``x`` on the mask, which builds
    the projection only to search it; so an execution alone gets
    ``px86_consistent`` of it."""

    def check(x: Execution, mask: int, seed: Optional[Tuple[int, Px86Witness]]) -> Verdict:
        if seed is not None:
            w = px86_replay(*seed, mask)
            if w is not None:
                return Verdict.ok(witness=w, stats={"stage": "px86 replay", "steps": 0})
        return px86_consistent(x, budget, mask)

    return LibrarySpec(
        interface=px86_interface(),
        local_consistent=Seeded(check),
        sw_candidates=_px86_sw_hook,
    )
