"""The Px86 library: label classes, derived sets, axioms, witness search.

Consistency of a Px86 execution is existential: there must be a reads-from
relation (inverse total and functional on reads, updates included), a strict
order ``tso`` total on writes-and-updates, a strict persist order ``nvo`` on
durable events, and a persisted set ``P`` closed downward under ``nvo``,
jointly satisfying the axioms A1..A9 plus the cross-era reads-from axiom
(called ``new`` here).  All three relations must point forward in era order.

The witness search is deterministic: reads-from candidates, write orders,
and persisted sets are explored in a fixed order and the first witness wins.

Relations are held as bit rows, one Python int per event (bit ``b`` of
``row[a]`` set iff ``(a, b)`` is related), and event sets as single rows:
era-before is a closed :class:`~persistcheck.model.Order`, the search's tso
and nvo are closed orders, and the axiom report reads a given witness's
pairs as unclosed rows.  Each axiom is written once for both callers; pairs
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

from .framework import BudgetExceeded, LibraryInterface, LibrarySpec, Verdict, cell_loc
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    bits,
    era_order,
    row_pairs,
)
from .sc import ANY_ORDER, era_preds, linearizations

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


def store(x: int, v, thread: int = 0, ret=None) -> Label:
    return Label("store", (x, v), ret, frozenset({D_TAG}), thread)


def load(x: int, v, thread: int = 0) -> Label:
    return Label("load", (x,), v, frozenset(), thread)


def upd(x: int, v_read, v_written, thread: int = 0, ret=BOT) -> Label:
    """Read-modify-write: reads v_read, installs v_written."""
    if ret is BOT:
        ret = v_read
    return Label("upd", (x, v_read, v_written), ret, frozenset({D_TAG}), thread)


def flush(x: int, thread: int = 0, ret=None) -> Label:
    return Label("flush", (x,), ret, frozenset({D_TAG}), thread)


def fo(x: int, thread: int = 0, ret=None) -> Label:
    return Label("fo", (x,), ret, frozenset({D_TAG}), thread)


def mfence(thread: int = 0, ret=None) -> Label:
    return Label("mfence", (), ret, frozenset(), thread)


def sfence(thread: int = 0, ret=None) -> Label:
    return Label("sfence", (), ret, frozenset(), thread)


def alloc(x: int, thread: int = 0) -> Label:
    return Label("alloc", (), x, frozenset({D_TAG}), thread)


_px86_loc = cell_loc("alloc", ("store", "load", "upd", "flush", "fo"))


def px86_call_semantics(method: str, args: Tuple, ctx) -> List[Tuple[Tuple[Label, ...], object]]:
    """Interpreter hook: load returns range over the domain, allocation emits
    a zero-initializing store, and the derived RMW forms faa/cas expand into
    update (or failed-read) labels."""
    if method == "store":
        return [((store(args[0], args[1]),), None)]
    if method == "load":
        return [((load(args[0], v),), v) for v in ctx.domain]
    if method == "upd":
        return [((upd(args[0], args[1], args[2]),), args[1])]
    if method == "flush":
        return [((flush(args[0]),), None)]
    if method == "fo":
        return [((fo(args[0]),), None)]
    if method == "mfence":
        return [((mfence(),), None)]
    if method == "sfence":
        return [((sfence(),), None)]
    if method == "alloc":
        x = ctx.fresh_loc()
        return [((alloc(x), store(x, 0)), x)]
    if method == "faa":
        x, d = args
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
    raise ValueError(f"unknown px86 method {method}")


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
        returns={
            "store": "void",
            "flush": "void",
            "fo": "void",
            "mfence": "void",
            "sfence": "void",
            "alloc": "loc",
        },
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
    ``eb`` is era-before, a closed :class:`Order`, and ``before`` its
    converse; ``se`` is same-era (era-before neither way, so reflexive),
    ``ehb`` external happens-before (hb without po), and ``same_loc[e]`` the
    events at ``loc.get(e)`` (``None`` for events without a location).
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
    before: Tuple[int, ...]
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
        if l.method not in PX86_METHODS:
            raise ValueError(f"not a px86 label: {l!r}")
        by_method[l.method] |= 1 << e
        ls = _px86_loc(l)
        loc[e] = lx = next(iter(ls)) if ls else None
        at[lx] = at.get(lx, 0) | 1 << e
    R, W, U, FL, FO, MF, SF, AL = (
        by_method[m] for m in ("load", "store", "upd", "flush", "fo", "mfence", "sfence", "alloc")
    )
    eb = era_order(g)
    before = tuple(eb.preds())
    full = (1 << len(g)) - 1
    se = tuple(full & ~(row | col) for row, col in zip(eb.rows, before))
    # hb is acyclic and contains po, so no hb edge runs against po
    ehb = tuple(h & ~p for h, p in zip(x.hb_order.rows, g.po_order.rows))
    same_loc = tuple(at.get(loc.get(e), 0) for e in g.events)
    return DerivedSets(R, W, U, FL, FO, MF, SF, W | U | FL | FO | AL, AL, loc, eb, before, se, ehb, same_loc)


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


# The axiom helpers take tso and nvo as rows: closed orders from the search,
# a given witness's pairs unclosed from the axiom report.


def _forced_tso(x: Execution, ds: DerivedSets) -> List[int]:
    """Rows of the tso edges that A3-A6 force on same-era program order (the
    reads-from edges of A1 depend on rf and are added by the search)."""
    fences = ds.MF | ds.U
    forced = []
    for a, (po_a, se_a) in enumerate(zip(x.plain.po_order.rows, ds.se)):
        after, bit = po_a & se_a, 1 << a
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


def _against_eras(ds: DerivedSets, rows: Sequence[int]) -> bool:
    """Whether the relation has an edge pointing back in era order."""
    return any(row & col for row, col in zip(rows, ds.before))


def check_px86_axioms(x: Execution, w: Px86Witness) -> Dict[str, Verdict]:
    """Evaluate each axiom for a given witness; counterexample edge in the
    failure reason."""
    ds = derive_sets(x)
    po = x.plain.po_order.rows
    # the witness's relations as rows, not closed
    tso, nvo = ([_mask(b for a, b in rel if a == e) for e in x.events] for rel in (w.tso, w.nvo))
    rf = w.rf
    P = _mask(w.persisted)
    out: Dict[str, Verdict] = {}

    def axiom(name: str, ok: bool, reason: str) -> None:
        out[name] = Verdict.ok() if ok else Verdict.fail(reason)

    hb_tso = Order.close_rows([h | t for h, t in zip(x.hb_order.rows, tso)])
    rf_ok = all(((tso[a] & ds.se[a]) | po[a]) >> b & 1 for (a, b) in rf)
    axiom("A1", hb_tso.is_acyclic() and rf_ok, "hb ∪ tso cyclic or rf ⊄ tsoSE ∪ po")
    bad = _axiom_a2(x, ds, rf, tso)
    axiom("A2", bad is None, f"coherence violation {bad}")
    missing = row_pairs([f & ~t for f, t in zip(_forced_tso(x, ds), tso)])
    axiom("A3-A6", not missing, f"missing tso edges {sorted(missing)[:4]}")
    missing = row_pairs([r & ~v for r, v in zip(_nvo_required(x, ds, tso), nvo)])
    axiom("A7-A9", not missing, f"missing nvo edges {sorted(missing)[:4]}")
    # persist-order discipline and forcing
    closed = not any(row & P for a, row in enumerate(nvo) if not P >> a & 1)
    axiom("P-closure", closed, "dom(nvo;[P]) ⊄ P")
    unpersisted = _forced_persists(x, ds) & ~P
    axiom("P-forcing", not unpersisted, f"unpersisted completed flush {list(bits(unpersisted))}")
    bad = _cross_era(ds, rf, nvo, P)
    axiom("new", bad is None, f"cross-era read {bad}")
    rf_back = any(ds.eb.rows[b] >> a & 1 for a, b in rf)
    era_ok = not (rf_back or _against_eras(ds, tso) or _against_eras(ds, nvo))
    axiom("era", era_ok, "relation points backwards in era order")
    return out


def _read_candidates(x: Execution, ds: DerivedSets) -> Optional[Dict[int, List[int]]]:
    """Per read, the writes that may source it, or ``None`` if some read has
    none.  It reads the declared value flow, as the interpreter's sourcing
    check does, so the two cannot disagree on which runs are unsourced."""
    flow = [px86_value_flow(l) for l in x.plain.labels()]
    cands: Dict[int, List[int]] = {}
    for r in bits(ds.R | ds.U):
        _, v = flow[r][0]
        # an unreturned load's value is unconstrained: any same-loc write
        same = ds.WU & ds.same_loc[r] & ~(1 << r) & ~ds.eb.rows[r]
        opts = [w for w in bits(same) if v is BOT or flow[w][1][1] == v]
        if not opts:
            return None
        cands[r] = opts
    return cands


def search_px86_witness(x: Execution, budget: int = 200_000) -> Optional[Px86Witness]:
    """Deterministic backtracking search for a consistent witness."""
    ds = derive_sets(x)
    era = x.plain.era_of()
    po = x.plain.po_order.rows
    eb = ds.eb.rows
    explicit_p = _mask(e for e in x.events if P_TAG in x.lab[e].tags)

    cands = _read_candidates(x, ds)
    if cands is None:
        return None
    reads = sorted(cands)
    wu = list(bits(ds.WU))
    wu_eras = [era[e] for e in wu]
    # per write, the row of the writes (by index in wu) of an earlier era
    earlier = [_mask(j for j, ej in enumerate(wu_eras) if ej < ei) for ei in wu_eras]
    forced = Order.close_rows(_forced_tso(x, ds))
    forced_p = _forced_persists(x, ds)
    all_wu = (1 << len(wu)) - 1
    steps = [0]

    def spend(n: int = 1):
        steps[0] += n
        if steps[0] > budget:
            raise BudgetExceeded({"steps": steps[0]})

    for rf_combo in itertools.product(*(cands[r] for r in reads)):
        spend()
        rf = frozenset((w, r) for r, w in zip(reads, rf_combo))
        # A1: cross-era rf edges must be po edges, the others are in tso or po
        if any(eb[w] >> r & 1 and not po[w] >> r & 1 for w, r in rf):
            continue
        base = forced.extend((w, r) for w, r in rf if not po[w] >> r & 1)
        if not base.is_acyclic():
            continue
        base_wu = base.restrict(wu)
        # a forced edge among writes that points back in era order leaves no
        # era-monotone write order
        if any(row & earlier[i] for i, row in enumerate(base_wu.rows)):
            continue
        needed = _mask(w for w, r in rf if eb[w] >> r & 1) | forced_p
        # the era-monotone write orders, smallest first; ``spend`` counts those tried
        for order in linearizations(era_preds(base_wu, wu_eras), [[e] for e in wu], all_wu, ANY_ORDER, math.inf, {}):
            spend()
            perm = [e for _, e in order]
            tso = base.extend(zip(perm, perm[1:]))
            if not tso.is_acyclic() or _against_eras(ds, tso.rows):
                continue
            hb_tso = Order.close_rows([h | t for h, t in zip(x.hb_order.rows, tso.rows)])
            if not hb_tso.is_acyclic() or _axiom_a2(x, ds, rf, tso.rows) is not None:
                continue
            nvo = Order.close_rows(_nvo_required(x, ds, tso.rows))
            if not nvo.is_acyclic() or _against_eras(ds, nvo.rows):
                continue
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


def px86_consistent(x: Execution, budget: int = 200_000) -> Verdict:
    try:
        w = search_px86_witness(x, budget)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if w is None:
        return Verdict.fail("no px86 witness (rf/tso/nvo/P) exists")
    return Verdict.ok(witness=w)


def _px86_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate synchronizes-with sets: none, or the cross-thread reads-from
    edges of the first witness."""
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    try:
        w = search_px86_witness(Execution(g), budget=20_000)
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


def px86_spec(budget: int = 200_000) -> LibrarySpec:
    return LibrarySpec(
        interface=px86_interface(),
        local_consistent=lambda x: px86_consistent(x, budget),
        sw_candidates=_px86_sw_hook,
    )
