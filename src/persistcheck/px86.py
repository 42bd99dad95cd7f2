"""The Px86 library: label classes, derived sets, axioms, witness search.

Consistency of a Px86 execution is existential: there must be a reads-from
relation (inverse total and functional on reads, updates included), a strict
order ``tso`` total on writes-and-updates, a strict persist order ``nvo`` on
durable events, and a persisted set ``P`` closed downward under ``nvo``,
jointly satisfying the axioms A1..A9 plus the cross-era reads-from axiom
(called ``new`` here).  All three relations must point forward in era order.

The witness search is deterministic: reads-from candidates, write orders,
and persisted sets are explored in a fixed order and the first witness wins.

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
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .framework import BudgetExceeded, LibraryInterface, LibrarySpec, Verdict, linear_extensions
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    closure,
    era_before,
    is_irreflexive,
    same_era,
)

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


def _px86_loc(l: Label) -> FrozenSet[int]:
    if l.method == "alloc":
        return frozenset() if l.ret in (None, BOT) else frozenset({l.ret})
    if l.method in ("store", "load", "upd", "flush", "fo"):
        return frozenset({l.args[0]})
    return frozenset()


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
    )


# -- derived sets ------------------------------------------------------------


@dataclass(frozen=True)
class DerivedSets:
    R: FrozenSet[int]
    W: FrozenSet[int]
    U: FrozenSet[int]
    FL: FrozenSet[int]
    FO: FrozenSet[int]
    MF: FrozenSet[int]
    SF: FrozenSet[int]
    D: FrozenSet[int]
    ALLOC: FrozenSet[int]
    loc: Mapping[int, Optional[int]]
    eb: FrozenSet[Tuple[int, int]]
    se: FrozenSet[Tuple[int, int]]
    ehb: FrozenSet[Tuple[int, int]]

    def dx(self, x: int) -> FrozenSet[int]:
        return frozenset(e for e in self.D if self.loc.get(e) == x)

    def wux(self, x: int) -> FrozenSet[int]:
        return frozenset(e for e in (self.W | self.U) if self.loc.get(e) == x)

    @property
    def WU(self) -> FrozenSet[int]:
        return self.W | self.U


def derive_sets(x: Execution) -> DerivedSets:
    g = x.plain
    by_method: Dict[str, Set[int]] = {m: set() for m in PX86_METHODS}
    loc: Dict[int, Optional[int]] = {}
    for e in g.events:
        l = g.lab[e]
        if l.is_crash:
            continue
        if l.method not in PX86_METHODS:
            raise ValueError(f"not a px86 label: {l!r}")
        by_method[l.method].add(e)
        ls = _px86_loc(l)
        loc[e] = next(iter(ls)) if ls else None
    R = frozenset(by_method["load"])
    W = frozenset(by_method["store"])
    U = frozenset(by_method["upd"])
    FL = frozenset(by_method["flush"])
    FO = frozenset(by_method["fo"])
    MF = frozenset(by_method["mfence"])
    SF = frozenset(by_method["sfence"])
    AL = frozenset(by_method["alloc"])
    D = W | U | FL | FO | AL
    eb = era_before(g)
    se = same_era(g)
    ehb = frozenset(
        (a, b) for (a, b) in x.hb if (a, b) not in x.po and (b, a) not in x.po
    )
    return DerivedSets(R, W, U, FL, FO, MF, SF, D, AL, loc, eb, se, ehb)


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


def _forced_tso(x: Execution, ds: DerivedSets, rf: FrozenSet[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    po_se = {(a, b) for (a, b) in x.po if (a, b) in ds.se}
    E = set(x.events)
    forced: Set[Tuple[int, int]] = set()
    mf_u = ds.MF | ds.U
    for a, b in po_se:
        if b in mf_u or a in (mf_u | ds.R):
            forced.add((a, b))  # A3
        if b in ds.SF or (a in ds.SF and b not in ds.R):
            forced.add((a, b))  # A4
        if a in (ds.W | ds.FL) and b in (ds.W | ds.FL):
            forced.add((a, b))  # A5
        if ds.loc.get(a) is not None and ds.loc.get(a) == ds.loc.get(b):
            if (a in ds.FL and b in ds.FO) or (a in ds.FO and b in ds.FL) or (a in ds.W and b in ds.FO):
                forced.add((a, b))  # A6
    for w, r in rf:
        if (w, r) not in x.po:
            forced.add((w, r))  # A1: rf ⊆ tsoSE ∪ po
    return forced


def _axiom_a2(x: Execution, ds: DerivedSets, rf, tso) -> Optional[Tuple]:
    # Coherence: the hypothesis is same-era (cross-era visibility is governed
    # by the persisted set via the cross-era axiom, not by po/tso), while the
    # conclusion spans eras (tso is total and era-monotone on writes, so a
    # post-crash overwrite forbids reading anything tso-older).
    tso_se = {(a, b) for (a, b) in tso if (a, b) in ds.se}
    po_se = {(a, b) for (a, b) in x.po if (a, b) in ds.se}
    for w, r in sorted(rf):
        lx = ds.loc.get(w)
        for w2 in sorted(ds.wux(lx)):
            if ((w2, r) in tso_se or (w2, r) in po_se) and (w, w2) in tso:
                return (w, r, w2)
    return None


def _nvo_required(x: Execution, ds: DerivedSets, tso) -> Set[Tuple[int, int]]:
    tso_se = {(a, b) for (a, b) in tso if (a, b) in ds.se}
    req: Set[Tuple[int, int]] = set()
    # A7: per-location same-era tso between durable events
    for a, b in tso_se:
        if a in ds.D and b in ds.D and ds.loc.get(a) is not None and ds.loc.get(a) == ds.loc.get(b):
            req.add((a, b))
    # A8: durable-to-flush on the same location via same-era tso or external hb
    rel = {(a, b) for (a, b) in (set(tso) | set(ds.ehb)) if (a, b) in ds.se}
    for a, b in rel:
        if a in ds.D and (b in ds.FO or b in ds.FL) and ds.loc.get(a) == ds.loc.get(b):
            req.add((a, b))
    # A9: flushes propagate persistence ordering to later durables
    for f in sorted(ds.FL):
        for d in sorted(ds.D):
            if (f, d) in tso_se:
                req.add((f, d))
    for f in sorted(ds.FO):
        for g_ in sorted(ds.MF | ds.SF | ds.U):
            if (f, g_) in x.po and (f, g_) in ds.se:
                for d in sorted(ds.D):
                    if (g_, d) in tso_se:
                        req.add((f, d))
    return req


def _forced_persists(x: Execution, ds: DerivedSets) -> Set[int]:
    """Completed flushes persist; completed-fence-covered fo's persist."""
    out: Set[int] = set()
    for f in ds.FL:
        if x.lab[f].is_complete:
            out.add(f)
    for f in ds.FO:
        for g_ in ds.MF | ds.SF | ds.U:
            if (f, g_) in x.po and (f, g_) in ds.se and x.lab[g_].is_complete:
                out.add(f)
                break
    return out


def check_px86_axioms(x: Execution, w: Px86Witness) -> Dict[str, Verdict]:
    """Evaluate each axiom for a given witness; counterexample edge in the
    failure reason."""
    ds = derive_sets(x)
    tso = w.tso
    nvo = w.nvo
    rf = w.rf
    P = w.persisted
    out: Dict[str, Verdict] = {}

    hb_tso = closure(set(x.hb) | set(tso))
    rf_ok = all(((a, b) in tso and (a, b) in ds.se) or (a, b) in x.po for (a, b) in rf)
    out["A1"] = (
        Verdict.ok()
        if is_irreflexive(hb_tso) and rf_ok
        else Verdict.fail("hb ∪ tso cyclic or rf ⊄ tsoSE ∪ po")
    )
    bad = _axiom_a2(x, ds, rf, tso)
    out["A2"] = Verdict.ok() if bad is None else Verdict.fail(f"coherence violation {bad}")
    forced = _forced_tso(x, ds, frozenset())
    missing = [e for e in forced if e not in tso]
    out["A3-A6"] = (
        Verdict.ok() if not missing else Verdict.fail(f"missing tso edges {sorted(missing)[:4]}")
    )
    req = _nvo_required(x, ds, tso)
    missing_nvo = [e for e in req if e not in nvo]
    out["A7-A9"] = (
        Verdict.ok()
        if not missing_nvo
        else Verdict.fail(f"missing nvo edges {sorted(missing_nvo)[:4]}")
    )
    # persist-order discipline and forcing
    closed = all((a in P) for (a, b) in nvo if b in P)
    out["P-closure"] = Verdict.ok() if closed else Verdict.fail("dom(nvo;[P]) ⊄ P")
    forced_p = _forced_persists(x, ds)
    out["P-forcing"] = (
        Verdict.ok()
        if forced_p <= P
        else Verdict.fail(f"unpersisted completed flush {sorted(forced_p - P)}")
    )
    new_bad = None
    for (wr, r) in sorted(rf):
        if (wr, r) not in ds.eb:
            continue
        if wr not in P:
            new_bad = (wr, r, "source not persisted")
            break
        lx = ds.loc.get(wr)
        for w2 in sorted(ds.wux(lx)):
            if w2 in P and (wr, w2) in nvo and (w2, r) in ds.eb:
                new_bad = (wr, r, f"persisted {w2} intervenes")
                break
        if new_bad:
            break
    out["new"] = Verdict.ok() if new_bad is None else Verdict.fail(f"cross-era read {new_bad}")
    era_ok = all(
        (b, a) not in ds.eb for rel in (rf, tso, nvo) for (a, b) in rel
    )
    out["era"] = Verdict.ok() if era_ok else Verdict.fail("relation points backwards in era order")
    return out


def _read_candidates(x: Execution, ds: DerivedSets) -> Optional[Dict[int, List[int]]]:
    cands: Dict[int, List[int]] = {}
    for r in sorted(ds.R | ds.U):
        lx = ds.loc.get(r)
        v = value_read(x.lab[r])
        if v is BOT:
            # unreturned load: value unconstrained, reads-from any same-loc write
            opts = [w for w in sorted(ds.WU) if w != r and ds.loc.get(w) == lx and (r, w) not in ds.eb]
        else:
            opts = [
                w
                for w in sorted(ds.WU)
                if w != r
                and ds.loc.get(w) == lx
                and value_written(x.lab[w]) == v
                and (r, w) not in ds.eb
            ]
        if not opts:
            return None
        cands[r] = opts
    return cands


def search_px86_witness(x: Execution, budget: int = 200_000) -> Optional[Px86Witness]:
    """Deterministic backtracking search for a consistent witness."""
    ds = derive_sets(x)
    era = x.plain.era_of()
    explicit_p = frozenset(e for e in x.events if P_TAG in x.lab[e].tags)
    has_explicit = bool(explicit_p)

    cands = _read_candidates(x, ds)
    if cands is None and (ds.R | ds.U):
        return None
    reads = sorted(cands or {})
    wu = sorted(ds.WU)
    wu_eras = [era[e] for e in wu]
    steps = [0]

    def spend(n: int = 1):
        steps[0] += n
        if steps[0] > budget:
            raise BudgetExceeded({"steps": steps[0]})

    for rf_combo in itertools.product(*(cands[r] for r in reads)) if reads else [()]:
        spend()
        rf = frozenset((w, r) for r, w in zip(reads, rf_combo))
        # A1: cross-era rf edges must be po edges
        if any((w, r) not in x.po and (w, r) in ds.eb for (w, r) in rf):
            continue
        forced = _forced_tso(x, ds, rf)
        base = Order.close(len(x.events), forced)
        if not base.is_acyclic():
            continue
        base_wu = base.restrict(wu)
        # a forced edge among writes that points back in era order leaves no
        # era-monotone write order
        if any(wu_eras[a] > wu_eras[b] for a, b in base_wu.pairs):
            continue
        for ext in linear_extensions(base_wu, wu_eras):
            spend()
            perm = [wu[i] for i in ext]
            chain = [(perm[i], perm[i + 1]) for i in range(len(perm) - 1)]
            tso = closure(set(forced) | set(chain))
            if not is_irreflexive(tso):
                continue
            if any((b, a) in ds.eb for (a, b) in tso):
                continue
            if not is_irreflexive(closure(set(x.hb) | set(tso))):
                continue
            if _axiom_a2(x, ds, rf, tso) is not None:
                continue
            req = _nvo_required(x, ds, tso)
            nvo = closure(req)
            if not is_irreflexive(nvo) or any((b, a) in ds.eb for (a, b) in nvo):
                continue
            needed = {w for (w, r) in rf if (w, r) in ds.eb} | _forced_persists(x, ds)
            if has_explicit:
                p_set = set(explicit_p)
                if not needed <= p_set:
                    continue
            else:
                p_set = set(needed)
            # close downward under nvo
            changed = True
            while changed:
                changed = False
                for a, b in nvo:
                    if b in p_set and a not in p_set:
                        p_set.add(a)
                        changed = True
            if has_explicit and p_set != set(explicit_p):
                continue
            if not p_set <= ds.D:
                continue
            ok = True
            for (w, r) in rf:
                if (w, r) not in ds.eb:
                    continue
                lx = ds.loc.get(w)
                for w2 in ds.wux(lx):
                    if w2 in p_set and (w, w2) in nvo and (w2, r) in ds.eb:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            return Px86Witness(rf, frozenset(tso), frozenset(nvo), frozenset(p_set))
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
