"""The paper's definitions that no product path runs, stated once for the
tests.

The checker in ``persistcheck`` decides consistency, hereditary consistency
and compositional correctness through fast paths (bit rows, masks, memos,
seeded replays).  The definitions below state the same notions directly, as
the paper gives them; the tests compare the fast paths with them, and no
module of ``persistcheck`` imports this one.

* Executions: ``thread_chains`` (program order per thread),
  ``immediate_prefixes`` / ``immediate_prefixes_execution`` and
  ``prefix_immediate`` (G' ⊏_imm G: one maximal event removed),
  ``is_irreflexive``, ``execution_canonical_hash`` (isomorphism-invariant
  hash of a full execution) and the JSON round trip ``execution_to_json`` /
  ``execution_from_json``.
* Sequential specifications as predicates on call sequences: ``s_queue``
  and ``s_weakreg``.
* Px86: the label constructors of the flush and fence instructions
  (``flush``, ``fo``, ``mfence``, ``sfence``) and ``check_px86_axioms``,
  the Px86 axioms A1–A9, persisted-set closure and forcing, the cross-era
  axiom and era monotonicity, each evaluated for a given witness.
* ``interpret``: the semantics ⟦P⟧ of a program, as its ``Interpretation``.
* ``sourced_in``: whether every read of a plain execution has a write of
  its key, under a collection's declared value flow, by another event that
  is not era-after it (era-before: a crash po-between).
* ``era_numbers``: per event, the number of crashes po-before it, which
  orders the eras wherever every crash is po-comparable with every event.
* ``same_transaction``: the same-transaction relation of the transaction
  library, as pairs.
* Substitution: ``existproj`` (∃f⟨r⟩, a relation projected along f),
  ``pomset_bind`` (the bind P·I of a pomset with an implementation:
  each event replaced by its pomset, ordered lexicographically) and
  ``set_bind`` (its lifting to sets, up to isomorphism), ``identity_impl``
  (the implementation mapping each call to itself), ``contains`` (a
  block's membership in its call's implementation, read off its labels in
  po order, ``_po_sequence``), ``is_plain_matching``
  (plain matching: f surjective, ∃f⟨po_c⟩ = po_a, each block a member of its
  call's implementation), ``is_refined_matching`` (refined matching: both
  sides consistent, sw justified by projected hb, abstract hb determined by
  projected external hb), and ``lift_step`` / ``check_lifting_step`` (the
  lifting step: one link of a hereditary chain lifted to a consistent
  abstract execution extending the previous one).

A definition here may read private helpers of ``persistcheck``: one
statement of each axiom or projection serves both.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from persistcheck.framework import Collection, Verdict, check_consistent
from persistcheck.lang import InterpConfig, Interpretation, Prog, SyntacticImpl, ValueFlow
from persistcheck.libs import _transaction_rows
from persistcheck.model import (
    BOT,
    CRASH,
    Edge,
    Execution,
    Label,
    Order,
    PlainExecution,
    Pomset,
    _iso_signatures,
    bits,
    canonical_hash,
    immediate_prefix_masks,
    iso_eq,
    row_pairs,
)
from persistcheck.px86 import (
    D_TAG,
    Px86Witness,
    _axiom_a2,
    _cross_era,
    _forced_persists,
    _forced_tso,
    _mask,
    _nvo_required,
    derive_sets,
)
from persistcheck.sc import S_QUEUE, S_WEAKREG, CallLike
from persistcheck.substitution import (
    SemanticImpl,
    _bind_rows,
    _hb_parts,
    _lift_projected,
    _project_link,
    _unthreaded,
    _within,
)


# --------------------------------------------------------------------------
# Executions: program order, immediate prefixes, serialization
# --------------------------------------------------------------------------


def thread_chains(labels: Sequence[Label]) -> List[Edge]:
    """po edges chaining same-thread events in list order (crashes global)."""
    edges: List[Edge] = []
    last: Dict[int, int] = {}
    for i, l in enumerate(labels):
        if l.thread is None:
            continue
        if l.thread in last:
            edges.append((last[l.thread], i))
        last[l.thread] = i
    return edges


def is_irreflexive(rel: Iterable[Edge]) -> bool:
    return all(a != b for a, b in rel)


def immediate_prefixes(g: PlainExecution) -> List[PlainExecution]:
    """All G' with G' ⊏_imm G (one po-maximal event removed)."""
    return [g.restrict_events(bits(m)) for m in immediate_prefix_masks(g.po_order.rows, (1 << len(g)) - 1)]


def prefix_immediate(g_small: PlainExecution, g_big: PlainExecution) -> bool:
    """True iff g_small is g_big minus one po-maximal event (up to iso)."""
    if len(g_small) != len(g_big) - 1:
        return False
    return any(iso_eq(g_small, p) for p in immediate_prefixes(g_big))


def immediate_prefixes_execution(x: Execution) -> List[Execution]:
    return [x.restrict_events(bits(m)) for m in immediate_prefix_masks(x.hb_order.rows, (1 << len(x)) - 1)]


def execution_canonical_hash(x: Execution) -> int:
    sig = _iso_signatures(x.events, x.hb_order, x.lab)
    return hash(tuple(sorted(sig.values())))


def _json_value(v):
    if v is BOT:
        return {"⊥": True}
    return v


def execution_to_json(x: Execution) -> str:
    events = []
    for e in x.events:
        l = x.lab[e]
        events.append(
            {
                "id": e,
                "thread": l.thread,
                "label": "crash" if l.is_crash else l.method,
                "args": list(l.args),
                "ret": _json_value(l.ret) if l.is_call else None,
                "tags": sorted(l.tags),
            }
        )
    return json.dumps(
        {
            "events": events,
            "po": sorted([list(e) for e in x.po]),
            "sw": sorted([list(e) for e in x.sw]),
            "hb": sorted([list(e) for e in x.hb]),
        },
        ensure_ascii=False,
    )


def execution_from_json(text: str) -> Execution:
    data = json.loads(text)
    labels = []
    for ev in sorted(data["events"], key=lambda d: d["id"]):
        if ev["label"] == "crash":
            labels.append(CRASH)
        else:
            ret = ev["ret"]
            if isinstance(ret, dict) and ret.get("⊥"):
                ret = BOT
            labels.append(
                Label(ev["label"], tuple(ev["args"]), ret, frozenset(ev["tags"]), ev["thread"])
            )
    po = [tuple(e) for e in data["po"]]
    sw = [tuple(e) for e in data["sw"]]
    hb = [tuple(e) for e in data["hb"]]
    return Execution(PlainExecution(labels, po), sw, hb)


# --------------------------------------------------------------------------
# Sequential specifications
# --------------------------------------------------------------------------


def s_queue(seq: Sequence[CallLike]) -> bool:
    return S_QUEUE.accepts(seq)


def s_weakreg(seq: Sequence[CallLike]) -> bool:
    return S_WEAKREG.accepts(seq)


# --------------------------------------------------------------------------
# Px86: flush and fence labels, the axioms of a given witness
# --------------------------------------------------------------------------


def flush(x: int, thread: int = 0, ret=None) -> Label:
    return Label("flush", (x,), ret, frozenset({D_TAG}), thread)


def fo(x: int, thread: int = 0, ret=None) -> Label:
    return Label("fo", (x,), ret, frozenset({D_TAG}), thread)


def mfence(thread: int = 0, ret=None) -> Label:
    return Label("mfence", (), ret, frozenset(), thread)


def sfence(thread: int = 0, ret=None) -> Label:
    return Label("sfence", (), ret, frozenset(), thread)


def check_px86_axioms(x: Execution, w: Px86Witness) -> Dict[str, Verdict]:
    """Evaluate each axiom for a given witness; counterexample edge in the
    failure reason.

    A report of the axioms, not a validity check of the witness: it does not
    check that rf is total and functional on reads and matches their values,
    nor that tso is total on writes.  On ``store(1, 1); load(1, 7)``, which
    has no witness, the witness with rf = ∅ passes every entry."""
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
    before = ds.eb.preds()
    back = any(row & col for rel in (tso, nvo) for row, col in zip(rel, before))
    era_ok = not (rf_back or back)
    axiom("era", era_ok, "relation points backwards in era order")
    return out


# --------------------------------------------------------------------------
# Program semantics
# --------------------------------------------------------------------------


def interpret(prog: Prog, coll: Collection, config: InterpConfig = InterpConfig()) -> Interpretation:
    return Interpretation(prog, coll, config)


def _era_before(g: PlainExecution) -> FrozenSet[Edge]:
    """Era-before as pairs: ``(a, b)`` with a crash po-after ``a`` and
    po-before ``b``."""
    po = g.po
    return frozenset((a, b) for a, c in po if g.lab[c].is_crash for b in g.events if (c, b) in po)


def sourced_in(flow: ValueFlow, g: PlainExecution) -> bool:
    """Whether each read of ``g`` has a write of its key (``flow.of``) by
    another event that is not era-after it."""
    eb, keys = _era_before(g), {e: flow.of(g.lab[e]) for e in g.events}
    return all(
        any(w != r and (r, w) not in eb and key in keys[w][1] for w in g.events)
        for r, (key, _) in keys.items()
        if key is not None
    )


def era_numbers(g: PlainExecution) -> Dict[int, int]:
    """Per event, the number of crashes po-before it.  Where every crash is
    po-comparable with every event, as in the executions the checker builds,
    two events have equal numbers iff they are in one era, and ``a``'s number
    is below ``b``'s iff ``a`` is era-before ``b``."""
    crashes = [c for c in g.events if g.lab[c].is_crash]
    return {e: sum((c, e) in g.po for c in crashes) for e in g.events}


# --------------------------------------------------------------------------
# Transactions
# --------------------------------------------------------------------------


def same_transaction(x: Execution) -> FrozenSet[Tuple[int, int]]:
    """Pairs of same-thread transaction-relevant events with no begin- or
    end-tagged event strictly po-between them (symmetric)."""
    return row_pairs(_transaction_rows(x.plain))


# --------------------------------------------------------------------------
# Substitution: projection, bind, matchings, lifting
# --------------------------------------------------------------------------


def existproj(f: Mapping[int, int], r: Iterable[Edge]) -> FrozenSet[Edge]:
    """∃f⟨r⟩: (y1, y2) with y1 ≠ y2 and some r-related preimages."""
    out = set()
    for a, b in r:
        if a in f and b in f and f[a] != f[b]:
            out.add((f[a], f[b]))
    return frozenset(out)


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


def _strip_thread(l: Label) -> Label:
    return replace(l, thread=None) if l.thread is not None else l


class IdentityImpl(SemanticImpl):
    """The identity implementation: each call maps to its own singleton."""

    def __init__(self, coll: Collection, methods: Iterable[str]):
        super().__init__(SyntacticImpl("identity", {m: ((), None) for m in methods}), coll)

    def executions(self, label: Label, loc_start: int) -> List[PlainExecution]:
        return [PlainExecution([_strip_thread(label)], [])]


def identity_impl(coll: Collection, methods: Iterable[str]) -> SemanticImpl:
    return IdentityImpl(coll, methods)


def _po_sequence(g: PlainExecution) -> Optional[List[Label]]:
    """g's labels in po order if g is a chain, else None: the po rows of a
    chain of n events hold n-1, …, 0 successors."""
    at = {row.bit_count(): e for e, row in enumerate(g.po_order.rows)}
    return [g.lab[at[k]] for k in reversed(range(len(g)))] if len(at) == len(g) else None


def contains(impl: SemanticImpl, label: Label, g: PlainExecution) -> bool:
    """Membership of g (any thread labelling) in I(label): g is a chain with
    a member's labels in po order."""
    labels = _po_sequence(g)
    return labels is not None and impl._contains(label, labels)


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
            if not contains(impl, lab, block):
                return False
        else:
            if len(pre) != 1 or _unthreaded(gc.lab[pre[0]]) != _unthreaded(lab):
                return False
    return True


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
    proj_hb, proj_external = _project_link(*_hb_parts(xc), f, xc.events, xa.events)
    report["sw-justified"] = _within(Order.close(len(xa), xa.sw).rows, proj_hb)
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
    image = tuple(sorted({f[c] for c in xc.events}))
    proj_hb, proj_external = _project_link(*_hb_parts(xc), f, xc.events, image)
    return _lift_projected(image, proj_hb, proj_external, ga, prev_abs, prev_ids, coll_high, budget, failure)


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
