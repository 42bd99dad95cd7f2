"""The eager searches that ``sc.linearizations`` replaced, kept verbatim as
test references: the linear-extension enumerator ``linear_extensions``, and
Flit's and Mirror's checks and Mirror's sw hook, which loop over every
linear extension (times every persisted set, for Flit) and check each as a
whole.  Eras are numbered by ``definitions.era_numbers``, and
``era_preds`` gives the predecessor rows of an era-monotone search on
closed rows, for the snapshots that handed one to ``sc.linearizations``."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from definitions import era_numbers
from persistcheck.framework import BudgetExceeded, Verdict
from persistcheck.libs import _mirror_is_write, _mirror_reads, _mirror_written
from persistcheck.model import BOT, Execution, Label, Order, PlainExecution
from persistcheck.px86 import P_TAG


def era_preds(order: Order, eras: Sequence[int]) -> List[int]:
    """The predecessor masks of ``order``, each event also after every event
    of an earlier era: the ``preds`` of an era-monotone search."""
    return [p | sum(1 << j for j, ej in enumerate(eras) if ej < ei) for p, ei in zip(order.preds(), eras)]


def linear_extensions(
    order: Order,
    eras: Optional[Sequence[int]] = None,
    step: Optional[Callable[[object, int], object]] = None,
    state: object = None,
    budget: Optional[List[int]] = None,
    stage: str = "linear extensions",
) -> Iterator[Tuple[int, ...]]:
    """The linear extensions of ``order`` on the events ``0..n-1``, in
    lexicographic order (at each position the smallest placeable event first).

    ``eras[i]`` places event ``i`` after every event of an earlier era.
    ``step(state, i)`` gives the state after appending ``i`` to a prefix whose
    state is ``state`` (the empty prefix has ``state``); ``None`` cuts every
    extension of the longer prefix.  ``budget`` is a one-element list charged
    one unit per prefix extended, before ``step`` runs; once it goes below
    zero, ``BudgetExceeded`` is raised with ``stage`` as its stage.
    """
    n = len(order)
    preds = list(order.preds())
    if eras is not None:
        for i in range(n):
            preds[i] |= sum(1 << j for j in range(n) if eras[j] < eras[i])
    full = (1 << n) - 1
    placed: List[int] = []

    def rec(done: int, st) -> Iterator[Tuple[int, ...]]:
        if done == full:
            yield tuple(placed)
            return
        for i in range(n):
            bit = 1 << i
            if done & bit or preds[i] & ~done:
                continue
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded({"stage": stage})
            nxt = st
            if step is not None:
                nxt = step(st, i)
                if nxt is None:
                    continue
            placed.append(i)
            yield from rec(done | bit, nxt)
            placed.pop()

    return rec(0, state)


def check_flit(x: Execution, budget: int = 100_000) -> Verdict:
    """Flit correctness: a total order lin ⊇ hb, a persist order nvo, and a
    persisted write set P such that reads see the lin-latest visible write
    (visible across eras only when persisted), persistent writes persist
    before dependent writes, persistent writes before a finish-op persist,
    and P is an nvo prefix."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = era_numbers(x.plain)
    lab = x.lab
    W = [e for e in ids if lab[e].method in ("fwrite_p", "fwrite_v")]
    WP = [e for e in ids if lab[e].method == "fwrite_p"]
    R = [e for e in ids if lab[e].method in ("fread_p", "fread_v")]
    RP = [e for e in ids if lab[e].method == "fread_p"]
    F = [e for e in ids if lab[e].method == "ffinish"]

    def locof(e):
        l = lab[e]
        return l.args[0] if l.args else None

    explicit = frozenset(e for e in ids if P_TAG in lab[e].tags)
    has_explicit = any(P_TAG in lab[e].tags for e in x.events)
    po_se = {(a, b) for (a, b) in x.po if era.get(a) == era.get(b)}
    spent = [budget]
    try:
        for ext in linear_extensions(
            x.hb_order.restrict(ids), [era[e] for e in ids], budget=spent, stage="linearization enumeration"
        ):
            lin = tuple(ids[i] for i in ext)
            pos = {e: i for i, e in enumerate(lin)}
            p_cands = (
                [explicit]
                if has_explicit
                else [
                    frozenset(c)
                    for r in range(len(W) + 1)
                    for c in itertools.combinations(sorted(W), r)
                ]
            )
            for P in p_cands:
                def visible(w, r):
                    return era[w] == era[r] or w in P

                # reads-from: lin-latest visible same-location write
                ok = True
                for r in R:
                    srcs = [
                        w
                        for w in W
                        if locof(w) == locof(r) and pos[w] < pos[r] and visible(w, r)
                    ]
                    want = lab[r].ret
                    if want is BOT:
                        continue
                    if srcs:
                        w = max(srcs, key=lambda e: pos[e])
                        wrote = lab[w].args[1]
                        if wrote != want:
                            ok = False
                            break
                    else:
                        if want != 0:
                            ok = False
                            break
                if not ok:
                    continue
                # dependency: same-era po, plus persistent write-to-read pairs
                dep_edges = set(po_se)
                for w in WP:
                    for r in RP:
                        if locof(w) == locof(r) and pos[w] < pos[r] and visible(w, r):
                            dep_edges.add((w, r))
                dep = Order.close(len(x), dep_edges).rows
                nvo_req = {
                    (w1, w2) for w1 in WP for w2 in W if dep[w1] >> w2 & 1
                }
                nvo = Order.close(len(x), nvo_req)
                if not nvo.is_acyclic():
                    continue
                if any(era[a] > era[b] for (a, b) in nvo.pairs):
                    continue
                # persistent writes before a finish-op persist
                need_p = {
                    w for w in WP if any(dep[w] >> f & 1 for f in F)
                }
                if not need_p <= P:
                    continue
                # nvo is a persist order
                if any(b in P and a not in P for (a, b) in nvo.pairs):
                    continue
                return Verdict.ok(
                    witness={"lin": list(lin), "nvo": sorted(nvo.pairs), "P": sorted(P)}
                )
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    return Verdict.fail("no flit witness (lin/nvo/P)")


def check_mirror(x: Execution, budget: int = 100_000) -> Verdict:
    """Mirror correctness: a total lin agreeing with po and hb; sw must equal
    the derived latest-visible reads-from; completed writes are exactly the
    persisted set; same-era write chains persist in order."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = era_numbers(x.plain)
    lab = x.lab
    W = [e for e in ids if _mirror_is_write(lab[e])]
    R = [e for e in ids if _mirror_reads(lab[e])]
    P = frozenset(w for w in W if lab[w].is_complete)
    idset = set(ids)
    writes = sum(1 << w for w in W)
    spent = [budget]
    try:
        # po ⊆ hb holds by construction
        for ext in linear_extensions(
            x.hb_order.restrict(ids), [era[e] for e in ids], budget=spent, stage="linearization enumeration"
        ):
            lin = tuple(ids[i] for i in ext)
            rf = _mirror_reads_from(lab, era, lin)
            sw_derived = {(w, r) for r, w in rf.items()}
            ok = True
            for r in R:
                if r in rf:
                    wrote = _mirror_written(lab[rf[r]])
                    if lab[r].method == "mrd":
                        if lab[r].ret is not BOT and wrote != lab[r].ret:
                            ok = False
                    elif lab[r].ret == 1:  # successful cas read its expected value
                        if wrote != lab[r].args[1]:
                            ok = False
                    elif lab[r].ret == 0:  # failed cas saw something else
                        if wrote == lab[r].args[1]:
                            ok = False
                else:
                    if lab[r].method == "mrd" and lab[r].ret not in (0, BOT):
                        ok = False
                    if lab[r].method == "mcas" and lab[r].ret == 1 and lab[r].args[1] != 0:
                        ok = False
                    if lab[r].method == "mcas" and lab[r].ret == 0 and lab[r].args[1] == 0:
                        ok = False
                if not ok:
                    break
            if not ok:
                continue
            if set(x.sw) != sw_derived:
                continue
            po_sw_se = {(a, b) for (a, b) in (set(x.po) | set(x.sw)) if a in idset and b in idset and era[a] == era[b]}
            chain = Order.close(len(x), po_sw_se).rows
            # the restriction of a closed order to the writes is closed
            nvo = Order([row & writes if writes >> a & 1 else 0 for a, row in enumerate(chain)])
            if not nvo.is_acyclic():
                continue
            if any(b in P and a not in P for (a, b) in nvo.pairs):
                continue
            return Verdict.ok(witness={"lin": list(lin), "nvo": sorted(nvo.pairs), "P": sorted(P)})
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    return Verdict.fail("no mirror witness (lin/nvo)")


def _mirror_reads_from(lab: Sequence[Label], era: Mapping[int, int], lin: Sequence[int]) -> Dict[int, int]:
    """Mirror's derived reads-from along the linearization ``lin``: each read
    reads the lin-latest earlier write to its location that it sees, one of
    its own era or a completed (so persisted) one."""
    pos = {e: i for i, e in enumerate(lin)}
    W = [e for e in lin if _mirror_is_write(lab[e])]
    rf: Dict[int, int] = {}
    for r in lin:
        if _mirror_reads(lab[r]):
            srcs = [
                w
                for w in W
                if w != r
                and lab[w].args[0] == lab[r].args[0]
                and pos[w] < pos[r]
                and (era[w] == era[r] or lab[w].is_complete)
            ]
            if srcs:
                rf[r] = max(srcs, key=pos.__getitem__)
    return rf


def _mirror_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate sw sets: derived reads-from for each era-monotone lin."""
    ids = [e for e in g.events if not g.lab[e].is_crash]
    era = era_numbers(g)
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    spent = [2_000]
    try:
        for ext in linear_extensions(
            g.po_order.restrict(ids), [era[e] for e in ids], budget=spent, stage="linearization enumeration"
        ):
            rf = _mirror_reads_from(g.lab, era, [ids[i] for i in ext])
            fz = frozenset((w, r) for r, w in rf.items())
            if fz not in out:
                out.append(fz)
    except BudgetExceeded:
        pass
    return out
