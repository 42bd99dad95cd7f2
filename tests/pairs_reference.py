"""The pair-set library predicates that reading closed rows replaced, kept
verbatim as test references: the transaction library's same-transaction
relation, conditions 1-14 and tag hook, the lock, lock-wrapped transaction
and counter checks, Flit's and Mirror's checks, and the lock and Mirror sw
hooks with their list-scanning deduplication.  Each reads ``x.po`` and
``x.hb`` as pair sets and closes orders from pair edges.  Eras are
numbered by ``definitions.era_numbers``, with Mirror's era-number
``_mirror_step`` kept here, since the checks now read era-before."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from persistcheck.framework import BudgetExceeded, Verdict
from persistcheck.libs import (
    B_TAG,
    E_TAG,
    PTR_TAG,
    T_TAG,
    _mirror_is_write,
    _mirror_reads,
    _mirror_written,
)
from persistcheck.model import BOT, Execution, Label, Order, PlainExecution
from persistcheck.px86 import P_TAG
from definitions import era_numbers
from eager_reference import era_preds
from persistcheck.sc import ANY_ORDER, SequentialSpec, linearizations, linearize



def check_flit(x: Execution, budget: int = 100_000) -> Verdict:
    """Flit correctness: a total order lin ⊇ hb, a persist order nvo, and a
    persisted write set P such that reads see the lin-latest visible write
    (visible across eras only when persisted), persistent writes persist
    before dependent writes, persistent writes before a finish-op persist,
    and P is an nvo prefix.

    One era-monotone :func:`sc.linearizations` search places each write
    persisted or not (as its P tag says, if any event has one) and checks
    each read as it is placed: the state maps each location to the era and
    value of its lin-latest write and the value of its lin-latest persisted
    write.  The dependency and finish rules are checked on each sequence it
    yields.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = era_numbers(x.plain)
    lab = x.lab
    W = [e for e in ids if lab[e].method in ("fwrite_p", "fwrite_v")]
    WP = [e for e in W if lab[e].method == "fwrite_p"]
    RP = [e for e in ids if lab[e].method == "fread_p"]
    F = [e for e in ids if lab[e].method == "ffinish"]
    explicit = frozenset(e for e in ids if P_TAG in lab[e].tags)
    has_explicit = any(P_TAG in lab[e].tags for e in x.events)
    persists = {e: (e in explicit,) if has_explicit else (False, True) for e in W}
    options = [[(e, p) for p in persists.get(e, (None,))] for e in ids]

    def step(st, cand):
        e, persist = cand
        l = lab[e]
        if l.method in ("fread_p", "fread_v"):
            w_era, val, persisted = st.get(l.args[0], (None, 0, 0))
            return st if l.ret is BOT or l.ret == (val if w_era == era[e] else persisted) else None
        if persist is None:
            return st
        loc, val = l.args
        return {**st, loc: (era[e], val, val if persist else st.get(loc, (None, 0, 0))[2])}

    po_se = [(a, b) for (a, b) in x.po if era[a] == era[b]]
    preds = era_preds(x.hb_order.restrict(ids), [era[e] for e in ids])
    stats = {"stage": "linearization enumeration"}
    try:
        for placed in linearizations(
            preds, options, (1 << len(ids)) - 1, SequentialSpec("flit", dict, step), budget, stats
        ):
            lin = [e for _, (e, _) in placed]
            P = explicit if has_explicit else frozenset(e for _, (e, p) in placed if p)
            pos = {e: i for i, e in enumerate(lin)}
            # dependency: same-era po, plus persistent write-to-read pairs
            dep_edges = po_se + [
                (w, r)
                for w in WP
                for r in RP
                if lab[w].args[0] == lab[r].args[0] and pos[w] < pos[r] and (era[w] == era[r] or w in P)
            ]
            dep = Order.close(len(x), dep_edges).rows
            # dep relates events in lin order only, so nvo is acyclic and
            # points forward in era order
            nvo = Order.close(len(x), [(w1, w2) for w1 in WP for w2 in W if dep[w1] >> w2 & 1])
            # persistent writes before a finish-op persist; P is an nvo prefix
            if all(w in P for w in WP if any(dep[w] >> f & 1 for f in F)) and not any(
                b in P and a not in P for (a, b) in nvo.pairs
            ):
                return Verdict.ok(witness={"lin": lin, "nvo": sorted(nvo.pairs), "P": sorted(P)}, stats=stats)
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    return Verdict.fail("no flit witness (lin/nvo/P)", stats=stats)


def check_mirror(x: Execution, budget: int = 100_000) -> Verdict:
    """Mirror correctness: a total lin agreeing with po and hb; sw must equal
    the derived latest-visible reads-from; completed writes are exactly the
    persisted set; same-era write chains persist in order.

    The persist order reads only po, sw and which writes are complete, so it
    is checked first.  Then the first sequence of one era-monotone
    :func:`sc.linearizations` search is a witness; it checks each read as it
    is placed: its value, and that the sw edges into it are exactly its
    derived source.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = era_numbers(x.plain)
    lab = x.lab
    W = [e for e in ids if _mirror_is_write(lab[e])]
    R = {e for e in ids if _mirror_reads(lab[e])}
    P = frozenset(w for w in W if lab[w].is_complete)
    idset = set(ids)
    writes = sum(1 << w for w in W)
    po_sw_se = {(a, b) for (a, b) in (set(x.po) | set(x.sw)) if a in idset and b in idset and era[a] == era[b]}
    chain = Order.close(len(x), po_sw_se).rows
    # the restriction of a closed order to the writes is closed
    nvo = Order([row & writes if writes >> a & 1 else 0 for a, row in enumerate(chain)])
    sw_into = {r: frozenset(a for a, b in x.sw if b == r) for r in R}
    stage = "linearization enumeration"
    if any(b not in R for _, b in x.sw) or not nvo.is_acyclic() or any(b in P and a not in P for (a, b) in nvo.pairs):
        return Verdict.fail("no mirror witness (lin/nvo)", stats={"stage": stage, "nodes": 0, "memo_hits": 0})

    def step(st, e):
        src, nxt = _mirror_step(lab, era, st, e)
        l = lab[e]
        if e in R:
            seen = 0 if src is None else _mirror_written(lab[src])
            if l.method == "mrd":
                bad = l.ret is not BOT and seen != l.ret
            else:  # a successful cas read its expected value, a failed one something else
                bad = l.ret == 1 and seen != l.args[1] or l.ret == 0 and seen == l.args[1]
            if bad or sw_into[e] != frozenset(() if src is None else (src,)):
                return None
        return nxt

    preds = era_preds(x.hb_order.restrict(ids), [era[e] for e in ids])
    v = linearize(preds, [[e] for e in ids], (1 << len(ids)) - 1, SequentialSpec("mirror", dict, step), budget, stage)
    return replace(v, witness={"lin": [e for _, e in v.witness], "nvo": sorted(nvo.pairs), "P": sorted(P)}) if v else v


def _mirror_step(lab: Sequence[Label], era: Mapping[int, int], st: dict, e: int):
    """Mirror's derived reads-from, one event of an era-monotone lin at a
    time.  ``st`` maps each location to its lin-latest write and its
    lin-latest completed (so persisted) write.  Returns the write ``e``
    reads from (``None`` if ``e`` reads none) and the state after ``e``: a
    read sees the latest write of its own era, else the latest completed
    one."""
    l = lab[e]
    if not l.args:
        return None, st
    last, done = st.get(l.args[0], (None, None))
    src = (last if last is not None and era[last] == era[e] else done) if _mirror_reads(l) else None
    if _mirror_is_write(l):
        st = {**st, l.args[0]: (e, e if l.is_complete else done)}
    return src, st


def _mirror_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate sw sets: derived reads-from for each era-monotone lin of
    po, the first 2,000 candidates tried."""
    ids = [e for e in g.events if not g.lab[e].is_crash]
    era = era_numbers(g)
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    preds = era_preds(g.po_order.restrict(ids), [era[e] for e in ids])
    try:
        for lin in linearizations(preds, [[e] for e in ids], (1 << len(ids)) - 1, ANY_ORDER, 2_000, {}):
            st, rf = {}, set()
            for _, e in lin:
                src, st = _mirror_step(g.lab, era, st, e)
                if src is not None:
                    rf.add((src, e))
            if frozenset(rf) not in out:
                out.append(frozenset(rf))
    except BudgetExceeded:
        pass
    return out


def _tagged(x: Execution, tag: str) -> List[int]:
    return [e for e in x.events if tag in x.lab[e].tags]


def same_transaction(x: Execution) -> FrozenSet[Tuple[int, int]]:
    """Pairs of same-thread transaction-relevant events with no begin- or
    end-tagged event strictly po-between them (symmetric)."""
    relevant = set(_tagged(x, T_TAG)) | set(_tagged(x, B_TAG)) | set(_tagged(x, E_TAG))
    seps = set(_tagged(x, B_TAG)) | set(_tagged(x, E_TAG))
    po = x.po
    out = set()
    for a in relevant:
        for b in relevant:
            if a == b:
                continue
            if x.lab[a].thread is None or x.lab[a].thread != x.lab[b].thread:
                continue
            if (a, b) not in po and (b, a) not in po:
                continue
            lo, hi = (a, b) if (a, b) in po else (b, a)
            if any(s not in (a, b) and (lo, s) in po and (s, hi) in po for s in seps):
                continue
            out.add((a, b))
            out.add((b, a))
    return frozenset(out)


def _ltrans_events(x: Execution):
    begins = [e for e in x.events if x.lab[e].method == "pt_begin"]
    ends = [e for e in x.events if x.lab[e].method == "pt_end"]
    writes = [e for e in x.events if x.lab[e].method == "pt_write"]
    reads = [e for e in x.events if x.lab[e].method == "pt_read"]
    news = [e for e in x.events if x.lab[e].method == "pt_new"]
    recovers = [e for e in x.events if x.lab[e].method == "pt_recover"]
    crashes = [e for e in x.events if x.lab[e].is_crash]
    return begins, ends, writes, reads, news, recovers, crashes


def ltrans_local_wellformed(x: Execution) -> Verdict:
    begins, ends, writes, reads, news, recovers, crashes = _ltrans_events(x)
    po = x.po
    hb = x.hb
    for e in ends:
        if not any((b, e) in po for b in begins):
            return Verdict.fail("cond 1: end without a prior begin")
    for e1 in ends:
        for e2 in ends:
            if (e1, e2) in po and not any((e1, b) in po and (b, e2) in po for b in begins):
                return Verdict.fail("cond 2: consecutive ends without a begin")
    for b1 in begins:
        for b2 in begins:
            if (b1, b2) in po and not any((b1, e) in po and (e, b2) in po for e in ends):
                return Verdict.fail("cond 2: nested transactions")
    for e in ends:
        for b in begins:
            if (e, b) not in hb and (b, e) not in hb:
                return Verdict.fail("cond 3: transactions not externally synchronized")
    b_tagged = _tagged(x, B_TAG)
    for c in crashes:
        for b in b_tagged:
            if (c, b) in hb and not any(
                (c, r) in hb and (r, b) in hb for r in recovers
            ):
                return Verdict.fail("cond 4: no recovery between crash and begin")
    for e in writes + reads:
        if T_TAG not in x.lab[e].tags:
            return Verdict.fail("cond 5: untagged transactional access")
    return Verdict.ok()


def ltrans_global_wellformed(x: Execution) -> Verdict:
    po = x.po
    t_tagged = _tagged(x, T_TAG)
    b_tagged = _tagged(x, B_TAG)
    e_tagged = _tagged(x, E_TAG)
    for t in t_tagged:
        if not any((b, t) in po for b in b_tagged):
            return Verdict.fail("cond 6: transactional event before any begin")
    for e in e_tagged:
        for t in t_tagged:
            if (e, t) in po and not any((e, b) in po and (b, t) in po for b in b_tagged):
                return Verdict.fail("cond 7: transactional event after end without new begin")
    return Verdict.ok()


def ltrans_local_consistent(x: Execution) -> Verdict:
    """Conditions 8-10: a reads-from with inverse total and functional on
    reads, reads access the most recent visible write (same era or
    persisted), and external reads come from persisted writes."""
    begins, ends, writes, reads, news, recovers, crashes = _ltrans_events(x)
    era = era_numbers(x.plain)
    hb = x.hb
    st = same_transaction(x)
    ptr = set(_tagged(x, PTR_TAG))

    def locof(e):
        l = x.lab[e]
        if l.method == "pt_new":
            return l.ret
        return l.args[0] if l.args else None

    sources = writes + news

    def written(e):
        l = x.lab[e]
        if l.method == "pt_new":
            return 0
        return l.args[1]

    def visible(w, r):
        return era[w] == era[r] or w in ptr or x.lab[w].method == "pt_new"

    for r in reads:
        if x.lab[r].ret is BOT:
            continue
        cands = [
            w
            for w in sources
            if locof(w) == locof(r)
            and written(w) == x.lab[r].ret
            and ((w, r) in hb or (w, r) in st)
            and visible(w, r)
        ]
        found = False
        for w in cands:
            blocked = any(
                w2 != w
                and w2 != r
                and locof(w2) == locof(r)
                and (w, w2) in hb
                and (w2, r) in hb
                and visible(w2, r)
                for w2 in sources
            )
            if blocked:
                continue
            if (w, r) not in st and w in writes and w not in ptr:
                continue  # cond 10: external reads need persisted sources
            found = True
            break
        if not found:
            return Verdict.fail(f"cond 8-10: read {r} has no admissible source")
    return Verdict.ok()


def ltrans_global_consistent(x: Execution) -> Verdict:
    """Conditions 11-14 over the tagged (possibly anonymized) execution."""
    hb = x.hb
    st = same_transaction(x)
    ptr = set(_tagged(x, PTR_TAG))
    t_tagged = set(_tagged(x, T_TAG))
    b_tagged = set(_tagged(x, B_TAG))
    e_tagged = set(_tagged(x, E_TAG))
    nvo_req = {
        (e, b) for e in e_tagged for b in b_tagged if (e, b) in hb
    }
    nvo = Order.close(len(x), nvo_req)
    if not nvo.is_acyclic():
        return Verdict.fail("cond 11: cyclic transaction order")
    if any(b in ptr and a not in ptr for (a, b) in nvo.pairs):
        return Verdict.fail("cond 12: persisted set is not an nvo prefix")
    for (a, b) in st:
        if a in ptr and b in t_tagged and b not in ptr:
            return Verdict.fail("cond 13: partially persisted transaction")
    for e in e_tagged:
        if x.lab[e].is_complete and e not in ptr:
            return Verdict.fail("cond 14: completed transaction not persisted")
    return Verdict.ok()


def _ltrans_tag_hook(g: PlainExecution) -> Sequence[Mapping[int, FrozenSet[str]]]:
    """Persisted-marker candidates: subsets of transaction-relevant events,
    whole transactions at a time, committed transactions first."""
    tagged = [
        e
        for e in g.events
        if {T_TAG, B_TAG, E_TAG} & g.lab[e].tags and PTR_TAG not in g.lab[e].tags
    ]
    if not tagged:
        return [{}]
    # group by same-transaction over po (thread, segment between B/E tags)
    x = Execution(g)
    st = same_transaction(x)
    groups: List[List[int]] = []
    placed = set()
    for e in sorted(tagged):
        if e in placed:
            continue
        grp = sorted({e} | {b for (a, b) in st if a == e and b in set(tagged)})
        groups.append(grp)
        placed.update(grp)
    out: List[Mapping[int, FrozenSet[str]]] = []
    indices = list(range(len(groups)))
    for r in range(len(groups), -1, -1):
        for combo in itertools.combinations(indices, r):
            tags: Dict[int, FrozenSet[str]] = {}
            for gi in combo:
                for e in groups[gi]:
                    tags[e] = frozenset({PTR_TAG})
            out.append(tags)
    return out


def lock_consistent(x: Execution) -> Verdict:
    """hb totally orders the lock events of each era into (acq·rel)*·acq?."""
    era = era_numbers(x.plain)
    n_eras = len(x.plain.crash_events()) + 1
    for k in range(n_eras):
        evs = [
            e
            for e in x.events
            if era[e] == k and x.lab[e].method in ("lacq", "lrel")
        ]
        for a in evs:
            for b in evs:
                if a != b and (a, b) not in x.hb and (b, a) not in x.hb:
                    return Verdict.fail("lock events not totally hb-ordered")
        word = [
            x.lab[e].method
            for e in sorted(evs, key=lambda e: sum(1 for o in evs if (o, e) in x.hb))
        ]
        expect_acq = True
        for m in word:
            if expect_acq and m != "lacq":
                return Verdict.fail("release without a held lock")
            if not expect_acq and m != "lrel":
                return Verdict.fail("double acquire")
            expect_acq = not expect_acq
    return Verdict.ok()


def _lock_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Interleavings of critical sections: per era, the per-thread (acq[,rel])
    sections in every order that po allows, an open section (no release)
    after all others, rel -> next acq edges proposed."""
    era = era_numbers(g)
    rows = g.po_order.rows
    options_per_era: List[List[FrozenSet[Tuple[int, int]]]] = []
    for k in range(len(g.crash_events()) + 1):
        sections: List[List[int]] = []
        by_thread: Dict[int, List[int]] = {}
        for e in g.events:
            if era[e] == k and g.lab[e].method in ("lacq", "lrel"):
                by_thread.setdefault(g.lab[e].thread, []).append(e)
        for t, evs in sorted(by_thread.items(), key=lambda kv: repr(kv[0])):
            cur: List[int] = []
            for e in sorted(evs):
                cur.append(e)
                if g.lab[e].method == "lrel":
                    sections.append(cur)
                    cur = []
            if cur:
                sections.append(cur)
        masks = [sum(1 << e for e in sec) for sec in sections]
        every = (1 << len(sections)) - 1
        preds = [
            every & ~(1 << i)
            if g.lab[sec[-1]].method != "lrel"
            else sum(1 << j for j, other in enumerate(sections) if j != i and any(rows[a] & masks[i] for a in other))
            for i, sec in enumerate(sections)
        ]
        opts = []
        for lin in linearizations(preds, [[i] for i in range(len(sections))], every, ANY_ORDER, math.inf, {}):
            order = [sections[i] for i, _ in lin]
            opts.append(frozenset((a[-1], b[0]) for a, b in zip(order, order[1:])))
        options_per_era.append(opts or [frozenset()])
    out = []
    for combo in itertools.product(*options_per_era):
        merged = frozenset().union(*combo) if combo else frozenset()
        if merged not in out:
            out.append(merged)
    return out


def lstrans_wellformed(x: Execution) -> Verdict:
    po = x.po
    begins = [e for e in x.events if x.lab[e].method == "lpt_begin"]
    ends = [e for e in x.events if x.lab[e].method == "lpt_end"]
    for e in ends:
        if not any((b, e) in po for b in begins):
            return Verdict.fail("lpt_end without a prior lpt_begin")
    return Verdict.ok()


def counter_consistent(x: Execution) -> Verdict:
    """A read returns the number of increments hb-before it that are visible
    (same era or persisted)."""
    era = era_numbers(x.plain)
    ptr = set(_tagged(x, PTR_TAG))
    for r in [e for e in x.events if x.lab[e].method == "cread"]:
        if x.lab[r].ret is BOT:
            continue
        count = 0
        for i in [e for e in x.events if x.lab[e].method == "cinc"]:
            if x.lab[i].args[0] != x.lab[r].args[0]:
                continue
            if (i, r) in x.hb and (era[i] == era[r] or i in ptr):
                count += 1
        if x.lab[r].ret != count:
            return Verdict.fail(f"cread returned {x.lab[r].ret}, expected {count}")
    return Verdict.ok()
