"""The seeded library checks before they read the walked execution through
a mask, kept verbatim as test references: ``Seeded``, the owner table's
``_local`` (and the ``consistent`` that calls it), which cut each
projection as an ``Execution`` and renumbered seeds into it and witnesses
out of it, ``execution_linearizable`` with ``lin_placed``, and
``weakreg_consistent_execution`` with ``weakreg_placed`` and
``_weakreg_linearize``.  Two changes: ``Order.preds`` now returns a kept
tuple, so ``_weakreg_linearize`` copies it before it appends the era ends;
and eras are read off program order to crashes, as the checks read them:
an event is in the last era when no crash is po-after it, a crash's era
end follows the calls po-before it and precedes those po-after it, and
``execution_linearizable`` has no era pins (eras once numbered by counting
crashes, which disagreed with era-before where a crash is unordered with
an event).

``check_weakreg_consistent`` is the history set-up of the weak-register
check before it became the execution check on ``history_to_execution(h)``:
calls in invocation order, each before the crashes after its invocation and
after the others, and hb as returns-before-invokes.  It passes that order to
``_weakreg_linearize``, which takes the order where the replaced one took
its ``preds``.

``specs`` gives a library spec whose ``local_consistent`` is the reference
check of the same library."""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Set

from persistcheck import framework
from persistcheck.framework import LibrarySpec, Prefix, Verdict, _always_ok
from persistcheck.libs import PTR_TAG, S_MEM, S_MMCOUNTER, S_QUEUE_ALIASED, S_REG_ABSTRACT
from persistcheck.model import CRASH, CrashEv, Execution, History, Label, Order, anonymize, bits
from persistcheck.sc import (
    PFENCE,
    WEAKREG_METHODS,
    Placement,
    SequentialSpec,
    WeakRegWitness,
    _returns_before_invokes,
    linearize,
)


@dataclass(frozen=True)
class Seeded:
    """A ``local_consistent`` built on ``sc.linearize``: ``check(x, seed=...)``
    replays a ``Placement`` of ``x``'s events (or ``None``) before it searches,
    and ``placed(x, witness)`` gives its OK witness as one."""

    check: Callable[..., Verdict]
    placed: Callable[[Execution, object], Placement]

    def __call__(self, x: Execution) -> Verdict:
        return self.check(x, seed=None)


class Owners(framework.Owners):
    """The owner table with the replaced per-projection ``_local``."""

    def consistent(self, p: "Prefix") -> Verdict:
        mask = p.mask
        if not mask:
            return Verdict.ok()
        if any(mask >> a & mask >> b & 1 for a, b in self.spanning):
            # name the first spanning edge in the prefix's own sw set and ids
            keep = list(bits(mask))
            a, b = next((a, b) for a, b in p.execution.sw if (keep[a], keep[b]) in self.spanning)
            return Verdict.fail(f"sw edge ({a},{b}) spans two libraries")
        for spec in self.specs:
            if spec.local_consistent is not _always_ok:
                key = (spec.name, mask & self.keeps[spec.name])
                v = self.local.get(key)
                if v is None:
                    v = self.local[key] = self._local(spec, self.cut(p, key[1]), key[1])
                if not v:
                    return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
            if spec.global_consistent is not _always_ok:
                v = spec.global_consistent(anonymize(spec.interface.owns, p.execution))
                if not v:
                    return Verdict(v.status, f"{spec.name}.global_consistent: {v.reason}", v.witness, v.stats)
        return Verdict.ok()

    def _local(self, spec: LibrarySpec, proj: Execution, mask: int) -> Verdict:
        """``spec``'s local verdict on its projection ``proj``, on ``mask``."""
        check = spec.local_consistent
        if not isinstance(check, Seeded):
            return check(proj)
        ids = list(bits(mask))
        seed = self.placed.get(spec.name)
        if seed is not None:
            rank = {e: i for i, e in enumerate(ids)}
            seed = [(rank[e], c) for e, c in seed if e in rank]
        v = check.check(proj, seed=seed)
        if v:
            self.placed[spec.name] = [(ids[e], c) for e, c in check.placed(proj, v.witness)]
        return v


def execution_linearizable(
    x: Execution,
    spec: SequentialSpec,
    keep: Optional[Callable[[Label, bool], str]] = None,
    budget: int = 200_000,
    seed: Optional[Placement] = None,
) -> Verdict:
    """hb-linearizations of an execution's single-event calls into a
    sequential spec.

    ``keep(label, is_last_era)`` returns "keep", "drop", or "optional" per
    event (default: complete events kept, incomplete optional); an event is
    in the last era when no crash is po-after it.  Dropped and
    optional-dropped events vanish; a placed incomplete event keeps its
    return open (⊥), so it takes the return ``spec``'s state gives.

    One ``sc.linearize`` search over the kept and optional events decides
    it; its witness lists the placed events.  The budget counts candidate
    calls tried, one per event.  A ``seed`` is given as :func:`lin_placed`
    gives a witness, and replayed first.
    """
    crashes = x.plain.crash_events()
    ids = [e for e in x.events if not x.lab[e].is_crash]
    labs = [x.lab[e] for e in ids]
    modes = {
        e: keep(l, not any((e, c) in x.po for c in crashes)) if keep else "keep" if l.is_complete else "optional"
        for e, l in zip(ids, labs)
    }
    members = [e for e in ids if modes[e] != "drop"]
    must = sum(1 << i for i, e in enumerate(members) if modes[e] == "keep")
    hb = x.hb_order.restrict(members)
    preds = hb.preds()
    if seed is not None:
        at = {e: i for i, e in enumerate(members)}
        seed = [(at[e], x.lab[e]) for e, _ in seed if e in at]
    v = linearize(preds, [[x.lab[e]] for e in members], must, spec, budget, "linearization enumeration", seed)
    return replace(v, witness=[members[i] for i, _ in v.witness]) if v else v


def lin_placed(x: Execution, witness: Sequence[int]) -> Placement:
    """The witness of :func:`execution_linearizable`, its placed events."""
    return [(e, None) for e in witness]


def weakreg_consistent_execution(
    x, with_pfence: bool = False, budget: int = 500_000, seed: Optional[Placement] = None
) -> Verdict:
    """Weak-register consistency of a single-event-call execution (crash
    events delimit eras; hb is the execution's primitive happens-before),
    after replaying a ``seed`` of the form :func:`weakreg_placed` gives."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    crashes = x.plain.crash_events()
    labels = [x.lab[e] for e in ids]
    if seed is not None:
        at = {e: i for i, e in enumerate(ids + crashes)}
        seed = [(at[e], CRASH if x.lab[e].is_crash else (x.lab[e], p)) for e, p in seed]
    hb = x.hb_order.restrict(ids)
    after = [sum(1 << k for k, c in enumerate(crashes) if (c, e) in x.po) for e in ids]
    before = [sum(1 << k for k, c in enumerate(crashes) if (e, c) in x.po) for e in ids]
    return _weakreg_linearize(labels, after, before, len(crashes), hb, with_pfence, budget, seed)


def weakreg_placed(x, w: WeakRegWitness) -> Placement:
    """The witness ``w`` of :func:`weakreg_consistent_execution` on ``x`` as
    its search placed it: per era the calls in volatile order, each with its
    persist choice, then the crash that ends the era."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    crashes, last = x.plain.crash_events(), len(w.lin) - 1
    out: Placement = []
    for k, lin in enumerate(w.lin):
        for i in lin:
            ended = any((ids[i], c) in x.po for c in crashes)
            out.append((ids[i], i in w.persisted[k] if ended and x.lab[ids[i]].method != "rread" else None))
        out += [(crashes[k], None)] if k < last else []
    return out


def check_weakreg_consistent(h: History, with_pfence: bool = False, budget: int = 500_000) -> Verdict:
    """Weak persistent register consistency of an SC history, on the
    history's own set-up."""
    calls = h.calls()
    crashes = [i for i, e in enumerate(h.events) if isinstance(e, CrashEv)]
    # a call precedes each crash after its invocation, and follows the others
    after = [(1 << bisect_right(crashes, c.inv_index)) - 1 for c in calls]
    before = [((1 << len(crashes)) - 1) & ~a for a in after]
    return _weakreg_linearize(calls, after, before, len(crashes), _returns_before_invokes(calls), with_pfence, budget)


def _weakreg_linearize(
    calls: Sequence, after: List[int], before: List[int], n_crashes: int, hb: Order, with_pfence: bool, budget: int,
    seed=None,
) -> Verdict:
    """One :func:`linearize` search over the calls ``0..n-1`` (history
    ``Call``s or execution ``Label``s) and the crash events, ``n+k`` ending
    era ``k``; ``after[i]`` and ``before[i]`` are the rows of the crashes
    po-before and po-after call ``i``.  A candidate is a call with its
    persist choice (``None`` for reads and for a call with no crash after
    it).  A state maps each location to its (volatile, persisted) value,
    and ``PFENCE`` to whether this era holds an unpersisted write; a crash
    makes the persisted values volatile.  Failed (placed mask, state) pairs
    are memoized.  Each call is filed under the number of crashes placed
    before it."""
    for c in calls:
        if c.method not in WEAKREG_METHODS:
            raise ValueError(f"not a weak-register call: {c!r}")
        if c.method == PFENCE and not with_pfence:
            raise ValueError("history uses PFENCE but the fence rule is disabled")
    n, last = len(calls), n_crashes
    # crash n+k follows every call po-before it and every earlier crash
    ends = [sum(1 << i for i in range(n) if before[i] >> k & 1) | ((1 << k) - 1) << n for k in range(last)]
    preds = list(hb.preds()) + ends
    options: List[List[object]] = []
    for i, c in enumerate(calls):
        preds[i] |= after[i] << n
        if not c.is_complete and c.method != "rwrite":
            options.append([])
            continue
        if not before[i] or c.method == "rread":
            persists = (None,)
        else:
            persists = (True,) if c.method == PFENCE else (True, False)
        options.append([(c, p) for p in persists])
    options += [[CRASH]] * last
    must = sum(1 << i for i, c in enumerate(calls) if c.is_complete) | ((1 << last) - 1) << n

    def step(st, cand):
        if cand is CRASH:
            return {loc: (vp[1], vp[1]) for loc, vp in st.items() if loc != PFENCE}
        c, persist = cand
        if c.method == "rread":
            return st if st.get(c.args[0], (0, 0))[0] == c.ret else None
        if c.method == PFENCE:
            return None if persist and st.get(PFENCE) else st
        loc, val = (c.ret, 0) if c.method == "rnew" else c.args
        st = dict(st)
        st[loc] = (val, val if persist else st.get(loc, (0, 0))[1])
        if persist is False and with_pfence and c.method == "rwrite":
            st[PFENCE] = True
        return st

    spec = SequentialSpec("weakreg k-sequentializations", dict, step)
    v = linearize(preds, options, must, spec, budget, "weakreg lin/nvo search", seed)
    if not v:
        return v
    placed = v.witness
    lin: List[List[int]] = [[] for _ in range(last + 1)]
    persisted: List[Set[int]] = [set() for _ in range(last + 1)]
    era = 0
    for i, cand in placed:
        if i >= n:
            era += 1
        else:
            lin[era].append(i)
            if cand[1]:
                persisted[era].add(i)
    mo = []
    for lin_i in lin:
        writes = [j for j in lin_i if calls[j].method == "rwrite"]
        mo += [(a, b) for a, b in itertools.combinations(writes, 2) if calls[a].args[0] == calls[b].args[0]]
    witness = WeakRegWitness(
        lin=tuple(map(tuple, lin)),
        nvo=tuple(tuple(j for j in lin_i if j in p) for lin_i, p in zip(lin, persisted)),
        persisted=tuple(map(frozenset, persisted)),
        mo=tuple(mo),
        completed_incomplete=frozenset(i for i, _ in placed if i < n and not calls[i].is_complete),
    )
    return replace(v, witness=witness)


# --------------------------------------------------------------------------
# The library checks as the replaced specs built them
# --------------------------------------------------------------------------


def _weakreg_check(x: Execution, seed: Optional[Placement]) -> Verdict:
    return weakreg_consistent_execution(x, with_pfence=True, budget=500_000, seed=seed)


def _durqueue_check(x: Execution, seed: Optional[Placement]) -> Verdict:
    return execution_linearizable(x, S_QUEUE_ALIASED, budget=200_000, seed=seed)


def _reg_lin_check(x: Execution, seed: Optional[Placement]) -> Verdict:
    if x.plain.crash_events():
        return Verdict.fail("crash in a Lin(S) execution")
    return execution_linearizable(x, S_REG_ABSTRACT, budget=200_000, seed=seed)


def _mmcounter_check(x: Execution, budget: int = 100_000, seed: Optional[Placement] = None) -> Verdict:
    def keep(l: Label, last: bool) -> str:
        if last:
            return "keep" if l.is_complete else "optional"
        if PTR_TAG in l.tags or l.method == "mmnew":
            return "keep" if l.is_complete else "optional"
        return "drop"

    return execution_linearizable(x, S_MMCOUNTER, keep=keep, budget=budget, seed=seed)


def _scmem_check(x: Execution, seed: Optional[Placement]) -> Verdict:
    return execution_linearizable(x, S_MEM, budget=200_000, seed=seed)


CHECKS = {
    "weakreg": Seeded(_weakreg_check, weakreg_placed),
    "durqueue": Seeded(_durqueue_check, lin_placed),
    "reg": Seeded(_reg_lin_check, lin_placed),
    "mmcounter": Seeded(_mmcounter_check, lin_placed),
    "scmem": Seeded(_scmem_check, lin_placed),
}


def specs(spec: LibrarySpec) -> LibrarySpec:
    """``spec`` with the reference check of its library."""
    return replace(spec, local_consistent=CHECKS[spec.name])
