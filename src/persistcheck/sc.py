"""SC-mode reference machinery.

Happens-before over histories, linearizability and durable linearizability
against sequential specifications, the sequential queue and register specs,
and the weak persistent register model: a volatile order per era, a persist
order per era, a shared per-location write order, and an optional PFENCE
rule.  Consistency of the weak register demands, for every k up to the
number of eras, a k-sequentialization (persisted prefixes of earlier eras in
persist order, era k in volatile order) accepted by the sequential register
spec.

:func:`linearizations` is the one search over orders of events: a lazy
generator of the sequences a spec accepts, whose budget counts candidates
tried, and :func:`linearize` takes its first.  Linearizability of histories
and of executions and weak-register consistency are each one such search,
and so are Flit's and Mirror's checks (``libs``) and the Px86 write orders
(``px86``).  A pending call is an optional event.  For the weak register
each crash is an event too, and each durable call of a non-last era is
offered persisted and not persisted, so one step function folds the
volatile and the persisted register state.  The eager
:func:`iter_completions` is kept as the reference the tests compare
linearizability with.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import BudgetExceeded, Verdict
from .model import BOT, CRASH, Call, CrashEv, History, Inv, Order, Ret

PFENCE = "pfence"

WEAKREG_METHODS = {"rnew": 0, "rwrite": 2, "rread": 1, PFENCE: 0}
QUEUE_METHODS = {"qnew": 0, "qpush": 2, "qpop": 1}


# --------------------------------------------------------------------------
# Happens-before
# --------------------------------------------------------------------------


def _returns_before_invokes(calls: Sequence[Call]) -> Order:
    """Call i before call j iff i returns before j is invoked, over calls in
    invocation order.  Such an interval order is transitive, and the calls
    invoked after i returns are a suffix of ``calls``, so each row is one mask."""
    starts = [c.start for c in calls]
    full = (1 << len(calls)) - 1
    return Order([full >> k << k for k in (bisect_right(starts, c.end) for c in calls)])


def happens_before(h: History) -> FrozenSet[Tuple[int, int]]:
    """(i, j) pairs of call indices with call i returning before call j is
    invoked.  Crash markers act as both invocation and return, but add no
    call-to-call edges beyond direct index comparison."""
    return _returns_before_invokes(h.calls()).pairs


# --------------------------------------------------------------------------
# Sequential specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SequentialSpec:
    """A recognizer over sequences, given as an initial state and a step
    function returning the next state or None (reject).  Sequences are of
    complete calls for a library's sequential semantics; a search may step
    other candidates (a call with its persist choice, a crash, an event id).
    A rejected prefix rejects all its extensions, so step-wise evaluation
    doubles as the pruning hook of :func:`linearizations`.  States are dicts
    with hashable values, which the search memoizes, so a state must hold
    everything the steps after it read."""

    name: str
    init: Callable[[], object]
    step: Callable[[object, Call], Optional[object]]

    def accepts(self, seq: Iterable[Call]) -> bool:
        st = self.init()
        for c in seq:
            st = self.step(st, c)
            if st is None:
                return False
        return True


def _queue_step(state, c: Call):
    # state: loc -> (pushes tuple, pop_count, seen_new)
    state = dict(state)
    if c.method == "qnew":
        x = c.ret
        if x in state:
            return None
        state[x] = ((), 0, True)
        return state
    x = c.args[0] if c.args else None
    if x not in state:
        return None  # New must come first on each location
    pushes, pops, _ = state[x]
    if c.method == "qpush":
        state[x] = (pushes + (c.args[1],), pops, True)
        return state
    if c.method == "qpop":
        expected = pushes[pops] if pops < len(pushes) else None
        if c.ret != expected:
            return None
        state[x] = (pushes, pops + (1 if expected is not None else 0), True)
        return state
    return None


S_QUEUE = SequentialSpec("queue", dict, _queue_step)


def _register_step(state, c: Call):
    state = dict(state)
    if c.method == "rnew":
        state[c.ret] = 0
        return state
    if c.method == PFENCE:
        return state
    x = c.args[0]
    if c.method == "rwrite":
        state[x] = c.args[1]
        return state
    if c.method == "rread":
        return state if c.ret == state.get(x, 0) else None
    return None


S_WEAKREG = SequentialSpec("weakreg", dict, _register_step)

#: Strong-register alias: the sequential behaviour is the same read-latest
#: rule; only the concurrent wrapper (Lin vs the weak model) differs.
S_REGISTER = SequentialSpec("register", dict, _register_step)


def s_queue(seq: Sequence[Call]) -> bool:
    return S_QUEUE.accepts(seq)


def s_weakreg(seq: Sequence[Call]) -> bool:
    return S_WEAKREG.accepts(seq)


# --------------------------------------------------------------------------
# Completions and truncations
# --------------------------------------------------------------------------


def mentioned_values(h: History) -> List:
    vals: List = []
    for e in h.events:
        if isinstance(e, Inv):
            vals.extend(e.args)
        elif isinstance(e, Ret) and e.value is not None:
            vals.append(e.value)
    return list(dict.fromkeys(vals + [0, None]))


#: Methods whose completions can only return null; completing them with any
#: other value yields histories no sequential spec distinguishes.
VOID_METHODS = frozenset({"rwrite", "qpush", "qappend", PFENCE})


def iter_completions(
    h: History, domain: Optional[Sequence] = None, limit: int = 6
) -> "Iterable[History]":
    """Lazily enumerate trunc(compl(h)): every incomplete call is either
    dropped or completed by a return appended at the end, with values drawn
    from the domain (null only, for void methods)."""
    calls = h.calls()
    incomplete = [c for c in calls if not c.is_complete]
    if len(incomplete) > limit:
        raise BudgetExceeded({"incomplete": len(incomplete), "limit": limit})
    domain = list(domain) if domain is not None else mentioned_values(h)
    choices: List[List[object]] = []
    for c in incomplete:
        opts: List[object] = [BOT]  # BOT marks "drop"
        if c.method in VOID_METHODS:
            opts.append(None)
        else:
            opts.extend(domain)
        choices.append(opts)
    seen = set()
    for combo in itertools.product(*choices):
        drop_invs = set()
        appended: List[Ret] = []
        for c, choice in zip(incomplete, combo):
            if choice is BOT:
                drop_invs.add(c.inv_index)
            else:
                appended.append(Ret(choice, c.thread))
        new_events = [e for i, e in enumerate(h.events) if i not in drop_invs]
        new_events.extend(appended)
        key = tuple(new_events)
        if key not in seen:
            seen.add(key)
            yield History(new_events)


def completions_and_truncations(
    h: History, domain: Optional[Sequence] = None, limit: int = 6
) -> List[History]:
    """trunc(compl(h)) as a finite enumeration."""
    return list(iter_completions(h, domain, limit))


# --------------------------------------------------------------------------
# Linearizability
# --------------------------------------------------------------------------


def era_preds(order: Order, eras: Sequence[int]) -> List[int]:
    """The predecessor masks of ``order``, each event also after every event
    of an earlier era: the ``preds`` of an era-monotone search."""
    return [p | sum(1 << j for j, ej in enumerate(eras) if ej < ei) for p, ei in zip(order.preds(), eras)]


def linearizations(
    preds: Sequence[int],
    options: Sequence[Sequence[object]],
    must: int,
    spec: SequentialSpec,
    budget: float,
    stats: dict,
) -> Iterator[List[Tuple[int, object]]]:
    """Depth-first search for the sequences in ``spec`` placing every event
    of the mask ``must`` and any others of ``0..n-1``, each at most once and
    as one of its candidates ``options[i]``, yielded as ``(event, candidate)``
    lists in lexicographic order (at each position the smallest event, then
    its first candidate).  An event is placeable once the ``must`` events of
    its predecessor mask ``preds[i]`` are placed; placing it drops its
    unplaced predecessors, and a sequence ends once ``must`` is placed.
    (Placed-or-dropped mask, spec state) pairs whose subtree yielded nothing
    are memoized as failed (Wing & Gong 1993; Lowe 2017).  ``stats``, which
    names the ``stage``, counts ``nodes`` (candidates tried, one budget unit
    each) and ``memo_hits``; past the budget, ``BudgetExceeded`` carries it."""
    stats.update(nodes=0, memo_hits=0)
    failed = set()
    lin: List[Tuple[int, object]] = []
    yielded = [0]

    def rec(done: int, st) -> Iterator[List[Tuple[int, object]]]:
        if done & must == must:
            yielded[0] += 1
            yield list(lin)
            return
        key = (done, frozenset(st.items()))
        if key in failed:
            stats["memo_hits"] += 1
            return
        before = yielded[0]
        for i, cands in enumerate(options):
            if done >> i & 1 or preds[i] & must & ~done:
                continue
            for c in cands:
                stats["nodes"] += 1
                if stats["nodes"] > budget:
                    raise BudgetExceeded(stats)
                nxt = spec.step(st, c)
                if nxt is not None:
                    lin.append((i, c))
                    yield from rec(done | 1 << i | preds[i], nxt)
                    lin.pop()
        if yielded[0] == before:
            failed.add(key)

    return rec(0, spec.init())


def linearize(
    preds: Sequence[int], options: Sequence[Sequence[object]], must: int, spec: SequentialSpec, budget: int, stage: str
):
    """The first of :func:`linearizations`: ``(lin, stats)``, the placed
    ``(event, candidate)`` pairs or ``None``, and the search's stats."""
    stats = {"stage": stage}
    return next(linearizations(preds, options, must, spec, budget, stats), None), stats


#: The spec that accepts every sequence: with it :func:`linearizations`
#: enumerates the linear extensions of an order.
ANY_ORDER = SequentialSpec("any order", dict, lambda st, c: st)


def check_linearizable(
    h: History,
    spec: SequentialSpec,
    domain: Optional[Sequence] = None,
    budget: int = 200_000,
) -> Verdict:
    """Some sequentialization of h belongs to the sequential spec: one
    :func:`linearize` search in which a pending call may be left out or placed
    with any return (null for ``VOID_METHODS``, else a ``domain`` value).  The
    budget counts candidate calls tried."""
    if h.crash_count():
        raise ValueError("linearizability is defined on crash-free histories")
    calls = h.calls()
    domain = list(domain) if domain is not None else mentioned_values(h)
    options = [
        [c] if c.is_complete else [replace(c, ret=r) for r in ([None] if c.method in VOID_METHODS else domain)]
        for c in calls
    ]
    must = sum(1 << i for i, c in enumerate(calls) if c.is_complete)
    preds = _returns_before_invokes(calls).preds()
    try:
        lin, stats = linearize(preds, options, must, spec, budget, "linearization search")
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if lin is None:
        return Verdict.fail(f"no sequentialization in {spec.name}", stats=stats)
    return Verdict.ok(witness=[c for _, c in lin], stats=stats)


def check_durably_linearizable(
    h: History,
    spec: SequentialSpec,
    domain: Optional[Sequence] = None,
    budget: int = 200_000,
) -> Verdict:
    """Linearizability of ops(h): crash markers removed, completed calls kept."""
    return check_linearizable(h.ops(), spec, domain, budget)


# --------------------------------------------------------------------------
# Weak persistent registers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakRegWitness:
    """Volatile orders, persist orders, persisted sets, and the induced
    per-location write order, one entry per era (global call indices).
    Each persist order ``nvo_i`` is ``P_i`` in volatile order, a persist
    order that keeps ``mo`` and puts fenced writes before their fence."""

    lin: Tuple[Tuple[int, ...], ...]
    nvo: Tuple[Tuple[int, ...], ...]
    persisted: Tuple[FrozenSet[int], ...]
    mo: Tuple[Tuple[int, int], ...]
    completed_incomplete: FrozenSet[int]

    def to_json_dict(self) -> dict:
        return {
            "lin": [list(era) for era in self.lin],
            "nvo": [list(era) for era in self.nvo],
            "P": [sorted(p) for p in self.persisted],
            "mo": sorted(map(list, self.mo)),
            "took_effect_incomplete": sorted(self.completed_incomplete),
        }


def check_weakreg_consistent(
    h: History, with_pfence: bool = False, budget: int = 500_000
) -> Verdict:
    """Weak persistent register consistency of an SC history.

    Searches for per-era volatile orders lin_i (extending happens-before) and
    persisted durable subsets P_i such that for every k ≤ #eras the sequence
    P_1·…·P_{k-1}·lin_k belongs to the sequential register spec, each P_i in
    its persist order nvo_i: P_i in volatile order, which keeps the shared
    per-location write order mo.  With the fence rule enabled, writes
    volatile-ordered before an executed PFENCE must persist before it.

    One :func:`linearize` search decides it.  Each crash is an event that
    follows every call of the earlier eras; a durable call (``rnew``,
    ``rwrite``) of a non-last era is placed persisted or not, and a fence
    persisted.  Incomplete writes may take effect and may persist (both
    searched); incomplete reads, news, and fences are truncated (their
    inclusion never enables additional behaviour).  The budget counts
    candidate calls tried.
    """
    calls = h.calls()
    crashes = [i for i, e in enumerate(h.events) if isinstance(e, CrashEv)]
    era = [bisect_right(crashes, c.inv_index) for c in calls]
    return _weakreg_linearize(calls, era, len(crashes) + 1, _returns_before_invokes(calls), with_pfence, budget)


def weakreg_consistent_execution(x, with_pfence: bool = False, budget: int = 500_000) -> Verdict:
    """Weak-register consistency of a single-event-call execution (crash
    events delimit eras; hb is the execution's primitive happens-before)."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    idx = {e: i for i, e in enumerate(ids)}
    calls = []
    for e in ids:
        l = x.lab[e]
        calls.append(Call(l.method, l.args, l.ret, l.thread, l.tags, idx[e], None if l.ret is BOT else idx[e]))
    era_of = x.plain.era_of()
    n_eras = len(x.plain.crash_events()) + 1
    return _weakreg_linearize(calls, [era_of[e] for e in ids], n_eras, x.hb_order.restrict(ids), with_pfence, budget)


def _weakreg_linearize(
    calls: List[Call], era: List[int], n_eras: int, hb: Order, with_pfence: bool, budget: int
) -> Verdict:
    """One :func:`linearize` search over the calls ``0..n-1`` and the crash
    events, ``n+k`` ending era ``k``.  A candidate is a call with its persist
    choice (``None`` in the last era and for reads).  A state maps each
    location to its (volatile, persisted) value, and ``PFENCE`` to whether
    this era holds an unpersisted write; a crash makes the persisted values
    volatile.  Failed (placed mask, state) pairs are memoized."""
    for c in calls:
        if c.method not in WEAKREG_METHODS:
            raise ValueError(f"not a weak-register call: {c!r}")
        if c.method == PFENCE and not with_pfence:
            raise ValueError("history uses PFENCE but the fence rule is disabled")
    n, last = len(calls), n_eras - 1
    # crash n+k follows every call of eras ≤ k and every earlier crash
    preds = hb.preds() + [sum(1 << i for i in range(n) if era[i] <= k) | ((1 << k) - 1) << n for k in range(last)]
    options: List[List[object]] = []
    for i, c in enumerate(calls):
        if era[i]:
            preds[i] |= 1 << (n + era[i] - 1)
        if not c.is_complete and c.method != "rwrite":
            options.append([])
            continue
        c = c if c.is_complete else replace(c, ret=None)
        if era[i] == last or c.method == "rread":
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
    try:
        placed, stats = linearize(preds, options, must, spec, budget, "weakreg lin/nvo search")
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if placed is None:
        return Verdict.fail("no k-sequentialization family exists", stats=stats)
    lin: List[List[int]] = [[] for _ in range(n_eras)]
    persisted: List[Set[int]] = [set() for _ in range(n_eras)]
    for i, cand in placed:
        if i < n:
            lin[era[i]].append(i)
            if cand[1]:
                persisted[era[i]].add(i)
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
    return Verdict.ok(witness, stats=stats)
