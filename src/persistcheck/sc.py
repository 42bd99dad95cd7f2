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
tried, and :func:`linearize` turns its first into a ``Verdict``.
Linearizability of histories and of executions and weak-register
consistency are each one such search, and so are Flit's and Mirror's
checks (``libs``) and the Px86 write orders (``px86``).  Every library
search reads the execution's own event ids, and a history's weak-register
check is the execution check on ``history_to_execution(h)``, whose event
ids are the history's call indices.  A pending call is an optional event
with its return left open (⊥): the spec's step gives it the return its
state holds, so no value domain is guessed, and one whose step keeps the
state is never placed.  For the weak register each
crash ends its era with one more event, and each durable call with a crash
po-after it is offered persisted and not persisted, so one step function
folds the volatile and the persisted register state.  The eager
:func:`iter_completions`, with the value domain of :func:`mentioned_values`
and the null returns of ``VOID_METHODS``, is kept as the reference the
tests compare linearizability with.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .framework import BudgetExceeded, Verdict
from .model import BOT, CRASH, Call, History, Inv, Label, Order, Ret, _transpose, history_to_execution

PFENCE = "pfence"

#: Placed ``(event, choice)`` pairs, in the order a search placed them.
Placement = List[Tuple[int, object]]

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


#: What a sequential step reads ``method``, ``args``, ``ret`` and
#: ``is_complete`` of.
CallLike = Union[Call, Label]


@dataclass(frozen=True)
class SequentialSpec:
    """A recognizer over sequences, given as an initial state and a step
    function returning the next state or None (reject).  Sequences are of
    calls for a library's sequential semantics: a step reads only the
    ``method``, ``args`` and ``ret`` (and ``is_complete``) of a history
    ``Call`` or an execution ``Label``, so both are stepped as they are.  A
    search may step other candidates (a call with its persist choice, a
    crash, an event id).  A call whose return is ⊥ (``BOT``, a pending call)
    takes the return its state gives: a step accepts ⊥ wherever it would
    accept some return, so a step that checks ``c.ret`` reads
    ``c.ret is BOT or c.ret == ...``.  A pending constructor names no
    location, so its step keeps the state.
    A rejected prefix rejects all its extensions, so step-wise evaluation
    doubles as the pruning hook of :func:`linearizations`.  States are dicts
    with hashable values, which the search memoizes and compares, so a state
    must hold everything the steps after it read."""

    name: str
    init: Callable[[], object]
    step: Callable[[object, CallLike], Optional[object]]

    def accepts(self, seq: Iterable[CallLike]) -> bool:
        st = self.init()
        for c in seq:
            st = self.step(st, c)
            if st is None:
                return False
        return True


def _queue_step(state, c: CallLike, push_methods=("qpush",)):
    # state: loc -> (pushes tuple, pop_count, seen_new); push_methods push
    state = dict(state)
    if c.method == "qnew":
        x = c.ret
        if x is BOT:
            return state
        if x in state:
            return None
        state[x] = ((), 0, True)
        return state
    x = c.args[0] if c.args else None
    if x not in state:
        return None  # New must come first on each location
    pushes, pops, _ = state[x]
    if c.method in push_methods:
        state[x] = (pushes + (c.args[1],), pops, True)
        return state
    if c.method == "qpop":
        expected = pushes[pops] if pops < len(pushes) else None
        if not (c.ret is BOT or c.ret == expected):
            return None
        state[x] = (pushes, pops + (1 if expected is not None else 0), True)
        return state
    return None


S_QUEUE = SequentialSpec("queue", dict, _queue_step)


def _register_step(state, c: CallLike):
    state = dict(state)
    if c.method == "rnew":
        if c.ret is not BOT:
            state[c.ret] = 0
        return state
    if c.method == PFENCE:
        return state
    x = c.args[0]
    if c.method == "rwrite":
        state[x] = c.args[1]
        return state
    if c.method == "rread":
        return state if c.ret is BOT or c.ret == state.get(x, 0) else None
    return None


S_WEAKREG = SequentialSpec("weakreg", dict, _register_step)

#: Strong-register alias: the sequential behaviour is the same read-latest
#: rule; only the concurrent wrapper (Lin vs the weak model) differs.
S_REGISTER = SequentialSpec("register", dict, _register_step)


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


def linearizations(
    preds: Sequence[int],
    options: Sequence[Sequence[object]],
    must: int,
    spec: SequentialSpec,
    budget: float,
    stats: dict,
    succs: Optional[Sequence[int]] = None,
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
    each) and ``memo_hits``; past the budget, ``BudgetExceeded`` carries it.

    A candidate of an event outside ``must`` whose step keeps the state (a
    pending read, a pending constructor) is tried but never placed.  Placing
    it would leave ``must`` as far from placed as before and only drop it
    and its unplaced predecessors, which the branch that leaves it out still
    holds: each sequence below it, less it, is yielded without it.  So the
    search yields, in order, exactly the sequences that place no such
    candidate, and finds a sequence whenever one exists.

    The search is one generator with an explicit stack of open nodes.  A
    node scans the unplaced events that have a candidate (the set bits of
    ``live & ~done``), in ascending order.  For an event ``p`` of ``must``,
    ``succs[p]`` holds successors of ``p``: of its bits, those of events
    with a candidate must be events ``j`` with ``p`` in ``preds[j]`` (the
    converse of ``preds``, the default, or less).  When the scan meets an
    event with an unplaced ``must`` predecessor, it takes the lowest such,
    ``p``, and drops ``succs[p]`` from the rest of the node's scan: each of
    them waits for ``p`` too, and ``p`` is not placed at this node.  So a
    node skips a blocked event's successors in one step, and tries exactly
    the candidates it tried when it tested each of them.  The counters are
    kept in locals and written to ``stats`` at each yield and when the
    search ends, whether it is exhausted, closed or raises."""
    stats.update(nodes=0, memo_hits=0)
    live = sum(1 << i for i, cands in enumerate(options) if cands)
    must_preds = [p & must for p in preds]
    if succs is None:
        succs = _transpose(preds)
    step = spec.step

    def search() -> Iterator[List[Tuple[int, object]]]:
        nodes = memo_hits = yielded = 0
        failed = set()
        lin: List[Tuple[int, object]] = []
        # the open nodes below the current one, each suspended at its event
        # i and the next candidate k of cands
        stack = []
        st = spec.init()
        try:
            if not must:
                yield []
                return
            key, before, done, rest, cands, k = (0, frozenset(st.items())), 0, 0, live, (), 0
            while True:
                # on to the next placeable event of rest once cands is tried
                while k == len(cands) and rest:
                    low = rest & -rest
                    rest ^= low
                    i = low.bit_length() - 1
                    blocked = must_preds[i] & ~done
                    if blocked:
                        rest &= ~succs[(blocked & -blocked).bit_length() - 1]
                    else:
                        cands, k = options[i], 0
                if k == len(cands):
                    # every candidate of the current node is tried
                    if yielded == before:
                        failed.add(key)
                    if not stack:
                        return
                    key, before, done, st, rest, i, cands, k = stack.pop()
                    lin.pop()
                    continue
                c = cands[k]
                k += 1
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded({**stats, "nodes": nodes, "memo_hits": memo_hits})
                nxt = step(st, c)
                if nxt is None or not must >> i & 1 and nxt == st:
                    continue
                placed = done | 1 << i | preds[i]
                if placed & must == must:
                    yielded += 1
                    stats["nodes"], stats["memo_hits"] = nodes, memo_hits
                    yield lin + [(i, c)]
                    continue
                child = (placed, frozenset(nxt.items()))
                if child in failed:
                    memo_hits += 1
                    continue
                lin.append((i, c))
                stack.append((key, before, done, st, rest, i, cands, k))
                key, before, done, st, rest, cands, k = child, yielded, placed, nxt, live & ~placed, (), 0
        finally:
            stats["nodes"], stats["memo_hits"] = nodes, memo_hits

    return search()


def linearize(
    preds: Sequence[int], options: Sequence[Sequence[object]], must: int, spec: SequentialSpec, budget: int, stage: str,
    seed: Optional[Placement] = None,
    succs: Optional[Sequence[int]] = None,
) -> Verdict:
    """The first of :func:`linearizations` as a verdict with the search's
    stats: OK with the placed ``(event, candidate)`` pairs as witness, FAIL
    when ``spec`` accepts no sequence, or budget-exceeded.  A witness the
    search finds places no optional event whose step keeps the state, and
    the verdict is the one a search that placed such events would give.

    Such pairs given as ``seed`` are replayed first by the search's rules
    (each event placeable, each candidate one of its ``options``, each step
    accepted) up to the pair that places ``must``.  A seed that replays is a
    witness: the verdict is OK, its stats of stage ``replay`` count one node
    per pair, and no budget bounds them.  Otherwise the search runs, with
    ``succs`` as :func:`linearizations` takes it."""
    if seed is not None:
        done, st, placed = 0, spec.init(), []
        for i, c in seed:
            if done & must == must or done >> i & 1 or preds[i] & must & ~done or c not in options[i]:
                break
            st = spec.step(st, c)
            if st is None:
                break
            placed.append((i, c))
            done |= 1 << i | preds[i]
        if done & must == must:
            return Verdict.ok(witness=placed, stats={"stage": "replay", "nodes": len(placed), "memo_hits": 0})
    stats = {"stage": stage}
    try:
        lin = next(linearizations(preds, options, must, spec, budget, stats, succs), None)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if lin is None:
        return Verdict.fail(f"no linearization into {spec.name}", stats=stats)
    return Verdict.ok(witness=lin, stats=stats)


#: The spec that accepts every sequence: with it :func:`linearizations`
#: enumerates the linear extensions of an order.
ANY_ORDER = SequentialSpec("any order", dict, lambda st, c: st)


def check_linearizable(h: History, spec: SequentialSpec, budget: int = 200_000) -> Verdict:
    """Some sequentialization of h belongs to the sequential spec: one
    :func:`linearize` search in which a pending call may be left out or
    placed with its return open, so it takes the return the spec's state
    gives (Herlihy & Wing 1990).  A pending call whose step keeps the state,
    such as a read or a constructor, is left out: placing it enables no call
    that leaving it out does not, so no verdict changes.  The witness lists
    the placed calls, a pending one with return ⊥.  The budget counts
    candidate calls tried, one per call."""
    if h.crash_count():
        raise ValueError("linearizability is defined on crash-free histories")
    calls = h.calls()
    must = sum(1 << i for i, c in enumerate(calls) if c.is_complete)
    order = _returns_before_invokes(calls)
    v = linearize(order.preds(), [[c] for c in calls], must, spec, budget, "linearization search", succs=order.rows)
    return replace(v, witness=[c for _, c in v.witness]) if v else v


def check_durably_linearizable(h: History, spec: SequentialSpec, budget: int = 200_000) -> Verdict:
    """Linearizability of ops(h): crash markers removed, completed calls kept."""
    return check_linearizable(h.ops(), spec, budget)


# --------------------------------------------------------------------------
# Weak persistent registers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakRegWitness:
    """Volatile orders, persist orders, persisted sets, and the induced
    per-location write order, one entry per era, in event ids (a history's
    call indices).  Each persist order ``nvo_i`` is ``P_i`` in volatile
    order, a persist order that keeps ``mo`` and puts fenced writes before
    their fence."""

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
    """Weak persistent register consistency of an SC history: the check of
    :func:`weakreg_consistent_execution` on ``history_to_execution(h)``,
    whose event ids are the history's call indices.

    Searches for per-era volatile orders lin_i (extending happens-before) and
    persisted durable subsets P_i such that for every k ≤ #eras the sequence
    P_1·…·P_{k-1}·lin_k belongs to the sequential register spec, each P_i in
    its persist order nvo_i: P_i in volatile order, which keeps the shared
    per-location write order mo.  With the fence rule enabled, writes
    volatile-ordered before an executed PFENCE must persist before it.
    Incomplete writes may take effect and may persist (both searched);
    incomplete reads, news, and fences are truncated (their inclusion never
    enables additional behaviour).
    """
    return weakreg_consistent_execution(history_to_execution(h), with_pfence, budget)


def weakreg_consistent_execution(
    x,
    with_pfence: bool = False,
    budget: int = 500_000,
    seed: Optional[Tuple[int, WeakRegWitness]] = None,
    mask: Optional[int] = None,
) -> Verdict:
    """Weak-register consistency of a single-event-call execution (crash
    events delimit eras; hb is the execution's primitive happens-before).
    It decides the projection on ``mask`` (default: every event), as
    ``framework.Seeded`` states, in ``x``'s own ids; the crashes of
    ``mask`` end its eras in id order.  A ``seed`` ``(other, w)``, an OK
    witness of this check on the projection on ``other``, is replayed
    first as its search placed it: per era of ``w`` the calls of ``mask``
    in volatile order, each with the persist choice it had on ``other``,
    then the end of the era when ``mask`` holds the crash that ends it.

    One :func:`linearize` search decides it, over the calls of ``mask`` and
    one event per crash: ``n+k`` (``n = len(x)``) ends era ``k``, after
    every call po-before the ``k``-th crash and every earlier crash, and
    before every call po-after that crash.  A candidate is a call with its
    persist choice: ``None`` for a read and for a call with no crash
    po-after it, persisted for a fence, persisted or not for ``rnew`` and
    ``rwrite``.  A state maps each location to its (volatile, persisted)
    value, and ``PFENCE`` to whether this era holds an unpersisted write; a
    crash makes the persisted values volatile.  Failed (placed mask, state)
    pairs are memoized.  The budget counts candidate calls tried, and the
    witness files each call under the number of crashes placed before it."""
    n, lab, po = len(x), x.lab, x.plain.po_order.rows
    mask = (1 << n) - 1 if mask is None else mask
    crashes = [c for c in x.plain.crash_events() if mask >> c & 1]
    last = len(crashes)
    calls = [lab[e] if mask >> e & 1 and not lab[e].is_crash else None for e in x.events]
    called = [i for i, c in enumerate(calls) if c is not None]
    for i in called:
        if calls[i].method not in WEAKREG_METHODS:
            raise ValueError(f"not a weak-register call: {calls[i]!r}")
        if calls[i].method == PFENCE and not with_pfence:
            raise ValueError("history uses PFENCE but the fence rule is disabled")
    members = sum(1 << i for i in called)
    if seed is not None:
        other, w = seed
        ended = [c for c in x.plain.crash_events() if other >> c & 1]
        other_ends, end = sum(1 << c for c in ended), {c: n + k for k, c in enumerate(crashes)}
        seed = []
        for k, era in enumerate(w.lin):
            seed += [
                (e, (lab[e], None if not po[e] & other_ends or lab[e].method == "rread" else e in w.persisted[k]))
                for e in era
                if mask >> e & 1
            ]
            if k < len(ended) and mask >> ended[k] & 1:
                seed.append((end[ended[k]], CRASH))
    preds = [p & members for p in x.hb_order.preds()]
    preds += [((1 << k) - 1) << n for k in range(last)]
    # the converse of preds on the events with a candidate: hb, and the
    # later era ends and calls after its crash for an era end
    succs = list(x.hb_order.rows) + [((1 << last) - 1) >> (k + 1) << (n + k + 1) for k in range(last)]
    for k, c in enumerate(crashes):
        for i in called:
            if po[i] >> c & 1:
                preds[n + k] |= 1 << i
            elif po[c] >> i & 1:
                preds[i] |= 1 << (n + k)
                succs[n + k] |= 1 << i
    ends = sum(1 << c for c in crashes)
    options: List[Sequence[object]] = []
    for i, c in enumerate(calls):
        if c is None or not c.is_complete and c.method != "rwrite":
            options.append(())
            continue
        if not po[i] & ends or c.method == "rread":
            persists = (None,)
        else:
            persists = (True,) if c.method == PFENCE else (True, False)
        options.append([(c, p) for p in persists])
    options += [[CRASH]] * last
    must = sum(1 << i for i in called if calls[i].is_complete) | ((1 << last) - 1) << n

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
    v = linearize(preds, options, must, spec, budget, "weakreg lin/nvo search", seed, succs)
    if not v:
        return v
    placed = v.witness
    lin: List[List[int]] = [[]]
    persisted: List[Set[int]] = [set()]
    for i, cand in placed:
        if i >= n:
            lin.append([])
            persisted.append(set())
            continue
        lin[-1].append(i)
        if cand[1]:
            persisted[-1].add(i)
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

