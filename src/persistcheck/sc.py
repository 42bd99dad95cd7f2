"""SC-mode reference machinery.

Happens-before over histories, linearizability and durable linearizability
against sequential specifications, the sequential queue and register specs,
and the weak persistent register model: a volatile order per era, a persist
order per era, a shared per-location write order, and an optional PFENCE
rule.  Consistency of the weak register demands, for every k up to the
number of eras, a k-sequentialization (persisted prefixes of earlier eras in
persist order, era k in volatile order) accepted by the sequential register
spec.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .framework import BudgetExceeded, Verdict, linear_extensions
from .model import BOT, Call, History, Inv, Order, Ret

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
    """A recognizer over sequences of complete calls, given as an initial
    state and a step function returning the next state or None (reject).
    A rejected prefix rejects all its extensions, so step-wise evaluation
    doubles as the pruning hook for linearization search."""

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
    out = []
    for v in vals + [0, None]:
        if v not in out:
            out.append(v)
    return out


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


def check_linearizable(
    h: History,
    spec: SequentialSpec,
    domain: Optional[Sequence] = None,
    budget: int = 200_000,
) -> Verdict:
    """Some sequentialization of h belongs to the sequential spec."""
    if h.crash_count():
        raise ValueError("linearizability is defined on crash-free histories")
    remaining = [budget]
    try:
        for hh in iter_completions(h, domain):
            calls = hh.calls()
            for lin in linear_extensions(
                _returns_before_invokes(calls),
                step=lambda st, i: spec.step(st, calls[i]),
                state=spec.init(),
                budget=remaining,
                stage="linearization search",
            ):
                return Verdict.ok(witness=[calls[i] for i in lin])
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    return Verdict.fail(f"no sequentialization in {spec.name}")


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
    per-location write order, one entry per era (global call indices)."""

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


def _is_write(c: Call) -> bool:
    return c.method == "rwrite"


def _is_fence(c: Call) -> bool:
    return c.method == PFENCE


def _is_new(c: Call) -> bool:
    return c.method == "rnew"


def _durable(c: Call) -> bool:
    return _is_write(c) or _is_new(c) or _is_fence(c)


def _complete_call(c: Call) -> Call:
    if c.is_complete:
        return c
    return Call(c.method, c.args, None, c.thread, c.tags, c.inv_index, None)


def check_weakreg_consistent(
    h: History, with_pfence: bool = False, budget: int = 500_000
) -> Verdict:
    """Weak persistent register consistency of an SC history.

    Searches for per-era volatile orders lin_i (extending happens-before),
    persisted durable subsets P_i with persist orders nvo_i, such that for
    every k ≤ #eras the sequence P_1·…·P_{k-1}·lin_k belongs to the
    sequential register spec.  Same-location writes must be ordered the same
    way by lin and nvo (the shared mo).  With the fence rule enabled, writes
    volatile-ordered before an executed PFENCE must persist before it.

    Incomplete writes may take effect and may persist (both searched);
    incomplete reads, news, and fences are truncated (their inclusion never
    enables additional behaviour).
    """
    calls = h.calls()
    hb = _returns_before_invokes(calls)
    eras_hist = h.eras()
    era_calls: List[List[int]] = []
    seen = 0
    for ehist in eras_hist:
        k = len(ehist.calls())
        era_calls.append(list(range(seen, seen + k)))
        seen += k
    return _weakreg_search(calls, era_calls, hb, with_pfence, budget)


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
    era_calls = [[] for _ in range(n_eras)]
    for e in ids:
        era_calls[era_of[e]].append(idx[e])
    return _weakreg_search(calls, era_calls, x.hb_order.restrict(ids), with_pfence, budget)


def _weakreg_search(
    calls: List[Call],
    era_calls: List[List[int]],
    hb: Order,
    with_pfence: bool,
    budget: int,
) -> Verdict:
    for c in calls:
        if c.method not in WEAKREG_METHODS:
            raise ValueError(f"not a weak-register call: {c!r}")
        if _is_fence(c) and not with_pfence:
            raise ValueError("history uses PFENCE but the fence rule is disabled")
    n = len(era_calls)
    counter = [budget]
    stage = "weakreg lin/nvo search"

    def wloc(j):
        c = calls[j]
        return c.ret if _is_new(c) else c.args[0]

    def era_options(i: int, need_persist: bool):
        """(A, lin, P, nvo) choices for era i, deterministically ordered."""
        idxs = era_calls[i]
        complete = [j for j in idxs if calls[j].is_complete]
        inc_writes = [j for j in idxs if not calls[j].is_complete and _is_write(calls[j])]
        for included in itertools.chain.from_iterable(
            itertools.combinations(inc_writes, r) for r in range(len(inc_writes) + 1)
        ):
            a_set = sorted(set(complete) | set(included))
            for ext in linear_extensions(hb.restrict(a_set), budget=counter, stage=stage):
                lin_i = [a_set[k] for k in ext]
                pos = {j: p for p, j in enumerate(lin_i)}
                if not need_persist:
                    yield a_set, lin_i, frozenset(), ()
                    continue
                durable = [j for j in lin_i if _durable(calls[j])]
                required: Set[int] = set()
                if with_pfence:
                    for f in lin_i:
                        if not _is_fence(calls[f]):
                            continue
                        required.add(f)
                        for w in lin_i:
                            if _is_write(calls[w]) and pos[w] < pos[f]:
                                required.add(w)
                optional = [j for j in durable if j not in required]
                for extra in itertools.chain.from_iterable(
                    itertools.combinations(optional, r) for r in range(len(optional) + 1)
                ):
                    p_set = frozenset(required | set(extra))
                    members = [j for j in lin_i if j in p_set]
                    # nvo constraints: per-location write order follows lin
                    # (allocation acts as the initial-value write), and
                    # fenced writes persist before their fence
                    nvo_pairs: Set[Tuple[int, int]] = set()
                    ws = [j for j in members if _is_write(calls[j]) or _is_new(calls[j])]
                    for a, b in itertools.combinations(ws, 2):
                        if wloc(a) == wloc(b):
                            nvo_pairs.add((a, b) if pos[a] < pos[b] else (b, a))
                    if with_pfence:
                        for f in members:
                            if not _is_fence(calls[f]):
                                continue
                            for w in a_set:
                                if _is_write(calls[w]) and pos[w] < pos[f]:
                                    if w not in p_set:
                                        nvo_pairs = None  # unsatisfiable
                                        break
                                    nvo_pairs.add((w, f))
                            if nvo_pairs is None:
                                break
                    if nvo_pairs is None:
                        continue
                    # one linear extension suffices: persisted contributions
                    # hold no reads, so any k-sequentialization verdict only
                    # depends on the per-location last persisted write, which
                    # mo pins identically in every extension
                    ordered = sorted(members)
                    ix = {j: k for k, j in enumerate(ordered)}
                    nvo = Order.close(len(ordered), [(ix[a], ix[b]) for a, b in nvo_pairs])
                    for nvo_ext in linear_extensions(nvo, budget=counter, stage=stage):
                        yield a_set, lin_i, p_set, tuple(ordered[k] for k in nvo_ext)
                        break

    def seq_for(indices: Iterable[int]) -> List[Call]:
        return [_complete_call(calls[j]) for j in indices]

    def search(i: int, chosen: List[Tuple[List[int], List[int], FrozenSet[int], Tuple[int, ...]]]):
        if i == n:
            return list(chosen)
        need_persist = i < n - 1
        for opt in era_options(i, need_persist):
            chosen.append(opt)
            # check k = i+1 now: persisted prefixes of eras < i+1 then lin_{i+1}
            seq: List[Call] = []
            for a_set, lin_j, p_j, nvo_j in chosen[:-1]:
                seq.extend(seq_for(nvo_j))
            seq.extend(seq_for(chosen[-1][1]))
            if S_WEAKREG.accepts(seq):
                res = search(i + 1, chosen)
                if res is not None:
                    return res
            chosen.pop()
        return None

    try:
        found = search(0, [])
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if found is None:
        return Verdict.fail("no k-sequentialization family exists")
    lin = tuple(tuple(o[1]) for o in found)
    nvo = tuple(tuple(o[3]) for o in found)
    persisted = tuple(frozenset(o[2]) for o in found)
    completed = frozenset(
        j for o in found for j in o[0] if not calls[j].is_complete
    )
    mo: List[Tuple[int, int]] = []
    for o in found:
        pos = {j: p for p, j in enumerate(o[1])}
        ws = [j for j in o[1] if _is_write(calls[j])]
        for a, b in itertools.combinations(ws, 2):
            if calls[a].args[0] == calls[b].args[0]:
                mo.append((a, b) if pos[a] < pos[b] else (b, a))
    return Verdict.ok(WeakRegWitness(lin, nvo, persisted, tuple(mo), completed))
