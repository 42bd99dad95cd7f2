"""Crash-aware events, histories, pomsets, and executions.

Two granularities coexist:

* SC histories (``History``): finite sequences of invocation / return /
  crash events with per-thread alternation, as in the classic
  linearizability setting.
* Executions (``PlainExecution`` / ``Execution``): pomsets of single-event
  method calls plus crash markers, with program order ``po`` and, for full
  executions, synchronizes-with ``sw`` and happens-before ``hb``.

Everything here is immutable after construction and safe to share across
threads.  Event identities are opaque dense integers; pomsets are identified
up to label-preserving order-isomorphism, with a bounded isomorphism check
for inputs of at most ``ISO_LIMIT`` events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

ISO_LIMIT = 64

Edge = Tuple[int, int]
Relation = FrozenSet[Edge]


class _Bot:
    """The missing-return marker (distinct from the null value ``None``)."""

    _instance: Optional["_Bot"] = None

    def __new__(cls) -> "_Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):
        return (_Bot, ())


#: Sentinel for "no return value yet".  ``None`` is the ordinary null value.
BOT = _Bot()


# --------------------------------------------------------------------------
# Labels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    """A single-event method call, or a crash marker (``method is None``).

    A call with ``ret is BOT`` is incomplete; crash labels carry no method,
    arguments, return, tags, or thread.
    """

    method: Optional[str]
    args: Tuple = ()
    ret: object = BOT
    tags: FrozenSet[str] = frozenset()
    thread: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        object.__setattr__(self, "args", tuple(self.args))
        if self.method is None:
            if self.args or self.ret is not BOT or self.tags or self.thread is not None:
                raise ValueError("crash labels carry no payload")

    @property
    def is_crash(self) -> bool:
        return self.method is None

    @property
    def is_call(self) -> bool:
        return self.method is not None

    @property
    def is_complete(self) -> bool:
        """Crashes count as complete; calls are complete once they returned."""
        return self.is_crash or self.ret is not BOT

    def with_tags(self, tags: Iterable[str]) -> "Label":
        return replace(self, tags=self.tags | frozenset(tags))

    def __repr__(self) -> str:
        if self.is_crash:
            return "Crash"
        a = ",".join(repr(x) for x in self.args)
        r = "" if self.ret is BOT else f":{self.ret!r}"
        t = "" if not self.tags else "^" + "{" + ",".join(sorted(self.tags)) + "}"
        th = "" if self.thread is None else f"@t{self.thread}"
        return f"{self.method}({a}){r}{t}{th}"


CRASH = Label(method=None)

#: Label of anonymized foreign events (spec-framework global specifications).
STAR = "⋆"


def star(tags: Iterable[str], thread: Optional[int] = None) -> Label:
    return Label(STAR, (), None, frozenset(tags), thread)


# --------------------------------------------------------------------------
# SC histories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Inv:
    method: str
    args: Tuple = ()
    thread: int = 0
    tags: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        a = ",".join(repr(x) for x in self.args)
        return f"{self.method}({a})_t{self.thread}"


@dataclass(frozen=True)
class Ret:
    value: object = None
    thread: int = 0

    def __repr__(self) -> str:
        return f"ret({self.value!r})_t{self.thread}"


@dataclass(frozen=True)
class CrashEv:
    def __repr__(self) -> str:
        return "Crash"


CRASH_EV = CrashEv()

HistoryEvent = object  # Inv | Ret | CrashEv


@dataclass(frozen=True)
class Call:
    """One call of a history: an invocation plus its matching return, if any."""

    method: str
    args: Tuple
    ret: object  # BOT when incomplete
    thread: int
    tags: FrozenSet[str]
    inv_index: int
    ret_index: Optional[int]

    @property
    def is_complete(self) -> bool:
        return self.ret is not BOT

    @property
    def start(self) -> int:
        return self.inv_index

    @property
    def end(self) -> float:
        return self.ret_index if self.ret_index is not None else float("inf")

    def label(self) -> Label:
        return Label(self.method, self.args, self.ret, self.tags, self.thread)

    def __repr__(self) -> str:
        r = "" if self.ret is BOT else f":{self.ret!r}"
        return f"{self.method}({','.join(map(repr, self.args))}){r}_t{self.thread}"


class History:
    """A finite sequence of invocation/return/crash events.

    Invariants checked at construction: for each thread the subsequence of
    its events alternates invocation/return starting with an invocation, and
    thread ids appearing after a crash are disjoint from those before it.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[HistoryEvent]):
        evs = tuple(events)
        for e in evs:
            if not isinstance(e, (Inv, Ret, CrashEv)):
                raise TypeError(f"not a history event: {e!r}")
        per_thread: Dict[int, List[HistoryEvent]] = {}
        for e in evs:
            if isinstance(e, (Inv, Ret)):
                per_thread.setdefault(e.thread, []).append(e)
        for t, seq in per_thread.items():
            for i, e in enumerate(seq):
                want_inv = i % 2 == 0
                if want_inv != isinstance(e, Inv):
                    raise ValueError(f"thread {t} events do not alternate inv/ret")
        seen: Set[int] = set()
        before: Set[int] = set()
        for e in evs:
            if isinstance(e, CrashEv):
                before |= seen
                seen = set()
            elif isinstance(e, (Inv, Ret)):
                if e.thread in before:
                    raise ValueError(f"thread {e.thread} reused across a crash")
                seen.add(e.thread)
        object.__setattr__(self, "events", evs)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("History is immutable")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, History) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return " · ".join(repr(e) for e in self.events) if self.events else "ε"

    def prefix(self, k: int) -> "History":
        """The history h[1..k] of the first k events."""
        return History(self.events[:k])

    def concat(self, other: "History") -> "History":
        return History(self.events + other.events)

    # -- projections -------------------------------------------------------

    def project_thread(self, thread: int) -> "History":
        """h[t]: the subsequence of thread t's events (crashes dropped)."""
        return History(
            e for e in self.events if isinstance(e, (Inv, Ret)) and e.thread == thread
        )

    def ops(self) -> "History":
        """The history with all crash markers removed."""
        return History(e for e in self.events if not isinstance(e, CrashEv))

    def project(self, keep: Callable[[Inv], bool]) -> "History":
        """Stable subsequence keeping invocations satisfying ``keep`` (and
        their matching returns) plus crash markers."""
        kept: List[HistoryEvent] = []
        open_kept: Dict[int, bool] = {}
        for e in self.events:
            if isinstance(e, CrashEv):
                kept.append(e)
            elif isinstance(e, Inv):
                k = keep(e)
                open_kept[e.thread] = k
                if k:
                    kept.append(e)
            else:
                if open_kept.get(e.thread, False):
                    kept.append(e)
                open_kept[e.thread] = False
        return History(kept)

    def project_calls(self, keep: Callable[[Call], bool]) -> "History":
        """Like ``project``, deciding per call (so return values are visible)."""
        chosen = {c.inv_index for c in self.calls() if keep(c)}
        kept: List[HistoryEvent] = []
        open_kept: Dict[int, bool] = {}
        for i, e in enumerate(self.events):
            if isinstance(e, CrashEv):
                kept.append(e)
            elif isinstance(e, Inv):
                k = i in chosen
                open_kept[e.thread] = k
                if k:
                    kept.append(e)
            else:
                if open_kept.get(e.thread, False):
                    kept.append(e)
                open_kept[e.thread] = False
        return History(kept)

    def project_location(
        self, x: int, loc: Callable[[Call], FrozenSet[int]]
    ) -> "History":
        """h[x]: calls whose location set is exactly {x}."""
        return self.project_calls(lambda c: loc(c) == frozenset({x}))

    # -- structure ----------------------------------------------------------

    def calls(self) -> List[Call]:
        """All calls of the history, in invocation order."""
        out: List[Call] = []
        open_call: Dict[int, int] = {}  # thread -> index into out
        for i, e in enumerate(self.events):
            if isinstance(e, Inv):
                open_call[e.thread] = len(out)
                out.append(Call(e.method, e.args, BOT, e.thread, e.tags, i, None))
            elif isinstance(e, Ret):
                j = open_call.pop(e.thread)
                c = out[j]
                out[j] = Call(c.method, c.args, e.value, c.thread, c.tags, c.inv_index, i)
        return out

    def eras(self) -> List["History"]:
        """Maximal crash-free segments, in order."""
        parts: List[List[HistoryEvent]] = [[]]
        for e in self.events:
            if isinstance(e, CrashEv):
                parts.append([])
            else:
                parts[-1].append(e)
        return [History(p) for p in parts]

    def crash_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, CrashEv))


# --------------------------------------------------------------------------
# Relation helpers: closed orders as bit rows
# --------------------------------------------------------------------------


def _bits(row: int) -> Iterator[int]:
    """Positions of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _pairs(rows: Sequence[int], ids: Optional[Sequence] = None) -> Relation:
    ids = range(len(rows)) if ids is None else ids
    return frozenset((ids[a], ids[b]) for a, row in enumerate(rows) for b in _bits(row))


class Order:
    """A transitively closed relation on the events ``0..n-1``, one Python
    int per event: bit ``b`` of ``rows[a]`` is set iff ``(a, b)`` is related.

    Orders are only made closed: ``close``/``extend`` run Warshall's
    algorithm over the rows, and ``restrict`` masks and compacts the rows of
    an order that is already closed (the restriction of a closed relation is
    closed, so it is never closed again).  The pair set and the transitive
    reduction are built on first use and cached.
    """

    __slots__ = ("rows", "_pairs", "_reduced")

    def __init__(self, rows: Sequence[int]):
        self.rows = tuple(rows)
        self._pairs: Optional[Relation] = None
        self._reduced: Optional[Relation] = None

    @classmethod
    def close(cls, n: int, edges: Iterable[Edge], what: str = "order") -> "Order":
        """The closure of ``edges`` over the events ``0..n-1``."""
        return cls((0,) * n).extend(edges, what)

    def extend(self, edges: Iterable[Edge], what: str = "order") -> "Order":
        """The closure of this order together with ``edges``; an edge that
        names an event outside ``0..n-1`` raises ``ValueError``."""
        rows = list(self.rows)
        n = len(rows)
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"{what} mentions unknown event")
            rows[a] |= 1 << b
        if rows == list(self.rows):
            return self
        for k in range(n):
            row_k = rows[k]
            if row_k:
                bit = 1 << k
                rows = [row | row_k if row & bit else row for row in rows]
        return Order(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def is_acyclic(self) -> bool:
        return not any(row >> a & 1 for a, row in enumerate(self.rows))

    def covers(self, a: int) -> int:
        """Row of the immediate successors of ``a`` (acyclic orders only)."""
        rows = self.rows
        later = 0
        rest = rows[a]
        while rest:
            low = rest & -rest
            later |= rows[low.bit_length() - 1]
            rest &= ~(later | low)
        return rows[a] & ~later

    def maximal(self) -> List[int]:
        return [a for a, row in enumerate(self.rows) if not row]

    def preds(self) -> List[int]:
        """Row of the predecessors of each event (the converse order)."""
        cols = [0] * len(self.rows)
        for a, row in enumerate(self.rows):
            bit = 1 << a
            for b in _bits(row):
                cols[b] |= bit
        return cols

    def restrict(self, keep: Sequence[int]) -> "Order":
        """The order on the ascending events ``keep``, renumbered densely."""
        runs: List[List[int]] = []  # [old start, width, new start] of kept blocks
        for new, old in enumerate(keep):
            if runs and runs[-1][0] + runs[-1][1] == old:
                runs[-1][1] += 1
            else:
                runs.append([old, 1, new])
        blocks = [(start, (1 << width) - 1, to) for start, width, to in runs]
        rows = []
        for a in keep:
            row = self.rows[a]
            out = 0
            for start, mask, to in blocks:
                out |= (row >> start & mask) << to
            rows.append(out)
        return Order(rows)

    @property
    def pairs(self) -> Relation:
        if self._pairs is None:
            self._pairs = _pairs(self.rows)
        return self._pairs

    @property
    def reduced(self) -> Relation:
        """The transitive reduction, as pairs (acyclic orders only)."""
        if self._reduced is None:
            self._reduced = _pairs([self.covers(a) for a in range(len(self.rows))])
        return self._reduced


def _dense_order(edges: Iterable[Edge]) -> Tuple[List, Order]:
    """The closure of a relation on arbitrary hashable ids, with the ids in
    the order of first appearance."""
    idx: Dict = {}
    dense = [(idx.setdefault(a, len(idx)), idx.setdefault(b, len(idx))) for a, b in edges]
    return list(idx), Order.close(len(idx), dense)


def closure(edges: Iterable[Edge]) -> Relation:
    """Transitive closure of a relation (Warshall on bit rows)."""
    ids, order = _dense_order(edges)
    return _pairs(order.rows, ids)


def is_irreflexive(rel: Iterable[Edge]) -> bool:
    return all(a != b for a, b in rel)


def transitive_reduction(edges: Iterable[Edge]) -> Relation:
    ids, order = _dense_order(edges)
    if not order.is_acyclic():
        raise ValueError("relation is cyclic")
    return _pairs([order.covers(a) for a in range(len(ids))], ids)


# --------------------------------------------------------------------------
# Generic pomsets
# --------------------------------------------------------------------------


class Pomset:
    """A finite pomset: dense integer carrier, strict partial order, labels.

    Equality (`iso_eq`) is label-preserving order-isomorphism; `==` on the
    nose is deliberately not defined beyond identity of representation.
    """

    __slots__ = ("events", "lab", "_order")

    def __init__(self, labels: Sequence, order: Iterable[Edge]):
        lab = {i: l for i, l in enumerate(labels)}
        closed = Order.close(len(labels), order)
        if not closed.is_acyclic():
            raise ValueError("relation is cyclic")
        object.__setattr__(self, "events", tuple(range(len(labels))))
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "_order", closed)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Pomset is immutable")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def order(self) -> Relation:
        return self._order.pairs

    @property
    def reduced(self) -> Relation:
        return self._order.reduced

    def labels(self) -> List:
        return [self.lab[e] for e in self.events]

    def __repr__(self) -> str:
        return f"Pomset({self.labels()!r}, {sorted(self.reduced)!r})"


def _iso_signatures(events, order: Order, lab) -> Dict[int, tuple]:
    """Stable refinement signature per event (label, pred/succ multisets)."""
    sig = {e: (repr(lab[e]),) for e in events}
    cols = order.preds()
    preds = {e: list(_bits(cols[e])) for e in events}
    succs = {e: list(_bits(order.rows[e])) for e in events}
    for _ in range(max(1, len(events))):
        new = {
            e: (
                sig[e],
                tuple(sorted(sig[p] for p in preds[e])),
                tuple(sorted(sig[s] for s in succs[e])),
            )
            for e in events
        }
        if len(set(new.values())) == len(set(sig.values())):
            sig = new
            break
        sig = new
    return sig


def _find_isomorphism(ev1, ord1: Order, lab1, ev2, ord2: Order, lab2) -> Optional[Dict[int, int]]:
    rows1, rows2 = ord1.rows, ord2.rows
    if len(ev1) != len(ev2) or sum(r.bit_count() for r in rows1) != sum(r.bit_count() for r in rows2):
        return None
    if len(ev1) > ISO_LIMIT:
        raise ValueError(f"isomorphism check limited to {ISO_LIMIT} events")
    sig1 = _iso_signatures(ev1, ord1, lab1)
    sig2 = _iso_signatures(ev2, ord2, lab2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    candidates = {e: [f for f in ev2 if sig2[f] == sig1[e]] for e in ev1}
    ordered = sorted(ev1, key=lambda e: len(candidates[e]))
    mapping: Dict[int, int] = {}
    used: Set[int] = set()

    def ok(e: int, f: int) -> bool:
        for a, b in mapping.items():
            if rows1[a] >> e & 1 != rows2[b] >> f & 1 or rows1[e] >> a & 1 != rows2[f] >> b & 1:
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(ordered):
            return True
        e = ordered[i]
        for f in candidates[e]:
            if f in used or not ok(e, f):
                continue
            mapping[e] = f
            used.add(f)
            if rec(i + 1):
                return True
            del mapping[e]
            used.discard(f)
        return False

    return dict(mapping) if rec(0) else None


def _order_of(p) -> Order:
    return p._order if isinstance(p, Pomset) else p.po_order


def canonical_hash(p) -> int:
    """Iso-invariant hash (refinement signatures; exact check via iso_eq)."""
    sig = _iso_signatures(p.events, _order_of(p), p.lab)
    return hash(tuple(sorted(sig.values())))


def iso_eq(p, q) -> bool:
    """Label-preserving order-isomorphism between two pomset-like values."""
    return find_isomorphism(p, q) is not None


def find_isomorphism(p, q) -> Optional[Dict[int, int]]:
    return _find_isomorphism(p.events, _order_of(p), p.lab, q.events, _order_of(q), q.lab)


# --------------------------------------------------------------------------
# Plain executions
# --------------------------------------------------------------------------


class PlainExecution:
    """A crash-aware pomset of labels: events, program order, labelling.

    The program order ``po_order`` is an :class:`Order`: given as edges it is
    closed at construction, given as an ``Order`` (already closed) it is
    taken as is.  Construction rejects a cyclic ``po`` and enforces that
    every po-immediate successor of an incomplete call is a crash event.
    """

    __slots__ = ("events", "lab", "po_order")

    def __init__(self, labels: Sequence[Label], po: Iterable[Edge] | Order):
        lab: Dict[int, Label] = {}
        for i, l in enumerate(labels):
            if not isinstance(l, Label):
                raise TypeError(f"not a label: {l!r}")
            lab[i] = l
        order = po if isinstance(po, Order) else Order.close(len(lab), po, "po")
        if len(order) != len(lab):
            raise ValueError("po mentions unknown event")
        if not order.is_acyclic():
            raise ValueError("relation is cyclic")
        crashes = sum(1 << e for e, l in lab.items() if l.is_crash)
        for a, l in lab.items():
            if not l.is_complete and order.covers(a) & ~crashes:
                raise ValueError(f"incomplete call {l!r} has non-crash immediate successor")
        object.__setattr__(self, "events", tuple(range(len(labels))))
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "po_order", order)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PlainExecution is immutable")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def po(self) -> Relation:
        return self.po_order.pairs

    @property
    def po_reduced(self) -> Relation:
        return self.po_order.reduced

    def labels(self) -> List[Label]:
        return [self.lab[e] for e in self.events]

    def is_empty(self) -> bool:
        return not self.events

    def threads(self) -> List[int]:
        return sorted({l.thread for l in self.lab.values() if l.thread is not None})

    def maximal_events(self) -> List[int]:
        return self.po_order.maximal()

    def crash_events(self) -> List[int]:
        return [e for e in self.events if self.lab[e].is_crash]

    def era_of(self) -> Dict[int, int]:
        """Era index of each event: the number of crashes strictly po-before it."""
        rows = [self.po_order.rows[c] for c in self.crash_events()]
        return {e: sum(row >> e & 1 for row in rows) for e in self.events}

    def restrict_events(self, keep: Iterable[int]) -> "PlainExecution":
        """Sub-execution on a subset of events (ids renumbered densely)."""
        keep_sorted = sorted(set(keep))
        labels = [self.lab[e] for e in keep_sorted]
        return PlainExecution(labels, self.po_order.restrict(keep_sorted))

    def to_pomset(self) -> Pomset:
        return Pomset(self.labels(), self.po_reduced)

    def __repr__(self) -> str:
        return f"PlainExecution({self.labels()!r}, po={sorted(self.po_reduced)!r})"


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


def seq_compose(g1: PlainExecution, g2: PlainExecution) -> PlainExecution:
    """Sequential composition G1;G2.

    Every complete G1 event precedes every G2 event, and every G1 event
    precedes every G2 crash; the result is the transitive closure.
    """
    n1 = len(g1)
    labels = g1.labels() + g2.labels()
    edges: Set[Edge] = set(g1.po_reduced)
    edges |= {(a + n1, b + n1) for a, b in g2.po_reduced}
    for a in g1.events:
        for b in g2.events:
            if g1.lab[a].is_complete or g2.lab[b].is_crash:
                edges.add((a, b + n1))
    return PlainExecution(labels, edges)


def sequence_execution(labels: Sequence[Label]) -> PlainExecution:
    """A totally ordered plain execution (chain) over the given labels."""
    return PlainExecution(labels, [(i, i + 1) for i in range(len(labels) - 1)])


def parallel_execution(*chains: Sequence[Label]) -> PlainExecution:
    """Per-thread chains, no cross-thread order."""
    labels: List[Label] = []
    edges: List[Edge] = []
    for chain in chains:
        base = len(labels)
        labels.extend(chain)
        edges.extend((base + i, base + i + 1) for i in range(len(chain) - 1))
    return PlainExecution(labels, edges)


def down_sets(g: PlainExecution) -> List[FrozenSet[int]]:
    """All po-down-closed event subsets, smallest first (deterministic)."""
    po = g.po
    preds = {e: frozenset(a for a, b in po if b == e) for e in g.events}
    found: Set[FrozenSet[int]] = {frozenset(g.events)}
    frontier = [frozenset(g.events)]
    while frontier:
        cur = frontier.pop()
        for e in cur:
            if not any((e, x) in po for x in cur):
                nxt = cur - {e}
                if nxt not in found:
                    found.add(nxt)
                    frontier.append(nxt)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def prefixes(g: PlainExecution, dedup_iso: bool = True) -> List[PlainExecution]:
    """The downward closure of G in the prefix order, deduplicated up to iso."""
    out: List[PlainExecution] = []
    seen: Dict[int, List[PlainExecution]] = {}
    for s in down_sets(g):
        sub = g.restrict_events(s)
        if dedup_iso:
            h = canonical_hash(sub)
            bucket = seen.setdefault(h, [])
            if any(iso_eq(sub, other) for other in bucket):
                continue
            bucket.append(sub)
        out.append(sub)
    return out


def immediate_prefixes(g: PlainExecution) -> List[PlainExecution]:
    """All G' with G' ⊏_imm G (one po-maximal event removed)."""
    return [
        g.restrict_events(set(g.events) - {e})
        for e in g.maximal_events()
    ]


def prefix_immediate(g_small: PlainExecution, g_big: PlainExecution) -> bool:
    """True iff g_small is g_big minus one po-maximal event (up to iso)."""
    if len(g_small) != len(g_big) - 1:
        return False
    return any(iso_eq(g_small, p) for p in immediate_prefixes(g_big))


def era_split(g: PlainExecution) -> List[PlainExecution]:
    """Crash-free parts of G, in era order (crash events dropped)."""
    if not g.events:
        return [g]
    era = g.era_of()
    parts: List[List[int]] = [[] for _ in range(max(era.values()) + 2)]
    for e in g.events:
        if not g.lab[e].is_crash:
            parts[era[e]].append(e)
    n_eras = len(g.crash_events()) + 1
    return [g.restrict_events(p) for p in parts[:n_eras]]


def era_before(g: PlainExecution) -> Relation:
    """eb = po ; [Crash] ; po."""
    rows = g.po_order.rows
    later = [0] * len(rows)
    for c in g.crash_events():
        for a, row in enumerate(rows):
            if row >> c & 1:
                later[a] |= rows[c]
    return _pairs(later)


def same_era(g: PlainExecution) -> Relation:
    """se: the complement of eb ∪ eb⁻¹."""
    eb = era_before(g)
    return frozenset(
        (a, b)
        for a in g.events
        for b in g.events
        if (a, b) not in eb and (b, a) not in eb
    )


def tag_set(x, tag: str) -> FrozenSet[int]:
    """⟦tag⟧: events (or call indices of a history) labelled with the tag."""
    if isinstance(x, History):
        return frozenset(i for i, c in enumerate(x.calls()) if tag in c.tags)
    g = x.plain if isinstance(x, Execution) else x
    return frozenset(e for e in g.events if tag in g.lab[e].tags)


# --------------------------------------------------------------------------
# Executions
# --------------------------------------------------------------------------


class Execution:
    """A plain execution with synchronizes-with and happens-before.

    ``hb`` must be a strict order containing ``po ∪ sw``; violations are
    rejected at construction.  It is held as an :class:`Order` (``hb_order``):
    given as edges it is closed, given as an ``Order`` it is taken as is, and
    by default it is the closure of ``po ∪ sw``.
    """

    __slots__ = ("plain", "sw", "hb_order")

    def __init__(self, plain: PlainExecution, sw: Iterable[Edge] = (), hb: Iterable[Edge] | Order | None = None):
        swf = frozenset(sw)
        for a, b in swf:
            if a not in plain.lab or b not in plain.lab:
                raise ValueError("sw mentions unknown event")
        if hb is None:
            order = plain.po_order.extend(swf)
        else:
            order = hb if isinstance(hb, Order) else Order.close(len(plain), hb, "hb")
        if len(order) != len(plain):
            raise ValueError("hb mentions unknown event")
        if not order.is_acyclic():
            raise ValueError("hb is cyclic")
        rows = order.rows
        if any(p & ~h for p, h in zip(plain.po_order.rows, rows)) or any(
            not rows[a] >> b & 1 for a, b in swf
        ):
            missing = (plain.po | swf) - order.pairs
            raise ValueError(f"po ∪ sw ⊄ hb (missing {sorted(missing)[:3]}...)")
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "sw", swf)
        object.__setattr__(self, "hb_order", order)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Execution is immutable")

    @property
    def events(self) -> Tuple[int, ...]:
        return self.plain.events

    @property
    def lab(self) -> Mapping[int, Label]:
        return self.plain.lab

    @property
    def po(self) -> Relation:
        return self.plain.po

    @property
    def hb(self) -> Relation:
        return self.hb_order.pairs

    def is_empty(self) -> bool:
        return self.plain.is_empty()

    def __len__(self) -> int:
        return len(self.plain)

    def restrict_events(self, keep: Iterable[int]) -> "Execution":
        keep_sorted = sorted(set(keep))
        idx = {old: new for new, old in enumerate(keep_sorted)}
        sub = self.plain.restrict_events(keep_sorted)
        sw = [(idx[a], idx[b]) for a, b in self.sw if a in idx and b in idx]
        return Execution(sub, sw, self.hb_order.restrict(keep_sorted))

    def maximal_events(self) -> List[int]:
        """hb-maximal events (prefixes of executions remove these)."""
        return self.hb_order.maximal()

    def __repr__(self) -> str:
        return (
            f"Execution({self.plain.labels()!r}, po={sorted(self.plain.po_reduced)!r}, "
            f"sw={sorted(self.sw)!r})"
        )


def immediate_prefixes_execution(x: Execution) -> List[Execution]:
    return [x.restrict_events(set(x.events) - {e}) for e in x.maximal_events()]


def restrict(x: Execution, owns: Callable[[Label], bool]) -> Execution:
    """Events labelled with the library's methods, crashes kept; relations cut."""
    keep = [e for e in x.events if x.lab[e].is_crash or owns(x.lab[e])]
    return x.restrict_events(keep)


def anonymize(owns: Callable[[Label], bool], x: Execution) -> Execution:
    """Replace foreign tagged calls by ⋆ labels; drop untagged foreign calls."""
    keep: List[int] = []
    relabel: Dict[int, Label] = {}
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or owns(l):
            keep.append(e)
        elif l.tags:
            keep.append(e)
            relabel[e] = star(l.tags, l.thread)
    keep_sorted = sorted(keep)
    idx = {old: new for new, old in enumerate(keep_sorted)}
    labels = [relabel.get(e, x.lab[e]) for e in keep_sorted]
    sw = [(idx[a], idx[b]) for a, b in x.sw if a in idx and b in idx]
    # Anonymization may break the incomplete-call invariant of the underlying
    # plain execution (a dropped crash cannot happen: crashes are kept), so
    # the plain execution is rebuilt directly.
    plain = PlainExecution(labels, x.plain.po_order.restrict(keep_sorted))
    return Execution(plain, sw, x.hb_order.restrict(keep_sorted))


def execution_iso_eq(x: Execution, y: Execution) -> bool:
    """Isomorphism of executions: label-preserving, po-, sw- and hb-preserving."""
    m = find_isomorphism(x.plain, y.plain)
    if m is None:
        # try all isomorphisms? cheap fallback: signatures already matched po
        return False
    # check one mapping first; fall back to exhaustive search over label-
    # compatible bijections only when sw/hb disagree under m.
    def respects(m: Dict[int, int]) -> bool:
        sw2 = {(m[a], m[b]) for a, b in x.sw}
        hb2 = {(m[a], m[b]) for a, b in x.hb}
        return sw2 == set(y.sw) and hb2 == set(y.hb)

    if respects(m):
        return True
    # po ∪ sw ⊆ hb holds by construction, so hb alone carries all three
    sig_x = _iso_signatures(x.events, x.hb_order, x.lab)
    sig_y = _iso_signatures(y.events, y.hb_order, y.lab)
    if sorted(sig_x.values()) != sorted(sig_y.values()):
        return False
    cands = {e: [f for f in y.events if sig_y[f] == sig_x[e]] for e in x.events}
    for perm in _bijections(list(x.events), cands):
        if perm is None:
            continue
        mm = perm
        ok = all(((a, b) in x.po) == ((mm[a], mm[b]) in y.po) for a in x.events for b in x.events)
        if ok and respects(mm):
            return True
    return False


def _bijections(events: List[int], cands: Dict[int, List[int]]) -> Iterator[Optional[Dict[int, int]]]:
    if len(events) > 8:
        yield None
        return

    def rec(i: int, mapping: Dict[int, int], used: Set[int]):
        if i == len(events):
            yield dict(mapping)
            return
        e = events[i]
        for f in cands[e]:
            if f in used:
                continue
            mapping[e] = f
            used.add(f)
            yield from rec(i + 1, mapping, used)
            used.discard(f)
            del mapping[e]
    yield from rec(0, {}, set())


def execution_canonical_hash(x: Execution) -> int:
    sig = _iso_signatures(x.events, x.hb_order, x.lab)
    return hash(tuple(sorted(sig.values())))


# --------------------------------------------------------------------------
# History <-> execution conversion (SC mode)
# --------------------------------------------------------------------------


def history_to_execution(h: History) -> Execution:
    """Single-event calls with po per thread and hb = return-precedes-invocation.

    Crash markers become crash events acting as both invocation and return.
    """
    calls = h.calls()
    crash_positions = [i for i, e in enumerate(h.events) if isinstance(e, CrashEv)]
    labels: List[Label] = []
    spans: List[Tuple[float, float]] = []  # (start, end) indices in h
    threads: List[Optional[int]] = []
    for c in calls:
        labels.append(c.label())
        spans.append((c.start, c.end))
        threads.append(c.thread)
    for p in crash_positions:
        labels.append(CRASH)
        spans.append((p, p))
        threads.append(None)
    n = len(labels)
    hb = set()
    for i in range(n):
        for j in range(n):
            if i != j and spans[i][1] < spans[j][0]:
                hb.add((i, j))
    po = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_thread = threads[i] is not None and threads[i] == threads[j]
            crash_pair = threads[i] is None or threads[j] is None
            if (same_thread or crash_pair) and spans[i][1] < spans[j][0]:
                po.add((i, j))
    plain = PlainExecution(labels, po)
    return Execution(plain, sw=(), hb=hb | po)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


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


def execution_to_dot(x: Execution, name: str = "execution") -> str:
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for e in x.events:
        l = x.lab[e]
        shape = "box" if l.is_crash else "ellipse"
        lines.append(f'  e{e} [label="{e}: {l!r}", shape={shape}];')
    for a, b in sorted(x.plain.po_reduced):
        lines.append(f"  e{a} -> e{b};")
    for a, b in sorted(x.sw):
        lines.append(f'  e{a} -> e{b} [style=dashed, label="sw", constraint=false];')
    lines.append("}")
    return "\n".join(lines)
