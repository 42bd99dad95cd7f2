"""Crash-aware events, histories, pomsets, and executions.

Two granularities coexist:

* SC histories (``History``): finite sequences of invocation / return /
  crash events with per-thread alternation, as in the classic
  linearizability setting.
* Executions (``PlainExecution`` / ``Execution``): pomsets of single-event
  method calls plus crash markers, with program order ``po`` and, for full
  executions, synchronizes-with ``sw`` and happens-before ``hb``.

Every execution order is built here, as closed bit rows (:class:`Order`):
chains, ``seq_compose`` (crash gluing included), ``history_to_execution``
and the immediate-prefix step ``immediate_prefix_masks``.

Eras are read off one relation, era-before: eb = po;[Crash];po, the pairs
with a crash po-between them, which ``PlainExecution.eb`` builds once.  Two
events are in the same era when neither is eb-before the other; an event is
in the last era when no crash is po-after it.  eb is contained in po, and
so in hb.  An execution built through the library API may hold a crash
that is unordered with some event, and eb gives it its one meaning.  In
the executions the checker builds every crash is po-comparable with every
event: runs are glued through their crashes by ``seq_compose``, and
``history_to_execution`` puts a call that is pending at a crash po- and
hb-before that crash, so the call is in the era of its invocation.

Everything here is immutable after construction and safe to share across
threads.  Event identities are opaque dense integers; pomsets are identified
up to label-preserving order-isomorphism, with a bounded isomorphism check
for inputs of at most ``ISO_LIMIT`` events.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
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
    arguments, return, tags, or thread.  The flags ``is_crash``, ``is_call``
    and ``is_complete`` (crashes count as complete; calls are complete once
    they returned) and the hash are computed once, at construction.
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
        object.__setattr__(self, "is_crash", self.method is None)
        object.__setattr__(self, "is_call", self.method is not None)
        object.__setattr__(self, "is_complete", self.method is None or self.ret is not BOT)
        object.__setattr__(self, "_hash", hash((self.method, self.args, self.ret, self.tags, self.thread)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # an unpickled label computes its hash again
        return (Label, (self.method, self.args, self.ret, self.tags, self.thread))

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


@dataclass(frozen=True, init=False)
class Call:
    """One call of a history: an invocation plus its matching return, if any.

    Frozen, with an ``__init__`` that fills the instance dict in one update,
    where the generated one spends an ``object.__setattr__`` per field:
    ``History.calls`` builds one per invocation.  ``dataclasses.replace``,
    equality, hashing and the fields are the dataclass's own."""

    method: str
    args: Tuple
    ret: object  # BOT when incomplete
    thread: int
    tags: FrozenSet[str]
    inv_index: int
    ret_index: Optional[int]

    def __init__(
        self,
        method: str,
        args: Tuple,
        ret: object,
        thread: int,
        tags: FrozenSet[str],
        inv_index: int,
        ret_index: Optional[int],
    ):
        self.__dict__.update(
            method=method, args=args, ret=ret, thread=thread, tags=tags, inv_index=inv_index, ret_index=ret_index
        )

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

    # -- projections -------------------------------------------------------

    def project_thread(self, thread: int) -> "History":
        """h[t]: the subsequence of thread t's events (crashes dropped)."""
        return History(
            e for e in self.events if isinstance(e, (Inv, Ret)) and e.thread == thread
        )

    def ops(self) -> "History":
        """The history with all crash markers removed."""
        return History(e for e in self.events if not isinstance(e, CrashEv))

    def project_calls(self, keep: Callable[[Call], bool]) -> "History":
        """Stable subsequence keeping the calls satisfying ``keep`` (their
        invocations and returns) plus crash markers."""
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
        """All calls of the history, in invocation order, each built once
        its return, if any, is known."""
        ends: Dict[int, Tuple[int, object]] = {}  # invocation index -> (return index, value)
        open_inv: Dict[int, int] = {}  # thread -> invocation index
        for i, e in enumerate(self.events):
            if isinstance(e, Inv):
                open_inv[e.thread] = i
            elif isinstance(e, Ret):
                ends[open_inv.pop(e.thread)] = (i, e.value)
        out: List[Call] = []
        for i, e in enumerate(self.events):
            if isinstance(e, Inv):
                j, ret = ends.get(i, (None, BOT))
                out.append(Call(e.method, e.args, ret, e.thread, e.tags, i, j))
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


def bits(row: int) -> Iterator[int]:
    """Positions of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


#: ``_PAIRS[a][b]`` is the pair ``(a, b)``, for ``a`` and ``b`` below the
#: largest relation size seen: as many tuples as two pair sets of a total
#: order on that many events hold.  The table is only ever replaced whole,
#: by a larger one holding the same pairs, so a reader needs no lock: two
#: threads that grow it at once each install a complete table.
_PAIRS: Tuple[Tuple[Edge, ...], ...] = ()


def _pair_table(n: int) -> Tuple[Tuple[Edge, ...], ...]:
    """The shared pair table, grown to at least ``n`` events."""
    global _PAIRS
    table = _PAIRS
    m = len(table)
    if n > m:
        grown = [row + tuple((a, b) for b in range(m, n)) for a, row in enumerate(table)]
        grown.extend(tuple((a, b) for b in range(n)) for a in range(m, n))
        table = _PAIRS = tuple(grown)
    return table


def row_pairs(rows: Sequence[int]) -> Relation:
    """The pairs of the relation with bit rows ``rows`` on the events
    ``0..len(rows)-1``: ``(a, b)`` for each bit ``b`` of ``rows[a]``.  The
    tuples are taken from one table shared by every relation, so a cached
    pair set holds no tuple of its own."""
    table = _pair_table(len(rows))
    out = []
    for a, row in enumerate(rows):
        at = table[a]
        while row:  # the bits of ``row``, walked inline
            low = row & -row
            out.append(at[low.bit_length() - 1])
            row ^= low
    return frozenset(out)


@lru_cache(maxsize=None)
def _swap_masks(width: int) -> Tuple[Tuple[int, int], ...]:
    """Per step of :func:`_transpose` on ``width``-bit rows (a power of two),
    the distance ``d`` of its swaps and the mask of the bits it moves up by
    ``d``: bit ``c`` of row ``r`` where bit ``j`` of ``r`` is clear and that
    of ``c`` set, for ``j`` from ``width/2`` down to 1."""
    out = []
    j = width >> 1
    while j:
        row = sum(1 << c for c in range(width) if c & j)
        out.append((j * (width - 1), sum(row << r * width for r in range(width) if not r & j)))
        j >>= 1
    return tuple(out)


def _transpose(rows: Sequence[int]) -> Tuple[int, ...]:
    """The bit matrix ``rows`` (``n`` rows of ``n`` bits) transposed: bit
    ``a`` of row ``b`` of the result is bit ``b`` of ``rows[a]``.  The rows
    are packed into one integer at a power-of-two stride, and each step
    swaps the two off-diagonal quarters of every block in place, halving
    the block, so the work is a few big-integer operations per row rather
    than one per set bit."""
    n = len(rows)
    if n < 2:
        return tuple(rows)
    width = 1 << (n - 1).bit_length()
    m = 0
    for row in reversed(rows):
        m = m << width | row
    for d, mask in _swap_masks(width):
        t = (m >> d ^ m) & mask
        m ^= t | t << d
    full = (1 << width) - 1
    return tuple(m >> b * width & full for b in range(n))


class Order:
    """A transitively closed relation on the events ``0..n-1``, one Python
    int per event: bit ``b`` of ``rows[a]`` is set iff ``(a, b)`` is related.

    Orders are only made closed: ``close``/``extend`` run Warshall's
    algorithm over the rows, and ``restrict`` masks and compacts the rows of
    an order that is already closed (the restriction of a closed relation is
    closed, so it is never closed again).  The pair set, the transitive
    reduction and the converse rows are built on first use and cached.  The
    pair set is a frozenset, for membership and set algebra; the reduction
    is a tuple in ``(a, b)`` order, its canonical form, so two equal
    reductions are equal tuples.  Both take their pairs from the shared table
    ``_PAIRS``, so a cached view holds no tuple of its own.
    """

    __slots__ = ("rows", "_pairs", "_reduced", "_preds")

    def __init__(self, rows: Sequence[int]):
        self.rows = tuple(rows)
        self._pairs: Optional[Relation] = None
        self._reduced: Optional[Tuple[Edge, ...]] = None
        self._preds: Optional[Tuple[int, ...]] = None

    @classmethod
    def close(cls, n: int, edges: Iterable[Edge], what: str = "order") -> "Order":
        """The closure of ``edges`` over the events ``0..n-1``."""
        return cls((0,) * n).extend(edges, what)

    @classmethod
    def close_rows(cls, rows: Sequence[int]) -> "Order":
        """The closure of the relation whose bit rows are ``rows``."""
        rows = list(rows)
        for k in range(len(rows)):
            row_k = rows[k]
            if row_k:
                bit = 1 << k
                rows = [row | row_k if row & bit else row for row in rows]
        return cls(rows)

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
        return Order.close_rows(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def is_acyclic(self) -> bool:
        """Exact on closed rows only: a cycle of an unclosed relation need
        not reach the diagonal."""
        return not any(row >> a & 1 for a, row in enumerate(self.rows))

    def is_closed(self) -> bool:
        """Whether the rows are transitively closed: each event's row holds
        the rows of the events in it."""
        rows = self.rows
        for row in rows:
            reach = 0
            for b in bits(row):
                reach |= rows[b]
            if reach & ~row:
                return False
        return True

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

    def preds(self) -> Tuple[int, ...]:
        """Row of the predecessors of each event (the converse order), built
        on first use and kept."""
        if self._preds is None:
            self._preds = _transpose(self.rows)
        return self._preds

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
            self._pairs = row_pairs(self.rows)
        return self._pairs

    @property
    def reduced(self) -> Tuple[Edge, ...]:
        """The transitive reduction, as the sorted tuple of its pairs (acyclic
        orders only), built in one pass over the rows."""
        if self._reduced is None:
            rows = self.rows
            table = _pair_table(len(rows))
            out = []
            for a, row in enumerate(rows):
                later, rest = 0, row
                while rest:  # what a's successors reach, as in covers
                    low = rest & -rest
                    later |= rows[low.bit_length() - 1]
                    rest &= ~(later | low)
                at, row = table[a], row & ~later
                while row:
                    low = row & -row
                    out.append(at[low.bit_length() - 1])
                    row ^= low
            self._reduced = tuple(out)
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
    return frozenset((ids[a], ids[b]) for a, b in order.pairs)


def transitive_reduction(edges: Iterable[Edge]) -> Relation:
    ids, order = _dense_order(edges)
    if not order.is_acyclic():
        raise ValueError("relation is cyclic")
    return frozenset((ids[a], ids[b]) for a, b in order.reduced)


# --------------------------------------------------------------------------
# Generic pomsets
# --------------------------------------------------------------------------


class Pomset:
    """A finite pomset: dense integer carrier, strict partial order, labels.

    The events are ``range(n)`` and ``lab`` is the tuple of their labels,
    event ``e``'s at index ``e``.  The order ``po_order`` is an
    :class:`Order`: given as edges it is closed at construction, given as an
    ``Order`` (already closed) it is taken as is.  Equality (`iso_eq`) is
    label-preserving order-isomorphism; `==` on the nose is deliberately not
    defined beyond identity of representation.
    """

    __slots__ = ("events", "lab", "po_order")

    def __init__(self, labels: Sequence, order: Iterable[Edge] | Order):
        lab = tuple(labels)
        closed = order if isinstance(order, Order) else Order.close(len(lab), order)
        if len(closed) != len(lab):
            raise ValueError("order mentions unknown event")
        if not closed.is_acyclic():
            raise ValueError("relation is cyclic")
        object.__setattr__(self, "events", range(len(lab)))
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "po_order", closed)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Pomset is immutable")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def order(self) -> Relation:
        return self.po_order.pairs

    @property
    def reduced(self) -> Tuple[Edge, ...]:
        return self.po_order.reduced

    def labels(self) -> List:
        return list(self.lab)

    def __repr__(self) -> str:
        return f"Pomset({self.labels()!r}, {list(self.reduced)!r})"


def _iso_signatures(events, order: Order, lab) -> Dict[int, tuple]:
    """Stable refinement signature per event (label, pred/succ multisets)."""
    sig = {e: (repr(lab[e]),) for e in events}
    cols = order.preds()
    preds = {e: list(bits(cols[e])) for e in events}
    succs = {e: list(bits(order.rows[e])) for e in events}
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


def canonical_hash(p) -> int:
    """Iso-invariant hash (refinement signatures; exact check via iso_eq)."""
    sig = _iso_signatures(p.events, p.po_order, p.lab)
    return hash(tuple(sorted(sig.values())))


def iso_eq(p, q) -> bool:
    """Label-preserving order-isomorphism between two pomset-like values."""
    return find_isomorphism(p, q) is not None


def find_isomorphism(p, q) -> Optional[Dict[int, int]]:
    return _find_isomorphism(p.events, p.po_order, p.lab, q.events, q.po_order, q.lab)


# --------------------------------------------------------------------------
# Plain executions
# --------------------------------------------------------------------------


class PlainExecution:
    """A crash-aware pomset of labels: events, program order, labelling.

    The events are ``range(n)`` and ``lab`` is the tuple of their labels,
    event ``e``'s at index ``e``, so an execution holds one label reference
    per event and nothing per event id.  The program order ``po_order`` is
    an :class:`Order`: given as edges it is closed at construction, given as
    an ``Order`` (already closed) it is taken as is.  Construction rejects a
    non-:class:`Label` label and a cyclic ``po``, and enforces that every
    po-immediate successor of an incomplete call is a crash event.
    """

    __slots__ = ("events", "lab", "po_order", "_eb")

    def __init__(self, labels: Sequence[Label], po: Iterable[Edge] | Order):
        lab = tuple(labels)
        for l in lab:
            if not isinstance(l, Label):
                raise TypeError(f"not a label: {l!r}")
        order = po if isinstance(po, Order) else Order.close(len(lab), po, "po")
        if len(order) != len(lab):
            raise ValueError("po mentions unknown event")
        if not order.is_acyclic():
            raise ValueError("relation is cyclic")
        crashes = sum(1 << e for e, l in enumerate(lab) if l.is_crash)
        for a, l in enumerate(lab):
            if not l.is_complete and order.covers(a) & ~crashes:
                raise ValueError(f"incomplete call {l!r} has non-crash immediate successor")
        object.__setattr__(self, "events", range(len(lab)))
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "po_order", order)
        object.__setattr__(self, "_eb", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PlainExecution is immutable")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def po(self) -> Relation:
        return self.po_order.pairs

    @property
    def po_reduced(self) -> Tuple[Edge, ...]:
        return self.po_order.reduced

    def labels(self) -> List[Label]:
        return list(self.lab)

    def is_empty(self) -> bool:
        return not self.events

    def threads(self) -> List[int]:
        return sorted({l.thread for l in self.lab if l.thread is not None})

    def crash_events(self) -> List[int]:
        return [e for e, l in enumerate(self.lab) if l.is_crash]

    @property
    def eb(self) -> Order:
        """Era-before, eb = po;[Crash];po, as a closed :class:`Order` (po is
        closed, so eb is): ``eb.rows[a]`` holds the events po-after a crash
        that is po-after ``a``, and ``eb.preds()`` the converse.  Built on
        first use and kept."""
        if self._eb is None:
            rows, crashes = self.po_order.rows, sum(1 << c for c in self.crash_events())
            later = []
            for row in rows:
                out = 0
                for c in bits(row & crashes):
                    out |= rows[c]
                later.append(out)
            object.__setattr__(self, "_eb", Order(later))
        return self._eb

    def restrict_events(self, keep: Iterable[int]) -> "PlainExecution":
        """Sub-execution on a subset of events (ids renumbered densely); the
        execution itself when every event is kept (executions are immutable)."""
        keep_sorted = sorted(set(keep))
        if keep_sorted == list(self.events):
            return self
        labels = [self.lab[e] for e in keep_sorted]
        return PlainExecution(labels, self.po_order.restrict(keep_sorted))

    def __repr__(self) -> str:
        return f"PlainExecution({self.labels()!r}, po={list(self.po_reduced)!r})"


def _chain_rows(n: int, base: int = 0) -> List[int]:
    """Closed rows of a chain of ``n`` events numbered from ``base``."""
    return [(((1 << n) - 1) >> (i + 1)) << (base + i + 1) for i in range(n)]


def seq_compose(*parts: PlainExecution) -> PlainExecution:
    """Sequential composition G1;G2;…, left to right on closed rows.

    Every complete event precedes every event of a later part.  So does an
    incomplete event with a successor, which reaches a crash (its immediate
    successors are crashes); a maximal incomplete event precedes only the
    crashes of later parts and their successors.  The rows stay closed, so
    nothing is closed again."""
    return _seq_compose(parts, None)


def _seq_compose(parts: Sequence[PlainExecution], rows_seen: Optional[Dict[int, int]]) -> PlainExecution:
    """:func:`seq_compose` of ``parts``; given ``rows_seen``, a table from
    row value to the first row ``int`` of that value, each row of the result
    is taken from it (and added to it), so that executions built through one
    table share their equal rows."""
    labels: List[Label] = []
    rows: List[int] = []
    for g in parts:
        n, grows = len(labels), g.po_order.rows
        crashes = 0
        for c in g.crash_events():
            crashes |= 1 << c | grows[c]
        every, after_crash = ((1 << len(g)) - 1) << n, crashes << n
        rows = [row | (every if row or labels[a].is_complete else after_crash) for a, row in enumerate(rows)]
        rows.extend(row << n for row in grows)
        labels.extend(g.lab)
    if rows_seen is not None:
        rows = [rows_seen.setdefault(row, row) for row in rows]
    return PlainExecution(labels, Order(rows))


def sequence_execution(labels: Sequence[Label]) -> PlainExecution:
    """A totally ordered plain execution (chain) over the given labels."""
    return PlainExecution(labels, Order(_chain_rows(len(labels))))


def parallel_execution(*chains: Sequence[Label]) -> PlainExecution:
    """Per-thread chains, no cross-thread order."""
    labels: List[Label] = []
    rows: List[int] = []
    for chain in chains:
        rows.extend(_chain_rows(len(chain), len(labels)))
        labels.extend(chain)
    return PlainExecution(labels, Order(rows))


def immediate_prefix_masks(rows: Sequence[int], mask: int) -> List[int]:
    """The immediate prefixes of the events in ``mask`` under the closed
    order ``rows``, as masks: each drops one maximal event, in ascending id
    order."""
    return [mask & ~(1 << e) for e in bits(mask) if not rows[e] & mask]


def down_sets(g: PlainExecution) -> List[FrozenSet[int]]:
    """All po-down-closed event subsets, smallest first (deterministic)."""
    found = {(1 << len(g)) - 1}
    frontier = list(found)
    while frontier:
        for nxt in immediate_prefix_masks(g.po_order.rows, frontier.pop()):
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return sorted((frozenset(bits(m)) for m in found), key=lambda s: (len(s), sorted(s)))


def prefixes(g: PlainExecution) -> List[PlainExecution]:
    """The downward closure of G in the prefix order, deduplicated up to iso."""
    out: List[PlainExecution] = []
    seen: Dict[int, List[PlainExecution]] = {}
    for s in down_sets(g):
        sub = g.restrict_events(s)
        bucket = seen.setdefault(canonical_hash(sub), [])
        if any(iso_eq(sub, other) for other in bucket):
            continue
        bucket.append(sub)
        out.append(sub)
    return out


def same_era(g: PlainExecution) -> Tuple[int, ...]:
    """Per event, the row of the events in its era: those neither era-before
    nor era-after it (``g.eb``), itself included."""
    eb, full = g.eb, (1 << len(g)) - 1
    return tuple(full & ~(row | col) for row, col in zip(eb.rows, eb.preds()))


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
    given as edges it is closed, given as an ``Order`` it is taken as is and
    must be transitively closed, since acyclicity is read off its diagonal,
    and by default it is the closure of ``po ∪ sw``.
    """

    __slots__ = ("plain", "sw", "hb_order")

    def __init__(self, plain: PlainExecution, sw: Iterable[Edge] = (), hb: Iterable[Edge] | Order | None = None):
        swf = frozenset(sw)
        n = len(plain)
        for a, b in swf:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("sw mentions unknown event")
        if hb is None:
            order = plain.po_order.extend(swf)
        else:
            order = hb if isinstance(hb, Order) else Order.close(len(plain), hb, "hb")
        if len(order) != len(plain):
            raise ValueError("hb mentions unknown event")
        if isinstance(hb, Order) and not order.is_closed():
            raise ValueError("hb is not transitively closed")
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
    def events(self) -> range:
        return self.plain.events

    @property
    def lab(self) -> Tuple[Label, ...]:
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
        """Sub-execution on a subset of events (ids renumbered densely); the
        execution itself when every event is kept."""
        keep_sorted = sorted(set(keep))
        if keep_sorted == list(self.events):
            return self
        idx = {old: new for new, old in enumerate(keep_sorted)}
        sub = self.plain.restrict_events(keep_sorted)
        sw = [(idx[a], idx[b]) for a, b in self.sw if a in idx and b in idx]
        hb = sub.po_order if self.hb_order is self.plain.po_order else self.hb_order.restrict(keep_sorted)
        return Execution(sub, sw, hb)

    def key(self, mask: int) -> Tuple[Tuple[Label, ...], Tuple[int, ...], Relation, Tuple[int, ...]]:
        """The labels, po rows, sw edges and hb rows of
        ``restrict_events(bits(mask))``, read off this execution's rows with
        no execution built: this execution's own on the full mask.

        ``restrict_events`` validates what it builds, and this skips that.
        It loses no check on the masks the walks name: hb-prefixes, and a
        library's projection of one, which keeps every crash of it.  Rows
        cut from closed, acyclic rows stay closed and acyclic, and po ∪ sw
        stays within hb.  An incomplete call's po-successors all lie
        po-after one of its immediate successors, which are crashes; such a
        mask keeps that crash with any successor it keeps, so the call's
        immediate successors are still crashes."""
        plain = self.plain
        if mask == (1 << len(plain)) - 1:
            return plain.lab, plain.po_order.rows, self.sw, self.hb_order.rows
        keep = list(bits(mask))
        po = plain.po_order.restrict(keep).rows
        hb = po if self.hb_order is plain.po_order else self.hb_order.restrict(keep).rows
        # an event's new id is the number of kept events below it
        sw = frozenset(
            ((mask & (1 << a) - 1).bit_count(), (mask & (1 << b) - 1).bit_count())
            for a, b in self.sw
            if mask >> a & mask >> b & 1
        )
        return tuple(plain.lab[e] for e in keep), po, sw, hb

    def __repr__(self) -> str:
        return (
            f"Execution({self.plain.labels()!r}, po={list(self.plain.po_reduced)!r}, "
            f"sw={sorted(self.sw)!r})"
        )


def restrict(x: Execution, owns: Callable[[Label], bool]) -> Execution:
    """Events labelled with the library's methods, crashes kept; relations
    cut.  ``x`` itself when it keeps every event."""
    keep = [e for e in x.events if x.lab[e].is_crash or owns(x.lab[e])]
    return x.restrict_events(keep)


def anonymize(owns: Callable[[Label], bool], x: Execution) -> Execution:
    """Replace foreign tagged calls by ⋆ labels; drop untagged foreign calls.
    ``x`` itself when it has no foreign call."""
    keep: List[int] = []
    relabel: Dict[int, Label] = {}
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or owns(l):
            keep.append(e)
        elif l.tags:
            keep.append(e)
            relabel[e] = star(l.tags, l.thread)
    if len(keep) == len(x) and not relabel:
        return x
    keep_sorted = sorted(keep)
    idx = {old: new for new, old in enumerate(keep_sorted)}
    labels = [relabel.get(e, x.lab[e]) for e in keep_sorted]
    sw = [(idx[a], idx[b]) for a, b in x.sw if a in idx and b in idx]
    # Crashes are kept and ⋆ labels are complete, so an incomplete call keeps
    # only crashes as immediate successors: the constructors cannot reject it.
    plain = PlainExecution(labels, x.plain.po_order.restrict(keep_sorted))
    return Execution(plain, sw, x.hb_order.restrict(keep_sorted))


# --------------------------------------------------------------------------
# History <-> execution conversion (SC mode)
# --------------------------------------------------------------------------


def history_to_execution(h: History) -> Execution:
    """Single-event calls with po per thread and hb = return-precedes-invocation.

    Crash markers become crash events acting as both invocation and return,
    after the calls.  Both orders are closed rows built from the call spans:
    an event's hb row holds the events that start after it ends, and a call
    pending at a crash ends just before the first crash after it starts; a
    call's po row keeps the same-thread calls and crashes of its hb row, and
    all after such a crash.
    """
    calls = h.calls()
    crash_positions = [i for i, e in enumerate(h.events) if isinstance(e, CrashEv)]
    labels = [c.label() for c in calls] + [CRASH] * len(crash_positions)
    spans = [(c.start, c.end) for c in calls] + [(p, p) for p in crash_positions]
    crashes = ((1 << len(crash_positions)) - 1) << len(calls)
    same_thread: Dict[int, int] = {}
    for i, c in enumerate(calls):
        same_thread[c.thread] = same_thread.get(c.thread, 0) | 1 << i
    by_start = sorted(range(len(spans)), key=lambda j: spans[j][0])
    starts = [spans[j][0] for j in by_start]
    later = [0] * (len(spans) + 1)  # later[k]: the events of by_start[k:]
    for k in reversed(range(len(spans))):
        later[k] = later[k + 1] | 1 << by_start[k]
    hb = [later[bisect_right(starts, end)] for _, end in spans]
    for i, c in enumerate(calls):
        k = len(calls) + bisect_right(crash_positions, c.start)
        if not c.is_complete and k < len(spans):
            hb[i] = 1 << k | hb[k]
    po = list(hb)
    for i, c in enumerate(calls):
        po[i] &= same_thread[c.thread] | crashes
        for k in bits(po[i] & crashes):
            po[i] |= hb[k]
    return Execution(PlainExecution(labels, Order(po)), hb=Order(hb))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def execution_to_dot(x: Execution) -> str:
    lines = ["digraph execution {", "  rankdir=TB;"]
    for e in x.events:
        l = x.lab[e]
        shape = "box" if l.is_crash else "ellipse"
        lines.append(f'  e{e} [label="{e}: {l!r}", shape={shape}];')
    for a, b in x.plain.po_reduced:
        lines.append(f"  e{a} -> e{b};")
    for a, b in sorted(x.sw):
        lines.append(f'  e{a} -> e{b} [style=dashed, label="sw", constraint=false];')
    lines.append("}")
    return "\n".join(lines)
