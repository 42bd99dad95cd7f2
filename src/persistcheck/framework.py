"""Library interfaces, specifications, and the collection-level checkers.

A library specification bundles an interface (method recognizer, constructor
subset, location function, tags) with four decision procedures: local /
global consistency and local / global well-formedness.  The checkers in this
module combine them over whole collections: per-library restriction, tag
anonymization, hereditary consistency (with a witness chain), encapsulation,
and well-formedness.

All predicates return three-valued :class:`Verdict` objects because several
of them hide existential witness searches that may hit a budget.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .model import (
    BOT,
    Execution,
    History,
    Label,
    PlainExecution,
    anonymize,
    bits,
    history_to_execution,
    immediate_prefix_masks,
)

if TYPE_CHECKING:
    from .sc import SequentialSpec

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
BUDGET = "budget-exceeded"


class SpecError(Exception):
    """Misuse of the framework (not a verdict)."""


class UnknownMethod(SpecError):
    pass


class DuplicateMethod(SpecError):
    pass


class BudgetExceeded(Exception):
    """Raised internally by searches; converted into Verdicts at the API."""

    def __init__(self, stats: Optional[Mapping] = None):
        super().__init__("budget exceeded")
        self.stats = dict(stats or {})


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""
    witness: object = None
    stats: Tuple[Tuple[str, object], ...] = ()

    def __bool__(self) -> bool:
        return self.status == CONSISTENT

    @property
    def is_budget(self) -> bool:
        return self.status == BUDGET

    @staticmethod
    def ok(witness: object = None, stats: Optional[Mapping] = None) -> "Verdict":
        return Verdict(CONSISTENT, witness=witness, stats=tuple(sorted((stats or {}).items())))

    @staticmethod
    def fail(reason: str, witness: object = None, stats: Optional[Mapping] = None) -> "Verdict":
        return Verdict(INCONSISTENT, reason=reason, witness=witness, stats=tuple(sorted((stats or {}).items())))

    @staticmethod
    def budget(stats: Optional[Mapping] = None) -> "Verdict":
        return Verdict(BUDGET, reason="budget exceeded", stats=tuple(sorted((stats or {}).items())))

    def __repr__(self) -> str:
        if self:
            return "Consistent"
        if self.is_budget:
            return f"BudgetExceeded({dict(self.stats)})"
        return f"Inconsistent({self.reason})"


def _always_ok(x) -> Verdict:
    return Verdict.ok()


# --------------------------------------------------------------------------
# Interfaces and specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LibraryInterface:
    """Method recognizer plus constructor subset, locations, and tags.

    ``methods`` maps method names to arities (None = any arity);
    ``method_tags`` gives interface-level tags attached to each call label
    (e.g. the durable tag on px86 stores).  ``loc`` extracts the location set
    from a completed-or-not call label.
    """

    name: str
    methods: Mapping[str, Optional[int]]
    constructors: FrozenSet[str] = frozenset()
    loc: Callable[[Label], FrozenSet[int]] = lambda l: frozenset()
    tags_introduced: FrozenSet[str] = frozenset()
    tags_used: FrozenSet[str] = frozenset()
    method_tags: Mapping[str, FrozenSet[str]] = field(default_factory=dict)
    #: the methods that return null.  With ``constructors`` it gives the
    #: interpreter's default call semantics: a void call returns null, a
    #: constructor takes as many fresh cells as ``loc`` gives it and returns
    #: the first, and any other call each value of the candidate domain.
    #: The checkers do not read it: a pending call's return stays open for
    #: its sequential spec to give.
    void: FrozenSet[str] = frozenset()
    #: optional interpreter hook: (method, argvalues, ctx) -> [(labels, ret)]
    #: where labels is a tuple of Label templates (thread filled in later),
    #: or None for the default call semantics.
    call_semantics: Optional[Callable] = None
    #: optional value flow: label -> (read, write), each a ``(loc, value)``
    #: pair or ``None``; a read value of ``BOT`` leaves the value open.
    #: Declaring it is a contract that two readers rely on to drop work
    #: before any check: ``lang.interpret_phases`` builds no unsourced run,
    #: and ``substitution.verify_impl_bounded`` builds no refinement of an
    #: unsourced concrete.  Local consistency requires every read to have a
    #: write at the same ``loc`` with the same value (any value for
    #: ``BOT``), made by another event of this library in the same era or
    #: an earlier one, and the library's ``sw_candidates`` offer ∅ on a
    #: graph with an unsourced read.
    value_flow: Optional[Callable[[Label], Tuple[Optional[Tuple], Optional[Tuple]]]] = None

    def __post_init__(self):
        if not set(self.constructors) <= set(self.methods):
            raise SpecError(f"{self.name}: constructors must be methods")
        if not set(self.void) <= set(self.methods) - set(self.constructors):
            raise SpecError(f"{self.name}: void names must be methods other than constructors")

    def owns(self, label: Label) -> bool:
        if label.is_crash or label.method is None:
            return False
        arity = self.methods.get(label.method, -1)
        if arity == -1:
            return False
        return arity is None or len(label.args) == arity

    def decorate(self, label: Label) -> Label:
        """Attach the interface's method tags to a call label."""
        extra = self.method_tags.get(label.method, frozenset())
        return label.with_tags(extra) if extra else label

    def locations(self, label: Label) -> FrozenSet[int]:
        if label.is_crash or label.method == "⋆":
            return frozenset()
        return self.loc(label)


def cell_loc(
    constructor: str, accessors: Iterable[str], constructor_cells: int = 1, accessor_cells: int = 1
) -> Callable[[Label], FrozenSet[int]]:
    """A ``LibraryInterface.loc``: a ``constructor`` call gives the
    ``constructor_cells`` consecutive cells from its return (none while that
    is ``None`` or ⊥), an ``accessors`` call the ``accessor_cells`` cells
    from its first argument, and any other call none."""
    accessors = frozenset(accessors)

    def loc(l: Label) -> FrozenSet[int]:
        if l.method in accessors:
            start, cells = l.args[0], accessor_cells
        elif l.method == constructor and l.ret is not None and l.ret is not BOT:
            start, cells = l.ret, constructor_cells
        else:
            return frozenset()
        # a single cell needs no arithmetic, so any value can name it
        return frozenset((start,)) if cells == 1 else frozenset(range(start, start + cells))

    return loc


CheckFn = Callable[[Execution], Verdict]


@dataclass(frozen=True)
class Seeded:
    """A ``local_consistent`` that reads its projection through a mask and
    replays a seed before it searches.  ``check(x, mask=..., seed=...)``
    decides the projection of ``x`` on the events of ``mask`` (which holds
    every crash po-before one of them).  ``seed`` is ``None`` or ``(other,
    witness)``: an OK witness the same check gave on the projection on
    another mask ``other``.  Only the check reads its witness: it replays
    what the witness says of ``mask``'s events, by a rule of its own, and
    searches only when that gives no witness.  The linearization checks
    search ``x`` itself with no candidate outside ``mask`` and replay the
    witness less the events they do not place (``sc.linearize``); Px86
    replays the witness cut to ``mask`` when ``other`` holds every event of
    ``mask`` and the witness sources its every read there, and otherwise
    searches the projection (``px86.px86_replay``).  Called on an execution alone, it
    checks all of it with no seed."""

    check: Callable[..., Verdict]

    def __call__(self, x: Execution) -> Verdict:
        return self.check(x, mask=(1 << len(x)) - 1, seed=None)


SwHook = Callable[[PlainExecution], Sequence[FrozenSet[Tuple[int, int]]]]
TagHook = Callable[[PlainExecution], Sequence[Mapping[int, FrozenSet[str]]]]


def _default_sw_hook(g: PlainExecution):
    return [frozenset()]


def _default_tag_hook(g: PlainExecution):
    return [{}]


@dataclass(frozen=True)
class LibrarySpec:
    """Interface + dependency set + the four decision procedures.

    The decision procedures operate on executions; SC histories are converted
    at the checker boundary.  ``sw_candidates`` and ``tag_candidates`` are
    witness hooks used by the refinement search: the former proposes
    synchronizes-with edge sets for this library's events, the latter
    proposes extra event taggings (e.g. persisted-set markers), applied to
    the whole execution so local and global predicates see one joint choice.

    The checkers never call a predicate or ``sw_candidates`` left at its
    default, so the restriction or anonymization it would read is never
    built (``Collection.register`` still tries each on the empty execution).

    ``local_consistent`` reads only the library's projection (its events and
    the crashes, with the po, sw and hb edges among them), and gives the
    same verdict, budget-exceeded included, on an equal one.  A plain check
    gets the projection as its argument; a ``Seeded`` one gets the walked
    execution and the projection's mask, and reads only the mask's events
    and the relations among them.  The prefix walks rely on this: they keep
    each library's verdict by the events of its projection and do not ask
    again while those stay the same.

    ``seq`` is the library's sequential spec, or ``None``.  Setting it states
    a contract that prefix pruning (``libs.sc_prune_factory``) relies on:
    each object (calls with one ``interface.locations``) accepts the calls
    of a totally ordered run in run order, and after a crash each object
    keeps a state it held before the crash.
    """

    interface: LibraryInterface
    deps: FrozenSet[str] = frozenset()
    local_consistent: CheckFn = _always_ok
    local_wellformed: CheckFn = _always_ok
    global_consistent: CheckFn = _always_ok
    global_wellformed: CheckFn = _always_ok
    sw_candidates: SwHook = _default_sw_hook
    tag_candidates: TagHook = _default_tag_hook
    seq: Optional["SequentialSpec"] = None

    @property
    def name(self) -> str:
        return self.interface.name


class Collection:
    """An immutable-after-build registry of library specifications."""

    def __init__(self, specs: Iterable[LibrarySpec] = ()):
        self._specs: Dict[str, LibrarySpec] = {}
        self._method_owner: Dict[str, LibrarySpec] = {}
        self._frozen = False
        for s in specs:
            self.register(s)

    def register(self, spec: LibrarySpec) -> "Collection":
        if self._frozen:
            raise SpecError("collection is frozen")
        if spec.name in self._specs:
            raise DuplicateMethod(f"library {spec.name} already registered")
        for m in spec.interface.methods:
            if m in self._method_owner:
                raise DuplicateMethod(
                    f"method {m} of {spec.name} clashes with {self._method_owner[m].name}"
                )
        self._check_deps(spec)
        empty = Execution(PlainExecution([], []))
        for pred_name in ("local_consistent", "local_wellformed", "global_consistent", "global_wellformed"):
            v = getattr(spec, pred_name)(empty)
            if v.is_budget:
                raise SpecError(f"{spec.name}.{pred_name} ran out of budget on the empty execution")
            if not v:
                raise SpecError(f"{spec.name}.{pred_name} rejects the empty execution")
        # a spec that fails a check above is not registered
        self._specs[spec.name] = spec
        for m in spec.interface.methods:
            self._method_owner[m] = spec
        return self

    def _check_deps(self, spec: LibrarySpec) -> None:
        """No dependency path leads back to ``spec``; ``freeze`` checks that
        each dependency is registered and provides the tags ``spec`` uses."""
        seen = set()
        stack = list(spec.deps)
        while stack:
            d = stack.pop()
            if d == spec.name:
                raise SpecError(f"dependency cycle through {d}")
            if d in seen:
                continue
            seen.add(d)
            if d in self._specs:
                stack.extend(self._specs[d].deps)

    def freeze(self) -> "Collection":
        for spec in self._specs.values():
            provided = set()
            for d in spec.deps:
                if d not in self._specs:
                    raise SpecError(f"{spec.name} depends on unregistered {d}")
                provided |= self._specs[d].interface.tags_introduced
            if not spec.interface.tags_used <= provided:
                raise SpecError(
                    f"{spec.name} uses tags {sorted(spec.interface.tags_used - provided)} "
                    "not provided by its dependencies"
                )
        self._frozen = True
        return self

    def specs(self) -> List[LibrarySpec]:
        return [self._specs[k] for k in sorted(self._specs)]

    def lookup(self, name: str) -> LibrarySpec:
        if name not in self._specs:
            raise UnknownMethod(f"no library named {name}")
        return self._specs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def library_of(self, method: str) -> Optional[LibrarySpec]:
        """The library declaring ``method`` by name, whatever the arity."""
        return self._method_owner.get(method)

    def owner_of(self, label: Label) -> Optional[LibrarySpec]:
        """The library declaring ``label``'s method with its arity; a crash
        (no method) and an anonymized ``⋆`` event have none."""
        spec = self._method_owner.get(label.method)
        if spec is None or label.method == "⋆":
            return None
        arity = spec.interface.methods[label.method]
        return spec if arity is None or len(label.args) == arity else None

    def decorate(self, label: Label) -> Label:
        """Attach interface tags; unknown labels pass through unchanged."""
        spec = self.owner_of(label)
        return spec.interface.decorate(label) if spec else label

    def tagdep(self) -> List[LibrarySpec]:
        """TagDep(coll): every library plus its declared tag dependencies."""
        names = set()
        for spec in self._specs.values():
            names.add(spec.name)
            names |= set(spec.deps)
        return [self._specs[n] for n in sorted(names) if n in self._specs]


# --------------------------------------------------------------------------
# Consistency
# --------------------------------------------------------------------------


def _as_execution(x) -> Execution:
    if isinstance(x, History):
        return history_to_execution(x)
    if isinstance(x, PlainExecution):
        return Execution(x)
    if isinstance(x, Prefix):
        return x.execution
    return x


def _owned_events(coll: Collection, x: Execution) -> Dict[str, List[int]]:
    owned: Dict[str, List[int]] = {s.name: [] for s in coll.specs()}
    for e in x.events:
        l = x.lab[e]
        if l.is_crash:
            continue
        spec = coll.owner_of(l)
        if spec is None:
            raise UnknownMethod(f"event {e} with label {l!r} matches no interface")
        owned[spec.name].append(e)
    return owned


class Owners:
    """The owner table of an execution ``x`` under a collection.

    One owner pass (``_owned_events``, which raises ``UnknownMethod`` on an
    event no library owns) gives each event's library, the sw edges of
    ``x`` that span two libraries, and per library the bit mask of its
    events and the crashes (``keeps``).  A prefix of ``x`` is named by the
    mask of the events it keeps (``prefix``), and a library's projection of
    it is the mask ``mask & keeps[library]``.  ``local`` holds each
    library's ``local_consistent`` verdict by that projected mask, so a walk
    that drops another library's event does not check this one again.  A
    ``Seeded`` check reads ``x`` itself through the projected mask, so no
    projection is built for it: it first replays its library's last OK
    verdict, kept as the projected mask and the witness (``placed``), as a
    prefix's witness less one hb-maximal event nearly always is one.  Any
    other check gets its projection cut from ``x`` (``cut``).  A table
    lives as long as the check or walk that built it."""

    def __init__(self, coll: Collection, x: Execution):
        self.coll, self.x = coll, x
        self.full = (1 << len(x)) - 1
        self.specs = coll.specs()
        self.owner: List[Optional[LibrarySpec]] = [None] * len(x)
        owner = self.owner
        owned, masks, crashes = _owned_events(coll, x), {}, self.full
        for spec in self.specs:
            mask = 0
            for e in owned[spec.name]:
                mask |= 1 << e
                owner[e] = spec
            masks[spec.name] = mask
            crashes &= ~mask
        # what no library owns is a crash: the owner pass raises on any other event
        self.keeps: Dict[str, int] = {name: mask | crashes for name, mask in masks.items()}
        # a crash has no owner: its edges span no library
        self.spanning = frozenset(
            (a, b) for a, b in x.sw if owner[a] is not None and owner[b] is not None and owner[a] is not owner[b]
        )
        self.local: Dict[Tuple[str, int], Verdict] = {}
        self.placed: Dict[str, Tuple[int, object]] = {}

    def prefix(self, mask: int) -> "Prefix":
        return Prefix(self, mask)

    def cut(self, p: "Prefix", mask: int) -> Execution:
        """The events of ``mask``, a subset of the prefix ``p``'s: ``p``'s
        own execution when that is all of them."""
        return p.execution if mask == p.mask else self.x.restrict_events(bits(mask))

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
                    v = self.local[key] = self._local(spec, p, key[1])
                if not v:
                    return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
            if spec.global_consistent is not _always_ok:
                v = spec.global_consistent(anonymize(spec.interface.owns, p.execution))
                if not v:
                    return Verdict(v.status, f"{spec.name}.global_consistent: {v.reason}", v.witness, v.stats)
        return Verdict.ok()

    def _local(self, spec: LibrarySpec, p: "Prefix", mask: int) -> Verdict:
        """``spec``'s local verdict on its projection of ``p``, the events of
        ``mask``."""
        check = spec.local_consistent
        if not isinstance(check, Seeded):
            return check(self.cut(p, mask))
        v = check.check(self.x, mask=mask, seed=self.placed.get(spec.name))
        if v:
            self.placed[spec.name] = (mask, v.witness)
        return v


class Prefix:
    """The prefix on the events of ``mask`` of an owner table's execution.
    ``check_consistent``, ``check_hereditarily_consistent`` and
    ``check_immediately_wellformed`` take it in place of an execution and ask
    its table.  Its exact key is read off the table's execution by the mask
    (``Execution.key``); the prefix execution itself is built only when
    read, and on the table's full mask it is the table's execution."""

    def __init__(self, owners: Owners, mask: int):
        self.owners, self.mask = owners, mask

    @cached_property
    def execution(self) -> Execution:
        owners = self.owners
        return owners.x if self.mask == owners.full else owners.x.restrict_events(bits(self.mask))


def _prefix(coll: Collection, x) -> Prefix:
    """``x`` as a prefix whose table is ``coll``'s: a ``Prefix`` of such a
    table as it is, anything else whole, with a table of its own."""
    if isinstance(x, Prefix) and x.owners.coll is coll:
        return x
    owners = Owners(coll, _as_execution(x))
    return owners.prefix(owners.full)


#: The memo of the open ``shared_verdicts`` scope, or None.  Only
#: ``shared_call`` reads or writes the memo's entries.
_VERDICTS: ContextVar[Optional[Dict[tuple, object]]] = ContextVar("persistcheck_verdicts", default=None)
_MISSING = object()


@contextmanager
def shared_verdicts(memo: Optional[Dict[tuple, object]] = None) -> Iterator[None]:
    """A scope in which ``shared_call`` keeps what it computes: the verdicts
    of ``check_consistent``, the Px86 witness searches, and the lifting steps
    and hereditary verdicts of ``verify_impl_bounded``.  Every spec's budget
    is fixed when the spec is built, so a kept verdict is the one the check
    would compute again.  The outermost scope keeps its entries in ``memo``,
    or in a new empty one: a caller that passes the same memo to each of its
    scopes, as ``verify_impl_bounded`` passes its ``SemanticImpl``'s, shares
    the entries between them, and the memo holds them, and the memory they
    take, until the caller drops it.  Without a memo the entries are
    dropped when the scope closes.  A nested scope uses the outer memo.  It
    also works as a decorator, so each call of the decorated function is
    one scope."""
    if _VERDICTS.get() is not None:
        yield
        return
    token = _VERDICTS.set({} if memo is None else memo)
    try:
        yield
    finally:
        _VERDICTS.reset(token)


def shared_call(key: tuple, compute: Callable[[], object]) -> object:
    """``compute()``, run once per ``key`` inside a ``shared_verdicts`` scope
    and returned again on later calls with an equal key; outside a scope
    nothing is kept.  The key's first item names the computation, so the
    keys of different callers never meet, and the rest must hold everything
    the computation reads.  The one rule: an outcome that ran out of budget,
    raised (``BudgetExceeded``) or returned (a budget ``Verdict``), is never
    kept, since a later call may decide it (a replayed seed needs no search)."""
    memo = _VERDICTS.get()
    if memo is None:
        return compute()
    out = memo.get(key, _MISSING)  # one lookup: a key of labels hashes slowly
    if out is _MISSING:
        out = compute()
        if not (isinstance(out, Verdict) and out.is_budget):
            memo[key] = out
    return out


def check_consistent(coll: Collection, x) -> Verdict:
    """Per-library restriction and anonymization consistency (plus the sw
    decomposition condition) of an execution, a history, or a ``Prefix``
    of a walk, which is asked of its walk's owner table.

    Inside a ``shared_verdicts`` scope the verdict goes through
    ``shared_call``, keyed by the collection (by identity) and the exact
    prefix execution's labels, po rows, sw edges and hb rows, read off the
    owner table's execution by the prefix's mask (``Execution.key``).  The
    prefix execution is built only when a computed verdict reads it: a
    library check that is not ``Seeded``, a global predicate, or the name
    of an sw edge that spans two libraries.  A kept verdict builds none."""
    p = _prefix(coll, x)
    if _VERDICTS.get() is None:
        return _check_consistent(coll, p)
    return shared_call((coll,) + p.owners.x.key(p.mask), lambda: _check_consistent(coll, p))


def _check_consistent(coll: Collection, x) -> Verdict:
    """``check_consistent`` without the shared verdicts.  A library's
    projection is read through its mask of the owner table's execution by
    a ``Seeded`` check and cut from it for any other; a predicate left at
    its default is not called, so its projection is not built."""
    p = _prefix(coll, x)
    return p.owners.consistent(p)


class HereditaryChain:
    """Witness of hereditary consistency: executions from empty to X, plus
    (execution mode) the event-id subsets of X each step corresponds to.

    Given ``source`` (X) in place of ``chain``, the chain is X restricted to
    each subset, built when ``chain`` is first read: callers that read only
    ``subsets`` build nothing."""

    def __init__(
        self,
        chain: Optional[List] = None,
        subsets: Optional[List[FrozenSet[int]]] = None,
        source: Optional[Execution] = None,
    ):
        if chain is not None:
            self.chain = chain
        self.subsets = subsets
        self._source = source

    @cached_property
    def chain(self) -> List:
        return [self._source.restrict_events(s) for s in self.subsets]

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self):
        return iter(self.chain)

    def __getitem__(self, i):
        return self.chain[i]

    def __repr__(self) -> str:
        return f"HereditaryChain({[len(c) for c in self.chain]})"


def check_hereditarily_consistent(
    coll: Collection, x, budget: int = 10_000
) -> Verdict:
    """Existence of a chain ∅ ⊏ … ⊏ X of consistent executions.

    For histories, every prefix h[1..k] is checked (SC mode); for executions,
    the search walks immediate prefixes (one hb-maximal event removed),
    memoizing each prefix's chain by the subset of ``x``'s event ids it keeps.
    ``x`` may be a ``Prefix``, as for ``check_immediately_wellformed``, so
    that the two checks of one execution share its owner table; the walk
    then reads that table's execution through the prefix's mask.
    One owner table serves the walk: each prefix goes to ``check_consistent``
    as a ``Prefix`` of it, and a library's local verdict is computed once
    per projection, so dropping another library's event does not check it
    again.  A library whose check is ``Seeded`` reads ``x`` through its
    projection's mask, so its hb predecessors and era-before are derived
    once per walk and no projection is built; it first replays its last OK
    witness of the walk and searches only if that fails.  Any other library's
    projection is cut straight from ``x``.  The mask memo and the table
    live for this call only; the consistency verdicts of the prefixes are
    shared beyond it, with every other check of the same exact execution,
    only inside a ``shared_verdicts`` scope.  The witness is the chain,
    given by its subsets and built only when read.  A prefix whose
    consistency check runs out of budget is neither consistent nor refuted:
    unless a chain avoids it, the verdict is budget-exceeded.
    """
    if isinstance(x, History):
        chain: List[History] = []
        for k in range(len(x) + 1):
            p = x.prefix(k)
            v = check_consistent(coll, p)
            if not v:
                return Verdict(v.status, f"prefix h[1..{k}]: {v.reason}", p, v.stats)
            chain.append(p)
        return Verdict.ok(witness=HereditaryChain(chain))

    top = _prefix(coll, x)
    owners = top.owners
    hb_rows = owners.x.hb_order.rows
    memo: Dict[int, Optional[List[int]]] = {}
    explored = 0
    stalled: List[Verdict] = []

    def search(mask: int) -> Optional[List[int]]:
        nonlocal explored
        if not mask:
            return [mask]
        if mask in memo:
            return memo[mask]
        explored += 1
        if explored > budget:
            raise BudgetExceeded({"explored": explored})
        result: Optional[List[int]] = None
        v = check_consistent(coll, owners.prefix(mask))
        if v.is_budget:
            stalled.append(v)
        if v:
            for smaller in immediate_prefix_masks(hb_rows, mask):
                res = search(smaller)
                if res is not None:
                    result = res + [mask]
                    break
        memo[mask] = result
        return result

    try:
        masks = search(top.mask)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if masks is None:
        if stalled:
            return stalled[0]
        return Verdict.fail("no consistent immediate-prefix chain", witness=None)
    # the subsets name the events of the prefix's own execution
    ids = {e: i for i, e in enumerate(bits(top.mask))}
    subsets = [frozenset(ids[e] for e in bits(m)) for m in masks]
    return Verdict.ok(witness=HereditaryChain(subsets=subsets, source=top.execution))


# --------------------------------------------------------------------------
# Encapsulation and well-formedness
# --------------------------------------------------------------------------


def _encapsulated(x: Execution, owner: Sequence[Optional[LibrarySpec]], mask: int) -> bool:
    """``check_encapsulated`` of the prefix of ``x`` on ``mask``, given each
    event's library (None for an event that carries no locations)."""
    hb = x.hb_order.rows
    ctors: List[Tuple[int, str, FrozenSet[int]]] = []
    uses: List[Tuple[int, str, FrozenSet[int]]] = []
    for e in bits(mask):
        spec = owner[e]
        if spec is None:
            continue
        locs = spec.interface.locations(x.lab[e])
        if x.lab[e].method in spec.interface.constructors:
            ctors.append((e, spec.name, locs))
        elif locs:
            uses.append((e, spec.name, locs))
    if any(a[2] & b[2] for a, b in itertools.combinations(ctors, 2)):
        return False
    return all(
        any(clib == lib and locs <= clocs and hb[c] >> e & 1 for c, clib, clocs in ctors) for e, lib, locs in uses
    )


def check_encapsulated(coll: Collection, x) -> bool:
    """Constructor locations pairwise disjoint; uses are hb-after a covering
    same-library constructor.  ⋆ events, crashes and events no library owns
    carry no locations."""
    x = _as_execution(x)
    return _encapsulated(x, [coll.owner_of(x.lab[e]) for e in x.events], (1 << len(x)) - 1)


def check_immediately_wellformed(coll: Collection, x) -> Verdict:
    """Encapsulation and every library's well-formedness predicates, of an
    execution or a ``Prefix`` of a walk.  Local predicates read the owner
    table's projections, so an event no library owns raises
    ``UnknownMethod``, as in ``check_consistent``."""
    p = _prefix(coll, x)
    owners = p.owners
    if not _encapsulated(owners.x, owners.owner, p.mask):
        return Verdict.fail("not encapsulated")
    for spec in owners.specs:
        if spec.local_wellformed is _always_ok:
            continue
        v = spec.local_wellformed(owners.cut(p, p.mask & owners.keeps[spec.name]))
        if not v:
            return Verdict(v.status, f"{spec.name}.wellformed: {v.reason}", v.witness, v.stats)
    for spec in coll.tagdep():
        if spec.global_wellformed is _always_ok:
            continue
        v = spec.global_wellformed(anonymize(spec.interface.owns, p.execution))
        if not v:
            return Verdict(v.status, f"{spec.name}.global_wellformed: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


def check_wellformed(coll: Collection, x, budget: int = 10_000) -> Verdict:
    """For all G'' ⊏_imm G' ⊑ X: if G'' is consistent then G' is immediately
    well-formed.  Walks the prefix lattice depth first, naming each prefix
    by the subset of ``x``'s event ids it keeps; ``budget`` bounds the number
    of distinct subsets visited.  One owner table serves the walk: each
    prefix's consistency is checked once, each library's local consistency
    once per projection, and an event no library owns raises
    ``UnknownMethod`` before the walk starts.

    A prefix none of whose immediate prefixes is consistent, but one of which
    ran out of budget, may still owe well-formedness: if it is not immediately
    well-formed, the verdict is budget-exceeded unless a definite failure is
    found elsewhere."""
    x = _as_execution(x)
    owners = Owners(coll, x)
    hb_rows = x.hb_order.rows
    consistent: Dict[int, Verdict] = {}
    seen = set()
    stack = [owners.full]
    stalled: List[Verdict] = []
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if len(seen) > budget:
            return Verdict.budget({"explored": len(seen)})
        prevs = immediate_prefix_masks(hb_rows, cur)
        owed = not cur
        undecided: Optional[Verdict] = None
        for p in prevs:
            pv = consistent.get(p)
            if pv is None:
                pv = consistent[p] = check_consistent(coll, owners.prefix(p))
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            g = owners.prefix(cur)
            v = check_immediately_wellformed(coll, g)
            if not v:
                reason = f"prefix of size {cur.bit_count()}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, g.execution, v.stats)
                stalled.append(
                    Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", g.execution, undecided.stats)
                )
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()
