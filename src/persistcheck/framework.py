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
    restrict,
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
    #: return kind per method, read only by the interpreter's default call
    #: semantics: "value" (ranges over the candidate domain), "void" (null),
    #: or "loc" (fresh locations, as many cells as ``loc`` gives the call,
    #: returning the first); default "value".  The checkers do not read it:
    #: a pending call's return stays open for its sequential spec to give.
    returns: Mapping[str, str] = field(default_factory=dict)
    #: optional interpreter hook: (method, argvalues, ctx) -> [(labels, ret)]
    #: where labels is a tuple of Label templates (thread filled in later).
    call_semantics: Optional[Callable] = None
    #: optional value flow: label -> (read, write), each a ``(loc, value)``
    #: pair or ``None``; a read value of ``BOT`` leaves the value open.
    #: Declaring it is a contract that ``lang.interpret_phases`` relies on to
    #: drop runs before they are checked: local consistency requires every
    #: read to have a write at the same ``loc`` with the same value (any
    #: value for ``BOT``), made by another event of this library in the
    #: same era or an earlier one.
    value_flow: Optional[Callable[[Label], Tuple[Optional[Tuple], Optional[Tuple]]]] = None

    def __post_init__(self):
        if not set(self.constructors) <= set(self.methods):
            raise SpecError(f"{self.name}: constructors must be methods")

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
        self._method_owner: Dict[str, str] = {}
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
                    f"method {m} of {spec.name} clashes with {self._method_owner[m]}"
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
            self._method_owner[m] = spec.name
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

    def owner_of(self, label: Label) -> Optional[LibrarySpec]:
        if label.is_crash:
            return None
        if label.method == "⋆":
            return None
        name = self._method_owner.get(label.method)
        if name is None:
            return None
        spec = self._specs[name]
        return spec if spec.interface.owns(label) else None

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


#: The decided verdicts of the open ``shared_verdicts`` scope, or None.
_VERDICTS: ContextVar[Optional[Dict[tuple, Verdict]]] = ContextVar("persistcheck_verdicts", default=None)


@contextmanager
def shared_verdicts() -> Iterator[None]:
    """A scope in which ``check_consistent`` keeps its decided verdicts.

    The memo holds OK and FAIL verdicts, never budget-exceeded ones, keyed
    exactly by the collection (by identity) and the execution's labels, po
    rows, sw edges and hb rows.  Every spec's budget is fixed when the spec
    is built, so a stored verdict is the one the check would compute again.
    The memo starts empty when the outermost scope opens and is dropped when
    it closes; a nested scope uses the outer memo.  It also works as a
    decorator, so each call of the decorated function is one scope.
    """
    if _VERDICTS.get() is not None:
        yield
        return
    token = _VERDICTS.set({})
    try:
        yield
    finally:
        _VERDICTS.reset(token)


def check_consistent(coll: Collection, x) -> Verdict:
    """Per-library restriction and anonymization consistency (plus the sw
    decomposition condition).

    Inside a ``shared_verdicts`` scope a decided verdict is computed once per
    exact execution and returned again on later calls; a budget-exceeded
    verdict is recomputed each time.  Outside a scope nothing is kept."""
    verdicts = _VERDICTS.get()
    if verdicts is None:
        return _check_consistent(coll, x)
    x = _as_execution(x)
    key = (coll, tuple(x.plain.labels()), x.plain.po_order.rows, x.sw, x.hb_order.rows)
    v = verdicts.get(key)
    if v is None:
        v = _check_consistent(coll, x)
        if not v.is_budget:
            verdicts[key] = v
    return v


def _check_consistent(coll: Collection, x) -> Verdict:
    """``check_consistent`` without the shared verdicts."""
    x = _as_execution(x)
    if x.is_empty():
        return Verdict.ok()
    owned = _owned_events(coll, x)
    crashes = {e for e in x.events if x.lab[e].is_crash}
    for a, b in x.sw:
        if a in crashes or b in crashes:
            continue
        if not any(a in set(evs) and b in set(evs) for evs in owned.values()):
            return Verdict.fail(f"sw edge ({a},{b}) spans two libraries")
    for spec in coll.specs():
        rx = restrict(x, spec.interface.owns)
        v = spec.local_consistent(rx)
        if not v:
            return Verdict(v.status, f"{spec.name}.consistent: {v.reason}", v.witness, v.stats)
        ax = anonymize(spec.interface.owns, x)
        v = spec.global_consistent(ax)
        if not v:
            return Verdict(v.status, f"{spec.name}.global_consistent: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


class HereditaryChain:
    """Witness of hereditary consistency: executions from empty to X, plus
    (execution mode) the event-id subsets of X each step corresponds to."""

    def __init__(self, chain: List, subsets: Optional[List[FrozenSet[int]]] = None):
        self.chain = chain
        self.subsets = subsets

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
    That mask memo lives for this call only; the consistency verdicts of the
    prefixes are shared beyond it, with every other check of the same exact
    execution, only inside a ``shared_verdicts`` scope.  The witness is the
    chain.  A prefix whose consistency check runs out of budget is neither
    consistent nor refuted: unless a chain avoids it, the verdict is
    budget-exceeded.
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

    x = _as_execution(x)
    hb_rows = x.hb_order.rows
    memo: Dict[int, Optional[List[int]]] = {}
    explored = 0
    stalled: List[Verdict] = []

    def sub(mask: int) -> Execution:
        return x.restrict_events(bits(mask))

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
        v = check_consistent(coll, sub(mask))
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
        masks = search((1 << len(x)) - 1)
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if masks is None:
        if stalled:
            return stalled[0]
        return Verdict.fail("no consistent immediate-prefix chain", witness=None)
    subsets = [frozenset(bits(m)) for m in masks]
    return Verdict.ok(witness=HereditaryChain([sub(m) for m in masks], subsets))


# --------------------------------------------------------------------------
# Encapsulation and well-formedness
# --------------------------------------------------------------------------


def check_encapsulated(coll: Collection, x) -> bool:
    """Constructor locations pairwise disjoint; uses are hb-after a covering
    same-library constructor.  ⋆ events carry no locations."""
    x = _as_execution(x)
    hb = x.hb_order.rows
    ctors: List[Tuple[int, str, FrozenSet[int]]] = []
    uses: List[Tuple[int, str, FrozenSet[int]]] = []
    for e in x.events:
        spec = coll.owner_of(x.lab[e])
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


def check_immediately_wellformed(coll: Collection, x) -> Verdict:
    x = _as_execution(x)
    if not check_encapsulated(coll, x):
        return Verdict.fail("not encapsulated")
    for spec in coll.specs():
        rx = restrict(x, spec.interface.owns)
        v = spec.local_wellformed(rx)
        if not v:
            return Verdict(v.status, f"{spec.name}.wellformed: {v.reason}", v.witness, v.stats)
    for spec in coll.tagdep():
        ax = anonymize(spec.interface.owns, x)
        v = spec.global_wellformed(ax)
        if not v:
            return Verdict(v.status, f"{spec.name}.global_wellformed: {v.reason}", v.witness, v.stats)
    return Verdict.ok()


def check_wellformed(coll: Collection, x, budget: int = 10_000) -> Verdict:
    """For all G'' ⊏_imm G' ⊑ X: if G'' is consistent then G' is immediately
    well-formed.  Walks the prefix lattice depth first, naming each prefix
    by the subset of ``x``'s event ids it keeps; ``budget`` bounds the number
    of distinct subsets visited, and each prefix's consistency is checked
    once per walk.

    A prefix none of whose immediate prefixes is consistent, but one of which
    ran out of budget, may still owe well-formedness: if it is not immediately
    well-formed, the verdict is budget-exceeded unless a definite failure is
    found elsewhere."""
    x = _as_execution(x)
    hb_rows = x.hb_order.rows
    consistent: Dict[int, Verdict] = {}
    seen = set()
    stack = [(1 << len(x)) - 1]
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
                pv = consistent[p] = check_consistent(coll, x.restrict_events(bits(p)))
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            g = x.restrict_events(bits(cur))
            v = check_immediately_wellformed(coll, g)
            if not v:
                reason = f"prefix of size {len(g)}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, g, v.stats)
                stalled.append(Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", g, undecided.stats))
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()
