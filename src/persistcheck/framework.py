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

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .model import (
    Execution,
    History,
    Label,
    Order,
    PlainExecution,
    anonymize,
    execution_canonical_hash,
    history_to_execution,
    immediate_prefixes_execution,
    restrict,
)

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
    preds = order.preds()
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


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""
    witness: object = None
    stats: Tuple[Tuple[str, int], ...] = ()

    def __bool__(self) -> bool:
        return self.status == CONSISTENT

    @property
    def is_budget(self) -> bool:
        return self.status == BUDGET

    @staticmethod
    def ok(witness: object = None) -> "Verdict":
        return Verdict(CONSISTENT, witness=witness)

    @staticmethod
    def fail(reason: str, witness: object = None) -> "Verdict":
        return Verdict(INCONSISTENT, reason=reason, witness=witness)

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
    #: return kind per method: "value" (ranges over the candidate domain),
    #: "void" (null), or "loc" (fresh location); default "value".
    returns: Mapping[str, str] = field(default_factory=dict)
    #: optional interpreter hook: (method, argvalues, ctx) -> [(labels, ret)]
    #: where labels is a tuple of Label templates (thread filled in later).
    call_semantics: Optional[Callable] = None

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

    def owns_method(self, method: str) -> bool:
        return method in self.methods

    def tags_of(self) -> FrozenSet[str]:
        return self.tags_introduced | self.tags_used

    def decorate(self, label: Label) -> Label:
        """Attach the interface's method tags to a call label."""
        extra = self.method_tags.get(label.method, frozenset())
        return label.with_tags(extra) if extra else label

    def locations(self, label: Label) -> FrozenSet[int]:
        if label.is_crash or label.method == "⋆":
            return frozenset()
        return self.loc(label)


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
    """

    interface: LibraryInterface
    deps: FrozenSet[str] = frozenset()
    local_consistent: CheckFn = _always_ok
    local_wellformed: CheckFn = _always_ok
    global_consistent: CheckFn = _always_ok
    global_wellformed: CheckFn = _always_ok
    sw_candidates: SwHook = _default_sw_hook
    tag_candidates: TagHook = _default_tag_hook

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
        self._specs[spec.name] = spec
        for m in spec.interface.methods:
            self._method_owner[m] = spec.name
        self._check_tags_and_deps(spec)
        empty = Execution(PlainExecution([], []))
        for pred_name in ("local_consistent", "local_wellformed", "global_consistent", "global_wellformed"):
            if not getattr(spec, pred_name)(empty):
                raise SpecError(f"{spec.name}.{pred_name} rejects the empty execution")
        return self

    def _check_tags_and_deps(self, spec: LibrarySpec) -> None:
        provided = set()
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
                provided |= self._specs[d].interface.tags_introduced
                stack.extend(self._specs[d].deps)
        missing = spec.interface.tags_used - provided
        if missing and spec.deps:
            # deps not yet registered may provide them later; re-checked on freeze
            pass

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

    def resolve(self, label: Label) -> LibrarySpec:
        spec = self.owner_of(label)
        if spec is None and not label.is_crash and label.method != "⋆":
            raise UnknownMethod(f"no registered library owns {label!r}")
        if spec is None:
            raise UnknownMethod(f"label {label!r} has no owner")
        return spec

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


def check_consistent(coll: Collection, x) -> Verdict:
    """Per-library restriction and anonymization consistency (plus the sw
    decomposition condition)."""
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
    memoizing verdicts by the subset of ``x``'s event ids each prefix keeps.
    The witness is the chain.  A prefix whose consistency check runs out of
    budget is neither consistent nor refuted: unless a chain avoids it, the
    verdict is budget-exceeded.
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
    memo: Dict[FrozenSet[int], Optional[List[FrozenSet[int]]]] = {}
    explored = 0
    stalled: List[Verdict] = []

    def sub(ids: FrozenSet[int]) -> Execution:
        return x.restrict_events(ids)

    hb_rows = x.hb_order.rows

    def max_events(ids: FrozenSet[int]) -> List[int]:
        mask = sum(1 << e for e in ids)
        return [e for e in sorted(ids) if not hb_rows[e] & mask]

    def search(ids: FrozenSet[int]) -> Optional[List[FrozenSet[int]]]:
        nonlocal explored
        if not ids:
            return [ids]
        if ids in memo:
            return memo[ids]
        explored += 1
        if explored > budget:
            raise BudgetExceeded({"explored": explored})
        result: Optional[List[FrozenSet[int]]] = None
        v = check_consistent(coll, sub(ids))
        if v.is_budget:
            stalled.append(v)
        if v:
            for e in max_events(ids):
                res = search(ids - {e})
                if res is not None:
                    result = res + [ids]
                    break
        memo[ids] = result
        return result

    try:
        subsets = search(frozenset(x.events))
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if subsets is None:
        if stalled:
            return stalled[0]
        return Verdict.fail("no consistent immediate-prefix chain", witness=None)
    chain2 = [sub(s) for s in subsets]
    return Verdict.ok(witness=HereditaryChain(chain2, subsets))


def _same_execution(a: Execution, b: Execution) -> bool:
    from .model import execution_iso_eq

    return execution_iso_eq(a, b)


# --------------------------------------------------------------------------
# Encapsulation and well-formedness
# --------------------------------------------------------------------------


def check_encapsulated(coll: Collection, x) -> bool:
    """Constructor locations pairwise disjoint; uses are hb-after a covering
    same-library constructor.  ⋆ events carry no locations."""
    x = _as_execution(x)
    ctors: List[Tuple[int, str, FrozenSet[int]]] = []
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or l.method == "⋆":
            continue
        spec = coll.owner_of(l)
        if spec is None:
            continue
        if l.method in spec.interface.constructors:
            ctors.append((e, spec.name, spec.interface.locations(l)))
    for i in range(len(ctors)):
        for j in range(i + 1, len(ctors)):
            if ctors[i][2] & ctors[j][2]:
                return False
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or l.method == "⋆":
            continue
        spec = coll.owner_of(l)
        if spec is None:
            continue
        if l.method in spec.interface.constructors:
            continue
        locs = spec.interface.locations(l)
        if not locs:
            continue
        if not any(
            lib == spec.name and locs <= clocs and (c, e) in x.hb
            for c, lib, clocs in ctors
        ):
            return False
    return True


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
    well-formed.  Walks the prefix lattice with iso-hash memoization.

    A prefix none of whose immediate prefixes is consistent, but one of which
    ran out of budget, may still owe well-formedness: if it is not immediately
    well-formed, the verdict is budget-exceeded unless a definite failure is
    found elsewhere."""
    x = _as_execution(x)
    seen: Dict[int, List[Execution]] = {}
    explored = 0
    stack: List[Execution] = [x]
    stalled: List[Verdict] = []
    while stack:
        cur = stack.pop()
        h = execution_canonical_hash(cur)
        if any(len(o) == len(cur) and _same_execution(o, cur) for o in seen.get(h, [])):
            continue
        seen.setdefault(h, []).append(cur)
        explored += 1
        if explored > budget:
            return Verdict.budget({"explored": explored})
        prevs = immediate_prefixes_execution(cur)
        owed = cur.is_empty()
        undecided: Optional[Verdict] = None
        for p in prevs:
            pv = check_consistent(coll, p)
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            v = check_immediately_wellformed(coll, cur)
            if not v:
                reason = f"prefix of size {len(cur)}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, cur, v.stats)
                stalled.append(Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", cur, undecided.stats))
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()
