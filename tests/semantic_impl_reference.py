"""``SemanticImpl`` and its ``_Block`` before the implementation kept one
table of interpretations and one of blocks, kept verbatim as test
references: graphs per label and base in ``_cache``, complete runs by
return value in ``_returns``, interpretations and exhausted runs in
``_interps`` and ``_exhausted``, and members' unthreaded label sequences in
``_members``.  ``_po_sequence`` and ``_strip_thread``, which left
``persistcheck.substitution`` with them, are the ones in ``definitions``."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from definitions import _po_sequence, _strip_thread
from persistcheck import lang
from persistcheck.framework import BudgetExceeded, Collection
from persistcheck.lang import InterpConfig, Interpretation, Prog, SyntacticImpl
from persistcheck.model import BOT, Label, PlainExecution
from persistcheck.substitution import _unthreaded


class _Block:
    """A member ``inner`` of an implementation as ``exec_bind`` places it,
    with what it adds to a concrete's sourcing and encapsulation under the
    implementation's low collection, worked out once per member:

    * ``writes``: the value-flow keys its events write (``lang.ValueFlow``).
    * ``needs``: per key that one of its events reads and no other of its
      events writes, whether the block writes it (then only by that reader).
    * ``ctors``: per constructor with locations, its library and locations.
    * ``uses``: per use (a call with locations that is no constructor) that
      no po-earlier constructor of the block covers, its library and
      locations.
    * ``owned``: every event is a crash or owned by a library.

    Its labels on a thread (``on``) are built once per thread."""

    __slots__ = ("rows", "allocs", "writes", "needs", "ctors", "uses", "owned", "_labels", "_on")

    def __init__(self, inner: PlainExecution, impl: "SemanticImpl"):
        coll = impl.coll_low
        self.rows, self.allocs = inner.po_order.rows, impl.alloc_count(inner)
        self._labels, self._on = inner.labels(), {}
        flows = [impl._flow.of(l) for l in self._labels]
        writers: Dict[tuple, int] = {}
        for _, ws in flows:
            for w in ws:
                writers[w] = writers.get(w, 0) + 1
        self.writes = frozenset(writers)
        needs: Dict[tuple, bool] = {}
        for r, ws in flows:
            if r is not None and writers.get(r, 0) <= (r in ws):
                needs[r] = r in ws
        self.needs = tuple(needs.items())
        ctors: List[Tuple[int, str, FrozenSet]] = []
        uses: List[Tuple[int, str, FrozenSet]] = []
        self.owned = True
        for e, l in enumerate(self._labels):
            spec = coll.owner_of(l)
            if spec is None:
                self.owned = self.owned and l.is_crash
                continue
            locs = spec.interface.locations(l)
            if locs:
                (ctors if l.method in spec.interface.constructors else uses).append((e, spec.name, locs))
        self.ctors = tuple((lib, locs) for _, lib, locs in ctors)
        self.uses = tuple(
            (lib, locs)
            for e, lib, locs in uses
            if not any(clib == lib and locs <= clocs and self.rows[c] >> e & 1 for c, clib, clocs in ctors)
        )

    def on(self, thread: Optional[int]) -> Tuple[Label, ...]:
        """Its labels, each call's on ``thread``."""
        got = self._on.get(thread)
        if got is None:
            got = self._on[thread] = tuple(
                l if l.is_crash or l.thread == thread else replace(l, thread=thread) for l in self._labels
            )
        return got


class SemanticImpl:
    """A map from method-call labels to sets of plain executions, downward
    closed, realized by interpreting a syntactic implementation's bodies.
    Each body runs as one thread, so every member is a chain.

    Implementations with private globals are not supported here (their state
    couples distinct calls); verify such libraries end to end through the
    interpreter instead.
    """

    def __init__(self, syn: SyntacticImpl, coll_low: Collection, config: InterpConfig = InterpConfig()):
        if syn.globals:
            raise ValueError(
                "semantic implementations of libraries with private globals are unsupported"
            )
        self.syn = syn
        self.coll_low = coll_low
        self.config = config
        self.methods = syn.method_names()
        self._alloc_methods = frozenset(
            m for s in coll_low.specs() for m in s.interface.constructors
        )
        self._cache: Dict[Tuple, List[PlainExecution]] = {}
        #: per ``executions`` key, its members as the bind places them
        self._blocks: Dict[Tuple, List[_Block]] = {}
        self._flow = lang.ValueFlow(coll_low)
        #: per (method, args, location base), its interpretation's complete
        #: runs by return value
        self._returns: Dict[Tuple, Dict[object, List[PlainExecution]]] = {}
        #: per (method, args, location base), its interpretation
        self._interps: Dict[Tuple, Interpretation] = {}
        #: per (method, args, location base) whose interpretation ran out of
        #: runs, the stats it raised with
        self._exhausted: Dict[Tuple, Dict] = {}
        #: per ``executions`` key, its members' labels without threads, in po order
        self._members: Dict[Tuple, FrozenSet[Tuple]] = {}

    def owns(self, label: Label) -> bool:
        return label.is_call and label.method in self.methods

    def alloc_count(self, g: PlainExecution) -> int:
        return sum(1 for e in g.events if g.lab[e].method in self._alloc_methods)

    def _interpret(self, method: str, args: Tuple, loc_start: int) -> Interpretation:
        params, body = self.syn.methods[method]
        if len(params) != len(args):
            raise ValueError(f"arity mismatch calling {method}")
        env = {"null": None}
        env.update(dict(zip(params, args)))
        prog = Prog(threads={0: body})
        return Interpretation(prog, self.coll_low, self.config, globals_env=env, loc_start=loc_start)

    def executions(self, label: Label, loc_start: int) -> List[PlainExecution]:
        """Plain executions implementing the call.  Complete labels map to
        complete runs returning the label's value; incomplete labels map to
        every partial run.  Empty pomsets are excluded (bind drops events
        otherwise, breaking surjectivity of the matching).  The runs are kept
        per label and location base.  The body does not read the return
        value, so it is interpreted once per method, arguments and base, and
        its complete runs are kept grouped by return value; an
        interpretation that runs out of runs keeps its ``BudgetExceeded``,
        which is raised again."""
        if not self.owns(label):
            raise ValueError(f"label {label!r} is not implemented by {self.syn.name}")
        key = (label.method, label.args, label.ret, loc_start)
        if key in self._cache:
            return self._cache[key]
        run_key = (label.method, label.args, loc_start)
        if run_key in self._exhausted:
            raise BudgetExceeded(self._exhausted[run_key])
        it = self._interps.get(run_key)
        if it is None:
            try:
                it = self._interps[run_key] = self._interpret(label.method, label.args, loc_start)
            except BudgetExceeded as e:
                self._exhausted[run_key] = e.stats
                raise
        if label.ret is BOT:
            graphs = [g for g in it.partial_executions() if not g.is_empty()]
        else:
            want = label.ret
            if run_key not in self._returns:
                self._returns[run_key] = it.return_values()
            graphs = []
            for run_ret, gs in self._returns[run_key].items():
                if run_ret == want:
                    graphs.extend(g for g in gs if not g.is_empty())
        self._cache[key] = graphs
        return graphs

    def blocks(self, label: Label, loc_start: int) -> List[_Block]:
        """The members of ``executions(label, loc_start)``, each as the bind
        places it, kept beside them."""
        key = (label.method, label.args, label.ret, loc_start)
        got = self._blocks.get(key)
        if got is None:
            got = self._blocks[key] = [_Block(inner, self) for inner in self.executions(_strip_thread(label), loc_start)]
        return got

    def _contains(self, label: Label, labels: Sequence[Label]) -> bool:
        """Membership in I(label) of the chain whose labels, in po order and
        with any threads, are ``labels``, against the runs allocating from
        just below its first returned location (a block that returns none
        matches the same runs at every base)."""
        locs = [l.ret for l in labels if l.method in self._alloc_methods and isinstance(l.ret, int)]
        loc_start = min(locs) - 1 if locs else self.config.loc_base
        key = (label.method, label.args, label.ret, loc_start)
        members = self._members.get(key)
        if members is None:
            members = self._members[key] = frozenset(
                tuple(map(_unthreaded, _po_sequence(run))) for run in self.executions(label, loc_start)
            )
        return tuple(map(_unthreaded, labels)) in members

