"""Built-in persistent libraries: specifications and implementations.

Contents: the weak persistent register and durable queue (SC reference
models wrapped as execution-level library specs), generic Lin(S)/DurLin(S)
constructors, the Flit and Mirror libraries with their Px86 implementations
and read/write persistification transformers, the persistent transaction
library with its undo-log implementation, the lock-wrapped transaction
library, and the (min-max) counters built over transactions.

Cross-era visibility follows one rule throughout: a write is visible to
reads of later eras only if it carries the persisted marker of its library
(the persisted set is a witness component unless the execution is already
tagged).  Reads with no visible prior write return 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .framework import BudgetExceeded, Collection, DuplicateMethod, LibraryInterface, LibrarySpec, Seeded, Verdict, cell_loc
from .lang import CallCmd, Return, Seq, SyntacticImpl, parse_statements, rewrite
from .model import (
    BOT,
    Execution,
    Label,
    Order,
    PlainExecution,
    bits,
    same_era,
    tag_set,
)
from .px86 import P_TAG, px86_interface, px86_spec
from .sc import (
    ANY_ORDER,
    CallLike,
    PFENCE,
    QUEUE_METHODS,
    S_QUEUE,
    S_REGISTER,
    S_WEAKREG,
    SequentialSpec,
    WEAKREG_METHODS,
    WeakRegWitness,
    linearizations,
    linearize,
    weakreg_consistent_execution,
)

#: Reserved sentinel outside the user value domain (undo-log commit marker).
COMMITTED = 9999

T_TAG = "T"
PTR_TAG = "Ptr"
B_TAG = "B"
E_TAG = "E"


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def _mask(events: Iterable[int]) -> int:
    """The bit mask of a set of events."""
    return sum(1 << e for e in events)


def _calls(g, *methods: str) -> int:
    """The bit mask of the events of ``g`` whose method is one of ``methods``."""
    return _mask(e for e in g.events if g.lab[e].method in methods)


def _era_groups(g: PlainExecution, events: int) -> List[int]:
    """The ``events`` grouped by the events era-before them, as masks, the
    groups with fewer such events first.  Where every crash is po-comparable
    with every event, as in every execution the checker builds, each group
    is the events of one era."""
    before: Dict[int, int] = {}
    preds = g.eb.preds()
    for e in bits(events):
        before[preds[e]] = before.get(preds[e], 0) | 1 << e
    return [before[k] for k in sorted(before, key=lambda k: (k.bit_count(), k))]


def execution_linearizable(
    x: Execution,
    spec: SequentialSpec,
    keep: Optional[Callable[[Label, bool], str]] = None,
    budget: int = 200_000,
    seed: Optional[Tuple[int, Sequence[int]]] = None,
    mask: Optional[int] = None,
) -> Verdict:
    """hb-linearizations of an execution's single-event calls into a
    sequential spec.

    ``keep(label, is_last_era)`` returns "keep", "drop", or "optional" per
    event (default: complete events kept, incomplete optional); an event is
    in the last era when no crash of ``mask`` is po-after it.  Dropped and
    optional-dropped events vanish; a placed incomplete event keeps its
    return open (⊥), so it takes the return ``spec``'s state gives.  An
    event of an earlier era is era-before a later one, so it is po- and
    hb-before it: happens-before alone orders the eras.

    It decides the projection on ``mask`` (default: every event), as
    ``framework.Seeded`` states.  One ``sc.linearize`` search over the kept
    and optional events, in ``x``'s own ids, decides it; its witness lists
    the placed events.  The budget counts candidate calls tried, one per
    event.  A ``seed`` ``(other, witness)``, an OK witness of this check on
    the projection on ``other``, is replayed first: its events that this
    check places, in order, each with its own label.
    """
    lab, po = x.lab, x.plain.po_order.rows
    mask = (1 << len(x)) - 1 if mask is None else mask
    crashes = mask & _mask(x.plain.crash_events())
    members = must = 0
    for e in bits(mask & ~crashes):
        l = lab[e]
        mode = keep(l, not po[e] & crashes) if keep else "keep" if l.is_complete else "optional"
        if mode != "drop":
            members |= 1 << e
            must |= (mode == "keep") << e
    hb, preds = x.hb_order.preds(), [0] * len(x)
    for e in bits(members):
        preds[e] = hb[e] & members
    options = [[lab[e]] if members >> e & 1 else () for e in x.events]
    if seed is not None:
        seed = [(e, lab[e]) for e in seed[1] if members >> e & 1]
    v = linearize(preds, options, must, spec, budget, "linearization enumeration", seed)
    return replace(v, witness=[e for e, _ in v.witness]) if v else v


# --------------------------------------------------------------------------
# Weak register and durable queue as library specs
# --------------------------------------------------------------------------


def weakreg_interface(with_pfence: bool = True) -> LibraryInterface:
    methods = dict(WEAKREG_METHODS)
    if not with_pfence:
        methods.pop(PFENCE)
    return LibraryInterface(
        name="weakreg",
        methods=methods,
        constructors=frozenset({"rnew"}),
        loc=cell_loc("rnew", ("rwrite", "rread")),
        void=frozenset({"rwrite", PFENCE} & methods.keys()),
    )


def weakreg_spec(budget: int = 500_000) -> LibrarySpec:
    def check(x: Execution, mask: int, seed: Optional[Tuple[int, WeakRegWitness]]) -> Verdict:
        return weakreg_consistent_execution(x, with_pfence=True, budget=budget, seed=seed, mask=mask)

    return LibrarySpec(interface=weakreg_interface(), local_consistent=Seeded(check), seq=S_WEAKREG)


def queue_interface(name: str = "durqueue") -> LibraryInterface:
    methods = dict(QUEUE_METHODS)
    methods["qappend"] = 2  # alias used by the undo-log figure
    return LibraryInterface(
        name=name,
        methods=methods,
        constructors=frozenset({"qnew"}),
        loc=cell_loc("qnew", ("qpush", "qappend", "qpop")),
        void=frozenset({"qpush", "qappend"}),
    )


#: The queue spec with ``qappend`` stepped as a push.
S_QUEUE_ALIASED = SequentialSpec("queue", S_QUEUE.init, partial(S_QUEUE.step, push_methods=("qpush", "qappend")))


# --------------------------------------------------------------------------
# Lin(S) and DurLin(S)
# --------------------------------------------------------------------------


def make_lin_spec(seq_spec: SequentialSpec, interface: LibraryInterface, budget: int = 200_000) -> LibrarySpec:
    """Linearizability of hb as a library spec (crash-free executions; any
    crash is inconsistent for a purely volatile linearizable library)."""

    def check(x: Execution, mask: int, seed: Optional[Tuple[int, Sequence[int]]]) -> Verdict:
        if any(mask >> c & 1 for c in x.plain.crash_events()):
            return Verdict.fail("crash in a Lin(S) execution")
        return execution_linearizable(x, seq_spec, budget=budget, seed=seed, mask=mask)

    return LibrarySpec(interface=interface, local_consistent=Seeded(check), seq=seq_spec)


def make_durlin_spec(seq_spec: SequentialSpec, interface: LibraryInterface, budget: int = 200_000) -> LibrarySpec:
    """Durable linearizability: crash markers erased, completed calls must
    survive into the linearization, incomplete ones may be dropped.  A call
    pending at a crash is hb-before it, so it takes effect before every later
    event or not at all; ``sc.check_durably_linearizable`` lets it follow
    them (ROADMAP item 20)."""

    def check(x: Execution, mask: int, seed: Optional[Tuple[int, Sequence[int]]]) -> Verdict:
        return execution_linearizable(x, seq_spec, budget=budget, seed=seed, mask=mask)

    return LibrarySpec(interface=interface, local_consistent=Seeded(check), seq=seq_spec)


def durqueue_spec(budget: int = 200_000) -> LibrarySpec:
    return make_durlin_spec(S_QUEUE_ALIASED, queue_interface(), budget=budget)


def _register_iface() -> LibraryInterface:
    return LibraryInterface(
        name="reg",
        methods={"regnew": 0, "regwrite": 2, "regread": 1},
        constructors=frozenset({"regnew"}),
        loc=cell_loc("regnew", ("regwrite", "regread")),
        void=frozenset({"regwrite"}),
    )


def _reg_call(c: CallLike) -> CallLike:
    table = {"regnew": "rnew", "regwrite": "rwrite", "regread": "rread"}
    return replace(c, method=table[c.method]) if c.method in table else c


S_REG_ABSTRACT = SequentialSpec(
    "register", S_REGISTER.init, lambda st, c: S_REGISTER.step(st, _reg_call(c))
)


def reg_lin_spec(budget: int = 200_000) -> LibrarySpec:
    return make_lin_spec(S_REG_ABSTRACT, _register_iface(), budget)


def reg_durlin_spec() -> LibrarySpec:
    return make_durlin_spec(S_REG_ABSTRACT, _register_iface())


# --------------------------------------------------------------------------
# Flit
# --------------------------------------------------------------------------

FLIT_METHODS = {
    "fnew": 0,
    "fread_p": 1,
    "fread_v": 1,
    "fwrite_p": 2,
    "fwrite_v": 2,
    "ffinish": 0,
}


def flit_interface() -> LibraryInterface:
    return LibraryInterface(
        name="flit",
        methods=FLIT_METHODS,
        constructors=frozenset({"fnew"}),
        loc=cell_loc("fnew", ("fread_p", "fread_v", "fwrite_p", "fwrite_v"), 2),
        tags_used=frozenset({P_TAG}),
        method_tags={m: frozenset({"D"}) for m in ("fwrite_p", "fwrite_v", "ffinish", "fnew")},
        void=frozenset({"fwrite_p", "fwrite_v", "ffinish"}),
    )


def check_flit(x: Execution, budget: int = 100_000) -> Verdict:
    """Flit correctness: a total order lin ⊇ hb, a persist order nvo, and a
    persisted write set P such that reads see the lin-latest visible write
    (visible across eras only when persisted), persistent writes persist
    before dependent writes, persistent writes before a finish-op persist,
    and P is an nvo prefix.

    One :func:`sc.linearizations` search over hb places each write
    persisted or not (as its P tag says, if any event has one) and checks
    each read as it is placed: the state maps each location to its lin-latest
    write with its value and the value of its lin-latest persisted write.
    A read sees the former if it is in the read's era.  hb holds era-before,
    so a lin is era-monotone.  The dependency and finish rules are checked on
    each sequence it yields.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    same = same_era(x.plain)
    lab = x.lab
    W = [e for e in ids if lab[e].method in ("fwrite_p", "fwrite_v")]
    WP = [e for e in W if lab[e].method == "fwrite_p"]
    RP = [e for e in ids if lab[e].method == "fread_p"]
    calls, writes, persistent, finishes = _mask(ids), _mask(W), _mask(WP), _calls(x, "ffinish")
    explicit = frozenset(e for e in ids if P_TAG in lab[e].tags)
    has_explicit = any(P_TAG in lab[e].tags for e in x.events)
    persists = {e: (e in explicit,) if has_explicit else (False, True) for e in W}
    options = [() if lab[e].is_crash else [(e, p) for p in persists.get(e, (None,))] for e in x.events]

    def step(st, cand):
        e, persist = cand
        l = lab[e]
        if l.method in ("fread_p", "fread_v"):
            w, val, persisted = st.get(l.args[0], (None, 0, 0))
            return st if l.ret is BOT or l.ret == (val if w is not None and same[e] >> w & 1 else persisted) else None
        if persist is None:
            return st
        loc, val = l.args
        return {**st, loc: (e, val, val if persist else st.get(loc, (None, 0, 0))[2])}

    # a crash is in the era of each event beside it, so it is cut out
    po_se = [row & same[a] & calls for a, row in enumerate(x.plain.po_order.rows)]
    preds = x.hb_order.preds()
    stats = {"stage": "linearization enumeration"}
    try:
        for placed in linearizations(preds, options, calls, SequentialSpec("flit", dict, step), budget, stats):
            lin = [e for _, (e, _) in placed]
            P = explicit if has_explicit else frozenset(e for _, (e, p) in placed if p)
            pos = {e: i for i, e in enumerate(lin)}
            # dependency: same-era po, plus persistent write-to-read pairs
            dep = list(po_se)
            for w in WP:
                for r in RP:
                    if lab[w].args[0] == lab[r].args[0] and pos[w] < pos[r] and (same[w] >> r & 1 or w in P):
                        dep[w] |= 1 << r
            dep = Order.close_rows(dep).rows
            # dep relates events in lin order only, so nvo is acyclic and
            # points forward in era order; it is closed, as dep is
            nvo = Order([row & writes if persistent >> a & 1 else 0 for a, row in enumerate(dep)])
            # persistent writes before a finish-op persist, and P is an nvo
            # prefix: no unpersisted one precedes a finish-op or a persisted write
            if not any(dep[w] & (finishes | writes & _mask(P)) for w in WP if w not in P):
                return Verdict.ok(witness={"lin": lin, "nvo": sorted(nvo.pairs), "P": sorted(P)}, stats=stats)
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    return Verdict.fail("no flit witness (lin/nvo/P)", stats=stats)


def flit_spec(budget: int = 100_000) -> LibrarySpec:
    return LibrarySpec(
        interface=flit_interface(),
        deps=frozenset({"px86"}),
        local_consistent=lambda x: check_flit(x, budget),
    )


def flit_impl() -> SyntacticImpl:
    """The counter-guarded Px86 implementation: a persistent write bumps the
    cell's flit counter around the store and flush-opt; persistent reads
    flush only when a concurrent write is mid-flight; finish-op is a store
    fence."""
    return SyntacticImpl(
        name="flit",
        methods={
            "fnew": ((), parse_statements("r := alloc(); c := alloc(); return r")),
            "fwrite_p": (
                ("l", "v"),
                parse_statements("a := faa(l + 1, 1); store(l, v); fo(l); b := faa(l + 1, 0 - 1)"),
            ),
            "fwrite_v": (("l", "v"), parse_statements("sfence(); store(l, v)")),
            "fread_p": (
                ("l",),
                parse_statements("v := load(l); c := load(l + 1); if (c > 0) { fo(l) }; return v"),
            ),
            "fread_v": (("l",), parse_statements("v := load(l); return v")),
            "ffinish": ((), parse_statements("sfence()")),
        },
    )


def flit_impl_mutated_no_fo() -> SyntacticImpl:
    """Mutation for fault-injection tests: the persistent write forgets its
    flush-opt."""
    impl = flit_impl()
    methods = dict(impl.methods)
    methods["fwrite_p"] = (
        ("l", "v"),
        parse_statements("a := faa(l + 1, 1); store(l, v); b := faa(l + 1, 0 - 1)"),
    )
    return SyntacticImpl(name="flit_no_fo", methods=methods)


def _persistify(impl: SyntacticImpl, table: Mapping[str, str], finish: Optional[str], name: str) -> SyntacticImpl:
    def tr(c):
        if isinstance(c, CallCmd) and c.method in table:
            return CallCmd(c.reg, table[c.method], c.args)
        if isinstance(c, Return) and finish:
            return Seq((CallCmd(None, finish, ()), c))
        return c

    methods = {}
    for m, (params, body) in impl.methods.items():
        body2 = rewrite(body, tr)
        if finish:
            body2 = Seq((body2, CallCmd(None, finish, ())))
        methods[m] = (params, body2)
    return SyntacticImpl(name=name, methods=methods, globals=impl.globals)


def persistify_flit(impl: SyntacticImpl) -> SyntacticImpl:
    """p(I): reads/writes/allocations become persistent Flit accesses and a
    finish-op runs right before the end of each method."""
    table = {"store": "fwrite_p", "load": "fread_p", "alloc": "fnew"}
    return _persistify(impl, table, "ffinish", f"p({impl.name})")


def persistify_flit_mutated(impl: SyntacticImpl) -> SyntacticImpl:
    """Mutation: persistification without the finish-ops."""
    table = {"store": "fwrite_p", "load": "fread_p", "alloc": "fnew"}
    return _persistify(impl, table, None, f"p-mutated({impl.name})")


# --------------------------------------------------------------------------
# Mirror
# --------------------------------------------------------------------------

MIRROR_METHODS = {"mnew": 0, "mrd": 1, "mwr": 2, "mcas": 3}

#: packing modulus for (value, sequence-number) pairs in the implementation
MIRROR_K = 16


def _mirror_call_semantics(method: str, args: Tuple, ctx):
    # a cas succeeds (1) or fails (0), whatever the domain; every other call
    # takes the interface's default call semantics (None)
    if method == "mcas":
        return [((Label("mcas", args, r),), r) for r in (1, 0)]
    return None


def mirror_interface() -> LibraryInterface:
    return LibraryInterface(
        name="mirror",
        methods=MIRROR_METHODS,
        constructors=frozenset({"mnew"}),
        loc=cell_loc("mnew", ("mrd", "mwr", "mcas"), 2),
        tags_used=frozenset({P_TAG}),
        method_tags={m: frozenset({"D"}) for m in ("mwr", "mcas", "mnew")},
        void=frozenset({"mwr"}),
        call_semantics=_mirror_call_semantics,
    )


def _mirror_is_write(l: Label) -> bool:
    return l.method == "mwr" or (l.method == "mcas" and l.ret == 1)


def _mirror_written(l: Label):
    if l.method == "mwr":
        return l.args[1]
    if l.method == "mcas":
        return l.args[2]
    return None


def _mirror_reads(l: Label) -> bool:
    return l.method in ("mrd", "mcas")


def check_mirror(x: Execution, budget: int = 100_000) -> Verdict:
    """Mirror correctness: a total lin agreeing with po and hb; sw must equal
    the derived latest-visible reads-from; completed writes are exactly the
    persisted set; same-era write chains persist in order.

    The persist order reads only po, sw and which writes are complete, so it
    is checked first.  Then the first sequence of one :func:`sc.linearizations`
    search over hb (which holds era-before) is a witness; it checks each read
    as it is placed: its value, and that the sw edges into it are exactly its
    derived source.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    same = same_era(x.plain)
    lab = x.lab
    W = [e for e in ids if _mirror_is_write(lab[e])]
    R = {e for e in ids if _mirror_reads(lab[e])}
    P = frozenset(w for w in W if lab[w].is_complete)
    calls, writes, persisted = _mask(ids), _mask(W), _mask(P)
    links = list(x.plain.po_order.rows)
    for a, b in x.sw:
        links[a] |= 1 << b
    # same-era po and sw among the calls, closed: within hb, so acyclic
    chain = Order.close_rows([row & calls & same[a] if calls >> a & 1 else 0 for a, row in enumerate(links)]).rows
    # the restriction of a closed order to the writes is closed
    nvo = Order([row & writes if writes >> a & 1 else 0 for a, row in enumerate(chain)])
    sw_into = {r: frozenset(a for a, b in x.sw if b == r) for r in R}
    stage = "linearization enumeration"
    # P is an nvo prefix when no pending write is nvo-before a completed one
    not_prefix = any(nvo.rows[w] & persisted for w in bits(writes & ~persisted))
    if any(b not in R for _, b in x.sw) or not_prefix:
        return Verdict.fail("no mirror witness (lin/nvo)", stats={"stage": stage, "nodes": 0, "memo_hits": 0})

    def step(st, e):
        src, nxt = _mirror_step(lab, same, st, e)
        l = lab[e]
        if e in R:
            seen = 0 if src is None else _mirror_written(lab[src])
            if l.method == "mrd":
                bad = l.ret is not BOT and seen != l.ret
            else:  # a successful cas read its expected value, a failed one something else
                bad = l.ret == 1 and seen != l.args[1] or l.ret == 0 and seen == l.args[1]
            if bad or sw_into[e] != frozenset(() if src is None else (src,)):
                return None
        return nxt

    options = [[e] if calls >> e & 1 else () for e in x.events]
    v = linearize(x.hb_order.preds(), options, calls, SequentialSpec("mirror", dict, step), budget, stage)
    return replace(v, witness={"lin": [e for _, e in v.witness], "nvo": sorted(nvo.pairs), "P": sorted(P)}) if v else v


def _mirror_step(lab: Sequence[Label], same: Sequence[int], st: dict, e: int):
    """Mirror's derived reads-from, one event of a lin of po at a time.
    ``st`` maps each location to its lin-latest write and its lin-latest
    completed (so persisted) write.  Returns the write ``e`` reads from
    (``None`` if ``e`` reads none) and the state after ``e``: a read sees
    the latest write if it is in its era (``same[e]``, as
    :func:`model.same_era` gives it), else the latest completed one."""
    l = lab[e]
    if not l.args:
        return None, st
    last, done = st.get(l.args[0], (None, None))
    src = (last if last is not None and same[e] >> last & 1 else done) if _mirror_reads(l) else None
    if _mirror_is_write(l):
        st = {**st, l.args[0]: (e, e if l.is_complete else done)}
    return src, st


def _mirror_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate sw sets: derived reads-from for each lin of po (which
    holds era-before), the first 2,000 candidates tried."""
    same = same_era(g)
    calls = _mask(e for e in g.events if not g.lab[e].is_crash)
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    seen = set(out)
    options = [[e] if calls >> e & 1 else () for e in g.events]
    try:
        for lin in linearizations(g.po_order.preds(), options, calls, ANY_ORDER, 2_000, {}):
            st, rf = {}, set()
            for _, e in lin:
                src, st = _mirror_step(g.lab, same, st, e)
                if src is not None:
                    rf.add((src, e))
            rf = frozenset(rf)
            if rf not in seen:
                seen.add(rf)
                out.append(rf)
    except BudgetExceeded:
        pass
    return out


def mirror_spec(budget: int = 100_000) -> LibrarySpec:
    return LibrarySpec(
        interface=mirror_interface(),
        deps=frozenset({"px86"}),
        local_consistent=lambda x: check_mirror(x, budget),
        sw_candidates=_mirror_sw_hook,
    )


def mirror_impl() -> SyntacticImpl:
    """Two copies per cell (volatile at l, persistent at l+1), values packed
    with a sequence number (val*K + seq); pair reads are atomic by packing,
    double-width CAS is a single update on the packed location.  Writes
    install into the persistent copy, flush, then catch the volatile copy
    up; readers touch only the volatile copy."""
    K = MIRROR_K
    cas_body = parse_statements(
        f"""
        res := 2;
        while (res == 2) {{
          p := load(l + 1); v := load(l);
          pseq := p % {K}; pval := p / {K}; vseq := v % {K}; vval := v / {K};
          if (pseq == vseq + 1) {{
            flush(l + 1); sfence(); c0 := cas(l, v, p); res := 2
          }} else {{
            if (pseq != vseq) {{ res := 2 }}
            else {{
              if (pval != exp) {{ res := 0 }}
              else {{
                after := new * {K} + pseq + 1;
                c1 := cas(l + 1, p, after);
                flush(l + 1); sfence();
                if (c1 == 1) {{ c2 := cas(l, v, after); res := 1 }}
                else {{ res := 0 }}
              }}
            }}
          }}
        }};
        return res
        """
    )
    wr_body = parse_statements(
        f"r := 0; while (r == 0) {{ p := load(l + 1); e := p / {K}; r := mcas(l, e, v) }}"
    )
    return SyntacticImpl(
        name="mirror",
        methods={
            "mnew": ((), parse_statements("a := alloc(); b := alloc(); return a")),
            "mrd": (("l",), parse_statements(f"x := load(l); return x / {MIRROR_K}")),
            "mwr": (("l", "v"), wr_body),
            "mcas": (("l", "exp", "new"), cas_body),
        },
    )


def persistify_mirror(impl: SyntacticImpl) -> SyntacticImpl:
    """m(I): reads/writes/allocations become Mirror calls (completed Mirror
    writes persist, so no finish-op is needed)."""
    table = {"store": "mwr", "load": "mrd", "alloc": "mnew", "cas": "mcas"}
    return _persistify(impl, table, None, f"m({impl.name})")


def persistify_mirror_mutated(impl: SyntacticImpl) -> SyntacticImpl:
    """Mutation: stores degrade to reads of the target cell, so the data
    never reaches the mirror cells at all."""

    def tr(c):
        if isinstance(c, CallCmd):
            if c.method == "store":
                return CallCmd(c.reg, "mrd", (c.args[0],))
            if c.method == "load":
                return CallCmd(c.reg, "mrd", c.args)
            if c.method == "alloc":
                return CallCmd(c.reg, "mnew", c.args)
        return c

    methods = {m: (ps, rewrite(body, tr)) for m, (ps, body) in impl.methods.items()}
    return SyntacticImpl(name=f"m-mutated({impl.name})", methods=methods, globals=impl.globals)


# --------------------------------------------------------------------------
# The persistent transaction library
# --------------------------------------------------------------------------

LTRANS_METHODS = {
    "pt_new": 0,
    "pt_begin": 0,
    "pt_end": 0,
    "pt_read": 1,
    "pt_write": 2,
    "pt_recover": 0,
}


def ltrans_interface() -> LibraryInterface:
    return LibraryInterface(
        name="ltrans",
        methods=LTRANS_METHODS,
        constructors=frozenset({"pt_new"}),
        loc=cell_loc("pt_new", ("pt_read", "pt_write")),
        tags_introduced=frozenset({T_TAG, PTR_TAG, B_TAG, E_TAG}),
        method_tags={
            "pt_read": frozenset({T_TAG}),
            "pt_write": frozenset({T_TAG}),
            "pt_begin": frozenset({B_TAG}),
            "pt_end": frozenset({E_TAG}),
        },
        void=frozenset({"pt_begin", "pt_end", "pt_write", "pt_recover"}),
    )


def _transaction_rows(g: PlainExecution) -> List[int]:
    """The same-transaction relation as bit rows: same-thread
    transaction-relevant events with no begin- or end-tagged event strictly
    po-between them (symmetric)."""
    po, into = g.po_order.rows, g.po_order.preds()
    seps = _mask(tag_set(g, B_TAG) | tag_set(g, E_TAG))
    relevant = seps | _mask(tag_set(g, T_TAG))
    rows = [0] * len(g)
    for a in bits(relevant):
        thread = g.lab[a].thread
        for b in bits(po[a] & relevant):
            if thread is not None and g.lab[b].thread == thread and not po[a] & into[b] & seps:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def ltrans_local_wellformed(x: Execution) -> Verdict:
    po, po_into = x.plain.po_order.rows, x.plain.po_order.preds()
    hb, hb_into = x.hb_order.rows, x.hb_order.preds()
    begins, ends = _calls(x, "pt_begin"), _calls(x, "pt_end")
    for e in bits(ends):
        if not po_into[e] & begins:
            return Verdict.fail("cond 1: end without a prior begin")
    for e1 in bits(ends):
        if any(not po[e1] & po_into[e2] & begins for e2 in bits(po[e1] & ends)):
            return Verdict.fail("cond 2: consecutive ends without a begin")
    for b1 in bits(begins):
        if any(not po[b1] & po_into[b2] & ends for b2 in bits(po[b1] & begins)):
            return Verdict.fail("cond 2: nested transactions")
    for e in bits(ends):
        if begins & ~(hb[e] | hb_into[e]):
            return Verdict.fail("cond 3: transactions not externally synchronized")
    recovers, b_tagged = _calls(x, "pt_recover"), _mask(tag_set(x, B_TAG))
    for c in x.plain.crash_events():
        if any(not hb[c] & hb_into[b] & recovers for b in bits(hb[c] & b_tagged)):
            return Verdict.fail("cond 4: no recovery between crash and begin")
    if _calls(x, "pt_write", "pt_read") & ~_mask(tag_set(x, T_TAG)):
        return Verdict.fail("cond 5: untagged transactional access")
    return Verdict.ok()


def ltrans_global_wellformed(x: Execution) -> Verdict:
    po, into = x.plain.po_order.rows, x.plain.po_order.preds()
    t_tagged = _mask(tag_set(x, T_TAG))
    b_tagged = _mask(tag_set(x, B_TAG))
    for t in bits(t_tagged):
        if not into[t] & b_tagged:
            return Verdict.fail("cond 6: transactional event before any begin")
    for e in tag_set(x, E_TAG):
        if any(not po[e] & into[t] & b_tagged for t in bits(po[e] & t_tagged)):
            return Verdict.fail("cond 7: transactional event after end without new begin")
    return Verdict.ok()


def ltrans_local_consistent(x: Execution) -> Verdict:
    """Conditions 8-10: a reads-from with inverse total and functional on
    reads, reads access the most recent visible write (same era or
    persisted), and external reads come from persisted writes."""
    lab, hb, into = x.lab, x.hb_order.rows, x.hb_order.preds()
    same, st = same_era(x.plain), _transaction_rows(x.plain)
    writes, news = _calls(x, "pt_write"), _calls(x, "pt_new")
    persisted = _mask(tag_set(x, PTR_TAG))
    at: Dict[object, int] = {}  # location -> its writes and its allocation
    for w in bits(writes | news):
        loc = lab[w].ret if news >> w & 1 else lab[w].args[0]
        at[loc] = at.get(loc, 0) | 1 << w
    for r in bits(_calls(x, "pt_read")):
        l = lab[r]
        if l.ret is BOT:
            continue
        # the sources r may see: same era, persisted, or an allocation
        visible = at.get(l.args[0], 0) & (same[r] | persisted | news)
        # cond 10: a source outside r's transaction must be persisted
        admissible = visible & (st[r] | into[r] & (persisted | news))
        # ... and write r's value with no visible source hb-between them
        if not any(
            (lab[w].args[1] if writes >> w & 1 else 0) == l.ret and not hb[w] & into[r] & visible
            for w in bits(admissible)
        ):
            return Verdict.fail(f"cond 8-10: read {r} has no admissible source")
    return Verdict.ok()


def ltrans_global_consistent(x: Execution) -> Verdict:
    """Conditions 12-14 over the tagged (possibly anonymized) execution.
    Condition 11, an acyclic transaction order, holds of every execution:
    the order (nvo) lies within hb."""
    hb = x.hb_order.rows
    persisted = _mask(tag_set(x, PTR_TAG))
    b_tagged, e_tagged = _mask(tag_set(x, B_TAG)), _mask(tag_set(x, E_TAG))
    # nvo: each end-tagged event before the begin-tagged events hb-after it
    nvo = Order.close_rows([hb[e] & b_tagged if e_tagged >> e & 1 else 0 for e in x.events])
    if any(nvo.rows[a] & persisted for a in bits(e_tagged & ~persisted)):
        return Verdict.fail("cond 12: persisted set is not an nvo prefix")
    st = _transaction_rows(x.plain)
    unpersisted = _mask(tag_set(x, T_TAG)) & ~persisted
    if any(st[a] & unpersisted for a in bits(persisted)):
        return Verdict.fail("cond 13: partially persisted transaction")
    if any(x.lab[e].is_complete for e in bits(e_tagged & ~persisted)):
        return Verdict.fail("cond 14: completed transaction not persisted")
    return Verdict.ok()


def _ltrans_tag_hook(g: PlainExecution) -> Sequence[Mapping[int, FrozenSet[str]]]:
    """Persisted-marker candidates: subsets of transaction-relevant events,
    whole transactions at a time, committed transactions first."""
    tagged = _mask(tag_set(g, T_TAG) | tag_set(g, B_TAG) | tag_set(g, E_TAG)) & ~_mask(tag_set(g, PTR_TAG))
    # group by same-transaction over po (thread, segment between B/E tags),
    # each event in the first group only (an end is also in the next one)
    st = _transaction_rows(g)
    groups: List[int] = []
    rest = tagged
    while rest:
        e = (rest & -rest).bit_length() - 1
        groups.append(st[e] & rest | 1 << e)
        rest &= ~groups[-1]
    persisted = frozenset({PTR_TAG})
    return [
        {e: persisted for group in combo for e in bits(group)}
        for r in range(len(groups), -1, -1)
        for combo in itertools.combinations(groups, r)
    ]


def ltrans_spec() -> LibrarySpec:
    return LibrarySpec(
        interface=ltrans_interface(),
        local_consistent=ltrans_local_consistent,
        local_wellformed=ltrans_local_wellformed,
        global_consistent=ltrans_global_consistent,
        global_wellformed=ltrans_global_wellformed,
        tag_candidates=_ltrans_tag_hook,
    )


def ltrans_impl() -> SyntacticImpl:
    """The undo-log implementation over the weak registers and a durably
    linearizable queue: each write logs the register's previous value
    (location and value as two queue entries), commit appends the sentinel
    and fences, and recovery drains the log, keeping only the entries after
    the last sentinel, then writes those old values back."""
    return SyntacticImpl(
        name="ltrans",
        globals=(("log", parse_statements("g := qnew(); return g")),),
        methods={
            "pt_new": ((), parse_statements("r := rnew(); return r")),
            "pt_read": (("l",), parse_statements("v := rread(l); return v")),
            "pt_write": (
                ("l", "v"),
                parse_statements(
                    "old := rread(l); qappend(log, l); qappend(log, old); rwrite(l, v)"
                ),
            ),
            "pt_begin": ((), parse_statements("pfence()")),
            # fence first: the data writes must be durable before the commit
            # record (a durably linearizable append persists on completion)
            "pt_end": ((), parse_statements(f"pfence(); qappend(log, {COMMITTED})")),
            "pt_recover": (
                (),
                parse_statements(
                    f"""
                    w := qnew();
                    x := qpop(log);
                    while (x != null) {{
                      if (x == {COMMITTED}) {{ w := qnew() }} else {{ qappend(w, x) }};
                      x := qpop(log)
                    }};
                    l := qpop(w);
                    while (l != null) {{
                      v := qpop(w);
                      if (v != null) {{ rwrite(l, v) }};
                      l := qpop(w)
                    }}
                    """
                ),
            ),
        },
    )


# --------------------------------------------------------------------------
# Lock and the synchronized transaction wrapper
# --------------------------------------------------------------------------

LOCK_METHODS = {"lnew": 0, "lacq": 1, "lrel": 1}


def lock_interface() -> LibraryInterface:
    return LibraryInterface(
        name="lock",
        methods=LOCK_METHODS,
        constructors=frozenset({"lnew"}),
        loc=cell_loc("lnew", ("lacq", "lrel")),
        void=frozenset({"lacq", "lrel"}),
    )


def lock_consistent(x: Execution) -> Verdict:
    """hb totally orders the lock events of each era into (acq·rel)*·acq?."""
    hb, into = x.hb_order.rows, x.hb_order.preds()
    locks = _calls(x, "lacq", "lrel")
    for evs in _era_groups(x.plain, locks):
        if any(evs & ~(hb[a] | into[a] | 1 << a) for a in bits(evs)):
            return Verdict.fail("lock events not totally hb-ordered")
        # the events in hb order alternate acquire, release, acquire, ...
        for i, e in enumerate(sorted(bits(evs), key=lambda e: (into[e] & evs).bit_count())):
            if x.lab[e].method != ("lacq", "lrel")[i % 2]:
                return Verdict.fail("double acquire" if i % 2 else "release without a held lock")
    return Verdict.ok()


def _lock_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Interleavings of critical sections: per era, the per-thread (acq[,rel])
    sections in every order that po allows, an open section (no release)
    after all others, rel -> next acq edges proposed."""
    rows, locks = g.po_order.rows, _calls(g, "lacq", "lrel")
    options_per_era: List[List[FrozenSet[Tuple[int, int]]]] = []
    for era in _era_groups(g, locks):
        sections: List[List[int]] = []
        by_thread: Dict[int, List[int]] = {}
        for e in bits(era):
            by_thread.setdefault(g.lab[e].thread, []).append(e)
        for t, evs in sorted(by_thread.items(), key=lambda kv: repr(kv[0])):
            cur: List[int] = []
            for e in evs:
                cur.append(e)
                if g.lab[e].method == "lrel":
                    sections.append(cur)
                    cur = []
            if cur:
                sections.append(cur)
        masks = [sum(1 << e for e in sec) for sec in sections]
        every = (1 << len(sections)) - 1
        preds = [
            every & ~(1 << i)
            if g.lab[sec[-1]].method != "lrel"
            else sum(1 << j for j, other in enumerate(sections) if j != i and any(rows[a] & masks[i] for a in other))
            for i, sec in enumerate(sections)
        ]
        opts = []
        for lin in linearizations(preds, [[i] for i in range(len(sections))], every, ANY_ORDER, math.inf, {}):
            order = [sections[i] for i, _ in lin]
            opts.append(frozenset((a[-1], b[0]) for a, b in zip(order, order[1:])))
        options_per_era.append(opts or [frozenset()])
    out, seen = [], set()
    for combo in itertools.product(*options_per_era):
        merged = frozenset().union(*combo) if combo else frozenset()
        if merged not in seen:
            seen.add(merged)
            out.append(merged)
    return out


def lock_spec() -> LibrarySpec:
    return LibrarySpec(
        interface=lock_interface(),
        local_consistent=lock_consistent,
        sw_candidates=_lock_sw_hook,
    )


def lstrans_interface() -> LibraryInterface:
    return LibraryInterface(
        name="lstrans",
        methods={"lpt_begin": 0, "lpt_end": 0},
        method_tags={"lpt_begin": frozenset({B_TAG}), "lpt_end": frozenset({E_TAG})},
        tags_used=frozenset({T_TAG, PTR_TAG, B_TAG, E_TAG}),
        void=frozenset({"lpt_begin", "lpt_end"}),
    )


def lstrans_spec() -> LibrarySpec:
    """The lock-wrapped transaction sections: external synchronization of
    begin/end becomes a guarantee, so local well-formedness only requires
    bracketing."""

    def wf(x: Execution) -> Verdict:
        into, begins = x.plain.po_order.preds(), _calls(x, "lpt_begin")
        if any(not into[e] & begins for e in bits(_calls(x, "lpt_end"))):
            return Verdict.fail("lpt_end without a prior lpt_begin")
        return Verdict.ok()

    return LibrarySpec(
        interface=lstrans_interface(),
        deps=frozenset({"ltrans"}),
        local_wellformed=wf,
    )


def lstrans_impl() -> SyntacticImpl:
    return SyntacticImpl(
        name="lstrans",
        globals=(("lock", parse_statements("g := lnew(); return g")),),
        methods={
            "lpt_begin": ((), parse_statements("lacq(lock); pt_begin()")),
            "lpt_end": ((), parse_statements("pt_end(); lrel(lock)")),
        },
    )


# --------------------------------------------------------------------------
# Counters over transactions
# --------------------------------------------------------------------------


def counter_interface() -> LibraryInterface:
    return LibraryInterface(
        name="counter",
        methods={"cnew": 0, "cinc": 1, "cread": 1},
        constructors=frozenset({"cnew"}),
        loc=cell_loc("cnew", ("cinc", "cread")),
        tags_used=frozenset({T_TAG, PTR_TAG}),
        method_tags={"cinc": frozenset({T_TAG}), "cread": frozenset({T_TAG})},
        void=frozenset({"cinc"}),
    )


def counter_consistent(x: Execution) -> Verdict:
    """A read returns the number of increments hb-before it that are visible
    (same era or persisted)."""
    into, same = x.hb_order.preds(), same_era(x.plain)
    persisted, incs = _mask(tag_set(x, PTR_TAG)), _calls(x, "cinc")
    for r in bits(_calls(x, "cread")):
        l = x.lab[r]
        if l.ret is BOT:
            continue
        at = _mask(i for i in bits(incs) if x.lab[i].args[0] == l.args[0])
        count = (at & into[r] & (same[r] | persisted)).bit_count()
        if l.ret != count:
            return Verdict.fail(f"cread returned {l.ret}, expected {count}")
    return Verdict.ok()


def counter_spec() -> LibrarySpec:
    return LibrarySpec(
        interface=counter_interface(),
        deps=frozenset({"ltrans"}),
        local_consistent=counter_consistent,
        tag_candidates=_ltrans_tag_hook,
    )


def counter_impl() -> SyntacticImpl:
    return SyntacticImpl(
        name="counter",
        methods={
            "cnew": ((), parse_statements("r := pt_new(); return r")),
            "cinc": (("c",), parse_statements("v := pt_read(c); pt_write(c, v + 1)")),
            "cread": (("c",), parse_statements("v := pt_read(c); return v")),
        },
    )


def mmcounter_interface() -> LibraryInterface:
    return LibraryInterface(
        name="mmcounter",
        methods={"mmnew": 0, "mmadd": 2, "mmmin": 1, "mmmax": 1},
        constructors=frozenset({"mmnew"}),
        loc=cell_loc("mmnew", ("mmadd", "mmmin", "mmmax"), 2, 2),
        tags_used=frozenset({T_TAG, PTR_TAG}),
        method_tags={
            "mmadd": frozenset({T_TAG}),
            "mmmin": frozenset({T_TAG}),
            "mmmax": frozenset({T_TAG}),
        },
        void=frozenset({"mmadd"}),
    )


def _s_mmcounter_step(state, c: CallLike):
    # state: loc -> (min, max); empty = (0, 0); positive values only
    state = dict(state)
    if c.method == "mmnew":
        state[c.ret] = (0, 0)
        return state
    x = c.args[0]
    lo, hi = state.get(x, (0, 0))
    if c.method == "mmadd":
        n = c.args[1]
        state[x] = (n if lo == 0 else min(lo, n), n if hi == 0 else max(hi, n))
        return state
    if c.method == "mmmin":
        return state if c.ret is BOT or c.ret == lo else None
    if c.method == "mmmax":
        return state if c.ret is BOT or c.ret == hi else None
    return None


S_MMCOUNTER = SequentialSpec("mmcounter", dict, _s_mmcounter_step)


def mmcounter_consistent(
    x: Execution, budget: int = 100_000, seed: Optional[Tuple[int, Sequence[int]]] = None, mask: Optional[int] = None
) -> Verdict:
    """Era-wise persisted-prefix linearization: events of earlier eras count
    only when persisted; the final era contributes everything."""

    def keep(l: Label, last: bool) -> str:
        if last:
            return "keep" if l.is_complete else "optional"
        if PTR_TAG in l.tags or l.method == "mmnew":
            return "keep" if l.is_complete else "optional"
        return "drop"

    return execution_linearizable(x, S_MMCOUNTER, keep=keep, budget=budget, seed=seed, mask=mask)


def mmcounter_spec(budget: int = 100_000) -> LibrarySpec:
    return LibrarySpec(
        interface=mmcounter_interface(),
        deps=frozenset({"ltrans"}),
        local_consistent=Seeded(partial(mmcounter_consistent, budget=budget)),
        tag_candidates=_ltrans_tag_hook,
    )


def mmcounter_impl() -> SyntacticImpl:
    """Min in the first transaction register, max in the second (positive
    values; zero marks the empty counter)."""
    return SyntacticImpl(
        name="mmcounter",
        methods={
            "mmnew": ((), parse_statements("a := pt_new(); b := pt_new(); return a")),
            "mmadd": (
                ("x", "n"),
                parse_statements(
                    "v := pt_read(x); "
                    "if (v == 0) { pt_write(x, n) } else { pt_write(x, min(n, v)) }; "
                    "w := pt_read(x + 1); pt_write(x + 1, max(n, w))"
                ),
            ),
            "mmmin": (("x",), parse_statements("v := pt_read(x); return v")),
            "mmmax": (("x",), parse_statements("v := pt_read(x + 1); return v")),
        },
    )


def mmcounter_impl_broken() -> SyntacticImpl:
    """Non-example: the maximum lives in a plain weak register, breaking the
    atomicity guarantee of transactions."""
    impl = mmcounter_impl()
    methods = dict(impl.methods)
    methods["mmadd"] = (
        ("x", "n"),
        parse_statements(
            "v := pt_read(x); "
            "if (v == 0) { pt_write(x, n) } else { pt_write(x, min(n, v)) }; "
            "w := rread(x + 1); rwrite(x + 1, max(n, w))"
        ),
    )
    methods["mmmax"] = (("x",), parse_statements("v := rread(x + 1); return v"))
    return SyntacticImpl(name="mmcounter_broken", methods=methods)


# --------------------------------------------------------------------------
# Sound prefix pruning from the declared sequential specs
# --------------------------------------------------------------------------


def sc_prune_factory():
    """Prefix pruning from each library's declared sequential spec
    (``LibrarySpec.seq``), as an ``InterpConfig.prune_factory``.

    The complete calls of a trace are grouped per object (library, call
    locations) and stepped through their library's ``seq``; a trace is cut
    once some object has no start state from which its calls are accepted.
    In the first phase each object starts from ``seq.init()``.  In a later
    phase it starts from any state it held after any step of any run of the
    earlier phases, chained phase by phase: a crash can land after any step,
    and each object keeps a state it held before the crash (Izraelevitz,
    Mendes & Scott, DISC 2016).  The runs of a multi-threaded phase
    interleave into states no per-thread run holds, so no phase after one
    is pruned.
    """

    def factory(coll: Collection, earlier):
        if any(len(it.prog.threads) > 1 for it in earlier) or all(s.seq is None for s in coll.specs()):
            return None
        held: Dict[Tuple, Dict[str, object]] = {}  # object -> its states at a crash, keyed by repr

        def start(obj) -> Dict[str, object]:
            init = coll.lookup(obj[0]).seq.init()
            return held.get(obj) or {repr(init): init}

        def step(states: Dict[Tuple, List], l: Label):
            """(the object of ``l`` or None, ``states`` after ``l``), where
            ``states`` maps each object to the states it can be in."""
            spec = coll.owner_of(l)
            if spec is None or spec.seq is None or not l.is_complete:
                return None, states
            obj = (spec.name, spec.interface.locations(l))
            before = states[obj] if obj in states else start(obj).values()
            return obj, {**states, obj: [t for t in (spec.seq.step(s, l) for s in before) if t is not None]}

        for it in earlier:
            reached: Dict[Tuple, Dict[str, object]] = {}
            for tr in [r.trace for rs in it.thread_runs.values() for r in rs] or [()]:
                states: Dict[Tuple, List] = {}
                for l in it.globals_trace + tr:
                    obj, states = step(states, l)
                    if obj is not None:
                        into = reached.setdefault(obj, dict(start(obj)))
                        into.update((repr(s), s) for s in states[obj])
            held.update(reached)
        # the interpreter prunes a trace only after its prefix passed, so
        # with every checked trace memoized each check steps one label
        after: Dict[Tuple[Label, ...], Dict[Tuple, List]] = {(): {}}

        def states_after(trace):
            if trace not in after:
                after[trace] = step(states_after(trace[:-1]), trace[-1])[1]
            return after[trace]

        return lambda trace: all(states_after(trace).values())

    return factory


# --------------------------------------------------------------------------
# Built-in registry (CLI names)
# --------------------------------------------------------------------------


class UnknownName(KeyError):
    """A spec or implementation name the registry does not know.  Its message
    reads as given: a plain ``KeyError`` quotes it."""

    def __str__(self) -> str:
        return str(self.args[0])


def builtin_spec(name: str, budget: int = 100_000) -> LibrarySpec:
    """Specs addressable by name: px86, flit, mirror, ltrans, lstrans, lock,
    durqueue, weakreg, counter, mmcounter, reg, scmem, lin:<seq>, durlin:<seq>."""
    table: Dict[str, Callable[[], LibrarySpec]] = {
        # a Px86 step is not a walk node, and registration alone spends two
        # steps: the floor keeps a small budget cutting the walks only
        "px86": lambda: px86_spec(budget=max(budget, 100_000)),
        "flit": lambda: flit_spec(budget),
        "mirror": lambda: mirror_spec(budget),
        "ltrans": ltrans_spec,
        "lstrans": lstrans_spec,
        "lock": lock_spec,
        "durqueue": lambda: durqueue_spec(budget),
        "weakreg": lambda: weakreg_spec(budget=budget),
        "counter": counter_spec,
        "mmcounter": lambda: mmcounter_spec(budget),
        "reg": lambda: reg_lin_spec(budget),
        "scmem": lambda: scmem_spec(budget),
    }
    if name in table:
        return table[name]()
    if name.startswith("lin:") or name.startswith("durlin:"):
        kind, _, seq = name.partition(":")
        seqs = {"queue": S_QUEUE_ALIASED, "register": S_REG_ABSTRACT, "reg": S_REG_ABSTRACT, "mmcounter": S_MMCOUNTER}
        if seq not in seqs:
            raise UnknownName(f"unknown sequential spec {seq}")
        ifaces = {"queue": queue_interface(), "register": _register_iface(), "reg": _register_iface(), "mmcounter": mmcounter_interface()}
        maker = make_lin_spec if kind == "lin" else make_durlin_spec
        return maker(seqs[seq], ifaces[seq], budget=budget)
    raise UnknownName(f"unknown spec {name}")


def _s_mem_step(state, c: CallLike):
    # sequentially consistent flat memory over the px86 method names;
    # fences and flushes are no-ops
    state = dict(state)
    if c.method == "alloc":
        state[c.ret] = 0
        return state
    if c.method == "store":
        state[c.args[0]] = c.args[1]
        return state
    if c.method == "load":
        return state if c.ret is BOT or c.ret == state.get(c.args[0], 0) else None
    if c.method == "upd":
        if state.get(c.args[0], 0) != c.args[1]:
            return None
        state[c.args[0]] = c.args[2]
        return state
    if c.method in ("flush", "fo", "mfence", "sfence"):
        return state
    return None


S_MEM = SequentialSpec("scmem", dict, _s_mem_step)


def scmem_spec(budget: int = 200_000) -> LibrarySpec:
    """The px86 interface under interleaving (SC) semantics: a reference
    point for litmus comparisons (the weak outcomes disappear)."""
    # no value_flow: under SC a load of a location nothing wrote returns 0
    iface = replace(px86_interface(), name="scmem", tags_introduced=frozenset(), value_flow=None)

    def check(x: Execution, mask: int, seed: Optional[Tuple[int, Sequence[int]]]) -> Verdict:
        return execution_linearizable(x, S_MEM, budget=budget, seed=seed, mask=mask)

    return LibrarySpec(interface=iface, local_consistent=Seeded(check))


def load_manifest(path) -> Tuple["Collection", dict]:
    """Build a Collection from a JSON manifest.

    Shape: {"libraries": [{"name": "px86", "budget": 50000}, ...],
            "domain": [0, 1], "unroll": 4}.
    Returns the frozen-free collection plus the leftover interpreter options.
    A budget or unroll bound that is not positive raises ``ValueError``, as
    the ``--budget`` and ``--unroll`` flags do, and so does a manifest of
    another shape or a budget that is not an integer; a library name
    ``builtin_spec`` does not know raises ``UnknownName``, and a library
    named twice or whose methods clash with an earlier one's raises
    ``DuplicateMethod``, each naming the manifest and the library's index.
    """
    import json
    from pathlib import Path

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(data, dict) and all(isinstance(data.get(k, []), list) for k in ("libraries", "domain"))):
        raise ValueError("a manifest must be a JSON object whose libraries and domain are lists")
    if not all(v is None or type(v) is int for v in data.get("domain", [])):
        raise ValueError("a manifest domain holds integers and null only")
    coll = Collection()
    for i, entry in enumerate(data.get("libraries", [])):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            raise ValueError(f"a manifest library must be a name or an object, found {entry!r}")
        if "name" not in entry:
            raise ValueError(f"manifest {path}: library {i} has no name")
        if not isinstance(entry["name"], str):
            raise ValueError(f"manifest {path}: the name of library {i} must be a string, found {entry['name']!r}")
        budget = entry.get("budget", 100_000)
        if type(budget) is not int:
            raise ValueError(f"manifest {path}: the budget of library {i} must be an integer, found {budget!r}")
        if budget <= 0:
            raise ValueError(f"budget of {entry['name']} must be positive")
        try:
            coll.register(builtin_spec(entry["name"], budget=budget))
        except (UnknownName, DuplicateMethod) as e:
            raise type(e)(f"manifest {path}: library {i}: {e}") from None
    unroll = data.get("unroll")
    if unroll is not None and type(unroll) is not int:
        raise ValueError(f"manifest unroll must be an integer, found {unroll!r}")
    if unroll is not None and unroll <= 0:
        raise ValueError("unroll must be positive")
    options = {"domain": tuple(data.get("domain", ())), "unroll": unroll}
    return coll, options


def builtin_impl(name: str) -> SyntacticImpl:
    table: Dict[str, Callable[[], SyntacticImpl]] = {
        "flit": flit_impl,
        "flit_no_fo": flit_impl_mutated_no_fo,
        "mirror": mirror_impl,
        "ltrans": ltrans_impl,
        "lstrans": lstrans_impl,
        "counter": counter_impl,
        "mmcounter": mmcounter_impl,
    }
    if name not in table:
        raise UnknownName(f"unknown implementation {name}")
    return table[name]()
