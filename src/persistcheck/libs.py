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
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .framework import BudgetExceeded, Collection, LibraryInterface, LibrarySpec, Verdict, cell_loc
from .lang import CallCmd, Return, Seq, SyntacticImpl, parse_statements, rewrite
from .model import (
    BOT,
    Call,
    Execution,
    Label,
    Order,
    PlainExecution,
)
from .px86 import P_TAG, px86_spec
from .sc import (
    ANY_ORDER,
    PFENCE,
    QUEUE_METHODS,
    S_QUEUE,
    S_REGISTER,
    S_WEAKREG,
    SequentialSpec,
    WEAKREG_METHODS,
    era_preds,
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


def execution_linearizable(
    x: Execution,
    spec: SequentialSpec,
    interface: LibraryInterface,
    keep: Optional[Callable[[Label, int, bool], str]] = None,
    budget: int = 200_000,
    era_monotone: bool = False,
) -> Verdict:
    """hb-linearizations of an execution's single-event calls into a
    sequential spec.  Incomplete calls of methods ``interface`` declares void
    are completed with null only.

    ``keep(label, era, is_last_era)`` returns "keep", "drop", or "optional"
    per event (default: complete events kept, incomplete optional).  Dropped
    and optional-dropped events vanish; optional incomplete events may also
    be completed with any value the execution mentions (an argument or a
    return), 0 or null.  ``era_monotone`` additionally pins
    events of earlier eras before later ones (the persisted-prefix
    concatenation shape); plain durable linearizability erases crashes, so
    only happens-before constrains incomplete stragglers there.

    One ``sc.linearize`` search over the kept and optional events decides
    it; the budget counts candidate calls tried.
    """
    n_eras = len(x.plain.crash_events()) + 1
    era = x.plain.era_of()
    ids = [e for e in x.events if not x.lab[e].is_crash]
    labs = [x.lab[e] for e in ids]
    returned = [l.ret for l in labs if l.ret not in (BOT, None)]
    domain = list(dict.fromkeys([a for l in labs for a in l.args] + returned + [0, None]))
    modes = {
        e: keep(l, era[e], era[e] == n_eras - 1) if keep else "keep" if l.is_complete else "optional"
        for e, l in zip(ids, labs)
    }
    members = [e for e in ids if modes[e] != "drop"]
    must = sum(1 << i for i, e in enumerate(members) if modes[e] == "keep")
    hb = x.hb_order.restrict(members)
    preds = era_preds(hb, [era[e] for e in members]) if era_monotone else hb.preds()
    options = []
    for e in members:
        l = x.lab[e]
        rets = [l.ret] if l.is_complete else [None] if interface.returns.get(l.method) == "void" else domain
        options.append([Call(l.method, l.args, r, l.thread, l.tags, e, e) for r in rets])
    try:
        lin, stats = linearize(preds, options, must, spec, budget, "linearization enumeration")
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    if lin is None:
        return Verdict.fail(f"no linearization into {spec.name}", stats=stats)
    return Verdict.ok(witness=[members[i] for i, _ in lin], stats=stats)


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
        returns={"rnew": "loc", "rwrite": "void", PFENCE: "void", "rread": "value"},
    )


def weakreg_spec(with_pfence: bool = True, budget: int = 500_000) -> LibrarySpec:
    def check(x: Execution) -> Verdict:
        return weakreg_consistent_execution(x, with_pfence=with_pfence, budget=budget)

    return LibrarySpec(interface=weakreg_interface(with_pfence), local_consistent=check, seq=S_WEAKREG)


def queue_interface(name: str = "durqueue") -> LibraryInterface:
    methods = dict(QUEUE_METHODS)
    methods["qappend"] = 2  # alias used by the undo-log figure
    return LibraryInterface(
        name=name,
        methods=methods,
        constructors=frozenset({"qnew"}),
        loc=cell_loc("qnew", ("qpush", "qappend", "qpop")),
        returns={"qnew": "loc", "qpush": "void", "qappend": "void", "qpop": "value"},
    )


def _normalize_queue_call(c: Call) -> Call:
    if c.method == "qappend":
        return Call("qpush", c.args, c.ret, c.thread, c.tags, c.inv_index, c.ret_index)
    return c


S_QUEUE_ALIASED = SequentialSpec(
    "queue", S_QUEUE.init, lambda st, c: S_QUEUE.step(st, _normalize_queue_call(c))
)


# --------------------------------------------------------------------------
# Lin(S) and DurLin(S)
# --------------------------------------------------------------------------


def make_lin_spec(seq_spec: SequentialSpec, interface: LibraryInterface, budget: int = 200_000) -> LibrarySpec:
    """Linearizability of hb as a library spec (crash-free executions; any
    crash is inconsistent for a purely volatile linearizable library)."""

    def check(x: Execution) -> Verdict:
        if x.plain.crash_events():
            return Verdict.fail("crash in a Lin(S) execution")
        return execution_linearizable(x, seq_spec, interface, budget=budget)

    return LibrarySpec(interface=interface, local_consistent=check, seq=seq_spec)


def make_durlin_spec(seq_spec: SequentialSpec, interface: LibraryInterface, budget: int = 200_000) -> LibrarySpec:
    """Durable linearizability: crash markers erased, completed calls must
    survive into the linearization; incomplete calls may be dropped or
    completed."""

    def check(x: Execution) -> Verdict:
        return execution_linearizable(x, seq_spec, interface, budget=budget)

    return LibrarySpec(interface=interface, local_consistent=check, seq=seq_spec)


def durqueue_spec(budget: int = 200_000) -> LibrarySpec:
    return make_durlin_spec(S_QUEUE_ALIASED, queue_interface(), budget=budget)


def _register_iface(name: str = "reg") -> LibraryInterface:
    return LibraryInterface(
        name=name,
        methods={"regnew": 0, "regwrite": 2, "regread": 1},
        constructors=frozenset({"regnew"}),
        loc=cell_loc("regnew", ("regwrite", "regread")),
        returns={"regnew": "loc", "regwrite": "void", "regread": "value"},
    )


def _reg_call(c: Call) -> Call:
    table = {"regnew": "rnew", "regwrite": "rwrite", "regread": "rread"}
    if c.method in table:
        return Call(table[c.method], c.args, c.ret, c.thread, c.tags, c.inv_index, c.ret_index)
    return c


S_REG_ABSTRACT = SequentialSpec(
    "register", S_REGISTER.init, lambda st, c: S_REGISTER.step(st, _reg_call(c))
)


def reg_lin_spec() -> LibrarySpec:
    return make_lin_spec(S_REG_ABSTRACT, _register_iface("reg"))


def reg_durlin_spec() -> LibrarySpec:
    return make_durlin_spec(S_REG_ABSTRACT, _register_iface("reg"))


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


def _flit_call_semantics(method: str, args: Tuple, ctx):
    if method == "fnew":
        x = ctx.fresh_loc()
        ctx.fresh_loc()  # the cell's flit-counter slot
        return [((Label("fnew", (), x),), x)]
    if method in ("fread_p", "fread_v"):
        return [((Label(method, args, v),), v) for v in ctx.domain]
    # writes and finish are void
    return [((Label(method, args, None),), None)]


def flit_interface() -> LibraryInterface:
    return LibraryInterface(
        name="flit",
        methods=FLIT_METHODS,
        constructors=frozenset({"fnew"}),
        loc=cell_loc("fnew", ("fread_p", "fread_v", "fwrite_p", "fwrite_v"), 2),
        tags_used=frozenset({P_TAG}),
        method_tags={m: frozenset({"D"}) for m in ("fwrite_p", "fwrite_v", "ffinish", "fnew")},
        returns={
            "fnew": "loc",
            "fread_p": "value",
            "fread_v": "value",
            "fwrite_p": "void",
            "fwrite_v": "void",
            "ffinish": "void",
        },
        call_semantics=_flit_call_semantics,
    )


def check_flit(x: Execution, budget: int = 100_000) -> Verdict:
    """Flit correctness: a total order lin ⊇ hb, a persist order nvo, and a
    persisted write set P such that reads see the lin-latest visible write
    (visible across eras only when persisted), persistent writes persist
    before dependent writes, persistent writes before a finish-op persist,
    and P is an nvo prefix.

    One era-monotone :func:`sc.linearizations` search places each write
    persisted or not (as its P tag says, if any event has one) and checks
    each read as it is placed: the state maps each location to the era and
    value of its lin-latest write and the value of its lin-latest persisted
    write.  The dependency and finish rules are checked on each sequence it
    yields.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = x.plain.era_of()
    lab = x.lab
    W = [e for e in ids if lab[e].method in ("fwrite_p", "fwrite_v")]
    WP = [e for e in W if lab[e].method == "fwrite_p"]
    RP = [e for e in ids if lab[e].method == "fread_p"]
    F = [e for e in ids if lab[e].method == "ffinish"]
    explicit = frozenset(e for e in ids if P_TAG in lab[e].tags)
    has_explicit = any(P_TAG in lab[e].tags for e in x.events)
    persists = {e: (e in explicit,) if has_explicit else (False, True) for e in W}
    options = [[(e, p) for p in persists.get(e, (None,))] for e in ids]

    def step(st, cand):
        e, persist = cand
        l = lab[e]
        if l.method in ("fread_p", "fread_v"):
            w_era, val, persisted = st.get(l.args[0], (None, 0, 0))
            return st if l.ret is BOT or l.ret == (val if w_era == era[e] else persisted) else None
        if persist is None:
            return st
        loc, val = l.args
        return {**st, loc: (era[e], val, val if persist else st.get(loc, (None, 0, 0))[2])}

    po_se = [(a, b) for (a, b) in x.po if era[a] == era[b]]
    preds = era_preds(x.hb_order.restrict(ids), [era[e] for e in ids])
    stats = {"stage": "linearization enumeration"}
    try:
        for placed in linearizations(
            preds, options, (1 << len(ids)) - 1, SequentialSpec("flit", dict, step), budget, stats
        ):
            lin = [e for _, (e, _) in placed]
            P = explicit if has_explicit else frozenset(e for _, (e, p) in placed if p)
            pos = {e: i for i, e in enumerate(lin)}
            # dependency: same-era po, plus persistent write-to-read pairs
            dep_edges = po_se + [
                (w, r)
                for w in WP
                for r in RP
                if lab[w].args[0] == lab[r].args[0] and pos[w] < pos[r] and (era[w] == era[r] or w in P)
            ]
            dep = Order.close(len(x), dep_edges).rows
            # dep relates events in lin order only, so nvo is acyclic and
            # points forward in era order
            nvo = Order.close(len(x), [(w1, w2) for w1 in WP for w2 in W if dep[w1] >> w2 & 1])
            # persistent writes before a finish-op persist; P is an nvo prefix
            if all(w in P for w in WP if any(dep[w] >> f & 1 for f in F)) and not any(
                b in P and a not in P for (a, b) in nvo.pairs
            ):
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
    if method == "mnew":
        x = ctx.fresh_loc()
        ctx.fresh_loc()
        return [((Label("mnew", (), x),), x)]
    if method == "mrd":
        return [((Label("mrd", args, v),), v) for v in ctx.domain]
    if method == "mwr":
        return [((Label("mwr", args, None),), None)]
    if method == "mcas":
        return [((Label("mcas", args, r),), r) for r in (1, 0)]
    raise ValueError(method)


def mirror_interface() -> LibraryInterface:
    return LibraryInterface(
        name="mirror",
        methods=MIRROR_METHODS,
        constructors=frozenset({"mnew"}),
        loc=cell_loc("mnew", ("mrd", "mwr", "mcas"), 2),
        tags_used=frozenset({P_TAG}),
        method_tags={m: frozenset({"D"}) for m in ("mwr", "mcas", "mnew")},
        returns={"mnew": "loc", "mrd": "value", "mwr": "void", "mcas": "value"},
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
    is checked first.  Then the first sequence of one era-monotone
    :func:`sc.linearizations` search is a witness; it checks each read as it
    is placed: its value, and that the sw edges into it are exactly its
    derived source.  The budget counts candidates tried."""
    ids = [e for e in x.events if not x.lab[e].is_crash]
    era = x.plain.era_of()
    lab = x.lab
    W = [e for e in ids if _mirror_is_write(lab[e])]
    R = {e for e in ids if _mirror_reads(lab[e])}
    P = frozenset(w for w in W if lab[w].is_complete)
    idset = set(ids)
    writes = sum(1 << w for w in W)
    po_sw_se = {(a, b) for (a, b) in (set(x.po) | set(x.sw)) if a in idset and b in idset and era[a] == era[b]}
    chain = Order.close(len(x), po_sw_se).rows
    # the restriction of a closed order to the writes is closed
    nvo = Order([row & writes if writes >> a & 1 else 0 for a, row in enumerate(chain)])
    sw_into = {r: frozenset(a for a, b in x.sw if b == r) for r in R}
    stats = {"stage": "linearization enumeration", "nodes": 0, "memo_hits": 0}
    if any(b not in R for _, b in x.sw) or not nvo.is_acyclic() or any(b in P and a not in P for (a, b) in nvo.pairs):
        return Verdict.fail("no mirror witness (lin/nvo)", stats=stats)

    def step(st, e):
        src, nxt = _mirror_step(lab, era, st, e)
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

    preds = era_preds(x.hb_order.restrict(ids), [era[e] for e in ids])
    spec = SequentialSpec("mirror", dict, step)
    try:
        lin = next(linearizations(preds, [[e] for e in ids], (1 << len(ids)) - 1, spec, budget, stats), None)
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    if lin is None:
        return Verdict.fail("no mirror witness (lin/nvo)", stats=stats)
    return Verdict.ok(witness={"lin": [e for _, e in lin], "nvo": sorted(nvo.pairs), "P": sorted(P)}, stats=stats)


def _mirror_step(lab: Mapping[int, Label], era: Mapping[int, int], st: dict, e: int):
    """Mirror's derived reads-from, one event of an era-monotone lin at a
    time.  ``st`` maps each location to its lin-latest write and its
    lin-latest completed (so persisted) write.  Returns the write ``e``
    reads from (``None`` if ``e`` reads none) and the state after ``e``: a
    read sees the latest write of its own era, else the latest completed
    one."""
    l = lab[e]
    if not l.args:
        return None, st
    last, done = st.get(l.args[0], (None, None))
    src = (last if last is not None and era[last] == era[e] else done) if _mirror_reads(l) else None
    if _mirror_is_write(l):
        st = {**st, l.args[0]: (e, e if l.is_complete else done)}
    return src, st


def _mirror_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Candidate sw sets: derived reads-from for each era-monotone lin of
    po, the first 2,000 candidates tried."""
    ids = [e for e in g.events if not g.lab[e].is_crash]
    era = g.era_of()
    out: List[FrozenSet[Tuple[int, int]]] = [frozenset()]
    preds = era_preds(g.po_order.restrict(ids), [era[e] for e in ids])
    try:
        for lin in linearizations(preds, [[e] for e in ids], (1 << len(ids)) - 1, ANY_ORDER, 2_000, {}):
            st, rf = {}, set()
            for _, e in lin:
                src, st = _mirror_step(g.lab, era, st, e)
                if src is not None:
                    rf.add((src, e))
            if frozenset(rf) not in out:
                out.append(frozenset(rf))
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


def ltrans_interface(name: str = "ltrans", begin: str = "pt_begin", end: str = "pt_end") -> LibraryInterface:
    return LibraryInterface(
        name=name,
        methods=LTRANS_METHODS,
        constructors=frozenset({"pt_new"}),
        loc=cell_loc("pt_new", ("pt_read", "pt_write")),
        tags_introduced=frozenset({T_TAG, PTR_TAG, B_TAG, E_TAG}),
        method_tags={
            "pt_read": frozenset({T_TAG}),
            "pt_write": frozenset({T_TAG}),
            begin: frozenset({B_TAG}),
            end: frozenset({E_TAG}),
        },
        returns={
            "pt_new": "loc",
            "pt_begin": "void",
            "pt_end": "void",
            "pt_write": "void",
            "pt_recover": "void",
            "pt_read": "value",
        },
    )


def _tagged(x: Execution, tag: str) -> List[int]:
    return [e for e in x.events if tag in x.lab[e].tags]


def same_transaction(x: Execution) -> FrozenSet[Tuple[int, int]]:
    """Pairs of same-thread transaction-relevant events with no begin- or
    end-tagged event strictly po-between them (symmetric)."""
    relevant = set(_tagged(x, T_TAG)) | set(_tagged(x, B_TAG)) | set(_tagged(x, E_TAG))
    seps = set(_tagged(x, B_TAG)) | set(_tagged(x, E_TAG))
    po = x.po
    out = set()
    for a in relevant:
        for b in relevant:
            if a == b:
                continue
            if x.lab[a].thread is None or x.lab[a].thread != x.lab[b].thread:
                continue
            if (a, b) not in po and (b, a) not in po:
                continue
            lo, hi = (a, b) if (a, b) in po else (b, a)
            if any(s not in (a, b) and (lo, s) in po and (s, hi) in po for s in seps):
                continue
            out.add((a, b))
            out.add((b, a))
    return frozenset(out)


def _ltrans_events(x: Execution):
    begins = [e for e in x.events if x.lab[e].method == "pt_begin"]
    ends = [e for e in x.events if x.lab[e].method == "pt_end"]
    writes = [e for e in x.events if x.lab[e].method == "pt_write"]
    reads = [e for e in x.events if x.lab[e].method == "pt_read"]
    news = [e for e in x.events if x.lab[e].method == "pt_new"]
    recovers = [e for e in x.events if x.lab[e].method == "pt_recover"]
    crashes = [e for e in x.events if x.lab[e].is_crash]
    return begins, ends, writes, reads, news, recovers, crashes


def ltrans_local_wellformed(x: Execution) -> Verdict:
    begins, ends, writes, reads, news, recovers, crashes = _ltrans_events(x)
    po = x.po
    hb = x.hb
    for e in ends:
        if not any((b, e) in po for b in begins):
            return Verdict.fail("cond 1: end without a prior begin")
    for e1 in ends:
        for e2 in ends:
            if (e1, e2) in po and not any((e1, b) in po and (b, e2) in po for b in begins):
                return Verdict.fail("cond 2: consecutive ends without a begin")
    for b1 in begins:
        for b2 in begins:
            if (b1, b2) in po and not any((b1, e) in po and (e, b2) in po for e in ends):
                return Verdict.fail("cond 2: nested transactions")
    for e in ends:
        for b in begins:
            if (e, b) not in hb and (b, e) not in hb:
                return Verdict.fail("cond 3: transactions not externally synchronized")
    b_tagged = _tagged(x, B_TAG)
    for c in crashes:
        for b in b_tagged:
            if (c, b) in hb and not any(
                (c, r) in hb and (r, b) in hb for r in recovers
            ):
                return Verdict.fail("cond 4: no recovery between crash and begin")
    for e in writes + reads:
        if T_TAG not in x.lab[e].tags:
            return Verdict.fail("cond 5: untagged transactional access")
    return Verdict.ok()


def ltrans_global_wellformed(x: Execution) -> Verdict:
    po = x.po
    t_tagged = _tagged(x, T_TAG)
    b_tagged = _tagged(x, B_TAG)
    e_tagged = _tagged(x, E_TAG)
    for t in t_tagged:
        if not any((b, t) in po for b in b_tagged):
            return Verdict.fail("cond 6: transactional event before any begin")
    for e in e_tagged:
        for t in t_tagged:
            if (e, t) in po and not any((e, b) in po and (b, t) in po for b in b_tagged):
                return Verdict.fail("cond 7: transactional event after end without new begin")
    return Verdict.ok()


def ltrans_local_consistent(x: Execution) -> Verdict:
    """Conditions 8-10: a reads-from with inverse total and functional on
    reads, reads access the most recent visible write (same era or
    persisted), and external reads come from persisted writes."""
    begins, ends, writes, reads, news, recovers, crashes = _ltrans_events(x)
    era = x.plain.era_of()
    hb = x.hb
    st = same_transaction(x)
    ptr = set(_tagged(x, PTR_TAG))

    def locof(e):
        l = x.lab[e]
        if l.method == "pt_new":
            return l.ret
        return l.args[0] if l.args else None

    sources = writes + news

    def written(e):
        l = x.lab[e]
        if l.method == "pt_new":
            return 0
        return l.args[1]

    def visible(w, r):
        return era[w] == era[r] or w in ptr or x.lab[w].method == "pt_new"

    for r in reads:
        if x.lab[r].ret is BOT:
            continue
        cands = [
            w
            for w in sources
            if locof(w) == locof(r)
            and written(w) == x.lab[r].ret
            and ((w, r) in hb or (w, r) in st)
            and visible(w, r)
        ]
        found = False
        for w in cands:
            blocked = any(
                w2 != w
                and w2 != r
                and locof(w2) == locof(r)
                and (w, w2) in hb
                and (w2, r) in hb
                and visible(w2, r)
                for w2 in sources
            )
            if blocked:
                continue
            if (w, r) not in st and w in writes and w not in ptr:
                continue  # cond 10: external reads need persisted sources
            found = True
            break
        if not found:
            return Verdict.fail(f"cond 8-10: read {r} has no admissible source")
    return Verdict.ok()


def ltrans_global_consistent(x: Execution) -> Verdict:
    """Conditions 11-14 over the tagged (possibly anonymized) execution."""
    hb = x.hb
    st = same_transaction(x)
    ptr = set(_tagged(x, PTR_TAG))
    t_tagged = set(_tagged(x, T_TAG))
    b_tagged = set(_tagged(x, B_TAG))
    e_tagged = set(_tagged(x, E_TAG))
    nvo_req = {
        (e, b) for e in e_tagged for b in b_tagged if (e, b) in hb
    }
    nvo = Order.close(len(x), nvo_req)
    if not nvo.is_acyclic():
        return Verdict.fail("cond 11: cyclic transaction order")
    if any(b in ptr and a not in ptr for (a, b) in nvo.pairs):
        return Verdict.fail("cond 12: persisted set is not an nvo prefix")
    for (a, b) in st:
        if a in ptr and b in t_tagged and b not in ptr:
            return Verdict.fail("cond 13: partially persisted transaction")
    for e in e_tagged:
        if x.lab[e].is_complete and e not in ptr:
            return Verdict.fail("cond 14: completed transaction not persisted")
    return Verdict.ok()


def _ltrans_tag_hook(g: PlainExecution) -> Sequence[Mapping[int, FrozenSet[str]]]:
    """Persisted-marker candidates: subsets of transaction-relevant events,
    whole transactions at a time, committed transactions first."""
    tagged = [
        e
        for e in g.events
        if {T_TAG, B_TAG, E_TAG} & g.lab[e].tags and PTR_TAG not in g.lab[e].tags
    ]
    if not tagged:
        return [{}]
    # group by same-transaction over po (thread, segment between B/E tags)
    x = Execution(g)
    st = same_transaction(x)
    groups: List[List[int]] = []
    placed = set()
    for e in sorted(tagged):
        if e in placed:
            continue
        grp = sorted({e} | {b for (a, b) in st if a == e and b in set(tagged)})
        groups.append(grp)
        placed.update(grp)
    out: List[Mapping[int, FrozenSet[str]]] = []
    indices = list(range(len(groups)))
    for r in range(len(groups), -1, -1):
        for combo in itertools.combinations(indices, r):
            tags: Dict[int, FrozenSet[str]] = {}
            for gi in combo:
                for e in groups[gi]:
                    tags[e] = frozenset({PTR_TAG})
            out.append(tags)
    return out


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
        returns={"lnew": "loc", "lacq": "void", "lrel": "void"},
    )


def lock_consistent(x: Execution) -> Verdict:
    """hb totally orders the lock events of each era into (acq·rel)*·acq?."""
    era = x.plain.era_of()
    n_eras = len(x.plain.crash_events()) + 1
    for k in range(n_eras):
        evs = [
            e
            for e in x.events
            if era[e] == k and x.lab[e].method in ("lacq", "lrel")
        ]
        for a in evs:
            for b in evs:
                if a != b and (a, b) not in x.hb and (b, a) not in x.hb:
                    return Verdict.fail("lock events not totally hb-ordered")
        word = [
            x.lab[e].method
            for e in sorted(evs, key=lambda e: sum(1 for o in evs if (o, e) in x.hb))
        ]
        expect_acq = True
        for m in word:
            if expect_acq and m != "lacq":
                return Verdict.fail("release without a held lock")
            if not expect_acq and m != "lrel":
                return Verdict.fail("double acquire")
            expect_acq = not expect_acq
    return Verdict.ok()


def _lock_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Interleavings of critical sections: per era, the per-thread (acq[,rel])
    sections in every order that po allows, an open section (no release)
    after all others, rel -> next acq edges proposed."""
    era = g.era_of()
    rows = g.po_order.rows
    options_per_era: List[List[FrozenSet[Tuple[int, int]]]] = []
    for k in range(len(g.crash_events()) + 1):
        sections: List[List[int]] = []
        by_thread: Dict[int, List[int]] = {}
        for e in g.events:
            if era[e] == k and g.lab[e].method in ("lacq", "lrel"):
                by_thread.setdefault(g.lab[e].thread, []).append(e)
        for t, evs in sorted(by_thread.items(), key=lambda kv: repr(kv[0])):
            cur: List[int] = []
            for e in sorted(evs):
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
    out = []
    for combo in itertools.product(*options_per_era):
        merged = frozenset().union(*combo) if combo else frozenset()
        if merged not in out:
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
        returns={"lpt_begin": "void", "lpt_end": "void"},
    )


def lstrans_spec() -> LibrarySpec:
    """The lock-wrapped transaction sections: external synchronization of
    begin/end becomes a guarantee, so local well-formedness only requires
    bracketing."""

    def wf(x: Execution) -> Verdict:
        po = x.po
        begins = [e for e in x.events if x.lab[e].method == "lpt_begin"]
        ends = [e for e in x.events if x.lab[e].method == "lpt_end"]
        for e in ends:
            if not any((b, e) in po for b in begins):
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
        returns={"cnew": "loc", "cinc": "void", "cread": "value"},
    )


def counter_consistent(x: Execution) -> Verdict:
    """A read returns the number of increments hb-before it that are visible
    (same era or persisted)."""
    era = x.plain.era_of()
    ptr = set(_tagged(x, PTR_TAG))
    for r in [e for e in x.events if x.lab[e].method == "cread"]:
        if x.lab[r].ret is BOT:
            continue
        count = 0
        for i in [e for e in x.events if x.lab[e].method == "cinc"]:
            if x.lab[i].args[0] != x.lab[r].args[0]:
                continue
            if (i, r) in x.hb and (era[i] == era[r] or i in ptr):
                count += 1
        if x.lab[r].ret != count:
            return Verdict.fail(f"cread returned {x.lab[r].ret}, expected {count}")
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
        returns={"mmnew": "loc", "mmadd": "void", "mmmin": "value", "mmmax": "value"},
    )


def _s_mmcounter_step(state, c: Call):
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
        return state if c.ret == lo else None
    if c.method == "mmmax":
        return state if c.ret == hi else None
    return None


S_MMCOUNTER = SequentialSpec("mmcounter", dict, _s_mmcounter_step)


def mmcounter_consistent(x: Execution, budget: int = 100_000) -> Verdict:
    """Era-wise persisted-prefix linearization: events of earlier eras count
    only when persisted; the final era contributes everything."""

    def keep(l: Label, era: int, last: bool) -> str:
        if last:
            return "keep" if l.is_complete else "optional"
        if PTR_TAG in l.tags or l.method == "mmnew":
            return "keep" if l.is_complete else "optional"
        return "drop"

    return execution_linearizable(x, S_MMCOUNTER, mmcounter_interface(), keep=keep, budget=budget, era_monotone=True)


def mmcounter_spec() -> LibrarySpec:
    return LibrarySpec(
        interface=mmcounter_interface(),
        deps=frozenset({"ltrans"}),
        local_consistent=mmcounter_consistent,
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
            call = Call(l.method, l.args, l.ret, l.thread, l.tags, 0, 0)
            before = states[obj] if obj in states else start(obj).values()
            return obj, {**states, obj: [t for t in (spec.seq.step(s, call) for s in before) if t is not None]}

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


def builtin_spec(name: str, budget: int = 100_000) -> LibrarySpec:
    """Specs addressable by name: px86, flit, mirror, ltrans, lstrans, lock,
    durqueue, weakreg, counter, mmcounter, reg, lin:<seq>, durlin:<seq>."""
    table: Dict[str, Callable[[], LibrarySpec]] = {
        "px86": lambda: px86_spec(budget=max(budget, 100_000)),
        "flit": lambda: flit_spec(budget),
        "mirror": lambda: mirror_spec(budget),
        "ltrans": ltrans_spec,
        "lstrans": lstrans_spec,
        "lock": lock_spec,
        "durqueue": lambda: durqueue_spec(budget),
        "weakreg": lambda: weakreg_spec(budget=budget),
        "counter": counter_spec,
        "mmcounter": mmcounter_spec,
        "reg": reg_lin_spec,
        "scmem": lambda: scmem_spec(budget),
    }
    if name in table:
        return table[name]()
    if name.startswith("lin:") or name.startswith("durlin:"):
        kind, _, seq = name.partition(":")
        seqs = {"queue": S_QUEUE_ALIASED, "register": S_REG_ABSTRACT, "reg": S_REG_ABSTRACT, "mmcounter": S_MMCOUNTER}
        if seq not in seqs:
            raise KeyError(f"unknown sequential spec {seq}")
        ifaces = {"queue": queue_interface(), "register": _register_iface(), "reg": _register_iface(), "mmcounter": mmcounter_interface()}
        maker = make_lin_spec if kind == "lin" else make_durlin_spec
        return maker(seqs[seq], ifaces[seq], budget=budget)
    raise KeyError(f"unknown spec {name}")


def _s_mem_step(state, c: Call):
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
        return state if c.ret == state.get(c.args[0], 0) else None
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
    from .px86 import px86_interface

    iface = px86_interface()
    # no value_flow: under SC a load of a location nothing wrote returns 0
    iface = LibraryInterface(
        name="scmem",
        methods=iface.methods,
        constructors=iface.constructors,
        loc=iface.loc,
        method_tags=iface.method_tags,
        returns=iface.returns,
        call_semantics=iface.call_semantics,
    )

    def check(x: Execution) -> Verdict:
        return execution_linearizable(x, S_MEM, iface, budget=budget, era_monotone=True)

    return LibrarySpec(interface=iface, local_consistent=check)


def load_manifest(path) -> Tuple["Collection", dict]:
    """Build a Collection from a JSON manifest.

    Shape: {"libraries": [{"name": "px86", "budget": 50000}, ...],
            "domain": [0, 1], "unroll": 4}.
    Returns the frozen-free collection plus the leftover interpreter options.
    """
    import json
    from pathlib import Path

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    coll = Collection()
    for entry in data.get("libraries", []):
        if isinstance(entry, str):
            entry = {"name": entry}
        coll.register(builtin_spec(entry["name"], budget=int(entry.get("budget", 100_000))))
    options = {
        "domain": tuple(data.get("domain", ())),
        "unroll": data.get("unroll"),
    }
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
        raise KeyError(f"unknown implementation {name}")
    return table[name]()
