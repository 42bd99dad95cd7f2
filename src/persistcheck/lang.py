"""The small concurrent language: parsing, interpretation, linking.

Programs are finite maps from thread ids to sequential commands, plus a
globals block of initializer calls.  Each thread's runs are enumerated on
their own: calls return candidate values drawn from the configured domain
(void and allocating methods aside).  Every interleaving-free pomset of the
per-thread traces is produced, and consistency filtering happens downstream
against library specifications.  Loops are bounded by an unrolling budget;
runs cut at the budget contribute partial executions only.

Reads of a library that declares its value flow (px86) are not left to the
downstream filter when only complete runs are asked for: where the thread
runs meet, a run is built only if each such read has a write of its
location and value in its era or an earlier one (:class:`ValueFlow`).

Top-level crash semantics restarts the threads after each crash: the
globals run once, before the first era, and every era shares their bindings
(the objects they allocated persist across crashes).  A litmus file can
instead give explicit crash-separated phases, which share the first phase's
global bindings in the same way.  The interpreter builds no order of its
own: a run is ``model.seq_compose`` of the globals chain and the parallel
thread chains, and eras are glued as ``seq_compose(G1, Crash, G2)``.

Linking (and the persistification transformers of ``libs``) rewrite the
syntax through two generic walks, :func:`subterms` and :func:`rewrite`,
which read the node types and their fields from ``_NODES``.  Only the
interpreter and the parser dispatch on node types, so a new node type needs
only its ``_NODES`` entry, an interpreter case and a parser case.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .framework import BudgetExceeded, Collection, UnknownMethod, shared_verdicts
from .model import BOT, CRASH, Execution, Label, PlainExecution, parallel_execution, seq_compose, sequence_execution


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{msg} (line {line}, col {col})")
        self.line = line
        self.col = col


class LinkError(Exception):
    pass


class ArityMismatch(LinkError):
    pass


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Val:
    v: object

    def __repr__(self):
        return repr(self.v)


@dataclass(frozen=True)
class Reg:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Bin:
    op: str
    a: object
    b: object

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


@dataclass(frozen=True)
class Un:
    op: str
    a: object

    def __repr__(self):
        return f"{self.op}{self.a!r}"


@dataclass(frozen=True)
class Skip:
    def __repr__(self):
        return "skip"


@dataclass(frozen=True)
class Assign:
    reg: str
    expr: object

    def __repr__(self):
        return f"{self.reg} := {self.expr!r}"


@dataclass(frozen=True)
class CallCmd:
    reg: Optional[str]
    method: str
    args: Tuple = ()

    def __repr__(self):
        head = f"{self.reg} := " if self.reg else ""
        return f"{head}{self.method}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Seq:
    cmds: Tuple = ()

    def __repr__(self):
        return "; ".join(map(repr, self.cmds)) or "skip"


@dataclass(frozen=True)
class If:
    cond: object
    then: object
    els: object = Skip()

    def __repr__(self):
        return f"if ({self.cond!r}) {{ {self.then!r} }} else {{ {self.els!r} }}"


@dataclass(frozen=True)
class While:
    cond: object
    body: object

    def __repr__(self):
        return f"while ({self.cond!r}) {{ {self.body!r} }}"


@dataclass(frozen=True)
class Return:
    expr: object = Val(None)

    def __repr__(self):
        return f"return {self.expr!r}"


#: The syntax node types, each with its fields in order.  The generic walks
#: below read only this table; the interpreter and the parser are the one
#: other place that dispatches on node types.
_NODES: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in (Val, Reg, Bin, Un, Skip, Assign, CallCmd, Seq, If, While, Return)
}


def subterms(node) -> Iterator:
    """``node`` and every node under it, parents first, children in field
    order."""
    yield node
    for name in _NODES[type(node)]:
        x = getattr(node, name)
        for y in x if isinstance(x, tuple) else (x,):
            if type(y) in _NODES:
                yield from subterms(y)


def rewrite(node, f: Callable):
    """``node`` rebuilt bottom-up: its children are rewritten in field order,
    then ``f`` maps the rebuilt node (what ``f`` returns is not walked)."""
    if type(node) not in _NODES:
        return node
    args = []
    for name in _NODES[type(node)]:
        x = getattr(node, name)
        args.append(tuple(rewrite(y, f) for y in x) if isinstance(x, tuple) else rewrite(x, f))
    return f(type(node)(*args))


@dataclass(frozen=True)
class Prog:
    """Thread bodies plus a globals block: (name, command) pairs whose
    return value binds the name; initializer runs take the first candidate
    of every call (deterministic)."""

    threads: Mapping[int, object] = field(default_factory=dict)
    globals: Tuple[Tuple[str, object], ...] = ()

    def thread_ids(self) -> List[int]:
        return sorted(self.threads)


@dataclass(frozen=True)
class SyntacticImpl:
    """Per-method programs with formal parameters, plus private globals."""

    name: str
    methods: Mapping[str, Tuple[Tuple[str, ...], object]]
    globals: Tuple[Tuple[str, object], ...] = ()

    def method_names(self) -> FrozenSet[str]:
        return frozenset(self.methods)


@dataclass(frozen=True)
class Expectation:
    consistent: bool
    outcome: Optional[Tuple[Tuple[str, object], ...]] = None  # reg -> value


@dataclass(frozen=True)
class LitmusFile:
    collection: Tuple[str, ...]
    phases: Tuple[Prog, ...]
    expectations: Tuple[Expectation, ...]
    domain: Tuple = ()
    unroll: Optional[int] = None
    name: str = ""


# --------------------------------------------------------------------------
# Expression evaluation
# --------------------------------------------------------------------------

def _num(v):
    """Null coerces to 0 in arithmetic and ordered comparison; equality
    stays exact (the free-value semantics routes null through every call)."""
    return 0 if v is None else v


_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: _num(a) + _num(b),
    "-": lambda a, b: _num(a) - _num(b),
    "*": lambda a, b: _num(a) * _num(b),
    "/": lambda a, b: _num(a) // _num(b) if _num(b) else 0,
    "%": lambda a, b: _num(a) % _num(b) if _num(b) else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if _num(a) < _num(b) else 0,
    "<=": lambda a, b: 1 if _num(a) <= _num(b) else 0,
    ">": lambda a, b: 1 if _num(a) > _num(b) else 0,
    ">=": lambda a, b: 1 if _num(a) >= _num(b) else 0,
    "&&": lambda a, b: 1 if (a and b) else 0,
    "||": lambda a, b: 1 if (a or b) else 0,
    "min": lambda a, b: min(_num(a), _num(b)),
    "max": lambda a, b: max(_num(a), _num(b)),
}


def eval_expr(e, env: Mapping[str, object]):
    if isinstance(e, Val):
        return e.v
    if isinstance(e, Reg):
        if e.name not in env:
            raise UnknownMethod(f"unbound register {e.name}")
        return env[e.name]
    if isinstance(e, Bin):
        return _BINOPS[e.op](eval_expr(e.a, env), eval_expr(e.b, env))
    if isinstance(e, Un):
        v = eval_expr(e.a, env)
        if e.op == "!":
            return 0 if v else 1
        if e.op == "-":
            return -v
    raise TypeError(f"not an expression: {e!r}")


def _truthy(v) -> bool:
    return bool(v) and v is not None


# --------------------------------------------------------------------------
# Interpretation
# --------------------------------------------------------------------------


class CallCtx:
    """Per-call view handed to interface call-semantics hooks: the candidate
    value domain plus a deterministic location allocator.  Locations are a
    pure function of the call's position in the run, so enumeration branches
    cannot drift."""

    def __init__(self, domain: List, loc: int):
        self.domain = domain
        self._loc = loc

    def fresh_loc(self) -> int:
        self._loc += 1
        return self._loc

    @property
    def loc(self) -> int:
        return self._loc


@dataclass(frozen=True)
class InterpConfig:
    domain: Tuple = ()
    unroll: int = 8
    max_runs: int = 20_000
    loc_base: int = 100
    #: optional sound prefix pruning: (collection, the Interpretations of the
    #: earlier phases) -> prune(trace) or None; a False from prune abandons
    #: the branch.  Only consulted for single-threaded phases (prefix traces
    #: are total orders there, so sequential infeasibility is final).
    prune_factory: Optional[Callable] = None

    def with_domain(self, extra: Iterable) -> "InterpConfig":
        dom = list(self.domain)
        for v in extra:
            if v not in dom:
                dom.append(v)
        return replace(self, domain=tuple(dom))


DONE = "done"
RETURNED = "returned"
CUT = "cut"


def _literals(com) -> Set:
    return {n.v for n in subterms(com) if isinstance(n, Val)}


def default_domain(prog: Prog, config: InterpConfig) -> List:
    vals: List = list(config.domain)
    lits: Set = set()
    for com in prog.threads.values():
        lits |= _literals(com)
    for _, com in prog.globals:
        lits |= _literals(com)
    for v in sorted(lits, key=repr) + [0, None]:
        if v not in vals:
            vals.append(v)
    return vals


class _Runner:
    """Enumerates complete runs of one sequential command.

    The location counter is threaded functionally through the run, making
    allocation a deterministic function of the call position rather than of
    the enumeration order."""

    def __init__(self, coll: Collection, domain: List, unroll: int, max_runs: int, prune=None):
        self.coll = coll
        self.domain = domain
        self.unroll = unroll
        self.max_runs = max_runs
        self.prune = prune
        self.produced = 0

    def call_options(self, method: str, argv: Tuple, loc: int):
        spec = None
        for s in self.coll.specs():
            if method in s.interface.methods:
                spec = s
                break
        if spec is None:
            raise UnknownMethod(f"method {method} not in the declared collection")
        iface = spec.interface
        ctx = CallCtx(self.domain, loc)
        if iface.call_semantics is not None:
            opts = iface.call_semantics(method, argv, ctx)
        else:
            kind = iface.returns.get(method, "value")
            if kind == "void":
                rets = [None]
            elif kind == "loc":
                rets = [ctx.fresh_loc()]
            else:
                rets = list(ctx.domain)
            opts = [((Label(method, argv, r),), r) for r in rets]
        decorated = []
        for labels, r in opts:
            decorated.append((tuple(iface.decorate(l) for l in labels), r))
        return decorated, ctx.loc

    def run(self, com, env: Dict, fuel: int, loc: int, acc: Tuple[Label, ...] = ()):
        """Yield (trace, env, status, retval, loc'); ``acc`` is the trace
        accumulated so far (pruning context)."""
        self.produced += 1
        if self.produced > self.max_runs:
            raise BudgetExceeded({"runs": self.produced})
        if isinstance(com, Skip):
            yield (), env, DONE, None, loc
        elif isinstance(com, Assign):
            env2 = dict(env)
            env2[com.reg] = eval_expr(com.expr, env)
            yield (), env2, DONE, None, loc
        elif isinstance(com, Return):
            yield (), env, RETURNED, eval_expr(com.expr, env), loc
        elif isinstance(com, CallCmd):
            argv = tuple(eval_expr(a, env) for a in com.args)
            opts, loc2 = self.call_options(com.method, argv, loc)
            for labels, ret in opts:
                if self.prune is not None and not self.prune(acc + labels):
                    continue
                env2 = dict(env)
                if com.reg is not None:
                    env2[com.reg] = ret
                yield labels, env2, DONE, None, loc2
        elif isinstance(com, Seq):
            yield from self._run_seq(com.cmds, env, fuel, loc, acc)
        elif isinstance(com, If):
            branch = com.then if _truthy(eval_expr(com.cond, env)) else com.els
            yield from self.run(branch, env, fuel, loc, acc)
        elif isinstance(com, While):
            if not _truthy(eval_expr(com.cond, env)):
                yield (), env, DONE, None, loc
            elif fuel <= 0:
                yield (), env, CUT, None, loc
            else:
                for tr, env2, st, rv, loc2 in self.run(com.body, env, fuel, loc, acc):
                    if st != DONE:
                        yield tr, env2, st, rv, loc2
                        continue
                    for tr2, env3, st2, rv2, loc3 in self.run(com, env2, fuel - 1, loc2, acc + tr):
                        yield tr + tr2, env3, st2, rv2, loc3
        else:
            raise TypeError(f"not a command: {com!r}")

    def _run_seq(self, cmds: Tuple, env: Dict, fuel: int, loc: int, acc: Tuple[Label, ...] = ()):
        if not cmds:
            yield (), env, DONE, None, loc
            return
        head, rest = cmds[0], cmds[1:]
        for tr, env2, st, rv, loc2 in self.run(head, env, fuel, loc, acc):
            if st != DONE:
                yield tr, env2, st, rv, loc2
                continue
            for tr2, env3, st2, rv2, loc3 in self._run_seq(rest, env2, fuel, loc2, acc + tr):
                yield tr + tr2, env3, st2, rv2, loc3


@dataclass(frozen=True)
class ThreadRun:
    trace: Tuple[Label, ...]
    env: Tuple[Tuple[str, object], ...]
    status: str
    retval: object = None


def _set_thread(labels: Iterable[Label], thread: int) -> Tuple[Label, ...]:
    return tuple(replace(l, thread=thread) for l in labels)


def _prefix_traces(traces: Set[Tuple[Label, ...]]) -> Set[Tuple[Label, ...]]:
    """All prefixes, with the last call optionally stripped of its return."""
    out: Set[Tuple[Label, ...]] = set()
    for t in traces:
        for k in range(len(t) + 1):
            pre = t[:k]
            out.add(pre)
            if pre:
                last = pre[-1]
                if last.is_call and last.is_complete:
                    out.add(pre[:-1] + (replace(last, ret=BOT),))
    return out


class Interpretation:
    """The semantics of one program: complete outcomes and partial cuts.

    When ``globals_env`` is supplied, the globals block is not executed: the
    given bindings are used and no initializer events are emitted (shared
    globals of a later crash phase)."""

    def __init__(
        self,
        prog: Prog,
        coll: Collection,
        config: InterpConfig,
        globals_env: Optional[Dict[str, object]] = None,
        loc_start: Optional[int] = None,
        prune=None,
    ):
        self.prog = prog
        self.coll = coll
        self.config = config
        self.domain = default_domain(prog, config)
        # pruning is only sound when prefixes are totally ordered
        self._prune = prune if len(prog.threads) <= 1 else None
        self._interpret(globals_env, loc_start if loc_start is not None else config.loc_base)

    def _interpret(self, preset_env: Optional[Dict[str, object]], loc_start: int):
        runner = _Runner(self.coll, self.domain, self.config.unroll, self.config.max_runs)
        gtrace: List[Label] = []
        loc = loc_start
        if preset_env is not None:
            genv = dict(preset_env)
        else:
            genv = {"null": None}
            for name, com in self.prog.globals:
                # initializers are deterministic: the first complete run wins
                first = None
                for tr, env2, st, rv, loc2 in runner.run(com, dict(genv), self.config.unroll, loc):
                    if st == CUT:
                        continue
                    first = (tr, env2, st, rv, loc2)
                    break
                if first is None:
                    raise ValueError(f"global initializer {name} never completes")
                tr, env2, st, rv, loc = first
                gtrace.extend(replace(l, thread=None) if l.is_call else l for l in tr)
                genv[name] = rv if st == RETURNED else None
        # globals-allocated locations join the candidate domain
        for v in range(loc_start + 1, loc + 1):
            if v not in self.domain:
                self.domain.append(v)
        self.globals_trace = tuple(gtrace)
        self.globals_env = genv
        self.loc_after_globals = loc
        self._outcome_exclude = {name for name, _ in self.prog.globals} | set(
            (preset_env or {}).keys()
        ) | {"null"}
        self.thread_runs: Dict[int, List[ThreadRun]] = {}
        runner.prune = self._prune
        for t in self.prog.thread_ids():
            runs: List[ThreadRun] = []
            for tr, env, st, rv, _loc2 in runner.run(
                self.prog.threads[t], dict(genv), self.config.unroll, loc, self.globals_trace
            ):
                runs.append(ThreadRun(_set_thread(tr, t), tuple(sorted(env.items(), key=lambda kv: kv[0])), st, rv))
            self.thread_runs[t] = runs

    # -- plain executions ---------------------------------------------------

    def thread_choices(self, complete: bool) -> List[List[ThreadRun]]:
        """Per thread, in thread-id order, the runs an execution picks one of:
        the complete runs, or (``complete=False``) every prefix of every run,
        its last call optionally pending."""
        tids = self.prog.thread_ids()
        if complete:
            return [[r for r in self.thread_runs[t] if r.status in (DONE, RETURNED)] for t in tids]
        return [
            [ThreadRun(tr, (), CUT) for tr in sorted(_prefix_traces({r.trace for r in self.thread_runs[t]}), key=repr)]
            for t in tids
        ]

    def outcome(self, combo: Sequence[ThreadRun]) -> Dict[str, object]:
        """The registers a complete run reports."""
        env: Dict[str, object] = {}
        for run in combo:
            for k, v in run.env:
                if not k.startswith("__") and k not in self._outcome_exclude:
                    env[k] = v
        return env

    def labels(self, combo: Sequence[ThreadRun]) -> Tuple[Label, ...]:
        """The labels of the execution :meth:`build` makes, in its order."""
        return self.globals_trace + tuple(l for run in combo for l in run.trace)

    def build(self, combo: Sequence[ThreadRun]) -> PlainExecution:
        """The execution of one run per thread (in thread-id order), after the
        globals trace."""
        return seq_compose(sequence_execution(self.globals_trace), parallel_execution(*(r.trace for r in combo)))

    def complete_executions(self) -> List[Tuple[Dict[str, object], PlainExecution]]:
        """(outcome env, execution) for every all-threads-complete run."""
        combos = itertools.product(*self.thread_choices(True))
        return [(self.outcome(c), self.build(c)) for c in combos]

    def partial_executions(self) -> List[PlainExecution]:
        """⟦P⟧^⊥: every per-thread cut of every run (downward closed)."""
        return [self.build(c) for c in itertools.product(*self.thread_choices(False))]

    def return_values(self) -> Dict[object, List[PlainExecution]]:
        """⟦P⟧^v for single-threaded method bodies: v is the return value."""
        tids = self.prog.thread_ids()
        if len(tids) != 1:
            raise ValueError("return-value semantics applies to single-threaded programs")
        t = tids[0]
        out: Dict[object, List[PlainExecution]] = {}
        for r in self.thread_runs[t]:
            if r.status == CUT:
                continue
            v = r.retval if r.status == RETURNED else None
            out.setdefault(v, []).append(self.build([r]))
        return out


def interpret(prog: Prog, coll: Collection, config: InterpConfig = InterpConfig()) -> Interpretation:
    return Interpretation(prog, coll, config)


def interpret_toplevel(
    prog: Prog,
    coll: Collection,
    max_crashes: int = 0,
    config: InterpConfig = InterpConfig(),
    complete_only: bool = False,
) -> List[Tuple[Optional[Dict[str, object]], PlainExecution]]:
    """Crash-restart semantics: G1 · Crash · … · Crash · Gn with every Gi a
    partial run of the program's threads and Gn complete (its outcome is
    reported) or partial (outcome None).  The globals run once, before G1;
    later eras restart the threads with the globals' bindings, so an object
    allocated there survives every crash."""
    restarted = Prog(threads=prog.threads)
    return interpret_phases(
        [prog] + [restarted] * max_crashes, coll, config, complete_only=complete_only
    )


class ValueFlow:
    """The reads and writes that a collection's libraries declare
    (``LibraryInterface.value_flow``), as keys: a write of ``value`` at
    ``loc`` by library ``lib`` gives ``(lib, loc, value)`` and ``(lib, loc)``;
    a read needs the first, or the second if its value is ``BOT``."""

    def __init__(self, coll: Collection):
        self.coll = coll
        self._memo: Dict[Label, Tuple[Optional[tuple], Tuple[tuple, ...]]] = {}

    def of(self, l: Label) -> Tuple[Optional[tuple], Tuple[tuple, ...]]:
        """The key ``l`` reads (or ``None``) and the keys it writes."""
        got = self._memo.get(l)
        if got is None:
            read, writes = None, ()
            spec = self.coll.owner_of(l)
            if spec is not None and spec.interface.value_flow is not None:
                r, w = spec.interface.value_flow(l)
                if r is not None:
                    read = (spec.name, r[0]) if r[1] is BOT else (spec.name,) + tuple(r)
                if w is not None:
                    writes = ((spec.name,) + tuple(w), (spec.name, w[0]))
            got = self._memo[l] = (read, writes)
        return got

    def writes(self, traces: Iterable[Sequence[Label]]) -> Set[tuple]:
        return {w for tr in traces for l in tr for w in self.of(l)[1]}

    def reads_within(self, trace: Sequence[Label], written: Set[tuple]) -> bool:
        """Whether ``written`` holds every key that ``trace`` reads."""
        return all(r is None or r in written for r, _ in map(self.of, trace))

    def sourced(self, labels: Sequence[Label]) -> bool:
        """Whether every read has a write of its key by another event of its
        era or an earlier one; the crash labels split the eras, in label
        order."""
        count: Dict[tuple, int] = {}  # writes of this era and earlier ones
        pending: List[Tuple[tuple, bool]] = []  # this era's reads, own write
        for l in labels:
            if l.is_crash:
                if not all(count.get(r, 0) > own for r, own in pending):
                    return False
                pending = []
                continue
            r, ws = self.of(l)
            for w in ws:
                count[w] = count.get(w, 0) + 1
            if r is not None:
                pending.append((r, r in ws))
        return all(count.get(r, 0) > own for r, own in pending)


def interpret_phases(
    phases: Sequence[Prog],
    coll: Collection,
    config: InterpConfig = InterpConfig(),
    complete_only: bool = False,
) -> List[Tuple[Optional[Dict[str, object]], PlainExecution]]:
    """Explicit crash-separated phases.  Later phases share the first phase's
    global bindings (initializers run once).  With ``complete_only`` the
    final era contributes only complete runs (the partial tail of the
    top-level semantics is skipped).

    With ``complete_only``, if some library of ``coll`` declares its value
    flow, only sourced runs are built: a thread run of era ``i`` is dropped
    before the product if one of its reads is written by no trace of the
    globals or of an era up to ``i``, and each assembled run must pass
    :meth:`ValueFlow.sourced` before it is glued."""
    factory = config.prune_factory or (lambda coll, earlier: None)
    first = Interpretation(phases[0], coll, config, prune=factory(coll, []))
    interps: List[Interpretation] = [first]
    later_config = config.with_domain(first.domain)
    for p in phases[1:]:
        if p.globals:
            raise ParseError("only the first phase may declare globals")
        interps.append(
            Interpretation(
                p,
                coll,
                later_config,
                globals_env=dict(first.globals_env),
                loc_start=first.loc_after_globals,
                prune=factory(coll, interps[:]),
            )
        )
    n = len(interps)
    declared = any(s.interface.value_flow is not None for s in coll.specs())
    flow = ValueFlow(coll) if complete_only and declared else None
    written = flow.writes([first.globals_trace]) if flow else set()
    # per era: (outcome env or None, the chosen thread runs)
    eras: List[List[Tuple[Optional[Dict[str, object]], Tuple[ThreadRun, ...]]]] = []
    for i, it in enumerate(interps):
        final = i == n - 1
        runs: List[Tuple[Optional[Dict[str, object]], Tuple[ThreadRun, ...]]] = []
        kinds = ((True,) if complete_only else (True, False)) if final else (False,)
        for complete in kinds:
            choices = it.thread_choices(complete)
            if flow:
                written |= flow.writes(r.trace for rs in choices for r in rs)
                choices = [[r for r in rs if flow.reads_within(r.trace, written)] for rs in choices]
            runs.extend((it.outcome(c) if complete else None, c) for c in itertools.product(*choices))
        eras.append(runs)
    graphs: Dict[Tuple[int, int], PlainExecution] = {}
    crash = sequence_execution([CRASH])
    out: List[Tuple[Optional[Dict[str, object]], PlainExecution]] = []

    def rec(i: int, acc: Optional[PlainExecution], acc_labels: Tuple[Label, ...]):
        for j, (env, combo) in enumerate(eras[i]):
            labels = acc_labels
            if flow:
                labels += ((CRASH,) if i else ()) + interps[i].labels(combo)
                if not flow.sourced(labels):
                    continue
            if (i, j) not in graphs:
                graphs[i, j] = interps[i].build(combo)
            g = graphs[i, j]
            g = g if acc is None else seq_compose(acc, crash, g)
            if i == n - 1:
                out.append((env, g))
            else:
                rec(i + 1, g, labels)

    rec(0, None, ())
    # deduplicate identical executions (same labels, po and outcome)
    seen = set()
    uniq = []
    for env, g in out:
        key = (tuple(g.labels()), g.po_order.rows, None if env is None else tuple(sorted(env.items(), key=repr)))
        if key not in seen:
            seen.add(key)
            uniq.append((env, g))
    return uniq


# --------------------------------------------------------------------------
# Syntactic linking
# --------------------------------------------------------------------------


def _methods_called(com) -> Set[str]:
    return {n.method for n in subterms(com) if isinstance(n, CallCmd)}


def _rename_com(c, ren: Mapping[str, str]):
    def rn(n):
        if isinstance(n, Reg):
            return Reg(ren.get(n.name, n.name))
        if isinstance(n, (Assign, CallCmd)) and n.reg:
            return replace(n, reg=ren.get(n.reg, n.reg))
        return n

    return rewrite(c, rn)


def _registers_of(c) -> Set[str]:
    return {r for n in subterms(c) for r in (getattr(n, "name", None), getattr(n, "reg", None)) if r}


def _guard_returns(done: str, ret_reg: Optional[str]):
    """The rewriter of `return e` into result/flag assignments, guarding
    each command of a sequence and each loop test by the flag."""

    def tr(c):
        if isinstance(c, Return):
            return Seq(((Assign(ret_reg, c.expr),) if ret_reg else ()) + (Assign(done, Val(1)),))
        if isinstance(c, Seq):
            return Seq(tuple(If(Bin("==", Reg(done), Val(0)), s, Skip()) for s in c.cmds))
        if isinstance(c, While):
            return While(Bin("&&", Bin("==", Reg(done), Val(0)), c.cond), c.body)
        return c

    return tr


def inline_call(call: CallCmd, impl: SyntacticImpl, counter: List[int]):
    params, body = impl.methods[call.method]
    if len(params) != len(call.args):
        raise ArityMismatch(
            f"{call.method} expects {len(params)} arguments, got {len(call.args)}"
        )
    counter[0] += 1
    pfx = f"__{call.method}{counter[0]}_"
    global_names = {name for name, _ in impl.globals}
    local = (_registers_of(body) | set(params)) - global_names
    ren = {r: pfx + r for r in local}
    done = pfx + "done"
    stmts: List = [Assign(done, Val(0))]
    if call.reg:
        stmts.append(Assign(call.reg, Val(None)))
    for p, a in zip(params, call.args):
        stmts.append(Assign(ren[p], a))
    stmts.append(rewrite(_rename_com(body, ren), _guard_returns(done, call.reg)))
    return Seq(tuple(stmts))


def link_com(com, impl: SyntacticImpl, counter: List[int]):
    def inline(c):
        return inline_call(c, impl, counter) if isinstance(c, CallCmd) and c.method in impl.methods else c

    return rewrite(com, inline)


def link(prog: Prog, impl: SyntacticImpl, with_impl_globals: bool = True) -> Prog:
    """P · I: textual inlining with parameter substitution and register
    freshening.  Implementation-internal calls are inlined first, callees in
    sorted order; a cycle is rejected at the first method met twice on the
    call stack."""
    # resolve intra-implementation calls bottom-up
    flat: Dict[str, Tuple[Tuple[str, ...], object]] = {}
    stack: Set[str] = set()

    def flatten(m: str) -> Tuple[Tuple[str, ...], object]:
        if m in flat:
            return flat[m]
        if m in stack:
            raise LinkError(f"recursive implementation through {m}")
        stack.add(m)
        params, body = impl.methods[m]
        called = _methods_called(body) & impl.method_names()
        for callee in sorted(called):
            flatten(callee)
        stack.discard(m)
        sub = SyntacticImpl(impl.name, {k: flat[k] for k in flat}, impl.globals)
        counter = [0]
        body2 = link_com(body, sub, counter) if called else body
        flat[m] = (params, body2)
        return flat[m]

    for m in sorted(impl.methods):
        flatten(m)
    flat_impl = SyntacticImpl(impl.name, flat, impl.globals)
    counter = [0]
    threads = {t: link_com(c, flat_impl, counter) for t, c in prog.threads.items()}
    new_globals = list(impl.globals) if with_impl_globals else []
    for name, com in prog.globals:
        new_globals.append((name, link_com(com, flat_impl, counter)))
    return Prog(threads=threads, globals=tuple(new_globals))


def link_phases(phases: Sequence[Prog], impl: SyntacticImpl) -> List[Prog]:
    """Link every phase; the implementation's globals belong to the first
    phase only (they are shared state surviving the crashes)."""
    return [link(p, impl, with_impl_globals=(i == 0)) for i, p in enumerate(phases)]


# --------------------------------------------------------------------------
# Behaviors
# --------------------------------------------------------------------------


def candidate_sw_sets(coll: Collection, g: PlainExecution) -> List[FrozenSet[Tuple[int, int]]]:
    """Compose the per-library witness hooks into candidate sw sets for g."""
    per_lib: List[List[FrozenSet[Tuple[int, int]]]] = []
    for spec in coll.specs():
        keep = sorted(
            e for e in g.events if g.lab[e].is_crash or spec.interface.owns(g.lab[e])
        )
        if not keep:
            continue
        sub = g.restrict_events(keep)
        back = {new: old for new, old in enumerate(keep)}
        cands = []
        for edge_set in spec.sw_candidates(sub):
            cands.append(frozenset((back[a], back[b]) for a, b in edge_set))
        per_lib.append(cands or [frozenset()])
    out: List[FrozenSet[Tuple[int, int]]] = []
    seen = set()
    for combo in itertools.product(*per_lib) if per_lib else [()]:
        edges = frozenset().union(*combo) if combo else frozenset()
        if edges not in seen:
            seen.add(edges)
            out.append(edges)
    return out


def candidate_taggings(coll: Collection, g: PlainExecution) -> List[Mapping[int, FrozenSet[str]]]:
    """Compose the per-library tag hooks (full-execution event ids).  Specs
    sharing one hook function (e.g. a library and its clients proposing the
    same persisted-set markers) contribute it once."""
    per_lib: List[List[Mapping[int, FrozenSet[str]]]] = []
    seen_hooks = set()
    for spec in coll.specs():
        if id(spec.tag_candidates) in seen_hooks:
            continue
        seen_hooks.add(id(spec.tag_candidates))
        cands = list(spec.tag_candidates(g))
        if cands and cands != [{}]:
            per_lib.append(cands)
    out: List[Mapping[int, FrozenSet[str]]] = []
    for combo in itertools.product(*per_lib) if per_lib else [()]:
        merged: Dict[int, FrozenSet[str]] = {}
        for m in combo:
            for e, tags in m.items():
                merged[e] = merged.get(e, frozenset()) | tags
        out.append(merged)
    return out or [{}]


def apply_tags(g: PlainExecution, tags: Mapping[int, FrozenSet[str]]) -> PlainExecution:
    if not tags:
        return g
    labels = [
        (l.with_tags(tags[e]) if e in tags and l.is_call else l)
        for e, l in enumerate(g.labels())
    ]
    return PlainExecution(labels, g.po_order)


def candidate_refinements(coll: Collection, g: PlainExecution):
    """Candidate executions refining g: tag choices x sw choices."""
    for tags in candidate_taggings(coll, g):
        gt = apply_tags(g, tags)
        for sw in candidate_sw_sets(coll, gt):
            try:
                yield Execution(gt, sw)
            except ValueError:
                continue


class Behaviors(set):
    """The outcomes justified by a (hereditarily) consistent refinement.

    ``undecided`` holds the outcomes that no refinement justified but whose
    check ran out of budget on some refinement; every other outcome of a
    complete run was refuted.  ``witness`` maps each justified outcome to
    the refinement that justified it."""

    def __init__(self):
        super().__init__()
        self.undecided: Set[Tuple[Tuple[str, object], ...]] = set()
        self.witness: Dict[Tuple[Tuple[str, object], ...], Execution] = {}


@shared_verdicts()
def behaviors(
    prog_or_phases,
    coll: Collection,
    max_crashes: int = 0,
    config: InterpConfig = InterpConfig(),
    outcome_regs: Optional[Sequence[str]] = None,
    budget: int = 10_000,
) -> Behaviors:
    """Outcomes justified by a hereditarily consistent refinement."""
    from .framework import check_hereditarily_consistent

    if isinstance(prog_or_phases, Prog):
        runs = interpret_toplevel(prog_or_phases, coll, max_crashes, config, complete_only=True)
    else:
        runs = interpret_phases(list(prog_or_phases), coll, config, complete_only=True)
    out = Behaviors()
    for env, g in runs:
        if env is None:
            continue
        if outcome_regs is not None:
            outcome = tuple((r, env.get(r)) for r in outcome_regs)
        else:
            outcome = tuple(sorted(env.items(), key=lambda kv: kv[0]))
        if outcome in out:
            continue
        for x in candidate_refinements(coll, g):
            v = check_hereditarily_consistent(coll, x, budget=budget)
            if v:
                out.add(outcome)
                out.witness[outcome] = x
                out.undecided.discard(outcome)
                break
            if v.is_budget:
                out.undecided.add(outcome)
    return out


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<id>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op>:=|==|!=|<=|>=|&&|\|\||[-+*/%<>!(){},;=]))"
)


class _Tokens:
    def __init__(self, text: str, line: int):
        self.toks: List[Tuple[str, str, int]] = []
        self.line = line
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"bad token at {text[pos:pos+10]!r}", line, pos)
                break
            pos = m.end()
            if m.group("num") is not None:
                self.toks.append(("num", m.group("num"), pos))
            elif m.group("id") is not None:
                self.toks.append(("id", m.group("id"), pos))
            else:
                self.toks.append(("op", m.group("op"), pos))
        self.i = 0

    def peek(self, k: int = 0):
        return self.toks[self.i + k] if self.i + k < len(self.toks) else ("eof", "", -1)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value: str):
        t = self.next()
        if t[1] != value:
            raise ParseError(f"expected {value!r}, found {t[1]!r}", self.line, t[2])
        return t

    def at_end(self) -> bool:
        return self.i >= len(self.toks)


def _parse_expr(ts: _Tokens, min_prec: int = 0):
    prec = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
    lhs = _parse_atom(ts)
    while True:
        kind, val, _ = ts.peek()
        if kind != "op" or val not in prec or prec[val] < min_prec:
            break
        ts.next()
        rhs = _parse_expr(ts, prec[val] + 1)
        lhs = Bin(val, lhs, rhs)
    return lhs


def _parse_atom(ts: _Tokens):
    kind, val, pos = ts.peek()
    if kind == "num":
        ts.next()
        return Val(int(val))
    if kind == "op" and val == "(":
        ts.next()
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    if kind == "op" and val == "!":
        ts.next()
        return Un("!", _parse_atom(ts))
    if kind == "op" and val == "-":
        ts.next()
        return Un("-", _parse_atom(ts))
    if kind == "id":
        ts.next()
        if val == "null":
            return Val(None)
        if val in ("min", "max"):
            ts.expect("(")
            a = _parse_expr(ts)
            ts.expect(",")
            b = _parse_expr(ts)
            ts.expect(")")
            return Bin(val, a, b)
        return Reg(val)
    raise ParseError(f"expected expression, found {val!r}", ts.line, pos)


def _parse_args(ts: _Tokens) -> Tuple:
    ts.expect("(")
    args: List = []
    if ts.peek()[1] != ")":
        args.append(_parse_expr(ts))
        while ts.peek()[1] == ",":
            ts.next()
            args.append(_parse_expr(ts))
    ts.expect(")")
    return tuple(args)


def _parse_stmt(ts: _Tokens):
    kind, val, pos = ts.peek()
    if kind == "id" and val == "skip":
        ts.next()
        return Skip()
    if kind == "id" and val == "return":
        ts.next()
        if ts.at_end() or ts.peek()[1] in (";", "}"):
            return Return(Val(None))
        return Return(_parse_expr(ts))
    if kind == "id" and val == "if":
        ts.next()
        ts.expect("(")
        cond = _parse_expr(ts)
        ts.expect(")")
        then = _parse_block(ts)
        els = Skip()
        if ts.peek()[1] == "else":
            ts.next()
            els = _parse_block(ts)
        return If(cond, then, els)
    if kind == "id" and val == "while":
        ts.next()
        ts.expect("(")
        cond = _parse_expr(ts)
        ts.expect(")")
        body = _parse_block(ts)
        return While(cond, body)
    if kind == "id":
        nxt = ts.peek(1)
        if nxt[1] == ":=":
            ts.next()
            ts.next()
            k2, v2, _ = ts.peek()
            if k2 == "id" and ts.peek(1)[1] == "(" and v2 not in ("min", "max"):
                method = ts.next()[1]
                args = _parse_args(ts)
                return CallCmd(val, method, args)
            return Assign(val, _parse_expr(ts))
        if nxt[1] == "(":
            method = ts.next()[1]
            args = _parse_args(ts)
            return CallCmd(None, method, args)
    raise ParseError(f"expected statement, found {val!r}", ts.line, pos)


def _parse_block(ts: _Tokens):
    if ts.peek()[1] == "{":
        ts.next()
        stmts: List = []
        while ts.peek()[1] != "}":
            if ts.peek()[1] == ";":
                ts.next()
                continue
            if ts.at_end():
                raise ParseError("unterminated block", ts.line, -1)
            stmts.append(_parse_stmt(ts))
        ts.expect("}")
        return Seq(tuple(stmts))
    return _parse_stmt(ts)


def parse_statements(text: str, line: int = 0):
    ts = _Tokens(text, line)
    stmts: List = []
    while not ts.at_end():
        if ts.peek()[1] == ";":
            ts.next()
            continue
        stmts.append(_parse_stmt(ts))
    return Seq(tuple(stmts))


def _strip_comment(line: str) -> str:
    out = []
    for ch in line:
        if ch == "%":
            break
        out.append(ch)
    return "".join(out).rstrip()


def parse_litmus(text: str, name: str = "") -> LitmusFile:
    """Parse a litmus file: collection, optional globals/domain/unroll,
    crash-separated program phases, and expectations."""
    lines = [_strip_comment(l) for l in text.splitlines()]
    collection: List[str] = []
    domain: List = []
    unroll: Optional[int] = None
    phases: List[Dict] = [{"globals": [], "threads": {}}]
    expectations: List[Expectation] = []
    mode = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "collection":
            collection = line.split()[1:]
            mode = None
        elif head == "domain":
            for tok in line.split()[1:]:
                domain.append(None if tok == "null" else int(tok))
            mode = None
        elif head == "unroll":
            unroll = int(line.split()[1])
            mode = None
        elif head == "globals":
            mode = "globals"
        elif head == "program":
            mode = "program"
        elif head == "crash":
            phases.append({"globals": [], "threads": {}})
            mode = None
        elif head == "expect":
            expectations.append(_parse_expectation(line, lineno))
            mode = None
        elif mode == "globals":
            m = re.match(r"(\w+)\s*:=\s*(.+)$", line)
            if not m:
                raise ParseError(f"bad global initializer {line!r}", lineno)
            gname, rhs = m.groups()
            body = parse_statements(f"__g := {rhs}; return __g", lineno)
            phases[-1]["globals"].append((gname, body))
        elif mode == "program":
            m = re.match(r"t(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(f"expected 't<k>: statements', found {line!r}", lineno)
            tid = int(m.group(1))
            body = parse_statements(m.group(2), lineno)
            threads = phases[-1]["threads"]
            if tid in threads:
                threads[tid] = Seq(tuple(threads[tid].cmds) + tuple(body.cmds))
            else:
                threads[tid] = body
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if not collection:
        raise ParseError("missing collection declaration", 0)
    progs = tuple(
        Prog(threads=dict(p["threads"]), globals=tuple(p["globals"])) for p in phases
    )
    return LitmusFile(
        collection=tuple(collection),
        phases=progs,
        expectations=tuple(expectations),
        domain=tuple(domain),
        unroll=unroll,
        name=name,
    )


def _parse_expectation(line: str, lineno: int) -> Expectation:
    m = re.match(r"expect\s+(consistent|inconsistent)\s*(.*)$", line.strip())
    if not m:
        raise ParseError(f"bad expectation {line!r}", lineno)
    consistent = m.group(1) == "consistent"
    rest = m.group(2).strip()
    outcome = None
    if rest:
        m2 = re.match(r"outcome\s+(.*)$", rest)
        if not m2:
            raise ParseError(f"bad expectation tail {rest!r}", lineno)
        pairs = []
        for part in m2.group(1).split(","):
            k, v = part.split("=")
            v = v.strip()
            pairs.append((k.strip(), None if v == "null" else int(v)))
        outcome = tuple(pairs)
    return Expectation(consistent, outcome)


def parse_impl(text: str, name: str = "impl") -> SyntacticImpl:
    """Parse a method-implementation file: optional globals plus method
    declarations `method m(x, y) := body`, bodies continuing on plain lines."""
    lines = [_strip_comment(l) for l in text.splitlines()]
    globals_: List[Tuple[str, CallCmd]] = []
    methods: Dict[str, Tuple[Tuple[str, ...], object]] = {}
    cur: Optional[Tuple[str, Tuple[str, ...], List[str]]] = None
    mode = None

    def finish():
        nonlocal cur
        if cur is not None:
            mname, params, chunks = cur
            body = parse_statements("; ".join(c for c in chunks if c.strip()))
            methods[mname] = (params, body)
            cur = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "impl":
            finish()
            mode = None
            name = line.split()[1] if len(line.split()) > 1 else name
        elif head == "globals":
            finish()
            mode = "globals"
        elif head == "method":
            finish()
            m = re.match(r"method\s+(\w+)\s*\(([^)]*)\)\s*:=\s*(.*)$", line)
            if not m:
                raise ParseError(f"bad method declaration {line!r}", lineno)
            mname, ptext, body0 = m.groups()
            params = tuple(p.strip() for p in ptext.split(",") if p.strip())
            cur = (mname, params, [body0])
            mode = "method"
        elif mode == "globals":
            m = re.match(r"(\w+)\s*:=\s*(.+)$", line)
            if not m:
                raise ParseError(f"bad global initializer {line!r}", lineno)
            gname, rhs = m.groups()
            globals_.append((gname, parse_statements(f"__g := {rhs}; return __g", lineno)))
        elif mode == "method" and cur is not None:
            cur[2].append(line)
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    finish()
    return SyntacticImpl(name=name, methods=methods, globals=tuple(globals_))


def parse(text: str, name: str = "") -> object:
    """Litmus or implementation file, by leading keyword."""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.split()[0] in ("impl", "method"):
            return parse_impl(text, name or "impl")
        break
    return parse_litmus(text, name)
