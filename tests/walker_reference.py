"""The hand-written syntax walkers that ``lang.subterms`` and ``lang.rewrite``
replaced, kept verbatim as test references: the literal, call and register
collectors, register renaming, return guarding, linking (with its separate
recursion check), and the persistification transformers of ``libs``."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from persistcheck.lang import (
    ArityMismatch,
    Assign,
    Bin,
    CallCmd,
    If,
    LinkError,
    Prog,
    Reg,
    Return,
    Seq,
    Skip,
    SyntacticImpl,
    Un,
    Val,
    While,
)


def _literals(com) -> Set:
    out: Set = set()

    def walk_e(e):
        if isinstance(e, Val):
            out.add(e.v)
        elif isinstance(e, Bin):
            walk_e(e.a)
            walk_e(e.b)
        elif isinstance(e, Un):
            walk_e(e.a)

    def walk(c):
        if isinstance(c, Assign):
            walk_e(c.expr)
        elif isinstance(c, CallCmd):
            for a in c.args:
                walk_e(a)
        elif isinstance(c, Seq):
            for s in c.cmds:
                walk(s)
        elif isinstance(c, If):
            walk_e(c.cond)
            walk(c.then)
            walk(c.els)
        elif isinstance(c, While):
            walk_e(c.cond)
            walk(c.body)
        elif isinstance(c, Return):
            walk_e(c.expr)

    walk(com)
    return out


def _methods_called(com) -> Set[str]:
    out: Set[str] = set()

    def walk(c):
        if isinstance(c, CallCmd):
            out.add(c.method)
        elif isinstance(c, Seq):
            for s in c.cmds:
                walk(s)
        elif isinstance(c, If):
            walk(c.then)
            walk(c.els)
        elif isinstance(c, While):
            walk(c.body)

    walk(com)
    return out


def _check_no_recursion(impl: SyntacticImpl) -> None:
    graph = {m: _methods_called(body) & impl.method_names() for m, (ps, body) in impl.methods.items()}
    seen: Dict[str, int] = {}

    def visit(m: str, stack: Set[str]):
        if m in stack:
            raise LinkError(f"recursive implementation through {m}")
        if seen.get(m):
            return
        stack.add(m)
        for callee in graph.get(m, ()):
            visit(callee, stack)
        stack.discard(m)
        seen[m] = 1

    for m in graph:
        visit(m, set())


def _rename_expr(e, ren: Mapping[str, str]):
    if isinstance(e, Reg):
        return Reg(ren.get(e.name, e.name))
    if isinstance(e, Bin):
        return Bin(e.op, _rename_expr(e.a, ren), _rename_expr(e.b, ren))
    if isinstance(e, Un):
        return Un(e.op, _rename_expr(e.a, ren))
    return e


def _rename_com(c, ren: Mapping[str, str]):
    if isinstance(c, Skip):
        return c
    if isinstance(c, Assign):
        return Assign(ren.get(c.reg, c.reg), _rename_expr(c.expr, ren))
    if isinstance(c, CallCmd):
        return CallCmd(
            ren.get(c.reg, c.reg) if c.reg else None,
            c.method,
            tuple(_rename_expr(a, ren) for a in c.args),
        )
    if isinstance(c, Seq):
        return Seq(tuple(_rename_com(s, ren) for s in c.cmds))
    if isinstance(c, If):
        return If(_rename_expr(c.cond, ren), _rename_com(c.then, ren), _rename_com(c.els, ren))
    if isinstance(c, While):
        return While(_rename_expr(c.cond, ren), _rename_com(c.body, ren))
    if isinstance(c, Return):
        return Return(_rename_expr(c.expr, ren))
    raise TypeError(f"not a command: {c!r}")


def _registers_of(c) -> Set[str]:
    out: Set[str] = set()

    def walk_e(e):
        if isinstance(e, Reg):
            out.add(e.name)
        elif isinstance(e, Bin):
            walk_e(e.a)
            walk_e(e.b)
        elif isinstance(e, Un):
            walk_e(e.a)

    def walk(c):
        if isinstance(c, Assign):
            out.add(c.reg)
            walk_e(c.expr)
        elif isinstance(c, CallCmd):
            if c.reg:
                out.add(c.reg)
            for a in c.args:
                walk_e(a)
        elif isinstance(c, Seq):
            for s in c.cmds:
                walk(s)
        elif isinstance(c, If):
            walk_e(c.cond)
            walk(c.then)
            walk(c.els)
        elif isinstance(c, While):
            walk_e(c.cond)
            walk(c.body)
        elif isinstance(c, Return):
            walk_e(c.expr)

    walk(c)
    return out


def _guard_returns(c, done: str):
    """Rewrite `return e` into result/flag assignments, guarding the tail."""

    def g(s):
        return If(Bin("==", Reg(done), Val(0)), s, Skip())

    def tr(c, ret_reg):
        if isinstance(c, Return):
            body = [Assign(done, Val(1))]
            if ret_reg:
                body.insert(0, Assign(ret_reg, c.expr))
            return Seq(tuple(body))
        if isinstance(c, Seq):
            return Seq(tuple(g(tr(s, ret_reg)) for s in c.cmds))
        if isinstance(c, If):
            return If(c.cond, tr(c.then, ret_reg), tr(c.els, ret_reg))
        if isinstance(c, While):
            return While(Bin("&&", Bin("==", Reg(done), Val(0)), c.cond), tr(c.body, ret_reg))
        return c

    return tr, g


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
    body = _rename_com(body, ren)
    done = pfx + "done"
    tr, _ = _guard_returns(body, done)
    stmts: List = [Assign(done, Val(0))]
    if call.reg:
        stmts.append(Assign(call.reg, Val(None)))
    for p, a in zip(params, call.args):
        stmts.append(Assign(ren[p], a))
    stmts.append(tr(body, call.reg))
    return Seq(tuple(stmts))


def link_com(com, impl: SyntacticImpl, counter: List[int]):
    if isinstance(com, CallCmd) and com.method in impl.methods:
        return inline_call(com, impl, counter)
    if isinstance(com, Seq):
        return Seq(tuple(link_com(s, impl, counter) for s in com.cmds))
    if isinstance(com, If):
        return If(com.cond, link_com(com.then, impl, counter), link_com(com.els, impl, counter))
    if isinstance(com, While):
        return While(com.cond, link_com(com.body, impl, counter))
    return com


def link(prog: Prog, impl: SyntacticImpl, with_impl_globals: bool = True) -> Prog:
    """P · I: textual inlining with parameter substitution and register
    freshening.  Implementation-internal calls are inlined first (cycles are
    rejected)."""
    _check_no_recursion(impl)
    # resolve intra-implementation calls bottom-up
    flat: Dict[str, Tuple[Tuple[str, ...], object]] = {}

    def flatten(m: str) -> Tuple[Tuple[str, ...], object]:
        if m in flat:
            return flat[m]
        params, body = impl.methods[m]
        called = _methods_called(body) & impl.method_names()
        for callee in sorted(called):
            flatten(callee)
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


def _persistify(impl: SyntacticImpl, table: Mapping[str, str], finish: Optional[str], name: str) -> SyntacticImpl:
    def tr(c):
        if isinstance(c, CallCmd):
            if c.method in table:
                return CallCmd(c.reg, table[c.method], c.args)
            return c
        if isinstance(c, Seq):
            return Seq(tuple(tr(s) for s in c.cmds))
        if isinstance(c, If):
            return If(c.cond, tr(c.then), tr(c.els))
        if isinstance(c, While):
            return While(c.cond, tr(c.body))
        if isinstance(c, Return) and finish:
            return Seq((CallCmd(None, finish, ()), c))
        return c

    methods = {}
    for m, (params, body) in impl.methods.items():
        body2 = tr(body)
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
        if isinstance(c, Seq):
            return Seq(tuple(tr(x) for x in c.cmds))
        if isinstance(c, If):
            return If(c.cond, tr(c.then), tr(c.els))
        if isinstance(c, While):
            return While(c.cond, tr(c.body))
        return c

    methods = {m: (ps, tr(body)) for m, (ps, body) in impl.methods.items()}
    return SyntacticImpl(name=f"m-mutated({impl.name})", methods=methods, globals=impl.globals)
