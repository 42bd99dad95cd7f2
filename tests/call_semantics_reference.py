"""The interpreter hooks of px86 and Mirror as they were before a hook could
answer None for the default call semantics, kept verbatim as test
references: each answers every method of its interface itself."""

from __future__ import annotations

from typing import List, Tuple

from definitions import flush, fo, mfence, sfence
from persistcheck.model import Label
from persistcheck.px86 import alloc, load, store, upd


def px86_call_semantics(method: str, args: Tuple, ctx) -> List[Tuple[Tuple[Label, ...], object]]:
    """Interpreter hook: load returns range over the domain, allocation emits
    a zero-initializing store, and the derived RMW forms faa/cas expand into
    update (or failed-read) labels."""
    if method == "store":
        return [((store(args[0], args[1]),), None)]
    if method == "load":
        return [((load(args[0], v),), v) for v in ctx.domain]
    if method == "upd":
        return [((upd(args[0], args[1], args[2]),), args[1])]
    if method == "flush":
        return [((flush(args[0]),), None)]
    if method == "fo":
        return [((fo(args[0]),), None)]
    if method == "mfence":
        return [((mfence(),), None)]
    if method == "sfence":
        return [((sfence(),), None)]
    if method == "alloc":
        x = ctx.fresh_loc()
        return [((alloc(x), store(x, 0)), x)]
    if method == "faa":
        x, d = args
        return [
            ((upd(x, v, v + d),), v)
            for v in ctx.domain
            if isinstance(v, int)
        ]
    if method == "cas":
        x, exp, new = args
        succeed = [((upd(x, exp, new, ret=1),), 1)]
        fail = [
            ((load(x, v),), 0)
            for v in ctx.domain
            if v != exp
        ]
        return succeed + fail
    raise ValueError(f"unknown px86 method {method}")


def mirror_call_semantics(method: str, args: Tuple, ctx):
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
