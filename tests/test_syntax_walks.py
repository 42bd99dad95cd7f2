"""The generic syntax walks ``lang.subterms`` and ``lang.rewrite`` against the
hand-written walkers they replaced (``walker_reference``), on random
commands up to depth 4: the collectors, register renaming, linking with
random non-recursive implementations, and the four persistification
transformers give equal results, or raise the same exception type."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import walker_reference as ref
from persistcheck import lang, libs
from persistcheck.lang import (
    Assign,
    Bin,
    CallCmd,
    If,
    Prog,
    Reg,
    Return,
    Seq,
    Skip,
    SyntacticImpl,
    Un,
    Val,
    While,
    rewrite,
    subterms,
)

#: "x" is the global of some random implementations; "p" and "q" are
#: their parameters
REGS = ["r", "s", "x", "p", "q"]
#: the implementation methods, with their arities; a method calls only later
#: ones, so the implementations are not recursive
ARITY = {"m0": 1, "m1": 0, "m2": 2}
LOW = ("store", "load", "alloc", "cas", "sfence")
SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def exprs(depth: int):
    leaf = st.one_of(st.builds(Val, st.sampled_from([0, 1, 2, None])), st.builds(Reg, st.sampled_from(REGS)))
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Bin, st.sampled_from(["+", "==", "&&"]), sub, sub),
        st.builds(Un, st.sampled_from(["!", "-"]), sub),
    )


@st.composite
def calls(draw, methods):
    m = draw(st.sampled_from(methods))
    # mostly the method's arity, sometimes a wrong one
    n = draw(st.sampled_from([ARITY.get(m, 1)] * 3 + [0, 1, 2]))
    args = draw(st.lists(exprs(1), min_size=n, max_size=n))
    return CallCmd(draw(st.none() | st.sampled_from(REGS)), m, tuple(args))


def coms(depth: int, methods=tuple(ARITY) * 2 + LOW):
    e = exprs(2)
    leaf = st.one_of(
        st.just(Skip()),
        st.builds(Assign, st.sampled_from(REGS), e),
        calls(methods),
        calls(methods),
        st.builds(Return, e),
    )
    if depth == 0:
        return leaf
    sub = coms(depth - 1, methods)
    return st.one_of(
        leaf,
        st.builds(Seq, st.lists(sub, max_size=3).map(tuple)),
        st.builds(If, e, sub, sub),
        st.builds(While, e, sub),
    )


GLOBAL = ("x", Seq((CallCmd("__g", "alloc", ()), Return(Reg("__g")))))


NAMES = sorted(ARITY)
BODIES = [coms(2, tuple(NAMES[i + 1 :]) * 2 + LOW) for i in range(len(NAMES))]


@st.composite
def impls(draw):
    methods = {m: (("p", "q")[: ARITY[m]], draw(body)) for m, body in zip(NAMES, BODIES)}
    return SyntacticImpl("rand", methods, draw(st.sampled_from([(), (GLOBAL,)])))


def outcome(fn, *args):
    """The result with its repr, or the type of the exception raised."""
    try:
        got = fn(*args)
    except Exception as e:
        return "raised", type(e)
    return got, repr(got)


def test_subterms_parents_first_in_field_order():
    c = If(Reg("a"), Seq((Assign("b", Val(1)),)), Return(Un("-", Val(2))))
    assert list(subterms(c)) == [
        c,
        Reg("a"),
        c.then,
        Assign("b", Val(1)),
        Val(1),
        c.els,
        Un("-", Val(2)),
        Val(2),
    ]


def test_rewrite_rebuilds_bottom_up_and_does_not_walk_results():
    seen = []

    def f(n):
        seen.append(n)
        return Seq((n, n)) if isinstance(n, Skip) else n

    c = While(Val(1), Seq((Skip(), Assign("a", Reg("b")))))
    assert rewrite(c, f) == While(Val(1), Seq((Seq((Skip(), Skip())), Assign("a", Reg("b")))))
    assert seen[:3] == [Val(1), Skip(), Reg("b")]


@SETTINGS
@given(coms(4), st.sets(st.sampled_from(REGS)))
def test_collectors_and_renaming_match_reference(c, renamed):
    assert lang._literals(c) == ref._literals(c)
    assert lang._methods_called(c) == ref._methods_called(c)
    assert lang._registers_of(c) == ref._registers_of(c)
    ren = {r: "__" + r for r in renamed}
    assert outcome(lang._rename_com, c, ren) == outcome(ref._rename_com, c, ren)


@SETTINGS
@given(st.lists(coms(4), min_size=1, max_size=2), impls(), st.booleans())
def test_link_matches_reference(threads, impl, with_globals):
    prog = Prog(
        threads=dict(enumerate(threads)),
        globals=(("y", Seq((CallCmd("__g", "m1", ()), Return(Reg("__g"))))),),
    )
    assert outcome(lang.link, prog, impl, with_globals) == outcome(ref.link, prog, impl, with_globals)


@SETTINGS
@given(impls())
def test_persistify_matches_reference(impl):
    for name in ("persistify_flit", "persistify_flit_mutated", "persistify_mirror", "persistify_mirror_mutated"):
        assert outcome(getattr(libs, name), impl) == outcome(getattr(ref, name), impl), name
