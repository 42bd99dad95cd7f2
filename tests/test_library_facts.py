"""Each library fact stated once: a call-semantics hook answers only the calls
the default call semantics cannot state, an interface names each method's
return once (``void`` or ``constructors``, else a value), sequential specs
step execution labels as they are, and the interpreter finds a method's
library by the collection's one method map."""

from dataclasses import replace

import pytest

import call_semantics_reference as ref
from persistcheck.framework import Collection, LibraryInterface, LibrarySpec, SpecError, UnknownMethod, cell_loc
from persistcheck.lang import CallCtx, _Runner
from persistcheck.libs import S_QUEUE_ALIASED, S_REG_ABSTRACT, builtin_spec, mirror_spec, weakreg_interface
from persistcheck.model import Label
from persistcheck.px86 import px86_interface, px86_spec
from persistcheck.sc import PFENCE

ARGS = [(7, 1, 2), (100, 0, 5), (3, 3, 3), (101, -1, 0)]
DOMAINS = [(), (0,), (0, 1, None), (2, 0, 101, 5)]
LOC_STARTS = [0, 57, 100]


def _options(coll, method, argv, domain, loc):
    """``call_options`` with each label's thread cleared: the interpreter
    sets the thread of every label it emits itself."""
    opts, loc2 = _Runner(coll, list(domain), 4, 1_000).call_options(method, argv, loc)
    return [(tuple(replace(l, thread=None) for l in labels), r) for labels, r in opts], loc2


def _with_hook(spec, hook):
    return replace(spec, interface=replace(spec.interface, call_semantics=hook))


@pytest.mark.parametrize("lib", ["px86", "mirror", "scmem"])
def test_call_options_match_the_hooks_that_answered_every_call(lib):
    hooks = {"px86": ref.px86_call_semantics, "mirror": ref.mirror_call_semantics, "scmem": ref.px86_call_semantics}
    specs = {"px86": [px86_spec()], "mirror": [px86_spec(), mirror_spec()], "scmem": [builtin_spec("scmem")]}[lib]
    new = Collection(specs)
    old = Collection(specs[:-1] + [_with_hook(specs[-1], hooks[lib])])
    methods = specs[-1].interface.methods
    for method, arity in methods.items():
        for args in ARGS:
            argv = args[:arity]
            for domain in DOMAINS:
                for loc in LOC_STARTS:
                    got = _options(new, method, argv, domain, loc)
                    assert got == _options(old, method, argv, domain, loc), (method, argv, domain, loc)


def test_a_hook_answering_none_falls_back_to_returns():
    def hook(method, args, ctx):
        return [((Label("tspin", args, 5),), 5)] if method == "tspin" else None

    toy = LibraryInterface(
        name="toy",
        methods={"tnew": 0, "tset": 2, "tget": 1, "tspin": 1},
        constructors=frozenset({"tnew"}),
        loc=cell_loc("tnew", ("tset", "tget", "tspin"), 3),
        void=frozenset({"tset"}),
        call_semantics=hook,
    )
    coll = Collection([LibrarySpec(interface=toy)])
    assert _options(coll, "tnew", (), (0, 1), 10) == ([((Label("tnew", (), 11),), 11)], 13)
    assert _options(coll, "tset", (11, 4), (0, 1), 13) == ([((Label("tset", (11, 4), None),), None)], 13)
    assert _options(coll, "tget", (11,), (0, 1), 13) == (
        [((Label("tget", (11,), 0),), 0), ((Label("tget", (11,), 1),), 1)],
        13,
    )
    assert _options(coll, "tspin", (11,), (0, 1), 13) == ([((Label("tspin", (11,), 5),), 5)], 13)


_PX86_RETURNS = {"store": "void", "flush": "void", "fo": "void", "mfence": "void", "sfence": "void"}

#: The return kind ("void", "loc", or the default "value") per method of
#: each builtin interface, as a ``returns`` map stated it before ``void``
#: and ``constructors`` did.
RETURN_KINDS = {
    "px86": _PX86_RETURNS,
    "scmem": _PX86_RETURNS,
    "weakreg": {"rnew": "loc", "rwrite": "void", PFENCE: "void", "rread": "value"},
    "durqueue": {"qnew": "loc", "qpush": "void", "qappend": "void", "qpop": "value"},
    "reg": {"regnew": "loc", "regwrite": "void", "regread": "value"},
    "flit": {
        "fnew": "loc",
        "fread_p": "value",
        "fread_v": "value",
        "fwrite_p": "void",
        "fwrite_v": "void",
        "ffinish": "void",
    },
    "mirror": {"mnew": "loc", "mrd": "value", "mwr": "void"},
    "ltrans": {
        "pt_new": "loc",
        "pt_begin": "void",
        "pt_end": "void",
        "pt_write": "void",
        "pt_recover": "void",
        "pt_read": "value",
    },
    "lock": {"lnew": "loc", "lacq": "void", "lrel": "void"},
    "lstrans": {"lpt_begin": "void", "lpt_end": "void"},
    "counter": {"cnew": "loc", "cinc": "void", "cread": "value"},
    "mmcounter": {"mmnew": "loc", "mmadd": "void", "mmmin": "value", "mmmax": "value"},
}


def _return_kind_options(iface, method, argv, domain, loc):
    """``call_options`` by the rule that read ``RETURN_KINDS``: the hook
    first, then a "void" call returns null, a "loc" call takes as many fresh
    cells as ``loc`` gives it and returns the first, and any other call
    each domain value."""
    ctx = CallCtx(list(domain), loc)
    opts = iface.call_semantics(method, argv, ctx) if iface.call_semantics is not None else None
    if opts is None:
        kind = RETURN_KINDS[iface.name].get(method, "value")
        if kind == "void":
            rets = [None]
        elif kind == "loc":
            rets = [ctx.fresh_loc()]
            for _ in range(len(iface.loc(Label(method, argv, rets[0]))) - 1):
                ctx.fresh_loc()
        else:
            rets = list(ctx.domain)
        opts = [((Label(method, argv, r),), r) for r in rets]
    return [(tuple(replace(iface.decorate(l), thread=None) for l in labels), r) for labels, r in opts], ctx.loc


def _builtin_interfaces():
    # the names the builtin_spec docstring lists; lin:<seq> and durlin:<seq>
    # reuse the durqueue, reg and mmcounter interfaces
    listed = builtin_spec.__doc__.split(":", 1)[1].replace(".", "").split(",")
    names = [n.strip() for n in listed if "<" not in n]
    return [builtin_spec(n).interface for n in names] + [weakreg_interface(with_pfence=False)]


def test_builtin_interfaces_give_the_calls_their_return_kinds():
    ifaces = _builtin_interfaces()
    assert {i.name for i in ifaces} == set(RETURN_KINDS)
    for iface in ifaces:
        coll = Collection([LibrarySpec(interface=iface)])
        for method, arity in iface.methods.items():
            for args in ARGS:
                argv = args[:arity]
                for domain in DOMAINS:
                    for loc in LOC_STARTS:
                        want = _return_kind_options(iface, method, argv, domain, loc)
                        assert _options(coll, method, argv, domain, loc) == want, (iface.name, method, argv, domain, loc)


@pytest.mark.parametrize(
    "void, message",
    [({"tnew"}, "void names must be methods other than constructors"), ({"tnope"}, "void names must be methods")],
)
def test_void_names_a_method_that_is_no_constructor(void, message):
    with pytest.raises(SpecError, match=message):
        LibraryInterface(name="toy", methods={"tnew": 0, "tset": 2}, constructors=frozenset({"tnew"}), void=frozenset(void))


def test_interpreter_finds_a_library_by_name_whatever_the_arity():
    coll = Collection([px86_spec()])
    assert coll.library_of("store").name == "px86"
    assert coll.library_of("qpush") is None
    # owner_of also checks the arity the interface declares
    assert coll.owner_of(Label("store", (1,), None)) is None
    assert coll.owner_of(Label("store", (1, 2), None)).name == "px86"
    opts, _ = _Runner(coll, [0], 4, 1_000).call_options("mfence", (), 100)
    assert [r for _, r in opts] == [None]
    with pytest.raises(UnknownMethod):
        _Runner(coll, [0], 4, 1_000).call_options("qpush", (1, 2), 100)


def test_scmem_is_px86_without_tags_or_value_flow():
    px, sc = px86_interface(), builtin_spec("scmem").interface
    assert sc.name == "scmem"
    assert sc.tags_introduced == sc.tags_used == frozenset()
    assert sc.value_flow is None
    for f in ("methods", "constructors", "loc", "method_tags", "void", "call_semantics"):
        assert getattr(sc, f) == getattr(px, f), f


def test_aliased_queue_steps_labels():
    labels = [
        Label("qnew", (), 7),
        Label("qappend", (7, 1), None),
        Label("qpush", (7, 2), None),
        Label("qpop", (7,), 1),
        Label("qpop", (7,), 2),
    ]
    assert S_QUEUE_ALIASED.accepts(labels)
    assert not S_QUEUE_ALIASED.accepts(labels[:3] + [Label("qpop", (7,), 2)])


def test_abstract_register_steps_labels():
    labels = [Label("regnew", (), 5), Label("regwrite", (5, 3), None), Label("regread", (5,), 3)]
    assert S_REG_ABSTRACT.accepts(labels)
    assert not S_REG_ABSTRACT.accepts(labels[:2] + [Label("regread", (5,), 0)])
    # a pending read takes the return the register holds
    assert S_REG_ABSTRACT.accepts(labels[:2] + [Label("regread", (5,))])
