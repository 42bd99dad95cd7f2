"""Each library fact stated once: a call-semantics hook answers only the calls
``returns`` cannot state, sequential specs step execution labels as they are,
and the interpreter finds a method's library by the collection's one
method map."""

from dataclasses import replace

import pytest

import call_semantics_reference as ref
from persistcheck.framework import Collection, LibraryInterface, LibrarySpec, UnknownMethod, cell_loc
from persistcheck.lang import _Runner
from persistcheck.libs import S_QUEUE_ALIASED, S_REG_ABSTRACT, builtin_spec, mirror_spec
from persistcheck.model import Label
from persistcheck.px86 import px86_interface, px86_spec

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
        returns={"tnew": "loc", "tset": "void"},
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
    for f in ("methods", "constructors", "loc", "method_tags", "returns", "call_semantics"):
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
