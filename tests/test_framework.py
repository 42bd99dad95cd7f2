"""Collection registry, consistency, hereditary consistency, encapsulation,
and well-formedness checkers, exercised with small hand-rolled specs."""

import pytest

from persistcheck.framework import (
    Collection,
    DuplicateMethod,
    LibraryInterface,
    LibrarySpec,
    UnknownMethod,
    Verdict,
    check_consistent,
    check_encapsulated,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    check_wellformed,
)
from persistcheck.model import (
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Ret,
    thread_chains,
)


def mk_iface(name, methods, ctors=(), loc=None, tags_in=(), tags_used=(), method_tags=None):
    return LibraryInterface(
        name=name,
        methods=dict(methods),
        constructors=frozenset(ctors),
        loc=loc or (lambda l: frozenset()),
        tags_introduced=frozenset(tags_in),
        tags_used=frozenset(tags_used),
        method_tags=method_tags or {},
    )


def spec_a():
    return LibrarySpec(interface=mk_iface("A", {"a": 0, "anew": 0}, ctors=["anew"],
                                          loc=lambda l: frozenset({l.ret}) if l.method == "anew" and l.ret is not None else frozenset()))


def spec_b():
    return LibrarySpec(interface=mk_iface("B", {"b": 0}))


def chain_exec(labels):
    return Execution(PlainExecution(labels, thread_chains(labels)))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


def test_register_disjoint_specs():
    coll = Collection([spec_a(), spec_b()]).freeze()
    assert "A" in coll and "B" in coll


def test_register_overlapping_names_rejected():
    coll = Collection([spec_a()])
    clash = LibrarySpec(interface=mk_iface("C", {"a": 0}))
    with pytest.raises(DuplicateMethod):
        coll.register(clash)


def test_lookup_unknown():
    coll = Collection([spec_a()])
    with pytest.raises(UnknownMethod):
        coll.lookup("nope")


def test_spec_must_accept_empty_execution():
    bad = LibrarySpec(
        interface=mk_iface("Bad", {"x": 0}),
        local_consistent=lambda x: Verdict.fail("never"),
    )
    with pytest.raises(Exception):
        Collection([bad])


def test_dependency_tags_checked_on_freeze():
    provider = LibrarySpec(interface=mk_iface("P", {"p": 0}, tags_in=["T"]))
    user = LibrarySpec(interface=mk_iface("U", {"u": 0}, tags_used=["T"]), deps=frozenset({"P"}))
    Collection([provider, user]).freeze()
    lonely = LibrarySpec(interface=mk_iface("L", {"l": 0}, tags_used=["T"]))
    with pytest.raises(Exception):
        Collection([lonely]).freeze()


# --------------------------------------------------------------------------
# Consistency
# --------------------------------------------------------------------------


def test_empty_execution_consistent():
    coll = Collection([spec_a(), spec_b()])
    assert check_consistent(coll, Execution(PlainExecution([], [])))


def test_unknown_method_raises():
    coll = Collection([spec_a()])
    x = chain_exec([Label("zzz", (), None, thread=0)])
    with pytest.raises(UnknownMethod):
        check_consistent(coll, x)


def test_sw_must_decompose_per_library():
    coll = Collection([spec_a(), spec_b()])
    labels = [Label("a", (), None, thread=0), Label("b", (), None, thread=1)]
    g = PlainExecution(labels, [])
    x = Execution(g, sw=[(0, 1)])
    assert not check_consistent(coll, x)
    # same-library sw edge is fine
    labels2 = [Label("a", (), None, thread=0), Label("a", (), None, thread=1)]
    x2 = Execution(PlainExecution(labels2, []), sw=[(0, 1)])
    assert check_consistent(coll, x2)


def test_local_consistency_delegation():
    rejects_two = LibrarySpec(
        interface=mk_iface("R", {"r": 0}),
        local_consistent=lambda x: Verdict.ok() if len(x) < 2 else Verdict.fail("too big"),
    )
    coll = Collection([rejects_two])
    one = chain_exec([Label("r", (), None, thread=0)])
    two = chain_exec([Label("r", (), None, thread=0), Label("r", (), None, thread=0)])
    assert check_consistent(coll, one)
    v = check_consistent(coll, two)
    assert not v and "too big" in v.reason


# --------------------------------------------------------------------------
# Hereditary consistency
# --------------------------------------------------------------------------


def test_hereditary_single_event():
    coll = Collection([spec_a()])
    x = chain_exec([Label("a", (), None, thread=0)])
    v = check_hereditarily_consistent(coll, x)
    assert v and len(v.witness) == 2  # empty then the execution itself


def test_hereditary_fails_without_consistent_prefix():
    # accepts only even-sized executions: the whole (size 2) is consistent but
    # its immediate prefixes (size 1) are not.
    even_only = LibrarySpec(
        interface=mk_iface("E", {"e": 0}),
        local_consistent=lambda x: Verdict.ok() if len(x) % 2 == 0 else Verdict.fail("odd"),
    )
    coll = Collection([even_only])
    two = chain_exec([Label("e", (), None, thread=0), Label("e", (), None, thread=0)])
    assert check_consistent(coll, two)
    v = check_hereditarily_consistent(coll, two)
    assert not v

    # oracle: exhaustive prefix-chain search agrees
    def oracle(x):
        if x.is_empty():
            return True
        if not check_consistent(coll, x):
            return False
        from persistcheck.model import immediate_prefixes_execution

        return any(oracle(p) for p in immediate_prefixes_execution(x))

    assert oracle(two) is False


def test_hereditary_history_mode_checks_every_prefix():
    coll = Collection([spec_a()])
    h = History([Inv("a", (), 0), Ret(None, 0), Inv("a", (), 1), Ret(None, 1)])
    v = check_hereditarily_consistent(coll, h)
    assert v
    assert len(v.witness) == 5  # h[1..0] through h[1..4]
    assert v.witness[-1] == h


def test_hereditary_witness_chain_stepwise_consistent():
    coll = Collection([spec_a()])
    labels = [Label("a", (), None, thread=0), Label("a", (), None, thread=1)]
    x = Execution(PlainExecution(labels, []))
    v = check_hereditarily_consistent(coll, x)
    assert v
    for step in v.witness:
        assert check_consistent(coll, step)
    sizes = [len(s) for s in v.witness]
    assert sizes == list(range(len(x) + 1))


# --------------------------------------------------------------------------
# Encapsulation
# --------------------------------------------------------------------------


def loc_by_first_arg(l):
    if l.method == "anew":
        return frozenset({l.ret}) if l.ret is not None else frozenset()
    if l.args:
        return frozenset({l.args[0]})
    return frozenset()


def enc_spec():
    return LibrarySpec(
        interface=mk_iface("Q", {"anew": 0, "use": 1}, ctors=["anew"], loc=loc_by_first_arg)
    )


def test_encapsulation_trivial():
    coll = Collection([spec_b()])
    x = chain_exec([Label("b", (), None, thread=0)])
    assert check_encapsulated(coll, x)


def test_encapsulation_duplicate_constructor_locations():
    coll = Collection([enc_spec()])
    labels = [
        Label("anew", (), 5, thread=0),
        Label("anew", (), 5, thread=1),
    ]
    x = Execution(PlainExecution(labels, []))
    assert not check_encapsulated(coll, x)


def test_encapsulation_use_before_new():
    coll = Collection([enc_spec()])
    # use po-before the constructor that returns its location
    labels = [Label("use", (5,), None, thread=0), Label("anew", (), 5, thread=0)]
    x = chain_exec(labels)
    assert not check_encapsulated(coll, x)
    # and the right way around is fine
    labels2 = [Label("anew", (), 5, thread=0), Label("use", (5,), None, thread=0)]
    assert check_encapsulated(coll, chain_exec(labels2))


# --------------------------------------------------------------------------
# Well-formedness
# --------------------------------------------------------------------------


def test_empty_wellformed():
    coll = Collection([spec_a()])
    assert check_wellformed(coll, Execution(PlainExecution([], [])))


def test_immediate_wellformedness_delegates():
    no_bad = LibrarySpec(
        interface=mk_iface("W", {"good": 0, "bad": 0}),
        local_wellformed=lambda x: (
            Verdict.fail("bad call")
            if any(x.lab[e].method == "bad" for e in x.events)
            else Verdict.ok()
        ),
    )
    coll = Collection([no_bad])
    ok = chain_exec([Label("good", (), None, thread=0)])
    assert check_immediately_wellformed(coll, ok)
    bad = chain_exec([Label("bad", (), None, thread=0)])
    assert not check_immediately_wellformed(coll, bad)


def test_vacuous_wellformedness_of_unreachable_executions():
    # consistency rejects the 1-event execution, so the 2-event execution has
    # no consistent immediate prefix and its ill-formedness is never demanded.
    spec = LibrarySpec(
        interface=mk_iface("V", {"v": 0}),
        local_consistent=lambda x: Verdict.ok() if len(x) != 1 else Verdict.fail("one"),
        local_wellformed=lambda x: Verdict.ok() if len(x) < 2 else Verdict.fail("big"),
    )
    coll = Collection([spec])
    two = chain_exec([Label("v", (), None, thread=0), Label("v", (), None, thread=0)])
    assert not check_immediately_wellformed(coll, two)
    assert check_wellformed(coll, two)  # vacuously


def test_wellformedness_after_an_undecided_prefix_is_not_ok():
    # the 1-event execution's consistency check runs out of budget, so the
    # ill-formed 2-event execution may owe well-formedness: nothing is decided
    spec = LibrarySpec(
        interface=mk_iface("V", {"v": 0}),
        local_consistent=lambda x: Verdict.ok() if len(x) != 1 else Verdict.budget({"stage": "toy"}),
        local_wellformed=lambda x: Verdict.ok() if len(x) < 2 else Verdict.fail("big"),
    )
    coll = Collection([spec])
    two = chain_exec([Label("v", (), None, thread=0), Label("v", (), None, thread=0)])
    v = check_wellformed(coll, two)
    assert v.is_budget
    assert "big" in v.reason and dict(v.stats) == {"stage": "toy"}


def test_wellformedness_failure_found_past_an_undecided_prefix():
    # one prefix is undecided, but the 2-event execution below it has a
    # consistent immediate prefix and is ill-formed: a definite failure
    spec = LibrarySpec(
        interface=mk_iface("V", {"v": 0}),
        local_consistent=lambda x: Verdict.budget({"stage": "toy"}) if len(x) == 2 else Verdict.ok(),
        local_wellformed=lambda x: Verdict.ok() if len(x) != 2 else Verdict.fail("two"),
    )
    coll = Collection([spec])
    three = chain_exec([Label("v", (), None, thread=0)] * 3)
    v = check_wellformed(coll, three)
    assert not v and not v.is_budget
    assert "prefix of size 2: V.wellformed: two" in v.reason


def test_global_wellformedness_sees_anonymized_events():
    # library G requires every T-tagged event to be po-preceded by a "begin"
    def gwf(x):
        opens = [e for e in x.events if x.lab[e].method == "gbegin"]
        for e in x.events:
            if "T" in x.lab[e].tags and x.lab[e].method == "⋆":
                if not any((o, e) in x.po for o in opens):
                    return Verdict.fail("T event outside begin")
        return Verdict.ok()

    g = LibrarySpec(
        interface=mk_iface("G", {"gbegin": 0}, tags_in=["T"]),
        global_wellformed=gwf,
    )
    client = LibrarySpec(
        interface=mk_iface("C", {"c": 0}, tags_used=["T"], method_tags={"c": frozenset({"T"})}),
        deps=frozenset({"G"}),
    )
    coll = Collection([g, client]).freeze()
    lab_begin = Label("gbegin", (), None, thread=0)
    lab_c = Label("c", (), None, frozenset({"T"}), 0)
    good = chain_exec([lab_begin, lab_c])
    bad = chain_exec([lab_c])
    assert check_immediately_wellformed(coll, good)
    assert not check_immediately_wellformed(coll, bad)


def test_encapsulation_invariant_under_foreign_anonymization():
    # anonymizing a library that owns none of the checked locations does not
    # change the encapsulation verdict
    from persistcheck.model import anonymize

    q = enc_spec()
    other = LibrarySpec(
        interface=mk_iface("O", {"o": 0}, tags_in=["T"], method_tags={"o": frozenset({"T"})})
    )
    coll = Collection([q, other])
    labels = [
        Label("anew", (), 5, thread=0),
        Label("o", (), None, frozenset({"T"}), 0),
        Label("use", (5,), None, thread=0),
    ]
    x = chain_exec(labels)
    before = check_encapsulated(coll, x)
    ax = anonymize(other.interface.owns, x)
    # the star event owns no locations; verdict must be unchanged
    assert check_encapsulated(coll, ax) == before is True
