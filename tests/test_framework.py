"""Collection registry, consistency, hereditary consistency, encapsulation,
and well-formedness checkers, exercised with small hand-rolled specs."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistcheck.framework as framework
from definitions import execution_canonical_hash, immediate_prefixes_execution, thread_chains
from persistcheck.framework import (
    BUDGET,
    BudgetExceeded,
    Collection,
    DuplicateMethod,
    HereditaryChain,
    LibraryInterface,
    LibrarySpec,
    SpecError,
    UnknownMethod,
    Verdict,
    check_consistent,
    check_encapsulated,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    check_wellformed,
    shared_call,
    shared_verdicts,
)
from persistcheck.model import (
    CRASH,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Ret,
    _iso_signatures,
    find_isomorphism,
    star,
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


def test_register_names_a_rejection_of_the_empty_execution():
    bad = LibrarySpec(interface=mk_iface("Bad", {"x": 0}), local_consistent=lambda x: Verdict.fail("never"))
    with pytest.raises(SpecError, match="Bad.local_consistent rejects the empty execution"):
        Collection([bad])


def test_register_names_a_budget_verdict_on_the_empty_execution():
    # px86's witness search spends two steps on the empty execution
    from persistcheck.px86 import px86_spec

    with pytest.raises(SpecError, match="px86.local_consistent ran out of budget on the empty execution"):
        Collection([px86_spec(budget=1)])


def test_a_spec_that_fails_registration_stays_unregistered():
    from persistcheck.px86 import px86_spec

    c = Collection()
    with pytest.raises(SpecError):
        c.register(px86_spec(budget=1))
    assert "px86" not in c and c.specs() == []
    assert c.owner_of(Label("store", (1, 1), None, frozenset(), 0)) is None
    # a good spec with the same name and methods registers next
    c.register(px86_spec())
    assert [s.name for s in c.specs()] == ["px86"]
    # and so after a dependency cycle
    coll = Collection([LibrarySpec(interface=mk_iface("X", {"x": 0}), deps=frozenset({"Y"}))])
    with pytest.raises(SpecError):
        coll.register(LibrarySpec(interface=mk_iface("Y", {"y": 0}), deps=frozenset({"X"})))
    assert "Y" not in coll
    coll.register(LibrarySpec(interface=mk_iface("Y", {"y": 0})))
    assert [s.name for s in coll.specs()] == ["X", "Y"]


def test_dependency_tags_checked_on_freeze():
    provider = LibrarySpec(interface=mk_iface("P", {"p": 0}, tags_in=["T"]))
    user = LibrarySpec(interface=mk_iface("U", {"u": 0}, tags_used=["T"]), deps=frozenset({"P"}))
    Collection([provider, user]).freeze()
    lonely = LibrarySpec(interface=mk_iface("L", {"l": 0}, tags_used=["T"]))
    with pytest.raises(Exception):
        Collection([lonely]).freeze()


def test_dependency_cycle_rejected_at_register():
    coll = Collection([LibrarySpec(interface=mk_iface("X", {"x": 0}), deps=frozenset({"Y"}))])
    with pytest.raises(SpecError, match="dependency cycle through Y"):
        coll.register(LibrarySpec(interface=mk_iface("Y", {"y": 0}), deps=frozenset({"X"})))


def test_unregistered_dependency_rejected_at_freeze():
    coll = Collection([LibrarySpec(interface=mk_iface("U", {"u": 0}), deps=frozenset({"P"}))])
    with pytest.raises(SpecError, match="U depends on unregistered P"):
        coll.freeze()


def test_tags_not_provided_rejected_at_freeze():
    provider = LibrarySpec(interface=mk_iface("P", {"p": 0}, tags_in=["S"]))
    user = LibrarySpec(interface=mk_iface("U", {"u": 0}, tags_used=["S", "T"]), deps=frozenset({"P"}))
    with pytest.raises(SpecError, match=r"U uses tags \['T'\] not provided"):
        Collection([provider, user]).freeze()


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


def _ref_check_encapsulated(coll, x):
    """The pair-set check that ``check_encapsulated`` replaced."""
    x = framework._as_execution(x)
    ctors = []
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or l.method == "⋆":
            continue
        spec = coll.owner_of(l)
        if spec is None:
            continue
        if l.method in spec.interface.constructors:
            ctors.append((e, spec.name, spec.interface.locations(l)))
    for i in range(len(ctors)):
        for j in range(i + 1, len(ctors)):
            if ctors[i][2] & ctors[j][2]:
                return False
    for e in x.events:
        l = x.lab[e]
        if l.is_crash or l.method == "⋆":
            continue
        spec = coll.owner_of(l)
        if spec is None:
            continue
        if l.method in spec.interface.constructors:
            continue
        locs = spec.interface.locations(l)
        if not locs:
            continue
        if not any(
            lib == spec.name and locs <= clocs and (c, e) in x.hb
            for c, lib, clocs in ctors
        ):
            return False
    return True


_ENC_COLL = Collection(
    [enc_spec(), LibrarySpec(interface=mk_iface("R", {"rnew": 0, "ruse": 1}, ctors=["rnew"], loc=loc_by_first_arg))]
)


@st.composite
def _enc_executions(draw):
    """Up to six events: constructors and uses of two libraries on two
    locations (a constructor may return no location), crashes, ⋆ events and calls no
    library owns, under random forward po and sw edges."""
    labels = []
    for t in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["anew", "use", "rnew", "ruse", "crash", "star", "other"]))
        loc = draw(st.sampled_from([5, 6]))
        if kind == "crash":
            labels.append(CRASH)
        elif kind == "star":
            labels.append(star(["T"], t))
        elif kind == "other":
            labels.append(Label("other", (loc,), None, thread=t))
        elif kind.endswith("new"):
            labels.append(Label(kind, (), draw(st.sampled_from([loc, None])), thread=t))
        else:
            labels.append(Label(kind, (loc,), None, thread=t))
    forward = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    po = draw(st.lists(st.sampled_from(forward), max_size=6)) if forward else []
    sw = draw(st.lists(st.sampled_from(forward), max_size=3)) if forward else []
    return Execution(PlainExecution(labels, po), sw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_enc_executions())
def test_encapsulation_matches_pair_set_reference(x):
    assert check_encapsulated(_ENC_COLL, x) == _ref_check_encapsulated(_ENC_COLL, x)


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


# --------------------------------------------------------------------------
# Prefix walks on event-id masks against the walks they replaced
# --------------------------------------------------------------------------


def _execution_iso_eq(x, y):
    """Isomorphism of executions: label-preserving, po-, sw- and hb-preserving."""
    m = find_isomorphism(x.plain, y.plain)
    if m is None:
        return False

    def respects(m):
        sw2 = {(m[a], m[b]) for a, b in x.sw}
        hb2 = {(m[a], m[b]) for a, b in x.hb}
        return sw2 == set(y.sw) and hb2 == set(y.hb)

    if respects(m):
        return True
    sig_x = _iso_signatures(x.events, x.hb_order, x.lab)
    sig_y = _iso_signatures(y.events, y.hb_order, y.lab)
    if sorted(sig_x.values()) != sorted(sig_y.values()):
        return False
    cands = {e: [f for f in y.events if sig_y[f] == sig_x[e]] for e in x.events}
    for perm in _bijections(list(x.events), cands):
        if perm is None:
            continue
        ok = all(((a, b) in x.po) == ((perm[a], perm[b]) in y.po) for a in x.events for b in x.events)
        if ok and respects(perm):
            return True
    return False


def _bijections(events, cands):
    if len(events) > 8:
        yield None
        return

    def rec(i, mapping, used):
        if i == len(events):
            yield dict(mapping)
            return
        e = events[i]
        for f in cands[e]:
            if f in used:
                continue
            mapping[e] = f
            used.add(f)
            yield from rec(i + 1, mapping, used)
            used.discard(f)
            del mapping[e]

    yield from rec(0, {}, set())


def ref_check_wellformed(coll, x, budget=10_000):
    """The walk that memoized prefixes up to isomorphism."""
    seen = {}
    explored = 0
    stack = [x]
    stalled = []
    while stack:
        cur = stack.pop()
        h = execution_canonical_hash(cur)
        if any(len(o) == len(cur) and _execution_iso_eq(o, cur) for o in seen.get(h, [])):
            continue
        seen.setdefault(h, []).append(cur)
        explored += 1
        if explored > budget:
            return Verdict.budget({"explored": explored})
        prevs = immediate_prefixes_execution(cur)
        owed = cur.is_empty()
        undecided = None
        for p in prevs:
            pv = check_consistent(coll, p)
            if pv:
                owed = True
                break
            if pv.is_budget and undecided is None:
                undecided = pv
        if owed or undecided is not None:
            v = check_immediately_wellformed(coll, cur)
            if not v:
                reason = f"prefix of size {len(cur)}: {v.reason}"
                if owed:
                    return Verdict(v.status, reason, cur, v.stats)
                stalled.append(Verdict(BUDGET, f"{reason}; an immediate prefix ran out of budget", cur, undecided.stats))
        stack.extend(prevs)
    return stalled[0] if stalled else Verdict.ok()


def ref_check_hereditarily_consistent(coll, x, budget=10_000):
    """The hereditary search on frozensets of event ids."""
    memo = {}
    explored = 0
    stalled = []

    def search(ids):
        nonlocal explored
        if not ids:
            return [ids]
        if ids in memo:
            return memo[ids]
        explored += 1
        if explored > budget:
            raise BudgetExceeded({"explored": explored})
        result = None
        v = check_consistent(coll, x.restrict_events(ids))
        if v.is_budget:
            stalled.append(v)
        if v:
            mask = sum(1 << e for e in ids)
            for e in [e for e in sorted(ids) if not x.hb_order.rows[e] & mask]:
                res = search(ids - {e})
                if res is not None:
                    result = res + [ids]
                    break
        memo[ids] = result
        return result

    try:
        subsets = search(frozenset(x.events))
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if subsets is None:
        return stalled[0] if stalled else Verdict.fail("no consistent immediate-prefix chain")
    return Verdict.ok(witness=HereditaryChain([x.restrict_events(s) for s in subsets], subsets))


def _toy_verdict(salt, x, fail_at, budget_at):
    """An iso-invariant verdict: it reads only the label multiset and the
    sizes of po, sw and hb."""
    if x.is_empty():
        return Verdict.ok()
    shape = (sorted(map(repr, x.plain.labels())), len(x.po), len(x.sw), len(x.hb))
    roll = zlib.crc32(repr((salt, shape)).encode()) % 8
    if roll < fail_at:
        return Verdict.fail(f"toy {shape}")
    if roll < fail_at + budget_at:
        return Verdict.budget({"stage": "toy", "size": len(x)})
    return Verdict.ok()


@st.composite
def _executions(draw):
    n = draw(st.integers(0, 6))
    labels = [Label(draw(st.sampled_from("ab")), (), None, thread=draw(st.sampled_from([0, 1]))) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    po = [e for e in pairs if draw(st.integers(0, 3)) == 0]
    sw = [e for e in pairs if draw(st.integers(0, 5)) == 0]
    extra = [e for e in pairs if draw(st.integers(0, 5)) == 0]
    return Execution(PlainExecution(labels, po), sw, set(po) | set(sw) | set(extra))


def _verdict_key(v):
    w = v.witness
    if isinstance(w, Execution):
        w = (w.plain.labels(), w.plain.po_order.rows, sorted(w.sw), w.hb_order.rows)
    elif isinstance(w, HereditaryChain):
        w = ([(x.plain.labels(), x.hb_order.rows) for x in w], w.subsets)
    return v.status, v.reason, w, v.stats


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_executions(), st.integers(0, 1_000), st.integers(0, 3), st.integers(0, 2))
def test_prefix_walks_match_iso_and_frozenset_references(x, salt, fail_at, budget_at):
    spec = LibrarySpec(
        interface=mk_iface("V", {"a": 0, "b": 0}),
        local_consistent=lambda y: _toy_verdict(("c", salt), y, fail_at // 2, budget_at),
        local_wellformed=lambda y: _toy_verdict(("w", salt), y, fail_at, budget_at),
    )
    coll = Collection([spec])
    assert _verdict_key(check_wellformed(coll, x)) == _verdict_key(ref_check_wellformed(coll, x))
    assert _verdict_key(check_hereditarily_consistent(coll, x)) == _verdict_key(ref_check_hereditarily_consistent(coll, x))


# --------------------------------------------------------------------------
# Shared consistency verdicts
# --------------------------------------------------------------------------


def _counting_spec(calls):
    """Library ``C``: consistent unless an event is ``bad``, out of budget on
    any ``slow`` event; ``calls`` counts the decisions made per method set."""

    def local(x):
        methods = frozenset(x.lab[e].method for e in x.events)
        calls[methods] = calls.get(methods, 0) + 1
        if "slow" in methods:
            return Verdict.budget({"stage": "counting"})
        if "bad" in methods:
            return Verdict.fail("bad event")
        return Verdict.ok()

    return LibrarySpec(interface=mk_iface("C", {"good": 0, "bad": 0, "slow": 0}), local_consistent=local)


def test_shared_verdicts_keep_decided_verdicts_only():
    calls = {}
    coll = Collection([_counting_spec(calls)])
    calls.clear()
    # three equal executions, built apart, per outcome
    runs = {m: [chain_exec([Label(m, (), None, thread=0)]) for _ in range(3)] for m in ("good", "bad", "slow")}
    with shared_verdicts():
        for xs in runs.values():
            verdicts = [check_consistent(coll, x) for x in xs]
            assert len({(v.status, v.reason) for v in verdicts}) == 1
        # a nested scope reads and extends the outer memo
        with shared_verdicts():
            for xs in runs.values():
                check_consistent(coll, xs[0])
    assert calls == {frozenset({"good"}): 1, frozenset({"bad"}): 1, frozenset({"slow"}): 4}
    # outside a scope, and in the next scope, every verdict is computed again
    for xs in runs.values():
        check_consistent(coll, xs[0])
    with shared_verdicts():
        for xs in runs.values():
            check_consistent(coll, xs[0])
    assert calls == {frozenset({"good"}): 3, frozenset({"bad"}): 3, frozenset({"slow"}): 6}
    # the key is exact: the same labels with one more hb edge are checked anew
    pair = chain_exec([Label("good", (), None, thread=0), Label("good", (), None, thread=1)])
    with shared_verdicts():
        check_consistent(coll, pair)
        check_consistent(coll, Execution(pair.plain, [], [(0, 1)]))
        check_consistent(coll, Execution(pair.plain, [], []))
        # and it names the collection: another one decides afresh
        strict = LibrarySpec(
            interface=mk_iface("C", {"good": 0}),
            local_consistent=lambda x: Verdict.fail("strict") if x.events else Verdict.ok(),
        )
        strict = Collection([strict])
        assert check_consistent(coll, pair) and not check_consistent(strict, pair)
    assert calls[frozenset({"good"})] == 5


def _counted(outcome):
    """A computation that logs each run and gives ``outcome()``."""
    runs = []

    def compute():
        runs.append(1)
        return outcome()

    return compute, runs


def _raise_budget():
    raise BudgetExceeded({"steps": 3})


def test_shared_call_keeps_nothing_outside_a_scope():
    compute, runs = _counted(lambda: 7)
    assert [shared_call(("k",), compute) for _ in range(2)] == [7, 7]
    assert len(runs) == 2


def test_shared_call_computes_a_decided_value_once_per_scope():
    for value in (7, None, Verdict.ok(), Verdict.fail("no")):
        compute, runs = _counted(lambda: value)
        with shared_verdicts():
            assert [shared_call(("k",), compute) for _ in range(3)] == [value] * 3
            # a key of its own is computed on its own
            assert shared_call(("other",), compute) == value
        assert len(runs) == 2


def test_shared_call_computes_a_returned_budget_verdict_again():
    compute, runs = _counted(lambda: Verdict.budget({"steps": 3}))
    with shared_verdicts():
        assert all(shared_call(("k",), compute).is_budget for _ in range(3))
    assert len(runs) == 3


def test_shared_call_computes_a_raised_budget_exceeded_again():
    compute, runs = _counted(_raise_budget)
    with shared_verdicts():
        for _ in range(3):
            with pytest.raises(BudgetExceeded):
                shared_call(("k",), compute)
        # once the computation decides, its value is kept
        assert shared_call(("k",), lambda: 7) == shared_call(("k",), compute) == 7
    assert len(runs) == 3


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(_executions(), min_size=1, max_size=4),
    st.integers(0, 1_000),
    st.integers(0, 3),
    st.integers(0, 2),
)
def test_shared_verdicts_match_uncached_checks(xs, salt, fail_at, budget_at):
    # the toy predicates read labels, po, sw and hb, so a key that left one
    # of them out would hand a verdict to an execution it does not belong to
    spec = LibrarySpec(
        interface=mk_iface("V", {"a": 0, "b": 0}),
        local_consistent=lambda y: _toy_verdict(("c", salt), y, fail_at // 2, budget_at),
        local_wellformed=lambda y: _toy_verdict(("w", salt), y, fail_at, budget_at),
    )
    coll = Collection([spec])
    # the executions share prefixes with each other and with their own
    # restrictions, so later checks in the scope hit earlier verdicts
    inputs = [y for x in xs for y in (x, x.restrict_events(x.events[: len(x) // 2 + 1]))]

    def run():
        return [
            (
                _verdict_key(check_consistent(coll, x)),
                _verdict_key(check_hereditarily_consistent(coll, x)),
                _verdict_key(check_wellformed(coll, x)),
            )
            for x in inputs
        ]

    with shared_verdicts():
        shared = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framework, "check_consistent", framework._check_consistent)
        uncached = run()
    assert shared == uncached
