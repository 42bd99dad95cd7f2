"""Pomset bind, matchings, lifting, and the bounded verifier.

Monad laws are checked on seeded random pomsets; bind expansions are checked
against hand-built oracles; the matching existence property is instanced on
bind outputs.
"""

import random

import pytest

from persistcheck.framework import BudgetExceeded, Collection, LibraryInterface, LibrarySpec, Verdict
from persistcheck.lang import InterpConfig, SyntacticImpl, parse_statements
from persistcheck.model import (
    BOT,
    CRASH,
    Execution,
    Label,
    PlainExecution,
    Pomset,
    iso_eq,
    parallel_execution,
    sequence_execution,
)
from persistcheck.px86 import px86_spec, store, load
from persistcheck.substitution import (
    SemanticImpl,
    check_global_preservation,
    check_lifting_step,
    exec_bind,
    existproj,
    find_plain_matching,
    identity_impl,
    is_plain_matching,
    is_refined_matching,
    lift_chain,
    pomset_bind,
    set_bind,
    verify_impl_bounded,
)

# --------------------------------------------------------------------------
# existproj
# --------------------------------------------------------------------------


def test_existproj_identity_is_r_minus_diagonal():
    r = {(0, 1), (1, 1), (2, 0)}
    f = {0: 0, 1: 1, 2: 2}
    assert existproj(f, r) == frozenset({(0, 1), (2, 0)})


def test_existproj_constant_map_empty():
    r = {(0, 1), (1, 2)}
    f = {0: 7, 1: 7, 2: 7}
    assert existproj(f, r) == frozenset()


def test_existproj_matches_quadratic_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n, m = 5, 3
        r = {(rng.randrange(n), rng.randrange(n)) for _ in range(6)}
        f = {i: rng.randrange(m) for i in range(n)}
        want = set()
        for y1 in range(m):
            for y2 in range(m):
                if y1 == y2:
                    continue
                if any(
                    f[x1] == y1 and f[x2] == y2 and (x1, x2) in r
                    for x1 in range(n)
                    for x2 in range(n)
                ):
                    want.add((y1, y2))
        assert existproj(f, r) == frozenset(want)


# --------------------------------------------------------------------------
# pomset bind (monad structure)
# --------------------------------------------------------------------------


def _rand_pomset(rng, max_events=4, labels="abc"):
    n = rng.randint(1, max_events)
    labs = [rng.choice(labels) for _ in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    return Pomset(labs, edges)


def test_bind_right_unit():
    rng = random.Random(11)
    for _ in range(50):
        p = _rand_pomset(rng)
        q = pomset_bind(p, lambda l: Pomset([l], []))
        assert iso_eq(p, q)


def test_bind_left_unit():
    rng = random.Random(12)
    inner = {l: _rand_pomset(random.Random(hash(l) % 1000)) for l in "abc"}
    for l in "abc":
        p = Pomset([l], [])
        q = pomset_bind(p, lambda x: inner[x])
        assert iso_eq(q, inner[l])


def test_bind_associativity_random():
    rng = random.Random(13)
    g_map = {l: _rand_pomset(random.Random(ord(l)), labels="xy") for l in "abc"}
    h_map = {l: _rand_pomset(random.Random(ord(l) * 7), labels="uv") for l in "xy"}

    def g(l):
        return g_map[l]

    def h(l):
        return h_map[l]

    for _ in range(60):
        p = _rand_pomset(rng)
        left = pomset_bind(pomset_bind(p, g), h)
        right = pomset_bind(p, lambda l: pomset_bind(g(l), h))
        assert iso_eq(left, right)


def test_bind_chain_of_antichains_oracle():
    # 2-chain bound into 2-antichains: 4 events, bipartite order
    p = Pomset(["a", "b"], [(0, 1)])
    g = {"a": Pomset(["x", "y"], []), "b": Pomset(["u", "v"], [])}
    q = pomset_bind(p, lambda l: g[l])
    want = Pomset(["x", "y", "u", "v"], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert iso_eq(q, want)


def test_set_bind_unions_choices():
    p = Pomset(["a"], [])
    choices = {"a": [Pomset(["x"], []), Pomset(["y"], [])]}
    out = set_bind([p], lambda l: choices[l])
    assert len(out) == 2


# --------------------------------------------------------------------------
# Toy register library for matching tests
# --------------------------------------------------------------------------


def toy_iface():
    return LibraryInterface(
        name="toyreg",
        methods={"tset": 1, "tget": 0},
        returns={"tset": "void", "tget": "value"},
    )


def toy_spec():
    # consistent iff every tget returns the value of some prior-or-any tset,
    # or 0; deliberately weak, enough to exercise delegation
    def ok(x):
        sets = {x.lab[e].args[0] for e in x.events if x.lab[e].method == "tset"}
        for e in x.events:
            l = x.lab[e]
            if l.method == "tget" and l.ret is not BOT and l.ret not in sets | {0}:
                return Verdict.fail(f"tget returned {l.ret}")
        return Verdict.ok()

    return LibrarySpec(interface=toy_iface(), local_consistent=ok)


def toy_impl():
    # tset(v) := store(1, v);  tget() := r := load(1); return r
    return SyntacticImpl(
        name="toy_over_px86",
        methods={
            "tset": (("v",), parse_statements("store(1, v)")),
            "tget": ((), parse_statements("r := load(1); return r")),
        },
    )


PX = Collection([px86_spec()])
TOY = Collection([toy_spec()])
CFG = InterpConfig(domain=(0, 1), unroll=4)


def tlabel(method, args=(), ret=None, thread=0):
    return Label(method, args, ret, frozenset(), thread)


# --------------------------------------------------------------------------
# exec_bind
# --------------------------------------------------------------------------


def test_exec_bind_no_owned_events_identity():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([store(1, 5, thread=0)])
    out = exec_bind(g, impl)
    assert len(out) == 1 and iso_eq(out[0], g)


def test_exec_bind_single_call_is_impl_set():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (5,), None, thread=0)])
    out = exec_bind(g, impl)
    assert len(out) == 1
    assert [l.method for l in out[0].labels()] == ["store"]
    assert out[0].labels()[0].args == (1, 5)


def test_exec_bind_mixed_manual_expansion():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    out = exec_bind(g, impl)
    # tget() with return 1 has exactly one implementing run: load(1):1
    assert len(out) == 1
    want = sequence_execution([store(1, 1, thread=0), load(1, 1, thread=0)])
    assert iso_eq(out[0], want)


def test_exec_bind_inner_events_inherit_thread():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (1,), None, thread=7)])
    out = exec_bind(g, impl)
    assert out[0].labels()[0].thread == 7


def test_exec_bind_crash_passthrough():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (1,), None, thread=0), CRASH])
    out = exec_bind(g, impl)
    assert any(l.is_crash for l in out[0].labels())


def test_exec_bind_incomplete_call_partial_runs():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    pending = Label("tget", (), BOT, frozenset(), 0)
    g = sequence_execution([pending])
    out = exec_bind(g, impl)
    # partial runs of tget: load with any domain value, complete or pending
    assert out
    for gc in out:
        assert all(l.method == "load" for l in gc.labels())


# --------------------------------------------------------------------------
# Plain matchings
# --------------------------------------------------------------------------


def test_matching_exists_for_bind_outputs():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    ga = parallel_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)],
        [tlabel("tget", (), 0, thread=1)],
    )
    for gc in exec_bind(ga, impl):
        f = find_plain_matching(gc, ga, impl)
        assert f is not None
        assert is_plain_matching(f, gc, ga, impl)


def test_matching_empty_graphs():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    empty = PlainExecution([], [])
    f = find_plain_matching(empty, empty, impl)
    assert f == {}


def test_matching_fails_on_reordered_thread_events():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    ga = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    # concrete with the order flipped: load before store
    gc = sequence_execution([load(1, 1, thread=0), store(1, 1, thread=0)])
    assert find_plain_matching(gc, ga, impl) is None


def test_matching_condition2_exact_po_projection():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    ga = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    gc = exec_bind(ga, impl)[0]
    f = find_plain_matching(gc, ga, impl)
    assert existproj(f, gc.po) == ga.po


# --------------------------------------------------------------------------
# Refined matchings and lifting
# --------------------------------------------------------------------------


def test_refined_matching_identity_impl():
    iid = identity_impl(TOY, ["tset", "tget"])
    ga = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    xa = Execution(ga)
    ok, report = is_refined_matching(
        f,
        xc,
        xa,
        consistent_low=lambda x: Verdict.ok(),
        consistent_high=lambda x: Verdict.ok(),
    )
    assert ok, report


def test_refined_matching_missing_sw_justification():
    iid = identity_impl(TOY, ["tset", "tget"])
    ga = parallel_execution(
        [tlabel("tset", (1,), None, thread=0)], [tlabel("tget", (), 1, thread=1)]
    )
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    # abstract sw edge with no concrete hb justification: condition 2 fails
    xa = Execution(ga, sw=[(0, 1)])
    xc = Execution(gc)  # hb = po only, no cross-thread edge
    ok, report = is_refined_matching(
        f, xc, xa, lambda x: Verdict.ok(), lambda x: Verdict.ok()
    )
    assert not ok and report["sw-justified"] is False


def test_check_lifting_step_identity_single_event():
    iid = identity_impl(TOY, ["tset", "tget"])
    ga = sequence_execution([tlabel("tset", (1,), None, thread=0)])
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    empty_abs = Execution(PlainExecution([], []))
    out = check_lifting_step([], xc, empty_abs, ga, f, TOY)
    assert out is not None and len(out) == 1


def test_check_lifting_step_rejects_inconsistent_prev():
    iid = identity_impl(TOY, ["tget"])
    ga = sequence_execution([tlabel("tget", (), 9, thread=0)])
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    bad_prev = Execution(sequence_execution([tlabel("tget", (), 9, thread=0)]))
    with pytest.raises(ValueError):
        check_lifting_step([0], Execution(sequence_execution([tlabel("tget", (), 9, thread=0), tlabel("tget", (), 9, thread=0)])), bad_prev, ga, {0: 0, 1: 0}, TOY)


def test_lift_chain_identity():
    from persistcheck.framework import check_hereditarily_consistent

    iid = identity_impl(TOY, ["tset", "tget"])
    ga = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    v = check_hereditarily_consistent(TOY, xc)
    assert v
    chain = lift_chain(xc, v.witness.subsets, f, ga, TOY)
    assert chain is not None
    assert len(chain) == len(v.witness.subsets)


# --------------------------------------------------------------------------
# Global preservation
# --------------------------------------------------------------------------


def test_global_preservation_vacuous_without_tagged_events():
    dep = toy_spec()
    ga = sequence_execution([tlabel("tset", (1,), None, thread=0)])
    iid = identity_impl(TOY, ["tset", "tget"])
    gc = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    ok, report = check_global_preservation(dep, Execution(gc), Execution(ga), f)
    assert ok


def test_global_preservation_detects_violation():
    # dependency whose global consistency demands every ⋆-tagged event be
    # tagged "P"; the abstract side violates, concrete side satisfies
    def gcheck(x):
        for e in x.events:
            if x.lab[e].method == "⋆" and "P" not in x.lab[e].tags:
                return Verdict.fail("untagged star")
        return Verdict.ok()

    dep = LibrarySpec(
        interface=LibraryInterface(name="dep", methods={"d": 0}, tags_introduced=frozenset({"T", "P"})),
        global_consistent=gcheck,
    )
    # concrete: foreign event tagged {T, P}; abstract: tagged {T} only
    conc = Execution(sequence_execution([Label("u", (), None, frozenset({"T", "P"}), 0)]))
    abst = Execution(sequence_execution([Label("u", (), None, frozenset({"T"}), 0)]))
    ok, report = check_global_preservation(dep, conc, abst, {0: 0})
    assert not ok and report["consistency-upward"] is False


# --------------------------------------------------------------------------
# Bounded verification
# --------------------------------------------------------------------------


def test_verify_identity_impl_all_pass():
    iid = identity_impl(TOY, ["tset", "tget"])
    corpus = [
        sequence_execution([tlabel("tset", (1,), None, thread=0)]),
        sequence_execution(
            [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
        ),
        parallel_execution(
            [tlabel("tset", (1,), None, thread=0)], [tlabel("tget", (), 0, thread=1)]
        ),
    ]
    report = verify_impl_bounded(iid, TOY, TOY, corpus)
    assert report.ok, report.counterexamples()
    assert report.records
    lines = report.to_json_lines().splitlines()
    assert len(lines) == len(report.records)


def test_verify_toy_impl_over_px86():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    corpus = [
        sequence_execution(
            [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
        ),
    ]
    report = verify_impl_bounded(impl, TOY, PX, corpus, check_wf=False)
    assert report.ok, [r.detail for r in report.counterexamples()]


def test_verify_lifting_budget_is_undecided(monkeypatch):
    import persistcheck.substitution as sub

    impl = SemanticImpl(toy_impl(), PX, CFG)
    corpus = [sequence_execution([tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)])]

    def out_of_budget(*args, **kwargs):
        raise BudgetExceeded({"stage": "lifting"})

    monkeypatch.setattr(sub, "lift_chain", out_of_budget)
    report = verify_impl_bounded(impl, TOY, PX, corpus, check_wf=False)
    assert report.ok and not report.counterexamples()
    assert report.undecided() == report.records and report.budget_hits
    assert all(r.lifted is None and r.detail == "lifting hit budget" for r in report.records)
    # a chain that does not lift is still a counterexample
    monkeypatch.setattr(sub, "lift_chain", lambda *args, **kwargs: None)
    report = verify_impl_bounded(impl, TOY, PX, corpus, check_wf=False)
    assert not report.ok and report.counterexamples() and not report.undecided()


def test_linking_semantics_proposition_instance():
    # the two ways of linking agree: interpreting P·I equals binding ⟦P⟧ with
    # ⟦I⟧, as sets of complete plain executions up to isomorphism
    from persistcheck.lang import interpret, link, parse_litmus
    from persistcheck.model import canonical_hash

    lit = parse_litmus(
        "collection toyreg px86\nprogram\n t0: tset(1); r := tget()\n t1: s := tget()\n"
    )
    prog = lit.phases[0]
    impl_syn = toy_impl()
    impl = SemanticImpl(impl_syn, PX, CFG)

    # semantic route: abstract runs over {toyreg}, then bind
    toy_coll = Collection([toy_spec()])
    abstract = interpret(prog, toy_coll, CFG)
    left = []
    for env, g in abstract.complete_executions():
        left.extend(exec_bind(g, impl))
    # syntactic route: interpret the linked program over px86
    linked = link(prog, impl_syn)
    right = [g for env, g in interpret(linked, PX, CFG).complete_executions()]

    def multiset(graphs):
        out = {}
        for g in graphs:
            out.setdefault(canonical_hash(g), []).append(g)
        return out

    lm, rm = multiset(left), multiset(right)
    assert set(lm) == set(rm)
    for h in lm:
        for g in lm[h]:
            assert any(iso_eq(g, g2) for g2 in rm[h])
    for h in rm:
        for g in rm[h]:
            assert any(iso_eq(g, g2) for g2 in lm[h])
