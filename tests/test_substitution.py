"""Pomset bind, matchings, lifting, and the bounded verifier.

Monad laws are checked on seeded random pomsets; bind expansions are checked
against hand-built oracles; the matching existence property is instanced on
bind outputs.  The memoized, row-based matching and lifting are checked
against pair-set reference copies on the litmus corpora.
"""

import itertools
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lift_reference
import verify_reference
import persistcheck.framework as framework
import persistcheck.lang as lang
import persistcheck.model as model
from definitions import (
    check_lifting_step,
    contains,
    era_numbers,
    existproj,
    identity_impl,
    interpret,
    is_irreflexive,
    is_plain_matching,
    is_refined_matching,
    lift_step,
    pomset_bind,
    set_bind,
    sourced_in,
)
from eager_reference import linear_extensions
from persistcheck.framework import (
    BudgetExceeded,
    Collection,
    LibraryInterface,
    LibrarySpec,
    Verdict,
    check_consistent,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    shared_verdicts,
)
from persistcheck.lang import (
    InterpConfig,
    SyntacticImpl,
    ValueFlow,
    candidate_refinements,
    interpret_phases,
    interpret_toplevel,
    parse_litmus,
    parse_statements,
)
from persistcheck.libs import (
    builtin_spec,
    flit_impl,
    flit_impl_mutated_no_fo,
    flit_spec,
    lock_spec,
    ltrans_spec,
    mirror_spec,
    persistify_flit,
    persistify_flit_mutated,
    persistify_mirror,
    persistify_mirror_mutated,
    reg_durlin_spec,
)
from persistcheck.model import (
    BOT,
    CRASH,
    Execution,
    Label,
    PlainExecution,
    Pomset,
    closure,
    iso_eq,
    parallel_execution,
    sequence_execution,
)
from persistcheck.px86 import _read_candidates, alloc, derive_sets, px86_spec, search_px86_witness, store, load, upd
import persistcheck.substitution as sub
from persistcheck.substitution import (
    SemanticImpl,
    check_global_preservation,
    exec_bind,
    find_plain_matching,
    lift_chain,
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
        void=frozenset({"tset"}),
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
    out = [gc for gc, _ in exec_bind(g, impl)]
    assert len(out) == 1 and iso_eq(out[0], g)


def test_exec_bind_single_call_is_impl_set():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (5,), None, thread=0)])
    out = [gc for gc, _ in exec_bind(g, impl)]
    assert len(out) == 1
    assert [l.method for l in out[0].labels()] == ["store"]
    assert out[0].labels()[0].args == (1, 5)


def test_exec_bind_mixed_manual_expansion():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    out = [gc for gc, _ in exec_bind(g, impl)]
    # tget() with return 1 has exactly one implementing run: load(1):1
    assert len(out) == 1
    want = sequence_execution([store(1, 1, thread=0), load(1, 1, thread=0)])
    assert iso_eq(out[0], want)


def test_exec_bind_inner_events_inherit_thread():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (1,), None, thread=7)])
    out = [gc for gc, _ in exec_bind(g, impl)]
    assert out[0].labels()[0].thread == 7


def test_exec_bind_crash_passthrough():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    g = sequence_execution([tlabel("tset", (1,), None, thread=0), CRASH])
    out = [gc for gc, _ in exec_bind(g, impl)]
    assert any(l.is_crash for l in out[0].labels())


def test_exec_bind_incomplete_call_partial_runs():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    pending = Label("tget", (), BOT, frozenset(), 0)
    g = sequence_execution([pending])
    out = [gc for gc, _ in exec_bind(g, impl)]
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
    for gc, _ in exec_bind(ga, impl):
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
    gc, _ = exec_bind(ga, impl)[0]
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
    gc, _ = exec_bind(ga, iid)[0]
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
    gc, _ = exec_bind(ga, iid)[0]
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
    gc, _ = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    empty_abs = Execution(PlainExecution([], []))
    out = check_lifting_step([], xc, empty_abs, ga, f, TOY)
    assert out is not None and len(out) == 1


def test_check_lifting_step_rejects_inconsistent_prev():
    iid = identity_impl(TOY, ["tget"])
    ga = sequence_execution([tlabel("tget", (), 9, thread=0)])
    gc, _ = exec_bind(ga, iid)[0]
    f = find_plain_matching(gc, ga, iid)
    xc = Execution(gc)
    bad_prev = Execution(sequence_execution([tlabel("tget", (), 9, thread=0)]))
    with pytest.raises(ValueError):
        check_lifting_step([0], Execution(sequence_execution([tlabel("tget", (), 9, thread=0), tlabel("tget", (), 9, thread=0)])), bad_prev, ga, {0: 0, 1: 0}, TOY)


def test_lift_chain_identity():
    iid = identity_impl(TOY, ["tset", "tget"])
    ga = sequence_execution(
        [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)]
    )
    gc, _ = exec_bind(ga, iid)[0]
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
    gc, _ = exec_bind(ga, iid)[0]
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


def test_verify_bound_counts_empty_and_capped_binds():
    impl = SemanticImpl(toy_impl(), PX, CFG)
    # no member of tget returns 5 over the domain (0, 1); a pending tset
    # before a crash binds to two partial runs
    empty = sequence_execution([tlabel("tset", (1,), None), tlabel("tget", (), 5)])
    pending = sequence_execution([tlabel("tset", (1,), BOT), CRASH])
    assert exec_bind(empty, impl) == [] and len(exec_bind(pending, impl)) == 2
    report = verify_impl_bounded(impl, TOY, PX, [empty, pending], max_concrete=1, check_wf=False)
    assert report.bound_note == (
        "corpus=2 graphs (1 bind to no concrete, 1 over max_concrete), max_concrete=1, budget=5000"
    )
    # the cap still keeps the first max_concrete concretes, and only them
    assert [(r.abstract_index, r.concrete_index) for r in report.records] == [(1, 0)]
    report = verify_impl_bounded(impl, TOY, PX, [empty, pending], max_concrete=2, check_wf=False)
    assert "(1 bind to no concrete, 0 over max_concrete)" in report.bound_note
    assert [(r.abstract_index, r.concrete_index) for r in report.records] == [(1, 0), (1, 1)]


def test_linking_semantics_proposition_instance():
    # the two ways of linking agree: interpreting P·I equals binding ⟦P⟧ with
    # ⟦I⟧, as sets of complete plain executions up to isomorphism
    from persistcheck.lang import link, parse_litmus
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
        left.extend(gc for gc, _ in exec_bind(g, impl))
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


# --------------------------------------------------------------------------
# Three-valued verification: out-of-budget checks are undecided
# --------------------------------------------------------------------------

LITMUS = Path(__file__).resolve().parent.parent / "litmus"


def _litmus_corpus(directory, max_events, max_graphs):
    """Distinct-label runs (partial ones too) of the corpus programs, as
    acceptance 5 and 6 and the flit_verify benchmark build them."""
    out, seen = [], set()
    for p in sorted((LITMUS / directory).glob("*.lit")):
        lit = parse_litmus(p.read_text(encoding="utf-8"), name=p.name)
        coll = Collection([builtin_spec(n) for n in lit.collection])
        cfg = InterpConfig(domain=tuple(lit.domain) + (0, 1), unroll=2, max_runs=50_000)
        for env, g in interpret_phases(list(lit.phases), coll, cfg):
            key = tuple(repr(l) for l in g.labels())
            if len(g) > max_events or key in seen:
                continue
            seen.add(key)
            out.append(g)
            if len(out) >= max_graphs:
                return out
    return out


FLIT_CFG = InterpConfig(domain=(0, 1), unroll=2)


def test_lifting_out_of_budget_is_undecided_not_refuted():
    # with a flit spec of budget 1 some abstract consistency checks of the
    # lifting run out; no lifted candidate then means "undecided"
    ga = _litmus_corpus("flit", 8, 2)[1]
    impl = SemanticImpl(flit_impl(), PX, FLIT_CFG)
    report = verify_impl_bounded(impl, Collection([flit_spec(budget=1)]), PX, [ga], budget=20_000)
    assert report.ok and not report.counterexamples()
    undecided = report.undecided()
    assert undecided and report.budget_hits == len(undecided)
    assert all(r.lifted is None and r.detail == "lifting hit budget" for r in undecided)


def _budgeted_wellformed(budget):
    # a well-formedness check that may look at ``budget`` events
    def wf(x):
        return Verdict.budget({"events": len(x)}) if len(x) > budget else Verdict.ok()

    return wf


def test_abstract_wellformedness_out_of_budget_is_undecided():
    high = Collection([replace(toy_spec(), local_wellformed=_budgeted_wellformed(0))])
    impl = SemanticImpl(toy_impl(), PX, CFG)
    corpus = [sequence_execution([tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)])]
    report = verify_impl_bounded(impl, high, PX, corpus)
    assert report.records and report.ok
    assert report.undecided() == report.records
    assert report.budget_hits == len(report.records)
    for r in report.records:
        assert r.lifted is True and r.wellformed_downward is None
        assert r.detail == "well-formedness check hit budget"


def test_concrete_wellformedness_out_of_budget_is_undecided():
    low = Collection([replace(toy_spec(), local_wellformed=_budgeted_wellformed(0))])
    iid = identity_impl(low, ["tset", "tget"])
    corpus = [sequence_execution([tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)])]
    report = verify_impl_bounded(iid, TOY, low, corpus)
    assert report.records and report.ok and not report.counterexamples()
    assert report.undecided() == report.records
    assert all(r.wellformed_downward is None for r in report.records)
    # with room for every event the transport is decided again
    low = Collection([replace(toy_spec(), local_wellformed=_budgeted_wellformed(10))])
    report = verify_impl_bounded(identity_impl(low, ["tset", "tget"]), TOY, low, corpus)
    assert report.ok and not report.undecided()
    assert all(r.wellformed_downward is True for r in report.records)


# --------------------------------------------------------------------------
# Differential tests: memoized, row-based matching and lifting against
# pair-set reference copies of the code they replaced
# --------------------------------------------------------------------------


def _unthread(l):
    return replace(l, thread=None) if l.thread is not None else l


def ref_contains(impl, label, g):
    """Membership without a memo: strip the threads, then test iso against
    every interpretation of the label."""
    norm = PlainExecution([_unthread(l) for l in g.labels()], g.po)
    allocs = sorted(g.lab[e].ret for e in g.events if g.lab[e].method in impl._alloc_methods)
    loc_start = min(a for a in allocs if isinstance(a, int)) - 1 if allocs else impl.config.loc_base
    cands = impl.executions(_unthread(label), loc_start)
    return any(iso_eq(norm, PlainExecution([_unthread(l) for l in c.labels()], c.po)) for c in cands)


def ref_find_plain_matching(gc, ga, impl, budget=50_000):
    """Every cut of every thread, each block restricted and tested anew; one
    budget unit per distinct (thread, abstract index, span) tested."""

    def chains(g):
        groups = {}
        for e in g.events:
            l = g.lab[e]
            groups.setdefault("crash" if l.is_crash else ("none" if l.thread is None else l.thread), []).append(e)
        if any((a, b) not in g.po for evs in groups.values() for a, b in zip(evs, evs[1:])):
            return None
        return groups

    groups_c, groups_a = chains(gc), chains(ga)
    if groups_c is None or groups_a is None or set(groups_a) - set(groups_c):
        return None
    era = era_numbers(gc)
    spent = [0]
    tried = set()

    def thread_assignments(key):
        cs = groups_c.get(key, [])
        as_ = groups_a.get(key, [])
        if not as_:
            return None if cs else [dict()]
        if key == "crash":
            return [dict(zip(cs, as_))] if len(cs) == len(as_) else None
        k, m = len(as_), len(cs)
        if m < k:
            return None
        options = []
        for cut in itertools.combinations(range(1, m), k - 1):
            bounds = [0] + list(cut) + [m]
            assignment = {}
            ok = True
            for j, a in enumerate(as_):
                if (key, j, bounds[j], bounds[j + 1]) not in tried:
                    tried.add((key, j, bounds[j], bounds[j + 1]))
                    spent[0] += 1
                    if spent[0] > budget:
                        raise BudgetExceeded({"spans": spent[0]})
                block_ids = cs[bounds[j] : bounds[j + 1]]
                if era[block_ids[0]] != era[block_ids[-1]]:
                    ok = False
                    break
                block = gc.restrict_events(block_ids)
                lab = ga.lab[a]
                if impl.owns(lab):
                    ok = ref_contains(impl, lab, block)
                else:
                    ok = len(block_ids) == 1 and _unthread(gc.lab[block_ids[0]]) == _unthread(lab)
                if not ok:
                    break
                for c in block_ids:
                    assignment[c] = a
            if ok:
                options.append(assignment)
        return options or None

    per_key = []
    for key in sorted(set(groups_c) | set(groups_a), key=repr):
        opts = thread_assignments(key)
        if opts is None:
            return None
        per_key.append(opts)
    for combo in itertools.product(*per_key):
        f = {}
        for part in combo:
            f.update(part)
        if existproj(f, gc.po) == ga.po:
            return f
    return None


def ref_thread_assignments(cs, as_, crash, fits, spend):
    """The per-thread closure of find_plain_matching before the span walk,
    its captured chains and crash key passed in: every cut of the chain is
    enumerated and charged, spans decided once."""
    if not as_:
        return None if cs else [dict()]
    if crash:
        if len(cs) != len(as_):
            return None
        return [dict(zip(cs, as_))]
    k, m = len(as_), len(cs)
    if m < k:
        return None
    # each (abstract event, block start, block end) is decided once,
    # whichever cuts share it
    decided = [{} for _ in as_]
    options = []
    for cut in itertools.combinations(range(1, m), k - 1):
        spend()
        bounds = (0,) + cut + (m,)
        for j, a in enumerate(as_):
            span = bounds[j : j + 2]
            fit = decided[j].get(span)
            if fit is None:
                fit = decided[j][span] = fits(a, cs[span[0] : span[1]])
            if not fit:
                break
        else:
            options.append({c: a for j, a in enumerate(as_) for c in cs[bounds[j] : bounds[j + 1]]})
    return options if options else None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 9),
    st.booleans(),
    st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 8), st.integers(1, 9)), max_size=150),
    st.booleans(),
)
def test_thread_assignments_match_per_cut_reference(k, m, crash, drawn, dense):
    # concrete events 0..m-1, abstract events 20..20+k-1; a block fits
    # abstract event 20+j if (j, first, last + 1) is drawn, or (dense) if
    # it is not
    cs, as_ = list(range(m)), list(range(20, 20 + k))

    def fits_logging(tried):
        def fits(a, block):
            tried.append((a - 20, block[0], block[-1] + 1))
            return (tried[-1] in drawn) != dense

        return fits

    tried, spent = [], []
    got = sub._thread_assignments(cs, as_, crash, fits_logging(tried), lambda: spent.append(1))
    ref_tried = []
    assert got == ref_thread_assignments(cs, as_, crash, fits_logging(ref_tried), lambda: None)
    # the walk tries the spans the per-cut loop decides, and charges each once
    assert len(spent) == len(tried) == len(set(tried)) and set(tried) == set(ref_tried)


def ref_lift_step(xc, f, ga, prev_abs, prev_ids, coll_high, budget=4_000, failure=None):
    """Every sw subset closed as a pair set."""
    image = sorted({f[c] for c in xc.events})
    ren = {old: new for new, old in enumerate(image)}
    g_sub = ga.restrict_events(image)
    f_dense = {c: ren[f[c]] for c in xc.events}
    proj_hb = existproj(f_dense, xc.hb)
    inner = closure(set(xc.sw) | set(xc.po))
    proj_external = existproj(f_dense, frozenset(p for p in xc.hb if p not in inner))
    cands = sorted(proj_hb)
    if len(cands) > 14:
        cands = sorted(p for p in proj_hb if p not in g_sub.po)
    spent = 0
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            spent += 1
            if spent > budget:
                raise BudgetExceeded({"sw-subsets": spent})
            sw = frozenset(combo)
            hb = closure(set(proj_external) | set(g_sub.po) | set(sw))
            if not is_irreflexive(hb):
                continue
            xa = Execution(g_sub, sw, hb)
            if prev_abs is not None:
                part = xa.restrict_events([ren[i] for i in sorted(prev_ids)])
                if not (
                    part.plain.labels() == prev_abs.plain.labels()
                    and part.plain.po == prev_abs.plain.po
                    and part.sw == prev_abs.sw
                    and part.hb == prev_abs.hb
                ):
                    continue
            if closure(sw) - proj_hb:
                continue
            v = check_consistent(coll_high, xa)
            if v:
                return xa
            if failure is not None:
                failure[:] = [v.reason]
    return None


def _register_impl():
    return SyntacticImpl(
        name="reg",
        methods={
            "regnew": ((), parse_statements("r := alloc(); return r")),
            "regwrite": (("l", "v"), parse_statements("store(l, v)")),
            "regread": (("l",), parse_statements("v := load(l); return v")),
        },
    )


FLIT_LOW = Collection([flit_spec()])
MIRROR_LOW = Collection([mirror_spec()])
REG_HIGH = Collection([reg_durlin_spec()])

#: name -> (implementation, low collection, high collection, corpus, check_wf)
DIFF_CASES = {
    "flit": (flit_impl, PX, Collection([flit_spec()]), ("flit", 8, 40), True),
    "flit_no_fo": (flit_impl_mutated_no_fo, PX, Collection([flit_spec()]), ("flit", 8, 40), False),
    "reg_flit": (lambda: persistify_flit(_register_impl()), FLIT_LOW, REG_HIGH, ("reg_flit", 6, 30), False),
    "reg_flit_mut": (lambda: persistify_flit_mutated(_register_impl()), FLIT_LOW, REG_HIGH, ("reg_flit", 6, 30), False),
    "reg_mirror": (lambda: persistify_mirror(_register_impl()), MIRROR_LOW, REG_HIGH, ("reg_mirror", 6, 30), False),
    "reg_mirror_mut": (
        lambda: persistify_mirror_mutated(_register_impl()),
        MIRROR_LOW,
        REG_HIGH,
        ("reg_mirror", 6, 30),
        False,
    ),
}

_CORPORA = {}


def _cached_corpus(spec):
    if spec not in _CORPORA:
        _CORPORA[spec] = _litmus_corpus(*spec)
    return _CORPORA[spec]


def _matching_outcome(find, gc, ga, impl, budget):
    try:
        return find(gc, ga, impl, budget=budget)
    except BudgetExceeded as e:
        return ("budget", e.stats)


@pytest.mark.parametrize("budget", [20_000, 7])
@pytest.mark.parametrize("case", sorted(DIFF_CASES))
def test_matching_and_lifting_match_pair_set_reference(case, budget, monkeypatch):
    make, low, high, corpus_spec, check_wf = DIFF_CASES[case]
    corpus = _cached_corpus(corpus_spec)
    assert corpus

    def verify(find, chain):
        monkeypatch.setattr(sub, "find_plain_matching", find)
        monkeypatch.setattr(sub, "lift_chain", chain)
        impl = SemanticImpl(make(), low, FLIT_CFG)
        reports = [verify_impl_bounded(impl, high, low, [ga], budget=budget, check_wf=check_wf) for ga in corpus]
        return impl, [([vars(r) for r in rep.records], rep.budget_hits) for rep in reports]

    impl, got = verify(find_plain_matching, lift_chain)
    # the chain loop before masks, each step the pair-set one
    monkeypatch.setattr(lift_reference, "lift_step", ref_lift_step)
    _, want = verify(ref_find_plain_matching, lift_reference.lift_chain)
    assert got == want
    matchings = 0
    for ga in corpus:
        for gc, _ in exec_bind(ga, impl):
            f = _matching_outcome(find_plain_matching, gc, ga, impl, budget)
            assert f == _matching_outcome(ref_find_plain_matching, gc, ga, impl, budget)
            matchings += isinstance(f, dict)
    assert matchings


_FLIT_CALLS = [
    Label("fnew", (), 101),
    Label("fwrite_p", (101, 1), None),
    Label("fwrite_v", (101, 1), None),
    Label("fread_p", (101,), 0),
    Label("fread_p", (101,), 1),
    Label("fread_p", (101,), BOT),
    Label("fread_v", (101,), 1),
    Label("ffinish", (), None),
]
_REG_CALLS = [
    Label("regnew", (), 101),
    Label("regnew", (), BOT),
    Label("regwrite", (101, 1), None),
    Label("regwrite", (101, 1), BOT),
    Label("regread", (101,), 0),
    Label("regread", (101,), 1),
    Label("regread", (101,), BOT),
]
#: (implementation, its calls); the memo lives on the instance, so later
#: examples hit it
_MEMBER_CASES = [
    (SemanticImpl(flit_impl(), PX, FLIT_CFG), _FLIT_CALLS),
    (SemanticImpl(flit_impl_mutated_no_fo(), PX, FLIT_CFG), _FLIT_CALLS),
    (SemanticImpl(persistify_mirror(_register_impl()), MIRROR_LOW, FLIT_CFG), _REG_CALLS),
]


@st.composite
def _blocks(draw):
    """An implementation, one of its calls, and a run implementing some
    call, perhaps with threads set, po edges dropped, events swapped or ids
    permuted (po following them), so that both members and non-members of
    each call come up."""
    impl, calls = draw(st.sampled_from(_MEMBER_CASES))
    run = draw(st.sampled_from(impl.executions(draw(st.sampled_from(calls)), impl.config.loc_base)))
    labels = run.labels()
    thread = draw(st.sampled_from([None, 0, 1]))
    labels = [replace(l, thread=thread) for l in labels]
    edges = sorted(run.po_reduced)
    edges = [e for e in edges if draw(st.booleans()) or draw(st.booleans())]
    if len(labels) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(labels) - 2))
        labels[i], labels[i + 1] = labels[i + 1], labels[i]
    perm = draw(st.permutations(range(len(labels))))
    labels = [labels[perm.index(e)] for e in range(len(labels))]
    edges = [(perm[a], perm[b]) for a, b in edges]
    try:
        block = PlainExecution(labels, edges)
    except ValueError:
        block = run
    return impl, draw(st.sampled_from(calls)), block


def _ref_member(impl, call, block):
    """``ref_contains``, which raises on a block whose constructor calls are
    all pending.  No location such a block holds ties it to an allocation
    base, so it is tested against the runs at ``loc_base``."""
    try:
        return ref_contains(impl, call, block)
    except ValueError:
        allocs = [l.ret for l in block.labels() if l.method in impl._alloc_methods]
        assert allocs and BOT in allocs and not any(isinstance(a, int) for a in allocs)
        norm = PlainExecution([_unthread(l) for l in block.labels()], block.po)
        cands = impl.executions(_unthread(call), impl.config.loc_base)
        return any(iso_eq(norm, PlainExecution([_unthread(l) for l in c.labels()], c.po)) for c in cands)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_blocks())
def test_memoized_contains_matches_iso_path(drawn):
    impl, call, block = drawn
    want = _ref_member(impl, call, block)
    assert contains(impl, call, block) == want
    assert contains(impl, replace(call, thread=3), block) == want


def test_pending_constructor_block_is_a_member():
    # regnew's only inner call can be a pending mnew, which returns no location
    impl = SemanticImpl(persistify_mirror(_register_impl()), MIRROR_LOW, FLIT_CFG)
    call = Label("regnew", (), BOT, thread=0)
    ga = PlainExecution([call], [])
    concretes = [gc for gc, _ in exec_bind(ga, impl)]
    pending = [gc for gc in concretes if not gc.lab[0].is_complete]
    assert len(pending) == 1 and pending[0].lab[0].method == "mnew"
    assert contains(impl, call, pending[0])
    assert not contains(impl, replace(call, ret=101), pending[0])
    assert all(find_plain_matching(gc, ga, impl) == {0: 0} for gc in concretes)
    report = verify_impl_bounded(impl, REG_HIGH, MIRROR_LOW, [ga])
    assert len(report.records) == len(concretes)
    assert report.ok and all(json.loads(r.to_json())["matching"] is True for r in report.records)


@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_verify_path_runs_no_isomorphism(case, monkeypatch):
    make, low, high, corpus_spec, check_wf = DIFF_CASES[case]
    corpus = _cached_corpus(corpus_spec)

    def verify():
        rep = verify_impl_bounded(SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    def no_iso(*args):
        raise AssertionError("isomorphism search on the verification path")

    with monkeypatch.context() as m:
        m.setattr(model, "_find_isomorphism", no_iso)
        got = verify()
    assert got == verify()
    assert got[0]


def test_verify_path_searches_no_matching(monkeypatch):
    # each concrete's matching comes from its bind: neither the matching
    # search nor block membership runs while verifying
    make, low, high, corpus_spec, check_wf = DIFF_CASES["flit"]
    corpus = _cached_corpus(corpus_spec)

    def verify():
        rep = verify_impl_bounded(SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    def no_search(*args, **kwargs):
        raise AssertionError("matching search on the verification path")

    with monkeypatch.context() as m:
        m.setattr(sub, "find_plain_matching", no_search)
        m.setattr(SemanticImpl, "_contains", no_search)
        got = verify()
    assert got == verify()
    assert got[0]


def _chain_key(chain):
    if not isinstance(chain, list):
        return chain
    return [(x.plain.labels(), x.plain.po_order.rows, x.sw, x.hb_order.rows) for x in chain]


def _lift_outcome(xc, subsets, f, ga, high, chain=lift_chain):
    why = []
    try:
        return _chain_key(chain(xc, subsets, f, ga, high, budget=20_000, failure=why)), why
    except BudgetExceeded as e:
        return ("budget", e.stats), why


def _hb_chains(xc, limit):
    """``limit`` chains of hb-down-sets from the empty set to all of xc,
    spread over the first 64 orders in which the events can be added."""
    exts = list(itertools.islice(linear_extensions(xc.hb_order), 64))
    picked = exts[:: max(1, len(exts) // limit)][:limit]
    return [[frozenset(ext[:i]) for i in range(len(ext) + 1)] for ext in picked]


def test_lift_chain_matches_reference_in_every_event_order(monkeypatch):
    # the hereditary witness adds events roughly by id, so its images are
    # dense id prefixes; here events are added in every order, so a step's
    # image is often a sparse subset of the abstract ids
    toy = SemanticImpl(toy_impl(), PX, CFG)
    two = [g for g in _cached_corpus(("flit", 8, 40)) if len(g.threads()) == 2][:3]
    cases = [
        (toy, TOY, parallel_execution([tlabel("tset", (1,), None, thread=0)], [tlabel("tget", (), 1, thread=1)])),
        (
            toy,
            TOY,
            parallel_execution(
                [tlabel("tset", (1,), None, thread=0), tlabel("tget", (), 1, thread=0)],
                [tlabel("tget", (), 0, thread=1), tlabel("tset", (0,), None, thread=1)],
            ),
        ),
    ] + [(SemanticImpl(flit_impl(), PX, FLIT_CFG), Collection([flit_spec()]), g) for g in two]
    sparse = 0
    for impl, high, ga in cases:
        for gc, _ in exec_bind(ga, impl)[:4]:
            f = find_plain_matching(gc, ga, impl)
            assert f is not None
            for xc in list(candidate_refinements(PX, gc))[:6]:
                for subsets in _hb_chains(xc, 8):
                    sparse += any(sorted({f[c] for c in s}) != list(range(len({f[c] for c in s}))) for s in subsets)
                    got = _lift_outcome(xc, subsets, f, ga, high)
                    with monkeypatch.context() as m:
                        m.setattr(lift_reference, "lift_step", ref_lift_step)
                        assert got == _lift_outcome(xc, subsets, f, ga, high, lift_reference.lift_chain)
    assert sparse


# --------------------------------------------------------------------------
# Row-based bind against the pair-set bind it replaced
# --------------------------------------------------------------------------


def _close_pairs(pairs):
    pairs = set(pairs)
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not more:
            return frozenset(pairs)
        pairs |= more


def _pair_bind(p, inners):
    """Labels and order of the lexicographic bind, built as pairs and closed
    from scratch."""
    offsets, labels = [], []
    for inner in inners:
        offsets.append(len(labels))
        labels.extend(inner.labels())
    order = {(offsets[e] + a, offsets[e] + b) for e, inner in enumerate(inners) for a, b in inner.order}
    for e1, e2 in p.order:
        order |= {(offsets[e1] + a, offsets[e2] + b) for a in range(len(inners[e1])) for b in range(len(inners[e2]))}
    return labels, _close_pairs(order)


@st.composite
def _pomsets(draw, max_events, labels):
    n = draw(st.integers(0, max_events))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Pomset([draw(st.sampled_from(labels)) for _ in range(n)], edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pomsets(5, "abc"), st.fixed_dictionaries({l: _pomsets(3, "xy") for l in "abc"}))
def test_pomset_bind_matches_pair_set_bind(p, g):
    # empty inner pomsets come up too: the outer order alone must then keep
    # the other blocks related
    q = pomset_bind(p, g.__getitem__)
    assert (q.labels(), q.order) == _pair_bind(p, [g[p.lab[e]] for e in p.events])


def _pomset_bind_by_event(p, table):
    inners = [table[e] for e in p.events]
    offsets = []
    labels = []
    for inner in inners:
        offsets.append(len(labels))
        labels.extend(inner.labels())
    order = set()
    for e in p.events:
        for a, b in inners[e].order:
            order.add((offsets[e] + a, offsets[e] + b))
    for e1, e2 in p.order:
        for a in range(len(inners[e1])):
            for b in range(len(inners[e2])):
                order.add((offsets[e1] + a, offsets[e2] + b))
    return Pomset(labels, order)


def ref_exec_bind(g, impl, loc_base=100, max_results=10_000):
    """The pair-set ``exec_bind`` that dropped isomorphic concretes."""
    from persistcheck.model import canonical_hash

    events = list(g.events)
    out = []
    seen = {}

    def rec(i, base, chosen):
        if len(out) >= max_results:
            return
        if i == len(events):
            table = {}
            for e, inner in zip(events, chosen):
                thread = g.lab[e].thread
                labels = [l if l.is_crash else replace(l, thread=thread) for l in inner.labels()]
                table[e] = Pomset(labels, inner.po_reduced)
            q = _pomset_bind_by_event(Pomset(g.labels(), g.po_reduced), table)
            try:
                pe = PlainExecution(q.labels(), q.reduced)
            except ValueError:
                return
            bucket = seen.setdefault(canonical_hash(pe), [])
            if not any(iso_eq(pe, other) for other in bucket):
                bucket.append(pe)
                out.append(pe)
            return
        e = events[i]
        lab = g.lab[e]
        if impl.owns(lab):
            options = impl.executions(lab, base)
        else:
            options = [PlainExecution([lab], [])]
        for inner in options:
            rec(i + 1, base + impl.alloc_count(inner), chosen + [inner])

    rec(0, loc_base, [])
    return out


def _crash_corpus(directory, crashes):
    """The complete runs ``verify-impl --corpus`` takes from the corpus
    programs with ``crashes`` restarts (multi-phase programs at 0 only)."""
    out = []
    for p in sorted((LITMUS / directory).glob("*.lit")):
        lit = parse_litmus(p.read_text(encoding="utf-8"), name=p.name)
        coll = Collection([builtin_spec(n) for n in lit.collection])
        cfg = InterpConfig(domain=tuple(lit.domain), unroll=lit.unroll or 4, max_runs=100_000)
        if len(lit.phases) == 1:
            runs = interpret_toplevel(lit.phases[0], coll, crashes, cfg)
        else:
            runs = interpret_phases(list(lit.phases), coll, cfg) if crashes == 0 else []
        out.extend(g for env, g in runs if env is not None)
    return out


@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo", "reg_flit", "reg_mirror"])
def test_exec_bind_matches_iso_dedup_reference(case, crashes):
    # no two members of an implementation are isomorphic, so no concrete was
    # ever dropped as a duplicate: both give the same list, in order.  Each
    # concrete's matching is the first witness of the matching search.
    make, low, _, (directory, _, _), _ = DIFF_CASES[case]
    corpus = _crash_corpus(directory, crashes)
    assert corpus
    impl = SemanticImpl(make(), low, FLIT_CFG)
    concretes = 0
    for ga in corpus:
        got = exec_bind(ga, impl, max_results=64)
        want = ref_exec_bind(ga, impl, max_results=64)
        assert [(g.labels(), g.po_order.rows) for g, _ in got] == [(g.labels(), g.po_order.rows) for g in want]
        for gc, f in got:
            assert f == find_plain_matching(gc, ga, impl)
            assert is_plain_matching(f, gc, ga, impl)
        concretes += len(got)
    assert concretes


# --------------------------------------------------------------------------
# Shared consistency verdicts
# --------------------------------------------------------------------------


def _uncached(monkeypatch):
    """Every consistency check and lifting step of the verifier computed
    afresh."""
    monkeypatch.setattr(framework, "check_consistent", framework._check_consistent)
    monkeypatch.setattr(sub, "check_consistent", framework._check_consistent)
    monkeypatch.setattr(sub, "shared_call", lambda key, compute: compute())


@pytest.mark.parametrize("make", [flit_impl, flit_impl_mutated_no_fo])
def test_verify_records_equal_with_and_without_shared_verdicts(make, monkeypatch):
    corpus = _cached_corpus(("flit", 8, 40))
    high = Collection([flit_spec()])

    def verify():
        rep = verify_impl_bounded(SemanticImpl(make(), PX, FLIT_CFG), high, PX, corpus)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    shared = verify()
    _uncached(monkeypatch)
    assert shared == verify()
    assert shared[0]


def test_each_semantic_impl_starts_with_no_shared_verdicts():
    calls = []

    def counting(x):
        calls.append(len(x))
        return toy_spec().local_consistent(x)

    coll = Collection([replace(toy_spec(), local_consistent=counting)])
    corpus = [sequence_execution([tlabel("tset", (1,), None), tlabel("tget", (), 1)])] * 2
    iid = identity_impl(coll, ["tset", "tget"])
    first = len(calls)
    report = verify_impl_bounded(iid, coll, coll, corpus)
    per_call = len(calls) - first
    # the second graph repeats the first, so its checks are all shared
    assert report.ok and len(report.records) == 2 and per_call
    # so are they with a later call on the same implementation
    assert verify_impl_bounded(iid, coll, coll, corpus[:1]).records == report.records[:1]
    assert len(calls) - first == per_call
    # a fresh implementation over the same collections computes them all again
    again = verify_impl_bounded(identity_impl(coll, ["tset", "tget"]), coll, coll, corpus[:1])
    assert again.records == report.records[:1]
    assert len(calls) - first == 2 * per_call


def _flit_crash_corpus(crashes):
    """40 graphs spread over the complete runs ``verify-impl --corpus`` takes
    from litmus/flit with ``crashes`` restarts."""
    runs = _crash_corpus("flit", crashes)
    return runs[:: max(1, len(runs) // 40)][:40]


#: Px86 at its default budget, and at one so small that some of the
#: searches of flit's refinements run out on the corpus with a crash
_SPLIT_LOWS = (PX, Collection([px86_spec(budget=5)]))
#: the benchmark's budget, and one at which hereditary walks and lifting
#: steps run out
_SPLIT_BUDGETS = (20_000, 7)
_BOUND = re.compile(r"corpus=(\d+) graphs \((\d+) bind to no concrete, (\d+) over max_concrete\), (.*)")


def _per_graph(impl_for, high, low, corpus, budget, order, check_wf):
    """One ``verify_impl_bounded`` call per graph, in ``order``, each on the
    implementation ``impl_for()`` gives; per graph, by index, its records,
    budget hits and bound note."""
    out = {}
    for gi in order:
        rep = verify_impl_bounded(impl_for(), high, low, [corpus[gi]], budget=budget, check_wf=check_wf)
        out[gi] = ([vars(r) for r in rep.records], rep.budget_hits, rep.bound_note)
    return [out[gi] for gi in range(len(corpus))]


def _one_call(impl, high, low, corpus, budget, check_wf):
    """One call over the whole corpus: its records per graph, as
    ``_per_graph`` numbers them, its budget hits and its bound note."""
    rep = verify_impl_bounded(impl, high, low, corpus, budget=budget, check_wf=check_wf)
    records = [[] for _ in corpus]
    for r in rep.records:
        records[r.abstract_index].append(dict(vars(r), abstract_index=0))
    return records, rep.budget_hits, rep.bound_note


@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_verify_records_equal_however_the_corpus_is_split(case, crashes):
    # the shared verdicts live as long as the implementation: per-graph
    # calls on one implementation, in either order and after calls at
    # another budget, give what fresh implementations give, and so does one
    # call over the corpus; so do the calls of every implementation inside
    # one outer scope, whose memo they all share
    make, _, high, _, check_wf = DIFF_CASES[case]
    corpus = _flit_crash_corpus(crashes)
    up, down = range(len(corpus)), range(len(corpus) - 1, -1, -1)
    fresh = {}
    for low in _SPLIT_LOWS:
        for budget in _SPLIT_BUDGETS:
            want = fresh[low, budget] = _per_graph(
                lambda: SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, budget, up, check_wf
            )
            records, hits, note = _one_call(SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, budget, check_wf)
            assert records == [rs for rs, _, _ in want] and hits == sum(h for _, h, _ in want)
            # its bound note sums the graphs' counts
            sums = [sum(int(_BOUND.fullmatch(n)[i]) for _, _, n in want) for i in (1, 2, 3)]
            assert _BOUND.fullmatch(note).groups() == (*map(str, sums), _BOUND.fullmatch(want[0][2])[4])
        impl = SemanticImpl(make(), low, FLIT_CFG)
        # the larger budget first, so that its kept verdicts meet the smaller
        for budget, order in zip(_SPLIT_BUDGETS * 2, (up, down, up, down)):
            assert _per_graph(lambda: impl, high, low, corpus, budget, order, check_wf) == fresh[low, budget]
    with shared_verdicts():
        for low in _SPLIT_LOWS:
            impl = SemanticImpl(make(), low, FLIT_CFG)
            for budget, order in zip(_SPLIT_BUDGETS, (down, up)):
                assert _per_graph(lambda: impl, high, low, corpus, budget, order, check_wf) == fresh[low, budget]
    # the small budget makes searches run out, and the small Px86 budget
    # changes some of flit's records: a key without the collection fails
    assert all(sum(h for _, h, _ in fresh[low, _SPLIT_BUDGETS[1]]) for low in _SPLIT_LOWS)
    if (case, crashes) == ("flit", 1):
        assert fresh[_SPLIT_LOWS[0], _SPLIT_BUDGETS[0]] != fresh[_SPLIT_LOWS[1], _SPLIT_BUDGETS[0]]


# --------------------------------------------------------------------------
# Lifting steps read through masks and shared by their projection
# --------------------------------------------------------------------------


@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_lift_chain_matches_restricting_reference(case, crashes):
    # every hereditarily consistent refinement of every concrete, lifted
    # along its witness chain: the masked chain gives the links and failure
    # reasons of the chain that restricts xc to each link, whether its
    # steps are shared (one scope for the whole corpus) or not
    make, low, high, (directory, _, _), _ = DIFF_CASES[case]
    impl = SemanticImpl(make(), low, FLIT_CFG)
    lifts = []
    for ga in _crash_corpus(directory, crashes):
        for gc, f in exec_bind(ga, impl, max_results=64):
            for xc in candidate_refinements(low, gc):
                v = check_hereditarily_consistent(low, xc, budget=20_000)
                if v:
                    lifts.append((xc, v.witness.subsets, f, ga))
    want = [_lift_outcome(*lift, high, lift_reference.lift_chain) for lift in lifts]
    assert [_lift_outcome(*lift, high) for lift in lifts] == want
    with shared_verdicts():
        assert [_lift_outcome(*lift, high) for lift in lifts] == want
    assert any(isinstance(chain, list) for chain, _ in want)
    if (case, crashes) == ("flit_no_fo", 0):
        # the mutant's refuted chains, with their reasons
        assert any(chain is None and why for chain, why in want)


def _counting_core(monkeypatch):
    """The lifting core, wrapped to log the budget of each computation."""
    budgets = []
    core = sub._lift_core

    def counting(*args):
        budgets.append(args[7])
        return core(*args)

    monkeypatch.setattr(sub, "_lift_core", counting)
    return budgets


def _refuted_step():
    # nothing was written, so no abstract refinement reads 9
    ga = sequence_execution([tlabel("tget", (), 9)])
    return Execution(ga), {0: 0}, ga


def test_shared_refuted_step_restores_its_failure(monkeypatch):
    budgets = _counting_core(monkeypatch)
    xc, f, ga = _refuted_step()
    alone = []
    assert lift_step(xc, f, ga, None, frozenset(), TOY, failure=alone) is None
    assert alone and budgets == [4_000]
    with shared_verdicts():
        first, again = [], ["stale"]
        assert lift_step(xc, f, ga, None, frozenset(), TOY, failure=first) is None
        assert lift_step(xc, f, ga, None, frozenset(), TOY, failure=again) is None
        assert first == again == alone
    # computed once in the scope, from the projection alone
    assert budgets == [4_000, 4_000]


def test_out_of_budget_step_is_computed_again(monkeypatch):
    budgets = _counting_core(monkeypatch)
    xc, f, ga = _refuted_step()
    with shared_verdicts():
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                lift_step(xc, f, ga, None, frozenset(), TOY, budget=0)
        # a larger budget is a key of its own, decided and then kept
        for _ in range(2):
            assert lift_step(xc, f, ga, None, frozenset(), TOY, budget=1) is None
    assert budgets == [0, 0, 1]


def test_lift_chain_rejects_a_link_that_is_not_downward_closed():
    iid = identity_impl(TOY, ["tset", "tget"])
    ga = sequence_execution([tlabel("tset", (1,), None), tlabel("tget", (), 1)])
    gc, f = exec_bind(ga, iid)[0]
    with pytest.raises(ValueError):
        lift_chain(Execution(gc), [frozenset(), frozenset({1}), frozenset({0, 1})], f, ga, TOY)


def test_verify_computes_each_lifting_step_once(monkeypatch):
    # the concretes of one graph share their chain prefixes, so most
    # lifting requests repeat an earlier one exactly
    make, low, high, corpus_spec, check_wf = DIFF_CASES["flit"]
    corpus = _cached_corpus(corpus_spec)

    def verify():
        rep = verify_impl_bounded(SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    keys, requests = [], []
    core, projected = sub._lift_core, sub._lift_projected

    def counting_core(image, proj_hb, proj_external, ga, prev_abs, prev_ids, coll, budget):
        prev = None
        if prev_abs is not None:
            prev = (tuple(prev_abs.plain.labels()), prev_abs.plain.po_order.rows, prev_abs.hb_order.rows, prev_abs.sw)
        keys.append(
            (id(coll), tuple(ga.labels()), ga.po_order.rows, budget, image, proj_hb, proj_external, prev, prev_ids)
        )
        return core(image, proj_hb, proj_external, ga, prev_abs, prev_ids, coll, budget)

    def counting_projected(*args):
        requests.append(1)
        return projected(*args)

    with monkeypatch.context() as m:
        m.setattr(sub, "_lift_core", counting_core)
        m.setattr(sub, "_lift_projected", counting_projected)
        got = verify()
    assert got[1] == 0
    assert len(keys) == len(set(keys)) and 2 * len(keys) < len(requests)
    with monkeypatch.context() as m:
        m.setattr(sub, "shared_call", lambda key, compute: compute())
        assert got == verify()
    assert got[0]


class _PerReturnImpl(SemanticImpl):
    """``SemanticImpl`` interpreting a call once per return value, as it did
    before its interpretations were kept per (method, args, location base),
    with a cache of its own per label and base."""

    def __init__(self, *args):
        super().__init__(*args)
        self._cache = {}

    def executions(self, label, loc_start):
        key = (label.method, label.args, label.ret, loc_start)
        if key not in self._cache:
            it = self._interpret(label.method, label.args, loc_start)
            if label.ret is BOT:
                graphs = [g for g in it.partial_executions() if not g.is_empty()]
            else:
                graphs = [g for ret, gs in it.return_values().items() if ret == label.ret for g in gs if not g.is_empty()]
            self._cache[key] = graphs
        return self._cache[key]


@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_verify_interprets_each_call_once(case, monkeypatch):
    # a body does not read its return value, so one interpretation per
    # (method, args, location base) serves the labels of every return value
    make, low, high, corpus_spec, check_wf = DIFF_CASES[case]
    corpus = _cached_corpus(corpus_spec)

    def verify(impl):
        rep = verify_impl_bounded(impl, high, low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    inputs = []
    interpret = SemanticImpl._interpret

    def counting(self, method, args, loc_start):
        inputs.append((method, args, loc_start))
        return interpret(self, method, args, loc_start)

    with monkeypatch.context() as m:
        m.setattr(SemanticImpl, "_interpret", counting)
        got = verify(SemanticImpl(make(), low, FLIT_CFG))
    assert inputs and len(inputs) == len(set(inputs))
    assert got == verify(_PerReturnImpl(make(), low, FLIT_CFG))


# --------------------------------------------------------------------------
# Unsourced concretes build no refinement
# --------------------------------------------------------------------------


def _crash_before_era0_write():
    """An abstract graph whose crash has a smaller id than an era-0 event:
    thread 1 reads 1 and thread 0 writes it, both before the crash, and the
    write comes last in label order."""
    labels = [
        Label("fnew", (), 101, frozenset({"D"}), None),
        Label("fread_p", (101,), 1, frozenset(), 1),
        CRASH,
        Label("fwrite_p", (101, 1), None, frozenset({"D"}), 0),
    ]
    return PlainExecution(labels, [(0, 1), (0, 3), (1, 2), (3, 2)])


def _crash_shape_flit_graphs():
    """Abstract Flit graphs of two crash shapes the corpora do not reach: a
    read of 1 beside a crash that heads only the writer's thread, and a
    read of 1 after a crash at which its only write is pending."""
    new = Label("fnew", (), 101, frozenset({"D"}), 0)
    write = Label("fwrite_p", (101, 1), None, frozenset({"D"}), 1)
    read = Label("fread_p", (101,), 1, frozenset(), 0)
    return [
        PlainExecution([new, read, CRASH, write], [(0, 1), (0, 2), (2, 3)]),
        PlainExecution([new, replace(write, ret=BOT), CRASH, read], [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ]


@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_value_flow_sourcing_agrees_with_px86(case, crashes):
    # a concrete is unsourced by the declared value flow, with each event in
    # its own era, exactly when the Px86 search has no reads-from candidates
    make, low, _, (directory, _, _), _ = DIFF_CASES[case]
    impl, flow = SemanticImpl(make(), low, FLIT_CFG), ValueFlow(low)
    odd = _crash_before_era0_write()
    assert not odd.eb.preds()[3]
    unsourced = 0
    for ga in _crash_corpus(directory, crashes) + [odd] + _crash_shape_flit_graphs():
        for gc, _ in exec_bind(ga, impl, max_results=65):
            x = Execution(gc)
            sourced = sourced_in(flow, gc)
            assert sourced == (_read_candidates(x, derive_sets(x).eb) is not None)
            if not sourced:
                unsourced += 1
                assert search_px86_witness(x) is None
                # the concrete with no sw and no tags is one of its refinements
                assert any(xc.plain is gc and not xc.sw for xc in candidate_refinements(low, gc))
    assert unsourced
    # in label order the write would fall in era 1 and leave the read
    # unsourced
    assert any(sourced_in(flow, gc) for gc, _ in exec_bind(odd, impl))


def _flit_fact_graphs():
    """Abstract Flit graphs whose concretes the corpora do not reach: a
    constructor and a use on two unordered threads, a use po-before its
    constructor, and a read of 1 whose only write of 1 comes after a
    crash."""
    new = Label("fnew", (), 101, frozenset({"D"}), 0)
    write = Label("fwrite_p", (101, 1), None, frozenset({"D"}), 0)
    read = Label("fread_p", (101,), 1, frozenset(), 0)
    return [
        PlainExecution([new, replace(write, thread=1)], []),
        PlainExecution([write, new], [(0, 1)]),
        PlainExecution([new, read, CRASH, replace(write, thread=1)], [(0, 1), (1, 2), (2, 3)]),
    ]


def _fact_case(name):
    """The implementation, low collection and corpus of a bind-facts case:
    a Flit crash corpus (``flit-0`` to ``flit_no_fo-1``) with the graphs
    above, a Px86 allocation of a cell that ``fnew`` allocates too and an
    update that only it could source; an acceptance-6 register corpus over
    Flit or over Mirror; or (``store_first``) an ``fnew`` that stores to
    its first cell before it allocates it."""
    if name == "store_first":
        syn = flit_impl()
        methods = dict(syn.methods, fnew=((), parse_statements("store(101, 0); r := alloc(); c := alloc(); return r")))
        return lambda: SyntacticImpl(name, methods), PX, [sequence_execution([Label("fnew", (), 101, frozenset(), 0)])]
    case, _, crashes = name.partition("-")
    make, low, _, corpus_spec, _ = DIFF_CASES[case]
    if not crashes:
        return make, low, _cached_corpus(corpus_spec)
    new = Label("fnew", (), 101, frozenset({"D"}), 0)
    extra = _flit_fact_graphs() + [
        PlainExecution([new, alloc(101)], [(0, 1)]),
        PlainExecution([new, upd(101, 1, 1)], [(0, 1)]),
        _crash_before_era0_write(),
    ] + _crash_shape_flit_graphs()
    return make, low, _crash_corpus("flit", int(crashes)) + extra


@pytest.mark.parametrize(
    "name",
    ["flit-0", "flit-1", "flit_no_fo-0", "flit_no_fo-1", "reg_flit", "reg_flit_mut", "reg_mirror", "reg_mirror_mut", "store_first"],
)
def test_bind_facts_match_sourcing_and_encapsulation(name):
    # each concrete's sourcing and encapsulation, as the bind decides them
    # block by block, equal the checks that read the whole concrete
    make, low, corpus = _fact_case(name)
    impl, flow = SemanticImpl(make(), low, FLIT_CFG), ValueFlow(low)
    seen = set()
    for ga in corpus:
        facts = []
        concretes = exec_bind(ga, impl, max_results=65, facts=facts)
        assert len(facts) == len(concretes)
        for (gc, _), got in zip(concretes, facts):
            want = (sourced_in(flow, gc), framework.check_encapsulated(low, Execution(gc)))
            assert got == want, (ga, gc)
            seen.add(want)
    assert seen
    # the Flit crash corpora reach every combination but an unsourced
    # concrete that is not encapsulated
    if "-" in name:
        assert seen >= {(True, True), (False, True), (True, False)}
    if name == "store_first":
        assert seen == {(True, False)}


def test_bind_sources_a_read_from_a_store_after_a_crash_that_heads_another_thread():
    # no crash lies between the store and the load, so the store sources
    # the load, as the Px86 search has it
    ga = parallel_execution([load(1, 1, thread=0)], [CRASH, store(1, 1, thread=1)])
    facts = []
    ((gc, _),) = exec_bind(ga, SemanticImpl(flit_impl(), PX, FLIT_CFG), facts=facts)
    assert facts[0][0] is True
    assert search_px86_witness(Execution(gc)) is not None


def test_bind_leaves_encapsulation_open_for_an_event_no_library_owns():
    # a toy call passes through to the concrete, where no Px86 library owns
    # it: the bind names no encapsulation, and the transport still raises
    # where its check reads the owner table
    high = Collection([flit_spec(), toy_spec()])
    ga = sequence_execution(
        [Label("fnew", (), 101, frozenset({"D"}), 0), Label("fread_p", (101,), 1, frozenset(), 0), tlabel("tset", (1,))]
    )
    impl = SemanticImpl(flit_impl(), PX, FLIT_CFG)
    facts = []
    assert exec_bind(ga, impl, facts=facts)
    assert facts and all(f == (False, None) for f in facts)
    with pytest.raises(framework.UnknownMethod):
        verify_impl_bounded(impl, high, PX, [ga])
    # with no transport nothing reads the owner table
    assert verify_impl_bounded(impl, high, PX, [ga], check_wf=False).records


@pytest.mark.parametrize("check_wf", [True, False])
def test_verify_records_match_the_loop_on_unencapsulated_concretes(check_wf):
    # the Flit graphs above are not well-formed themselves, so their
    # transport is never asked; the toy implementation, the last case,
    # stores to cell 1, which nothing allocates, so no concrete of it is
    # encapsulated and the transport fails on every one
    toy = [sequence_execution([tlabel("tset", (1,)), tlabel("tget", (), 1)])]
    cases = [(flit_impl(), Collection([flit_spec()]), _flit_fact_graphs()), (toy_impl(), TOY, toy)]
    for syn, high, corpus in cases:

        def verify(run):
            rep = run(SemanticImpl(syn, PX, FLIT_CFG), high, PX, corpus, check_wf=check_wf)
            return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

        got = verify(verify_impl_bounded)
        assert got == verify(verify_reference.verify_impl_bounded)
    assert {r["wellformed_downward"] for r in got[0]} == ({False} if check_wf else {None})


def test_verify_needs_the_implementation_low_collection():
    impl = SemanticImpl(flit_impl(), PX, FLIT_CFG)
    with pytest.raises(ValueError, match="low collection"):
        verify_impl_bounded(impl, Collection([flit_spec()]), Collection([px86_spec()]), [])


@pytest.mark.parametrize("check_wf", [True, False])
@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_verify_records_match_the_loop_that_builds_every_refinement(case, crashes, check_wf):
    make, low, high, (directory, _, _), _ = DIFF_CASES[case]
    corpus = _crash_corpus(directory, crashes)

    def verify(run):
        rep = run(SemanticImpl(make(), low, FLIT_CFG), high, low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    got = verify(verify_impl_bounded)
    assert got == verify(verify_reference.verify_impl_bounded)
    assert any(r["lifted"] for r in got[0])
    if (case, crashes) == ("flit_no_fo", 0):
        assert any(r["lifted"] is False for r in got[0])


def test_only_hooks_that_offer_the_empty_choice_check_an_unsourced_concrete_on_itself():
    assert lang.unsourced_refines_itself(PX)
    # the lock hook orders the two critical sections either way and offers
    # no sw-free choice; a tag hook may tag
    sections = [Label(m, (1,), None, frozenset(), t) for t in (0, 1) for m in ("lacq", "lrel")]
    assert frozenset() not in lock_spec().sw_candidates(PlainExecution(sections, [(0, 1), (2, 3)]))
    assert not lang.unsourced_refines_itself(Collection([px86_spec(), lock_spec()]))
    assert not lang.unsourced_refines_itself(Collection([px86_spec(), ltrans_spec()]))


@pytest.mark.parametrize("check_wf", [True, False])
def test_verify_records_match_where_an_unsourced_concrete_is_not_checked_on_itself(check_wf):
    low = Collection([px86_spec(), lock_spec()])
    corpus = _crash_corpus("flit", 0)

    def verify(run):
        rep = run(SemanticImpl(flit_impl(), low, FLIT_CFG), Collection([flit_spec()]), low, corpus, check_wf=check_wf)
        return [vars(r) for r in rep.records], rep.budget_hits, rep.bound_note

    got = verify(verify_impl_bounded)
    assert got == verify(verify_reference.verify_impl_bounded)
    assert any(r["lifted"] for r in got[0])


def test_an_unsourced_wellformed_concrete_builds_no_refinement(monkeypatch):
    # nothing writes the 1 that the read returns, so no concrete is sourced;
    # each is immediately well-formed as it is, so none needs a refinement
    ga = PlainExecution(
        [Label("fnew", (), 101, frozenset({"D"}), None), Label("fread_p", (101,), 1, frozenset(), 0)], [(0, 1)]
    )
    impl = SemanticImpl(flit_impl(), PX, FLIT_CFG)
    concretes = [gc for gc, _ in exec_bind(ga, impl)]
    assert concretes and not any(sourced_in(ValueFlow(PX), gc) for gc in concretes)
    assert all(check_immediately_wellformed(PX, Execution(gc)) for gc in concretes)
    calls = []
    candidates = lang.candidate_refinements

    def spy(coll, g):
        calls.append(g)
        return candidates(coll, g)

    monkeypatch.setattr(lang, "candidate_refinements", spy)
    report = verify_impl_bounded(impl, Collection([flit_spec()]), PX, [ga])
    assert not calls
    assert len(report.records) == len(concretes)
    assert all(
        r.lifted is None and r.wellformed_downward and r.detail == "no hereditarily consistent concrete refinement"
        for r in report.records
    )
