"""One owner table per walk.

``check_hereditarily_consistent`` and ``check_wellformed`` make one owner
pass per call and ask the table about each prefix's mask: every library's
projection is cut straight from the walked execution, and each library's
local verdict is kept by its projected mask for the length of the walk.
Every walk node still passes through ``framework.check_consistent``.

The differential tests run the checks against the code the table replaced
(``hereditary_reference``), inside and outside a ``shared_verdicts`` scope;
status, reason, witness and stats must agree, and inside a scope the table
must compute no verdict that the exact-key sharing computed only once.  The
one intended difference: well-formedness now makes the owner pass that
consistency makes, so an event no library owns raises ``UnknownMethod``.
The count tests pin what the tracer of ``perfbench`` sees on undo-log crash
runs.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hereditary_reference as ref
import persistcheck.framework as framework
import persistcheck.lang as lang
import persistcheck.substitution as sub
from persistcheck.framework import Collection, HereditaryChain, UnknownMethod, shared_verdicts
from persistcheck.lang import (
    InterpConfig,
    candidate_refinements,
    interpret_phases,
    link_phases,
    parse_litmus,
)
from persistcheck.libs import (
    B_TAG,
    E_TAG,
    PTR_TAG,
    T_TAG,
    counter_spec,
    durqueue_spec,
    flit_impl,
    flit_spec,
    lock_spec,
    lstrans_spec,
    ltrans_impl,
    ltrans_spec,
    reg_lin_spec,
    sc_prune_factory,
    weakreg_spec,
)
from persistcheck.model import BOT, CRASH, Execution, Label, PlainExecution, immediate_prefix_masks
from persistcheck.px86 import D_TAG, P_TAG, _read_candidates, derive_sets, px86_spec
from persistcheck.sc import PFENCE
from persistcheck.substitution import SemanticImpl
from test_substitution import FLIT_CFG, _litmus_corpus

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

#: Per collection: its specs for a budget (small budgets make some library
#: checks run out), the budgets drawn, and the (method, arity) pairs and
#: tags that random labels are drawn from.  ``zz`` is owned by no library.
COLLECTIONS = {
    "undo_low": (
        lambda b: [weakreg_spec(budget=b), durqueue_spec(budget=b)],
        [2, 6, 40, 500_000],
        [("rnew", 0), ("rwrite", 2), ("rread", 1), (PFENCE, 0), ("qnew", 0), ("qappend", 2), ("qpop", 1), ("zz", 0)],
        [T_TAG],
    ),
    # a volatile register fails on any crash in its projection, even one
    # after all of its calls, beside the durable queue
    "reg_queue": (
        lambda b: [reg_lin_spec(), durqueue_spec(budget=b)],
        [3, 200_000],
        [("regnew", 0), ("regwrite", 2), ("regread", 1), ("qnew", 0), ("qpush", 2), ("qpop", 1)],
        [],
    ),
    "ltrans": (
        lambda b: [ltrans_spec(), counter_spec(), lstrans_spec(), lock_spec()],
        [None],
        [("pt_new", 0), ("pt_begin", 0), ("pt_end", 0), ("pt_read", 1), ("pt_write", 2), ("pt_recover", 0)]
        + [("cnew", 0), ("cinc", 1), ("cread", 1), ("lpt_begin", 0), ("lpt_end", 0), ("lacq", 1), ("lrel", 1)],
        [T_TAG, PTR_TAG, B_TAG, E_TAG],
    ),
    "px86": (
        lambda b: [px86_spec(budget=b)],
        [3, 12, 200_000],
        [("store", 2), ("store", 2), ("load", 1), ("load", 1), ("flush", 1), ("fo", 1), ("mfence", 0), ("sfence", 0)],
        [D_TAG, P_TAG],
    ),
}

_COLLS = {}


def _collection(name, budget):
    """One frozen collection per (name, budget), so that the exact-key
    sharing, which is keyed by the collection, can hit across calls."""
    if (name, budget) not in _COLLS:
        _COLLS[name, budget] = Collection(COLLECTIONS[name][0](budget)).freeze()
    return _COLLS[name, budget]


#: The returns a drawn label takes, ⊥ (pending) one time in five.
RETS = [BOT, None, 0, 1, 2]


def _label(code, methods, tag_sets):
    """The label that the integer ``code`` names, digit by digit: a method,
    its arguments (in 0..2), a return, a tag set and a thread (in 0..2).
    One draw per label keeps the generator cheap."""
    code, m = divmod(code, len(methods))
    code, a0 = divmod(code, 3)
    code, a1 = divmod(code, 3)
    code, r = divmod(code, len(RETS))
    thread, t = divmod(code, len(tag_sets))
    method, arity = methods[m]
    return Label(method, (a0, a1)[:arity], RETS[r], tag_sets[t], thread)


def _sparse_mask(draw, k, halvings):
    """A mask over ``k`` bits, each set with odds 1 in 2**halvings."""
    mask = (1 << k) - 1
    for _ in range(halvings):
        mask &= draw(st.integers(0, (1 << k) - 1))
    return mask


@st.composite
def _cases(draw, name):
    """A collection, a walk budget and up to seven events: calls of the
    collection's methods on small arguments (some pending, some tagged) and
    up to two crashes, with random forward po, sw and extra hb edges (an sw
    edge may join two libraries); a pending call gets po edges to crashes
    only.  For px86, the refinements its sw hook proposes come along."""
    _, budgets, methods, tags = COLLECTIONS[name]
    coll = _collection(name, draw(st.sampled_from(budgets)))
    n = draw(st.integers(0, 7))
    crashes = set(draw(st.sets(st.integers(0, n - 1), max_size=2))) if n else set()
    tag_sets = [frozenset(c) for k in range(3) for c in combinations(tags, k)]
    codes = st.integers(0, len(methods) * 9 * len(RETS) * len(tag_sets) * 3 - 1)
    labels = [CRASH if i in crashes else _label(draw(codes), methods, tag_sets) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    po_mask, sw_mask = _sparse_mask(draw, len(pairs), 1), _sparse_mask(draw, len(pairs), 2)
    po = [(a, b) for i, (a, b) in enumerate(pairs) if (labels[a].is_complete or labels[b].is_crash) and po_mask >> i & 1]
    sw = [e for i, e in enumerate(pairs) if sw_mask >> i & 1]
    plain = PlainExecution(labels, po)
    if draw(st.booleans()):
        x = Execution(plain, sw)
    else:
        extra_mask = _sparse_mask(draw, len(pairs), 2)
        extra = [e for i, e in enumerate(pairs) if extra_mask >> i & 1]
        x = Execution(plain, sw, set(plain.po) | set(sw) | set(extra))
    xs = [x]
    if name == "px86":
        xs += [r for r, _ in zip(candidate_refinements(coll, plain), range(3))]
    return coll, draw(st.sampled_from([1, 4, 2_000])), xs


def _exact(x):
    return (tuple(x.plain.labels()), x.plain.po_order.rows, tuple(sorted(x.sw)), x.hb_order.rows)


def _witness(w):
    if isinstance(w, HereditaryChain):
        return [sorted(s) for s in w.subsets]
    return _exact(w) if isinstance(w, Execution) else w


def _outcome(check, *args, **kwargs):
    try:
        v = check(*args, **kwargs)
    except UnknownMethod as e:
        return ("raised", str(e))
    return (v.status, v.reason, _witness(v.witness), v.stats)


def _checks(module, coll, x, budget):
    """Consistency, hereditary consistency and well-formedness of ``x``."""
    return [
        _outcome(module.check_consistent, coll, x),
        _outcome(module.check_hereditarily_consistent, coll, x, budget=budget),
        _outcome(module.check_wellformed, coll, x, budget=budget),
    ]


@contextmanager
def _counting(module, attr, calls):
    """``module.attr`` appends its arguments to ``calls`` while open."""
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, attr, counted)
        yield


def _expected(coll, x, budget):
    """The replaced code's checks, except that well-formedness raises where
    consistency of the whole execution does (an event no library owns)."""
    want = _checks(ref, coll, x, budget)
    if want[0][0] == "raised":
        want[2] = ("raised", want[0][1])
    return want


def _differential(name):
    @SETTINGS
    @given(_cases(name))
    def test(case):
        coll, budget, xs = case
        # the replaced code inside one scope, over ``xs`` twice so that the
        # exact-key sharing hits; its first pass is what it gives outside a
        # scope, where nothing is shared
        want_computed = []
        with shared_verdicts(), _counting(ref, "_check_consistent", want_computed):
            want = [_expected(coll, x, budget) for x in xs + xs]
        assert [_checks(framework, coll, x, budget) for x in xs] == want[: len(xs)]
        # inside a scope the table computes exactly the verdicts the sharing
        # missed
        got_computed = []
        with shared_verdicts(), _counting(framework, "_check_consistent", got_computed):
            got = [_checks(framework, coll, x, budget) for x in xs + xs]
        assert got == want
        # a well-formedness walk that now raises at once computes less
        if got[0][0][0] == "raised":
            assert len(got_computed) <= len(want_computed)
        else:
            assert len(got_computed) == len(want_computed)

    return test


test_undo_low_walks_match_the_replaced_walks = _differential("undo_low")
test_reg_queue_walks_match_the_replaced_walks = _differential("reg_queue")
test_ltrans_walks_match_the_replaced_walks = _differential("ltrans")
test_px86_walks_match_the_replaced_walks = _differential("px86")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COLLECTIONS)).flatmap(_cases))
def test_a_prefix_walks_as_its_own_execution(case):
    # the hereditary walk reads a prefix through its table's mask and names
    # the events of the prefix's own execution
    coll, budget, xs = case
    for x in xs:
        try:
            owners = framework.Owners(coll, x)
        except UnknownMethod:
            continue
        for mask in [owners.full] + immediate_prefix_masks(x.hb_order.rows, owners.full):
            p = owners.prefix(mask)
            got = _outcome(framework.check_hereditarily_consistent, coll, p, budget=budget)
            assert got == _outcome(framework.check_hereditarily_consistent, coll, p.execution, budget=budget)


def test_verify_impl_builds_one_owner_table_per_refinement(monkeypatch):
    # a refinement's hereditary check builds one table; a concrete whose
    # reads have no source builds no refinement, and an encapsulated one
    # checks no well-formedness, so it builds no table either
    px = Collection([px86_spec()])
    refinements, tables = [], []
    candidates, init = lang.candidate_refinements, framework.Owners.__init__

    def counted_candidates(coll, g):
        out = list(candidates(coll, g))
        refinements.extend(out)
        return iter(out)

    def counted_init(self, coll, x):
        init(self, coll, x)
        if coll is px:
            tables.append(x)

    monkeypatch.setattr(lang, "candidate_refinements", counted_candidates)
    monkeypatch.setattr(framework.Owners, "__init__", counted_init)
    graph = _litmus_corpus("flit", 8, 1)
    impl = SemanticImpl(flit_impl(), px, FLIT_CFG)
    concretes = [Execution(gc) for ga in graph for gc, _ in sub.exec_bind(ga, impl, max_results=65)[:64]]
    unsourced = sum(_read_candidates(x, derive_sets(x).eb) is None for x in concretes)
    assert 0 < unsourced < len(concretes)
    report = sub.verify_impl_bounded(impl, Collection([flit_spec()]), px, graph)
    assert report.records and all(r.wellformed_downward for r in report.records)
    assert len(tables) == len(refinements)


def test_verify_impl_checks_no_wellformedness_of_an_encapsulated_px86_concrete(monkeypatch):
    # Px86 checks no well-formedness beyond encapsulation, which the bind
    # decides: only the abstract side is checked, once per graph
    px = Collection([px86_spec()])
    graphs = _litmus_corpus("flit", 8, 2)
    impl = SemanticImpl(flit_impl(), px, FLIT_CFG)
    checked = []
    check = sub.check_immediately_wellformed

    def spy(coll, x):
        checked.append(coll)
        return check(coll, x)

    monkeypatch.setattr(sub, "check_immediately_wellformed", spy)
    high = Collection([flit_spec()])
    report = sub.verify_impl_bounded(impl, high, px, graphs)
    assert report.records and all(r.wellformed_downward for r in report.records)
    assert checked == [high] * len(graphs)
    facts = []
    for ga in graphs:
        sub.exec_bind(ga, impl, facts=facts)
    assert len(facts) == len(report.records) and all(encapsulated for _, encapsulated in facts)


def test_wellformedness_raises_on_an_event_no_library_owns():
    coll = Collection([weakreg_spec(), durqueue_spec()]).freeze()
    x = Execution(PlainExecution([Label("zz", (), None, frozenset(), 0)], []))
    for check in (
        framework.check_consistent,
        framework.check_immediately_wellformed,
        framework.check_wellformed,
        framework.check_hereditarily_consistent,
    ):
        with pytest.raises(UnknownMethod, match="matches no interface"):
            check(coll, x)
    # encapsulation alone still reads such an event as carrying no location
    assert framework.check_encapsulated(coll, x)


# --------------------------------------------------------------------------
# What the tracer sees on undo-log crash runs
# --------------------------------------------------------------------------

UNDO = {
    "1x1": ("a", ["pt_write(a, 1)"], "r1 := pt_read(a)"),
    "2x1": ("ab", ["pt_write(a, 1)", "pt_write(b, 2)"], "r1 := pt_read(a); r2 := pt_read(b)"),
}


def _undo_refinements(shape, low, limit):
    """The refinements of the first ``limit`` complete crash runs of an
    undo-log program: one thread runs the transactions, a crash, then a
    recovering thread reads every register."""
    regs, txns, reads = UNDO[shape]
    decls = "\n".join(f"  {r} := pt_new()" for r in regs)
    body = "; ".join(f"pt_begin(); {t}; pt_end()" for t in txns)
    text = f"collection ltrans\nglobals\n{decls}\nprogram\n  t0: {body}\ncrash\nprogram\n  t5: pt_recover(); {reads}\n"
    phases = link_phases(parse_litmus(text).phases, ltrans_impl())
    cfg = InterpConfig(unroll=10, max_runs=600_000, prune_factory=sc_prune_factory())
    runs = (g for env, g in interpret_phases(phases, low, cfg, complete_only=True) if env is not None)
    return [x for g, _ in zip(runs, range(limit)) for x in candidate_refinements(low, g)]


@contextmanager
def _traced_check_consistent(calls):
    """Wrap ``framework.check_consistent`` as ``perfbench/tracing.py`` does:
    the wrapper is bound in every package module that holds the original."""
    orig = framework.check_consistent

    def traced(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if name == "persistcheck" or name.startswith("persistcheck."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        mp.setattr(mod, key, traced)
        yield


def _local_checks(specs, calls):
    """``specs`` with each ``local_consistent`` logging (library, exact
    projection) to ``calls``."""

    def logged(spec):
        check = spec.local_consistent

        def local(x):
            calls.append((spec.name, _exact(x)))
            return check(x)

        return replace(spec, local_consistent=local)

    return [logged(s) for s in specs]


@pytest.mark.parametrize("shape", sorted(UNDO))
def test_undo_log_walks_check_each_node_once_and_each_projection_once(shape):
    local = []
    low = Collection(_local_checks([weakreg_spec(), durqueue_spec()], local)).freeze()
    xs = _undo_refinements(shape, low, 40)
    assert any(x.plain.crash_events() for x in xs)
    statuses = set()
    got_local = want_local = 0
    for x in xs:
        for walk in ("check_hereditarily_consistent", "check_wellformed"):
            nodes, owner_passes = [], []
            local.clear()
            with _traced_check_consistent(nodes), _counting(framework, "_owned_events", owner_passes):
                v = getattr(framework, walk)(low, x, budget=6_000)
            statuses.add((walk, v.status))
            got = list(local)
            # the replaced walk, for its node count and its library checks
            want_nodes = []
            local.clear()
            with _counting(ref, "check_consistent", want_nodes):
                w = getattr(ref, walk)(low, x, budget=6_000)
            assert (v.status, v.reason, _witness(v.witness)) == (w.status, w.reason, _witness(w.witness))
            assert len(nodes) == len(want_nodes)
            assert len({p.mask for p in nodes}) == len(nodes)
            assert len(owner_passes) == 1
            assert len(set(got)) == len(got)
            got_local += len(got)
            want_local += len(local)
    assert {("check_hereditarily_consistent", "consistent"), ("check_hereditarily_consistent", "inconsistent")} <= statuses
    assert got_local < want_local
