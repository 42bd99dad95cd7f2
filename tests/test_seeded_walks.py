"""Seeded prefix walks: each library's check replays the walk's last OK
witness of that library, restricted to the new projection, before it
searches.

``sc.linearize`` with a seed must give the verdict of the search wherever
the search decides: a seed that replays is a sequence the search accepts,
and a seed that does not replay falls back to the search, stats and witness
included.  The walks over the owner table must give the statuses of the
unseeded walks (``seed_reference``) wherever those decide within budget, and
on executions where no check runs out of budget, the same reasons and
chains.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistcheck.framework as framework
import persistcheck.libs as libs
import persistcheck.sc as sc
import seed_reference as ref
import test_owner_table as owner_table
from persistcheck.framework import BUDGET, Collection, Seeded
from persistcheck.libs import durqueue_spec, mmcounter_spec, scmem_spec, weakreg_spec
from persistcheck.model import BOT, CRASH, Execution, Label, PlainExecution
from persistcheck.sc import PFENCE, S_REGISTER, linearize

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


# --------------------------------------------------------------------------
# The replay
# --------------------------------------------------------------------------

#: Candidates a seed draws from: every candidate a problem offers, and more.
POOL = [Label("rwrite", (0, v)) for v in (1, 2)] + [Label("rread", (0,), v) for v in (0, 1, 2, BOT)]


@st.composite
def _problems(draw):
    """A register linearization problem on up to five events, each with one
    or two candidates of ``POOL``, a closed predecessor relation over lower
    events, a ``must`` mask, and a seed of pairs drawn at random: events in
    any order, candidates of ``POOL``."""
    n = draw(st.integers(0, 5))
    preds = []
    for i in range(n):
        row = draw(st.integers(0, (1 << i) - 1))
        for j in range(i):
            if row >> j & 1:
                row |= preds[j]
        preds.append(row)
    options = [draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2, unique=True)) for _ in range(n)]
    must = draw(st.integers(0, (1 << n) - 1))
    pairs = st.tuples(st.integers(0, n - 1), st.sampled_from(POOL)) if n else st.nothing()
    seed = draw(st.lists(pairs, max_size=n + 1)) if n else []
    return preds, options, must, seed


def _valid(lin, preds, options, must, spec):
    """``lin`` is a sequence the search accepts: each event placeable when
    placed, each candidate offered and stepped, ``must`` covered at the end
    and not before."""
    done, st_ = 0, spec.init()
    for i, c in lin:
        if done & must == must or done >> i & 1 or preds[i] & must & ~done or c not in options[i]:
            return False
        st_ = spec.step(st_, c)
        if st_ is None:
            return False
        done |= 1 << i | preds[i]
    return done & must == must


def _outcome(v):
    return (v.status, v.reason, v.witness, v.stats)


@SETTINGS
@example(([0, 1], [[Label("rwrite", (0, 1))], [Label("rread", (0,), 0)]], 3, [(1, Label("rread", (0,), 0)), (0, Label("rwrite", (0, 1)))]))
@example(([0], [[Label("rread", (0,), 1)]], 1, []))
@example(([0], [[Label("rread", (0,), 0)]], 1, [(0, Label("rread", (0,), 1))]))
@given(_problems())
def test_a_seed_gives_the_verdict_of_the_search(problem):
    preds, options, must, seed = problem
    want = linearize(preds, options, must, S_REGISTER, 10**6, "search")
    got = linearize(preds, options, must, S_REGISTER, 10**6, "search", seed)
    assert got.status == want.status
    if dict(got.stats)["stage"] == "replay":
        assert _valid(got.witness, preds, options, must, S_REGISTER)
        assert dict(got.stats)["nodes"] == len(got.witness)
        assert list(seed[: len(got.witness)]) == got.witness
    else:
        # a seed that does not replay falls back to the search
        assert _outcome(got) == _outcome(want)
    # the search's own first witness always replays
    if want:
        assert _outcome(linearize(preds, options, must, S_REGISTER, 10**6, "search", want.witness))[:3] == (
            "consistent", "", want.witness
        )


def test_a_replay_may_decide_where_the_search_runs_out_of_budget():
    # the search spends one node per candidate tried and needs four; the
    # budget does not bound a replay
    labels = [Label("rwrite", (0, 1))] + [Label("rread", (0,), 1)] * 3
    options = [[l] for l in labels]
    preds, must = [0, 1, 1, 1], 15
    lin = linearize(preds, options, must, S_REGISTER, 10**6, "search")
    assert lin
    assert linearize(preds, options, must, S_REGISTER, 2, "search").is_budget
    v = linearize(preds, options, must, S_REGISTER, 2, "search", lin.witness)
    assert v and dict(v.stats) == {"stage": "replay", "nodes": 4, "memo_hits": 0}


# --------------------------------------------------------------------------
# The walks
# --------------------------------------------------------------------------

#: (method, arity) pairs of the weak register and the durable queue.
METHODS = [("rnew", 0), ("rwrite", 2), ("rread", 1), (PFENCE, 0), ("qnew", 0), ("qpush", 2), ("qappend", 2), ("qpop", 1)]

_COLLS = {}


def _collection(budget):
    if budget not in _COLLS:
        _COLLS[budget] = Collection([weakreg_spec(budget=budget), durqueue_spec(budget=budget)]).freeze()
    return _COLLS[budget]


@st.composite
def _executions(draw):
    """Up to three eras of weak-register and durable-queue calls by two
    threads, separated by crashes: each era's threads run in program order,
    a crash follows every call of its era, and a thread's last call before
    a crash may be pending.  Locations and values are 0 or 1."""
    labels, po, before = [], [], []
    for era in range(draw(st.integers(1, 3))):
        if era:
            crash = len(labels)
            labels.append(CRASH)
            po += [(e, crash) for e in before]
            before = [crash]
        ends = []
        for t in range(draw(st.integers(1, 2))):
            prev = list(before)
            calls = draw(st.lists(st.tuples(st.sampled_from(METHODS), st.integers(0, 1), st.integers(0, 1)), max_size=3))
            for k, ((method, arity), a, v) in enumerate(calls):
                ret = v if method in ("rnew", "rread", "qnew", "qpop") else None
                if k == len(calls) - 1 and draw(st.integers(0, 3)) == 0:
                    ret = BOT
                e = len(labels)
                labels.append(Label(method, (a, v)[:arity], ret, frozenset(), 10 * era + t))
                po += [(p, e) for p in prev]
                prev = [e] if ret is not BOT else []
                ends.append(e)
            # a pending call precedes nothing in its thread
        before = ends
    return Execution(PlainExecution(labels, po))


def _statuses(module, coll, x, budget):
    return [module.check_hereditarily_consistent(coll, x, budget=budget), module.check_wellformed(coll, x, budget=budget)]


@SETTINGS
@given(_executions(), st.sampled_from([3, 40, 500_000]), st.sampled_from([4, 2_000]))
def test_seeded_walks_match_the_unseeded_walks(x, check_budget, walk_budget):
    coll = _collection(check_budget)
    want = _statuses(ref, coll, x, walk_budget)
    got = _statuses(framework, coll, x, walk_budget)
    for g, w in zip(got, want):
        if w.status != BUDGET:
            assert g.status == w.status


@SETTINGS
@given(st.data(), _executions(), st.sampled_from([3, 40, 500_000]))
def test_owner_tables_match_on_prefixes_in_any_order(data, x, check_budget):
    # one table asked about any prefixes in any order seeds each check with
    # a witness of an unrelated prefix, which may miss events or choices
    coll = _collection(check_budget)
    preds = x.hb_order.preds()
    got, want = framework.Owners(coll, x), ref.Owners(coll, x)
    for mask in data.draw(st.lists(st.integers(0, (1 << len(x)) - 1), max_size=8)):
        for e in range(len(x)):
            if mask >> e & 1:
                mask |= preds[e]
        w = want.consistent(want.prefix(mask))
        if w.status != BUDGET:
            assert got.consistent(got.prefix(mask)).status == w.status


@contextmanager
def _seeds(calls):
    """Each ``sc.linearize`` call of the library checks appends (its seed,
    whether its verdict is a replay) to ``calls`` while open."""
    orig = sc.linearize

    def logged(*args, **kwargs):
        v = orig(*args, **kwargs)
        seed = args[6] if len(args) > 6 else kwargs.get("seed")
        calls.append((seed, bool(v.stats) and dict(v.stats)["stage"] == "replay"))
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "linearize", logged)
        mp.setattr(libs, "linearize", logged)
        yield


def test_seeded_walks_match_on_undo_log_runs():
    # no check runs out of budget here, so the walks agree exactly, and the
    # walks replay far more seeds than they search
    coll = _collection(500_000)
    xs = owner_table._undo_refinements("2x1", coll, 40)
    statuses, calls = set(), []
    with _seeds(calls):
        for x in xs:
            for got, want in zip(_statuses(framework, coll, x, 6_000), _statuses(ref, coll, x, 6_000)):
                statuses.add(got.status)
                assert (got.status, got.reason, owner_table._witness(got.witness)) == (
                    want.status,
                    want.reason,
                    owner_table._witness(want.witness),
                )
    assert {"consistent", "inconsistent"} <= statuses
    replayed = [r for seed, r in calls if seed is not None]
    assert replayed.count(True) > 3 * replayed.count(False) > 0


@pytest.mark.parametrize("make", [weakreg_spec, durqueue_spec, mmcounter_spec, scmem_spec])
def test_the_linearization_checks_are_seeded(make):
    assert isinstance(make().local_consistent, Seeded)


def test_a_check_outside_a_walk_is_unseeded():
    x = Execution(PlainExecution([Label("rnew", (), 0, thread=0), Label("rwrite", (0, 1), None, thread=0)], [(0, 1)]))
    calls = []
    with _seeds(calls):
        assert framework.check_consistent(_collection(500_000), x)
        assert weakreg_spec().local_consistent(x)
    assert calls and all(seed is None for seed, _ in calls)
