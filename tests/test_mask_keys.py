"""A walk names each prefix by its mask.

Inside a ``shared_verdicts`` scope ``check_consistent`` and the Px86 witness
search key a projection by what ``Execution.key`` reads off the walked
execution's rows, so an execution is built only when a computed verdict or
search reads it.  A kept verdict or search builds none, and the memo sees
the same keys, hits and computations as it did when every key was read off
an execution built by ``restrict_events`` (the parent code, copied here).
"""

from __future__ import annotations

import pytest

import persistcheck.framework as framework
import persistcheck.px86 as px86
import persistcheck.substitution as sub
from persistcheck.framework import BudgetExceeded, Collection, Owners, check_consistent, shared_verdicts
from persistcheck.libs import flit_impl, flit_impl_mutated_no_fo, flit_spec
from persistcheck.model import Execution, bits, parallel_execution, seq_compose, sequence_execution
from persistcheck.px86 import alloc, load, px86_spec, store
from persistcheck.substitution import SemanticImpl
from test_substitution import FLIT_CFG, _litmus_corpus

X = 1


def test_a_kept_verdict_or_search_builds_no_execution(monkeypatch):
    init = sequence_execution([alloc(X, thread=9), store(X, 0, thread=9)])
    x = Execution(seq_compose(init, parallel_execution([store(X, 1, thread=0)], [load(X, 1, thread=1)])))
    coll = Collection([px86_spec()])
    spec = coll.lookup("px86")
    mask = 0b0111  # the load dropped
    built = []
    restrict_events = Execution.restrict_events

    def counted(self, keep):
        keep = sorted(keep)
        built.append(keep)
        return restrict_events(self, keep)

    monkeypatch.setattr(Execution, "restrict_events", counted)
    with shared_verdicts():
        v = check_consistent(coll, Owners(coll, x).prefix(mask))
        assert v and built == [[0, 1, 2]]  # the search ran on the projection
        del built[:]
        # a second table's prefix with the same key, and the same search
        assert check_consistent(coll, Owners(coll, x).prefix(mask)) == v
        kept = spec.local_consistent.check(x, mask=mask, seed=None)
        assert built == []
    # outside a scope both build the projection again
    assert check_consistent(coll, Owners(coll, x).prefix(mask)) == v
    assert spec.local_consistent.check(x, mask=mask, seed=None) == kept
    assert built == [[0, 1, 2]] * 2


# --------------------------------------------------------------------------
# Memo traffic against the parent's keys
# --------------------------------------------------------------------------


def _parent_check_consistent(coll, x):
    """``check_consistent`` keyed by the prefix execution it builds."""
    p = framework._prefix(coll, x)
    if framework._VERDICTS.get() is None:
        return framework._check_consistent(coll, p)
    g = p.owners.x.restrict_events(bits(p.mask))
    key = (coll, tuple(g.plain.labels()), g.plain.po_order.rows, g.sw, g.hb_order.rows)
    return framework.shared_call(key, lambda: framework._check_consistent(coll, p))


def _parent_search(x, budget, mask=None):
    """``px86._search`` keyed by the projection it builds first."""
    if mask is not None:
        x = x.restrict_events(bits(mask))
    stats = {}
    key = (px86.search_px86_witness, tuple(x.plain.labels()), x.plain.po_order.rows, x.hb_order.rows)
    w, steps = px86.shared_call(key, lambda: (px86.search_px86_witness(x, budget, stats), stats["steps"]))
    if steps > budget:
        raise BudgetExceeded({"steps": budget + 1})
    return w, steps


@pytest.mark.parametrize("make", [flit_impl, flit_impl_mutated_no_fo])
def test_memo_traffic_matches_the_parent_keys(make, monkeypatch):
    corpus = _litmus_corpus("flit", 8, 40)
    px, high = Collection([px86_spec()]), Collection([flit_spec()])
    log, computed = [], {"consistent": 0, "search": 0}
    shared_call, check, search = framework.shared_call, framework._check_consistent, px86.search_px86_witness

    def recorded(key, compute):
        memo = framework._VERDICTS.get()
        log.append((key, memo is not None and key in memo))
        return shared_call(key, compute)

    def counted_check(coll, x):
        computed["consistent"] += 1
        return check(coll, x)

    def counted_search(x, budget=200_000, stats=None):
        computed["search"] += 1
        return search(x, budget, stats)

    # one wrapper of each for both runs: the search keys name the search
    for module in (framework, px86, sub):
        monkeypatch.setattr(module, "shared_call", recorded)
    monkeypatch.setattr(framework, "_check_consistent", counted_check)
    monkeypatch.setattr(px86, "search_px86_witness", counted_search)

    def run():
        del log[:]
        computed.update(consistent=0, search=0)
        report = sub.verify_impl_bounded(SemanticImpl(make(), px, FLIT_CFG), high, px, corpus, budget=20_000)
        return [vars(r) for r in report.records], list(log), dict(computed)

    got = run()
    with monkeypatch.context() as mp:
        mp.setattr(framework, "check_consistent", _parent_check_consistent)
        mp.setattr(sub, "check_consistent", _parent_check_consistent)
        mp.setattr(px86, "_search", _parent_search)
        want = run()
    assert got == want
    records, traffic, counts = got
    assert len(records) > 40 and counts["consistent"] and counts["search"]
    assert any(hit for _, hit in traffic) and not all(hit for _, hit in traffic)
