"""What the crash runs of one ``lang.interpret_phases`` call hold.

The runs of a call share their equal po rows (one ``int`` object per row
value), and each run's reduced po is a sorted tuple of the pairs of the
shared table, not a set of its own.  A ``tracemalloc`` bound on the bytes a
run holds, once its reduction is read, keeps both from regressing silently.
"""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

from persistcheck.cli import _collection_for
from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig, interpret_phases, link_phases, parse_litmus
from persistcheck.libs import durqueue_spec, ltrans_impl, sc_prune_factory, weakreg_spec
from persistcheck.model import _pair_table
from test_model import reference_reduction

ROOT = Path(__file__).resolve().parent.parent

#: One undo-logged transaction, a crash, then recovery and a read: the
#: smallest undo-log crash program of the benchmark.
UNDO_1X1 = """collection ltrans
globals
  a := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a)
"""

#: Bytes one run of ``UNDO_1X1`` holds once its reduced po is read: 2,122
#: with the reduction a frozenset and a row ``int`` of its own per run and
#: row, 934 with the sorted tuple and the rows shared.
RUN_BYTES = 1_400


def _undo_runs():
    phases = link_phases(parse_litmus(UNDO_1X1).phases, ltrans_impl())
    low = Collection([weakreg_spec(), durqueue_spec()]).freeze()
    cfg = InterpConfig(unroll=10, max_runs=600_000, prune_factory=sc_prune_factory())
    return [g for _, g in interpret_phases(phases, low, cfg, complete_only=True)]


def _ltrans_commit_runs():
    lit = parse_litmus((ROOT / "litmus" / "ltrans_commit.lit").read_text(encoding="utf-8"))
    cfg = InterpConfig(domain=tuple(lit.domain), unroll=4, max_runs=100_000, prune_factory=sc_prune_factory())
    return [g for _, g in interpret_phases(list(lit.phases), _collection_for(lit.collection, 100_000), cfg)]


def test_the_runs_of_one_call_hold_one_int_per_row_value():
    for runs in (_undo_runs(), _ltrans_commit_runs()):
        rows = [row for g in runs for row in g.po_order.rows]
        assert len({row for row in rows if row > 256}) > 1  # past the ints CPython caches
        assert len({id(row) for row in rows}) == len(set(rows))


def test_the_reduced_po_is_the_sorted_tuple_of_shared_pairs():
    for g in _undo_runs():
        assert type(g.po_reduced) is tuple
        assert g.po_reduced == tuple(sorted(reference_reduction(g.po)))
        table = _pair_table(len(g))
        assert all(table[pair[0]][pair[1]] is pair for pair in g.po_reduced)


def test_runs_with_their_reduction_hold_few_bytes():
    _undo_runs()  # the shared pair table reaches every run's size
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs = _undo_runs()
        for g in runs:
            g.po_reduced
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / len(runs)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held < RUN_BYTES
