"""``lang.interpret_phases`` deduplicates each thread's runs per era, before
the product, in place of deduplicating every glued execution afterwards.

The runs it gives, in order, must equal those of the code it replaced
(``interpret_reference``) on every ``litmus/**`` file, at unroll 2 and 4,
with and without ``complete_only``, and on the four undo-log crash programs
of the benchmark.  The reference glues each run as the three-part
composition ``seq_compose(acc, crash, era)``, where ``interpret_phases``
composes ``acc;crash`` once per run of the earlier eras; the single-phase
files are also run with one restart after a crash.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import interpret_reference as ref
from persistcheck.cli import _collection_for
from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig, Prog, interpret_phases, link_phases, parse_litmus
from persistcheck.libs import durqueue_spec, ltrans_impl, sc_prune_factory, weakreg_spec

ROOT = Path(__file__).resolve().parent.parent
LITMUS = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "litmus").rglob("*.lit"))
SINGLE_PHASE = [p for p in LITMUS if len(parse_litmus((ROOT / p).read_text(encoding="utf-8")).phases) == 1]


def _runs(interpret, phases, coll, cfg, complete_only):
    return [
        (env, g.labels(), g.po_order.rows) for env, g in interpret(phases, coll, cfg, complete_only=complete_only)
    ]


@pytest.mark.parametrize("path", LITMUS)
def test_litmus_runs_equal_the_replaced_interpretation(path):
    lit = parse_litmus((ROOT / path).read_text(encoding="utf-8"), name=path)
    coll = _collection_for(lit.collection, 100_000)
    for unroll in (2, 4):
        cfg = InterpConfig(domain=tuple(lit.domain), unroll=unroll, max_runs=100_000, prune_factory=sc_prune_factory())
        for complete_only in (False, True):
            want = _runs(ref.interpret_phases, list(lit.phases), coll, cfg, complete_only)
            assert _runs(interpret_phases, list(lit.phases), coll, cfg, complete_only) == want


#: The undo-log crash programs of ``perfbench``: registers, transaction
#: bodies, the recovering reads and the unroll bound.
UNDO = {
    "1x1": ("a", ["pt_write(a, 1)"], "r1 := pt_read(a)", 10),
    "2x1": ("ab", ["pt_write(a, 1)", "pt_write(b, 2)"], "r1 := pt_read(a); r2 := pt_read(b)", 10),
    "1x2": ("ab", ["pt_write(a, 1); pt_write(b, 2)"], "r1 := pt_read(a); r2 := pt_read(b)", 10),
    "2x2": (
        "ab",
        ["pt_write(a, 1); pt_write(b, 2)", "pt_write(a, 3); pt_write(b, 4)"],
        "r1 := pt_read(a); r2 := pt_read(b)",
        12,
    ),
}


@pytest.mark.parametrize("shape", sorted(UNDO))
def test_undo_log_runs_equal_the_replaced_interpretation(shape):
    regs, txns, reads, unroll = UNDO[shape]
    decls = "\n".join(f"  {r} := pt_new()" for r in regs)
    body = "; ".join(f"pt_begin(); {t}; pt_end()" for t in txns)
    text = f"collection ltrans\nglobals\n{decls}\nprogram\n  t0: {body}\ncrash\nprogram\n  t5: pt_recover(); {reads}\n"
    phases = link_phases(parse_litmus(text).phases, ltrans_impl())
    low = Collection([weakreg_spec(), durqueue_spec()]).freeze()
    cfg = InterpConfig(unroll=unroll, max_runs=600_000, prune_factory=sc_prune_factory())
    want = _runs(ref.interpret_phases, phases, low, cfg, True)
    assert want
    assert _runs(interpret_phases, phases, low, cfg, True) == want


@pytest.mark.parametrize("path", SINGLE_PHASE)
def test_restarted_runs_equal_the_three_part_composition(path):
    # a single-phase file run with one restart after a crash, the gluing
    # input the tests above do not make
    lit = parse_litmus((ROOT / path).read_text(encoding="utf-8"), name=path)
    phases = [lit.phases[0], Prog(threads=lit.phases[0].threads)]
    coll = _collection_for(lit.collection, 100_000)
    for unroll in (2, 4):
        cfg = InterpConfig(domain=tuple(lit.domain), unroll=unroll, max_runs=100_000, prune_factory=sc_prune_factory())
        want = _runs(ref.interpret_phases, phases, coll, cfg, True)
        assert want
        assert _runs(interpret_phases, phases, coll, cfg, True) == want
