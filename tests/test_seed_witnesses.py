"""A seed is the library's own last OK verdict: the mask of the projection
it decided and its witness.

Each ``Seeded`` check turns such a seed into its replay, and it must replay
what the placement format that the owner table kept before did
(``placed_reference``).  For an OK verdict ``w`` of a check on an outer
mask and any inner mask, ``check(x, mask=inner, seed=(outer, w))`` must
hand ``sc.linearize`` the seed pairs that the old converter and
translation give, and Px86 must replay the witness that the old
``px86_replay`` gives of ``px86_placed``, or search where that gives none.
The inner masks are the library's whole projection, which may hold events
the outer one lacks, the outer mask itself less each of its events, which
may cut a Px86 read's source, and one drawn at random.  The cases are those
of ``test_owner_table``, with two more collections in its format for the
``Seeded`` specs it draws none of: ``mmcounter`` and ``scmem``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistcheck.libs as libs
import persistcheck.px86 as px86
import persistcheck.sc as sc
import placed_reference as ref
import test_owner_table as owner_table
from persistcheck.framework import Collection, Seeded, Verdict
from persistcheck.libs import (
    PTR_TAG,
    durqueue_spec,
    ltrans_spec,
    mmcounter_spec,
    reg_lin_spec,
    scmem_spec,
    weakreg_spec,
)
from persistcheck.model import CRASH, Execution, Label, PlainExecution, bits
from persistcheck.px86 import load, px86_spec, store

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

#: The collections of the ``Seeded`` specs that ``test_owner_table`` draws
#: none of, in its format: specs by budget, budgets, (method, arity) pairs
#: and tags.
MORE = {
    "mmcounter": (
        lambda b: [ltrans_spec(), mmcounter_spec(budget=b), durqueue_spec(budget=b)],
        [3, 100_000],
        [("mmnew", 0), ("mmadd", 2), ("mmmin", 1), ("mmmax", 1), ("qnew", 0), ("qpush", 2), ("qpop", 1)],
        [PTR_TAG],
    ),
    "scmem": (
        lambda b: [scmem_spec(budget=b), reg_lin_spec(budget=b)],
        [3, 200_000],
        [("alloc", 0), ("store", 2), ("load", 1), ("mfence", 0), ("regnew", 0), ("regwrite", 2), ("regread", 1)],
        [],
    ),
}

#: What the stubbed ``px86_consistent`` returns: the check searched.
SEARCHED = Verdict.fail("searched")


@st.composite
def _cases(draw, name):
    """The collection and executions of a ``test_owner_table`` case."""
    with mock.patch.dict(owner_table.COLLECTIONS, MORE):
        coll, _, xs = draw(owner_table._cases(name))
    return coll, xs


@contextmanager
def _stubbed(log):
    """``sc.linearize`` appends its (options, seed) to ``log`` and fails at
    once, and ``px86_consistent`` gives ``SEARCHED``: the replay rules are
    what is compared, not the searches."""

    def logged(preds, options, must, spec, budget, stage, seed=None, succs=None):
        log.append((options, seed))
        return Verdict.fail("stub")

    with pytest.MonkeyPatch.context() as mp:
        for mod in (sc, libs):
            mp.setattr(mod, "linearize", logged)
        mp.setattr(px86, "px86_consistent", lambda x, budget, mask: SEARCHED)
        yield


def _closed(x, mask):
    """``mask`` with every crash po-before one of its events."""
    po = x.plain.po_order.rows
    for c in x.plain.crash_events():
        if po[c] & mask:
            mask |= 1 << c
    return mask


def _projection(coll, spec, x):
    """The mask of ``spec``'s events of ``x`` and the crashes."""
    return sum(1 << e for e in x.events if x.lab[e].is_crash or coll.owner_of(x.lab[e]) is spec)


def _check_seed(x, name, check, outer, w, inner):
    """``check`` seeded by ``(outer, w)`` on ``inner`` replays as the old
    placement of ``w`` did.  Returns whether a Px86 seed gave no replay."""
    log = []
    with _stubbed(log):
        got = check.check(x, mask=inner, seed=(outer, w))
    placed = ref.placement(x, name, outer, w)
    if name == "px86":
        want = ref.px86_replay(inner, placed)
        assert px86.px86_replay(outer, w, inner) == want
        assert got == (SEARCHED if want is None else Verdict.ok(witness=want, stats={"stage": "px86 replay", "steps": 0}))
        return want is None
    assert len(log) <= 1
    for options, seed in log:
        if name == "weakreg":
            assert seed == ref.weakreg_seed(x, inner, placed)
        else:
            members = sum(1 << i for i, o in enumerate(options) if o)
            assert seed == ref.lin_seed(x, members, placed)
    return False


def _check_seeds(data, coll, x):
    """Each ``Seeded`` check of ``coll`` on ``x``, seeded by its OK verdict
    on a drawn outer mask, on the inner masks the module docstring lists."""
    for spec in coll.specs():
        check = spec.local_consistent
        if not isinstance(check, Seeded):
            continue
        keeps = _projection(coll, spec, x)
        outer = _closed(x, data.draw(st.integers(0, keeps)) & keeps)
        v = check.check(x, mask=outer, seed=None)
        if not v:
            continue
        inners = {keeps, outer, _closed(x, data.draw(st.integers(0, keeps)) & keeps)}
        inners |= {_closed(x, outer & ~(1 << e)) for e in bits(outer)}
        for inner in sorted(inners):
            _check_seed(x, spec.name, check, outer, v.witness, inner)


def _differential(name):
    @SETTINGS
    @given(st.data(), _cases(name))
    def test(data, case):
        coll, xs = case
        for x in xs:
            _check_seeds(data, coll, x)

    return test


test_undo_low_seeds_replay_as_placements = _differential("undo_low")
test_reg_queue_seeds_replay_as_placements = _differential("reg_queue")
test_px86_seeds_replay_as_placements = _differential("px86")
test_mmcounter_seeds_replay_as_placements = _differential("mmcounter")
test_scmem_seeds_replay_as_placements = _differential("scmem")


def test_a_px86_seed_missing_an_event_or_cutting_a_source_is_not_replayed():
    # thread 1 loads the store of thread 0: a seed of the store alone lacks
    # the load, and the load alone has lost its source
    x = Execution(PlainExecution([store(0, 1, 0), load(0, 1, 1)], []))
    check = px86_spec().local_consistent
    for outer, inner in ((0b01, 0b11), (0b11, 0b10)):
        v = check.check(x, mask=outer, seed=None)
        assert v
        assert _check_seed(x, "px86", check, outer, v.witness, inner)
    v = check.check(x, mask=0b11, seed=None)
    assert not _check_seed(x, "px86", check, 0b11, v.witness, 0b01)


def test_a_linearization_seed_on_a_mask_with_an_event_it_lacks():
    # the write and the crash that ends its era are in the seed, the read
    # after the crash is not
    write, read = Label("rwrite", (0, 1), None, thread=0), Label("rread", (0,), 1, thread=1)
    labels = [Label("rnew", (), 0, thread=0), write, CRASH, read, Label("qnew", (), 5, thread=2)]
    x = Execution(PlainExecution(labels, [(0, 1), (1, 2), (2, 3)]))
    coll = Collection([weakreg_spec(), durqueue_spec()])
    for spec in coll.specs():
        keeps = _projection(coll, spec, x)
        outer = keeps & ~(1 << 3)
        v = spec.local_consistent.check(x, mask=outer, seed=None)
        assert v
        _check_seed(x, spec.name, spec.local_consistent, outer, v.witness, keeps)
