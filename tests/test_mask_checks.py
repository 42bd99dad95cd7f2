"""Seeded library checks read the walked execution through a mask.

A ``Seeded`` check gets the walked execution and the mask of its
projection, and searches in the execution's own event ids.  It must give
what the replaced check gave on the projection cut as an ``Execution``
(``mask_reference``): the same status, reason and stats, and the witness
renamed through the projection's ids.  The table keeps the projection's
mask and that witness for the next seed, and the placement converters it
replaced (``placed_reference``) must make of them the placement the
reference keeps.
Seeded on both sides by the OK verdict of an unrelated prefix, both must
also hand ``sc.linearize`` the same problem, renamed.
A walk must then build no projection for such a library, and derive the
execution's hb predecessors and era-before at most once.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mask_reference as ref
import placed_reference
import persistcheck.framework as framework
import persistcheck.libs as libs
import persistcheck.model as model
import persistcheck.sc as sc
import test_owner_table as owner_table
from persistcheck.framework import Collection
from persistcheck.libs import PTR_TAG, durqueue_spec, mmcounter_spec, reg_lin_spec, scmem_spec, weakreg_spec
from persistcheck.model import BOT, CRASH, Execution, Label, PlainExecution, bits, immediate_prefix_masks
from persistcheck.sc import PFENCE, WeakRegWitness

#: (method, arity, returns a value) per library.
POOLS = {
    "weakreg": [("rnew", 0, True), ("rwrite", 2, False), ("rread", 1, True), (PFENCE, 0, False)],
    "durqueue": [("qnew", 0, True), ("qpush", 2, False), ("qappend", 2, False), ("qpop", 1, True)],
    "mmcounter": [("mmnew", 0, True), ("mmadd", 2, False), ("mmmin", 1, True), ("mmmax", 1, True)],
    "scmem": [("alloc", 0, True), ("store", 2, False), ("load", 1, True), ("upd", 3, True), ("mfence", 0, False)],
    "reg": [("regnew", 0, True), ("regwrite", 2, False), ("regread", 1, True)],
}

COLLECTIONS = {
    "weakreg+durqueue": [weakreg_spec(), durqueue_spec()],
    "mmcounter+durqueue": [mmcounter_spec(), durqueue_spec()],
    "scmem+reg": [scmem_spec(), reg_lin_spec()],
}


@st.composite
def _cases(draw, names):
    """Up to seven events of two libraries and crashes, with any forward po
    (a pending call precedes only crashes) and sw edges: crashes need not
    be po-ordered, nor calls follow them.  Also a mask of ``x`` whose
    verdict seeds the checks."""
    pool = [m for name in names for m in POOLS[name]]
    n = draw(st.integers(0, 7))
    labels = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            labels.append(CRASH)
            continue
        method, arity, valued = draw(st.sampled_from(pool))
        args = tuple(draw(st.integers(0, 1)) for _ in range(arity))
        ret = draw(st.integers(0, 1)) if valued else None
        if draw(st.integers(0, 4)) == 0:
            ret = BOT
        tags = frozenset({PTR_TAG}) if method.startswith("mm") and draw(st.booleans()) else frozenset()
        labels.append(Label(method, args, ret, tags, draw(st.integers(0, 2))))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    po = draw(st.lists(pairs, max_size=2 * n))
    po = [(a, b) for a, b in po if a < b and (labels[a].is_complete or labels[b].is_crash)]
    sw = [(a, b) for a, b in draw(st.lists(pairs, max_size=2)) if a < b]
    unrelated = draw(st.integers(0, (1 << n) - 1))
    return labels, sorted(set(po)), sorted(set(sw)), unrelated


def _down(x, mask):
    """``mask`` closed downwards under hb."""
    preds = x.hb_order.preds()
    for e in list(bits(mask)):
        mask |= preds[e]
    return mask


def _masks(x):
    """``x`` and its immediate prefixes, and theirs, as masks."""
    rows, full = x.hb_order.rows, (1 << len(x)) - 1
    one = immediate_prefix_masks(rows, full)
    return sorted({full, *one, *(m for p in one for m in immediate_prefix_masks(rows, p))})


@contextmanager
def _problems(log):
    """Each ``sc.linearize`` call, from either side, appends its (preds,
    options, must, seed) to ``log``."""
    orig = sc.linearize

    def logged(preds, options, must, spec, budget, stage, seed=None, succs=None):
        log.append((list(preds), [list(o) for o in options], must, seed))
        return orig(preds, options, must, spec, budget, stage, seed, succs)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (sc, libs, ref):
            mp.setattr(mod, "linearize", logged)
        yield


def _renamed(row, to):
    """The bits of ``row`` renamed by ``to``, or None if one has no name."""
    out = 0
    for b in bits(row):
        if b not in to:
            return None
        out |= 1 << to[b]
    return out


def _same_problem(got, want, to):
    """``got`` (in ids of ``x``) is ``want`` renamed by ``to``: indices
    ``to`` does not name get no candidate."""
    (gp, go, gm, gs), (wp, wo, wm, ws) = got, want
    assert len(wo) == len(to)
    assert all(not go[i] for i in range(len(go)) if i not in to)
    for i, j in to.items():
        assert go[i] == wo[j]
        assert _renamed(gp[i], to) == wp[j]
    assert _renamed(gm, to) == wm
    assert (gs is None) == (ws is None)
    if gs is not None:
        assert [(to.get(i), c) for i, c in gs] == ws


def _renamed_witness(w, ids, calls):
    """The reference witness ``w`` in ids of ``x``: ``ids`` names the
    projection's events, ``calls`` its non-crash events."""
    if isinstance(w, WeakRegWitness):
        return WeakRegWitness(
            lin=tuple(tuple(calls[i] for i in era) for era in w.lin),
            nvo=tuple(tuple(calls[i] for i in era) for era in w.nvo),
            persisted=tuple(frozenset(calls[i] for i in p) for p in w.persisted),
            mo=tuple((calls[a], calls[b]) for a, b in w.mo),
            completed_incomplete=frozenset(calls[i] for i in w.completed_incomplete),
        )
    return [ids[e] for e in w] if w is not None else None


def _compare(spec, ref_spec, x, mask, tables, seeds):
    """``seeds`` is None or the seed of each table: an OK verdict's mask
    and witness, and the reference's placement of it."""
    got_t, want_t = tables
    got_t.placed, want_t.placed = {}, {}
    if seeds is not None:
        got_t.placed[spec.name], want_t.placed[spec.name] = seeds
    got_log, want_log = [], []
    with _problems(want_log):
        want = want_t._local(ref_spec, want_t.cut(want_t.prefix(mask), mask), mask)
    with _problems(got_log):
        got = got_t._local(spec, got_t.prefix(mask), mask)
    assert (got.status, got.reason, got.stats) == (want.status, want.reason, want.stats)
    ids = list(bits(mask))
    calls = [e for e in ids if not x.lab[e].is_crash]
    assert got.witness == _renamed_witness(want.witness, ids, calls)
    assert {name: placed_reference.placement(x, name, *kept) for name, kept in got_t.placed.items()} == want_t.placed
    assert len(got_log) == len(want_log)
    if spec.name == "weakreg":
        # the reference numbers the calls, then the era ends
        to = {e: i for i, e in enumerate(calls)}
        to.update((len(x) + k, len(calls) + k) for k in range(len(ids) - len(calls)))
    for g, w in zip(got_log, want_log):
        if spec.name != "weakreg":
            # the reference offers a candidate to each member, in id order
            to = {e: i for i, e in enumerate(i for i, o in enumerate(g[1]) if o)}
        _same_problem(g, w, to)


def _differential(name):
    specs = COLLECTIONS[name]
    coll = Collection(specs)
    ref_coll = Collection([ref.specs(s) for s in specs])

    def test(case):
        labels, po, sw, unrelated = case
        x = Execution(PlainExecution(labels, po), sw)
        tables = framework.Owners(coll, x), ref.Owners(ref_coll, x)
        for spec, ref_spec in zip(coll.specs(), ref_coll.specs()):
            keeps = tables[0].keeps[spec.name]
            # the seed a check of an unrelated prefix leaves behind in each table
            u = _down(x, unrelated) & keeps
            tables[0].placed, tables[1].placed = {}, {}
            tables[0]._local(spec, tables[0].prefix(u), u)
            tables[1]._local(ref_spec, tables[1].cut(tables[1].prefix(u), u), u)
            got_left, want_left = tables[0].placed.get(spec.name), tables[1].placed.get(spec.name)
            assert want_left == (got_left and placed_reference.placement(x, spec.name, *got_left))
            for mask in _masks(x):
                for seeds in (None, (got_left, want_left)) if got_left else (None,):
                    _compare(spec, ref_spec, x, mask & keeps, tables, seeds)

    return test


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# two crashes with no po between them: the first ends an era of one pending
# call, the second starts the era of the rest
UNORDERED_CRASHES = (
    [Label("rnew", (), BOT, frozenset(), 0), CRASH, CRASH]
    + [Label("rnew", (), 0, frozenset(), 20)] * 2
    + [Label("rnew", (), BOT, frozenset(), 20)],
    [(0, 1), (2, 3), (3, 4), (4, 5)],
    [],
    0b11,
)
# a seed from an execution with no calls: the crashes alone
ONLY_CRASHES = ([CRASH, CRASH], [], [], 0b11)


def _test(name, *examples):
    test = given(_cases(name.split("+")))(_differential(name))
    for case in examples:
        test = example(case)(test)
    return SETTINGS(test)


test_weakreg_durqueue_match_the_projection_checks = _test("weakreg+durqueue", ONLY_CRASHES, UNORDERED_CRASHES)
test_mmcounter_durqueue_match_the_projection_checks = _test("mmcounter+durqueue", ONLY_CRASHES)
test_scmem_reg_match_the_projection_checks = _test("scmem+reg", ONLY_CRASHES)


def test_unordered_crashes_are_consistent():
    labels, po, sw, _ = UNORDERED_CRASHES
    x = Execution(PlainExecution(labels, po), sw)
    assert weakreg_spec().local_consistent(x)
    assert ref.CHECKS["weakreg"](x)


# --------------------------------------------------------------------------
# What a walk derives
# --------------------------------------------------------------------------


@contextmanager
def _derived(log):
    """Each ``Order.preds`` and ``PlainExecution.eb`` that computes rather
    than returns a kept value appends its object to ``log``; ``Execution``
    construction appends ``"Execution"``."""
    preds, eb, init = model.Order.preds, model.PlainExecution.eb, model.Execution.__init__

    def counted_preds(self):
        if getattr(self, "_preds", None) is None:
            log.append(self)
        return preds(self)

    def counted_eb(self):
        if getattr(self, "_eb", None) is None:
            log.append(self)
        return eb.fget(self)

    def counted_init(self, *args, **kwargs):
        log.append("Execution")
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model.Order, "preds", counted_preds)
        mp.setattr(model.PlainExecution, "eb", property(counted_eb))
        mp.setattr(model.Execution, "__init__", counted_init)
        yield


def test_undo_log_walks_build_no_projection_and_derive_once():
    coll = Collection([weakreg_spec(), durqueue_spec()]).freeze()
    xs = owner_table._undo_refinements("2x1", coll, 40)
    assert any(x.plain.crash_events() for x in xs)
    statuses = set()
    for x in xs:
        log = []
        with _derived(log):
            v = framework.check_hereditarily_consistent(coll, x, budget=6_000)
        statuses.add(v.status)
        assert "Execution" not in log
        assert [o for o in log if isinstance(o, model.Order)] in ([], [x.hb_order])
        assert [o for o in log if isinstance(o, PlainExecution)] in ([], [x.plain])
    assert statuses == {"consistent", "inconsistent"}
