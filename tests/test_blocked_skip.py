"""The linearization search that skips a blocked event's successors in one
step, against the search that tested each of them (``scan_reference``).

When a node's scan meets an event with an unplaced ``must`` predecessor
``p``, it drops ``succs[p]`` from the rest of its scan.  That skips only
events the reference would have tested and found blocked, so the two must
agree exactly: the yields in order, the stats at each yield and at the
end, and the ``BudgetExceeded`` stats at every budget up to the nodes a
run takes.

Shapes: chains, random closed orders, unions of two closed orders (the
Px86 era-monotone write orders), relations that are not closed, and closed
orders with era ends appended
as the weak register appends them, each with events that have no
candidate and optional events, over ``ANY_ORDER``, ``S_QUEUE`` and
``S_WEAKREG``.  ``succs`` is given as the converse of ``preds``, left to
its default, or as rows that hold only part of the converse.

The contract tests run the product's checks with every search spied on
and assert that, in each ``succs`` a caller passes, the row of a ``must``
event holds, on the events with a candidate, no event outside the converse
of ``preds``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistcheck.libs as libs
import persistcheck.px86 as px86
import persistcheck.sc as sc
import scan_reference as ref
from persistcheck import cli
from persistcheck.framework import BudgetExceeded, Collection, check_hereditarily_consistent
from persistcheck.lang import InterpConfig, candidate_refinements, interpret_phases, link_phases, parse_litmus
from persistcheck.model import Label
from persistcheck.px86 import px86_spec
from persistcheck.sc import ANY_ORDER, PFENCE, S_QUEUE, S_WEAKREG, check_linearizable, linearizations
from persistcheck.substitution import SemanticImpl, verify_impl_bounded
from test_acceptance import LITMUS, LTRANS_LOW, _corpus_from_litmus, _random_history

#: Per spec: the candidates drawn for its options.
SPECS = {
    "any order": (ANY_ORDER, [0, 1, 2]),
    "register": (
        S_WEAKREG,
        [
            Label("rwrite", (10, 1), None),
            Label("rwrite", (10, 2), None),
            Label("rread", (10,), 0),
            Label("rread", (10,), 1),
            Label("rread", (10,)),
            Label(PFENCE, (), None),
        ],
    ),
    "queue": (
        S_QUEUE,
        [
            Label("qnew", (), 10),
            Label("qpush", (10, 1), None),
            Label("qpush", (10, 2), None),
            Label("qpop", (10,), 1),
            Label("qpop", (10,), None),
            Label("qpop", (10,)),
        ],
    ),
}

W1, W2 = Label("rwrite", (10, 1), None), Label("rwrite", (10, 2), None)

#: The most yields a run takes before it closes the generator.
MAX_YIELDS = 8

#: The most nodes a run may take for every budget below it to be tried.
MAX_SWEEP = 400


def converse(preds):
    """The successor rows of ``preds``, read bit by bit."""
    out = [0] * len(preds)
    for j, row in enumerate(preds):
        for p in range(len(preds)):
            if row >> p & 1:
                out[p] |= 1 << j
    return out


def _closed(draw, order):
    """Predecessor rows of a random closed order that ``order`` extends."""
    preds = [0] * len(order)
    for j, e in enumerate(order):
        for a in draw(st.lists(st.sampled_from(order[:j]), unique=True)) if j else ():
            preds[e] |= 1 << a | preds[a]
    return preds


@st.composite
def shapes(draw):
    """(kind, preds, succs rows the product would pass or None)."""
    kind = draw(st.sampled_from(["chain", "closed", "union", "covers", "eras"]))
    n = draw(st.integers(0, 7))
    order = draw(st.permutations(range(n)))
    if kind == "chain":
        preds = [0] * n
        for j, e in enumerate(order):
            preds[e] = sum(1 << a for a in order[:j])
        return kind, preds, None
    if kind == "covers":
        # each event after a few events before it, not closed: the
        # kernel reads no transitivity into preds
        preds = [0] * n
        for j, e in enumerate(order):
            for a in draw(st.lists(st.sampled_from(order[:j]), max_size=2, unique=True)) if j else ():
                preds[e] |= 1 << a
        return kind, preds, None
    preds = _closed(draw, order)
    if kind == "closed":
        return kind, preds, None
    if kind == "union":
        # two closed orders that one order extends: their union is acyclic
        # but need not be closed, as the Px86 era-monotone write orders are
        other = _closed(draw, order)
        return kind, [p | q for p, q in zip(preds, other)], None
    # era ends after the calls: end k after ends 0..k-1 and the calls
    # before its crash, and before the calls after it
    last = draw(st.integers(1, 2))
    succs = converse(preds) + [((1 << last) - 1) >> (k + 1) << (n + k + 1) for k in range(last)]
    preds = preds + [((1 << k) - 1) << n for k in range(last)]
    for k in range(last):
        for i in range(n):
            side = draw(st.sampled_from(["before", "after", "neither"]))
            if side == "before":
                preds[n + k] |= 1 << i
            elif side == "after":
                preds[i] |= 1 << (n + k)
                succs[n + k] |= 1 << i
    # an era end's row may also be left empty: it only skips less
    if draw(st.booleans()):
        succs[n + draw(st.integers(0, last - 1))] = 0
    return kind, preds, succs


@st.composite
def searches(draw):
    """(spec name, preds, options, must, succs) over one shape."""
    kind, preds, succs = draw(shapes())
    n = len(preds)
    name = draw(st.sampled_from(sorted(SPECS)))
    pool = SPECS[name][1]
    sizes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    options = [tuple(draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s))) for s in sizes]
    must = draw(st.integers(0, (1 << n) - 1))
    given_succs = draw(st.sampled_from(["exact", "default", "part"]))
    if given_succs == "default":
        succs = None
    elif succs is None:
        succs = converse(preds)
    if given_succs == "part":
        succs = [row & draw(st.integers(0, (1 << n) - 1)) for row in succs or converse(preds)]
    return name, preds, options, must, succs


def run(kernel, preds, options, must, spec, budget, k, *succs):
    """Each yield with ``stats`` then, how the run ended, and ``stats`` at
    the end, for a consumer that takes at most ``k`` yields."""
    stats = {"stage": "search"}
    gen = kernel(preds, options, must, spec, budget, stats, *succs)
    seen, end = [], "exhausted"
    try:
        while len(seen) < k:
            lin = next(gen, None)
            if lin is None:
                break
            seen.append((lin, dict(stats)))
        else:
            gen.close()
            end = "closed"
    except BudgetExceeded as e:
        end = ("budget", e.stats)
    return seen, end, dict(stats)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=searches(), k=st.integers(1, MAX_YIELDS))
@example(case=("any order", [], [], 0, None), k=1)
@example(case=("queue", [0, 1, 3, 7], [(Label("qnew", (), 10),), (), (), ()], 0b1111, None), k=1)
# a chain whose head has no candidate: every later event waits for it
@example(case=("any order", [0, 1, 3, 7], [(), (0,), (1,), (2,)], 0b1111, [0b1110, 0b1100, 0b1000, 0]), k=2)
# preds that are not closed: 2 waits for 1, which waits for 0, but 2 does
# not wait for 0, and 1 is optional, so 2 is placeable before 0
@example(case=("register", [0, 1, 2], [(W1,), (W2,), (W1,)], 0b101, None), k=3)
def test_skipping_search_matches_the_scanning_search(case, k):
    name, preds, options, must, succs = case
    spec = SPECS[name][0]
    args = () if succs is None else (succs,)
    want = run(ref.linearizations, preds, options, must, spec, math.inf, k)
    assert run(linearizations, preds, options, must, spec, math.inf, k, *args) == want
    nodes = want[2]["nodes"]
    for budget in range(1, min(nodes, MAX_SWEEP) + 1):
        want = run(ref.linearizations, preds, options, must, spec, budget, k)
        assert run(linearizations, preds, options, must, spec, budget, k, *args) == want, budget


# --------------------------------------------------------------------------
# The callers keep the contract
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _checked_searches(calls):
    """Every search of ``sc``, ``libs`` and ``px86`` asserts that the
    ``succs`` row of each ``must`` event holds, on the events with a
    candidate, only events that have it among their ``preds``; ``calls``
    lists the spec of each search given ``succs``."""
    orig = sc.linearizations

    def checked(preds, options, must, spec, budget, stats, succs=None):
        if succs is not None:
            live = sum(1 << i for i, cands in enumerate(options) if cands)
            allowed = converse(preds)
            for p, row in enumerate(succs[: len(preds)]):
                if must >> p & 1:
                    assert not row & live & ~allowed[p], (p, bin(row), bin(allowed[p]))
            calls.append(spec.name)
        return orig(preds, options, must, spec, budget, stats, succs)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (sc, libs, px86):
            mp.setattr(mod, "linearizations", checked)
        yield


#: The undo-log crash programs of acceptance 7 and 7b, by shape: registers,
#: transaction bodies, reads, unroll.
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


def _undo_runs(shape, limit):
    """The first ``limit`` complete crash runs of an undo-log program."""
    regs, txns, reads, unroll = UNDO[shape]
    decls = "\n".join(f"  {r} := pt_new()" for r in regs)
    body = "; ".join(f"pt_begin(); {t}; pt_end()" for t in txns)
    text = f"collection ltrans\nglobals\n{decls}\nprogram\n  t0: {body}\ncrash\nprogram\n  t5: pt_recover(); {reads}\n"
    phases = link_phases(parse_litmus(text).phases, libs.ltrans_impl())
    cfg = InterpConfig(unroll=unroll, max_runs=600_000, prune_factory=libs.sc_prune_factory())
    runs = (g for env, g in interpret_phases(phases, LTRANS_LOW, cfg, complete_only=True) if env is not None)
    return [g for g, _ in zip(runs, range(limit))]


def test_litmus_checks_pass_only_successors():
    calls = []
    with _checked_searches(calls), contextlib.redirect_stdout(io.StringIO()):
        for path in sorted(Path(LITMUS).glob("**/*.lit")):
            cli.cmd_check(str(path), cli.RunConfig())
    assert {"any order", "flit", "register"} <= set(calls)


def test_undo_log_walks_pass_only_successors():
    calls = []
    with _checked_searches(calls):
        for shape in sorted(UNDO):
            for g in _undo_runs(shape, 30):
                for x in candidate_refinements(LTRANS_LOW, g):
                    check_hereditarily_consistent(LTRANS_LOW, x, budget=6_000)
    assert {"weakreg k-sequentializations", "queue"} <= set(calls)


def test_flit_verification_passes_only_successors():
    px, high = Collection([px86_spec()]), Collection([libs.flit_spec()])
    corpus = _corpus_from_litmus(LITMUS / "flit", max_events=8, max_graphs=40)
    calls = []
    with _checked_searches(calls):
        impl = SemanticImpl(libs.flit_impl(), px, InterpConfig(domain=(0, 1), unroll=2))
        assert verify_impl_bounded(impl, high, px, corpus, budget=20_000).ok
    assert {"any order", "flit"} <= set(calls)


def test_history_checks_pass_only_successors():
    rng = random.Random(20260808)
    calls = []
    with _checked_searches(calls):
        for _ in range(50):
            check_linearizable(_random_history(rng), S_WEAKREG)
    assert set(calls) == {"weakreg"}
