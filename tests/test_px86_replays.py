"""Px86 in the seeded walks.

``px86_spec``'s check is ``Seeded``: on a walk prefix it replays the walk's
last OK Px86 witness, cut to the prefix's projection, when that witness
places every event of the projection and every read of the projection reads
from one of its writes.  Otherwise it searches as ``px86_consistent`` does.

A replayed witness must be a witness of the cut, by a validity oracle kept
here (``check_px86_axioms`` reports the axioms only).  The walks must give
the statuses and chains of the unseeded check (``_reference_spec``: the Px86
spec before it was seeded), and the seeded check without a seed must give
``px86_consistent``'s verdict, witness and stats.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistcheck.libs as libs
import persistcheck.px86 as px86
import test_owner_table as owner_table
import test_substitution as substitution
from definitions import check_px86_axioms, mfence
from persistcheck.cli import RunConfig, cmd_check
from persistcheck.framework import (
    Collection,
    HereditaryChain,
    LibrarySpec,
    Seeded,
    check_hereditarily_consistent,
    check_wellformed,
)
from persistcheck.lang import InterpConfig, candidate_refinements, interpret_phases, parse_litmus
from persistcheck.libs import builtin_spec, sc_prune_factory
from persistcheck.model import BOT, Execution, Label, PlainExecution, bits
from persistcheck.px86 import (
    D_TAG,
    P_TAG,
    Px86Witness,
    px86_consistent,
    px86_interface,
    px86_spec,
    store,
    value_read,
    value_written,
)
from persistcheck.substitution import SemanticImpl, exec_bind

ROOT = Path(__file__).resolve().parent.parent
LITMUS = sorted((ROOT / "litmus").glob("*.lit"))
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

_READS, _WRITES = ("load", "upd"), ("store", "upd")
_DURABLE = ("store", "upd", "flush", "fo", "alloc")


def _reference_spec(budget: int = 200_000) -> LibrarySpec:
    """``px86_spec`` before it was seeded: each projection searched alone."""
    return LibrarySpec(
        interface=px86_interface(),
        local_consistent=lambda x: px86_consistent(x, budget),
        sw_candidates=px86._px86_sw_hook,
    )


def _witness_errors(x: Execution, w: Px86Witness) -> list:
    """What makes ``w`` no Px86 witness of ``x``: rf total, functional and
    value-matching on reads, from same-location writes; tso a strict order,
    total on writes and updates; rf, tso and nvo forward in eras; P within
    the durable events, and equal to the P-tagged ones if any are; and every
    entry of ``check_px86_axioms``."""
    lab, events = x.lab, list(x.events)
    errors = []
    sources = {}
    for a, b in w.rf:
        if lab[b].method not in _READS or lab[a].method not in _WRITES or a == b:
            errors.append(f"rf edge ({a},{b}) is not write-to-read")
        elif lab[a].args[0] != lab[b].args[0]:
            errors.append(f"rf edge ({a},{b}) spans two locations")
        elif value_read(lab[b]) is not BOT and value_read(lab[b]) != value_written(lab[a]):
            errors.append(f"rf edge ({a},{b}) reads another value")
        sources.setdefault(b, []).append(a)
    errors += [f"read {r} has sources {sources.get(r)}" for r in events if lab[r].method in _READS and len(sources.get(r, ())) != 1]
    tso = set(w.tso)
    if any((a, a) in tso or (b, a) in tso for a, b in tso):
        errors.append("tso is not a strict order")
    wu = [e for e in events if lab[e].method in _WRITES]
    errors += [f"tso misses {a},{b}" for a in wu for b in wu if a < b and (a, b) not in tso and (b, a) not in tso]
    eb = x.plain.eb.rows
    for name, rel in (("rf", w.rf), ("tso", w.tso), ("nvo", w.nvo)):
        errors += [f"{name} edge ({a},{b}) points back in eras" for a, b in rel if eb[b] >> a & 1]
    errors += [f"persisted {e} is not durable" for e in w.persisted if lab[e].method not in _DURABLE]
    tagged = {e for e in events if P_TAG in lab[e].tags}
    if tagged and set(w.persisted) != tagged:
        errors.append(f"persisted {sorted(w.persisted)}, P-tagged {sorted(tagged)}")
    errors += [f"{name}: {v.reason}" for name, v in check_px86_axioms(x, w).items() if not v]
    return errors


def _logged(spec: LibrarySpec, log: list) -> LibrarySpec:
    """``spec`` whose seeded check appends (x, mask, seed, verdict) to ``log``."""
    seeded = spec.local_consistent

    def check(x, mask, seed):
        v = seeded.check(x, mask=mask, seed=seed)
        log.append((x, mask, seed, v))
        return v

    return replace(spec, local_consistent=Seeded(check, seeded.placed))


def _replays(log):
    return [(x, mask, v) for x, mask, seed, v in log if v and dict(v.stats)["stage"] == "px86 replay"]


def _walks(coll, x, budget, wellformed):
    checks = (check_hereditarily_consistent, check_wellformed) if wellformed else (check_hereditarily_consistent,)
    out = []
    for check in checks:
        v = check(coll, x, budget=budget)
        out.append((v.status, v.witness.subsets if isinstance(v.witness, HereditaryChain) else None))
    return out


def _litmus_cases():
    """Per ``litmus/*.lit`` file: its spec names and the refinements of the
    complete runs ``check`` interprets."""
    for path in LITMUS:
        lit = parse_litmus(path.read_text(encoding="utf-8"), name=path.name)
        coll = Collection([builtin_spec(n) for n in lit.collection])
        cfg = InterpConfig(
            domain=tuple(lit.domain), unroll=lit.unroll or 4, max_runs=100_000, prune_factory=sc_prune_factory()
        )
        xs = []
        for env, g in interpret_phases(list(lit.phases), coll, cfg, complete_only=True):
            if env is not None:
                xs += list(candidate_refinements(coll, g))
        yield path.name, list(lit.collection), xs


def _flit_cases(case, crashes):
    """The distinct px86 refinements of the concretes of a crash corpus."""
    make, low, _, (directory, _, _), _ = substitution.DIFF_CASES[case]
    impl = SemanticImpl(make(), low, substitution.FLIT_CFG)
    xs = {}
    for ga in substitution._crash_corpus(directory, crashes):
        for gc, _ in exec_bind(ga, impl, max_results=64):
            for x in candidate_refinements(low, gc):
                xs.setdefault(owner_table._exact(x), x)
    return list(xs.values())


def _check_walks(names, xs, budget, wellformed_every=1):
    """Walk each of ``xs`` with the seeded and the unseeded Px86 check:
    hereditary consistency, and well-formedness for every
    ``wellformed_every``-th.  Returns the number of replays, each checked
    by the oracle."""
    log = []
    got_coll = Collection([_logged(px86_spec(budget), log) if n == "px86" else builtin_spec(n) for n in names])
    want_coll = Collection([_reference_spec(budget) if n == "px86" else builtin_spec(n) for n in names])
    for i, x in enumerate(xs):
        wellformed = i % wellformed_every == 0
        assert _walks(got_coll, x, 20_000, wellformed) == _walks(want_coll, x, 20_000, wellformed)
    replays = _replays(log)
    for x, mask, v in replays:
        assert _witness_errors(x.restrict_events(bits(mask)), v.witness) == []
    return len(replays)


def test_litmus_walks_replay_valid_witnesses_and_match_the_unseeded_walks():
    replays = 0
    for name, names, xs in _litmus_cases():
        assert xs, name
        replays += _check_walks(names, xs, 100_000)
    assert replays


@pytest.mark.parametrize("crashes", [0, 1])
@pytest.mark.parametrize("case", ["flit", "flit_no_fo"])
def test_flit_walks_replay_valid_witnesses_and_match_the_unseeded_walks(case, crashes):
    # with a crash, each of the 3,000-odd refinements is walked for
    # hereditary consistency and every 16th for well-formedness too
    xs = _flit_cases(case, crashes)
    assert xs
    assert _check_walks(["px86"], xs, 200_000, 16 if crashes else 1)


@st.composite
def _masks(draw, x):
    """A mask of ``x`` holding every crash po-before its events."""
    mask = draw(st.integers(0, (1 << len(x)) - 1))
    for c in x.plain.crash_events():
        if x.plain.po_order.rows[c] & mask:
            mask |= 1 << c
    return mask


@SETTINGS
@given(st.data(), owner_table._cases("px86"))
def test_an_unseeded_check_is_the_search_on_the_cut(data, case):
    _, _, xs = case
    for budget in (3, 200_000):
        check = px86_spec(budget).local_consistent
        for x in xs:
            mask = data.draw(_masks(x))
            got = check.check(x, mask=mask, seed=None)
            assert got == px86_consistent(x.restrict_events(bits(mask)), budget)
            assert check(x) == px86_consistent(x, budget)


@SETTINGS
@given(st.data(), owner_table._cases("px86"))
def test_a_replay_is_a_witness_of_the_cut(data, case):
    # a seed of any projection replays on any other one it covers and
    # sources, whether or not that one is an hb prefix of it
    _, _, xs = case
    check = px86_spec().local_consistent
    for x in xs:
        outer = data.draw(_masks(x))
        v = px86_consistent(x.restrict_events(bits(outer)))
        if not v:
            continue
        seed = check.placed(x, outer, v.witness)
        inner = data.draw(_masks(x)) & outer
        got = check.check(x, mask=inner, seed=seed)
        want = px86_consistent(x.restrict_events(bits(inner)))
        assert got.status == want.status
        if dict(got.stats)["stage"] == "px86 replay":
            assert _witness_errors(x.restrict_events(bits(inner)), got.witness) == []


def test_a_seed_that_misses_an_event_is_not_replayed():
    # the well-formedness walk visits prefixes in stack order, so the seed
    # may come from a prefix that lacks an event of the next one
    fence = Label("mfence", (), 0, frozenset({D_TAG, P_TAG}), 0)
    x = Execution(PlainExecution([fence, mfence(0), store(0, 0, 0)], [(0, 2)]))
    assert check_wellformed(Collection([px86_spec()]), x)


def _check_all_litmus():
    out = io.StringIO()
    with redirect_stdout(out):
        codes = [cmd_check(str(p), RunConfig()) for p in LITMUS]
    return codes, out.getvalue()


def test_check_replays_px86_witnesses_in_place_of_searches(monkeypatch):
    # the walks of ``check`` over ``litmus/*.lit`` replay a witness at many
    # prefixes, so they make at least a third fewer searches than the
    # unseeded check (120 against 238 when this was written), with the same
    # output
    searches, replays = [], []
    search, replay = px86.search_px86_witness, px86.px86_replay

    def counting_search(*args):
        searches.append(1)
        return search(*args)

    def counting_replay(*args):
        w = replay(*args)
        replays.append(w is not None)
        return w

    with monkeypatch.context() as m:
        m.setattr(px86, "search_px86_witness", counting_search)
        m.setattr(px86, "px86_replay", counting_replay)
        got = _check_all_litmus()
        got_searches = len(searches)
        del searches[:]
        m.setattr(libs, "px86_spec", _reference_spec)
        assert _check_all_litmus() == got
    assert set(got[0]) == {0}
    assert replays.count(True) > 0
    assert 3 * got_searches < 2 * len(searches)
