"""Px86 model tests.

Two independent oracles validate the axiomatic checker:

* an operational TSO store-buffer machine (crash-free programs of loads,
  stores, and mfences) whose reachable outcomes must coincide with the
  px86-consistent load-value assignments, and
* a brute-force witness enumerator for small graphs with the axiom formulas
  coded a second time, persisted sets enumerated exhaustively.
"""

import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eager_reference import linear_extensions
from persistcheck.framework import BudgetExceeded
from persistcheck.model import (
    BOT,
    CRASH,
    Execution,
    Order,
    PlainExecution,
    bits,
    closure,
    era_before,
    is_irreflexive,
    seq_compose,
    sequence_execution,
    parallel_execution,
)
from persistcheck.px86 import (
    P_TAG,
    Px86Witness,
    _read_candidates,
    alloc,
    check_px86_axioms,
    derive_sets,
    flush,
    fo,
    load,
    mfence,
    px86_consistent,
    px86_spec,
    px86_value_flow,
    search_px86_witness,
    sfence,
    store,
    upd,
    value_read,
    value_written,
)

X, Y = 1, 2


def init_chain(locs, thread=9):
    labels = []
    for x in locs:
        labels.extend([alloc(x, thread=thread), store(x, 0, thread=thread)])
    return sequence_execution(labels)


def build_execution(threads, locs=(X, Y), crash_after=None):
    """Init allocs+zero-stores, then per-thread chains; optionally a crash
    splitting the thread list into two phases."""
    g = init_chain(locs)
    if crash_after is None:
        body = parallel_execution(*threads)
        return Execution(seq_compose(g, body))
    pre = parallel_execution(*threads[:crash_after])
    post = parallel_execution(*threads[crash_after:])
    g = seq_compose(g, pre)
    g = seq_compose(g, sequence_execution([CRASH]))
    g = seq_compose(g, post)
    return Execution(g)


# --------------------------------------------------------------------------
# Oracle 1: operational TSO store-buffer machine
# --------------------------------------------------------------------------


def tso_reachable_outcomes(programs, locs=(X, Y)):
    """programs: per thread, list of ('store', x, v) | ('load', x) | ('mfence',).
    Returns the set of tuples of load values, in per-thread program order."""
    n = len(programs)
    init_mem = {x: 0 for x in locs}
    outcomes = set()
    seen = set()

    def key(state):
        mem, bufs, pcs, loads = state
        return (
            tuple(sorted(mem.items())),
            tuple(tuple(b) for b in bufs),
            tuple(pcs),
            tuple(tuple(l) for l in loads),
        )

    def step(state):
        mem, bufs, pcs, loads = state
        k = key(state)
        if k in seen:
            return
        seen.add(k)
        if all(pcs[t] >= len(programs[t]) for t in range(n)):
            outcomes.add(tuple(v for t in range(n) for v in loads[t]))
            return
        for t in range(n):
            if bufs[t]:
                x, v = bufs[t][0]
                mem2 = dict(mem)
                mem2[x] = v
                bufs2 = [list(b) for b in bufs]
                bufs2[t] = bufs2[t][1:]
                step((mem2, bufs2, list(pcs), [list(l) for l in loads]))
            if pcs[t] >= len(programs[t]):
                continue
            instr = programs[t][pcs[t]]
            if instr[0] == "store":
                bufs2 = [list(b) for b in bufs]
                bufs2[t] = bufs2[t] + [(instr[1], instr[2])]
                pcs2 = list(pcs)
                pcs2[t] += 1
                step((dict(mem), bufs2, pcs2, [list(l) for l in loads]))
            elif instr[0] == "load":
                x = instr[1]
                v = mem[x]
                for bx, bv in reversed(bufs[t]):
                    if bx == x:
                        v = bv
                        break
                loads2 = [list(l) for l in loads]
                loads2[t] = loads2[t] + [v]
                pcs2 = list(pcs)
                pcs2[t] += 1
                step((dict(mem), [list(b) for b in bufs], pcs2, loads2))
            elif instr[0] == "mfence":
                if not bufs[t]:
                    pcs2 = list(pcs)
                    pcs2[t] += 1
                    step((dict(mem), [list(b) for b in bufs], pcs2, [list(l) for l in loads]))

    step((init_mem, [[] for _ in range(n)], [0] * n, [[] for _ in range(n)]))
    return outcomes


def axiomatic_outcomes(programs, locs=(X, Y), domain=(0, 1)):
    """Load-value tuples admitted by the axiomatic model for the same programs."""
    slots = []
    for t, prog in enumerate(programs):
        for i, ins in enumerate(prog):
            if ins[0] == "load":
                slots.append((t, i))
    out = set()
    for values in itertools.product(domain, repeat=len(slots)):
        vals = dict(zip(slots, values))
        threads = []
        for t, prog in enumerate(programs):
            chain = []
            for i, ins in enumerate(prog):
                if ins[0] == "store":
                    chain.append(store(ins[1], ins[2], thread=t))
                elif ins[0] == "load":
                    chain.append(load(ins[1], vals[(t, i)], thread=t))
                else:
                    chain.append(mfence(thread=t))
            threads.append(chain)
        x = build_execution(threads, locs)
        if px86_consistent(x):
            out.add(tuple(vals[s] for s in slots))
    return out


SB = [[("store", X, 1), ("load", Y)], [("store", Y, 1), ("load", X)]]
SB_MFENCE = [
    [("store", X, 1), ("mfence",), ("load", Y)],
    [("store", Y, 1), ("mfence",), ("load", X)],
]
MP = [[("store", X, 1), ("store", Y, 1)], [("load", Y), ("load", X)]]
LB = [[("load", X), ("store", Y, 1)], [("load", Y), ("store", X, 1)]]


def test_sb_admits_00_and_matches_simulator():
    want = tso_reachable_outcomes(SB)
    got = axiomatic_outcomes(SB)
    assert (0, 0) in got
    assert got == want


def test_sb_with_mfences_forbids_00():
    want = tso_reachable_outcomes(SB_MFENCE)
    got = axiomatic_outcomes(SB_MFENCE)
    assert (0, 0) not in got
    assert got == want


def test_mp_forbids_stale_flag_read():
    want = tso_reachable_outcomes(MP)
    got = axiomatic_outcomes(MP)
    assert (1, 0) not in got
    assert got == want


def test_lb_forbidden_outcome():
    want = tso_reachable_outcomes(LB)
    got = axiomatic_outcomes(LB)
    assert (1, 1) not in got
    assert got == want


def test_iriw_matches_simulator():
    iriw = [
        [("store", X, 1)],
        [("store", Y, 1)],
        [("load", X), ("load", Y)],
        [("load", Y), ("load", X)],
    ]
    want = tso_reachable_outcomes(iriw)
    got = axiomatic_outcomes(iriw)
    assert (1, 0, 1, 0) not in got
    assert got == want


# --------------------------------------------------------------------------
# Derived sets
# --------------------------------------------------------------------------


def test_derived_sets_crash_free():
    x = build_execution([[store(X, 1, thread=0)]], locs=(X,))
    ds = derive_sets(x)
    assert not any(ds.eb.rows)
    assert bin(ds.W).count("1") == 2  # init store + the store
    assert ds.R == 0
    assert ds.ALLOC and ds.D & ds.W == ds.W


def test_derived_sets_two_eras():
    x = build_execution([[store(X, 1, thread=0)], [load(X, 1, thread=5)]], locs=(X,), crash_after=1)
    ds = derive_sets(x)
    # every pre-crash event is era-before every post-crash event
    post = [e for e in x.events if x.lab[e].method == "load"]
    pre = [e for e in x.events if x.lab[e].method in ("store", "alloc")]
    for a in pre:
        for b in post:
            assert ds.eb.rows[a] >> b & 1


# --------------------------------------------------------------------------
# Witness search basics
# --------------------------------------------------------------------------


def test_empty_execution_all_axioms_pass():
    x = Execution(PlainExecution([], []))
    w = search_px86_witness(x)
    assert w == Px86Witness(frozenset(), frozenset(), frozenset(), frozenset())
    rep = check_px86_axioms(x, w)
    assert all(rep[k] for k in rep)


def test_same_thread_store_load():
    x = build_execution([[store(X, 1, thread=0), load(X, 1, thread=0)]], locs=(X,))
    assert px86_consistent(x)


def test_load_without_matching_store():
    x = build_execution([[load(X, 7, thread=0)]], locs=(X,))
    assert search_px86_witness(x) is None
    assert not px86_consistent(x)


def test_same_thread_stale_read_forbidden():
    x = build_execution([[store(X, 1, thread=0), load(X, 0, thread=0)]], locs=(X,))
    assert not px86_consistent(x)


def test_store_fo_sfence_crash_load_consistent():
    pre = [store(X, 1, thread=0), fo(X, thread=0), sfence(thread=0)]
    post = [load(X, 1, thread=5)]
    x = build_execution([pre, post], locs=(X,), crash_after=1)
    v = px86_consistent(x)
    assert v
    w = v.witness
    the_store = [e for e in x.events if x.lab[e] == store(X, 1, thread=0)][0]
    assert the_store in w.persisted


def test_store_fo_sfence_crash_stale_load_inconsistent():
    # the flush-opt plus store fence persisted the store: post-crash 0 is stale
    pre = [store(X, 1, thread=0), fo(X, thread=0), sfence(thread=0)]
    post = [load(X, 0, thread=5)]
    x = build_execution([pre, post], locs=(X,), crash_after=1)
    assert not px86_consistent(x)


def test_unflushed_store_readable_only_if_witness_persists_it():
    pre = [store(X, 1, thread=0)]
    x1 = build_execution([pre, [load(X, 1, thread=5)]], locs=(X,), crash_after=1)
    x0 = build_execution([pre, [load(X, 0, thread=5)]], locs=(X,), crash_after=1)
    v1 = px86_consistent(x1)
    v0 = px86_consistent(x0)
    assert v1 and v0  # both outcomes possible without a flush
    the_store = [e for e in x1.events if x1.lab[e] == store(X, 1, thread=0)][0]
    assert the_store in v1.witness.persisted
    assert the_store not in v0.witness.persisted


def test_explicitly_unpersisted_store_unreadable_after_crash():
    # P-tags present on the execution pin the witness's persisted set
    labels = [
        alloc(X, thread=9),
        store(X, 0, thread=9).with_tags({P_TAG}),
        store(X, 1, thread=0),
        CRASH,
        load(X, 1, thread=5),
    ]
    g = sequence_execution(labels)
    x = Execution(g)
    assert search_px86_witness(x) is None


def test_witness_deterministic():
    pre = [store(X, 1, thread=0), fo(X, thread=0), sfence(thread=0)]
    post = [load(X, 1, thread=5)]
    x = build_execution([pre, post], locs=(X,), crash_after=1)
    w1 = search_px86_witness(x)
    w2 = search_px86_witness(x)
    assert json.dumps(w1.to_json_dict()) == json.dumps(w2.to_json_dict())


def test_budget_exceeded():
    threads = [[store(X, 1, thread=0), load(Y, 0, thread=0)], [store(Y, 1, thread=1), load(X, 0, thread=1)]]
    x = build_execution(threads)
    v = px86_consistent(x, budget=1)
    assert v.is_budget


def test_a7_reverified_on_found_witnesses():
    threads = [[store(X, 1, thread=0), load(Y, 1, thread=0)], [store(Y, 1, thread=1), load(X, 1, thread=1)]]
    x = build_execution(threads)
    v = px86_consistent(x)
    assert v
    w = v.witness
    ds = derive_sets(x)
    for a, b in w.tso:
        if (
            ds.D >> a & 1
            and ds.D >> b & 1
            and ds.loc.get(a) is not None
            and ds.loc.get(a) == ds.loc.get(b)
            and ds.se[a] >> b & 1
        ):
            assert (a, b) in w.nvo


def test_upd_reads_latest():
    # faa on x: upd must read the tso-latest prior value
    t = [upd(X, 0, 1, thread=0), load(X, 1, thread=0)]
    x = build_execution([t], locs=(X,))
    assert px86_consistent(x)
    bad = build_execution([[upd(X, 5, 6, thread=0)]], locs=(X,))
    assert not px86_consistent(bad)


# --------------------------------------------------------------------------
# Oracle 2: brute-force witness enumeration (axioms coded independently)
# --------------------------------------------------------------------------


def oracle_px86_consistent(x):
    g = x.plain
    E = list(g.events)
    lab = g.lab
    po = g.po
    hb = x.hb
    crashes = [e for e in E if lab[e].is_crash]
    eb = {(a, b) for a in E for b in E for c in crashes if (a, c) in po and (c, b) in po}
    se = {(a, b) for a in E for b in E if (a, b) not in eb and (b, a) not in eb}
    ehb = {(a, b) for (a, b) in hb if (a, b) not in po and (b, a) not in po}

    def cls(e):
        return lab[e].method

    R = [e for e in E if cls(e) == "load"]
    W = [e for e in E if cls(e) == "store"]
    U = [e for e in E if cls(e) == "upd"]
    FL = [e for e in E if cls(e) == "flush"]
    FO = [e for e in E if cls(e) == "fo"]
    MF = [e for e in E if cls(e) == "mfence"]
    SF = [e for e in E if cls(e) == "sfence"]
    AL = [e for e in E if cls(e) == "alloc"]
    D = set(W) | set(U) | set(FL) | set(FO) | set(AL)

    def locof(e):
        l = lab[e]
        if l.method == "alloc":
            return l.ret
        if l.method in ("store", "load", "upd", "flush", "fo"):
            return l.args[0]
        return None

    readers = sorted(set(R) | set(U))
    wu = sorted(set(W) | set(U))
    cands = {}
    for r in readers:
        v = value_read(lab[r])
        opts = [
            w
            for w in wu
            if w != r and locof(w) == locof(r) and (value_written(lab[w]) == v or v is BOT)
            and (r, w) not in eb
        ]
        if not opts:
            return False
        cands[r] = opts

    explicit = {e for e in E if P_TAG in lab[e].tags}

    for rf_combo in itertools.product(*(cands[r] for r in readers)) if readers else [()]:
        rf = {(w, r) for r, w in zip(readers, rf_combo)}
        if any((w, r) in eb and (w, r) not in po for (w, r) in rf):
            continue
        # forced tso edges straight from the axiom statements
        forced = set()
        for a in E:
            for b in E:
                if (a, b) not in po or (a, b) not in se:
                    continue
                if b in MF or b in U:
                    forced.add((a, b))
                if a in MF or a in U or a in R:
                    forced.add((a, b))
                if b in SF:
                    forced.add((a, b))
                if a in SF and b not in R:
                    forced.add((a, b))
                if (a in W or a in FL) and (b in W or b in FL):
                    forced.add((a, b))
                if locof(a) is not None and locof(a) == locof(b):
                    if (a in FL and b in FO) or (a in FO and b in FL) or (a in W and b in FO):
                        forced.add((a, b))
        forced |= {(w, r) for (w, r) in rf if (w, r) not in po}
        for perm in itertools.permutations(wu):
            order = {e: i for i, e in enumerate(perm)}
            chain = {(perm[i], perm[j]) for i in range(len(perm)) for j in range(i + 1, len(perm))}
            tso = closure(forced | chain)
            if not is_irreflexive(tso):
                continue
            if any((b, a) in eb for (a, b) in tso):
                continue
            if not is_irreflexive(closure(set(hb) | set(tso))):
                continue
            tso_se = {p for p in tso if p in se}
            po_se = {p for p in po if p in se}
            # A2 (same-era hypothesis, era-spanning conclusion)
            ok = True
            for (wr, r) in rf:
                for w2 in wu:
                    if locof(w2) != locof(wr):
                        continue
                    if ((w2, r) in tso_se or (w2, r) in po_se) and (wr, w2) in tso:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            # nvo lower bounds (A7, A8, A9)
            req = set()
            for a, b in tso_se:
                if a in D and b in D and locof(a) is not None and locof(a) == locof(b):
                    req.add((a, b))
            for a in D:
                for b in set(FO) | set(FL):
                    if locof(a) == locof(b) and ((a, b) in tso or (a, b) in ehb) and (a, b) in se:
                        req.add((a, b))
            for f in FL:
                for d in D:
                    if (f, d) in tso_se:
                        req.add((f, d))
            for f in FO:
                for m in set(MF) | set(SF) | set(U):
                    if (f, m) in po and (f, m) in se:
                        for d in D:
                            if (m, d) in tso_se:
                                req.add((f, d))
            nvo = closure(req)
            if not is_irreflexive(nvo) or any((b, a) in eb for (a, b) in nvo):
                continue
            # P: exhaustive over all subsets of D
            forced_p = set()
            for f in FL:
                if lab[f].is_complete:
                    forced_p.add(f)
            for f in FO:
                if any(
                    (f, m) in po and (f, m) in se and lab[m].is_complete
                    for m in set(MF) | set(SF) | set(U)
                ):
                    forced_p.add(f)
            dl = sorted(D)
            for bits in itertools.product([0, 1], repeat=len(dl)):
                P = {e for e, b in zip(dl, bits) if b}
                if explicit and P != explicit:
                    continue
                if not forced_p <= P:
                    continue
                if any(b in P and a not in P for (a, b) in nvo):
                    continue
                good = True
                for (wr, r) in rf:
                    if (wr, r) not in eb:
                        continue
                    if wr not in P:
                        good = False
                        break
                    for w2 in wu:
                        if w2 in P and locof(w2) == locof(wr) and (wr, w2) in nvo and (w2, r) in eb:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    return True
    return False


def _small_two_era_graphs():
    """A deterministic family of 2-era graphs with at most 6 events."""
    graphs = []
    base = [alloc(X, thread=9), store(X, 0, thread=9)]
    for pre, post in [
        ([store(X, 1, thread=0)], [load(X, 1, thread=5)]),
        ([store(X, 1, thread=0)], [load(X, 0, thread=5)]),
        ([store(X, 1, thread=0), flush(X, thread=0)], [load(X, 0, thread=5)]),
        ([store(X, 1, thread=0), flush(X, thread=0)], [load(X, 1, thread=5)]),
        ([store(X, 1, thread=0), fo(X, thread=0)], [load(X, 0, thread=5)]),
        ([store(X, 1, thread=0), fo(X, thread=0), sfence(thread=0)], [load(X, 0, thread=5)]),
        ([upd(X, 0, 1, thread=0)], [load(X, 1, thread=5)]),
        ([store(X, 1, thread=0)], [store(X, 2, thread=5), load(X, 1, thread=5)]),
    ]:
        g = sequence_execution(base + pre + [CRASH] + post)
        graphs.append(Execution(g))
    return graphs


def test_new_axiom_matches_brute_force_on_two_era_graphs():
    for x in _small_two_era_graphs():
        got = bool(px86_consistent(x, budget=500_000))
        want = oracle_px86_consistent(x)
        assert got == want, f"disagreement on {x!r}"


def test_completed_flush_forces_persistence():
    # store;flush complete, then post-crash stale read must be inconsistent
    labels = [alloc(X, thread=9), store(X, 0, thread=9), store(X, 1, thread=0), flush(X, thread=0), CRASH, load(X, 0, thread=5)]
    x = Execution(sequence_execution(labels))
    assert not px86_consistent(x)
    assert not oracle_px86_consistent(x)


def test_axiom_report_names_failure():
    # force a witness violating A2 and check the report names it with an edge
    x = build_execution([[store(X, 1, thread=0), load(X, 0, thread=0)]], locs=(X,))
    ds = derive_sets(x)
    init = [e for e in x.events if x.lab[e].args[:2] == (X, 0) and x.lab[e].method == "store"][0]
    st1 = [e for e in x.events if x.lab[e] == store(X, 1, thread=0)][0]
    ld = [e for e in x.events if x.lab[e].method == "load"][0]
    bad = Px86Witness(
        rf=frozenset({(init, ld)}),
        tso=frozenset({(init, st1)}),
        nvo=frozenset(),
        persisted=frozenset(),
    )
    rep = check_px86_axioms(x, bad)
    assert not rep["A2"]
    assert "coherence" in rep["A2"].reason and str(init) in rep["A2"].reason


# --------------------------------------------------------------------------
# Differential test: the bit-row search and axiom report against the
# pair-set implementation they replaced
# --------------------------------------------------------------------------


def _ref_sets(x):
    """The derived sets with eb, se and ehb as pair sets, as the pair-set
    implementation held them."""
    ds = derive_sets(x)
    classes = {k: frozenset(bits(getattr(ds, k))) for k in ("R", "W", "U", "FL", "FO", "MF", "SF", "D", "WU")}
    eb = era_before(x.plain)
    se = frozenset(
        (a, b) for a in x.events for b in x.events if (a, b) not in eb and (b, a) not in eb
    )
    ehb = frozenset((a, b) for (a, b) in x.hb if (a, b) not in x.po and (b, a) not in x.po)
    return SimpleNamespace(
        loc=ds.loc,
        eb=eb,
        se=se,
        ehb=ehb,
        wux=lambda lx: frozenset(e for e in classes["WU"] if ds.loc.get(e) == lx),
        **classes,
    )


def _ref_forced_tso(x, ds, rf):
    po_se = {(a, b) for (a, b) in x.po if (a, b) in ds.se}
    forced = set()
    mf_u = ds.MF | ds.U
    for a, b in po_se:
        if b in mf_u or a in (mf_u | ds.R):
            forced.add((a, b))  # A3
        if b in ds.SF or (a in ds.SF and b not in ds.R):
            forced.add((a, b))  # A4
        if a in (ds.W | ds.FL) and b in (ds.W | ds.FL):
            forced.add((a, b))  # A5
        if ds.loc.get(a) is not None and ds.loc.get(a) == ds.loc.get(b):
            if (a in ds.FL and b in ds.FO) or (a in ds.FO and b in ds.FL) or (a in ds.W and b in ds.FO):
                forced.add((a, b))  # A6
    for w, r in rf:
        if (w, r) not in x.po:
            forced.add((w, r))  # A1
    return forced


def _ref_axiom_a2(x, ds, rf, tso):
    tso_se = {(a, b) for (a, b) in tso if (a, b) in ds.se}
    po_se = {(a, b) for (a, b) in x.po if (a, b) in ds.se}
    for w, r in sorted(rf):
        for w2 in sorted(ds.wux(ds.loc.get(w))):
            if ((w2, r) in tso_se or (w2, r) in po_se) and (w, w2) in tso:
                return (w, r, w2)
    return None


def _ref_nvo_required(x, ds, tso):
    tso_se = {(a, b) for (a, b) in tso if (a, b) in ds.se}
    req = set()
    for a, b in tso_se:  # A7
        if a in ds.D and b in ds.D and ds.loc.get(a) is not None and ds.loc.get(a) == ds.loc.get(b):
            req.add((a, b))
    for a, b in {(a, b) for (a, b) in (set(tso) | set(ds.ehb)) if (a, b) in ds.se}:  # A8
        if a in ds.D and (b in ds.FO or b in ds.FL) and ds.loc.get(a) == ds.loc.get(b):
            req.add((a, b))
    for f in ds.FL:  # A9
        req |= {(f, d) for d in ds.D if (f, d) in tso_se}
    for f in ds.FO:
        for g_ in ds.MF | ds.SF | ds.U:
            if (f, g_) in x.po and (f, g_) in ds.se:
                req |= {(f, d) for d in ds.D if (g_, d) in tso_se}
    return req


def _ref_forced_persists(x, ds):
    out = {f for f in ds.FL if x.lab[f].is_complete}
    for f in ds.FO:
        if any(
            (f, g_) in x.po and (f, g_) in ds.se and x.lab[g_].is_complete
            for g_ in ds.MF | ds.SF | ds.U
        ):
            out.add(f)
    return out


def ref_check_px86_axioms(x, w):
    ds = _ref_sets(x)
    tso, nvo, rf, P = w.tso, w.nvo, w.rf, w.persisted
    out = {}
    hb_tso = closure(set(x.hb) | set(tso))
    rf_ok = all(((a, b) in tso and (a, b) in ds.se) or (a, b) in x.po for (a, b) in rf)
    out["A1"] = (bool(is_irreflexive(hb_tso) and rf_ok), "hb ∪ tso cyclic or rf ⊄ tsoSE ∪ po")
    bad = _ref_axiom_a2(x, ds, rf, tso)
    out["A2"] = (bad is None, f"coherence violation {bad}")
    missing = [e for e in _ref_forced_tso(x, ds, frozenset()) if e not in tso]
    out["A3-A6"] = (not missing, f"missing tso edges {sorted(missing)[:4]}")
    missing_nvo = [e for e in _ref_nvo_required(x, ds, tso) if e not in nvo]
    out["A7-A9"] = (not missing_nvo, f"missing nvo edges {sorted(missing_nvo)[:4]}")
    out["P-closure"] = (all(a in P for (a, b) in nvo if b in P), "dom(nvo;[P]) ⊄ P")
    forced_p = _ref_forced_persists(x, ds)
    out["P-forcing"] = (forced_p <= P, f"unpersisted completed flush {sorted(forced_p - P)}")
    new_bad = None
    for wr, r in sorted(rf):
        if (wr, r) not in ds.eb:
            continue
        if wr not in P:
            new_bad = (wr, r, "source not persisted")
            break
        for w2 in sorted(ds.wux(ds.loc.get(wr))):
            if w2 in P and (wr, w2) in nvo and (w2, r) in ds.eb:
                new_bad = (wr, r, f"persisted {w2} intervenes")
                break
        if new_bad:
            break
    out["new"] = (new_bad is None, f"cross-era read {new_bad}")
    era_ok = all((b, a) not in ds.eb for rel in (rf, tso, nvo) for (a, b) in rel)
    out["era"] = (era_ok, "relation points backwards in era order")
    # a passing axiom carries no reason
    return {k: (ok, "" if ok else reason) for k, (ok, reason) in out.items()}


def ref_search_px86_witness(x, budget=200_000):
    ds = _ref_sets(x)
    era = x.plain.era_of()
    explicit_p = frozenset(e for e in x.events if P_TAG in x.lab[e].tags)
    cands = {}
    for r in sorted(ds.R | ds.U):
        v = value_read(x.lab[r])
        opts = [
            w
            for w in sorted(ds.WU)
            if w != r
            and ds.loc.get(w) == ds.loc.get(r)
            and (v is BOT or value_written(x.lab[w]) == v)
            and (r, w) not in ds.eb
        ]
        if not opts:
            return None
        cands[r] = opts
    reads = sorted(cands)
    wu = sorted(ds.WU)
    wu_eras = [era[e] for e in wu]
    steps = [0]

    def spend():
        steps[0] += 1
        if steps[0] > budget:
            raise BudgetExceeded({"steps": steps[0]})

    for rf_combo in itertools.product(*(cands[r] for r in reads)):
        spend()
        rf = frozenset((w, r) for r, w in zip(reads, rf_combo))
        if any((w, r) not in x.po and (w, r) in ds.eb for (w, r) in rf):
            continue
        forced = _ref_forced_tso(x, ds, rf)
        base = Order.close(len(x.events), forced)
        if not base.is_acyclic():
            continue
        base_wu = base.restrict(wu)
        if any(wu_eras[a] > wu_eras[b] for a, b in base_wu.pairs):
            continue
        for ext in linear_extensions(base_wu, wu_eras):
            spend()
            perm = [wu[i] for i in ext]
            tso = closure(set(forced) | set(zip(perm, perm[1:])))
            if not is_irreflexive(tso) or any((b, a) in ds.eb for (a, b) in tso):
                continue
            if not is_irreflexive(closure(set(x.hb) | set(tso))):
                continue
            if _ref_axiom_a2(x, ds, rf, tso) is not None:
                continue
            nvo = closure(_ref_nvo_required(x, ds, tso))
            if not is_irreflexive(nvo) or any((b, a) in ds.eb for (a, b) in nvo):
                continue
            needed = {w for (w, r) in rf if (w, r) in ds.eb} | _ref_forced_persists(x, ds)
            if explicit_p and not needed <= explicit_p:
                continue
            p_set = set(explicit_p or needed)
            changed = True
            while changed:
                changed = False
                for a, b in nvo:
                    if b in p_set and a not in p_set:
                        p_set.add(a)
                        changed = True
            if explicit_p and p_set != explicit_p:
                continue
            if not p_set <= ds.D:
                continue
            if any(
                w2 in p_set and (w, w2) in nvo and (w2, r) in ds.eb
                for (w, r) in rf
                if (w, r) in ds.eb
                for w2 in ds.wux(ds.loc.get(w))
            ):
                continue
            return Px86Witness(rf, frozenset(tso), frozenset(nvo), frozenset(p_set))
    return None


_DURABLE = ("store", "upd", "flush", "fo", "alloc")


@st.composite
def _px86_label(draw, thread):
    kind = draw(st.sampled_from(("store", "store", "load", "load", "upd", "flush", "fo", "mfence", "sfence", "alloc")))
    x = draw(st.sampled_from((X, Y)))
    v, v2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    l = {
        "store": lambda: store(x, v, thread),
        "load": lambda: load(x, v, thread),
        "upd": lambda: upd(x, v, v2, thread),
        "flush": lambda: flush(x, thread),
        "fo": lambda: fo(x, thread),
        "mfence": lambda: mfence(thread),
        "sfence": lambda: sfence(thread),
        "alloc": lambda: alloc(x, thread),
    }[kind]()
    if kind in _DURABLE and draw(st.integers(0, 3)) == 0:
        l = l.with_tags({P_TAG})
    return l


@st.composite
def small_px86_executions(draw):
    """At most 7 events, 0-1 crash, locations X and Y, random P tags; the
    last call of a thread may be incomplete, and one sw edge between two
    threads may be added."""
    crash = draw(st.booleans())
    eras = [[[], []], [[]]] if crash else [[[], []]]
    for _ in range(draw(st.integers(1, 6 if crash else 7))):
        era = draw(st.integers(0, len(eras) - 1))
        t = draw(st.integers(0, len(eras[era]) - 1))
        eras[era][t].append(draw(_px86_label(thread=2 * era + t)))
    for chains in eras:
        for chain in chains:
            if chain and draw(st.integers(0, 3)) == 0:
                chain[-1] = replace(chain[-1], ret=BOT)
    g = parallel_execution(*eras[0])
    if crash:
        g = seq_compose(seq_compose(g, sequence_execution([CRASH])), parallel_execution(*eras[1]))
    sw = [
        (a, b)
        for a in g.events
        for b in g.events
        if g.lab[a].is_call and g.lab[b].is_call and g.lab[a].thread != g.lab[b].thread and (b, a) not in g.po
    ]
    return Execution(g, sw=[draw(st.sampled_from(sw))] if sw and draw(st.booleans()) else [])


def _outcome(search, x, budget):
    try:
        w = search(x, budget)
    except BudgetExceeded:
        return "budget"
    return None if w is None else (w.rf, w.tso, w.nvo, w.persisted)


def _report(x, w):
    return {k: (bool(v), v.reason) for k, v in check_px86_axioms(x, w).items()}


@settings(max_examples=1000, deadline=None)
@given(small_px86_executions())
# shapes the generator rarely draws: fo before a flush elsewhere (A6), a
# post-crash read of a write overwritten before the crash (A2 is same-era),
# a store synchronizing with another thread's flush (A8 on external hb), and
# two post-crash reads of one store
@example(Execution(sequence_execution([store(X, 1, thread=0), fo(X, thread=0), flush(Y, thread=0)])))
@example(Execution(sequence_execution([store(X, 0, thread=0), store(X, 1, thread=0), CRASH, load(X, 0, thread=1)])))
@example(Execution(parallel_execution([store(X, 1, thread=0)], [flush(X, thread=1)]), sw=[(0, 1)]))
@example(Execution(sequence_execution([store(X, 0, thread=0), store(X, 1, thread=0), CRASH, load(X, 1, thread=1), load(X, 1, thread=1)])))
def test_row_search_matches_pair_set_reference(x):
    got = _outcome(search_px86_witness, x, 200_000)
    assert got == _outcome(ref_search_px86_witness, x, 200_000)
    assert _outcome(search_px86_witness, x, 1) == _outcome(ref_search_px86_witness, x, 1)
    if got is None or got == "budget":
        return
    w = Px86Witness(*got)
    mutants = [w]
    mutants += [replace(w, tso=w.tso - {e}) for e in w.tso]
    mutants += [replace(w, nvo=w.nvo - {e}) for e in w.nvo]
    mutants += [replace(w, persisted=w.persisted - {e}) for e in w.persisted]
    for m in mutants:
        assert _report(x, m) == ref_check_px86_axioms(x, m)


# --------------------------------------------------------------------------
# Declared value flow
# --------------------------------------------------------------------------


def test_value_flow_declaration():
    assert px86_value_flow(store(X, 1)) == (None, (X, 1))
    assert px86_value_flow(load(X, 1)) == ((X, 1), None)
    assert px86_value_flow(load(X, BOT)) == ((X, BOT), None)
    assert px86_value_flow(upd(X, 0, 1, ret=BOT)) == ((X, 0), (X, 1))
    for l in (alloc(X), flush(X), fo(X), mfence(), sfence(), CRASH):
        assert px86_value_flow(l) == (None, None)


@settings(max_examples=1000, deadline=None)
@given(small_px86_executions())
# a pending load reads BOT; an update cannot source its own read; a read of
# a write of the next era has no source
@example(Execution(sequence_execution([store(X, 1, thread=0), load(X, BOT, thread=0)])))
@example(Execution(sequence_execution([upd(X, 1, 1, thread=0)])))
@example(Execution(sequence_execution([upd(X, 1, 1, thread=0, ret=BOT), store(X, 1, thread=0)])))
@example(Execution(sequence_execution([load(X, 1, thread=0), CRASH, store(X, 1, thread=1)])))
def test_interpreter_sourcing_matches_read_candidates(x):
    # the interpreter drops exactly the runs whose reads the witness search
    # finds no candidate write for
    from persistcheck.framework import Collection
    from persistcheck.lang import ValueFlow

    flow = ValueFlow(Collection([px86_spec()]))
    assert flow.sourced(x.plain.labels()) == (_read_candidates(x, derive_sets(x)) is not None)
