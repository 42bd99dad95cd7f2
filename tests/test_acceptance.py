"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and bound is pinned here; the runtime budgets are
asserted, not merely aspired to.
"""

import random
import time
from pathlib import Path


from definitions import pomset_bind
from persistcheck.framework import (
    Collection,
    LibraryInterface,
    LibrarySpec,
    Verdict,
    check_consistent,
    check_hereditarily_consistent,
)
from persistcheck.lang import (
    InterpConfig,
    candidate_refinements,
    interpret_phases,
    link_phases,
    parse_litmus,
)
from persistcheck.libs import (
    COMMITTED,
    builtin_spec,
    flit_spec,
    ltrans_impl,
    ltrans_local_wellformed,
    mirror_spec,
    persistify_flit,
    persistify_flit_mutated,
    persistify_mirror,
    persistify_mirror_mutated,
    reg_durlin_spec,
    sc_prune_factory,
    weakreg_spec,
    durqueue_spec,
)
from persistcheck.libs import flit_impl, flit_impl_mutated_no_fo
from persistcheck.model import (
    CRASH_EV,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Pomset,
    Ret,
    iso_eq,
)
from persistcheck.px86 import px86_spec
from persistcheck.sc import (
    PFENCE,
    S_WEAKREG,
    check_durably_linearizable,
    check_linearizable,
    check_weakreg_consistent,
    happens_before,
    iter_completions,
)
from persistcheck.substitution import (
    SemanticImpl,
    exec_bind,
    find_plain_matching,
    verify_impl_bounded,
)
from persistcheck.lang import SyntacticImpl, parse_statements

ROOT = Path(__file__).resolve().parent.parent
LITMUS = ROOT / "litmus"


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# --------------------------------------------------------------------------
# 1. Worked-example classification (< 5 s)
# --------------------------------------------------------------------------


def _weakreg_history(pfence=False):
    X, Y = 10, 11
    pre = [
        Inv("rwrite", (X, 1), 1),
        Inv("rwrite", (Y, 1), 2),
        Inv("rread", (Y,), 3),
        Ret(1, 3),
        Inv("rread", (X,), 3),
        Ret(0, 3),
    ]
    if pfence:
        pre += [Inv(PFENCE, (), 4), Ret(None, 4)]
    post = [
        Inv("rread", (Y,), 5),
        Ret(0, 5),
        Inv("rread", (X,), 5),
        Ret(1, 5),
    ]
    return History(pre + [CRASH_EV] + post)


def test_acceptance_1_worked_examples():
    t0 = time.time()
    h = _weakreg_history()
    ok = bool(check_weakreg_consistent(h))
    ok = ok and not bool(check_durably_linearizable(h, S_WEAKREG))
    hf = _weakreg_history(pfence=True)
    ok = ok and not bool(check_weakreg_consistent(hf, with_pfence=True))
    elapsed = time.time() - t0
    report("1 (worked examples)", ok and elapsed < 5.0, f"{elapsed:.2f}s < 5s")


# --------------------------------------------------------------------------
# 2. Oracle equivalence on 500 histories ≤ 7 calls (< 2 min, 100%)
# --------------------------------------------------------------------------


def _oracle_linearizable(h, spec, domain=None):
    def extensions(remaining, hb):
        if not remaining:
            yield []
            return
        for i in sorted(remaining):
            if any(a in remaining for (a, b) in hb if b == i):
                continue
            for rest in extensions(remaining - {i}, hb):
                yield [i] + rest

    for hh in iter_completions(h, domain):
        calls = hh.calls()
        hb = happens_before(hh)
        for order in extensions(set(range(len(calls))), hb):
            if spec.accepts([calls[i] for i in order]):
                return True
    return False


def _random_history(rng, max_calls=7):
    events = []
    open_threads = {}
    tid = 0
    calls = 0
    while calls < max_calls and len(events) < 2 * max_calls:
        roll = rng.random()
        if open_threads and roll < 0.45:
            t = rng.choice(sorted(open_threads))
            kind = open_threads.pop(t)
            events.append(Ret(rng.choice([0, 1, 2, None]) if kind == "r" else None, t))
        elif roll < 0.92:
            if rng.random() < 0.5:
                events.append(Inv("rread", (rng.choice([10, 11]),), tid))
                open_threads[tid] = "r"
            else:
                events.append(Inv("rwrite", (rng.choice([10, 11]), rng.choice([1, 2])), tid))
                open_threads[tid] = "w"
            tid += 1
            calls += 1
        else:
            break
    # stay within the checker's configured completion budget (6 incomplete)
    while len(open_threads) > 6:
        t = sorted(open_threads)[0]
        kind = open_threads.pop(t)
        events.append(Ret(rng.choice([0, 1]) if kind == "r" else None, t))
    return History(events)


def test_acceptance_2_linearizability_oracle_agreement():
    t0 = time.time()
    rng = random.Random(20260808)
    agree = 0
    total = 500
    for _ in range(total):
        h = _random_history(rng)
        got = bool(check_linearizable(h, S_WEAKREG))
        want = _oracle_linearizable(h, S_WEAKREG)
        if got == want:
            agree += 1
    elapsed = time.time() - t0
    report(
        "2 (oracle equivalence)",
        agree == total and elapsed < 120.0,
        f"{agree}/{total} agreement, {elapsed:.1f}s < 120s",
    )


# --------------------------------------------------------------------------
# 3. Px86 sanity corpus: exact verdicts on the bundled litmus files (< 1 min)
# --------------------------------------------------------------------------


def test_acceptance_3_px86_litmus_corpus():
    from persistcheck.cli import RunConfig, cmd_check

    t0 = time.time()
    files = sorted(LITMUS.glob("*.lit"))
    assert len(files) >= 8
    failures = []
    for f in files:
        code = cmd_check(str(f), RunConfig())
        if code != 0:
            failures.append(f.name)
    elapsed = time.time() - t0
    report(
        "3 (px86 litmus corpus)",
        not failures and elapsed < 60.0,
        f"{len(files)} files, failures={failures}, {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# 4. Monad laws on 200 random pomsets; matching existence across G·I (100%)
# --------------------------------------------------------------------------


def test_acceptance_4_monad_and_matching():
    t0 = time.time()
    rng = random.Random(44)

    def rand_pomset(labels="abc", max_events=6):
        n = rng.randint(1, max_events)
        labs = [rng.choice(labels) for _ in range(n)]
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35}
        return Pomset(labs, edges)

    g_map = {l: rand_pomset("xy", 3) for l in "abc"}
    h_map = {l: rand_pomset("uv", 3) for l in "xy"}
    ok = True
    for _ in range(200):
        p = rand_pomset()
        if not iso_eq(pomset_bind(p, lambda l: Pomset([l], [])), p):
            ok = False
            break
        left = pomset_bind(pomset_bind(p, g_map.__getitem__), h_map.__getitem__)
        right = pomset_bind(p, lambda l: pomset_bind(g_map[l], h_map.__getitem__))
        if not iso_eq(left, right):
            ok = False
            break

    # matching existence on every member of G·I over the flit corpus: the
    # search finds the matching each concrete was bound by
    impl = SemanticImpl(flit_impl(), Collection([px86_spec()]), InterpConfig(domain=(0, 1), unroll=2))
    checked = 0
    for ga in _corpus_from_litmus(LITMUS / "flit", max_events=8, max_graphs=12):
        for gc, f in exec_bind(ga, impl, max_results=24):
            if find_plain_matching(gc, ga, impl, budget=50_000) != f:
                ok = False
                break
            checked += 1
        if not ok:
            break
    elapsed = time.time() - t0
    report("4 (monad/matching)", ok and checked > 50, f"{checked} matchings, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Corpus helper
# --------------------------------------------------------------------------


def _corpus_from_litmus(directory, max_events=8, max_graphs=40, include_partials=True):
    out = []
    seen = set()
    for p in sorted(Path(directory).glob("*.lit")):
        lit = parse_litmus(p.read_text(), name=p.name)
        coll = Collection([builtin_spec(n) for n in lit.collection])
        cfg = InterpConfig(domain=tuple(lit.domain) + (0, 1), unroll=2, max_runs=50_000)
        for env, g in interpret_phases(list(lit.phases), coll, cfg):
            if len(g) > max_events:
                continue
            if env is None and not include_partials:
                continue
            key = tuple(repr(l) for l in g.labels())
            if key in seen:
                continue
            seen.add(key)
            out.append(g)
            if len(out) >= max_graphs:
                return out
    return out


# --------------------------------------------------------------------------
# 5. Bounded flit correctness + mutation detection (budget 10 min)
# --------------------------------------------------------------------------


def test_acceptance_5_flit_correct_bounded():
    t0 = time.time()
    px = Collection([px86_spec()])
    high = Collection([flit_spec()])
    cfg = InterpConfig(domain=(0, 1), unroll=2)
    corpus = _corpus_from_litmus(LITMUS / "flit", max_events=8, max_graphs=40)
    assert corpus, "empty flit corpus"

    impl = SemanticImpl(flit_impl(), px, cfg)
    rep = verify_impl_bounded(impl, high, px, corpus, budget=20_000)
    genuine = sum(1 for r in rep.records if r.lifted is True)
    ok = rep.ok and genuine >= 10

    mut = SemanticImpl(flit_impl_mutated_no_fo(), px, cfg)
    rep_mut = verify_impl_bounded(mut, high, px, corpus, budget=20_000, check_wf=False)
    detected = any(r.lifted is False for r in rep_mut.records)
    elapsed = time.time() - t0
    report(
        "5 (bounded flit correctness)",
        ok and detected and elapsed < 600.0,
        f"{genuine} lifted instances, mutation detected={detected}, {elapsed:.1f}s < 600s",
    )


# --------------------------------------------------------------------------
# 6. Bounded durable-linearizability theorems for p(I) and m(I) (10 min)
# --------------------------------------------------------------------------


def _register_impl():
    return SyntacticImpl(
        name="reg",
        methods={
            "regnew": ((), parse_statements("r := alloc(); return r")),
            "regwrite": (("l", "v"), parse_statements("store(l, v)")),
            "regread": (("l",), parse_statements("v := load(l); return v")),
        },
    )


def test_acceptance_6_durlin_transformers():
    t0 = time.time()
    high = Collection([reg_durlin_spec()])
    cfg = InterpConfig(domain=(0, 1), unroll=2)

    # Flit path
    flit_low = Collection([flit_spec()])
    corpus = _corpus_from_litmus(LITMUS / "reg_flit", max_events=6, max_graphs=30)
    assert corpus
    p_impl = SemanticImpl(persistify_flit(_register_impl()), flit_low, cfg)
    rep = verify_impl_bounded(p_impl, high, flit_low, corpus, budget=20_000, check_wf=False)
    flit_ok = rep.ok and any(r.lifted is True for r in rep.records)
    p_mut = SemanticImpl(persistify_flit_mutated(_register_impl()), flit_low, cfg)
    rep_mut = verify_impl_bounded(p_mut, high, flit_low, corpus, budget=20_000, check_wf=False)
    flit_detected = any(r.lifted is False for r in rep_mut.records)

    # Mirror path
    mirror_low = Collection([mirror_spec()])
    corpus_m = _corpus_from_litmus(LITMUS / "reg_mirror", max_events=6, max_graphs=30)
    m_impl = SemanticImpl(persistify_mirror(_register_impl()), mirror_low, cfg)
    rep_m = verify_impl_bounded(m_impl, high, mirror_low, corpus_m, budget=20_000, check_wf=False)
    mirror_ok = rep_m.ok and any(r.lifted is True for r in rep_m.records)
    m_mut = SemanticImpl(persistify_mirror_mutated(_register_impl()), mirror_low, cfg)
    rep_m_mut = verify_impl_bounded(m_mut, high, mirror_low, corpus_m, budget=20_000, check_wf=False)
    mirror_detected = any(r.lifted is False for r in rep_m_mut.records)

    elapsed = time.time() - t0
    report(
        "6 (durable-linearizability transformers)",
        flit_ok and flit_detected and mirror_ok and mirror_detected and elapsed < 600.0,
        f"flit ok={flit_ok}/mut={flit_detected}, mirror ok={mirror_ok}/mut={mirror_detected}, {elapsed:.1f}s < 600s",
    )


# --------------------------------------------------------------------------
# 7. Ltrans end-to-end: undo log with crash injection (< 5 min)
# --------------------------------------------------------------------------

LTRANS_LOW = Collection([weakreg_spec(), durqueue_spec()]).freeze()


def _consistent_undo_runs(text, unroll=10, max_runs=600_000):
    lit = parse_litmus(text)
    phases = link_phases(lit.phases, ltrans_impl())
    cfg = InterpConfig(unroll=unroll, max_runs=max_runs, prune_factory=sc_prune_factory())
    out = []
    for env, g in interpret_phases(phases, LTRANS_LOW, cfg, complete_only=True):
        if env is None:
            continue
        for x in candidate_refinements(LTRANS_LOW, g):
            if check_hereditarily_consistent(LTRANS_LOW, x, budget=6_000):
                out.append((env, g))
                break
    return out


def _commit_level(g):
    """Number of transactions whose commit record landed before the crash
    (pt_end fences before appending the sentinel)."""
    era = g.era_of()
    return sum(
        1
        for e in g.events
        if g.lab[e].method == "qappend"
        and g.lab[e].args[1] == COMMITTED
        and g.lab[e].is_complete
        and era[e] == 0
    )


def test_acceptance_7_ltrans_end_to_end():
    t0 = time.time()
    problems = []

    # (a) + (b), one transaction with two writes: committed -> both values;
    # never a mixed (partial) observation
    runs = _consistent_undo_runs(
        """
collection ltrans
globals
  a := pt_new()
  b := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_write(b, 2); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a); r2 := pt_read(b)
"""
    )
    assert runs, "no consistent undo-log runs"
    committed_seen = False
    for env, g in runs:
        pair = (env["r1"], env["r2"])
        if _commit_level(g) >= 1:
            committed_seen = True
            if pair != (1, 2):
                problems.append(f"(a) committed transaction read back {pair}")
        else:
            # an incomplete commit append may still take effect, but only
            # atomically: all-new or all-old, never a mixture
            if pair not in {(0, 0), (1, 2)}:
                problems.append(f"(b) partial observation {pair}")
    if not committed_seen:
        problems.append("(a) no committed run reached")

    # two transactions x two writes, crash anywhere: reads reflect a prefix
    # of the committed transactions, never a mixture inside one
    runs2 = _consistent_undo_runs(
        """
collection ltrans
globals
  a := pt_new()
  b := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_write(b, 2); pt_end(); pt_begin(); pt_write(a, 3); pt_write(b, 4); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a); r2 := pt_read(b)
""",
        unroll=12,
    )
    # reads must reflect a prefix of the transactions, at least as long as
    # the complete-sentinel count (incomplete commits may round up)
    prefix_states = [(0, 0), (1, 2), (3, 4)]
    allowed = {lvl: set(prefix_states[lvl:]) for lvl in range(3)}
    levels_seen = set()
    for env, g in runs2:
        lvl = _commit_level(g)
        levels_seen.add(lvl)
        pair = (env["r1"], env["r2"])
        if pair not in allowed[lvl]:
            problems.append(f"level {lvl} observed {pair}")
    if not {0, 1, 2} <= levels_seen:
        problems.append(f"commit levels reached: {sorted(levels_seen)}")

    # (c) recovery omitted: the abstract history is flagged ill-formed
    lit = parse_litmus(
        """
collection ltrans
globals
  a := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_end()
crash
program
  t5: pt_begin(); r := pt_read(a); pt_end()
"""
    )
    abstract = Collection([builtin_spec("ltrans")])
    cfg = InterpConfig(unroll=4, max_runs=50_000)
    flagged = None
    for env, g in interpret_phases(list(lit.phases), abstract, cfg):
        if env is None:
            continue
        v = ltrans_local_wellformed(Execution(g))
        flagged = (not v) and "cond 4" in v.reason
        break
    if not flagged:
        problems.append("(c) recovery-omitted run not flagged by condition 4")

    elapsed = time.time() - t0
    report(
        "7 (undo-log end to end)",
        not problems and elapsed < 300.0,
        f"{len(runs)}+{len(runs2)} consistent runs, {elapsed:.1f}s < 300s; problems={problems[:3]}",
    )


# --------------------------------------------------------------------------
# 8. Hereditary consistency soundness on 200 generated executions (100%)
# --------------------------------------------------------------------------


def _random_execution(rng):
    """Random crash-aware weak-register execution plus occasional events of a
    size-parity toy library (to exercise non-prefix-closed consistency)."""
    n = rng.randint(0, 8)
    labels = []
    threads = [0, 1]
    for i in range(n):
        roll = rng.random()
        t = rng.choice(threads)
        if roll < 0.1:
            labels.append(Label(None))  # crash
        elif roll < 0.4:
            labels.append(Label("rwrite", (10, rng.choice([1, 2])), None, frozenset(), t))
        elif roll < 0.7:
            labels.append(Label("rread", (10,), rng.choice([0, 1, 2]), frozenset(), t))
        else:
            labels.append(Label("tok", (), None, frozenset(), t))
    # per-thread chains; crashes ordered after every earlier event
    edges = []
    last = {}
    for i, l in enumerate(labels):
        if l.is_crash:
            for j in range(i):
                edges.append((j, i))
            for t in list(last):
                last[t] = i
            last["crash"] = i
            continue
        key = l.thread
        if key in last:
            edges.append((last[key], i))
        if "crash" in last:
            edges.append((last["crash"], i))
        last[key] = i
    try:
        return Execution(PlainExecution(labels, edges))
    except ValueError:
        return None


def test_acceptance_8_hereditary_soundness():
    t0 = time.time()
    even_tok = LibrarySpec(
        interface=LibraryInterface(name="tok", methods={"tok": 0}),
        local_consistent=lambda x: Verdict.ok() if len(x) % 2 == 0 else Verdict.fail("odd"),
    )
    coll = Collection([weakreg_spec(), even_tok])
    rng = random.Random(88)
    total = 0
    ok = True
    while total < 200:
        x = _random_execution(rng)
        if x is None:
            continue
        total += 1
        v = check_hereditarily_consistent(coll, x, budget=4_000)
        if v.is_budget:
            continue
        if v:
            if not check_consistent(coll, x):
                ok = False
                break
            for step in v.witness:
                if not check_consistent(coll, step):
                    ok = False
                    break
            sizes = [len(s) for s in v.witness]
            if sizes != list(range(len(x) + 1)):
                ok = False
            if not ok:
                break
    elapsed = time.time() - t0
    report("8 (hereditary soundness)", ok and total == 200, f"{total} executions, {elapsed:.1f}s")


def test_acceptance_7_grid_small_shapes():
    """The remaining cells of the ≤2-transactions x ≤2-writes grid."""
    t0 = time.time()
    problems = []
    # 1 transaction x 1 write
    runs = _consistent_undo_runs(
        """
collection ltrans
globals
  a := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a)
"""
    )
    for env, g in runs:
        want = {(1,)} if _commit_level(g) >= 1 else {(0,), (1,)}
        if (env["r1"],) not in want:
            problems.append(f"1x1 level {_commit_level(g)}: {env['r1']}")
    # 2 transactions x 1 write each (to distinct registers)
    runs = _consistent_undo_runs(
        """
collection ltrans
globals
  a := pt_new()
  b := pt_new()
program
  t0: pt_begin(); pt_write(a, 1); pt_end(); pt_begin(); pt_write(b, 2); pt_end()
crash
program
  t5: pt_recover(); r1 := pt_read(a); r2 := pt_read(b)
""",
        unroll=10,
    )
    states = [(0, 0), (1, 0), (1, 2)]
    for env, g in runs:
        lvl = _commit_level(g)
        pair = (env["r1"], env["r2"])
        if pair not in set(states[lvl:]):
            problems.append(f"2x1 level {lvl}: {pair}")
    elapsed = time.time() - t0
    report("7b (undo-log grid)", not problems and elapsed < 300.0, f"{elapsed:.1f}s; problems={problems[:3]}")
