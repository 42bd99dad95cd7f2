"""The execution builders that ``model.seq_compose`` on closed rows replaced,
kept verbatim as test references: the pair-set ``seq_compose``, the
pair-scanning ``down_sets`` and ``history_to_execution``, the interpreter's
hand-written ``build`` (here a function of the interpretation) and
``_glue_crash``, ``interpret_phases`` with its ``repr``-keyed deduplication,
and the lock library's permutation sw hook."""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from persistcheck.lang import (
    Collection,
    InterpConfig,
    Interpretation,
    ParseError,
    Prog,
    ThreadRun,
    ValueFlow,
)
from persistcheck.model import CRASH, CrashEv, Edge, Execution, History, Label, PlainExecution


def seq_compose(g1: PlainExecution, g2: PlainExecution) -> PlainExecution:
    """Sequential composition G1;G2.

    Every complete G1 event precedes every G2 event, and every G1 event
    precedes every G2 crash; the result is the transitive closure.
    """
    n1 = len(g1)
    labels = g1.labels() + g2.labels()
    edges: Set[Edge] = set(g1.po_reduced)
    edges |= {(a + n1, b + n1) for a, b in g2.po_reduced}
    for a in g1.events:
        for b in g2.events:
            if g1.lab[a].is_complete or g2.lab[b].is_crash:
                edges.add((a, b + n1))
    return PlainExecution(labels, edges)


def down_sets(g: PlainExecution) -> List[FrozenSet[int]]:
    """All po-down-closed event subsets, smallest first (deterministic)."""
    po = g.po
    preds = {e: frozenset(a for a, b in po if b == e) for e in g.events}
    found: Set[FrozenSet[int]] = {frozenset(g.events)}
    frontier = [frozenset(g.events)]
    while frontier:
        cur = frontier.pop()
        for e in cur:
            if not any((e, x) in po for x in cur):
                nxt = cur - {e}
                if nxt not in found:
                    found.add(nxt)
                    frontier.append(nxt)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def history_to_execution(h: History) -> Execution:
    """Single-event calls with po per thread and hb = return-precedes-invocation.

    Crash markers become crash events acting as both invocation and return.
    """
    calls = h.calls()
    crash_positions = [i for i, e in enumerate(h.events) if isinstance(e, CrashEv)]
    labels: List[Label] = []
    spans: List[Tuple[float, float]] = []  # (start, end) indices in h
    threads: List[Optional[int]] = []
    for c in calls:
        labels.append(c.label())
        spans.append((c.start, c.end))
        threads.append(c.thread)
    for p in crash_positions:
        labels.append(CRASH)
        spans.append((p, p))
        threads.append(None)
    n = len(labels)
    hb = set()
    for i in range(n):
        for j in range(n):
            if i != j and spans[i][1] < spans[j][0]:
                hb.add((i, j))
    po = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_thread = threads[i] is not None and threads[i] == threads[j]
            crash_pair = threads[i] is None or threads[j] is None
            if (same_thread or crash_pair) and spans[i][1] < spans[j][0]:
                po.add((i, j))
    plain = PlainExecution(labels, po)
    return Execution(plain, sw=(), hb=hb | po)


def build(self, combo: Sequence[ThreadRun]) -> PlainExecution:
    """The execution of one run per thread (in thread-id order), after the
    globals trace."""
    labels: List[Label] = list(self.globals_trace)
    edges: List[Tuple[int, int]] = [(i, i + 1) for i in range(len(labels) - 1)]
    base_end = len(labels)
    for run in combo:
        start = len(labels)
        labels.extend(run.trace)
        edges.extend((i, i + 1) for i in range(start, len(labels) - 1))
        for g in range(base_end):
            if labels[g].is_complete and start < len(labels):
                edges.append((g, start))
    return PlainExecution(labels, edges)


def _glue_crash(g1: PlainExecution, g2: PlainExecution) -> PlainExecution:
    """g1 · Crash · g2 built on the reduced program order directly: maximal
    g1 events feed the crash, the crash feeds minimal g2 events (complete-
    event bipartite edges are implied transitively through the crash)."""
    n1 = len(g1)
    crash_id = n1
    labels = g1.labels() + [CRASH] + g2.labels()
    edges = set(g1.po_reduced)
    not_max = {a for a, _ in g1.po_reduced}
    for e in g1.events:
        if e not in not_max:
            edges.add((e, crash_id))
    off = n1 + 1
    edges |= {(a + off, b + off) for a, b in g2.po_reduced}
    not_min = {b for _, b in g2.po_reduced}
    for e in g2.events:
        if e not in not_min:
            edges.add((crash_id, e + off))
    return PlainExecution(labels, edges)


def interpret_phases(
    phases: Sequence[Prog],
    coll: Collection,
    config: InterpConfig = InterpConfig(),
    complete_only: bool = False,
) -> List[Tuple[Optional[Dict[str, object]], PlainExecution]]:
    """Explicit crash-separated phases.  Later phases share the first phase's
    global bindings (initializers run once).  With ``complete_only`` the
    final era contributes only complete runs (the partial tail of the
    top-level semantics is skipped).

    With ``complete_only``, if some library of ``coll`` declares its value
    flow, only sourced runs are built: a thread run of era ``i`` is dropped
    before the product if one of its reads is written by no trace of the
    globals or of an era up to ``i``, and each assembled run must pass
    :meth:`ValueFlow.sourced` before it is glued."""
    factory = config.prune_factory or (lambda coll, earlier: None)
    first = Interpretation(phases[0], coll, config, prune=factory(coll, []))
    interps: List[Interpretation] = [first]
    later_config = config.with_domain(first.domain)
    for p in phases[1:]:
        if p.globals:
            raise ParseError("only the first phase may declare globals")
        interps.append(
            Interpretation(
                p,
                coll,
                later_config,
                globals_env=dict(first.globals_env),
                loc_start=first.loc_after_globals,
                prune=factory(coll, interps[:]),
            )
        )
    n = len(interps)
    declared = any(s.interface.value_flow is not None for s in coll.specs())
    flow = ValueFlow(coll) if complete_only and declared else None
    written = flow.writes([first.globals_trace]) if flow else set()
    # per era: (outcome env or None, the chosen thread runs)
    eras: List[List[Tuple[Optional[Dict[str, object]], Tuple[ThreadRun, ...]]]] = []
    for i, it in enumerate(interps):
        final = i == n - 1
        runs: List[Tuple[Optional[Dict[str, object]], Tuple[ThreadRun, ...]]] = []
        kinds = ((True,) if complete_only else (True, False)) if final else (False,)
        for complete in kinds:
            choices = it.thread_choices(complete)
            if flow:
                written |= flow.writes(r.trace for rs in choices for r in rs)
                choices = [[r for r in rs if flow.reads_within(r.trace, written)] for rs in choices]
            runs.extend((it.outcome(c) if complete else None, c) for c in itertools.product(*choices))
        eras.append(runs)
    graphs: Dict[Tuple[int, int], PlainExecution] = {}
    out: List[Tuple[Optional[Dict[str, object]], PlainExecution]] = []

    def rec(i: int, acc: Optional[PlainExecution], acc_labels: Tuple[Label, ...]):
        for j, (env, combo) in enumerate(eras[i]):
            labels = acc_labels
            if flow:
                labels += ((CRASH,) if i else ()) + interps[i].labels(combo)
                if not flow.sourced(labels):
                    continue
            if (i, j) not in graphs:
                graphs[i, j] = build(interps[i], combo)
            g = graphs[i, j]
            g = g if acc is None else _glue_crash(acc, g)
            if i == n - 1:
                out.append((env, g))
            else:
                rec(i + 1, g, labels)

    rec(0, None, ())
    # deduplicate identical executions (same labels and po)
    seen = {}
    uniq = []
    for env, g in out:
        env_key = None if env is None else tuple(sorted(env.items(), key=repr))
        key = (tuple(repr(l) for l in g.labels()), g.po_reduced, env_key)
        if key in seen:
            continue
        seen[key] = True
        uniq.append((env, g))
    return uniq


def _lock_sw_hook(g: PlainExecution) -> Sequence[FrozenSet[Tuple[int, int]]]:
    """Interleavings of critical sections: per era, per-thread (acq[,rel])
    sections ordered every possible way, rel -> next acq edges proposed."""
    era = g.era_of()
    n_eras = len(g.crash_events()) + 1
    per_era_sections: List[List[List[int]]] = []
    for k in range(n_eras):
        sections: List[List[int]] = []
        by_thread: Dict[int, List[int]] = {}
        for e in g.events:
            if era[e] == k and g.lab[e].method in ("lacq", "lrel"):
                by_thread.setdefault(g.lab[e].thread, []).append(e)
        for t, evs in sorted(by_thread.items(), key=lambda kv: repr(kv[0])):
            cur: List[int] = []
            for e in sorted(evs):
                cur.append(e)
                if g.lab[e].method == "lrel":
                    sections.append(cur)
                    cur = []
            if cur:
                sections.append(cur)
        per_era_sections.append(sections)
    options_per_era: List[List[FrozenSet[Tuple[int, int]]]] = []
    for sections in per_era_sections:
        if len(sections) <= 1:
            options_per_era.append([frozenset()])
            continue
        opts = []
        for perm in itertools.permutations(range(len(sections))):
            edges = set()
            ok = True
            for i in range(len(perm) - 1):
                last = sections[perm[i]][-1]
                nxt = sections[perm[i + 1]][0]
                if g.lab[last].method != "lrel":
                    ok = False  # only closed sections can precede others
                    break
                edges.add((last, nxt))
            if ok:
                opts.append(frozenset(edges))
        options_per_era.append(opts or [frozenset()])
    out = []
    seen = set()
    for combo in itertools.product(*options_per_era):
        merged = frozenset().union(*combo) if combo else frozenset()
        if merged not in seen:
            seen.add(merged)
            out.append(merged)
    return out
