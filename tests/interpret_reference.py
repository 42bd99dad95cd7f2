"""``lang.interpret_phases`` as it was before it deduplicated each thread's
runs per era, kept verbatim as a test reference: it glues every product of
thread runs and then drops repeated executions by their labels, program
order and outcome."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from persistcheck.framework import Collection
from persistcheck.lang import InterpConfig, Interpretation, ParseError, Prog, ThreadRun, ValueFlow
from persistcheck.model import CRASH, Label, PlainExecution, seq_compose, sequence_execution


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
    crash = sequence_execution([CRASH])
    out: List[Tuple[Optional[Dict[str, object]], PlainExecution]] = []

    def rec(i: int, acc: Optional[PlainExecution], acc_labels: Tuple[Label, ...]):
        for j, (env, combo) in enumerate(eras[i]):
            labels = acc_labels
            if flow:
                labels += ((CRASH,) if i else ()) + interps[i].labels(combo)
                if not flow.sourced(labels):
                    continue
            if (i, j) not in graphs:
                graphs[i, j] = interps[i].build(combo)
            g = graphs[i, j]
            g = g if acc is None else seq_compose(acc, crash, g)
            if i == n - 1:
                out.append((env, g))
            else:
                rec(i + 1, g, labels)

    rec(0, None, ())
    # deduplicate identical executions (same labels, po and outcome)
    seen = set()
    uniq = []
    for env, g in out:
        key = (tuple(g.labels()), g.po_order.rows, None if env is None else tuple(sorted(env.items(), key=repr)))
        if key not in seen:
            seen.add(key)
            uniq.append((env, g))
    return uniq
