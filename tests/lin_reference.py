"""The linearizability checks that open returns replaced, kept verbatim as
test references: ``check_linearizable`` (with its ``domain`` argument) and
``execution_linearizable`` (with its ``interface`` argument), and the
``linearize`` they call, which returns ``(placed pairs or None, stats)``.

A pending call is placed here once per guessed return: null for a void
method (``VOID_METHODS``, or ``interface.void``), else each value of a
domain (``mentioned_values``, or every argument and return of the
execution, 0 and null).  A guessed return of a constructor can name a
location that another call names, which is the one place where these
verdicts differ from the open-return checks.

One edit since: ``execution_linearizable``'s ``keep`` reads whether a crash
is po-after the event, as the checker's does, and its ``era_monotone``
option went with the checker's, whose pins happens-before already holds."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from persistcheck.framework import BudgetExceeded, LibraryInterface, Verdict
from persistcheck.model import BOT, Call, Execution, History, Label
from persistcheck.sc import (
    VOID_METHODS,
    SequentialSpec,
    _returns_before_invokes,
    linearizations,
    mentioned_values,
)


def linearize(
    preds: Sequence[int], options: Sequence[Sequence[object]], must: int, spec: SequentialSpec, budget: int, stage: str
):
    """The first of :func:`linearizations`: ``(lin, stats)``, the placed
    ``(event, candidate)`` pairs or ``None``, and the search's stats."""
    stats = {"stage": stage}
    return next(linearizations(preds, options, must, spec, budget, stats), None), stats


def check_linearizable(
    h: History,
    spec: SequentialSpec,
    domain: Optional[Sequence] = None,
    budget: int = 200_000,
) -> Verdict:
    """Some sequentialization of h belongs to the sequential spec: one
    :func:`linearize` search in which a pending call may be left out or placed
    with any return (null for ``VOID_METHODS``, else a ``domain`` value).  The
    budget counts candidate calls tried."""
    if h.crash_count():
        raise ValueError("linearizability is defined on crash-free histories")
    calls = h.calls()
    domain = list(domain) if domain is not None else mentioned_values(h)
    options = [
        [c] if c.is_complete else [replace(c, ret=r) for r in ([None] if c.method in VOID_METHODS else domain)]
        for c in calls
    ]
    must = sum(1 << i for i, c in enumerate(calls) if c.is_complete)
    preds = _returns_before_invokes(calls).preds()
    try:
        lin, stats = linearize(preds, options, must, spec, budget, "linearization search")
    except BudgetExceeded as e:
        return Verdict.budget(e.stats)
    if lin is None:
        return Verdict.fail(f"no sequentialization in {spec.name}", stats=stats)
    return Verdict.ok(witness=[c for _, c in lin], stats=stats)


def execution_linearizable(
    x: Execution,
    spec: SequentialSpec,
    interface: LibraryInterface,
    keep: Optional[Callable[[Label, bool], str]] = None,
    budget: int = 200_000,
) -> Verdict:
    """hb-linearizations of an execution's single-event calls into a
    sequential spec.  Incomplete calls of methods ``interface`` declares void
    are completed with null only.

    ``keep(label, is_last_era)`` returns "keep", "drop", or "optional" per
    event (default: complete events kept, incomplete optional); an event is
    in the last era when no crash is po-after it.  Dropped and
    optional-dropped events vanish; optional incomplete events may also be
    completed with any value the execution mentions (an argument or a
    return), 0 or null.

    One ``sc.linearize`` search over the kept and optional events decides
    it; the budget counts candidate calls tried.
    """
    crashes = x.plain.crash_events()
    ids = [e for e in x.events if not x.lab[e].is_crash]
    labs = [x.lab[e] for e in ids]
    returned = [l.ret for l in labs if l.ret not in (BOT, None)]
    domain = list(dict.fromkeys([a for l in labs for a in l.args] + returned + [0, None]))
    modes = {
        e: keep(l, not any((e, c) in x.po for c in crashes)) if keep else "keep" if l.is_complete else "optional"
        for e, l in zip(ids, labs)
    }
    members = [e for e in ids if modes[e] != "drop"]
    must = sum(1 << i for i, e in enumerate(members) if modes[e] == "keep")
    hb = x.hb_order.restrict(members)
    preds = hb.preds()
    options = []
    for e in members:
        l = x.lab[e]
        rets = [l.ret] if l.is_complete else [None] if l.method in interface.void else domain
        options.append([Call(l.method, l.args, r, l.thread, l.tags, e, e) for r in rets])
    try:
        lin, stats = linearize(preds, options, must, spec, budget, "linearization enumeration")
    except BudgetExceeded as exc:
        return Verdict.budget(exc.stats)
    if lin is None:
        return Verdict.fail(f"no linearization into {spec.name}", stats=stats)
    return Verdict.ok(witness=[members[i] for i, _ in lin], stats=stats)
