"""The per-concrete loop of ``verify_impl_bounded`` before it tested each
concrete's value flow, kept verbatim as a test reference: every concrete
builds all of its candidate refinements, runs the hereditary check on each,
and transports well-formedness over the same list."""

from __future__ import annotations

from typing import List, Sequence

from persistcheck import lang
from persistcheck.framework import (
    BudgetExceeded,
    Collection,
    _prefix,
    check_hereditarily_consistent,
    check_immediately_wellformed,
    shared_verdicts,
)
from persistcheck.model import Execution, PlainExecution
from persistcheck.substitution import SemanticImpl, VerifyRecord, VerifyReport, exec_bind, lift_chain


@shared_verdicts()
def verify_impl_bounded(
    impl: SemanticImpl,
    coll_high: Collection,
    coll_low: Collection,
    corpus: Sequence[PlainExecution],
    budget: int = 5_000,
    max_concrete: int = 64,
    check_wf: bool = True,
) -> VerifyReport:
    """Corpus-bounded check of the correctness conditions.

    For every abstract plain execution G in the corpus and every concrete
    G' ∈ G·I (up to ``max_concrete``), built by the plain matching f: every
    hereditarily consistent low-level execution refining G' must lift along
    f, link by link along its witness chain, to consistent abstract
    executions; and immediate well-formedness of an abstract refinement must
    transport to some concrete refinement.  The report states the explored
    bound, counting the graphs that bind to no concrete (they give no
    record) and those with more than ``max_concrete`` concretes (only the
    first ``max_concrete`` are checked).  A graph whose bind runs out of
    interpreter runs gives one undecided record with no concrete.
    """
    report = VerifyReport()
    empty = capped = 0

    def undecided(rec: VerifyRecord, why: str) -> VerifyRecord:
        report.budget_hits += 1
        rec.undecided = True
        rec.detail = rec.detail or why
        return rec

    for gi, ga in enumerate(corpus):
        try:
            concretes = exec_bind(ga, impl, max_results=max_concrete + 1)
        except BudgetExceeded:
            why = f"interpreting the implementation exceeded max_runs={impl.config.max_runs}"
            report.records.append(undecided(VerifyRecord(gi, None), why))
            continue
        empty += not concretes
        if len(concretes) > max_concrete:
            capped += 1
            del concretes[max_concrete:]
        # the abstract side of well-formedness transport, once per graph
        wf_high = check_immediately_wellformed(coll_high, Execution(ga)) if check_wf and concretes else None
        for ci, (gc, f) in enumerate(concretes):
            rec = VerifyRecord(gi, ci)
            # looked up on its module, so a patched or traced generator is
            # the one called; one owner table per refinement serves both of
            # its checks
            refinements = [_prefix(coll_low, xc) for xc in lang.candidate_refinements(coll_low, gc)]
            # hereditary consistency upward
            found_consistent_low = False
            for xc in refinements:
                v = check_hereditarily_consistent(coll_low, xc, budget=budget)
                if v.is_budget:
                    undecided(rec, "hereditary consistency check hit budget")
                    continue
                if not v:
                    continue
                found_consistent_low = True
                why: List[str] = []
                try:
                    chain = lift_chain(xc.execution, v.witness.subsets, f, ga, coll_high, budget=budget, failure=why)
                except BudgetExceeded:
                    undecided(rec, "lifting hit budget")
                    continue
                if chain is None:
                    rec.lifted = False
                    rec.detail = "no consistent abstract refinement lifts the chain" + (
                        f" (last failure: {why[0]})" if why else ""
                    )
                    break
                rec.witness_chain = len(chain)
            if rec.lifted is None and found_consistent_low and not rec.undecided:
                rec.lifted = True
            if not found_consistent_low and not rec.detail:
                rec.detail = "no hereditarily consistent concrete refinement"
            # well-formedness downward: an out-of-budget check on either
            # level leaves the transport undecided
            if wf_high is not None and wf_high.is_budget:
                undecided(rec, "well-formedness check hit budget")
            elif wf_high:
                unknown = False
                for xc0 in refinements:
                    v = check_immediately_wellformed(coll_low, xc0)
                    if v:
                        rec.wellformed_downward = True
                        break
                    unknown = unknown or v.is_budget
                else:
                    if unknown:
                        undecided(rec, "well-formedness check hit budget")
                    else:
                        rec.wellformed_downward = False
                        rec.detail = rec.detail or "immediate well-formedness does not transport"
            report.records.append(rec)
    report.bound_note = (
        f"corpus={len(corpus)} graphs ({empty} bind to no concrete, {capped} over max_concrete), "
        f"max_concrete={max_concrete}, budget={budget}"
    )
    return report
