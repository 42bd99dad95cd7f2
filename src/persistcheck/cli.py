"""Command-line front end.

Three subcommands: ``check`` runs litmus files against their declared
collections and verdicts them against the embedded expectations;
``verify-impl`` drives the bounded implementation verifier over a corpus of
abstract litmus programs; ``worked-examples`` reproduces the classic register,
queue, and transaction classifications.

Exit codes: 0 all expectations met, 1 expectation failed or counterexample
found, 2 usage or parse error, 3 no expectation failed (no counterexample
found) but some search ran out of budget before a verdict (``UNKNOWN`` in
``check``, summary ``unknown`` in ``verify-impl``).  Reports are
deterministic, whatever the hash seed.  ``--seed`` is accepted, but no
subcommand reads it: the corpora are fixed files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .framework import Collection, SpecError, Verdict
from .lang import (
    InterpConfig,
    ParseError,
    behaviors,
    interpret_phases,
    parse,
    parse_litmus,
)
from .libs import builtin_impl, builtin_spec, load_manifest, sc_prune_factory
from .model import CRASH_EV, History, Inv, Ret, execution_to_dot
from .sc import (
    PFENCE,
    S_QUEUE,
    S_WEAKREG,
    check_durably_linearizable,
    check_linearizable,
    check_weakreg_consistent,
)
from .substitution import SemanticImpl, verify_impl_bounded


@dataclass
class RunConfig:
    models: Tuple[str, ...] = ()
    max_events: int = 64
    max_crashes: int = 1
    budget: int = 100_000
    unroll: int = 4
    domain: Tuple = ()
    json_out: bool = False
    dot_path: Optional[str] = None
    manifest: Optional[str] = None
    seed: int = 0  # read by no subcommand

    def __post_init__(self):
        for name, v in (("budget", self.budget), ("unroll", self.unroll), ("max_events", self.max_events)):
            if v <= 0:
                raise ValueError(f"{name} must be positive")


def _collection_for(names: Sequence[str], budget: int) -> Collection:
    coll = Collection()
    for name in names:
        coll.register(builtin_spec(name, budget=budget))
    return coll


def _emit(record: Dict, cfg: RunConfig) -> None:
    if cfg.json_out:
        print(json.dumps(record, ensure_ascii=False))
    else:
        status = record.get("status", "")
        print(f"[{status}] {record.get('what', '')}" + (f": {record['detail']}" if record.get("detail") else ""))


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------


def cmd_check(path: str, cfg: RunConfig) -> int:
    try:
        text = Path(path).read_text(encoding="utf-8")
        lit = parse_litmus(text, name=Path(path).name)
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    manifest_opts = {}
    try:
        if cfg.manifest:
            coll, manifest_opts = load_manifest(cfg.manifest)
        else:
            coll = _collection_for(cfg.models or lit.collection, cfg.budget)
    except (KeyError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    domain = tuple(lit.domain) + tuple(cfg.domain) + tuple(manifest_opts.get("domain", ()))
    unroll = lit.unroll if lit.unroll is not None else (manifest_opts.get("unroll") or cfg.unroll)
    iconfig = InterpConfig(
        domain=domain,
        unroll=unroll,
        max_runs=max(cfg.budget, 10_000),
        prune_factory=sc_prune_factory(),
    )
    regs = sorted({r for ex in lit.expectations if ex.outcome for r, _ in ex.outcome})
    try:
        outcomes = behaviors(list(lit.phases), coll, config=iconfig, outcome_regs=regs, budget=cfg.budget)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    statuses = set()
    if not lit.expectations:
        undecided = f", {len(outcomes.undecided)} undecided" if outcomes.undecided else ""
        record = {
            "what": f"{lit.name}: no expectations",
            "status": "INFO",
            "detail": f"{len(outcomes)} consistent outcome(s){undecided}",
            "outcomes": sorted(repr(o) for o in outcomes),
        }
        _emit(record, cfg)
    for ex in lit.expectations:
        want = dict(ex.outcome or ())

        def matches(o) -> bool:
            return all(dict(o).get(r) == v for r, v in want.items())

        got = any(matches(o) for o in outcomes)
        if not got and any(matches(o) for o in outcomes.undecided):
            status, detail = "UNKNOWN", "budget exceeded before a verdict"
        elif got == ex.consistent:
            status, detail = "PASS", ""
        else:
            status, detail = "FAIL", f"observed {'consistent' if got else 'inconsistent'}"
        statuses.add(status)
        shown = "" if ex.outcome is None else " outcome " + ",".join(f"{r}={v}" for r, v in ex.outcome)
        _emit(
            {
                "what": f"{lit.name}: expect {'consistent' if ex.consistent else 'inconsistent'}{shown}",
                "status": status,
                "detail": detail,
            },
            cfg,
        )
    if cfg.dot_path:
        if outcomes:
            first = min(outcomes, key=repr)
            Path(cfg.dot_path).write_text(execution_to_dot(outcomes.witness[first]), encoding="utf-8")
        else:
            print(f"note: {lit.name}: no consistent execution, no DOT file written", file=sys.stderr)
    return 1 if "FAIL" in statuses else 3 if "UNKNOWN" in statuses else 0


# --------------------------------------------------------------------------
# verify-impl
# --------------------------------------------------------------------------


def cmd_verify_impl(
    impl_name: str,
    spec_name: str,
    over: Sequence[str],
    corpus_dir: Optional[str],
    cfg: RunConfig,
) -> int:
    try:
        if Path(impl_name).exists():
            impl_syn = parse(Path(impl_name).read_text(encoding="utf-8"), name=Path(impl_name).stem)
        else:
            impl_syn = builtin_impl(impl_name)
        high = _collection_for([spec_name], cfg.budget)
        low = _collection_for(over, cfg.budget)
    except (KeyError, OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    iconfig = InterpConfig(domain=tuple(cfg.domain), unroll=cfg.unroll, max_runs=max(cfg.budget, 10_000))
    corpus = []
    if corpus_dir:
        from .lang import interpret_toplevel

        for p in sorted(Path(corpus_dir).glob("*.lit")):
            try:
                lit = parse_litmus(p.read_text(encoding="utf-8"), name=p.name)
            except (OSError, ParseError) as e:
                print(f"error: {p.name}: {e}", file=sys.stderr)
                return 2
            lcfg = InterpConfig(
                domain=tuple(lit.domain) + tuple(cfg.domain),
                unroll=lit.unroll if lit.unroll is not None else cfg.unroll,
                max_runs=max(cfg.budget, 10_000),
            )
            lit_coll = _collection_for(lit.collection, cfg.budget)
            try:
                if len(lit.phases) == 1:
                    # single-phase programs get restart-semantics crash variants
                    runs = []
                    for crashes in range(cfg.max_crashes + 1):
                        runs.extend(interpret_toplevel(lit.phases[0], lit_coll, crashes, lcfg))
                else:
                    runs = interpret_phases(list(lit.phases), lit_coll, lcfg)
            except SpecError as e:
                print(f"error: {p.name}: {e}", file=sys.stderr)
                return 2
            for env, g in runs:
                if env is not None and len(g) <= cfg.max_events:
                    corpus.append(g)
    if not corpus:
        print("error: empty corpus (give --corpus with .lit files)", file=sys.stderr)
        return 2
    try:
        impl = SemanticImpl(impl_syn, low, iconfig)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report = verify_impl_bounded(impl, high, low, corpus, budget=cfg.budget)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for rec in report.records:
        print(rec.to_json())
    summary = "counterexample" if not report.ok else "unknown" if report.undecided() else "ok"
    print(
        json.dumps(
            {
                "summary": summary,
                "records": len(report.records),
                "budget_hits": report.budget_hits,
                "bound": report.bound_note,
            }
        )
    )
    return {"counterexample": 1, "unknown": 3, "ok": 0}[summary]


# --------------------------------------------------------------------------
# worked-examples
# --------------------------------------------------------------------------


def _weakreg_history(pfence: bool) -> History:
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


def cmd_worked_examples(cfg: RunConfig) -> int:
    from .libs import (
        ltrans_global_consistent,
        ltrans_global_wellformed,
    )
    from .model import Label, PlainExecution, Execution, sequence_execution
    from .libs import B_TAG, E_TAG, PTR_TAG, T_TAG

    rows: List[Tuple[str, bool, Verdict]] = []

    h = _weakreg_history(pfence=False)
    rows.append(("weak-register history is weakreg-consistent", True, check_weakreg_consistent(h)))
    rows.append(
        ("weak-register history is durably linearizable", False, check_durably_linearizable(h, S_WEAKREG))
    )
    hf = _weakreg_history(pfence=True)
    rows.append(
        ("PFENCE-extended history is weakreg-consistent", False, check_weakreg_consistent(hf, with_pfence=True))
    )

    q = History(
        [
            Inv("qnew", (), 0),
            Ret(7, 0),
            Inv("qpush", (7, 1), 0),
            Inv("qpop", (7,), 1),
            Ret(1, 1),
            Ret(None, 0),
        ]
    )
    rows.append(("concurrent queue history is linearizable", True, check_linearizable(q, S_QUEUE)))

    def lab(method, args, ret, tags, th):
        return Label(method, args, ret, frozenset(tags), th)

    outside = Execution(
        PlainExecution([lab("pt_write", (1, 5), None, {T_TAG}, 0)], [])
    )
    rows.append(("transactional write outside a transaction is well-formed", False, ltrans_global_wellformed(outside)))

    labels = [
        lab("pt_begin", (), None, {B_TAG}, 0),
        lab("pt_write", (1, 5), None, {T_TAG, PTR_TAG}, 0),
        lab("pt_write", (2, 6), None, {T_TAG}, 0),
        lab("pt_end", (), None, {E_TAG, PTR_TAG}, 0),
    ]
    half = Execution(sequence_execution(labels))
    rows.append(("half-persisted transaction is globally consistent", False, ltrans_global_consistent(half)))

    width = max(len(r[0]) for r in rows) + 2
    print(f"{'example':<{width}} expected   got")
    for what, want, v in rows:
        got = "unknown" if v.is_budget else f"{str(bool(v)):<6} {'✓' if want == bool(v) else '✗'}"
        print(f"{what:<{width}} {str(want):<10} {got}")
    decided = [want == bool(v) for _, want, v in rows if not v.is_budget]
    return 1 if not all(decided) else 3 if len(decided) < len(rows) else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="persistcheck",
        description="Bounded model checking for persistent concurrent libraries.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", action="append", default=[], help="override the collection (repeatable)")
        p.add_argument("--max-events", type=int, default=64)
        p.add_argument("--max-crashes", type=int, default=1)
        p.add_argument("--budget", type=int, default=100_000, help="witness/search node budget")
        p.add_argument("--unroll", type=int, default=4, help="loop unrolling bound")
        p.add_argument("--domain", type=int, action="append", default=[], help="extra candidate values")
        p.add_argument("--json", action="store_true", help="JSON-lines report")
        p.add_argument("--dot", default=None, help="write a DOT dump of the consistent execution justifying the first outcome")
        p.add_argument("--manifest", default=None, help="JSON registry manifest (spec names, budgets, domain)")
        p.add_argument("--seed", type=int, default=0, help="accepted but read by no subcommand; no output depends on it")

    pc = sub.add_parser("check", help="check a litmus file against its expectations")
    pc.add_argument("file")
    common(pc)

    pv = sub.add_parser("verify-impl", help="bounded implementation verification over a corpus")
    pv.add_argument("impl", help="built-in implementation name or file")
    pv.add_argument("spec", help="abstract (implemented) library spec name")
    pv.add_argument("--over", required=True, help="comma-separated low-level collection")
    pv.add_argument("--corpus", default=None, help="directory of abstract .lit programs")
    common(pv)

    pp = sub.add_parser("worked-examples", help="reproduce the classic worked examples")
    common(pp)
    return ap


def _config_from(args) -> RunConfig:
    return RunConfig(
        models=tuple(args.model),
        max_events=args.max_events,
        max_crashes=args.max_crashes,
        budget=args.budget,
        unroll=args.unroll,
        domain=tuple(args.domain),
        json_out=args.json,
        dot_path=args.dot,
        manifest=args.manifest,
        seed=args.seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _config_from(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "check":
        return cmd_check(args.file, cfg)
    if args.command == "verify-impl":
        over = [s.strip() for s in args.over.split(",") if s.strip()]
        return cmd_verify_impl(args.impl, args.spec, over, args.corpus, cfg)
    if args.command == "worked-examples":
        return cmd_worked_examples(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
