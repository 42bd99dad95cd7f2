"""The four benchmark workloads.

Each workload builds its items once (the set-up the benchmark times as
``setup_s``), runs one item per ``run`` call (the closed loop times each
call), and judges a pass's results against a reference from
``reference.py``.  ``judge`` returns per-item wrong and undecided flags plus
the problems found; a result of ``None`` marks an item whose run raised.

Workloads reach the checker through module attributes of the namespace
``pc`` (``pc.sc.check_linearizable``), never through names imported at set-up,
so the traced run sees every call once its wrappers are installed.
"""

import contextlib
import io
import random
import zlib
from pathlib import Path

import reference

#: Stratified sample of the undo-log runs: strata of at most this many runs
#: are kept whole, larger ones keep every UNDO_STRIDE-th run in canonical
#: order.  The rare strata (every commit level of every shape, allowed or
#: not) are thereby always present, while one pass stays a few seconds.
UNDO_WHOLE = 60
UNDO_STRIDE = 6

#: The acceptance-2 corpus seed; the lin_histories corpus uses it unless the
#: caller passes another.
LIN_SEED = 20260808
LIN_HISTORIES = 500


class Workload:
    name = ""
    item_kind = ""

    def __init__(self, pc, root, seed, limit=None, lin_seed=LIN_SEED):
        self.pc = pc
        self.root = Path(root)
        self.full = limit is None
        items = self.build(lin_seed)
        if limit is not None:
            items = items[:limit]
        random.Random(seed).shuffle(items)
        self.items = items

    def build(self, lin_seed):
        raise NotImplementedError

    def begin_pass(self):
        """Per-pass state, made outside the timed region."""

    def run(self, item):
        raise NotImplementedError

    def judge(self, results):
        raise NotImplementedError


# --------------------------------------------------------------------------
# litmus: the CLI over the bundled litmus files
# --------------------------------------------------------------------------


class Litmus(Workload):
    name = "litmus"
    item_kind = "file"

    def build(self, lin_seed):
        files = sorted((self.root / "litmus").glob("*.lit"))
        return [(p.name, str(p), p.read_text(encoding="utf-8")) for p in files]

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pc.cli.cmd_check(item[1], self.pc.cli.RunConfig())
        return code, out.getvalue()

    def judge(self, results):
        wrong = []
        for (_, _, text), res in zip(self.items, results):
            wrong.append(res is None or not reference.litmus_item_ok(text, res[1], res[0]))
        problems = [f"{it[0]}: not every expectation passed" for it, w in zip(self.items, wrong) if w]
        # cmd_check cannot report a budget-exceeded outcome yet, so no
        # litmus item is ever undecided.
        return wrong, [False] * len(results), problems


# --------------------------------------------------------------------------
# undo_log: the acceptance 7 / 7b crash programs over the undo log
# --------------------------------------------------------------------------

_UNDO_PROGRAMS = {
    # shape: (registers, transaction bodies, reads, unroll)
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


def undo_program(shape):
    regs, txns, reads, _ = _UNDO_PROGRAMS[shape]
    decls = "\n".join(f"  {r} := pt_new()" for r in regs)
    body = "; ".join(f"pt_begin(); {t}; pt_end()" for t in txns)
    return (
        f"collection ltrans\nglobals\n{decls}\nprogram\n  t0: {body}\n"
        f"crash\nprogram\n  t5: pt_recover(); {reads}\n"
    )


def fresh_copy(pc, g):
    """A copy of a plain execution with no cached closure or hash, so every
    pass pays for them as the first check of a new run does."""
    return pc.model.PlainExecution(g.labels(), g.po_reduced)


def _canonical_digest(g, outcome):
    """A checksum of a run that does not depend on the interpreter's output
    order.  Only the checksum is kept, so the sort costs little memory (and
    zlib, unlike hashlib, adds nothing to the resident set)."""
    labels = tuple(
        (repr(l.method), repr(l.args), repr(l.ret), tuple(sorted(l.tags)), repr(l.thread)) for l in g.labels()
    )
    return zlib.crc32(repr((labels, tuple(sorted(g.po_reduced)), outcome)).encode())


class UndoLog(Workload):
    name = "undo_log"
    item_kind = "complete run"

    def build(self, lin_seed):
        pc = self.pc
        self.low = pc.framework.Collection([pc.libs.weakreg_spec(), pc.libs.durqueue_spec()]).freeze()
        strata = {}
        for shape, (_, _, _, unroll) in _UNDO_PROGRAMS.items():
            lit = pc.lang.parse_litmus(undo_program(shape))
            phases = pc.lang.link_phases(lit.phases, pc.libs.ltrans_impl())
            cfg = pc.lang.InterpConfig(unroll=unroll, max_runs=600_000, prune_factory=pc.libs.sc_prune_factory())
            for env, g in pc.lang.interpret_phases(phases, self.low, cfg, complete_only=True):
                if env is None:
                    continue
                outcome = tuple(env[r] for r in ("r1", "r2") if r in env)
                level = self.commit_level(g)
                key = (shape, level, reference.undo_outcome_allowed(shape, level, outcome))
                strata.setdefault(key, []).append((_canonical_digest(g, outcome), (shape, level, outcome), g))
        items, self.sources = [], []
        for key in sorted(strata):
            runs = [run[1:] for run in sorted(strata[key], key=lambda run: run[0])]
            for desc, g in runs if len(runs) <= UNDO_WHOLE else runs[::UNDO_STRIDE]:
                items.append((len(self.sources),) + desc)
                self.sources.append(g)
        return items

    def commit_level(self, g):
        """Transactions whose commit record was appended, completely, before
        the crash.  Eras are read off the reduced program order, so that no
        closure is computed (and cached on ``g``) outside the timed region."""
        after_crash = set()
        frontier = [e for e in g.events if g.lab[e].is_crash]
        while frontier:
            a = frontier.pop()
            for x, b in g.po_reduced:
                if x == a and b not in after_crash:
                    after_crash.add(b)
                    frontier.append(b)
        committed = self.pc.libs.COMMITTED
        return sum(
            1
            for e in g.events
            if g.lab[e].method == "qappend"
            and g.lab[e].args[1] == committed
            and g.lab[e].is_complete
            and e not in after_crash
        )

    def begin_pass(self):
        self.graphs = [fresh_copy(self.pc, g) for g in self.sources]

    def run(self, item):
        pc = self.pc
        budget = False
        for x in pc.lang.candidate_refinements(self.low, self.graphs[item[0]]):
            v = pc.framework.check_hereditarily_consistent(self.low, x, budget=6_000)
            if v:
                return "justified"
            budget = budget or v.is_budget
        return "undecided" if budget else "refuted"

    def judge(self, results):
        return judge_undo([it[1:] for it in self.items], results, self.full)


def judge_undo(items, results, full=True):
    """``items`` holds (shape, commit level, outcome) per run."""
    wrong, problems = [], []
    reached = {}
    for (shape, level, outcome), res in zip(items, results):
        bad = res is None or (res == "justified" and not reference.undo_outcome_allowed(shape, level, outcome))
        if bad:
            problems.append(f"{shape} level {level} {'raised' if res is None else f'justified {outcome}'}")
        if res == "justified":
            reached.setdefault(shape, set()).add(level)
        wrong.append(bad)
    if full:
        for shape in sorted({it[0] for it in items}):
            missing = reference.undo_levels_required(shape) - reached.get(shape, set())
            if missing:
                problems.append(f"{shape}: no justified run at commit level(s) {sorted(missing)}")
                wrong = [w or it[0] == shape for w, it in zip(wrong, items)]
    return wrong, [r == "undecided" for r in results], problems


# --------------------------------------------------------------------------
# lin_histories: linearizability of the acceptance-2 register histories
# --------------------------------------------------------------------------


class LinHistories(Workload):
    name = "lin_histories"
    item_kind = "history"

    def build(self, lin_seed):
        model = self.pc.model
        rng = random.Random(lin_seed)
        items = []
        for i in range(LIN_HISTORIES):
            events = reference.random_history(rng)
            h = model.History(
                model.Inv(e[1], e[2], e[3]) if e[0] == "inv" else model.Ret(e[1], e[2]) for e in events
            )
            items.append((i, events, h))
        self._oracle = None
        return items

    def run(self, item):
        v = self.pc.sc.check_linearizable(item[2], self.pc.sc.S_WEAKREG)
        return "undecided" if v.is_budget else ("ok" if v else "fail")

    def oracle(self):
        """Reference verdicts, computed once and outside every timed region."""
        if self._oracle is None:
            self._oracle = [reference.linearizable_oracle(it[1]) for it in self.items]
        return self._oracle

    def judge(self, results):
        return judge_lin(self.oracle(), results)


def judge_lin(expected, results):
    wrong = [res is None or (res != "undecided" and (res == "ok") != want) for want, res in zip(expected, results)]
    problems = [f"history {i}: checker {res}, oracle {want}" for i, (want, res, w) in enumerate(zip(expected, results, wrong)) if w]
    return wrong, [r == "undecided" for r in results], problems


# --------------------------------------------------------------------------
# flit_verify: bounded verification of the Flit implementation and a mutant
# --------------------------------------------------------------------------

FLIT_CORPUS_GRAPHS = 40
FLIT_MAX_EVENTS = 8


class FlitVerify(Workload):
    name = "flit_verify"
    item_kind = "graph x implementation"

    def build(self, lin_seed):
        pc = self.pc
        self.px = pc.framework.Collection([pc.px86.px86_spec()])
        self.high = pc.framework.Collection([pc.libs.flit_spec()])
        self.cfg = pc.lang.InterpConfig(domain=(0, 1), unroll=2)
        self.impls = {"flit": pc.libs.flit_impl(), "flit_no_fo": pc.libs.flit_impl_mutated_no_fo()}
        self.sources = self.corpus()
        return [(gi, impl) for impl in self.impls for gi in range(len(self.sources))]

    def corpus(self):
        """The acceptance-5 corpus: distinct-label runs (partial ones too) of
        the litmus/flit programs with at most 8 events, first 40."""
        pc = self.pc
        out, seen = [], set()
        for p in sorted((self.root / "litmus" / "flit").glob("*.lit")):
            lit = pc.lang.parse_litmus(p.read_text(encoding="utf-8"), name=p.name)
            coll = pc.framework.Collection([pc.libs.builtin_spec(n) for n in lit.collection])
            cfg = pc.lang.InterpConfig(domain=tuple(lit.domain) + (0, 1), unroll=2, max_runs=50_000)
            for env, g in pc.lang.interpret_phases(list(lit.phases), coll, cfg):
                key = tuple(repr(l) for l in g.labels())
                if len(g) > FLIT_MAX_EVENTS or key in seen:
                    continue
                seen.add(key)
                out.append(g)
                if len(out) >= FLIT_CORPUS_GRAPHS:
                    return out
        return out

    def begin_pass(self):
        # One SemanticImpl per implementation for the whole pass, as in
        # acceptance 5: its interpretation cache is shared by the graphs, and
        # each label is interpreted once per pass whatever the item order.
        sub = self.pc.substitution
        self.graphs = [fresh_copy(self.pc, g) for g in self.sources]
        self.sems = {name: sub.SemanticImpl(impl, self.px, self.cfg) for name, impl in self.impls.items()}

    def run(self, item):
        gi, impl = item
        rep = self.pc.substitution.verify_impl_bounded(
            self.sems[impl],
            self.high,
            self.px,
            [self.graphs[gi]],
            budget=20_000,
            check_wf=impl == "flit",
        )
        lifted = sum(1 for r in rep.records if r.lifted is True)
        refuted = sum(1 for r in rep.records if r.lifted is False)
        return rep.ok, lifted, refuted, rep.budget_hits

    def judge(self, results):
        return judge_flit([it[1] for it in self.items], results, self.full)


def judge_flit(impls, results, full=True):
    """``impls`` names the implementation of each item ("flit" is correct,
    "flit_no_fo" the mutant); a result is (ok, lifted, not lifted, budget
    hits).  The correct implementation must verify on every graph and lift
    at least 10 instances; the mutant must fail to lift at least once."""
    wrong = [res is None or (impl == "flit" and not res[0]) for impl, res in zip(impls, results)]
    problems = [f"item {i}: flit not verified" for i, w in enumerate(wrong) if w]
    if full:
        lifted = sum(res[1] for impl, res in zip(impls, results) if res and impl == "flit")
        detected = any(res[2] for impl, res in zip(impls, results) if res and impl == "flit_no_fo")
        if lifted < 10:
            problems.append(f"flit lifted only {lifted} instances")
            wrong = [w or impl == "flit" for w, impl in zip(wrong, impls)]
        if not detected:
            problems.append("mutant flit_no_fo not detected")
            wrong = [w or impl == "flit_no_fo" for w, impl in zip(wrong, impls)]
    undecided = [bool(res and res[3]) for res in results]
    return wrong, undecided, problems


WORKLOADS = {w.name: w for w in (Litmus, UndoLog, LinHistories, FlitVerify)}
