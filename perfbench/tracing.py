"""Spans around the public functions of each persistcheck layer, recorded
from outside the package.

``Tracer.install`` wraps each target function and rebinds the wrapper in
every ``persistcheck`` module namespace that holds the original (``closure``
alone is bound in ``model``, ``px86``, ``libs`` and ``substitution``), and on
the classes for methods.  ``uninstall`` puts the originals back.  A span has
a name, a start, an end, a parent (the span open when it began) and an
outcome chosen per target.  Generators are wrapped so that each step, up to
and including the one that ends the generator, is its own span.  Spans stay
in memory until ``write`` is called at the end of a run.
"""

import statistics
import sys
from time import perf_counter


def _verdict(v):
    return "budget" if v.is_budget else ("ok" if v else "fail")


def _found(w):
    return "none" if w is None else "found"


def _runs(out):
    return (len(out), sum(1 for env, _ in out if env is not None))


PACKAGE = "persistcheck"

#: (span name, module, attribute, kind, outcome).  ``kind`` is "call" for a
#: function or method, "gen" for a generator, and "factory" for
#: ``sc_prune_factory``, whose returned factory makes the prune predicates
#: that are traced as ``libs.prune`` (outcome: the branch is kept or cut).
TARGETS = [
    ("model.closure", "model", "closure", "call", None),
    ("model.transitive_reduction", "model", "transitive_reduction", "call", None),
    ("model.Execution.restrict_events", "model", "Execution.restrict_events", "call", None),
    ("model.PlainExecution.restrict_events", "model", "PlainExecution.restrict_events", "call", None),
    ("model.restrict", "model", "restrict", "call", None),
    ("model.anonymize", "model", "anonymize", "call", None),
    ("framework.check_hereditarily_consistent", "framework", "check_hereditarily_consistent", "call", _verdict),
    ("framework.check_consistent", "framework", "check_consistent", "call", None),
    ("framework.check_wellformed", "framework", "check_wellformed", "call", None),
    ("framework.check_immediately_wellformed", "framework", "check_immediately_wellformed", "call", None),
    ("px86.search_px86_witness", "px86", "search_px86_witness", "call", _found),
    ("sc.check_linearizable", "sc", "check_linearizable", "call", _verdict),
    ("sc.iter_completions", "sc", "iter_completions", "gen", None),
    ("sc.check_weakreg_consistent", "sc", "check_weakreg_consistent", "call", None),
    ("sc.weakreg_consistent_execution", "sc", "weakreg_consistent_execution", "call", None),
    ("libs.execution_linearizable", "libs", "execution_linearizable", "call", None),
    ("libs.check_flit", "libs", "check_flit", "call", None),
    ("libs.sc_prune_factory", "libs", "sc_prune_factory", "factory", None),
    ("lang.interpret_phases", "lang", "interpret_phases", "call", _runs),
    ("lang.candidate_refinements", "lang", "candidate_refinements", "gen", None),
    ("lang.candidate_sw_sets", "lang", "candidate_sw_sets", "call", None),
    ("lang.behaviors", "lang", "behaviors", "call", None),
    ("substitution.exec_bind", "substitution", "exec_bind", "call", len),
    ("substitution.find_plain_matching", "substitution", "find_plain_matching", "call", None),
    ("substitution.lift_chain", "substitution", "lift_chain", "call", _found),
    ("substitution.verify_impl_bounded", "substitution", "verify_impl_bounded", "call", lambda r: r.budget_hits),
    ("cli.cmd_check", "cli", "cmd_check", "call", None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.outcomes = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.outcomes.append(None)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i, outcome):
        self.ends[i] = perf_counter()
        self._stack.pop()
        self.outcomes[i] = outcome

    def wrap_call(self, name, fn, classify=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(i, "raised")
                raise
            self._close(i, None)
            if classify is not None:
                self.outcomes[i] = classify(result)
            return result

        return traced

    def wrap_gen(self, name, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(i, "end")
                    return
                except BaseException:
                    self._close(i, "raised")
                    raise
                self._close(i, "yield")
                yield item

        return traced

    def wrap_factory(self, fn):
        def traced(*args, **kwargs):
            factory = fn(*args, **kwargs)

            def traced_factory(*fargs, **fkwargs):
                pred = factory(*fargs, **fkwargs)
                if pred is None:
                    return None
                return self.wrap_call("libs.prune", pred, lambda keep: "kept" if keep else "cut")

            return traced_factory

        return self.wrap_call("libs.sc_prune_factory", traced)

    # -- installing --------------------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for name, mod, attr, kind, classify in TARGETS:
            module = mods[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap_call(name, orig, classify))
                continue
            orig = getattr(module, attr)
            if kind == "gen":
                wrapper = self.wrap_gen(name, orig)
            elif kind == "factory":
                wrapper = self.wrap_factory(orig)
            else:
                wrapper = self.wrap_call(name, orig, classify)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: index, parent, name, start, end,
        outcome (times in seconds on the perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart\tend\toutcome\n")
            for i, (n, s, e, p, o) in enumerate(zip(self.names, self.starts, self.ends, self.parents, self.outcomes)):
                f.write(f"{i}\t{p}\t{n}\t{s:.9f}\t{e:.9f}\t{'' if o is None else o}\n")


class SpanStats:
    """Counts, inclusive times and self times over the spans ``start`` to
    ``stop`` of a tracer, recorded while no span was open at either end."""

    def __init__(self, tracer, start=0, stop=None):
        t = tracer
        stop = len(t.names) if stop is None else stop
        self.names = t.names[start:stop]
        self.outcomes = t.outcomes[start:stop]
        self.parents = [p - start if p >= start else -1 for p in t.parents[start:stop]]
        self.dur = [e - s for s, e in zip(t.starts[start:stop], t.ends[start:stop])]
        n = len(self.names)
        child = [0.0] * n
        self.by_name = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.dur[i]
            self.by_name.setdefault(self.names[i], []).append(i)
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self._inside_memo = {}

    def _inside(self, names):
        """Per span: whether some ancestor is named in ``names``.  Parents
        precede their children in the span list."""
        if names not in self._inside_memo:
            out = [False] * len(self.names)
            for i, p in enumerate(self.parents):
                if p >= 0:
                    out[i] = out[p] or self.names[p] in names
            self._inside_memo[names] = out
        return self._inside_memo[names]

    def _select(self, names, outcome=None, under=None, parent=None):
        """Indices of spans named in ``names`` (optionally with an outcome,
        a direct parent name, or any ancestor named ``under``)."""
        inside = self._inside(frozenset([under])) if under else None
        for name in names:
            for i in self.by_name.get(name, ()):
                if outcome is not None and self.outcomes[i] != outcome:
                    continue
                if parent is not None and (self.parents[i] < 0 or self.names[self.parents[i]] != parent):
                    continue
                if inside is not None and not inside[i]:
                    continue
                yield i

    def count(self, *names, **kw):
        return sum(1 for _ in self._select(names, **kw))

    def self_s(self, *names, **kw):
        return sum(self.self_time[i] for i in self._select(names, **kw))

    def incl_s(self, *names, **kw):
        """Inclusive time, counting a span nested in a span of the same
        family once."""
        inside = self._inside(frozenset(names))
        return sum(self.dur[i] for i in self._select(names, **kw) if not inside[i])

    def results(self, name, kind):
        """The recorded outcomes of a target that are of type ``kind``."""
        return [o for o in (self.outcomes[i] for i in self.by_name.get(name, ())) if isinstance(o, kind)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, setup_spans, items, traced_wall, untraced_walls):
    """The per-layer metrics of one traced run.  The tracer's first
    ``setup_spans`` spans were recorded during set-up and the rest during
    the traced pass; the ``*.setup_*`` metrics come from the former, all
    others from the latter.  ``items`` is the number of items in the traced
    pass; ``traced_wall`` that pass's wall time and ``untraced_walls`` the
    wall times of the run's untraced passes."""
    st = SpanStats(tracer, start=setup_spans)
    su = SpanStats(tracer, stop=setup_spans)
    setup_runs = su.results("lang.interpret_phases", tuple)
    setup_prune_calls = su.count("libs.prune")
    restrict_ev = ("model.Execution.restrict_events", "model.PlainExecution.restrict_events")
    hered = "framework.check_hereditarily_consistent"
    hered_calls = st.count(hered)
    search = "px86.search_px86_witness"
    search_calls = st.count(search)
    lin = "sc.check_linearizable"
    lin_calls = st.count(lin)
    completions = st.count("sc.iter_completions", outcome="yield")
    prune_calls = st.count("libs.prune")
    refinements = st.count("lang.candidate_refinements", outcome="yield")
    runs = st.results("lang.interpret_phases", tuple)
    lift_calls = st.count("substitution.lift_chain")
    m = {
        "model.closure_calls": (st.count("model.closure"), "count"),
        "model.closure_self_s": (st.self_s("model.closure"), "s"),
        "model.reduction_calls": (st.count("model.transitive_reduction"), "count"),
        "model.reduction_self_s": (st.self_s("model.transitive_reduction"), "s"),
        "model.restrict_events_calls": (st.count(*restrict_ev), "count"),
        "model.restrict_events_s": (st.incl_s(*restrict_ev), "s"),
        "model.restrict_s": (st.incl_s("model.restrict"), "s"),
        "model.anonymize_s": (st.incl_s("model.anonymize"), "s"),
        "framework.hereditary_calls": (hered_calls, "count"),
        "framework.hereditary_s.justified": (st.incl_s(hered, outcome="ok"), "s"),
        "framework.hereditary_s.refuted": (st.incl_s(hered, outcome="fail"), "s"),
        "framework.consistent_calls": (st.count("framework.check_consistent"), "count"),
        "framework.consistent_self_s": (st.self_s("framework.check_consistent"), "s"),
        "framework.nodes_per_hereditary": (
            _ratio(st.count("framework.check_consistent", under=hered), hered_calls),
            "1/call",
        ),
        "framework.hereditary_budget_ratio": (_ratio(st.count(hered, outcome="budget"), hered_calls), "ratio"),
        "framework.wellformed_s": (
            st.incl_s("framework.check_wellformed", "framework.check_immediately_wellformed"),
            "s",
        ),
        "px86.search_calls": (search_calls, "count"),
        "px86.search_self_s": (st.self_s(search), "s"),
        "px86.search_s.found": (st.incl_s(search, outcome="found"), "s"),
        "px86.search_s.none": (st.incl_s(search, outcome="none"), "s"),
        "px86.found_ratio": (_ratio(st.count(search, outcome="found"), search_calls), "ratio"),
        "px86.sw_hook_search_s": (st.incl_s(search, parent="lang.candidate_sw_sets"), "s"),
        "sc.linearizable_calls": (lin_calls, "count"),
        "sc.linearizable_s.ok": (st.incl_s(lin, outcome="ok"), "s"),
        "sc.linearizable_s.fail": (st.incl_s(lin, outcome="fail"), "s"),
        "sc.completions": (completions, "count"),
        "sc.completions_per_call": (_ratio(completions, lin_calls), "1/call"),
        "sc.weakreg_calls": (st.count("sc.check_weakreg_consistent", "sc.weakreg_consistent_execution"), "count"),
        "sc.weakreg_s": (st.incl_s("sc.check_weakreg_consistent", "sc.weakreg_consistent_execution"), "s"),
        "libs.execution_linearizable_calls": (st.count("libs.execution_linearizable"), "count"),
        "libs.execution_linearizable_s": (st.incl_s("libs.execution_linearizable"), "s"),
        "libs.prune_calls": (prune_calls, "count"),
        "libs.prune_kept_ratio": (_ratio(st.count("libs.prune", outcome="kept"), prune_calls), "ratio"),
        "libs.setup_prune_calls": (setup_prune_calls, "count"),
        "libs.setup_prune_kept_ratio": (_ratio(su.count("libs.prune", outcome="kept"), setup_prune_calls), "ratio"),
        "libs.check_flit_s": (st.incl_s("libs.check_flit"), "s"),
        "lang.interpret_s": (st.incl_s("lang.interpret_phases"), "s"),
        "lang.runs": (sum(r[0] for r in runs), "count"),
        "lang.runs_complete": (sum(r[1] for r in runs), "count"),
        "lang.setup_interpret_s": (su.incl_s("lang.interpret_phases"), "s"),
        "lang.setup_runs": (sum(r[0] for r in setup_runs), "count"),
        "lang.setup_runs_complete": (sum(r[1] for r in setup_runs), "count"),
        "lang.refinements": (refinements, "count"),
        "lang.refinements_per_item": (_ratio(refinements, items), "1/item"),
        "lang.sw_candidates_s": (st.incl_s("lang.candidate_sw_sets"), "s"),
        "lang.justified_ratio": (_ratio(st.count(hered, outcome="ok"), refinements), "ratio"),
        "lang.behaviors_s": (st.incl_s("lang.behaviors"), "s"),
        "substitution.bind_s": (st.incl_s("substitution.exec_bind"), "s"),
        "substitution.concretes": (sum(st.results("substitution.exec_bind", int)), "count"),
        "substitution.matching_calls": (st.count("substitution.find_plain_matching"), "count"),
        "substitution.matching_self_s": (st.self_s("substitution.find_plain_matching"), "s"),
        "substitution.lift_calls": (lift_calls, "count"),
        "substitution.lift_s": (st.incl_s("substitution.lift_chain"), "s"),
        "substitution.budget_hits": (
            sum(st.results("substitution.verify_impl_bounded", int)),
            "count",
        ),
        "substitution.lifted_ratio": (
            _ratio(st.count("substitution.lift_chain", outcome="found"), lift_calls),
            "ratio",
        ),
        "cli.check_s": (st.incl_s("cli.cmd_check"), "s"),
        "trace.overhead_ratio": (_ratio(traced_wall, statistics.median(untraced_walls)), "ratio"),
    }
    return m
