"""Built-in library specs and implementations."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from definitions import interpret, same_transaction, thread_chains
from eager_reference import linear_extensions
from persistcheck.framework import BudgetExceeded, Collection
from persistcheck.lang import (
    InterpConfig,
    behaviors,
    interpret_phases,
    link,
    parse_litmus,
)
from persistcheck.model import (
    BOT,
    CRASH,
    Call,
    CRASH_EV,
    Execution,
    History,
    Inv,
    Label,
    PlainExecution,
    Ret,
    history_to_execution,
    parallel_execution,
    sequence_execution,
)
from persistcheck.px86 import P_TAG, px86_spec
from persistcheck.libs import (
    B_TAG,
    COMMITTED,
    E_TAG,
    PTR_TAG,
    S_MMCOUNTER,
    S_QUEUE_ALIASED,
    S_REG_ABSTRACT,
    T_TAG,
    _ltrans_tag_hook,
    builtin_impl,
    builtin_spec,
    check_flit,
    check_mirror,
    counter_consistent,
    counter_impl,
    durqueue_spec,
    execution_linearizable,
    flit_impl,
    flit_impl_mutated_no_fo,
    lock_consistent,
    lock_spec,
    lstrans_impl,
    ltrans_global_consistent,
    ltrans_global_wellformed,
    ltrans_impl,
    ltrans_local_consistent,
    ltrans_local_wellformed,
    ltrans_spec,
    make_lin_spec,
    mirror_impl,
    mirror_spec,
    mmcounter_consistent,
    persistify_flit,
    persistify_flit_mutated,
    queue_interface,
    reg_durlin_spec,
    _register_iface,
    sc_prune_factory,
    weakreg_spec,
    MIRROR_K,
)

X, Y = 50, 60


# --------------------------------------------------------------------------
# Label helpers
# --------------------------------------------------------------------------


def fw(x, v, thread=0, ret=None, tags=()):
    return Label("fwrite_p", (x, v), ret, frozenset(tags) | {"D"}, thread)


def fwv(x, v, thread=0, ret=None):
    return Label("fwrite_v", (x, v), ret, frozenset({"D"}), thread)


def fr(x, v, thread=0):
    return Label("fread_p", (x,), v, frozenset(), thread)


def frv(x, v, thread=0):
    return Label("fread_v", (x,), v, frozenset(), thread)


def ffin(thread=0, ret=None):
    return Label("ffinish", (), ret, frozenset({"D"}), thread)


def ptw(x, v, thread=0, ret=None, tags=()):
    return Label("pt_write", (x, v), ret, frozenset(tags) | {T_TAG}, thread)


def ptr_(x, v, thread=0, tags=()):
    return Label("pt_read", (x,), v, frozenset(tags) | {T_TAG}, thread)


def ptb(thread=0, ret=None, tags=()):
    return Label("pt_begin", (), ret, frozenset(tags) | {B_TAG}, thread)


def pte(thread=0, ret=None, tags=()):
    return Label("pt_end", (), ret, frozenset(tags) | {E_TAG}, thread)


def ptrec(thread=0, ret=None):
    return Label("pt_recover", (), ret, frozenset(), thread)


def chain_exec(labels, extra_edges=()):
    return Execution(PlainExecution(labels, thread_chains(labels) + list(extra_edges)))


# --------------------------------------------------------------------------
# Flit specification
# --------------------------------------------------------------------------


def test_flit_completed_write_before_finish_is_persisted():
    x = chain_exec([fw(X, 1), ffin()])
    v = check_flit(x)
    assert v
    assert 0 in v.witness["P"]
    # explicitly tagging nothing as persisted contradicts condition 4
    labels = [fw(X, 1), ffin().with_tags({P_TAG})]
    x2 = chain_exec(labels)
    assert not check_flit(x2)


def test_flit_dependent_write_persistence_chain():
    # w1 := write x; r reads x on another thread; w2 po-after r.
    # If w2 persisted, w1 must have (condition 3 chain through the read).
    labels = [fw(X, 1, thread=0), fr(X, 1, thread=1), fw(Y, 2, thread=1)]
    g = PlainExecution(labels, thread_chains(labels))
    only_w2 = [l.with_tags({P_TAG}) if i == 2 else l for i, l in enumerate(labels)]
    x_bad = Execution(PlainExecution(only_w2, thread_chains(labels)))
    assert not check_flit(x_bad)
    both = [l.with_tags({P_TAG}) if i in (0, 2) else l for i, l in enumerate(labels)]
    x_ok = Execution(PlainExecution(both, thread_chains(labels)))
    assert check_flit(x_ok)


def test_flit_volatile_only_is_sc_register():
    ok = chain_exec([fwv(X, 1), frv(X, 1)])
    assert check_flit(ok)
    bad = chain_exec([fwv(X, 1), frv(X, 2)])
    assert not check_flit(bad)
    stale = chain_exec([fwv(X, 1), fwv(X, 2), frv(X, 1)])
    assert not check_flit(stale)


def test_flit_crash_visibility_through_persistence():
    # unpersisted complete write is invisible after the crash; persisted is
    # forced visible
    labels = [fw(X, 1, thread=0), CRASH, fr(X, 0, thread=5)]
    x = Execution(sequence_execution(labels))
    v = check_flit(x)
    assert v and 0 not in v.witness["P"]
    labels1 = [fw(X, 1, thread=0), CRASH, fr(X, 1, thread=5)]
    v1 = check_flit(Execution(sequence_execution(labels1)))
    assert v1 and 0 in v1.witness["P"]
    # with a finish-op the write must persist: the stale read dies
    labels2 = [fw(X, 1, thread=0), ffin(thread=0), CRASH, fr(X, 0, thread=5)]
    assert not check_flit(Execution(sequence_execution(labels2)))


def test_flit_impl_shape():
    impl = flit_impl()
    assert set(impl.methods) == {"fnew", "fwrite_p", "fwrite_v", "fread_p", "fread_v", "ffinish"}
    mut = flit_impl_mutated_no_fo()
    body = repr(mut.methods["fwrite_p"][1])
    assert "fo" not in body


def test_flit_impl_interpreted_over_px86():
    lit = parse_litmus(
        """
collection flit
globals
  l := fnew()
program
  t0: fwrite_p(l, 1); r := fread_p(l)
"""
    )
    prog = link(lit.phases[0], flit_impl())
    coll = Collection([px86_spec()])
    outs = behaviors(prog, coll, config=InterpConfig(unroll=4), outcome_regs=["r"])
    assert outs == {(("r", 1),)}


def test_persistify_flit_appends_finish():
    from persistcheck.lang import SyntacticImpl, parse_statements

    reg = SyntacticImpl(
        name="reg",
        methods={
            "regwrite": (("l", "v"), parse_statements("store(l, v)")),
            "regread": (("l",), parse_statements("v := load(l); return v")),
        },
    )
    p = persistify_flit(reg)
    w = repr(p.methods["regwrite"][1])
    assert "fwrite_p" in w and "ffinish" in w and "store" not in w
    r = repr(p.methods["regread"][1])
    assert "fread_p" in r and "ffinish" in r
    pm = persistify_flit_mutated(reg)
    assert "ffinish" not in repr(pm.methods["regwrite"][1])


# --------------------------------------------------------------------------
# Mirror
# --------------------------------------------------------------------------


def mwr_(x, v, thread=0, ret=None):
    return Label("mwr", (x, v), ret, frozenset({"D"}), thread)


def mrd_(x, v, thread=0):
    return Label("mrd", (x,), v, frozenset(), thread)


def test_mirror_completed_writes_are_persisted():
    labels = [mwr_(X, 1), mrd_(X, 1)]
    g = PlainExecution(labels, thread_chains(labels))
    x = Execution(g, sw=[(0, 1)])
    v = check_mirror(x)
    assert v and v.witness["P"] == [0]


def test_mirror_sw_must_be_derived_reads_from():
    labels = [mwr_(X, 1), mrd_(X, 1)]
    g = PlainExecution(labels, thread_chains(labels))
    assert not check_mirror(Execution(g, sw=[]))  # missing the rf edge


def test_mirror_sw_candidates_are_derived_reads_from():
    # one lin per order of the two threads: the read sees the write, or 0
    labels = [mwr_(X, 1, thread=0), mrd_(X, 1, thread=1)]
    g = PlainExecution(labels, thread_chains(labels))
    assert mirror_spec().sw_candidates(g) == [frozenset(), frozenset({(0, 1)})]


def test_mirror_write_chain_in_nvo():
    labels = [mwr_(X, 1, thread=0), mwr_(Y, 2, thread=0)]
    g = PlainExecution(labels, thread_chains(labels))
    x = Execution(g)
    v = check_mirror(x)
    assert v and (0, 1) in [tuple(e) for e in v.witness["nvo"]]


def test_mirror_completed_write_survives_crash():
    labels = [mwr_(X, 1, thread=0), CRASH, mrd_(X, 0, thread=5)]
    x = Execution(sequence_execution(labels))
    assert not check_mirror(x)  # completed writes persist: stale read illegal
    labels1 = [mwr_(X, 1, thread=0), CRASH, mrd_(X, 1, thread=5)]
    x1 = Execution(sequence_execution(labels1), sw=[(0, 2)])
    assert check_mirror(x1)


def test_mirror_impl_interpreted_over_px86():
    packs = [0, 1, MIRROR_K + 1, 1 * MIRROR_K + 1]
    lit = parse_litmus(
        """
collection mirror
globals
  l := mnew()
program
  t0: mwr(l, 1); r := mrd(l)
"""
    )
    prog = link(lit.phases[0], mirror_impl())
    coll = Collection([px86_spec()])
    # the success path takes one iteration of each loop; retry paths cut
    cfg = InterpConfig(domain=tuple(packs), unroll=1, max_runs=500_000)
    outs = behaviors(prog, coll, config=cfg, outcome_regs=["r"])
    assert (("r", 1),) in outs
    assert (("r", 0),) not in outs


# --------------------------------------------------------------------------
# Lin / DurLin constructors
# --------------------------------------------------------------------------


def qn(x, thread=0):
    return Label("qnew", (), x, frozenset(), thread)


def qpush_(x, v, thread=0, ret=None):
    return Label("qpush", (x, v), ret, frozenset(), thread)


def qpop_(x, v, thread=0):
    return Label("qpop", (x,), v, frozenset(), thread)


def test_lin_queue_accepts_and_rejects():
    from persistcheck.libs import S_QUEUE_ALIASED

    spec = make_lin_spec(S_QUEUE_ALIASED, queue_interface("q2"))
    ok = chain_exec([qn(X), qpush_(X, 1), qpop_(X, 1)])
    assert spec.local_consistent(ok)
    bad = chain_exec([qn(X), qpush_(X, 1), qpop_(X, 2)])
    assert not spec.local_consistent(bad)
    crash = Execution(sequence_execution([qn(X), CRASH]))
    assert not spec.local_consistent(crash)


def test_durlin_crash_free_equals_lin():
    dspec = durqueue_spec()
    ok = chain_exec([qn(X), qpush_(X, 1), qpop_(X, 1)])
    assert dspec.local_consistent(ok)


def test_durlin_rejects_paper_weak_register_history():
    h = History(
        [
            Inv("regwrite", (X, 1), 1),
            Inv("regwrite", (Y, 1), 2),
            Inv("regread", (Y,), 3),
            Ret(1, 3),
            Inv("regread", (X,), 3),
            Ret(0, 3),
            CRASH_EV,
            Inv("regread", (Y,), 5),
            Ret(0, 5),
            Inv("regread", (X,), 5),
            Ret(1, 5),
        ]
    )
    x = history_to_execution(h)
    assert not reg_durlin_spec().local_consistent(x)


def test_durlin_queue_completed_push_survives():
    labels = [qn(X), qpush_(X, 1), CRASH, qpop_(X, 1, thread=5)]
    x = Execution(sequence_execution(labels))
    assert durqueue_spec().local_consistent(x)
    labels2 = [qn(X), qpush_(X, 1), CRASH, qpop_(X, None, thread=5)]
    x2 = Execution(sequence_execution(labels2))
    assert not durqueue_spec().local_consistent(x2)
    # an incomplete push may be dropped or take effect
    pend = Label("qpush", (X, 1), BOT, frozenset(), 0)
    labels3 = [qn(X), pend, CRASH, qpop_(X, None, thread=5)]
    assert durqueue_spec().local_consistent(Execution(sequence_execution(labels3)))
    labels4 = [qn(X), pend, CRASH, qpop_(X, 1, thread=5)]
    assert durqueue_spec().local_consistent(Execution(sequence_execution(labels4)))


def _eager_execution_linearizable(x, spec, interface, keep=None, budget=200_000, era_monotone=False):
    """The eager search that execution_linearizable replaced: every subset
    of the optional events, times every choice of returns for the incomplete
    ones, each with its own linear-extension search.  Returns True, False,
    or None (budget exceeded)."""
    n_eras = len(x.plain.crash_events()) + 1
    era = x.plain.era_of()
    ids = [e for e in x.events if not x.lab[e].is_crash]
    values = [a for e in ids for a in x.lab[e].args] + [x.lab[e].ret for e in ids if x.lab[e].ret not in (BOT, None)]
    domain = []
    for v in values + [0, None]:
        if v not in domain:
            domain.append(v)
    modes = {}
    for e in ids:
        l = x.lab[e]
        modes[e] = keep(l, era[e], era[e] == n_eras - 1) if keep else ("keep" if l.is_complete else "optional")
    base = [e for e in ids if modes[e] == "keep"]
    optional = [e for e in ids if modes[e] == "optional"]
    spent = [budget]
    for r in range(len(optional) + 1):
        for included in itertools.combinations(optional, r):
            members = sorted(set(base) | set(included))
            hb_local = x.hb_order.restrict(members)
            eras = [era[e] for e in members] if era_monotone else None
            pend = [e for e in members if not x.lab[e].is_complete]
            choices = [[None] if x.lab[e].method in interface.void else domain for e in pend]
            for rets in itertools.product(*choices):
                retmap = dict(zip(pend, rets))
                calls = []
                for e in members:
                    l = x.lab[e]
                    calls.append(Call(l.method, l.args, retmap.get(e, l.ret), l.thread, l.tags, e, e))
                try:
                    for _ in linear_extensions(
                        hb_local, eras, step=lambda st, i: spec.step(st, calls[i]), state=spec.init(), budget=spent
                    ):
                        return True
                except BudgetExceeded:
                    return None
    return False


def _mmcounter_keep(l, era, last):
    # mmcounter_consistent's rule: before the last era only constructors and
    # Ptr-tagged calls count
    if last or PTR_TAG in l.tags or l.method in ("regnew", "qnew"):
        return "keep" if l.is_complete else "optional"
    return "drop"


def _prefix_keep(l, era, last):
    # every call of an earlier era may be left out, complete or not
    return "keep" if last and l.is_complete else "optional"


_LIN_LIBS = {
    "reg": (S_REG_ABSTRACT, _register_iface(), "regnew", "regwrite", "regread", 101),
    "queue": (S_QUEUE_ALIASED, queue_interface(), "qnew", "qpush", "qpop", 201),
}
_LIN_KEEPS = {"default": None, "mmcounter": _mmcounter_keep, "prefix": _prefix_keep}


@st.composite
def _lin_executions(draw):
    """Register or queue executions of 1-2 eras (0-1 crash), 1-2 threads per
    era with 1-2 calls each, at most six calls; a thread's last call may be
    pending, and up to three extra hb edges run forward, so pending calls can
    be hb-before complete ones (always so across the crash)."""
    lib = draw(st.sampled_from(sorted(_LIN_LIBS)))
    _, _, new, write, read, loc = _LIN_LIBS[lib]
    crashes = draw(st.integers(0, 1))
    labels, po = [], []
    tid = 0
    for era in range(crashes + 1):
        if era:
            labels.append(CRASH)
            po += [(e, len(labels) - 1) for e in range(len(labels) - 1)]
        first = len(labels)
        for _ in range(draw(st.integers(1, 2))):
            length = draw(st.integers(1, 2)) if len(labels) < 5 + era else 0
            for k in range(length):
                method = draw(st.sampled_from([new, write, read, read]))
                tags = {PTR_TAG} if draw(st.booleans()) else set()
                done = k < length - 1 or draw(st.booleans())
                if method == new:
                    ret = loc
                    args = ()
                elif method == write:
                    ret, args = None, (loc, draw(st.sampled_from([1, 2])))
                else:
                    ret, args = draw(st.sampled_from([0, 1, 2, None])), (loc,)
                if k:
                    po.append((len(labels) - 1, len(labels)))
                labels.append(Label(method, args, ret if done else BOT, tags, tid))
            tid += 1
        if era:
            po += [(first - 1, e) for e in range(first, len(labels))]
    n = len(labels)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    sw = [(a, b) for a, b in edges if a < b]
    return lib, labels, po, sw


def _trap(lib):
    # regnew():101, a pending regwrite(101,1), a crash, then regread(101):0;
    # leaving the write out means placing the read drops it
    _, _, new, write, read, loc = _LIN_LIBS[lib]
    labels = [
        Label(new, (), loc, frozenset(), 0),
        Label(write, (loc, 1), BOT, frozenset(), 0),
        CRASH,
        Label(read, (loc,), 0 if lib == "reg" else None, frozenset(), 1),
    ]
    return lib, labels, [(0, 1), (0, 2), (1, 2), (2, 3)], []


def _regwrite(v, thread, ret=None):
    return Label("regwrite", (101, v), ret, frozenset(), thread)


def _regread(v, thread):
    return Label("regread", (101,), v, frozenset(), thread)


# a pending write left out before a crash must stay out: it cannot come
# between the two later reads
_DROPPED_STAYS_OUT = (
    "reg",
    [_regwrite(1, 0, BOT), CRASH, _regread(0, 1), _regread(1, 1)],
    [(0, 1), (1, 2), (1, 3), (2, 3)],
    [],
)
# w1 w2 and w2 w1 reach the same placed set in different register states
_SAME_SET_OTHER_STATE = ("reg", [_regwrite(1, 0), _regwrite(2, 1), _regread(1, 1)], [(1, 2)], [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lin_executions(), st.sampled_from(sorted(_LIN_KEEPS)), st.booleans())
@example(_DROPPED_STAYS_OUT, "default", False)
@example(_SAME_SET_OTHER_STATE, "default", False)
@example(_trap("reg"), "default", False)
@example(_trap("reg"), "mmcounter", True)
@example(_trap("queue"), "default", False)
def test_lazy_execution_linearizable_differential(case, keep, era_monotone):
    lib, labels, po, sw = case
    spec, iface, new = _LIN_LIBS[lib][:3]
    x = Execution(PlainExecution(labels, po), sw)

    # a pending constructor keeps its return open, so it names no location:
    # the eager search, which guesses its return, leaves it out
    def eager_keep(l, era, last):
        if l.method == new and not l.is_complete:
            return "drop"
        return _LIN_KEEPS[keep](l, era, last) if _LIN_KEEPS[keep] else "keep" if l.is_complete else "optional"

    v = execution_linearizable(x, spec, keep=_LIN_KEEPS[keep], era_monotone=era_monotone)
    assert not v.is_budget
    want = _eager_execution_linearizable(x, spec, iface, keep=eager_keep, era_monotone=era_monotone)
    assert bool(v) == want, (labels, po, sw)


def test_trap_shape_is_durably_linearizable():
    assert reg_durlin_spec().local_consistent(Execution(PlainExecution(*_trap("reg")[1:3])))


def test_execution_linearizable_stats_on_every_verdict():
    for ret, want in ((1, True), (2, False)):
        x = chain_exec([qn(X), qpush_(X, 1), qpop_(X, ret)])
        v = durqueue_spec().local_consistent(x)
        assert bool(v) is want
        stats = dict(v.stats)
        assert stats["stage"] == "linearization enumeration"
        assert stats["nodes"] == 3 and stats["memo_hits"] == 0
    # Flit tries each write unpersisted, then persisted; the read is checked
    # as it is placed
    for ret, want, nodes in ((1, True, 2), (2, False, 4)):
        v = check_flit(chain_exec([fw(X, 1), fr(X, ret)]))
        assert bool(v) is want
        assert dict(v.stats) == {"stage": "linearization enumeration", "nodes": nodes, "memo_hits": 0}
    # Mirror: the read's sw edge must be its source; an sw edge into a write
    # fails before the search
    for labels, sw, want, nodes in (
        ([mwr_(X, 1), mrd_(X, 1)], [(0, 1)], True, 2),
        ([mwr_(X, 1), mrd_(X, 1)], [], False, 2),
        ([mwr_(X, 1), mwr_(X, 2)], [(0, 1)], False, 0),
    ):
        v = check_mirror(Execution(PlainExecution(labels, thread_chains(labels)), sw))
        assert bool(v) is want
        assert dict(v.stats) == {"stage": "linearization enumeration", "nodes": nodes, "memo_hits": 0}


# --------------------------------------------------------------------------
# Ltrans conditions
# --------------------------------------------------------------------------


def test_ltrans_same_transaction_relation():
    labels = [ptb(), ptw(X, 1), ptw(Y, 2), pte(), ptb(), ptw(X, 3)]
    x = chain_exec(labels)
    st = same_transaction(x)
    assert (1, 2) in st and (2, 1) in st
    assert (1, 3) in st  # the write and its end
    assert (1, 5) not in st  # different transactions


def test_ltrans_tag_hook_groups_partition_the_events():
    # the first end and the second begin are same-transaction with each
    # other, but the end goes to the first transaction's group only
    g = chain_exec([ptb(), ptw(X, 1), pte(), ptb(), ptr_(X, 1), pte()]).plain
    persisted = frozenset({PTR_TAG})
    assert _ltrans_tag_hook(g) == [dict.fromkeys(group, persisted) for group in (range(6), range(3), range(3, 6), ())]


def test_ltrans_wf_write_outside_transaction():
    x = chain_exec([ptw(X, 1)])
    assert not ltrans_global_wellformed(x)
    ok = chain_exec([ptb(), ptw(X, 1), pte()])
    assert ltrans_global_wellformed(ok)


def test_ltrans_wf_nesting_and_matching():
    nested = chain_exec([ptb(), ptb()])
    assert not ltrans_local_wellformed(nested)
    dangling = chain_exec([pte()])
    assert not ltrans_local_wellformed(dangling)


def test_ltrans_wf_recovery_after_crash():
    labels = [ptb(), ptw(X, 1), pte(), CRASH, ptb(thread=5), ptw(X, 2, thread=5), pte(thread=5)]
    x = Execution(sequence_execution(labels))
    assert not ltrans_local_wellformed(x)  # no recovery before the new begin
    labels2 = [ptb(), ptw(X, 1), pte(), CRASH, ptrec(thread=5), ptb(thread=5), ptw(X, 2, thread=5), pte(thread=5)]
    x2 = Execution(sequence_execution(labels2))
    assert ltrans_local_wellformed(x2)


def test_ltrans_wf_external_synchronization():
    # two parallel transactions with unordered end/begin pairs
    t0 = [ptb(thread=0), ptw(X, 1, thread=0), pte(thread=0)]
    t1 = [ptb(thread=1), ptw(Y, 1, thread=1), pte(thread=1)]
    x = Execution(parallel_execution(t0, t1))
    assert not ltrans_local_wellformed(x)


def test_ltrans_atomicity_condition13():
    labels = [
        ptb(),
        ptw(X, 1, tags={PTR_TAG}),
        ptw(Y, 2),  # same transaction, not persisted
        pte(),
    ]
    x = chain_exec(labels)
    assert not ltrans_global_consistent(x)
    all_p = [ptb(tags={PTR_TAG}), ptw(X, 1, tags={PTR_TAG}), ptw(Y, 2, tags={PTR_TAG}), pte(tags={PTR_TAG})]
    assert ltrans_global_consistent(chain_exec(all_p))


def test_ltrans_completed_end_persists_condition14():
    labels = [ptb(), ptw(X, 1), pte()]  # end complete but nothing persisted
    x = chain_exec(labels)
    assert not ltrans_global_consistent(x)
    pend_end = [ptb(), ptw(X, 1), Label("pt_end", (), BOT, frozenset({E_TAG}), 0)]
    assert ltrans_global_consistent(chain_exec(pend_end))


def test_ltrans_local_consistency_reads():
    # same-transaction read sees own write
    ok = chain_exec([ptb(), ptw(X, 1), ptr_(X, 1), pte()])
    assert ltrans_local_consistent(ok)
    wrong = chain_exec([ptb(), ptw(X, 1), ptr_(X, 2), pte()])
    assert not ltrans_local_consistent(wrong)
    # cross-era read of an unpersisted write is inadmissible
    labels = [ptb(), ptw(X, 1), pte(), CRASH, ptrec(thread=5), ptb(thread=5), ptr_(X, 1, thread=5), pte(thread=5)]
    x = Execution(sequence_execution(labels))
    assert not ltrans_local_consistent(x)
    tagged = [ptb(), ptw(X, 1, tags={PTR_TAG}), pte(), CRASH, ptrec(thread=5), ptb(thread=5), ptr_(X, 1, thread=5), pte(thread=5)]
    x2 = Execution(sequence_execution(tagged))
    assert ltrans_local_consistent(x2)


# --------------------------------------------------------------------------
# Undo-log implementation (interpreter smoke tests; the exhaustive runs live
# in the acceptance suite)
# --------------------------------------------------------------------------

LTRANS_LOW = Collection([weakreg_spec(), durqueue_spec()]).freeze()


def _run_ltrans(text, regs, unroll=8, max_runs=400_000):
    from persistcheck.lang import link_phases
    from persistcheck.libs import sc_prune_factory

    lit = parse_litmus(text)
    phases = link_phases(lit.phases, ltrans_impl())
    cfg = InterpConfig(unroll=unroll, max_runs=max_runs, prune_factory=sc_prune_factory())
    return behaviors(phases, LTRANS_LOW, config=cfg, outcome_regs=regs, budget=4_000)


def test_ltrans_impl_empty_transaction_logs_committed_only():
    lit = parse_litmus(
        """
collection ltrans
program
  t0: pt_begin(); pt_end()
"""
    )
    prog = link(lit.phases[0], ltrans_impl())
    coll = LTRANS_LOW
    it = interpret(prog, coll, InterpConfig(unroll=4))
    env, g = it.complete_executions()[0]
    appends = [g.lab[e] for e in g.events if g.lab[e].method == "qappend"]
    assert len(appends) == 1 and appends[0].args[1] == COMMITTED


def _consistent_runs(text, unroll=8, max_runs=400_000):
    from persistcheck.lang import candidate_refinements, interpret_phases, link_phases
    from persistcheck.libs import sc_prune_factory
    from persistcheck.framework import check_hereditarily_consistent

    lit = parse_litmus(text)
    phases = link_phases(lit.phases, ltrans_impl())
    cfg = InterpConfig(unroll=unroll, max_runs=max_runs, prune_factory=sc_prune_factory())
    out = []
    for env, g in interpret_phases(phases, LTRANS_LOW, cfg):
        if env is None:
            continue
        for x in candidate_refinements(LTRANS_LOW, g):
            if check_hereditarily_consistent(LTRANS_LOW, x, budget=4_000):
                out.append((env, g))
                break
    return out


def _committed_before_crash(g):
    """The commit record landed pre-crash (pt_end fences before appending the
    sentinel, so a complete sentinel implies the fence completed)."""
    era = g.era_of()
    return any(
        g.lab[e].method == "qappend"
        and g.lab[e].args[1] == COMMITTED
        and g.lab[e].is_complete
        and era[e] == 0
        for e in g.events
    )


def test_ltrans_impl_committed_survives_crash():
    runs = _consistent_runs(
        """
collection ltrans
globals
  c := pt_new()
program
  t0: pt_begin(); pt_write(c, 7); pt_end()
crash
program
  t5: pt_recover(); r := pt_read(c)
"""
    )
    committed = [env for env, g in runs if _committed_before_crash(g)]
    assert committed, "no consistent committed run found"
    assert all(env["r"] == 7 for env in committed)
    # and an early crash legitimately loses the uncommitted write
    assert any(env["r"] == 0 for env, g in runs if not _committed_before_crash(g))


# --------------------------------------------------------------------------
# Prefix pruning from the declared sequential specs: pruned behaviors equal
# unpruned ones
# --------------------------------------------------------------------------


def _prune_agrees(text):
    phases = list(parse_litmus(text).phases)
    got = [
        behaviors(phases, LTRANS_LOW, config=InterpConfig(unroll=2, prune_factory=f), budget=4_000)
        for f in (None, sc_prune_factory())
    ]
    assert got[1] == got[0]
    assert got[1].undecided == got[0].undecided
    return got[1]


PRUNE_REGRESSIONS = {
    # a crash between phases may keep the write the middle phase never touches
    "weakreg_three_phases": (
        "x := rnew()",
        ["rwrite(x, 1); pfence()", "skip", "r := rread(x)"],
        {(("r", 1),)},
    ),
    "durqueue_three_phases": ("q := qnew()", ["qpush(q, 1)", "skip", "r := qpop(q)"], {(("r", 1),)}),
    # a later phase's own push, then pop, on a queue of an earlier phase
    "push_then_pop": ("q := qnew()", ["skip", "qpush(q, 2); r := qpop(q)"], {(("r", 2),)}),
    # a crash before a later phase allocates a queue leaves it unallocated
    "queue_allocated_after_crash": (
        "x := rnew()",
        ["skip", "p := qnew(); qpush(p, 1)", "p := qnew(); r := qpop(p)"],
        {(("p", 102), ("r", None))},
    ),
    # interleavings of an earlier phase hold states no per-thread run holds
    "two_threads_before_crash": (
        "q := qnew()",
        ["qpush(q, 1) || qpush(q, 2)", "a := qpop(q); b := qpop(q)"],
        {(("a", 1), ("b", 2)), (("a", 2), ("b", 1))},
    ),
}


def _phase_program(globals_, phases):
    """A litmus program: one ``program`` block per phase, its threads
    separated by ``||``, the phases separated by crashes."""
    blocks = []
    tid = 0
    for phase in phases:
        threads = []
        for body in phase.split(" || "):
            threads.append(f"  t{tid}: {body}")
            tid += 1
        blocks.append("program\n" + "\n".join(threads))
    return f"collection weakreg durqueue\nglobals\n  {globals_}\n" + "\ncrash\n".join(blocks) + "\n"


@pytest.mark.parametrize("name", sorted(PRUNE_REGRESSIONS))
def test_sc_prune_keeps_every_behavior(name):
    globals_, phases, must_see = PRUNE_REGRESSIONS[name]
    assert must_see <= _prune_agrees(_phase_program(globals_, phases))


_PRUNE_READS = ["{r} := rread(x)", "{r} := qpop(q)"]
_PRUNE_OPS = ["skip", "rwrite(x, 1)", "rwrite(x, 2)", "pfence()", "qpush(q, 1)", "qpush(q, 2)"] + _PRUNE_READS


@st.composite
def _pruned_programs(draw):
    """1-3 phases over one weak register and one durable queue, 1-2
    threads per phase, 1-2 calls per thread, at most four calls in all; the
    last phase only reads."""
    n = draw(st.integers(1, 3))
    phases = []
    calls = 0
    for i in range(n):
        ops = st.sampled_from(_PRUNE_READS if i == n - 1 else _PRUNE_OPS)
        threads = []
        for _ in range(draw(st.integers(1, 2))):
            body = draw(st.lists(ops, min_size=1, max_size=min(2, 4 - calls))) if calls < 4 else ["skip"]
            threads.append("; ".join(op.format(r=f"r{calls + j}") for j, op in enumerate(body)))
            calls += len(body)
        phases.append(" || ".join(threads))
    return _phase_program("x := rnew()\n  q := qnew()", phases)


@settings(max_examples=100, deadline=None)
@given(_pruned_programs())
def test_sc_prune_differential(text):
    _prune_agrees(text)


# --------------------------------------------------------------------------
# Lock and LStrans
# --------------------------------------------------------------------------


def lacq_(x=1, thread=0, ret=None):
    return Label("lacq", (x,), ret, frozenset(), thread)


def lrel_(x=1, thread=0, ret=None):
    return Label("lrel", (x,), ret, frozenset(), thread)


def test_lock_word_shape():
    ok = chain_exec([lacq_(), lrel_(), lacq_()])
    assert lock_consistent(ok)
    bad = chain_exec([lrel_()])
    assert not lock_consistent(bad)
    double = chain_exec([lacq_(), lacq_()])
    assert not lock_consistent(double)


def test_lock_requires_total_hb():
    x = Execution(parallel_execution([lacq_(thread=0)], [lacq_(thread=1)]))
    assert not lock_consistent(x)


def test_lock_hook_orders_parallel_sections():
    g = parallel_execution([lacq_(thread=0), lrel_(thread=0)], [lacq_(thread=1), lrel_(thread=1)])
    from persistcheck.libs import _lock_sw_hook

    hooks = _lock_sw_hook(g)
    # both section orders proposed
    assert frozenset({(1, 2)}) in hooks and frozenset({(3, 0)}) in hooks


def test_lstrans_orders_parallel_transactions():
    # two threads, each one lock-wrapped transaction over the abstract ltrans
    lit = parse_litmus(
        """
collection lstrans ltrans lock
globals
  c := pt_new()
program
  t0: lpt_begin(); pt_write(c, 1); lpt_end()
  t1: lpt_begin(); pt_write(c, 2); lpt_end()
"""
    )
    prog = link(lit.phases[0], lstrans_impl())
    coll = Collection([lock_spec(), ltrans_spec()])
    from persistcheck.lang import candidate_refinements, interpret_toplevel
    from persistcheck.framework import check_consistent

    runs = interpret_toplevel(prog, coll, 0, InterpConfig(unroll=4))
    checked = 0
    for env, g in runs:
        if env is None:
            continue
        for x in candidate_refinements(coll, g):
            if check_consistent(coll, x) and ltrans_local_wellformed(x):
                # external synchronization discharged: ends/begins hb-ordered
                checked += 1
    assert checked > 0


# --------------------------------------------------------------------------
# Counters
# --------------------------------------------------------------------------


def cinc_(c, thread=0, ret=None, tags=()):
    return Label("cinc", (c,), ret, frozenset(tags) | {T_TAG}, thread)


def cread_(c, v, thread=0):
    return Label("cread", (c,), v, frozenset({T_TAG}), thread)


def test_counter_counts_visible_incs():
    ok = chain_exec([cinc_(X), cinc_(X), cread_(X, 2)])
    assert counter_consistent(ok)
    bad = chain_exec([cinc_(X), cinc_(X), cread_(X, 1)])
    assert not counter_consistent(bad)


def test_counter_after_crash_counts_persisted_only():
    labels = [cinc_(X, tags={PTR_TAG}), cinc_(X), CRASH, cread_(X, 1, thread=5)]
    x = Execution(sequence_execution(labels))
    assert counter_consistent(x)
    labels2 = [cinc_(X, tags={PTR_TAG}), cinc_(X), CRASH, cread_(X, 2, thread=5)]
    assert not counter_consistent(Execution(sequence_execution(labels2)))


def test_mmcounter_sequential_spec():
    from persistcheck.model import Call

    def call(m, args, ret):
        return Call(m, args, ret, 0, frozenset(), 0, 0)

    assert S_MMCOUNTER.accepts([call("mmadd", (X, 5), None), call("mmmin", (X,), 5)])
    assert S_MMCOUNTER.accepts(
        [call("mmadd", (X, 5), None), call("mmadd", (X, 3), None), call("mmmin", (X,), 3), call("mmmax", (X,), 5)]
    )
    assert not S_MMCOUNTER.accepts([call("mmadd", (X, 5), None), call("mmmin", (X,), 3)])


def test_mmcounter_abstract_consistency():
    labels = [
        Label("mmadd", (X, 5), None, frozenset({T_TAG}), 0),
        Label("mmmin", (X,), 5, frozenset({T_TAG}), 0),
    ]
    x = chain_exec(labels)
    assert mmcounter_consistent(x)


def test_counter_impl_over_abstract_ltrans():
    lit = parse_litmus(
        """
collection counter ltrans
domain 1 2
globals
  c := cnew()
program
  t0: pt_begin(); cinc(c); cinc(c); r := cread(c); pt_end()
"""
    )
    prog = link(lit.phases[0], counter_impl())
    coll = Collection([ltrans_spec()])
    cfg = InterpConfig(domain=lit.domain, unroll=4)
    outs = behaviors(prog, coll, config=cfg, outcome_regs=["r"], budget=4_000)
    assert (("r", 2),) in outs
    assert all(dict(o)["r"] == 2 for o in outs)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


def test_builtin_registry():
    for name in ["px86", "flit", "mirror", "ltrans", "lstrans", "lock", "durqueue", "weakreg", "counter", "mmcounter", "lin:queue", "durlin:queue", "durlin:register"]:
        spec = builtin_spec(name)
        assert spec.interface.name
    with pytest.raises(KeyError):
        builtin_spec("nope")
    for name in ["flit", "mirror", "ltrans", "lstrans", "counter", "mmcounter"]:
        impl = builtin_impl(name)
        assert impl.methods
    with pytest.raises(KeyError):
        builtin_impl("nope")


def test_builtin_spec_budget_reaches_the_sequential_searches():
    reg = chain_exec(
        [
            Label("rnew", (), X, frozenset(), 0),
            Label("rwrite", (X, 5), None, frozenset(), 0),
            Label("rread", (X,), 5, frozenset(), 0),
        ]
    )
    queue = chain_exec([qn(X), qpush_(X, 1), qpop_(X, 1)])
    for name, x in (("weakreg", reg), ("durqueue", queue)):
        assert builtin_spec(name).local_consistent(x)
        assert builtin_spec(name, budget=1).local_consistent(x).is_budget


def test_builtin_spec_budget_reaches_reg_and_mmcounter():
    reg = chain_exec(
        [
            Label("regnew", (), X, frozenset(), 0),
            Label("regwrite", (X, 5), None, frozenset(), 0),
            Label("regread", (X,), 5, frozenset(), 0),
        ]
    )
    mm = chain_exec(
        [
            Label("mmnew", (), X, frozenset(), 0),
            Label("mmadd", (X, 5), None, frozenset({T_TAG}), 0),
            Label("mmmin", (X,), 5, frozenset({T_TAG}), 0),
        ]
    )
    for name, x in (("reg", reg), ("durlin:register", reg), ("mmcounter", mm)):
        assert builtin_spec(name).local_consistent(x)
        assert builtin_spec(name, budget=1).local_consistent(x).is_budget


def _mm_abstract_execution(m1, m2, ptr_tagged):
    """Abstract min-max counter execution: add(5) in era 0, reads after the
    crash."""
    tags = {T_TAG, PTR_TAG} if ptr_tagged else {T_TAG}
    labels = [
        Label("mmnew", (), X, frozenset(), 0),
        Label("mmadd", (X, 5), None, frozenset(tags), 0),
        CRASH,
        Label("mmmin", (X,), m1, frozenset({T_TAG}), 5),
        Label("mmmax", (X,), m2, frozenset({T_TAG}), 5),
    ]
    return Execution(sequence_execution(labels))


def test_mmcounter_split_backing_breaks_atomicity():
    # §-style horizontal-composition non-example: the max component lives in
    # a plain weak register, so a crash can persist the min without the max.
    from persistcheck.lang import candidate_refinements, interpret_phases, link_phases
    from persistcheck.framework import check_hereditarily_consistent
    from persistcheck.libs import mmcounter_impl_broken

    text = """
collection mmcounter ltrans weakreg
domain 5
globals
  x := mmnew()
program
  t0: pt_begin(); mmadd(x, 5); pt_end()
crash
program
  t5: pt_recover(); pt_begin(); m1 := mmmin(x); m2 := mmmax(x); pt_end()
"""
    lit = parse_litmus(text)
    coll = Collection([ltrans_spec(), weakreg_spec()])
    cfg = InterpConfig(domain=lit.domain, unroll=4, max_runs=100_000)
    phases = link_phases(lit.phases, mmcounter_impl_broken())
    leaked = False
    for env, g in interpret_phases(phases, coll, cfg, complete_only=True):
        if env is None or env.get("m1") != 5 or env.get("m2") == 5:
            continue
        for x in candidate_refinements(coll, g):
            if check_hereditarily_consistent(coll, x, budget=4_000):
                leaked = (env["m1"], env["m2"])
                break
        if leaked:
            break
    assert leaked, "broken implementation produced no consistent split observation"
    # and that observation is abstractly impossible for the min-max counter
    m1, m2 = leaked
    for tagged in (True, False):
        assert not mmcounter_consistent(_mm_abstract_execution(m1, 0 if m2 is None else m2, tagged))
    # whereas the matched observation is abstractly fine
    assert mmcounter_consistent(_mm_abstract_execution(5, 5, True))
