"""The transaction, lock, lock-wrapped transaction and counter predicates on
closed rows, against the pair-set predicates they replaced
(``pairs_reference``): the same verdict (status and reason) from each, the
same same-transaction relation and the tag-hook list, on random
executions with 0-2 crashes, B/E/T/Ptr tags, ``⋆`` labels, pending calls and
random sw edges.  The tag hook's groups partition the events, so its list
is the reference's with each group cut to the events no earlier group
holds.  The lock hook keeps the list of its list-scanning reference on a
case with thousands of sets."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairs_reference as ref
from definitions import same_transaction
from persistcheck.libs import (
    B_TAG,
    E_TAG,
    PTR_TAG,
    T_TAG,
    _lock_sw_hook,
    _ltrans_tag_hook,
    counter_consistent,
    lock_consistent,
    lstrans_spec,
    ltrans_global_consistent,
    ltrans_global_wellformed,
    ltrans_local_consistent,
    ltrans_local_wellformed,
)
from persistcheck.model import (
    BOT,
    CRASH,
    STAR,
    Execution,
    Label,
    PlainExecution,
    parallel_execution,
    seq_compose,
    sequence_execution,
)

LOCS = (10, 11)
TAGS = (B_TAG, E_TAG, T_TAG, PTR_TAG)
#: method -> (arity, return kind, the tags its calls carry)
METHODS = {
    "pt_new": (0, "loc", ()),
    "pt_begin": (0, "void", (B_TAG,)),
    "pt_end": (0, "void", (E_TAG,)),
    "pt_read": (1, "value", (T_TAG,)),
    "pt_write": (2, "void", (T_TAG,)),
    "pt_recover": (0, "void", ()),
    "lacq": (1, "void", ()),
    "lrel": (1, "void", ()),
    "lpt_begin": (0, "void", (B_TAG,)),
    "lpt_end": (0, "void", (E_TAG,)),
    "cinc": (1, "void", (T_TAG,)),
    "cread": (1, "value", (T_TAG,)),
    STAR: (0, "void", ()),
}
#: transaction calls are drawn most often
WEIGHTED = ["pt_begin", "pt_end", "pt_read", "pt_write"] * 3 + sorted(METHODS)


def _label(draw, thread):
    method = draw(st.sampled_from(WEIGHTED))
    arity, kind, tags = METHODS[method]
    args = tuple(draw(st.sampled_from(LOCS)) if i == 0 else draw(st.integers(0, 2)) for i in range(arity))
    ret = draw(st.sampled_from(LOCS)) if kind == "loc" else draw(st.integers(0, 2)) if kind == "value" else None
    tags = set(tags)
    if method == STAR or draw(st.integers(0, 5)) == 0:
        tags = set(draw(st.sets(st.sampled_from(TAGS))))
    if draw(st.integers(0, 2)) == 0:
        tags.add(PTR_TAG)
    return Label(method, args, ret, frozenset(tags), thread)


@st.composite
def executions(draw):
    """1-3 eras (0-2 crashes) of 1-2 threads drawn from threads 0, 1 and 2
    (so a thread may run in several eras), 0-4 calls each and at most eight
    calls in all; a thread's last call in an era may be pending.  sw holds
    random forward edges."""
    crashes = draw(st.integers(0, 2))
    labels, po = [], []
    left = 8
    for era in range(crashes + 1):
        if era:
            labels.append(CRASH)
            po += [(e, len(labels) - 1) for e in range(len(labels) - 1)]
        first = len(labels)
        for thread in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)):
            length = draw(st.integers(0, min(4, left)))
            left -= length
            for k in range(length):
                l = _label(draw, thread)
                if k == length - 1 and draw(st.integers(0, 3)) == 0:
                    l = Label(l.method, l.args, BOT, l.tags, l.thread)
                if k:
                    po.append((len(labels) - 1, len(labels)))
                labels.append(l)
        if era:
            po += [(first - 1, e) for e in range(first, len(labels))]
    calls = [i for i, l in enumerate(labels) if not l.is_crash]
    sw = []
    if len(calls) > 1:
        pairs = [(a, b) for a in calls for b in calls if a < b]
        sw = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    return Execution(PlainExecution(labels, po), sw)


def _lab(method, *args, ret=None, tags=None, thread=0):
    return Label(method, args, ret, frozenset(METHODS[method][2] if tags is None else tags), thread)


def _transactions(source_tags):
    """One thread: a transaction writes 1 to location 10, then a second one
    reads it back."""
    return Execution(
        sequence_execution(
            [
                _lab("pt_begin"),
                _lab("pt_write", 10, 1, tags=source_tags),
                _lab("pt_end"),
                _lab("pt_begin"),
                _lab("pt_read", 10, ret=1),
                _lab("pt_end"),
            ]
        )
    )


#: condition 3: the end of thread 0's transaction and thread 1's begin are unordered
UNSYNCHRONIZED = Execution(
    parallel_execution(
        [_lab("pt_begin"), _lab("pt_write", 10, 1), _lab("pt_end")],
        [_lab("pt_begin", thread=1), _lab("pt_write", 11, 1, thread=1), _lab("pt_end", thread=1)],
    )
)
#: condition 3 holds; condition 10 fails: the read's source is in an earlier
#: transaction and not persisted
UNPERSISTED = _transactions({T_TAG})
#: condition 10 holds: the source is persisted
PERSISTED = _transactions({T_TAG, PTR_TAG})

#: each predicate on rows with the pair-set one it replaced
PREDICATES = [
    (ltrans_local_wellformed, ref.ltrans_local_wellformed),
    (ltrans_global_wellformed, ref.ltrans_global_wellformed),
    (ltrans_local_consistent, ref.ltrans_local_consistent),
    (ltrans_global_consistent, ref.ltrans_global_consistent),
    (lock_consistent, ref.lock_consistent),
    (lstrans_spec().local_wellformed, ref.lstrans_wellformed),
    (counter_consistent, ref.counter_consistent),
]


def test_pinned_examples_reach_their_conditions():
    assert ltrans_local_wellformed(UNSYNCHRONIZED).reason.startswith("cond 3")
    assert ltrans_local_wellformed(UNPERSISTED)
    assert ltrans_local_consistent(UNPERSISTED).reason.startswith("cond 8-10")
    assert ltrans_local_consistent(PERSISTED)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(executions())
@example(UNSYNCHRONIZED)
@example(UNPERSISTED)
@example(PERSISTED)
def test_row_predicates_match_pair_reference(x):
    for new, old in PREDICATES:
        assert new(x) == old(x), new.__qualname__
    assert same_transaction(x) == ref.same_transaction(x)
    assert _ltrans_tag_hook(x.plain) == _first_group_partition(ref._ltrans_tag_hook(x.plain))


def _first_group_partition(candidates):
    """The reference's candidate list with each of its groups cut to the
    events no earlier group holds.  The list holds the unions of every
    combination of its k groups, larger ones first, so its 2**k entries end
    with the k groups in order and then the empty set."""
    k = len(candidates).bit_length() - 1
    groups, grouped = [], set()
    for group in candidates[len(candidates) - 1 - k : -1]:
        groups.append(set(group) - grouped)
        grouped |= set(group)
    persisted = frozenset({PTR_TAG})
    return [
        {e: persisted for group in combo for e in group}
        for r in range(k, -1, -1)
        for combo in itertools.combinations(groups, r)
    ]


def test_lock_hook_keeps_its_list_on_thousands_of_sets():
    # two eras of three threads with two lock sections each: 90 section
    # orders per era, 8,100 distinct sw sets
    def era(base):
        return [[_lab("lacq", 10, thread=base + t), _lab("lrel", 10, thread=base + t)] * 2 for t in range(3)]

    g = seq_compose(parallel_execution(*era(0)), PlainExecution([CRASH], []), parallel_execution(*era(3)))
    got = _lock_sw_hook(g)
    assert len(got) == 8_100
    assert got == ref._lock_sw_hook(g)
