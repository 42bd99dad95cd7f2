"""``model.Label`` computes its flags and its hash once, at construction.

Equality, hashing, ``repr`` and ``dataclasses.replace`` must behave as they
did when the flags were properties and the hash was the dataclass's own
(``RefLabel``, the replaced class kept verbatim), and a copied or unpickled
label must compute its hash again.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from persistcheck.model import BOT, CRASH, Label


@dataclass(frozen=True)
class RefLabel:
    """A single-event method call, or a crash marker (``method is None``).

    A call with ``ret is BOT`` is incomplete; crash labels carry no method,
    arguments, return, tags, or thread.
    """

    method: Optional[str]
    args: Tuple = ()
    ret: object = BOT
    tags: FrozenSet[str] = frozenset()
    thread: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        object.__setattr__(self, "args", tuple(self.args))
        if self.method is None:
            if self.args or self.ret is not BOT or self.tags or self.thread is not None:
                raise ValueError("crash labels carry no payload")

    @property
    def is_crash(self) -> bool:
        return self.method is None

    @property
    def is_call(self) -> bool:
        return self.method is not None

    @property
    def is_complete(self) -> bool:
        """Crashes count as complete; calls are complete once they returned."""
        return self.is_crash or self.ret is not BOT

    def with_tags(self, tags: Iterable[str]) -> "RefLabel":
        return replace(self, tags=self.tags | frozenset(tags))

    def __repr__(self) -> str:
        if self.is_crash:
            return "Crash"
        a = ",".join(repr(x) for x in self.args)
        r = "" if self.ret is BOT else f":{self.ret!r}"
        t = "" if not self.tags else "^" + "{" + ",".join(sorted(self.tags)) + "}"
        th = "" if self.thread is None else f"@t{self.thread}"
        return f"{self.method}({a}){r}{t}{th}"


@st.composite
def _fields(draw):
    if draw(st.integers(0, 5)) == 0:
        return (None, (), BOT, frozenset(), None)
    return (
        draw(st.sampled_from(["rwrite", "rread", "qpush", "⋆"])),
        tuple(draw(st.lists(st.integers(0, 2), max_size=2))),
        draw(st.sampled_from([BOT, None, 0, 1])),
        frozenset(draw(st.sets(st.sampled_from(["T", "P"])))),
        draw(st.sampled_from([None, 0, 1])),
    )


def _observed(l):
    return (l.is_crash, l.is_call, l.is_complete, hash(l), repr(l), l.method, l.args, l.ret, l.tags, l.thread)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fields(), _fields(), st.sampled_from([None, 1]))
def test_labels_behave_as_the_replaced_class(a, b, new_ret):
    la, lb, ra, rb = Label(*a), Label(*b), RefLabel(*a), RefLabel(*b)
    assert _observed(la) == _observed(ra)
    assert (la == lb) == (ra == rb)
    assert len({la, lb}) == len({ra, rb})
    if not la.is_crash:
        # replace and with_tags compute the flags and the hash again
        assert _observed(replace(la, ret=new_ret)) == _observed(replace(ra, ret=new_ret))
        assert _observed(la.with_tags({"E"})) == _observed(ra.with_tags({"E"}))


def test_a_copied_or_unpickled_label_hashes_as_built():
    l = Label("rwrite", (1, 2), None, frozenset({"T"}), 0)
    for other in (copy.copy(l), copy.deepcopy(l), pickle.loads(pickle.dumps(l)), pickle.loads(pickle.dumps(CRASH))):
        assert hash(other) == hash((other.method, other.args, other.ret, other.tags, other.thread))
        assert other in {l, CRASH}
    assert pickle.loads(pickle.dumps(CRASH)).is_crash
    # the hash is not carried along: string hashes differ between processes
    assert b"_hash" not in pickle.dumps(l)
