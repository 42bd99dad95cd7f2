"""The seed format that the owner table kept before a seed became the
library's own last witness, kept verbatim as a test reference: the
``Placement`` converters ``lin_placed``, ``weakreg_placed`` and
``px86_placed``, the Px86 replay of a placement, ``px86_replay``, and the
lines of ``execution_linearizable`` and ``weakreg_consistent_execution``
that translated a placement into the seed pairs they hand ``sc.linearize``.
Each translation is wrapped in a function of the locals it read: the
members of the linearization check (the events it offers a candidate),
and the mask of the weak-register check.  ``placement`` gives the
placement that the owner table kept for an OK verdict of a library."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from persistcheck.model import CRASH, Execution, bits
from persistcheck.px86 import Px86Witness
from persistcheck.sc import Placement, WeakRegWitness


def lin_placed(x: Execution, mask: int, witness: Sequence[int]) -> Placement:
    """The witness of :func:`execution_linearizable`, its placed events."""
    return [(e, None) for e in witness]


def weakreg_placed(x, mask: int, w: WeakRegWitness) -> Placement:
    """The witness ``w`` of :func:`weakreg_consistent_execution` on ``x``
    and ``mask`` as its search placed it: per era the calls in volatile
    order, each with its persist choice, then the crash that ends the era."""
    crashes, last = [c for c in x.plain.crash_events() if mask >> c & 1], len(w.lin) - 1
    po, ends = x.plain.po_order.rows, sum(1 << c for c in crashes)
    out: Placement = []
    for k, lin in enumerate(w.lin):
        out += [(e, None if not po[e] & ends or x.lab[e].method == "rread" else e in w.persisted[k]) for e in lin]
        out += [(crashes[k], None)] if k < last else []
    return out


def px86_placed(x: Execution, mask: int, w: Px86Witness) -> Placement:
    """The witness ``w`` of the projection of ``x`` on ``mask``, given in the
    projection's ids, per event of ``mask`` in ``x``'s ids: its rf source
    (``None`` for an event that reads nothing), the rows of its tso and nvo
    successors, and whether it is persisted."""
    keep = list(bits(mask))
    src = {keep[r]: keep[a] for a, r in w.rf}
    tso, nvo = dict.fromkeys(keep, 0), dict.fromkeys(keep, 0)
    for rows, rel in ((tso, w.tso), (nvo, w.nvo)):
        for a, b in rel:
            rows[keep[a]] |= 1 << keep[b]
    persisted = {keep[e] for e in w.persisted}
    return [(e, (src.get(e), tso[e], nvo[e], e in persisted)) for e in keep]


def px86_replay(mask: int, seed: Placement) -> Optional[Px86Witness]:
    """The witness of a ``seed`` (as :func:`px86_placed` gives one) cut to
    the events of ``mask``, in the ids of the projection on ``mask``; or
    ``None`` unless the seed places every event of ``mask`` and every read
    of ``mask`` reads from an event of ``mask``.

    The cut is a witness whenever the seed is one of a projection on a
    superset of ``mask`` and ``mask`` holds every crash po-before its
    events: the eras, the derived sets and hb of ``mask`` are those of the
    seed's execution cut to it, every axiom is a condition on the events
    and the relations it names, and the tso and nvo edges and the persists
    that ``mask`` forces are among those the seed's execution forces."""
    placed = dict(seed)
    idx: Dict[int, int] = {}
    for e in bits(mask):
        choice = placed.get(e)
        if choice is None or choice[0] is not None and not mask >> choice[0] & 1:
            return None
        idx[e] = len(idx)
    rf, tso, nvo, persisted = [], [], [], []
    for e, i in idx.items():
        src, tso_row, nvo_row, p = placed[e]
        if src is not None:
            rf.append((idx[src], i))
        tso += [(i, idx[b]) for b in bits(tso_row & mask)]
        nvo += [(i, idx[b]) for b in bits(nvo_row & mask)]
        if p:
            persisted.append(i)
    return Px86Witness(frozenset(rf), frozenset(tso), frozenset(nvo), frozenset(persisted))


def lin_seed(x: Execution, members: int, seed: Placement) -> Placement:
    """``execution_linearizable``'s translation of a placement ``seed``."""
    lab = x.lab
    seed = [(e, lab[e]) for e, _ in seed if members >> e & 1]
    return seed


def weakreg_seed(x, mask: int, seed: Placement) -> Placement:
    """``weakreg_consistent_execution``'s translation of a placement
    ``seed`` for the projection on ``mask``."""
    n, lab = len(x), x.lab
    crashes = [c for c in x.plain.crash_events() if mask >> c & 1]
    end = {c: n + k for k, c in enumerate(crashes)}
    seed = [(end[e], CRASH) if e in end else (e, (lab[e], p)) for e, p in seed if mask >> e & 1]
    return seed


PLACED = {"weakreg": weakreg_placed, "px86": px86_placed}


def placement(x: Execution, name: str, mask: int, witness) -> Placement:
    """What the owner table kept for an OK verdict of library ``name`` on
    its projection on ``mask``."""
    return PLACED.get(name, lin_placed)(x, mask, witness)
