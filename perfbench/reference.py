"""Reference verdicts that do not come from the checker under test.

Each function here re-derives the expected answer for one workload from the
workload's own definition: the expectation lines written in the litmus
files, the undo-log prefix property of acceptance 7/7b, and a brute-force
linearizability oracle with its own completion and register semantics.
Nothing in this module imports ``persistcheck``.
"""

import re

# --------------------------------------------------------------------------
# litmus: the files' own expectation lines
# --------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"^\s*expect\b")
_STATUS_RE = re.compile(r"^\[(PASS|FAIL)\] ")


def expect_lines(text):
    """Number of ``expect`` lines in a litmus file (comments start with %)."""
    return sum(1 for line in text.splitlines() if _EXPECT_RE.match(line.split("%", 1)[0]))


def litmus_item_ok(text, stdout, exit_code):
    """A litmus item is right when the checker printed one PASS per
    expectation line of the file, no FAIL, and exited with 0."""
    statuses = [m.group(1) for m in map(_STATUS_RE.match, stdout.splitlines()) if m]
    return exit_code == 0 and statuses == ["PASS"] * expect_lines(text)


# --------------------------------------------------------------------------
# undo_log: reads reflect a prefix of the committed transactions
# --------------------------------------------------------------------------

#: For each shape (transactions x writes), the register states after each
#: prefix of its transactions.  A justified run with commit level L must read
#: one of states[L:]: every committed transaction is visible, and an
#: uncommitted one is either wholly visible or wholly invisible.
UNDO_PREFIX_STATES = {
    "1x1": [(0,), (1,)],
    "2x1": [(0, 0), (1, 0), (1, 2)],
    "1x2": [(0, 0), (1, 2)],
    "2x2": [(0, 0), (1, 2), (3, 4)],
}


def undo_outcome_allowed(shape, level, outcome):
    return tuple(outcome) in UNDO_PREFIX_STATES[shape][level:]


def undo_levels_required(shape):
    """Commit levels that some justified run of the shape must reach
    (acceptance 7 (a) for 1x2, and all levels of the 2x2 grid)."""
    return {"1x2": {1}, "2x2": {0, 1, 2}}.get(shape, set())


# --------------------------------------------------------------------------
# lin_histories: the acceptance-2 history generator and a brute-force oracle
# --------------------------------------------------------------------------


def random_history(rng, max_calls=7):
    """The acceptance-2 generator: crash-free weak-register histories of at
    most ``max_calls`` calls and at most 6 pending ones, as a list of
    ``("inv", method, args, thread)`` and ``("ret", value, thread)`` tuples.
    It draws from ``rng`` in exactly the acceptance test's order, so a seed
    gives the same histories there and here."""
    events = []
    open_threads = {}
    tid = 0
    calls = 0
    while calls < max_calls and len(events) < 2 * max_calls:
        roll = rng.random()
        if open_threads and roll < 0.45:
            t = rng.choice(sorted(open_threads))
            kind = open_threads.pop(t)
            events.append(("ret", rng.choice([0, 1, 2, None]) if kind == "r" else None, t))
        elif roll < 0.92:
            if rng.random() < 0.5:
                events.append(("inv", "rread", (rng.choice([10, 11]),), tid))
                open_threads[tid] = "r"
            else:
                events.append(("inv", "rwrite", (rng.choice([10, 11]), rng.choice([1, 2])), tid))
                open_threads[tid] = "w"
            tid += 1
            calls += 1
        else:
            break
    while len(open_threads) > 6:
        t = sorted(open_threads)[0]
        kind = open_threads.pop(t)
        events.append(("ret", rng.choice([0, 1]) if kind == "r" else None, t))
    return events


_PENDING = object()


def linearizable_oracle(events):
    """Exhaustive search for a linearization of a register history.

    Every pending call is either dropped or completed with a return value
    from the history's mentioned values (null only for writes), and a
    completed pending call returns after every other event.  A call may be
    placed once every call that returned before its invocation is placed.
    A read must return the location's latest written value, or 0 before any
    write.  Search stops at the first order that places every complete call;
    pending calls left unplaced are the dropped ones.  Because the register
    rule is checked one call at a time and no rejected prefix can be
    extended into an accepted order, cutting a branch at its first bad read
    loses no linearization.
    """
    calls = []  # [method, args, ret, inv_pos, ret_pos]
    open_call = {}
    for pos, ev in enumerate(events):
        if ev[0] == "inv":
            _, method, args, thread = ev
            if method not in ("rread", "rwrite"):
                raise ValueError(f"oracle knows only rread/rwrite, not {method}")
            open_call[thread] = len(calls)
            calls.append([method, args, _PENDING, pos, None])
        else:
            _, value, thread = ev
            c = calls[open_call.pop(thread)]
            c[2], c[4] = value, pos
    domain = []
    for ev in events:
        vals = ev[2] if ev[0] == "inv" else ([] if ev[1] is None else [ev[1]])
        for v in list(vals) + [0, None]:
            if v not in domain:
                domain.append(v)
    n = len(calls)
    preds = [
        sum(1 << j for j in range(n) if calls[j][4] is not None and calls[j][4] < calls[i][3])
        for i in range(n)
    ]
    complete = sum(1 << i for i in range(n) if calls[i][2] is not _PENDING)
    failed = set()

    def search(placed, regs):
        if placed & complete == complete:
            return True
        key = (placed, regs)
        if key in failed:
            return False
        state = dict(regs)
        for i in range(n):
            bit = 1 << i
            if placed & bit or preds[i] & ~placed:
                continue
            method, args, ret, _, _ = calls[i]
            if method == "rwrite":
                nxt = dict(state)
                nxt[args[0]] = args[1]
                if search(placed | bit, tuple(sorted(nxt.items()))):
                    return True
            else:
                current = state.get(args[0], 0)
                returns = domain if ret is _PENDING else [ret]
                if current in returns and search(placed | bit, regs):
                    return True
        failed.add(key)
        return False

    return search(0, ())
