"""Self-tests of the benchmark: traced counts repeat, and every reference
check rejects a wrong verdict fed to it.

    python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import LIN_SEED, judge_flit, judge_lin, judge_undo  # noqa: E402

SMALL = {"litmus": 3, "undo_log": 24, "lin_histories": 60, "flit_verify": 4}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat(name):
    counts = []
    for _ in range(2):
        rec = run.run_workload(name, seed=3, seconds=0.1, trace=True, limit=SMALL[name])
        assert rec["correct"], rec["problems"]
        counts.append({k: v for k, (v, unit) in rec["metrics"].items() if unit == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    if name == "undo_log":
        # undo_log interprets its programs at set-up only.
        assert counts[0]["lang.runs"] == 0 < counts[0]["lang.setup_runs"]


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100)
    assert pct == pytest.approx(90.0)


# --------------------------------------------------------------------------
# litmus
# --------------------------------------------------------------------------

LIT = """% two expectations
collection px86
program
  t0: r1 := load(x)
expect consistent outcome r1=0
expect inconsistent outcome r1=1   % comment
"""


def test_litmus_reference_accepts_all_pass():
    out = "[PASS] f: expect consistent outcome r1=0\n[PASS] f: expect inconsistent outcome r1=1\n"
    assert reference.expect_lines(LIT) == 2
    assert reference.litmus_item_ok(LIT, out, 0)


@pytest.mark.parametrize(
    "stdout, code",
    [
        ("[PASS] a\n[FAIL] b: observed consistent\n", 1),  # a failed expectation
        ("[PASS] a\n[PASS] b\n", 1),  # wrong exit code
        ("[PASS] a\n", 0),  # an expectation not reported
        ("[PASS] a\n[PASS] b\n[INFO] c\n[PASS] d\n", 0),  # more verdicts than expectations
    ],
)
def test_litmus_reference_rejects(stdout, code):
    assert not reference.litmus_item_ok(LIT, stdout, code)


# --------------------------------------------------------------------------
# undo_log
# --------------------------------------------------------------------------

UNDO_ITEMS = [("2x2", 0, (0, 0)), ("2x2", 1, (1, 2)), ("2x2", 2, (3, 4)), ("1x2", 1, (1, 2)), ("2x2", 1, (0, 0))]


def test_undo_reference_accepts_prefix_reads():
    wrong, undecided, problems = judge_undo(UNDO_ITEMS, ["justified"] * 4 + ["refuted"])
    assert not any(wrong) and not problems and not any(undecided)


def test_undo_reference_rejects_non_prefix_read():
    # level 1 committed (1, 2); reading (0, 0) loses a committed transaction
    wrong, _, problems = judge_undo(UNDO_ITEMS, ["justified"] * 5)
    assert wrong == [False, False, False, False, True] and problems


def test_undo_reference_rejects_unreached_level():
    wrong, _, problems = judge_undo(UNDO_ITEMS, ["justified", "justified", "refuted", "justified", "refuted"])
    assert wrong == [True, True, True, False, True]
    assert any("level(s) [2]" in p for p in problems)


def test_undo_reference_counts_undecided_and_raised():
    wrong, undecided, _ = judge_undo(UNDO_ITEMS, ["justified", "justified", "justified", "justified", None], full=False)
    assert wrong == [False, False, False, False, True]
    wrong, undecided, _ = judge_undo(UNDO_ITEMS, ["justified"] * 4 + ["undecided"])
    assert undecided == [False] * 4 + [True] and not any(wrong)


# --------------------------------------------------------------------------
# lin_histories
# --------------------------------------------------------------------------


def test_lin_reference_rejects_wrong_verdicts():
    wrong, undecided, problems = judge_lin([True, False, True, False], ["fail", "ok", "ok", "undecided"])
    assert wrong == [True, True, False, False]
    assert undecided == [False, False, False, True]
    assert len(problems) == 2


def test_oracle_small_histories():
    w = ("inv", "rwrite", (10, 1), 0)
    r = ("inv", "rread", (10,), 1)
    # write returns, then a read of 0: the write must precede the read
    assert not reference.linearizable_oracle([w, ("ret", None, 0), r, ("ret", 0, 1)])
    # overlapping: the read may go first
    assert reference.linearizable_oracle([w, r, ("ret", 0, 1), ("ret", None, 0)])
    # a pending write may take effect before a read that returns its value
    assert reference.linearizable_oracle([w, r, ("ret", 1, 1)])
    # a pending read is dropped or returns the current value
    assert reference.linearizable_oracle([w, ("ret", None, 0), r])


def test_oracle_agrees_with_acceptance_2_count():
    rng = random.Random(LIN_SEED)
    verdicts = [reference.linearizable_oracle(reference.random_history(rng)) for _ in range(500)]
    assert sum(verdicts) == 242


# --------------------------------------------------------------------------
# flit_verify
# --------------------------------------------------------------------------

FLIT_IMPLS = ["flit"] * 10 + ["flit_no_fo"] * 2


def _flit_results(ok=True, lifted=1, detected=True):
    return [(ok, lifted, 0, 0)] * 10 + [(True, 1, 0, 0), (False, 0, 1 if detected else 0, 0)]


def test_flit_reference_accepts():
    wrong, undecided, problems = judge_flit(FLIT_IMPLS, _flit_results())
    assert not any(wrong) and not problems and not any(undecided)


def test_flit_reference_rejects_unverified_correct_impl():
    res = _flit_results()
    res[3] = (False, 1, 1, 0)
    wrong, _, _ = judge_flit(FLIT_IMPLS, res)
    assert wrong == [i == 3 for i in range(12)]


def test_flit_reference_rejects_too_few_lifted():
    wrong, _, problems = judge_flit(FLIT_IMPLS, _flit_results(lifted=0))
    assert wrong == [True] * 10 + [False] * 2 and problems


def test_flit_reference_rejects_undetected_mutant():
    wrong, _, problems = judge_flit(FLIT_IMPLS, _flit_results(detected=False))
    assert wrong == [False] * 10 + [True] * 2 and problems
