"""persistcheck benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--out runs.jsonl]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Runs from the root of a checkout, on one thread, as a closed loop: each
item (a litmus file, an undo-log run, a history, or a graph x
implementation pair) starts after the previous verdict returned.  Every
verdict is checked against a reference that does not come from the checker
(``reference.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json when untraced, its per-layer metrics when
``--trace 1``.  The exit code is 0 only when every verdict was right.

``--seed`` shuffles the order of every workload's items; the corpora are
fixed (see README.md for why).  ``--seconds`` fixes the number of whole
passes over the items, so a run measures the same work on every commit.
"""

import time

T_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import LIN_SEED, WORKLOADS  # noqa: E402

LAYERS = ("model", "framework", "px86", "sc", "libs", "lang", "substitution", "cli")

#: Whole passes over each workload's items in a 15-second run; a run of
#: S seconds makes round(passes * S / 15), at least one.  On the 2-CPU host
#: the benchmark was defined on, a 15-second run measures 15-25 s of work.
#: litmus makes 14 passes so that its tail rank (ten samples beyond) falls
#: inside the block of iriw.lit samples rather than at its edge.
PASSES_PER_15_S = {"litmus": 14, "undo_log": 3, "lin_histories": 5, "flit_verify": 3}

#: Set-up (import plus building the items) is repeated this many times and
#: its median reported.
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "fail_ratio": "ratio",
    "undecided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def import_persistcheck():
    """Import the package from this checkout's src/, afresh."""
    for name in [n for n in sys.modules if n == "persistcheck" or n.startswith("persistcheck.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = {m: importlib.import_module(f"persistcheck.{m}") for m in LAYERS}
    except ImportError as e:
        raise SetupError(f"cannot import persistcheck from {src}: {e}") from e
    if Path(mods["model"].__file__).resolve().parent != src / "persistcheck":
        raise SetupError(f"persistcheck imported from {mods['model'].__file__}, not {src}")
    return SimpleNamespace(**mods)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metadata(wl, seed, lin_seed, passes):
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": wl.name,
        "seed": seed,
        "lin_seed": lin_seed if wl.name == "lin_histories" else None,
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "item": wl.item_kind,
        "items_per_pass": len(wl.items),
        "passes": passes,
    }


def run_passes(wl, passes, cal, tracer=None):
    """Run whole passes, traced if a tracer is given.  Returns per pass the
    wall time (the sum of its item times) scaled and raw, all item times
    scaled and raw, and per pass the results (None where the run raised)."""
    walls, raw_walls, times, raw_times, results = [], [], [], [], []
    for _ in range(passes):
        gc.collect()
        wl.begin_pass()
        if tracer:
            tracer.install()
        res, stamps = [], []
        cal.sample()
        for item in wl.items:
            cal.due()
            t0 = time.perf_counter()
            try:
                r = wl.run(item)
            except Exception as e:  # a raise is a wrong verdict, not a crash of the benchmark
                print(f"error: {wl.name} item raised {e!r}", file=sys.stderr)
                r = None
            stamps.append((t0, time.perf_counter()))
            res.append(r)
        cal.sample()
        if tracer:
            tracer.uninstall()
        raw = [t1 - t0 for t0, t1 in stamps]
        scaled = [(t1 - t0) * cal.factor(t0, t1) for t0, t1 in stamps]
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        times += scaled
        raw_times += raw
        results.append(res)
    return walls, raw_walls, times, raw_times, results


def judge_all(wl, results):
    attempted = failed = undecided = 0
    problems = []
    for res in results:
        wrong, undec, probs = wl.judge(res)
        attempted += len(res)
        failed += sum(wrong)
        undecided += sum(undec)
        problems.extend(probs)
    return attempted, failed, undecided, problems


def tail(times):
    """The highest percentile of the samples with at least ten beyond it:
    (value, percentile, sample count)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def run_workload(name, seed, seconds, trace=False, limit=None, lin_seed=LIN_SEED):
    """One benchmark run; returns a record with the verdict counts, all
    metrics (name -> (value, unit)) and the run's metadata."""
    cls = WORKLOADS[name]
    passes = max(1, round(PASSES_PER_15_S[name] * seconds / 15))
    cal = calibration.Calibration()
    setups, raw_setups = [], []
    t0 = T_START
    tracer = tracing.Tracer() if trace else None
    for rep in range(1 if trace else SETUP_REPEATS):
        if rep:
            wl = pc = None
            gc.collect()
            cal.sample()
            cal.sample()
            t0 = time.perf_counter()
        pc = import_persistcheck()
        if tracer:
            tracer.install()
        wl = cls(pc, ROOT, seed, limit=limit, lin_seed=lin_seed)
        if tracer:
            tracer.uninstall()
        t1 = time.perf_counter()
        cal.sample()
        cal.sample()
        raw_setups.append(t1 - t0)
        setups.append((t1 - t0) * cal.factor(t0, t1))
    rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_spans = len(tracer.names) if tracer else 0
    walls, raw_walls, times, raw_times, results = run_passes(wl, passes, cal)
    metrics = {}
    if trace:
        traced_walls, _, _, _, traced_results = run_passes(wl, 1, cal, tracer)
        results += traced_results
        metrics.update(tracing.layer_metrics(tracer, setup_spans, len(wl.items), traced_walls[0], walls))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.tsv")
    # Read before the references run, so that the memory of the
    # lin_histories oracle is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, undecided, problems = judge_all(wl, results)
    value, pct, n = tail(times)
    wall = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "verdicts_per_s": len(wl.items) / wall,
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_tail_ms": value * 1e3,
        "fail_ratio": failed / attempted,
        "undecided_ratio": undecided / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(raw_walls),
        "verdict_p50_ms": statistics.median(raw_times) * 1e3,
        "verdict_tail_ms": tail(raw_times)[0] * 1e3,
        "host_speed": calibration.REFERENCE_S / statistics.median(cal.samples),
        "rss_setup_mb": rss_setup_mb,
    }
    if not trace:
        metrics.update({k: (v, E2E_UNITS[k]) for k, v in e2e.items()})
    return {
        "meta": metadata(wl, seed, lin_seed, passes),
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "undecided": undecided,
        "problems": problems,
        "tail": {"percentile": pct, "samples": n},
        "metrics": metrics,
        "raw": raw,
    }


def report(rec, declared):
    """Human-readable lines, then the one-line JSON result."""
    meta = rec["meta"]
    print(
        f"perfbench {meta['workload']}: seed={meta['seed']} lin_seed={meta['lin_seed']} "
        f"items/pass={meta['items_per_pass']} ({meta['item']}) passes={meta['passes']} python={meta['python']} "
        f"git={meta['git_sha']} nproc={meta['nproc']} trace={int(rec['trace'])}"
    )
    for k, (v, unit) in rec["metrics"].items():
        extra = ""
        if k == "verdict_tail_ms":
            extra = f"  (p{rec['tail']['percentile']:.2f} of {rec['tail']['samples']} samples)"
        elif k in ("fail_ratio", "undecided_ratio"):
            n = rec["failed"] if k == "fail_ratio" else rec["undecided"]
            extra = f"  ({n}/{rec['attempted']})"
        print(f"  {k:36s} {v:14.6g} {unit}{extra}")
    print(f"  verdicts: attempted={rec['attempted']} wrong={rec['failed']} undecided={rec['undecided']}")
    if not rec["trace"]:
        print("  unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in rec["raw"].items()))
    for p in rec["problems"][:20]:
        print(f"  WRONG: {p}")
    out = {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            k: {"value": rec["metrics"][k][0], "unit": rec["metrics"][k][1]} for k in declared if k in rec["metrics"]
        },
    }
    print(json.dumps(out), flush=True)


def run_all(args):
    """Each workload in its own process, one after the other, then a table
    of every end-to-end metric of every workload."""
    out = Path(args.out) if args.out else ROOT / ".perfbench" / "all.jsonl"
    if not args.out:
        out.parent.mkdir(exist_ok=True)
        out.write_text("", encoding="utf-8")
    rows = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--lin-seed", str(args.lin_seed),
               "--out", str(out)]
        proc = subprocess.run(cmd)
        ok = ok and proc.returncode == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[-1]) if lines else None
        if proc.returncode in (0, 1) and rec and rec["meta"]["workload"] == name:
            rows[name] = rec["metrics"]
    names = list(dict.fromkeys(m for r in rows.values() for m in r))
    print(f"\n{'metric':38s}" + "".join(f"{w:>16s}" for w in rows))
    for m in names:
        unit = next(r[m][1] for r in rows.values() if m in r)
        cells = "".join(f"{rows[w][m][0]:16.6g}" if m in rows[w] else f"{'-':>16s}" for w in rows)
        print(f"{m + ' (' + unit + ')':38s}{cells}")
    return 0 if ok else 1


def compare(path_a, path_b):
    """Per workload and metric: both medians, their ratio, and whether B is
    worse than A by more than the metric's bound in BENCHMARK.json."""
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        by = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                for k, (v, _) in rec["metrics"].items():
                    by.setdefault((rec["meta"]["workload"], k), []).append(v)
        return by

    a, b = load(path_a), load(path_b)
    print(f"{'workload':14s} {'metric':36s} {'median A':>12s} {'median B':>12s} {'B/A':>8s} {'n':>6s}  verdict")
    status = 0
    for key in sorted(set(a) & set(b)):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        ratio = f"{mb / ma:8.3f}" if ma else f"{'-':>8s}"
        m = key[1]
        within = True
        if m in bounds:
            worse = (mb - ma) / ma if bounds[m]["better"] == "lower" else (ma - mb) / ma
            within = worse <= bounds[m]["bound"]
            verdict = f"{'within' if within else 'WORSE than'} {bounds[m]['bound']:.0%}"
        elif m in ("fail_ratio", "undecided_ratio"):
            within = mb <= ma
            verdict = "not higher" if within else "HIGHER"
        else:
            verdict = f"{better[m]} is better" if m in better else "no bound"
        status = status or int(not within)
        print(f"{key[0]:14s} {m:36s} {ma:12.6g} {mb:12.6g} {ratio} {len(a[key]):>3d}/{len(b[key]):<2d}  {verdict}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=LIN_SEED, help="shuffles each workload's item order")
    ap.add_argument("--seconds", type=float, default=15.0, help="nominal measuring time of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lin-seed", type=int, default=LIN_SEED, help="seed of the lin_histories corpus")
    ap.add_argument("--out", help="append the run's full record, as one JSON line, to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two files written by --out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    try:
        declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), lin_seed=args.lin_seed)
    except (SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(rec, [m["name"] for m in declared])
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(rec) + "\n")
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
