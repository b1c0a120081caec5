"""craftlora benchmark: three workloads, checked outputs, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload {train,sample,grid} --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of a traced phase, plus the tracing overhead on each end-to-end metric.
The line before it holds the run's provenance and stage details, which are
also written with the spans under ``.bench_build/perfbench/``. See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# Pinned before NumPy is imported anywhere in the process: one BLAS thread.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

# A fixed string-hash seed gives every run the same dict and set layout. In
# six interleaved same-seed runs of `sample`, op_ms spread over 8% with the
# seed fixed and over 38% with per-process random seeds. The interpreter
# reads the seed only at start-up, so the process replaces itself once.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3

# name -> unit of every end-to-end metric, in report order
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "quality": "score",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "sample", "grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every stage; for the smoke test only")
    parser.add_argument("--build-host", metavar="DIR",
                        help="train the shared sample/grid host into DIR and exit")
    args = parser.parse_args(argv)
    if args.workload is None and args.build_host is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_name(args):
    return f"{args.workload}-{args.seed}" + ("-tiny" if args.tiny else "")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed, import_s):
    import numpy as np
    import scipy

    from workloads import source_digest

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT, tiny=False),
        "import_s": import_s,
    }


def git_commit(root):
    """HEAD of the checkout, or None where it is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_phase(workload, import_s, seconds=None, ops=None):
    """Set up ``SETUP_REPEATS`` times, then run operations in whole rounds.

    Runs ``ops`` operations when given, else rounds until the next one would
    end after ``seconds`` (at least one). A round is ``workload.round_ops``
    operations that together hold the workload's mix once; the reported
    operation time is the median over rounds of their mean operation time.
    An operation that raises counts as failed, like one whose checks fail.
    """
    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        setups.append(clock() - start)
    size = workload.round_ops
    durations = []
    rounds = []
    failed = 0
    start = clock()
    while True:
        t = clock()
        ok = bool(_attempt(workload.run_op, len(durations)))
        durations.append(clock() - t)
        failed += not ok
        if len(durations) % size:
            continue
        rounds.append(statistics.fmean(durations[-size:]))
        if ops is not None:
            if len(durations) >= ops:
                break
        elif clock() - start + size * statistics.median(rounds) > seconds:
            break
    checks = _attempt(workload.final_checks)
    if checks is None:
        checks = [False]
    failed += checks.count(False)
    attempted = len(durations) + len(checks)
    return {
        "setup_repeat_s": statistics.median(setups),
        "setup_s": import_s + statistics.median(setups),
        "attempted": attempted,
        "failed": failed,
        "ok_ratio": (attempted - failed) / attempted,
        "op_ms": statistics.median(rounds) * 1e3,
        "ops": len(durations),
        "single_op_p50_ms": statistics.median(durations) * 1e3,
        "single_op_p90_ms": _nearest_rank(durations, 0.9) * 1e3,
    }


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _attempt(fn, *args):
    """Call ``fn``; an exception is reported on stderr and returns None."""
    try:
        return fn(*args)
    except Exception:  # the run must go on to report the failure
        traceback.print_exc(file=sys.stderr)
        return None


def untraced_run(cls, args, build_dir, import_s):
    workload = cls(ROOT, build_dir, args.seed, args.tiny)
    workload.prepare()
    phase = run_phase(workload, import_s, seconds=args.seconds)
    phase["quality"] = workload.quality()
    phase["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: (phase[name], unit) for name, unit in END_TO_END.items()}
    info = {k: phase[k] for k in ("ops", "single_op_p50_ms", "single_op_p90_ms")}
    info.update(workload.info())
    return phase, metrics, info


def traced_run(cls, args, build_dir, import_s):
    """An untraced and a traced phase over the same fixed operations.

    A fixed operation count makes every count and ratio repeat exactly; the
    untraced phase is the baseline of the tracing overhead.
    """
    from tracer import SpanRecorder, per_layer_metrics

    plain = cls(ROOT, build_dir, args.seed, args.tiny)
    plain.prepare()
    base = run_phase(plain, import_s, ops=cls.traced_ops)
    base["quality"] = plain.quality()
    base["peak_rss_mb"] = peak_rss_mb()

    traced = cls(ROOT, build_dir, args.seed, args.tiny)
    traced.prepare()
    recorder = SpanRecorder().install()
    try:
        phase = run_phase(traced, import_s, ops=cls.traced_ops)
    finally:
        recorder.uninstall()
    phase["quality"] = traced.quality()
    phase["peak_rss_mb"] = peak_rss_mb()
    recorder.write(os.path.join(build_dir, f"spans-{run_name(args)}.jsonl"))

    metrics = per_layer_metrics(recorder)
    metrics["trace.overhead.setup_s"] = (
        phase["setup_repeat_s"] / base["setup_repeat_s"] - 1.0, "ratio")
    metrics["trace.overhead.ok_ratio"] = (phase["ok_ratio"] - base["ok_ratio"], "ratio")
    metrics["trace.overhead.peak_rss_mb"] = (phase["peak_rss_mb"] - base["peak_rss_mb"], "MB")
    metrics["trace.overhead.op_ms"] = (phase["op_ms"] / base["op_ms"] - 1.0, "ratio")
    metrics["trace.overhead.quality"] = (phase["quality"] - base["quality"], "score")
    totals = {
        "attempted": base["attempted"] + phase["attempted"],
        "failed": base["failed"] + phase["failed"],
    }
    info = {
        "ops": phase["ops"],
        "untraced": {k: base[k] for k in END_TO_END},
        "traced": {k: phase[k] for k in END_TO_END},
        **traced.info(),
    }
    return totals, metrics, info


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "craftlora", "__init__.py")):
        print(f"error: no craftlora sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    import craftlora
    import workloads
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(craftlora.__file__)) != os.path.join(src, "craftlora"):
        print(f"error: craftlora imported from {craftlora.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.build_host:
        workloads.build_host(args.build_host, args.tiny)
        return 0

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    totals, metrics, info = run(cls, args, build_dir, import_s)

    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, import_s),
        "info": info,
    }
    path = os.path.join(build_dir, f"result-{run_name(args)}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**details, "result": result}, fh, indent=2)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
