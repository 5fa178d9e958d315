"""Repository benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload read-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` the
set-up and the second and fourth quarters of the measuring time run with
the layer wrappers of ``layers.py`` installed (the other quarters run
without them, for ``trace.overhead``), the metrics are the per-layer ones
and the spans are written to ``.perfbench_out/``.  Lines before the JSON
report provenance, sample counts, per-operation latencies and, when
tracing, a per-layer table.  The exit code is 1 when any answer or check
was wrong, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(args) -> dict:
    import numpy as np

    import workloads
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "corpus_n": workloads.N_CORPUS,
        "dim": workloads.DIM, "history": workloads.N_HISTORY,
        "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "setups_per_run": 1,
    }


def tail_note(values, q: float) -> str:
    beyond = int(len(values) * (100 - q) / 100)
    flag = "" if beyond >= 10 else "  (fewer than 10 samples beyond)"
    return f"n={len(values)}, {beyond} beyond p{q:g}{flag}"


def measure_end_to_end(workload, args, setup_s: float,
                       report: list[str]) -> dict:
    import numpy as np

    import workloads

    stats = workload.measure(args.seconds)
    lat = stats["latencies_ms"]
    report.append(f"latency = {stats['latency_what']}: " + tail_note(lat, 95)
                  + f"; mean {np.mean(lat):.2f}, p50/p90/p95/p99 = "
                  + "/".join(f"{workloads.percentile(lat, q):.2f}"
                             for q in (50, 90, 95, 99)) + " ms")
    for op, values in stats.get("per_op_ms", {}).items():
        report.append(
            f"  {op:<8} n={len(values):>5}  "
            f"p50={workloads.percentile(values, 50):8.3f} ms  "
            f"p99={workloads.percentile(values, 99):8.3f} ms  "
            f"max={max(values):8.3f} ms  ({tail_note(values, 99)})")
    return {
        "setup_s": setup_s,
        "ops_per_s": stats["throughput"],
        "recall_at_10": workload.oracle.recall,
        "rss_peak_mb": workload.rss_peak_mb(),
    }


def measure_traced(workload, args, tracer, setup_summary: dict,
                   report: list[str]) -> dict:
    """Untraced and traced quarters, alternating; per-layer metrics.

    Alternating the quarters keeps a slow drift of the machine's speed from
    reading as tracing overhead.
    """
    import layers

    quarter = args.seconds / 4
    mark = len(tracer.spans)
    deltas: dict[str, float] = {}
    untraced_tp, traced_tp = [], []
    n_queries, phase_wall = 0, 0.0
    for _ in range(2):
        untraced_tp.append(workload.measure(quarter)["throughput"])
        before = workload.counters()
        layers.install_hot(tracer, workload.wait_hook)
        t0 = time.perf_counter()
        try:
            traced = workload.measure(quarter, tracer)
        finally:
            tracer.uninstall()
        phase_wall += time.perf_counter() - t0
        after = workload.counters()
        for key in after:
            deltas[key] = deltas.get(key, 0) + after[key] - before[key]
        traced_tp.append(traced["throughput"])
        n_queries += traced["n_queries"]
        tracer.counts["hops"] += traced.get("hops", 0)
    deltas["wait_ms"] = after.get("wait_ms", 0.0)
    summary = tracer.summary(since=mark)
    overhead = sum(untraced_tp) / sum(traced_tp)
    roots = tracer.roots_seconds(since=mark)
    report.append(f"traced quarters: {n_queries} queries, root spans "
                  f"{1e3 * roots:.1f} ms of {1e3 * phase_wall:.1f} ms traced "
                  f"wall; trace.overhead={overhead:.3f}")
    report.extend(layers.layer_table(summary, roots))
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer.dump(out)
    report.append(f"spans: {len(tracer.spans)} written to "
                  f"{out.relative_to(ROOT)}")
    return layers.per_layer_metrics(summary, setup_summary, tracer.counts,
                                    deltas, n_queries, overhead)


def run(args) -> int:
    import layers
    import workloads
    from tracing import Tracer

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    t_start = time.perf_counter()
    inputs = workloads.Inputs(args.seed)
    workload = workloads.WORKLOADS[args.workload](inputs, scratch, args.seed)
    tracer = Tracer() if args.trace else None
    report: list[str] = []

    try:
        if tracer is not None:
            layers.install_setup(tracer)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        if tracer is not None:
            setup_summary = tracer.summary()
            tracer.uninstall()
        workload.warm()
        gc.collect()
        if tracer is None:
            metrics = measure_end_to_end(workload, args, setup_s, report)
        else:
            metrics = measure_traced(workload, args, tracer, setup_summary,
                                     report)
        checks_ok = workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    oracle = workload.oracle
    correct = (checks_ok and oracle.wrong == 0 and workload.failed == 0
               and oracle.recall >= workloads.RECALL_FLOOR)
    attempted = max(workload.attempted, 1)
    info = provenance(args)
    report.insert(0, "provenance: " + json.dumps(info))
    report.append(f"setup_s={setup_s:.3f} (one set-up per run)")
    report.append(f"answers checked={oracle.n_checked} "
                  f"recall@{workloads.K}={oracle.recall:.4f} "
                  f"error_rate={workload.failed / attempted:.5f} "
                  f"({workload.failed}/{attempted})")
    report.extend(workload.notes)
    report.extend(f"ERROR: {e}" for e in oracle.errors)
    report.append(f"total run time {time.perf_counter() - t_start:.1f} s")
    for line in report:
        print(line)
    if not correct:
        print("benchmark answers were wrong; see the ERROR lines above",
              file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if tracer is not None else "end_to_end"]
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(workload.failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
