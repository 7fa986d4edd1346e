"""falk3 benchmark: four closed-loop workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload verify-ell7 --seed 1 --seconds 25 --trace 0

Run from the root of a falk3 checkout.  One process, one client: the next
op starts only after the previous one has finished and its output has been
checked.  With --trace 0 the last line of stdout is the end-to-end result;
with --trace 1 the ops run once with span wrappers installed and are then
replayed without them, and the last line holds the per-layer metrics.  The
full report (provenance, latency detail, per-layer self times, tracing
overhead, the skipped size ladder) goes to perfbench/out/reports/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import ceil
from time import perf_counter

import common
import spans
from common import HERE, OUT, ROOT, BenchError

WORKLOADS = {
    "verify-ell5": "per-graph fixed costs dominate: triangles, sampler, B2 checks, census and tiny eliminations",
    "verify-ell7": "acceptance-sweep shape where dense exact_rank is most of the time, with a heavy tail",
    "compute-doubled": "largest graphs the dense engine runs, B2 files included; three eliminations each set latency and memory",
    "cli-cold": "a fresh python -m falk3 per small file, so start-up (imports, numba probe, parse, JSON) is most of the wait",
}

SETUP_REPS = 7
# Runs end on a pass boundary with at least this many ops, so the
# 50th percentile always has ten samples beyond it.
MIN_OPS = 20
# Tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def passes(workload: str, seed: int, manifest: dict):
    """The op stream of a run, as an endless sequence of passes over a fixed pool.

    A run may stop only between passes, so every run measures whole passes
    over the same inputs; the seed draws the order of each pass.  The pools
    are fixed because the cost of one graph varies a hundredfold at seven
    vertices, which would swamp any difference between two versions.
    """
    spec = manifest[workload]
    if workload.startswith("verify-"):
        pool = [common.verify_op(spec["vertices"], s) for s in range(spec["pool_seeds"])]
    else:
        pool = [common.compute_op(manifest["files"][i]) for i in spec]
    rng = random.Random(seed)
    while True:
        batch = list(pool)
        rng.shuffle(batch)
        yield batch


def executor(workload: str, falk3, manifest: dict, tracer=None):
    """A function running one op; returns (seconds, failure reason or None, child peak KiB)."""
    if workload != "cli-cold":

        def execute(op):
            seconds, rc, out = common.run_inprocess(falk3, op.argv, tracer)
            return seconds, common.check(op, rc, out, manifest), None

        return execute

    def execute(op):
        if tracer is None:
            seconds, rc, out, _, kib = common.run_child([sys.executable, "-m", "falk3", *op.argv])
            return seconds, common.check(op, rc, out, manifest), kib
        cmd = [sys.executable, str(HERE / "child.py"), "op", *op.argv]
        found = []

        def call():
            result = common.run_child(cmd)
            for line in result[3].splitlines():
                if line.startswith(common.TRACE_MARK):
                    found.append(json.loads(line[len(common.TRACE_MARK):]))
            if found:
                tracer.merge(found[-1])
            return result

        seconds, rc, out, _, kib = tracer.op(call)
        reason = common.check(op, rc, out, manifest)
        if reason is None and not found:
            reason = "traced child printed no span totals"
        return seconds, reason, kib

    return execute


@dataclass
class Loop:
    done: list  # (op, seconds, failure reason or None), in run order
    wall_s: float
    child_peak_kib: int


def closed_loop(batches, execute, seconds: float) -> Loop:
    done = []
    child_peak = 0
    start = perf_counter()
    for batch in batches:
        for op in batch:
            dt, reason, kib = execute(op)
            done.append((op, dt, reason))
            child_peak = max(child_peak, kib or 0)
        if perf_counter() - start >= seconds and len(done) >= MIN_OPS:
            break
    return Loop(done, perf_counter() - start, child_peak)


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_LADDER:
        if n * (1000 - p) >= 10 * 1000:
            return p / 10, lat[ceil(p * n / 1000) - 1]
    raise BenchError(f"{n} ops are too few for a tail percentile")


def middle_tenth_mean(latencies) -> float:
    """The median, estimated as the mean of the latencies from p45 to p55.

    Graph costs come in classes.  In the verify-ell7 pool the middle falls
    in the gap between two of them (about 36 and 45 ms when the benchmark
    was written), so the plain median jumps between the classes from run
    to run with op-to-op jitter; this mean moves only with the latencies.
    """
    lat = sorted(latencies)
    n = len(lat)
    middle = lat[(45 * n) // 100 : -((45 * n) // 100) or None]
    return statistics.fmean(middle)


def summarize(loop: Loop, setup_s: float, workload: str) -> tuple[dict, dict]:
    """End-to-end metrics of one loop, plus the detail the report keeps."""
    lat = [dt for _, dt, _ in loop.done]
    failed = [(op, reason) for op, _, reason in loop.done if reason is not None]
    n = len(lat)
    pct, tail_s = tail(lat)
    if workload == "cli-cold":
        peak_kib = loop.child_peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": ((n - len(failed)) / loop.wall_s, "ops/s"),
        "latency_p50_ms": (middle_tenth_mean(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ops_frac": ((n - len(failed)) / n, "frac"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    detail = {
        "attempted": n,
        "failed": len(failed),
        "failed_ops_frac": len(failed) / n,
        "first_failures": [{"argv": list(op.argv), "reason": r} for op, r in failed[:5]],
        "wall_s": loop.wall_s,
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "latency_median_ms": statistics.median(lat) * 1e3,
        "latency_mean_ms": statistics.fmean(lat) * 1e3,
        "latency_max_ms": max(lat) * 1e3,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of SETUP_REPS fresh set-up processes (see child.py setup)."""
    reps = []
    for _ in range(SETUP_REPS):
        seconds, rc, _, err, _ = common.run_child([sys.executable, str(HERE / "child.py"), "setup"])
        if rc != 0:
            raise BenchError(f"set-up failed with status {rc}: {err.strip()}")
        reps.append(seconds)
    return statistics.median(reps), reps


def traced_report(tracer: spans.Tracer, traced: Loop, replay: Loop) -> dict:
    ops = len(traced.done)
    values = spans.per_op(tracer.snapshot(), ops)
    op_ms = values["trace.op_ms"]
    selfs = spans.self_times(values)
    untraced_ms = sum(dt for _, dt, _ in replay.done) * 1e3 / ops
    return {
        "ops": ops,
        "per_op": values,
        "traced_op_ms": op_ms,
        "self_ms_sum": sum(selfs.values()),
        "untraced_op_ms": untraced_ms,
        "overhead_ms_per_op": op_ms - untraced_ms,
        "share_of_op_time": {k: v / op_ms for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])},
        "exact_rank_share": values.get("rank.exact_rank.self_ms", 0.0) / op_ms,
    }


def size_ladder(manifest: dict) -> list[dict]:
    """Doubled K6..K8 with a loop: sizes from ideal3_rows alone, never ranked."""
    from falk3 import algebra, graph_io

    out = []
    for spec in manifest["ladder"]:
        g = graph_io.parse_graph(common.doubled_text(spec["ell"], spec["loops"]))
        rows = algebra.ideal3_rows(g)
        cols = len({mono for row in rows for mono in row})
        nbytes = len(rows) * cols * 8
        out.append({
            "name": spec["name"],
            "status": "skipped",
            "reason": f"not run: each elimination would build a dense {len(rows)} x {cols} "
                      f"int64 matrix ({nbytes / 1e9:.2f} GB); sizes come from ideal3_rows",
            "n": g.n,
            "rows": len(rows),
            "cols": cols,
            "dense_int64_bytes": nbytes,
        })
    return out


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    try:
        from falk3 import _kernels

        numba_importable = _kernels.HAVE_NUMBA
        kernel_path = "numba" if _kernels.numba_enabled() else "numpy"
    except ImportError:
        numba_importable, kernel_path = None, "falk3._kernels absent"
    try:
        numba_version = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba_version = None
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba_version,
        "numba_importable": numba_importable,
        "kernel_path": kernel_path,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args) -> dict:
    common.guard()
    falk3 = common.import_falk3()
    manifest = common.load_manifest()
    setup_s, setup_reps = measure_setup()
    common.write_inputs(manifest)
    batches = passes(args.workload, args.seed, manifest)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = closed_loop(batches, executor(args.workload, falk3, manifest, tracer), args.seconds)
        finally:
            uninstall()
        batches = [[op for op, _, _ in traced.done]]
    loop = closed_loop(batches, executor(args.workload, falk3, manifest), args.seconds)
    metrics, detail = summarize(loop, setup_s, args.workload)

    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "setup_reps_s": setup_reps,
        "end_to_end": metrics,
        "loop": detail,
        "size_ladder": size_ladder(manifest),
    }
    attempted, failed = detail["attempted"], detail["failed"]
    if tracer is not None:
        report["traced"] = traced_report(tracer, traced, loop)
        per_op = report["traced"]["per_op"]
        metrics = {name: {"value": per_op.get(name, 0.0), "unit": unit} for name, unit in spans.PER_LAYER}
        traced_failed = sum(reason is not None for _, _, reason in traced.done)
        attempted, failed = attempted + len(traced.done), failed + traced_failed

    path = OUT / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
