"""Benchmark driver for f4search.

Run one workload from the root of a source checkout:

    python3 bench/run.py --workload eval-dense --seed 1 --seconds 10 --trace 0

Inputs are made from ``--seed``. Set-up runs several times and
``setup_s`` is the median. The timed phase is a closed loop with one
caller: each call starts when the previous one has returned, for
``--seconds`` and at least one full pass over the workload's first-pass
calls. Outputs are checked outside the timed phase. The last line of
standard output is the result as JSON; the line before it records the
environment, sample counts, raw timings and report digests.

Timed figures are scaled to a nominal host speed: a fixed calibration
kernel (``calib.py``) runs between set-ups and between calls, and each
time is divided by how much slower than nominal the kernel ran around
it. This cancels the changes of speed of shared hosts,
which are larger than any bound the benchmark could usefully hold. The
raw figures are in the info line.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the same process also runs a traced pass over a fixed set
of calls: each top-level call is wrapped in a span, then its queries are
replayed one layer at a time through public functions, and the result
holds the per-layer metrics. Spans are written to
``.benchwork/traces/`` when the run ends.

The exit code is 0 when every check passed, 1 when a check or a call
failed, and 2 when the ``f4search`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from calib import NOMINAL_S, Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
SETUP_REPS = 5
WORKLOAD_NAMES = ("eval-dense", "search-large", "sweep-rerank", "remote-fused")

# Per-layer metrics taken from set-up spans: mean seconds per set-up.
SETUP_LAYERS = {
    "index.build_s": "index.build",
    "index.save_s": "index.save",
    "index.load_s": "index.load",
    "index.ingest_s": "index.ingest",
    "embfile.write_s": "embfile.write",
    "embfile.load_s": "embfile.load",
    "evaluate.load_bundles_s": "evaluate.load_bundles",
    "synthetic.generate_s": "synthetic.generate_corpus",
}
# Per-layer metrics taken from the traced pass: total seconds.
TOP_LAYERS = {
    "evaluate.image_only_s": "evaluate.image_only",
    "evaluate.fused_s": "evaluate.fused",
    "evaluate.bidir_s": "evaluate.bidir",
    "evaluate.sweep_s": "evaluate.sweep",
}
# Self time of the layer calls in the replay; together they are the time
# the decomposition accounts for.
SELF_LAYERS = {
    "evaluate.metrics_s": ("evaluate.metrics",),
    "encoders.encode_s": ("encoders.encode_texts",),
    "vectors.fuse_s": ("vectors.fuse",),
    "search.topk_s": ("search.topk",),
    "search.full_rank_s": ("search.full_rank",),
    "search.bidir_s": ("search.bidir",),
    "rerank.rerank_s": ("rerank.parse_items", "rerank.rerank"),
    "remote.client_s": ("remote.encode_remote",),
}
REMOTE_LAYERS = {
    "requests": "count",
    "connections": "count",
    "texts_per_request": "count",
    "bytes_sent": "bytes",
    "bytes_received": "bytes",
    "server_s": "s",
}


def import_program():
    """Put the checkout's ``src`` first on the path; exit 2 if it is missing."""
    if not (SRC / "f4search" / "__init__.py").is_file():
        print(f"f4search sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import f4search

    if Path(f4search.__file__).resolve().parent != SRC / "f4search":
        print(f"f4search imported from {f4search.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def commit_hash() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "commit": commit_hash(),
    }


def closed_loop(ops, seconds: float, first_pass: int, round_ops: int, cal) -> dict:
    """Call ops in turn, one at a time, for ``seconds`` and at least ``first_pass`` calls.

    The calibration kernel runs before the first call and after each
    call; a call's host slowdown is the mean of the two samples around it.
    Throughput is taken over rounds of ``round_ops`` consecutive calls,
    which make one round of the mix.
    """
    results, call_s, call_queries, call_slowdown = [], [], [], []
    failed = 0
    start = time.perf_counter()
    before = cal.sample()
    # At least one complete round, for the throughput median.
    least = max(first_pass, round_ops)
    i = 0
    while i < least or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
            failed += op.queries
        call_s.append(time.perf_counter() - t0)
        call_queries.append(op.queries)
        if i < first_pass:
            results.append(out)
        i += 1
        after = cal.sample()
        call_slowdown.append((before + after) / 2)
        before = after
    return {
        # Peak memory over set-up and the timed phase, before the checks.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "call_s": call_s,
        "call_queries": call_queries,
        "call_slowdown": call_slowdown,
        "round_ops": round_ops,
        "queries": sum(call_queries),
        "failed": failed,
        "wall_s": time.perf_counter() - start,
    }


def scaled_call_s(loop, scaled: bool = True) -> list[float]:
    """Time of each call, scaled to the nominal host speed or raw."""
    if not scaled:
        return loop["call_s"]
    return [s / d for s, d in zip(loop["call_s"], loop["call_slowdown"])]


def round_qps(loop, scaled: bool = True) -> list[float]:
    """Queries per second of each complete round, scaled to the nominal host speed or raw."""
    r = loop["round_ops"]
    call_s, queries = scaled_call_s(loop, scaled), loop["call_queries"]
    n = len(call_s) // r * r
    return [sum(queries[i : i + r]) / sum(call_s[i : i + r]) for i in range(0, n, r)]


def tail_percentile(samples: int) -> float:
    """99, or with fewer than 1,000 samples the highest percentile that
    still has ten samples beyond it (at least the median)."""
    return max(50.0, min(99.0, 100.0 * (samples - 10) / samples))


def timings(setup_s, setup_slowdown, loop, scaled: bool) -> dict:
    """The four timed end-to-end figures, scaled to the nominal host speed or raw."""
    # Throughput is the median over rounds, so that a disturbed round or
    # calibration sample cannot move it; in a closed loop at constant speed
    # it equals queries/wall.
    lat_ms = [1e3 * s / q for s, q in zip(scaled_call_s(loop, scaled), loop["call_queries"])]
    setup = [t / d for t, d in zip(setup_s, setup_slowdown)] if scaled else setup_s
    return {
        "throughput_qps": statistics.median(round_qps(loop, scaled)),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p99_ms": float(np.percentile(lat_ms, tail_percentile(len(lat_ms)))),
        "setup_s": statistics.median(setup),
    }


def end_to_end(setup_s, setup_slowdown, loop, quality) -> dict:
    t = timings(setup_s, setup_slowdown, loop, scaled=True)
    values = {
        "throughput_qps": (t["throughput_qps"], "1/s"),
        "latency_p50_ms": (t["latency_p50_ms"], "ms"),
        "latency_p99_ms": (t["latency_p99_ms"], "ms"),
        "setup_s": (t["setup_s"], "s"),
        "peak_rss_mb": (loop["peak_rss_kb"] / 1024, "MB"),
        "recall_at_1": (quality["recall_at_1"], "fraction"),
        "mean_ap": (quality["mean_ap"], "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(wl, traced_ops, tr, counts, loop, trace_speed: float) -> dict:
    selfs, durs = tr.self_times(), tr.durations()
    tops = {op.top for op in traced_ops}
    top_s = sum(durs[name] for name in tops)
    top_queries = sum(op.queries for op in traced_ops)
    oracle_calls = sum(1 for s in tr.spans if s[0] == "search.oracle")
    layer_s = sum(selfs.get(n, 0.0) for names in SELF_LAYERS.values() for n in names)
    # Both rates are scaled to the nominal host speed, so the host's drift
    # between the untraced loop and the traced pass cancels.
    traced_qps = top_queries / top_s * trace_speed
    untraced_qps = statistics.median(round_qps(loop))
    texts = counts.texts
    remote = wl.remote_layer()

    values = {}
    for metric, name in SETUP_LAYERS.items():
        values[metric] = (durs.get(name, 0.0) / SETUP_REPS, "s")
    values["index.file_bytes_per_row"] = (wl.file_bytes_per_row, "B/row")
    for metric, name in TOP_LAYERS.items():
        values[metric] = (durs.get(name, 0.0), "s")
    for metric, names in SELF_LAYERS.items():
        values[metric] = (sum(selfs.get(n, 0.0) for n in names), "s")
    values.update({
        "encoders.texts_encoded": (len(texts), "count"),
        "encoders.texts_distinct": (len(set(texts)), "count"),
        "encoders.useful_frac": (len(set(texts)) / len(texts) if texts else 0.0, "fraction"),
        "search.calls": (counts.search_calls, "count"),
        "search.rows_scanned": (counts.rows_scanned, "count"),
        "search.oracle_ms": (durs.get("search.oracle", 0.0) * 1e3 / max(oracle_calls, 1), "ms"),
        "rerank.candidates": (counts.rerank_candidates, "count"),
        "rerank.items_encoded": (counts.rerank_items, "count"),
    })
    for key, unit in REMOTE_LAYERS.items():
        values[f"remote.{key}"] = (remote.get(key, 0), unit)
    values["trace.overhead_frac"] = (1.0 - traced_qps / untraced_qps, "fraction")
    values["trace.unaccounted_frac"] = (1.0 - layer_s / top_s, "fraction")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, size) -> tuple[dict, dict]:
    """Run one workload; returns (info line, result line)."""
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, LayerCounts

    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tr = Tracer() if trace else NullTracer()
    # The whole workload runs on one CPU, together with the calibration
    # kernel, so the kernel sees the host speed the program sees. Threads
    # started from here on (the stub, evaluation's pool) inherit the
    # affinity, and a hand-off between threads is not a wake-up across
    # virtual CPUs, whose cost varies widely on shared hosts.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        wl = WORKLOADS[name](seed, size, workdir)
        try:
            # Set-up is interpreter and file work on every workload.
            setup_cal = Calibration("python")
            setup_times, setup_slowdown = [], []
            before = setup_cal.sample()
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                with tr.span("setup"):
                    wl.setup(tr)
                setup_times.append(time.perf_counter() - t0)
                after = setup_cal.sample()
                setup_slowdown.append((before + after) / 2)
                before = after
            cal = Calibration(wl.calibration)
            ops = wl.ops()
            loop = closed_loop(ops, seconds, wl.first_pass, wl.round_ops, cal)
            failures, checked = [], 0
            if any(r is None for r in loop["results"]):
                failures.append("a call of the first pass raised; outputs not checked")
                quality = {"recall_at_1": 0.0, "mean_ap": 0.0, "sha256": {}}
            else:
                quality = wl.quality(loop["results"])
                checked, failures = wl.check(loop["results"], tr)
            metrics = end_to_end(setup_times, setup_slowdown, loop, quality)
            if trace:
                counts = LayerCounts()
                traced_ops = ops[: wl.trace_ops]
                first = len(cal.samples)
                for i, op in enumerate(traced_ops):
                    cal.sample()
                    wl.run_traced(i, op, tr, counts)
                cal.sample()
                trace_speed = cal.slowdown(first)
                metrics = per_layer(wl, traced_ops, tr, counts, loop, trace_speed)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)
    if trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tr.write(WORK / "traces" / f"{name}-seed{seed}.json")

    attempted = loop["queries"] + checked
    failed = loop["failed"] + len(failures)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": {**environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "timed": {
            "calls": len(loop["call_s"]),
            "queries": loop["queries"],
            "wall_s": loop["wall_s"],
            "latency_tail_percentile": tail_percentile(len(loop["call_s"])),
            "setup_s": setup_times,
            "setup_slowdown": setup_slowdown,
            "calibration": cal.kind,
            "calibration_nominal_s": NOMINAL_S[cal.kind],
            # Host slowdown (kernel time / nominal): median and quartiles
            # over the samples of the whole run.
            "slowdown": cal.slowdown(),
            "slowdown_quartiles": statistics.quantiles(cal.samples, n=4),
            "rounds": len(loop["call_s"]) // loop["round_ops"],
            # The timed figures before scaling to the nominal host speed.
            "raw": timings(setup_times, setup_slowdown, loop, scaled=False),
        },
        "sha256": quality["sha256"],
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import FULL

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL[args.workload])
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
