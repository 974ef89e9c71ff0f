"""Benchmark of the tscircle lab: time to a verified result.

    python3 bench/run.py --workload contraction --seed 1 --seconds 30 --trace 0

Run from a checkout; the package is imported from its ``src`` directory and
nowhere else.  One client runs ops back to back (a closed loop) until the
next op would end after ``--seconds``; every op is checked by its
workload's gates.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced and traced passes over the same ops, reports
per-layer figures from the traced passes (see spans.py) and the tracing
overhead, and writes the spans to ``bench/out/``.  The line before the
result holds the machine record, the accuracy sentinels and every op's gate
values.
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
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def import_tscircle():
    """Import tscircle from this checkout's sources; returns (module, seconds)."""
    if not (SRC / "tscircle" / "__init__.py").is_file():
        raise SystemExit(f"error: no tscircle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tscircle
    import tscircle.cli
    elapsed = time.perf_counter() - t0
    if Path(tscircle.__file__).resolve().parent != SRC / "tscircle":
        raise SystemExit(f"error: imported tscircle from {tscircle.__file__}")
    return tscircle, elapsed


def _openblas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
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


def machine_record(workload, seed):
    import numpy
    import scipy
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = _openblas_threads()
    except OSError:
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": blas,
            "python_threads": threading.active_count(),
            "git_commit": _git_commit(), "workload": workload, "seed": seed}


def run_op(wl, ts, ctx, seed, k):
    """Op k of the workload; returns (ok, seconds, values)."""
    import numpy as np
    rng = np.random.default_rng([seed, k])
    t0 = time.perf_counter()
    try:
        ok, values = wl.op(ts, ctx, rng)
    except Exception as exc:           # an op that raises is a failed op
        ok, values = False, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t0
    return bool(ok), elapsed, values


def _record(k, ok, seconds, values, traced=None):
    rec = {"op": k, "ok": ok, "seconds": seconds}
    if traced is not None:
        rec["traced"] = traced
    rec.update(values)
    return rec


def timed_run(wl, ts, ctx, seed, seconds):
    """Closed loop: start op k+1 only if it should end within `seconds`."""
    ops = []
    t_start = time.perf_counter()
    while True:
        ok, dt, values = run_op(wl, ts, ctx, seed, len(ops))
        ops.append(_record(len(ops), ok, dt, values))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(o["seconds"] for o in ops)
        if elapsed + typical > seconds:
            return ops


def traced_run(wl, ts, ctx, seed, seconds, tracer):
    """Ops 0..n-1, each untraced then traced; n depends only on `seconds`,
    so two traced runs at one seed trace the same ops."""
    n = max(1, int(seconds // (2.0 * wl.nominal_op_s)))
    ops = []
    for k in range(n):
        ok, dt, values = run_op(wl, ts, ctx, seed, k)
        ops.append(_record(k, ok, dt, values, traced=False))
        tracer.op = k
        tracer.install()
        try:
            ok, dt, values = run_op(wl, ts, ctx, seed, k)
        finally:
            tracer.uninstall()
        ops.append(_record(k, ok, dt, values, traced=True))
    return ops


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # BLAS runs single-threaded: on a 2-core box two OpenBLAS threads gave
    # the same op times at twice the CPU, and a spinning BLAS thread makes
    # the timings depend on whatever else holds the second core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    ts, import_s = import_tscircle()
    from spans import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    tmp = BENCH / "tmp" / f"{wl.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = wl.setup(ts, str(tmp))
            setups.append(time.perf_counter() - t0)
        if args.trace:
            tracer = Tracer()
            t_origin = time.perf_counter()
            ops = traced_run(wl, ts, ctx, args.seed, args.seconds, tracer)
        else:
            ops = timed_run(wl, ts, ctx, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any((BENCH / "tmp").iterdir()):
            (BENCH / "tmp").rmdir()

    failed = sum(not o["ok"] for o in ops)
    correct = failed == 0 and wl.setup_ok(ctx)
    sentinels = {"t0": ctx["t0"], "r1": ctx["r1"], "mu5_1": ctx["mu5_1"]}
    sentinels.update(wl.sentinels(ctx, ops[0]))

    if args.trace:
        traced = [o for o in ops if o["traced"]]
        plain = [o for o in ops if not o["traced"]]
        layers = layer_metrics(tracer.spans, len(traced),
                               ts.default_grid().nodes.size)
        layers["trace.overhead_s"] = (
            statistics.median(o["seconds"] for o in traced)
            - statistics.median(o["seconds"] for o in plain))
        layers["ops_failed_frac"] = failed / len(ops)
        units = {**LAYER_UNITS, "trace.overhead_s": "s",
                 "ops_failed_frac": "fraction"}
        metrics = {name: metric(v, units[name]) for name, v in layers.items()}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file, t_origin)
    else:
        verified = [o["seconds"] for o in ops if o["ok"]]
        op_time = sum(o["seconds"] for o in ops)
        values = {
            "setup_s": import_s + statistics.median(setups),
            "op_p50_s": statistics.median(verified or [o["seconds"] for o in ops]),
            "ops_per_s": len(verified) / op_time,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: metric(v, END_TO_END_UNITS[name])
                   for name, v in values.items()}
        trace_file = None

    info = {"machine": machine_record(wl.name, args.seed),
            "sentinels": sentinels,
            "setup": {"import_s": import_s, "repeats_s": setups},
            "op_samples": sum(o["ok"] for o in ops),
            "ops_failed_frac": failed / len(ops),
            "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
            "ops": ops}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
