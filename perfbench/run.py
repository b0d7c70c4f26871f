#!/usr/bin/env python3
"""Benchmark of the endoapprox chain: one workload per run, one process.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Set-up (import, inputs, one untimed warm-up op) is timed in this process
and in SETUP_PROBES fresh interpreters; `setup_s` is their median. Then
equal-work ops run back to back for --seconds. With --trace 0 the last
line of output is the end-to-end result; with --trace 1 the first half of
the time runs plain ops and the second half traced ops, and the last line
holds the per-layer metrics. Outputs are checked after the timed ops.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 4  # fresh-interpreter set-ups besides this process's own

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from exactcheck import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter, print it and exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the program, build the inputs, run one warm-up op. The
    benchmark's own reference scans during build() are not counted."""
    t0 = time.perf_counter()
    import endoapprox  # noqa: F401  (the first import in this process)

    wl = WORKLOADS[name](seed)
    wl.build()
    failed, out = run_op(wl)
    return time.perf_counter() - t0 - wl.reference_s, wl, failed, out


def run_op(wl, tracer=None):
    """One op; an exception from the program counts as a failed op."""
    try:
        return tracer.op(wl.op) if tracer else wl.op()
    except Exception as err:  # the op is reported failed, the run goes on
        print(f"op failed: {type(err).__name__}: {err}", file=sys.stderr)
        return True, None


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Judge:
    """Counts ops and failures; keeps one output to check and the digest
    every later output must equal."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.sample = None
        self.digest = None
        self.same = True

    def add(self, failed, out, timed=True) -> None:
        if timed:
            self.attempted += 1
        if failed:
            if timed:
                self.failed += 1
            return
        d = self.wl.digest(out)
        if self.digest is None:
            self.digest, self.sample = d, out
        elif d != self.digest:
            self.same = False

    def correct(self) -> bool:
        if not self.same:
            print("outputs differ between ops", file=sys.stderr)
            return False
        if self.sample is None:
            return True  # every op failed; nothing to judge
        try:
            self.wl.check(self.sample)
        except CheckError as err:
            print(f"check failed: {err}", file=sys.stderr)
            return False
        return True


def timed_ops(wl, judge, seconds: float, tracer=None) -> tuple[list[float], float]:
    """Ops back to back until `seconds` have passed (at least one)."""
    walls: list[float] = []
    cpu = 0.0
    end = time.perf_counter() + seconds
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        failed, out = run_op(wl, tracer)
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpu += c1 - c0
        judge.add(failed, out)
        if t1 >= end:
            return walls, cpu


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, setup_s, wl, judge) -> dict:
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    walls, cpu = timed_ops(wl, judge, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ms": metric(statistics.median(walls) * 1e3, "ms"),
        "cpu_ms_per_op": metric(cpu / len(walls) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(args, wl, judge) -> dict:
    from tracer import LAYER_METRICS, OP, Tracer, calibrate

    plain, _ = timed_ops(wl, judge, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    traced, _ = timed_ops(wl, judge, args.seconds / 2, tracer)
    tracer.active = False

    ops = len(traced)
    self_ms = {k: v * 1e3 / ops for k, v in tracer.self_times().items()}
    out = {}
    for name, (key, kind) in LAYER_METRICS.items():
        if kind == "ms":
            out[name] = metric(self_ms.get(key, 0.0), "ms")
        else:
            out[name] = metric(tracer.counts.get(key, 0) / ops, "count")
    out["trace.op_ms"] = metric(statistics.fmean(tracer.op_times()) * 1e3, "ms")
    out["trace.unattributed_ms"] = metric(self_ms.get(OP, 0.0), "ms")
    # The traced and plain halves hold only a few ops on the slower
    # workloads, so their difference is within the machine's noise there.
    # The overhead is instead the tracer's measured cost per span and per
    # counted call times the spans and counted calls of one op.
    span_s, count_s = calibrate()
    overhead = (tracer.spans() * span_s + tracer.counts.get("__mul__", 0) * count_s) / ops
    out["trace.overhead_ms_per_op"] = metric(overhead * 1e3, "ms")
    direct = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead per op: {overhead * 1e3:.2f} ms from the tracer's cost; "
          f"median traced op minus median plain op: {direct * 1e3:.2f} ms, with "
          f"{len(plain)} plain ops from {min(plain) * 1e3:.1f} to {max(plain) * 1e3:.1f} ms",
          file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, wl, failed, out = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    judge = Judge(wl)
    judge.add(failed, out, timed=False)
    metrics = per_layer(args, wl, judge) if args.trace else end_to_end(args, setup_s, wl, judge)
    result = {
        "correct": judge.correct(),
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
