#!/usr/bin/env python3
"""Run-to-run agreement of the benchmark on one commit.

    python3 perfbench/stability.py --runs 10 --sets 2

Makes `--sets` sets of `--runs` end-to-end runs of every workload in
BENCHMARK.json, each run as long as its run_seconds, one seed per run and
no seed used twice, one run at a time. For each end-to-end metric on each
workload it prints, per set, the median, the quartiles and the spread
(quartile distance over median, as statistics.quantiles(n=4) gives them),
then the signed drift of each later set's median from the first set's and
the metric's bound from BENCHMARK.json. A spread or a drift (in either
direction) larger than the bound, or a failed share that differs between
sets, is marked FAIL. Raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {}
    seed = args.first_seed
    for s in range(args.sets):
        for wl in (w["name"] for w in spec["workloads"]):
            runs = results.setdefault(wl, [])
            runs.append([])
            for _ in range(args.runs):
                t0 = time.perf_counter()
                res = one_run(wl, seed, spec["run_seconds"])
                res["seed"] = seed
                runs[s].append(res)
                seed += 1
                print(f"set {s} {wl} seed {res['seed']}: {time.perf_counter() - t0:.1f} s "
                      f"correct={res['correct']} {res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (HERE / "out" / f"stability-{stamp}.json").write_text(json.dumps(results, indent=1))

    ok = True
    for wl, sets in results.items():
        print(f"\n{wl}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        line_ok = correct and len(set(shares)) == 1
        ok = ok and line_ok
        print(f"  correct={correct} failed shares={shares} {'ok' if line_ok else 'FAIL'}")
        for name, bound in bounds.items():
            stats = [spread([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            cells = "  ".join(f"med {m:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                              for m, q1, q3, sp in stats)
            drifts = [st[0] / stats[0][0] - 1 for st in stats[1:]]
            good = (all(abs(d) <= bound for d in drifts)
                    and all(st[3] <= bound for st in stats))
            ok = ok and good
            print(f"  {name:14s} {cells}  drift "
                  + " ".join(f"{d:+.3f}" for d in drifts)
                  + f"  bound {bound}  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
