#!/usr/bin/env python3
"""Steadiness check: run each workload k times back to back.

    python3 perfbench/steady.py --runs 10 [--workload batch-d3 ...]
    python3 perfbench/steady.py --overhead --runs 4

Each run is a separate ``run.py`` process of ``BENCHMARK.json``'s
``run_seconds``; run ``k`` uses seed ``k`` (1..runs).  For every
end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread ``(Q3 - Q1) / median``, the
max/min ratio, and the host calibration loop time of each run, then the
failed/attempted share.

``--overhead`` measures the cost of tracing instead: per seed it runs a
traced and an untraced run back to back, flipping their order every
pair, and prints the traced run's per-layer metrics and the ratio of
traced to untraced ``throughput_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> "tuple[dict, dict]":
    """Run ``run.py`` once; returns (result, info line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(l[len("# info "):]) for l in lines if l.startswith("# info "))
    return json.loads(lines[-1]), info


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "max_min": max(values) / min(values),
    }


def overhead(workload: str, pairs: int, seconds: int) -> None:
    ratios = []
    for seed in range(1, pairs + 1):
        order = (0, 1) if seed % 2 else (1, 0)
        thr = {}
        for trace in order:
            res, info = one_run(workload, seed, seconds, trace)
            if not res["correct"]:
                raise RuntimeError(f"{workload} seed {seed} trace {trace}: not correct")
            thr[trace] = info["throughput_per_s"]
            if trace:
                print(f"{workload} seed={seed} layers " + json.dumps(
                    {k: v["value"] for k, v in res["metrics"].items()}), flush=True)
        ratios.append(thr[1] / thr[0])
        print(f"{workload} seed={seed} traced/untraced={ratios[-1]:.3f}", flush=True)
    print(f"== {workload}: median traced/untraced throughput "
          f"{statistics.median(ratios):.3f} over {pairs} pairs", flush=True)


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--overhead", action="store_true",
                    help="traced/untraced pairs instead of a steadiness set")
    args = ap.parse_args()
    if args.runs < 4 and not args.overhead:
        ap.error("--runs must be >= 4 for quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    for wl in workloads:
        if args.overhead:
            overhead(wl, args.runs, seconds)
            continue
        runs = []
        for seed in range(1, args.runs + 1):
            res, info = one_run(wl, seed, seconds, 0)
            runs.append({"result": res, "info": info})
            print(f"{wl} seed={seed} calib={info['host.calib_ms']:.1f}ms "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                  flush=True)
        print(f"== {wl}: {args.runs} runs of {seconds}s")
        for name in runs[0]["result"]["metrics"]:
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            print(f"  {name:18s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['iqr_share']:.3f} max/min={s['max_min']:.3f}")
        tail = spread([r["info"]["latency_tail_ms"] for r in runs])
        print(f"  {'latency_tail_ms':18s} median={tail['median']:.5g} "
              f"spread={tail['iqr_share']:.3f} max/min={tail['max_min']:.3f} "
              f"(p{runs[0]['info']['tail_pct']:g} of "
              f"{runs[0]['info']['latency_samples']} samples; not in BENCHMARK.json)")
        calib = spread([r["info"]["host.calib_ms"] for r in runs])
        print(f"  host.calib_ms      median={calib['median']:.4g} "
              f"spread={calib['iqr_share']:.3f} max/min={calib['max_min']:.3f}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  failed/attempted   {sorted(shares)}  "
              f"correct={all(r['result']['correct'] for r in runs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
