#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload batch-d3 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in
(pure Python: there is nothing to build).  ``--seconds`` sets the run
length as a fixed operation count (``seconds`` × a per-workload rate
constant), never by reading a clock, so every run of a workload does the
same work.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps the program's layer entry points and prints the per-layer metrics
instead.  A traced run prints every per-layer metric: those whose layer
did no work in the workload (the serve layer on ``batch-d3``, say) are
measured on *probes*, the ``--tiny`` traced runs of the workloads that
do drive that layer, made after the workload with the same seed.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it,
``# info {...}``, carries the latency tail, the untraced-comparable
throughput, the host calibration and the probes of the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "batch-d3": "batch_d3",
    "serve-tcp": "serve_tcp",
    "update-stream": "update_stream",
}


#: the workloads whose ``--tiny`` traced runs probe the layers a traced
#: workload leaves idle, tried in this order while any metric is missing
PROBES = ("serve-tcp", "update-stream")
#: units of time: a per-layer time of exactly 0 means its layer did no work
TIME_UNITS = ("s", "ms")


def declared_units(family: str) -> dict:
    """Metric name -> unit of every ``family`` metric (``end_to_end`` or
    ``per_layer``) that ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[family]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few hundred points: the sizes of the smoke tests and the probes")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def traced_run(workload: str, seed: int, seconds: int, tiny: bool) -> dict:
    """Run one workload in this process under a fresh layer tracer."""
    from layertrace import install_program_tracer

    module = importlib.import_module(WORKLOADS[workload])
    tracer = install_program_tracer()
    try:
        return module.run(seed, seconds, tracer, tiny)
    finally:
        tracer.close()


def measured(values: dict, units: dict) -> dict:
    """The per-layer ``values`` whose layer did work (no time of 0)."""
    return {
        k: v for k, v in values.items()
        if k in units and not (units[k] in TIME_UNITS and v == 0.0)
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload in this process; returns the result object."""
    import common

    calib = common.calib_ms()
    if trace:
        res = traced_run(workload, seed, seconds, tiny)
    else:
        res = importlib.import_module(WORKLOADS[workload]).run(seed, seconds, None, tiny)
    calib += common.calib_ms()
    attempted, failed = res["attempted"], res["failed"]
    checks_ok = res.get("checks_ok", True)
    probes = []
    if trace:
        units = declared_units("per_layer")
        values = dict(res["layers"])
        values["host.calib_ms"] = statistics.median(calib)
        found = measured(values, units)
        for probe in PROBES:
            if probe == workload or len(found) == len(units):
                continue
            pres = traced_run(probe, seed, 1, tiny=True)
            probes.append(probe)
            attempted += pres["attempted"]
            failed += pres["failed"]
            checks_ok = checks_ok and pres.get("checks_ok", True)
            values.update(
                (k, v) for k, v in pres["layers"].items() if k in units and k not in found
            )
            found = measured(values, units)
    else:
        units = declared_units("end_to_end")
        values = res["metrics"]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    tail_pct, tail_ms = common.tail_ms(res["samples_ms"])
    info = {
        "workload": workload,
        "seed": seed,
        "latency_samples": len(res["samples_ms"]),
        "tail_pct": tail_pct,
        "latency_tail_ms": tail_ms,
        "throughput_per_s": res["metrics"]["throughput_per_s"],
        "host.calib_ms": statistics.median(calib),
        "probes": probes,
    }
    print("# info " + json.dumps(info), flush=True)
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
