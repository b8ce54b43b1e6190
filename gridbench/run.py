"""The repository benchmark: one command, every metric, with checks.

    python3 gridbench/run.py --workload paper_month --seed 1 --seconds 45 --trace 0
    python3 gridbench/run.py --workload all --seed 1 --repeat 5

Run from the repository root.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the traced variant and prints every
per-layer metric instead (zero where the workload does not run that
layer).  ``--repeat N`` runs the workload N times at seeds
``seed .. seed+N-1``, one process at a time, and prints the median and
quartiles of each metric.  See gridbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS, SERVICE_MODULES  # noqa: E402
from stats import summary  # noqa: E402

#: The workloads BENCHMARK.json lists (``--workload all``), plus the
#: paper-config windows, which are measured by hand.
WORKLOADS = ("job_heavy", "service_mix")
EXTRA_WORKLOADS = ("paper_month", "paper_run")
#: Scratch space in the checkout: fingerprints, service state dirs.
STATE_ROOT = os.path.join(ROOT, ".gridbench_state")

#: Every per-layer metric, in print order, with its unit.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [("gc.pause_s", "s"), ("gc.collections", "count"),
       ("sim.events", "count"), ("monitoring.samples", "count"),
       ("services.downtime_calls", "count"), ("trace.spans", "count"),
       ("profile.traced_s", "s"), ("profile.overhead_pct", "%")]
    + [("service.http.submit_ms.p50", "ms"),
       ("service.http.cached_ms.p50", "ms"),
       ("service.http.report_ms.p50", "ms"),
       ("service.http.metrics_ms.p50", "ms"),
       ("service.http.read_ms.p90", "ms"),
       ("service.queue.wait_s.p50", "s"),
       ("service.worker.run_s.p50", "s"),
       ("service.cache.hit_ratio", "ratio"),
       ("service.worker.sim_s.p50", "s"),
       ("service.worker.payload_s.p50", "s"),
       ("service.journal.appends", "count"),
       ("service.journal.append_ms.p50", "ms"),
       ("service.first_run_s", "s")]
    + [(f"service.{module}.self_s", "s") for module in SERVICE_MODULES]
)


def per_layer_metrics(traced: dict) -> dict:
    """Every per-layer metric; zero for layers this workload never ran."""
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = traced["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = traced["calls"].get(layer, 0)
    values.update(traced["counts"])
    for name, (value, _unit) in traced["service"].items():
        values[name] = value
    return {name: {"value": (int(values.get(name, 0)) if unit == "count"
                             else values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(STATE_ROOT, exist_ok=True)
    if workload == "service_mix":
        import service_mix
        out = service_mix.run(ROOT, seed, seconds, trace, STATE_ROOT)
    else:
        import simulator
        out = simulator.run(workload, ROOT, seconds, trace, STATE_ROOT)
    metrics, attempted, failed, correct, notes = out
    for note in notes:
        print(note)
    if not correct:
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(metrics)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def repeat(workloads, seed: int, seconds: float, trace: bool, times: int):
    """Fresh processes, one at a time; median and quartiles per metric."""
    table = {}
    for workload in workloads:
        samples = {}
        for offset in range(times):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(seed + offset),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT, stdout=subprocess.PIPE, check=False)
            result = json.loads(done.stdout.decode().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed + offset}: FAILED {result}")
                continue
            for name, metric in result["metrics"].items():
                samples.setdefault(name, (metric["unit"], []))[1].append(
                    metric["value"])
        table[workload] = {}
        for name, (unit, values) in samples.items():
            row = summary(values)
            table[workload][name] = dict(row, unit=unit, values=values)
            print(f"{workload:12s} {name:34s} median {row['median']:12.6g} "
                  f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} "
                  f"iqr {row['iqr_pct']:6.2f}% {unit} (n={len(values)})")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times and print median and quartiles")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the workloads' cleanup paths then kill and
    # reap the server and simulator processes they started.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    # The "build": byte-compile once so no timed run pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    if args.repeat:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        table = repeat(workloads, args.seed, args.seconds, bool(args.trace),
                       args.repeat)
        print(json.dumps(table, sort_keys=True))
        return 0
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    result = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
