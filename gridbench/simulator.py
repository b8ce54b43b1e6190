"""The simulator workloads: ``job_heavy``, ``paper_month``, ``paper_run``.

Each simulation (simulated and scored) executes in a fresh
``sim_child.py`` process, so set-up is measured from process spawn
and every simulation pays the same imports.  A workload repeats the
simulation until ``seconds`` have passed and at least its ``min_sims``
ran, then spawns set-up-only children until it has ``SETUPS`` set-up
samples.  Simulations of one workload must produce the same
``export_database`` bytes, within a run and across runs in one
checkout.

``wall_s`` and ``cpu_s`` are per-slice bests: every simulation of a
run does the same work slice by slice (6 simulated hours, scoring
last), so slice ``k`` is timed once per simulation and the fastest
time counts.  The shared host runs at two speeds some 40% apart, in
phases of seconds to minutes; a whole-run median follows the share of
slow phases a run happened to see, while the per-slice best keeps the
time of the code on the host's fast phase.  A slower code path slows
its slices in every simulation, so it shows in full.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from statistics import median

SETUPS = 3
#: A child process may take at most this long.
CHILD_TIMEOUT_S = 170.0

#: The simulated window is pinned (Grid3Config's default seed, 42): the
#: simulated work of a seed varies by 13-19% from seed to seed, which
#: would drown the code's own run-to-run spread.  ``--seed`` therefore
#: changes nothing here; it draws the service_mix requests.
WORKLOADS = {
    # The ROADMAP headline, exactly ``repro score --days 183 --scale 50``:
    # the whole paper window, scored against the paper's 20 shape claims.
    # 60-90 s a simulation on a shared 2-core box, too slow to repeat
    # inside the benchmark's time budget, so it is run by hand
    # (--workload paper_run), one simulation a run.
    "paper_run": {
        "config": {"duration_days": 183, "scale": 50},
        "claims_required": True,
        "min_sims": 1,
    },
    # The same configuration over the first 30 days, run by hand: long
    # enough that the time-proportional layers (monitoring, GC) take
    # most of the time, short enough (5-8 s) to simulate twice a run.  Claims are
    # scored and printed but not required: several describe the whole
    # 183 days.
    "paper_month": {
        "config": {"duration_days": 30, "scale": 50},
        "claims_required": False,
        "min_sims": 2,
    },
    # A short, job-dense window with every opt-in per-job subsystem on.
    "job_heavy": {
        "config": {"duration_days": 10, "scale": 10, "tracing": True,
                   "fair_share": True, "data_management": True,
                   "alerts": True},
        "claims_required": False,
        "min_sims": 2,
    },
}


def spawn(root: str, spec: dict):
    """Run one child; returns (its JSON result, set-up seconds)."""
    child = os.path.join(root, "gridbench", "sim_child.py")
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, child, json.dumps(spec)], cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"sim_child exited {done.returncode}: "
            f"{done.stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    return result, result["setup_end"] - spawned


def per_slice_best(runs) -> float:
    """Sum over slices of the fastest time any simulation took for it;
    ``runs`` holds one list of slice times per simulation."""
    if len({len(slices) for slices in runs}) != 1:
        raise RuntimeError("simulations of one config differ in slices")
    return sum(min(times) for times in zip(*runs))


def check_fingerprint(state_root: str, workload: str, sha: str) -> bool:
    """Same config, same ``export_database`` bytes: compare with the
    fingerprint any earlier run in this checkout recorded."""
    path = os.path.join(state_root, "fingerprints", f"{workload}.sha256")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip() == sha
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sha + "\n")
    return True


def run(name: str, root: str, seconds: float, trace: bool,
        state_root: str):
    """Returns (metrics, attempted, failed, correct, notes)."""
    workload = WORKLOADS[name]
    spec = {"mode": "full", "config": workload["config"], "trace": trace}
    results, setups, notes = [], [], []
    start = time.monotonic()
    while not results or (not trace and (
            len(results) < workload["min_sims"]
            or time.monotonic() - start < seconds)):
        result, setup = spawn(root, spec)
        results.append(result)
        setups.append(setup)
    while not trace and len(setups) < SETUPS:
        setups.append(spawn(root, dict(spec, mode="setup"))[1])

    failed = 0
    shas = {r["sha256"] for r in results}
    if len(shas) != 1 or not check_fingerprint(state_root, name, shas.pop()):
        failed += 1
        notes.append(f"{name}: export_database fingerprints disagree "
                     f"between runs of one config")
    for r in results:
        missed = r["claims_failed"]
        notes.append(f"{name}: claims {r['claims_total'] - len(missed)}/"
                     f"{r['claims_total']} (failed: {missed or 'none'}) "
                     f"export_database sha256 {r['sha256']}")
        if workload["claims_required"] and missed:
            failed += 1
    correct = failed == 0

    if trace:
        traced = results[0]
        return ({"self_s": traced["layers"]["self_s"],
                 "calls": traced["layers"]["calls"],
                 "counts": traced["counts"], "service": {}},
                len(results), failed, correct, notes)
    wall_s = per_slice_best([r["slices_wall_s"] for r in results])
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (per_slice_best([r["slices_cpu_s"] for r in results]), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        # One simulation at a time: throughput is the inverse of wall_s.
        "runs_per_s": (1.0 / wall_s, "runs/s"),
    }
    return metrics, len(results), failed, correct, notes
