"""One simulator run in a fresh process: build, simulate, score.

Run by :mod:`gridbench.simulator` as
``python3 gridbench/sim_child.py '<json spec>'``; prints one JSON line.
The parent timestamps the spawn; this process reports the
``time.monotonic()`` instant its set-up ended (imports, build, deploy,
application start), which shares the parent's clock.

Modes: ``setup`` stops after set-up; ``full`` simulates the window,
scores it with ``compare_run`` and fingerprints ``export_database``.
The window runs in 6-hour slices (``run_full(progress=...)``, which
dispatches the same events as a silent run): untraced, each slice's
wall and CPU seconds are reported, scoring as the last slice; with
``trace`` the slices run under :class:`layers.SliceProfiler`, and
scoring is profiled whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro import Grid3, Grid3Config  # noqa: E402
from repro.analysis.compare import compare_run  # noqa: E402
from repro.analysis.export import export_database  # noqa: E402


def main(spec: dict) -> dict:
    grid = Grid3(Grid3Config(**spec["config"]))
    grid.deploy()
    grid.start_applications()
    out = {"setup_end": time.monotonic()}
    if spec["mode"] == "setup":
        return out
    trace = spec["trace"]
    slices = max(1, round(grid.config.duration_days * 4))
    if trace:
        from layers import CallCounter, GcTimer, SliceProfiler
        from repro.services.base import DowntimeLedger
        from repro.sim.engine import Engine
        gc_timer = GcTimer().install()
        downtime = CallCounter(DowntimeLedger, "downtime")
        profiler = SliceProfiler(Engine)

    if trace:
        grid.run_full(progress=lambda event: None, progress_slices=slices)
        checks = profiler.region(compare_run, grid)
    else:
        stamps = [(time.perf_counter(), time.process_time())]
        grid.run_full(progress=lambda event: stamps.append(
            (time.perf_counter(), time.process_time())),
            progress_slices=slices)
        checks = compare_run(grid)
        stamps.append((time.perf_counter(), time.process_time()))
        out["slices_wall_s"] = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
        out["slices_cpu_s"] = [b[1] - a[1] for a, b in zip(stamps, stamps[1:])]

    out["claims_failed"] = [c.name for c in checks if not c.passed]
    out["claims_total"] = len(checks)
    out["sha256"] = hashlib.sha256(
        export_database(grid.acdc_db).encode("utf-8")).hexdigest()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        import gc
        import repro
        from repro.monitoring import MetricStore
        profiler.remove()
        downtime.remove()
        gc_timer.remove()
        self_s, calls, total = profiler.layer_table(
            os.path.dirname(repro.__file__))
        out["layers"] = {"self_s": self_s, "calls": calls}
        out["counts"] = {
            "gc.pause_s": gc_timer.pause_s,
            "gc.collections": gc_timer.collections,
            "sim.events": grid.engine.dispatched,
            "monitoring.samples": sum(
                len(o) for o in gc.get_objects() if isinstance(o, MetricStore)),
            "services.downtime_calls": downtime.count,
            "trace.spans": (grid.tracer.store.span_count()
                            if grid.tracer.enabled else 0),
            "profile.traced_s": total,
            "profile.overhead_pct": profiler.overhead_pct(),
        }
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
    # Skip tearing down a ~1 GB heap object by object: the result is
    # out, and teardown is no part of what this run measures.
    os._exit(0)
