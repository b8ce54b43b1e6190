"""``repro serve`` with the benchmark's cost wrappers installed.

Usage: ``python3 gridbench/svc_launch.py <trace_dir> serve [args...]``.

Installs the wrappers, then hands ``serve [args...]`` to
``repro.cli.main``; the process pool forks after this point, so every
pool worker inherits them.  Nothing is written while the service runs
except one JSON line per finished run in ``worker-<pid>.jsonl``;
``server.json`` is written after the graceful SIGINT drain.

* Server threads: every function and method defined in the nine
  ``repro.service`` modules is wrapped with a thread-CPU clock, so
  ``self_s`` per module is CPU time (blocking waits cost nothing)
  minus the time of nested wrapped calls.  ``execute_run`` is left
  alone: the pool pickles it by reference.
* ``RunJournal.append``: wall time and count of each append.
* Pool workers: wall time of ``Grid3.run_full`` (sim) and of
  ``collect_reports``/``summarize_run``/``grid_exposition`` (payload),
  the simulator layer profile (every third slice, see
  :mod:`layers`), GC pauses and exact counts.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import SERVICE_MODULES  # noqa: E402

#: Functions the process pool pickles by reference; never wrapped.
UNWRAPPED = {("queue", "execute_run")}


class ModuleClock:
    """Per-module self CPU time, one accumulator per thread."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float))
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, label: str, fn):
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, table = clock._state()
            stack.append(0.0)
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                table[label] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    def totals(self):
        out = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for label, seconds in list(table.items()):
                    out[label] += seconds
        return dict(out)


def wrap_service_modules(clock: ModuleClock) -> None:
    """Wrap each service module's functions and methods in place, and
    rebind every ``from ... import`` copy across loaded repro modules."""
    import importlib
    replaced = {}
    for short in SERVICE_MODULES:
        module = importlib.import_module(f"repro.service.{short}")
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if (short, name) in UNWRAPPED:
                    continue
                wrapped = clock.wrap(short, obj)
                setattr(module, name, wrapped)
                replaced[id(obj)] = wrapped
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("__"):
                        continue
                    if isinstance(member, staticmethod):
                        setattr(obj, attr, staticmethod(
                            clock.wrap(short, member.__func__)))
                    elif isinstance(member, classmethod):
                        setattr(obj, attr, classmethod(
                            clock.wrap(short, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, clock.wrap(short, member))
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, name, replaced[id(obj)])


class WorkerProbe:
    """Installed in each pool worker right after the fork."""

    def __init__(self, trace_dir: str) -> None:
        from layers import CallCounter, GcTimer, SliceProfiler
        from repro.services.base import DowntimeLedger
        from repro.sim.engine import Engine
        self.path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
        self.gc = GcTimer().install()
        self.downtime = CallCounter(DowntimeLedger, "downtime")
        self.profiler = SliceProfiler(Engine)
        self.sim_s, self.payload_s = [], []
        self.counts = defaultdict(float)
        self._payload = 0.0

    def run_full(self, original):
        probe = self

        @functools.wraps(original)
        def run_full(grid, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(grid, *args, **kwargs)
            finally:
                probe.sim_s.append(time.perf_counter() - start)
                probe._payload = 0.0
                probe.counts["sim.events"] += grid.engine.dispatched
                if grid.tracer.enabled:
                    probe.counts["trace.spans"] += \
                        grid.tracer.store.span_count()

        return run_full

    def payload(self, original, last: bool = False):
        probe = self

        @functools.wraps(original)
        def payload(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probe._payload += time.perf_counter() - start
                if last:
                    probe.flush()

        return payload

    def flush(self) -> None:
        """One cumulative record per finished run."""
        import repro
        from repro.monitoring import MetricStore
        self.payload_s.append(self._payload)
        self.counts["monitoring.samples"] += sum(
            len(o) for o in gc.get_objects() if isinstance(o, MetricStore))
        self_s, calls, total = self.profiler.layer_table(
            os.path.dirname(repro.__file__))
        record = {
            "sim_s": self.sim_s, "payload_s": self.payload_s,
            "module_self_s": CLOCK.totals(),
            "layers": {"self_s": self_s, "calls": calls},
            "counts": dict(self.counts, **{
                "gc.pause_s": self.gc.pause_s,
                "gc.collections": self.gc.collections,
                "services.downtime_calls": self.downtime.count,
                "profile.traced_s": total,
            }),
            "slices": {"profiled_s": self.profiler.profiled_s,
                       "plain_s": self.profiler.plain_s},
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


CLOCK = ModuleClock()


def install(trace_dir: str) -> dict:
    """Wrap everything; returns the server-side journal samples."""
    import repro.monitoring.prometheus as prometheus
    import repro.service.queue as queue
    from repro.core.grid3 import Grid3
    from repro.service.persistence import RunJournal

    wrap_service_modules(CLOCK)
    journal = {"append_ms": []}
    original_append = RunJournal.append

    @functools.wraps(original_append)
    def append(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original_append(self, *args, **kwargs)
        finally:
            journal["append_ms"].append(
                1000.0 * (time.perf_counter() - start))

    RunJournal.append = append

    originals = {
        "run_full": Grid3.run_full,
        "collect_reports": queue.collect_reports,
        "summarize_run": queue.summarize_run,
        "grid_exposition": prometheus.grid_exposition,
    }

    def in_worker() -> None:
        CLOCK.reset()
        probe = WorkerProbe(trace_dir)
        Grid3.run_full = probe.run_full(originals["run_full"])
        queue.collect_reports = probe.payload(originals["collect_reports"])
        queue.summarize_run = probe.payload(originals["summarize_run"])
        prometheus.grid_exposition = probe.payload(
            originals["grid_exposition"], last=True)

    os.register_at_fork(after_in_child=in_worker)
    return journal


def main(argv) -> int:
    trace_dir, serve_args = argv[0], argv[1:]
    journal = install(trace_dir)
    from repro.cli import main as cli_main
    code = cli_main(serve_args)
    with open(os.path.join(trace_dir, "server.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"module_self_s": CLOCK.totals(),
                   "journal_append_ms": journal["append_ms"]}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
