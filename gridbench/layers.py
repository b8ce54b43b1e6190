"""Per-layer cost attribution for the traced run.

A *layer* is one package under ``src/repro`` (``sim``, ``fabric``,
``monitoring`` ...); modules directly under ``src/repro`` count as
``core``.  Self time comes from :mod:`cProfile` with builtin profiling
off, so time in C builtins already sits in the calling Python
function.  Time in Python code outside the program (stdlib, numpy, the
benchmark itself) is charged to the layer that called it: one level
exactly, by the per-caller self time cProfile keeps on each edge, and
further up in proportion to call counts.  Every second the profiler
saw therefore lands on exactly one layer, and the layers sum to the
traced total.

Profiling costs ~2.7x on this simulator, too much for the 183-day run
to be profiled whole inside one benchmark run.  :class:`SliceProfiler`
wraps ``Engine.run`` instead: the window is simulated in equal
sim-time slices (``Grid3.run_full(progress=..., progress_slices=N)``,
which dispatches the identical event sequence) and only every
``every``-th slice is profiled.  The unprofiled slices of the same run
are the untraced reference for ``profile.overhead_pct``.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple

#: Simulator layers: the packages under src/repro a simulation runs.
LAYERS = (
    "sim", "fabric", "middleware", "scheduling", "monitoring", "services",
    "failures", "ops", "apps", "workflow", "data", "trace", "core",
    "analysis",
)

#: Service modules whose self time the traced ``service_mix`` reports.
SERVICE_MODULES = ("app", "store", "persistence", "admission", "cache",
                   "queue", "reports", "progress", "schemas")

#: Where time with no program caller at all is charged (the benchmark
#: only profiles calls into the program, so this is the driver glue).
ROOT_LAYER = "core"

FuncKey = Tuple[str, int, str]


def layer_classifier(repro_dir: str) -> Callable[[str], Optional[str]]:
    """``filename -> layer`` for files under ``repro_dir``; None for
    code outside the program."""
    root = os.path.abspath(repro_dir) + os.sep

    def layer_of(filename: str) -> Optional[str]:
        if not filename.startswith(root):
            return None
        rest = filename[len(root):]
        package = rest.split(os.sep, 1)[0] if os.sep in rest else ""
        return package if package in LAYERS else "core"

    return layer_of


def attribute(stats: Dict[FuncKey, tuple],
              layer_of: Callable[[str], Optional[str]],
              ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold pstats-shaped ``{func: (cc, nc, tt, ct, callers)}`` into
    per-layer ``(self seconds, calls)``.

    ``callers`` maps caller func -> ``(cc, nc, tt, ct)`` for that edge.
    Calls count the program's own Python functions (generator resumes
    included); outside code adds time to its caller but no calls.
    """
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def owners(func: FuncKey, path: frozenset) -> Dict[str, float]:
        """Fraction of ``func``'s cost owed to each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[1] for edge in callers.values())
        if not callers or total <= 0 or func in path:
            return {ROOT_LAYER: 1.0}
        share: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for owner, frac in owners(caller, path | {func}).items():
                share[owner] += frac * edge[1] / total
        memo[func] = share
        return share

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        edge_tt = sum(edge[2] for edge in callers.values())
        if edge_tt > 0:
            for caller, edge in callers.items():
                for owner, frac in owners(caller, frozenset({func})).items():
                    self_s[owner] += tt * frac * edge[2] / edge_tt
        else:
            for owner, frac in owners(func, frozenset()).items():
                self_s[owner] += tt * frac
    return dict(self_s), dict(calls)


def overhead_pct(profiled_s, plain_s) -> float:
    """Mean profiled slice against mean unprofiled slice, in percent."""
    if not profiled_s or not plain_s:
        return 0.0
    traced = sum(profiled_s) / len(profiled_s)
    plain = sum(plain_s) / len(plain_s)
    return 100.0 * (traced - plain) / plain if plain > 0 else 0.0


class GcTimer:
    """Collections and pause seconds via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def install(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


class CallCounter:
    """Exact call count of one method, patched on its class."""

    def __init__(self, cls: type, name: str) -> None:
        self.count = 0
        self._cls = cls
        self._name = name
        self._original = getattr(cls, name)
        original = self._original
        counter = self

        def counted(*args, **kwargs):
            counter.count += 1
            return original(*args, **kwargs)

        setattr(cls, name, counted)

    def remove(self) -> None:
        setattr(self._cls, self._name, self._original)


class SliceProfiler:
    """Profile every ``every``-th ``Engine.run`` call, time them all.

    ``region()`` profiles a whole block (scoring, reads) on top of the
    sampled slices; it does not enter the overhead estimate.
    """

    def __init__(self, engine_cls: type, every: int = 3) -> None:
        self.profile = cProfile.Profile(builtins=False)
        self.every = every
        self.slices = 0
        self.profiled_s = []
        self.plain_s = []
        self._cls = engine_cls
        self._original = engine_cls.run
        original = self._original
        sampler = self

        def run(engine, *args, **kwargs):
            sampler.slices += 1
            profiled = sampler.slices % sampler.every == 0
            start = time.perf_counter()
            if profiled:
                sampler.profile.enable()
                try:
                    return original(engine, *args, **kwargs)
                finally:
                    sampler.profile.disable()
                    sampler.profiled_s.append(time.perf_counter() - start)
            try:
                return original(engine, *args, **kwargs)
            finally:
                sampler.plain_s.append(time.perf_counter() - start)

        engine_cls.run = run

    def remove(self) -> None:
        self._cls.run = self._original

    def region(self, fn: Callable, *args, **kwargs):
        self.profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self.profile.disable()

    def overhead_pct(self) -> float:
        return overhead_pct(self.profiled_s, self.plain_s)

    def layer_table(self, repro_dir: str) -> Tuple[Dict[str, float],
                                                   Dict[str, int], float]:
        """(self seconds, calls, traced total) per layer."""
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        self_s, calls = attribute(stats, layer_classifier(repro_dir))
        total = sum(entry[2] for entry in stats.values())
        return self_s, calls, total
