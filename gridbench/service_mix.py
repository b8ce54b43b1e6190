"""The ``service_mix`` workload: ``repro serve`` under a closed loop.

The server runs as ``repro serve --workers 1 --state-dir <tmp>`` (the
journal on).  Two client threads in this process each hold one
persistent HTTP/1.1 connection and repeat a *cycle*: submit a new small
run (1 day, scale 400, a config no other cycle uses), wait for it on
the SSE stream, confirm it ended ``done``, then issue a fixed mix of
reads on the persistent connection: cached resubmits of finished
configs, ``report/ops|troubleshooting`` pages and
``/v1/runs/{id}/metrics``.  Both clients share one worker; a run waits
in the queue whenever it arrives while the other client's run
simulates.

Every input (configs, read choices) is drawn before the timer starts;
reads pick among the client's finished runs by position.  Two warm-up
runs precede the timed window: the first run of a fresh server pays a
one-off ~15 s stall (see README), 10 s in its own latency, reported as
``service.first_run_s`` in the traced run, and 5 s more that the next
run waits in the queue.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List

from stats import min_samples, percentile

CLIENTS = 2
#: Reads per cycle, an equal number of each kind.  18 reads on the
#: ~44 ms keep-alive floor give each client ~0.8 s of think time, more
#: than one run's ~0.5 s in the worker: the loop stays below saturation,
#: where a run's latency follows the code's cost, instead of at it,
#: where queueing doubled every host slowdown (run latency spread 32%).
READ_KINDS = ("cached", "report", "metrics")
READS_PER_KIND = 6
#: One small simulation per new run.
RUN_DAYS = 1
RUN_SCALE = 400
#: Every new run simulates the same window (Grid3Config's default seed)
#: and differs from the others only in ``trace_max_traces``, a knob with
#: no effect while tracing is off: each submission is a distinct digest
#: the service must execute, at the same cost.  At this size one seed's
#: work is up to 2x another's, which made run latency a lottery.
RUN_KEY_BASE = 10_000
#: Cycles planned per client; a run never needs this many.
PLANNED_CYCLES = 400
#: A run stops once the window has passed and enough runs exist for
#: their median (each run brings READS_PER_KIND reads of every kind, so
#: the per-kind read medians of the traced run are covered too).
MIN_RUNS = min_samples(0.5)
#: Give up (and fail the run) past this many seconds of load.
HARD_LIMIT_S = 100.0
#: A graceful drain of an idle server takes well under a second.
STOP_TIMEOUT_S = 30.0
SETUPS = 3
#: Runs before the timed window.  The first run's progress reader holds
#: the single worker slot for 10 s after the run ends and 5 s more
#: after that (``reader.join`` timeouts in the queue); the second run
#: waits those 5 s out, so the window starts on an idle, warm worker.
WARMUP_RUNS = 2


def run_config(key: int) -> Dict:
    """A new run's config; ``key`` makes its digest unique."""
    return {"duration_days": RUN_DAYS, "scale": RUN_SCALE,
            "trace_max_traces": key}


def request_mix(seed: int, client: int, cycles: int) -> List[Dict]:
    """The request plan of one client: per cycle, the new run's config
    (fixed) and the seeded reads ``(kind, u)``; ``u`` picks the target
    among the client's finished runs at read time."""
    rng = random.Random(f"{seed}:{client}")
    plan = []
    for cycle in range(cycles):
        reads = [kind for kind in READ_KINDS for _ in range(READS_PER_KIND)]
        rng.shuffle(reads)
        plan.append({
            "config": run_config(RUN_KEY_BASE + 1000 * client + cycle),
            "reads": [(kind, rng.random()) for kind in reads],
        })
    return plan


class Server:
    """One ``repro serve`` process in the checkout."""

    def __init__(self, root: str, state_dir: str, trace_dir=None) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        args = ["serve", "--port", "0", "--workers", "1",
                "--state-dir", os.path.join(state_dir, "journal")]
        if trace_dir is None:
            cmd = [sys.executable, "-u", "-m", "repro"] + args
        else:
            cmd = [sys.executable, "-u",
                   os.path.join(root, "gridbench", "svc_launch.py"),
                   trace_dir] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._stderr = open(os.path.join(state_dir, "stderr.txt"), "wb")
        self.spawned = time.monotonic()
        # Its own process group, so kill() reaches the pool worker too.
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, stdin=subprocess.DEVNULL,
            start_new_session=True)
        try:
            self.port = self._read_port()
            self._healthz()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - self.spawned

    def _read_port(self) -> int:
        for _ in range(50):
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("listening on http://")[1]
                           .split()[0].rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not report its port")

    def _healthz(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"healthz answered {response.status}")
        finally:
            conn.close()

    def stop(self):
        """Graceful SIGINT drain; (cpu seconds, peak rss MB) of the
        server and every pool worker it reaped."""
        self.proc.send_signal(signal.SIGINT)
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(
                    f"repro serve did not drain within {STOP_TIMEOUT_S} s")
            time.sleep(0.05)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"repro serve exited {self.proc.returncode}")
        return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        """SIGKILL the server and its pool worker; wait until both end."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self._stderr.close()


class Client(threading.Thread):
    """One closed-loop client: its cycles run strictly in sequence."""

    def __init__(self, index: int, port: int, plan: List[Dict],
                 done_when) -> None:
        super().__init__(name=f"client-{index}", daemon=True)
        self.port = port
        self.plan = plan
        self.done_when = done_when
        self.body_extra = {"client": f"bench-{index}"}
        self.runs: List[Dict] = []      # per new run: latencies + views
        self.reads: List[tuple] = []    # (kind, ms)
        self.attempted = 0
        self.failures: List[str] = []
        self.error = None

    def _request(self, conn, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        return response.status, payload, elapsed

    def _wait_sse(self, run_id: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", f"/v1/runs/{run_id}/events")
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line or line.strip() == b"event: eof":
                    return
        finally:
            conn.close()

    def _fail(self, what: str) -> None:
        self.failures.append(what)

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        finished: List[tuple] = []   # (run_id, config)
        try:
            for cycle in self.plan:
                if self.done_when():
                    return
                self._cycle(conn, cycle, finished)
        except Exception as exc:  # noqa: BLE001 - reported by the driver
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            conn.close()

    def _cycle(self, conn, cycle: Dict, finished: List[tuple]) -> None:
        body = dict(self.body_extra, config=cycle["config"])
        start = time.perf_counter()
        status, payload, submit_s = self._request(conn, "POST", "/v1/runs",
                                                  body)
        answer = json.loads(payload)
        if status != 202 or answer.get("dedup") != "new":
            self._fail(f"submit answered {status} {answer}")
            return
        run_id = answer["run_id"]
        self._wait_sse(run_id)
        wall = time.perf_counter() - start
        status, payload, _ = self._request(conn, "GET", f"/v1/runs/{run_id}")
        view = json.loads(payload)
        if status != 200 or view.get("state") != "done":
            self._fail(f"run {run_id} ended {view.get('state')}")
            return
        self.runs.append({
            "wall_s": wall, "submit_ms": 1000.0 * submit_s,
            "queue_s": view["started_at"] - view["submitted_at"],
            "worker_s": view["finished_at"] - view["started_at"],
        })
        finished.append((run_id, cycle["config"]))
        for kind, u in cycle["reads"]:
            run_id, config = finished[int(u * len(finished))]
            if kind == "cached":
                status, payload, elapsed = self._request(
                    conn, "POST", "/v1/runs",
                    dict(self.body_extra, config=config))
                if status != 200 or json.loads(payload).get("dedup") != "cached":
                    self._fail(f"resubmit answered {status} {payload[:80]!r}")
                    continue
            else:
                if kind == "report":
                    page = ("ops", "troubleshooting")[int(u * 1000) % 2]
                    path = f"/v1/runs/{run_id}/report/{page}?limit=50"
                else:
                    path = f"/v1/runs/{run_id}/metrics"
                status, payload, elapsed = self._request(conn, "GET", path)
                if status != 200:
                    self._fail(f"GET {path} answered {status}")
                    continue
            self.reads.append((kind, 1000.0 * elapsed))


def _load(server: Server, seed: int, seconds: float):
    plans = [request_mix(seed, i, PLANNED_CYCLES) for i in range(CLIENTS)]
    clients: List[Client] = []
    start = time.monotonic()

    def done_when() -> bool:
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S:
            return True
        if elapsed < seconds:
            return False
        return sum(len(c.runs) for c in clients) >= MIN_RUNS

    for index, plan in enumerate(plans):
        clients.append(Client(index, server.port, plan, done_when))
    for client in clients:
        client.start()
    for client in clients:
        client.join(HARD_LIMIT_S + 60.0)
    window = time.monotonic() - start
    return clients, window


def _metrics_json(port: int) -> Dict[str, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/v1/metrics?format=json")
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


def run(root: str, seed: int, seconds: float, trace: bool, state_root: str):
    """Returns (metrics, attempted, failed, correct, notes)."""
    # repro serve drains on SIGINT.  A shell that starts this benchmark
    # in the background ignores SIGINT, and an ignored signal stays
    # ignored across exec, so the server would never see it; a handled
    # one is reset to the default, which Python turns into its handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    work = os.path.join(state_root, f"service-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(work, "trace") if trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    setups, servers = [], []
    try:
        server = Server(root, os.path.join(work, "main"), trace_dir)
        servers.append(server)
        setups.append(server.setup_s)
        warm = Client(CLIENTS, server.port, [
            {"config": run_config(RUN_KEY_BASE - 1 - i), "reads": []}
            for i in range(WARMUP_RUNS)], lambda: False)
        warm.run()
        clients, window = _load(server, seed, seconds)
        clients.append(warm)
        cache = _metrics_json(server.port) if trace else {}
        cpu_s, rss_mb = server.stop()
        for extra in range(SETUPS - 1):
            probe = Server(root, os.path.join(work, f"setup{extra}"))
            servers.append(probe)
            setups.append(probe.setup_s)
            probe.stop()
        return _report(clients, window, setups, cpu_s, rss_mb, cache,
                       trace_dir)
    finally:
        # On every path out, an error or SIGTERM included, no server or
        # pool worker outlives the run; a no-op for a drained server.
        for started in servers:
            started.kill()
        shutil.rmtree(work, ignore_errors=True)


def _report(clients, window, setups, cpu_s, rss_mb, cache, trace_dir):
    first_run_s = clients[-1].runs[0]["wall_s"] if clients[-1].runs else None
    runs = [r for c in clients[:-1] for r in c.runs]
    reads = [(kind, ms) for c in clients for kind, ms in c.reads]
    failures = [f for c in clients for f in c.failures]
    errors = [c.error for c in clients if c.error]
    attempted = sum(c.attempted for c in clients)
    notes = [f"service_mix: {len(runs)} runs, {len(reads)} reads in "
             f"{window:.1f} s, {len(failures)} failures"]
    notes += [f"  failure: {f}" for f in failures[:10]]
    notes += [f"  client error: {e}" for e in errors]
    wall = percentile([r["wall_s"] for r in runs], 0.5)
    correct = not failures and not errors and wall is not None
    metrics = {}
    if correct:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (cpu_s / (len(runs) + WARMUP_RUNS), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "runs_per_s": (len(runs) / window, "runs/s"),
        }
    if trace_dir is not None and correct:
        metrics = service_layers(runs, reads, cache, trace_dir)
        metrics["service"]["service.first_run_s"] = (first_run_s, "s")
    return metrics, attempted, len(failures) + len(errors), correct, notes


def service_layers(runs, reads, cache, trace_dir):
    """Per-layer metrics of the traced service run."""
    from layers import LAYERS, SERVICE_MODULES, overhead_pct
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    counts: Dict[str, float] = {}
    module_self: Dict[str, float] = {}
    sim_s, payload_s, profiled, plain = [], [], [], []
    with open(os.path.join(trace_dir, "server.json"), encoding="utf-8") as f:
        server = json.load(f)
    records = [server]
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
                lines = f.read().splitlines()
            worker = json.loads(lines[-1])
            records.append(worker)
            sim_s += worker["sim_s"]
            payload_s += worker["payload_s"]
            profiled += worker["slices"]["profiled_s"]
            plain += worker["slices"]["plain_s"]
            for layer, value in worker["layers"]["self_s"].items():
                layer_self[layer] += value
            for layer, value in worker["layers"]["calls"].items():
                layer_calls[layer] += value
            for key, value in worker["counts"].items():
                counts[key] = counts.get(key, 0) + value
    for record in records:
        for module, value in record["module_self_s"].items():
            module_self[module] = module_self.get(module, 0.0) + value

    def by_kind(kind):
        return percentile([ms for k, ms in reads if k == kind], 0.5)

    hits = cache.get("service.cache.hits", 0)
    misses = cache.get("service.cache.misses", 0)
    appends = server["journal_append_ms"]
    return {
        "self_s": layer_self,
        "calls": layer_calls,
        "counts": dict(counts, **{
            "profile.overhead_pct": overhead_pct(profiled, plain)}),
        "service": {
            "service.http.submit_ms.p50": (percentile(
                [r["submit_ms"] for r in runs], 0.5), "ms"),
            "service.http.cached_ms.p50": (by_kind("cached"), "ms"),
            "service.http.report_ms.p50": (by_kind("report"), "ms"),
            "service.http.metrics_ms.p50": (by_kind("metrics"), "ms"),
            "service.http.read_ms.p90": (percentile(
                [ms for _kind, ms in reads], 0.9), "ms"),
            "service.queue.wait_s.p50": (percentile(
                [r["queue_s"] for r in runs], 0.5), "s"),
            "service.worker.run_s.p50": (percentile(
                [r["worker_s"] for r in runs], 0.5), "s"),
            "service.cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "service.worker.sim_s.p50": (percentile(sim_s, 0.5), "s"),
            "service.worker.payload_s.p50": (percentile(payload_s, 0.5), "s"),
            "service.journal.appends": (len(appends), "count"),
            "service.journal.append_ms.p50": (percentile(appends, 0.5), "ms"),
            **{f"service.{module}.self_s": (module_self.get(module, 0.0), "s")
               for module in SERVICE_MODULES},
        },
    }
