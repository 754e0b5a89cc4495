"""The sweep and serve paths: a cold ``SweepRunner`` grid and a closed
loop against a ``repro serve`` daemon.

Every swept or served point is compared with an in-process
``RunSpec.execute`` reference digest.  The serve loop is closed: one
client process runs two threads as two tenants, and each waits for all
of its job's NDJSON result events before it submits the next job.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.hostspeed import Probe
from perfbench.spans import SpanRecorder


def reference_digests(points) -> Dict[str, str]:
    """fingerprint -> digest of an in-process ``RunSpec.execute``."""
    from repro.stats.io import stats_to_dict
    from repro.sweep.cache import stats_checksum

    return {
        spec.fingerprint(): stats_checksum(stats_to_dict(spec.execute(verify=False)))
        for spec in points
    }


# ----------------------------------------------------------------------
# sweep


def sweep_totals() -> dict:
    return {"rates": [], "scaled_rates": [], "walls": [], "executed": 0,
            "sim_s": 0.0,
            "attempted": 0, "failed": 0, "failures": []}


def run_sweep(
    points, jobs: int, cache_dir: Path, refs: Dict[str, str], out: dict,
    rec: Optional[SpanRecorder] = None,
) -> None:
    """One cold ``SweepRunner`` pass over ``points``, added to ``out``."""
    from repro.stats.io import stats_to_dict
    from repro.sweep.cache import stats_checksum
    from repro.sweep.runner import SweepRunner

    runner = SweepRunner(jobs=jobs, cache_dir=str(cache_dir))
    if rec is not None:
        runner.run = rec.wrap("sweep", runner.run)
        runner.cache.get = rec.wrap("sweep.cache", runner.cache.get)
        runner.cache.put = rec.wrap("sweep.cache", runner.cache.put)
    out["attempted"] += len(points)
    try:
        with Probe() as probe:
            start = time.perf_counter()
            results = runner.run(points)
            wall = time.perf_counter() - start
    except Exception as exc:
        out["failed"] += len(points)
        out["failures"].append(f"sweep raised {type(exc).__name__}: {exc}")
        return
    out["walls"].append(wall)
    out["rates"].append(len(points) / wall)
    out["scaled_rates"].append(len(points) / (wall * probe.factor))
    out["executed"] += runner.executed
    for result in results:
        if not result.cached:
            out["sim_s"] += result.elapsed_s
        want = refs[result.spec.fingerprint()]
        got = None if result.stats is None else stats_checksum(stats_to_dict(result.stats))
        if got != want:
            out["failed"] += 1
            out["failures"].append(
                f"swept {result.spec.label}: digest {got} != reference {want[:12]}"
            )


# ----------------------------------------------------------------------
# serve


def _tree_rss_bytes(root_pid: int) -> int:
    """Summed resident set of ``root_pid`` and its descendants."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
        todo.extend(children.get(pid, ()))
    return total


#: how long the daemon may take to answer /healthz
START_TIMEOUT_S = 60.0
#: period of the daemon tree's RSS samples
RSS_INTERVAL_S = 0.05


class Daemon:
    """A ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, root: Path, cache_dir: Path, workers: int) -> None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.port_file = cache_dir / "serve.port"
        self.log_path = cache_dir / "serve.log"
        self.cmd = [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", str(cache_dir),
            "--port", "0",
            "--port-file", str(self.port_file),
            "--workers", str(workers),
            "--gc-interval-s", "3600",
            # every job is complete when the daemon is stopped; without
            # this the idle GC task holds shutdown for the drain budget
            "--drain-s", "0",
        ]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc: Optional[subprocess.Popen] = None
        self.peak_rss = 0
        self._sampling = threading.Event()
        self._sampler: Optional[threading.Thread] = None

    def start(self):
        """Start the daemon; returns (client, seconds until /healthz answered)."""
        from repro.serve.client import ServeClient

        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=log
            )
        while time.perf_counter() - start < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early (rc={self.proc.returncode})")
            try:
                port = int(self.port_file.read_text().strip())
                client = ServeClient("127.0.0.1", port)
                client.health()
            except (FileNotFoundError, ValueError, OSError):
                time.sleep(0.005)
                continue
            return client, time.perf_counter() - start
        raise RuntimeError("daemon did not answer /healthz in time")

    def sample_rss(self) -> None:
        def loop() -> None:
            while not self._sampling.wait(RSS_INTERVAL_S):
                self.peak_rss = max(self.peak_rss, _tree_rss_bytes(self.proc.pid))

        self.peak_rss = _tree_rss_bytes(self.proc.pid)
        self._sampler = threading.Thread(target=loop, daemon=True)
        self._sampler.start()

    def stop(self) -> None:
        self._sampling.set()
        if self._sampler is not None:
            self._sampler.join(timeout=10)
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


class _Tenant:
    """One closed-loop client thread: submit, drain the results, repeat."""

    def __init__(self, name, client, jobs, docs, fps, refs) -> None:
        self.name = name
        self.client = client
        self.jobs = jobs
        self.docs = docs
        self.fps = fps
        self.refs = refs
        self.latency_s: List[float] = []
        self.submit_s: List[float] = []
        #: (exec seconds, latency seconds) of points the daemon executed
        self.executed: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.failures: List[str] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # reported by the main thread
            self.error = exc

    def _loop(self) -> None:
        from repro.serve.client import Backpressure, ServeError

        clock = time.perf_counter
        for job in self.jobs:
            self.attempted += len(job)
            start = clock()
            try:
                doc = self.client.submit([self.docs[i] for i in job], tenant=self.name)
            except Backpressure:
                self.rejected += 1
                self.failed += len(job)
                self.failures.append(f"{self.name}: job refused (429)")
                continue
            except (ServeError, OSError) as exc:
                self.failed += len(job)
                self.failures.append(f"{self.name}: submit failed: {exc}")
                continue
            self.submit_s.append(clock() - start)
            seen = set()
            for event in self.client.results(doc["job_id"], wait=True, timeout_s=120.0):
                latency = clock() - start
                index = event.get("index")
                if index is None or index in seen or not 0 <= index < len(job):
                    continue
                seen.add(index)
                point = job[index]
                want = self.refs[self.fps[point]]
                if event.get("status") != "ok" or event.get("stats_sha256") != want:
                    self.failed += 1
                    self.failures.append(
                        f"{self.name}: served point {point} status "
                        f"{event.get('status')} digest {event.get('stats_sha256')} "
                        f"!= reference {want[:12]}"
                    )
                    continue
                self.latency_s.append(latency)
                if not event.get("cached") and not event.get("dedup"):
                    self.executed.append((event.get("elapsed_s", 0.0), latency))
            missing = len(job) - len(seen)
            if missing:
                self.failed += missing
                self.failures.append(f"{self.name}: {missing} points without a result")


def serve_totals() -> dict:
    return {"start_s": [], "scaled_start_s": [], "rates": [],
            "scaled_rates": [], "latency_s": [], "scaled_latency_s": [],
            "submit_s": [],
            "executed": [], "attempted": 0, "failed": 0, "rejected": 0,
            "daemon_points": 0, "hits": 0, "dedup": 0, "retries": 0,
            "peak_rss": 0, "failures": []}


def run_serve(
    root: Path, points, tenant_jobs, workers: int, cache_dir: Path,
    refs: Dict[str, str], out: dict, rec: Optional[SpanRecorder] = None,
) -> None:
    """One session: a fresh daemon and one closed loop, added to ``out``."""
    docs = [spec.to_dict() for spec in points]
    fps = [spec.fingerprint() for spec in points]
    daemon = Daemon(root, cache_dir, workers)
    probe = Probe()
    try:
        with probe:
            if rec is None:
                client, start_s = daemon.start()
            else:
                with rec.span("serve.start"):
                    client, start_s = daemon.start()
            daemon.sample_rss()
            tenants = [
                _Tenant(f"tenant{k}", client, tenant_jobs[k], docs, fps, refs)
                for k in (0, 1)
            ]
            threads = [threading.Thread(target=t.run, daemon=True) for t in tenants]
            start = time.perf_counter()
            if rec is None:
                _run_threads(threads)
            else:
                with rec.span("serve"):
                    _run_threads(threads)
            wall = time.perf_counter() - start
        stats = client.stats()
    finally:
        daemon.stop()
    scale = probe.factor
    out["peak_rss"] = max(out["peak_rss"], daemon.peak_rss)
    out["start_s"].append(start_s)
    out["scaled_start_s"].append(start_s * scale)
    for t in tenants:
        if t.error is not None:
            raise t.error
        out["attempted"] += t.attempted
        out["failed"] += t.failed
        out["rejected"] += t.rejected
        out["latency_s"] += t.latency_s
        out["scaled_latency_s"] += [x * scale for x in t.latency_s]
        out["submit_s"] += t.submit_s
        out["executed"] += t.executed
        out["failures"] += t.failures
    out["rates"].append(sum(t.attempted for t in tenants) / wall)
    out["scaled_rates"].append(sum(t.attempted for t in tenants) / (wall * scale))
    counts = stats["points"]
    out["daemon_points"] += counts["points_ok"] + counts["points_failed"]
    out["hits"] += counts["cache_hits"]
    out["dedup"] += counts["dedup"]
    out["retries"] += counts["retries"]


def _run_threads(threads) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            raise RuntimeError("serve client thread did not finish")
