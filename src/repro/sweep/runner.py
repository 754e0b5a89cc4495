"""Fan a grid of runs across worker processes, with result caching.

The grid points of an experiment sweep are embarrassingly parallel —
each :class:`~repro.sweep.spec.RunSpec` is an independent,
deterministic simulation — so :class:`SweepRunner` simply maps them
over worker processes.  Three properties are load-bearing:

* **Bit-identical results.**  Statistics always travel through the
  JSON codec of :mod:`repro.stats.io` — serial runs included — so a
  spec's stats are byte-for-byte the same whether they came from this
  process, a pool worker, or the on-disk cache.
* **Deterministic ordering.**  Results come back in spec order, so
  downstream aggregation never depends on worker scheduling.
* **Content-keyed caching.**  With a cache directory configured, specs
  already on disk are never re-simulated; a warm re-run of a whole
  sweep executes zero simulations.

On top of that sits the resilience layer (see
:mod:`repro.faults`): a :class:`~repro.faults.FaultPolicy` adds
per-spec timeouts, seeded-backoff retries and record-and-skip failure
handling; a :class:`~repro.faults.FaultPlan` injects deterministic
worker crashes, hangs and corruption for chaos testing; and a
:class:`~repro.sweep.journal.SweepJournal` checkpoints completed
points so an interrupted sweep resumes instead of restarting.  With
the default policy and no plan, execution takes exactly the historical
serial/pool paths — same processes, same codec, same bits.

Failure isolation needs real process boundaries (a hung or dying
worker cannot be preempted from within), so any non-default policy or
active plan routes pending specs through the isolated executor: each
attempt runs on a forked worker of a
:class:`~repro.sweep.workers.WorkerPool` that the parent can kill on
timeout, whose hard death (``SIGKILL``-style, exit without a result
message) it observes, and whose failed attempts it retries with
deterministic exponential backoff.  Workers stay warm across ok
attempts, are retired after a failed one, detach from the parent's
signal handling and sockets on start, and are all killed when the
sweep ends.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import (
    FailureRecord,
    FaultPlan,
    FaultPolicy,
    InjectedFault,
    plan_from_env,
)
from ..stats.counters import RunStats
from ..stats.io import stats_from_dict, stats_to_dict
from .cache import ResultCache
from .journal import SweepJournal
from .spec import RunSpec
from .workers import Attempt, WorkerPool

__all__ = [
    "SweepExecutionError",
    "SweepInterrupted",
    "SweepResult",
    "SweepRunner",
]

_log = logging.getLogger("repro.sweep")

#: exit code an injected worker crash dies with (no cleanup, no result)
_CRASH_EXIT = 87

#: set in isolated worker processes; hard-death fault injections check
#: it so a serial in-process run degrades to an exception instead of
#: taking the parent down
_IN_WORKER = False


class SweepExecutionError(RuntimeError):
    """A grid point exhausted its attempts under ``on_failure="raise"``."""

    def __init__(self, record: FailureRecord, spec: RunSpec) -> None:
        self.record = record
        self.spec = spec
        super().__init__(f"sweep point '{spec.label}' failed — {record.describe()}")


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C mid-sweep; carries the results completed so far.

    Subclasses :class:`KeyboardInterrupt` so callers that don't care
    about partial results keep their existing interrupt behavior.
    """

    def __init__(self, results: List["SweepResult"]) -> None:
        self.results = results
        super().__init__(f"sweep interrupted after {len(results)} point(s)")


@dataclass
class SweepResult:
    """One grid point's outcome."""

    spec: RunSpec
    #: ``None`` when the point failed (see :attr:`failure`)
    stats: Optional[RunStats]
    elapsed_s: float
    cached: bool
    #: why the point failed, for failed points only
    failure: Optional[FailureRecord] = None
    #: execution attempts this outcome took (cache hits: 0)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def ops_per_s(self) -> float:
        """Simulator throughput for this point; 0.0 when served from
        the cache (no simulation happened, so there is no rate)."""
        if self.stats is None or self.cached or self.elapsed_s <= 0:
            return 0.0
        return self.stats.operations / self.elapsed_s


def _traceback_tail(limit: int = 15) -> str:
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def _execute_payload(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Worker entry point: simulate one spec, return its stats document.

    Module-level (picklable) and fed plain dicts, so it works under
    both ``fork`` and ``spawn`` start methods.  Dunder keys are
    stripped before spec decoding (they are not part of the spec's
    identity): ``__trace_dir__`` makes the worker write a JSONL trace
    plus manifest there, ``__fault_plan__``/``__attempt__`` drive
    deterministic fault injection (a plan may also arrive via the
    ``REPRO_FAULT_PLAN`` environment knob).
    """
    payload = dict(payload)
    trace_dir = payload.pop("__trace_dir__", None)
    plan_doc = payload.pop("__fault_plan__", None)
    attempt = payload.pop("__attempt__", 1)
    spec = RunSpec.from_dict(payload)
    plan = (
        FaultPlan.from_dict(plan_doc) if plan_doc is not None else plan_from_env()
    )
    fingerprint = spec.fingerprint() if plan is not None else ""
    if plan is not None:
        kind = plan.first_fault(fingerprint, attempt, ("crash", "hang"))
        if kind == "crash":
            if _IN_WORKER:
                os._exit(_CRASH_EXIT)
            raise InjectedFault(
                f"injected worker crash (attempt {attempt}, "
                f"spec {fingerprint[:12]})"
            )
        if kind == "hang":
            if _IN_WORKER:
                time.sleep(plan.hang_s)
            raise InjectedFault(
                f"injected worker hang (attempt {attempt}, "
                f"spec {fingerprint[:12]})"
            )
    trace = None
    if trace_dir is not None:
        from pathlib import Path

        from ..api import TraceOptions, spec_fingerprint

        out_dir = Path(trace_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = TraceOptions(
            path=out_dir / f"{spec_fingerprint(spec)[:16]}.jsonl"
        )
    start = time.perf_counter()
    stats = spec.execute(trace=trace)
    elapsed = time.perf_counter() - start
    doc = stats_to_dict(stats)
    if plan is not None and plan.first_fault(
        fingerprint, attempt, ("corrupt-result",)
    ):
        # an undecodable document: the parent's stats_from_dict raises,
        # which is exactly how a garbled worker reply presents
        doc = {"__injected_corrupt_result__": fingerprint[:12]}
    return doc, elapsed


def _default_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


@dataclass
class _Attempt:
    """Book-keeping for one in-flight isolated attempt."""

    index: int
    spec: RunSpec
    attempt: int
    #: wall time already spent on earlier attempts of this spec
    elapsed_before: float
    handle: Attempt


class SweepRunner:
    """Runs :class:`RunSpec` grids; serial with ``jobs=1``, pooled above.

    ``cache_dir=None`` disables the on-disk cache.  ``progress`` may be
    ``False`` (silent), ``True`` (lines on stderr) or a callable that
    receives each progress line.  ``policy`` (a
    :class:`~repro.faults.FaultPolicy`) selects timeout/retry/skip
    behavior; ``fault_plan`` injects deterministic chaos (defaults to
    the ``REPRO_FAULT_PLAN`` environment knob).  With a cache
    directory, completed points are journaled under
    ``<cache_dir>/journals/`` so interrupted sweeps can resume.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        progress: bool | Callable[[str], None] = False,
        trace_dir: Optional[str] = None,
        policy: Optional[FaultPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        journal: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        cpus = os.cpu_count() or jobs
        if jobs > cpus:
            _log.info(
                "clamping jobs=%d to os.cpu_count()=%d (more workers than "
                "cores would only thrash the scheduler)", jobs, cpus,
            )
            jobs = cpus
        self.jobs = jobs
        #: when set, every *executed* spec also writes a JSONL trace +
        #: manifest here (named by content fingerprint).  Cache hits
        #: skip simulation entirely, so they leave no trace file — use
        #: ``use_cache=False`` to trace a fully warm grid.
        self.trace_dir = trace_dir
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        self.policy = policy if policy is not None else FaultPolicy()
        self.fault_plan = (
            fault_plan if fault_plan is not None else plan_from_env()
        )
        self._journal_enabled = journal and cache_dir is not None
        self._cache_dir = cache_dir
        if callable(progress):
            self._progress: Optional[Callable[[str], None]] = progress
        else:
            self._progress = _default_progress if progress else None
        #: simulations actually completed (not served from cache, not
        #: failed) since construction — the warm-cache acceptance check
        #: and the resume tests read this
        self.executed = 0
        self.cache_hits = 0
        #: grid points that exhausted their attempts in the last run
        self.failed = 0
        if (
            self.fault_plan is not None
            and self.fault_plan.needs_isolation
            and any(r.kind == "hang" for r in self.fault_plan.rules)
            and self.policy.timeout_s is None
        ):
            _log.warning(
                "fault plan injects hangs but no timeout_s is set; a hung "
                "worker will stall the sweep for up to %.0fs",
                self.fault_plan.hang_s,
            )

    # ------------------------------------------------------------------

    def _report(self, done: int, total: int, result: SweepResult) -> None:
        if self._progress is None or total == 0:
            return
        if result.failure is not None:
            source = f"FAILED ({result.failure.kind})"
        elif result.cached:
            source = "cache"
        else:
            source = f"{result.elapsed_s:6.2f}s"
        self._progress(
            f"[{done}/{total}] {result.spec.label:<40s} {source}"
        )

    def _payload(self, spec: RunSpec) -> Dict[str, Any]:
        doc = spec.to_dict()
        if self.trace_dir is not None:
            doc["__trace_dir__"] = str(self.trace_dir)
        return doc

    def _journal_for(self, specs: Sequence[RunSpec]) -> Optional[SweepJournal]:
        if not self._journal_enabled or not specs:
            return None
        return SweepJournal.for_grid(self._cache_dir, specs)

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[SweepResult]:
        """Execute every spec; results are returned in spec order.

        Under the default :class:`~repro.faults.FaultPolicy` a failing
        point raises (:class:`SweepExecutionError` from the isolated
        executor, the worker's own exception from the legacy paths);
        with ``on_failure="skip"`` it comes back as a failed
        :class:`SweepResult` carrying a
        :class:`~repro.faults.FailureRecord`.  ``KeyboardInterrupt``
        is re-raised as :class:`SweepInterrupted` with the completed
        partial results attached; the journal already has them.
        """
        specs = list(specs)
        total = len(specs)
        results: List[Optional[SweepResult]] = [None] * total
        pending: List[Tuple[int, RunSpec]] = []
        done = 0
        self.failed = 0

        # the resilience features all key by content fingerprint; the
        # default fast path never needs one
        needs_fp = (
            self._journal_enabled
            or self.fault_plan is not None
            or not self.policy.is_default
        )
        fps: Optional[List[str]] = (
            [s.fingerprint() for s in specs] if needs_fp else None
        )
        journal = self._journal_for(specs)
        prior = journal.load() if journal is not None else {}
        if journal is not None:
            # an interrupt before the first point completes must still
            # leave a (possibly empty) journal, so --resume always works
            journal.touch()

        def mark(i: int, result: SweepResult) -> None:
            nonlocal done
            results[i] = result
            done += 1
            self._report(done, total, result)
            if result.failure is not None:
                self.failed += 1
            if journal is not None:
                fp = fps[i]
                status = "ok" if result.failure is None else "failed"
                old = prior.get(fp)
                if old is None or old.get("status") != status:
                    journal.record(
                        fp,
                        status,
                        attempts=result.attempts,
                        elapsed_s=result.elapsed_s,
                        detail=""
                        if result.failure is None
                        else result.failure.describe(),
                    )
                    prior[fp] = {"fingerprint": fp, "status": status}

        try:
            for i, spec in enumerate(specs):
                cached = None if self.cache is None else self.cache.get(spec)
                if cached is not None:
                    self.cache_hits += 1
                    mark(
                        i,
                        SweepResult(
                            spec=spec,
                            stats=cached,
                            elapsed_s=0.0,
                            cached=True,
                            attempts=0,
                        ),
                    )
                else:
                    pending.append((i, spec))

            if pending:
                isolate = (
                    self.fault_plan is not None or not self.policy.is_default
                )
                if isolate:
                    self._run_isolated(pending, fps, mark)
                elif self.jobs == 1 or len(pending) == 1:
                    for i, spec in pending:
                        doc, elapsed = _execute_payload(self._payload(spec))
                        self._finish_ok(i, spec, doc, elapsed, 1, fps, mark)
                else:
                    outcomes = self._pooled(
                        [self._payload(spec) for _, spec in pending]
                    )
                    for (i, spec), (doc, elapsed) in zip(pending, outcomes):
                        self._finish_ok(i, spec, doc, elapsed, 1, fps, mark)
        except KeyboardInterrupt:
            raise SweepInterrupted(
                [r for r in results if r is not None]
            ) from None

        assert all(r is not None for r in results)
        if (
            journal is not None
            and total > 0
            and self.failed == 0
            and not journal.is_complete()
        ):
            # a fully-ok grid is done for good: mark the journal so GC
            # may prune it once the keep window passes (failed grids
            # stay unmarked — they are resume state)
            journal.mark_complete(total)
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> SweepResult:
        return self.run([spec])[0]

    # ------------------------------------------------------------------

    def _finish_ok(
        self,
        i: int,
        spec: RunSpec,
        stats_doc: Dict[str, Any],
        elapsed: float,
        attempts: int,
        fps: Optional[List[str]],
        mark: Callable[[int, SweepResult], None],
    ) -> None:
        # the codec round-trip keeps serial results bit-identical to
        # pooled ones (both sides of the comparison see exactly what
        # survives JSON)
        stats = stats_from_dict(stats_doc)
        self.executed += 1
        if self.cache is not None:
            self.cache.put(spec, stats, elapsed)
            if self.fault_plan is not None and self.fault_plan.first_fault(
                fps[i], 1, ("corrupt-cache",)
            ):
                self._corrupt_cache_entry(spec)
        mark(
            i,
            SweepResult(
                spec=spec,
                stats=stats,
                elapsed_s=elapsed,
                cached=False,
                attempts=attempts,
            ),
        )

    def _corrupt_cache_entry(self, spec: RunSpec) -> None:
        """Injected ``corrupt-cache`` fault: garble the entry on disk."""
        path = self.cache.path_for(spec)
        try:
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)] + '"CORRUPT')
        except OSError:  # pragma: no cover - entry vanished mid-injection
            pass

    # ------------------------------------------------------------------
    # legacy pool path (default policy, no fault plan)

    def _pooled(self, payloads: List[Dict[str, Any]]):
        """Map payloads over a worker pool, preserving order."""
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        jobs = min(self.jobs, len(payloads))
        pool = ctx.Pool(processes=jobs)
        try:
            yield from pool.imap(_execute_payload, payloads, chunksize=1)
        finally:
            # terminate, not close: the caller may abandon this
            # generator mid-iteration (KeyboardInterrupt, early exit)
            # with tasks still queued, and close() would strand them
            pool.terminate()
            pool.join()

    # ------------------------------------------------------------------
    # isolated executor (timeouts, retries, crash containment)

    def _run_isolated(
        self,
        pending: List[Tuple[int, RunSpec]],
        fps: List[str],
        mark: Callable[[int, SweepResult], None],
    ) -> None:
        """Worker-pool execution with kill/retry/skip semantics.

        Each attempt runs on a forked worker of a :class:`WorkerPool`
        talking back over a pipe, so the parent can kill a hung attempt
        at its deadline and observe a hard death (process exit without
        a result message) — neither is possible with ``Pool.imap``.  Up
        to ``jobs`` attempts run concurrently; retries re-enter the
        queue after their seeded backoff delay.  A worker stays warm
        across ok attempts and is retired after a failed one; all
        workers are killed and joined when this returns.
        """
        policy = self.policy
        plan = self.fault_plan
        max_workers = max(1, min(self.jobs, len(pending)))
        pool = WorkerPool(max_workers)
        seq = itertools.count()

        # (index, spec, attempt_no, elapsed_on_earlier_attempts)
        ready: List[Tuple[int, RunSpec, int, float]] = [
            (i, spec, 1, 0.0) for i, spec in pending
        ]
        ready.reverse()  # pop() from the end keeps spec order
        # min-heap of (ready_time, seq, index, spec, attempt, elapsed)
        waiting: List[Tuple[float, int, int, RunSpec, int, float]] = []
        running: List[_Attempt] = []

        def start(i: int, spec: RunSpec, attempt: int, before: float) -> None:
            payload = self._payload(spec)
            payload["__attempt__"] = attempt
            if plan is not None:
                payload["__fault_plan__"] = plan.to_dict()
            running.append(
                _Attempt(
                    index=i,
                    spec=spec,
                    attempt=attempt,
                    elapsed_before=before,
                    handle=pool.start(payload, policy.timeout_s),
                )
            )

        def fail_attempt(
            task: _Attempt,
            kind: str,
            *,
            exc_type: str = "",
            message: str = "",
            traceback_tail: str = "",
        ) -> None:
            elapsed = task.elapsed_before + (
                time.monotonic() - task.handle.started
            )
            if task.attempt <= policy.max_retries:
                delay = policy.backoff_delay(fps[task.index], task.attempt)
                _log.info(
                    "retrying %s after %s (attempt %d/%d, backoff %.3fs)",
                    task.spec.label, kind, task.attempt,
                    policy.max_retries + 1, delay,
                )
                heapq.heappush(
                    waiting,
                    (
                        time.monotonic() + delay,
                        next(seq),
                        task.index,
                        task.spec,
                        task.attempt + 1,
                        elapsed,
                    ),
                )
                return
            record = FailureRecord(
                kind=kind,
                exc_type=exc_type,
                message=message,
                traceback_tail=traceback_tail,
                attempts=task.attempt,
                elapsed_s=round(elapsed, 6),
                fingerprint=fps[task.index],
            )
            if policy.on_failure == "raise":
                raise SweepExecutionError(record, task.spec)
            mark(
                task.index,
                SweepResult(
                    spec=task.spec,
                    stats=None,
                    elapsed_s=elapsed,
                    cached=False,
                    failure=record,
                    attempts=task.attempt,
                ),
            )

        def complete(task: _Attempt, doc: Dict[str, Any], sim_s: float) -> None:
            try:
                self._finish_ok(
                    task.index, task.spec, doc, sim_s, task.attempt, fps, mark
                )
            except (KeyError, TypeError, ValueError) as exc:
                # an undecodable stats document is a failed attempt
                # (corrupt worker reply), not a sweep-fatal error
                fail_attempt(
                    task,
                    "exception",
                    exc_type=type(exc).__name__,
                    message=f"undecodable stats document: {exc}",
                    traceback_tail=_traceback_tail(),
                )

        try:
            while ready or waiting or running:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, i, spec, attempt, before = heapq.heappop(waiting)
                    ready.append((i, spec, attempt, before))
                while ready and len(running) < max_workers:
                    i, spec, attempt, before = ready.pop()
                    start(i, spec, attempt, before)
                if not running:
                    if waiting:
                        time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                    continue

                # sleep until a result arrives, a worker dies, a
                # deadline expires or a backoff matures
                wait_for: List[Any] = []
                timeout: Optional[float] = None
                for task in running:
                    wait_for += task.handle.waitables()
                    deadline = task.handle.deadline
                    if deadline is not None:
                        left = deadline - now
                        timeout = left if timeout is None else min(timeout, left)
                if waiting:
                    left = waiting[0][0] - now
                    timeout = left if timeout is None else min(timeout, left)
                _connection_wait(
                    wait_for,
                    timeout=None if timeout is None else max(0.0, timeout),
                )

                for task in list(running):
                    outcome = task.handle.poll()
                    if outcome is None:
                        continue
                    running.remove(task)
                    kind, data, elapsed = outcome
                    if kind == "ok":
                        complete(task, data, elapsed)
                    elif kind == "exception":
                        fail_attempt(
                            task,
                            kind,
                            exc_type=data.get("exc_type", ""),
                            message=data.get("message", ""),
                            traceback_tail=data.get("traceback_tail", ""),
                        )
                    else:  # crash | timeout
                        fail_attempt(task, kind, message=data)
        finally:
            # abandoning the executor (Ctrl-C, on_failure="raise", an
            # unexpected error) must never leak worker processes
            pool.kill_all()
