"""A reusable pool of forked attempt workers.

Both process-isolated executors — :class:`~repro.sweep.runner.SweepRunner`
under a non-default :class:`~repro.faults.FaultPolicy` or an active
:class:`~repro.faults.FaultPlan`, and the ``repro serve`` daemon — run
every point attempt on a worker taken from a :class:`WorkerPool`.  A
worker loops: receive a payload, run
:func:`~repro.sweep.runner._execute_payload`, reply
``("ok", stats_doc, elapsed)`` or ``("error", failure_doc)``.  Process
start-up and the lazy imports of a first simulation (``numpy.random``
among them) are paid once per worker instead of once per attempt.

Four properties are load-bearing:

* **Same outcomes.**  An attempt ends as ``ok``, ``exception``,
  ``crash`` or ``timeout`` (see :data:`AttemptOutcome`) with the same
  messages and timing a fresh process per attempt produced: a hung
  worker is killed at its deadline, and a worker that dies without
  replying (an injected ``os._exit``, a signal) is a crash.
* **Retire on failure.**  After an ``exception``, ``crash`` or
  ``timeout`` the worker is killed and never reused; the next attempt
  forks a fresh one, so no attempt runs in a process that saw a
  failure.
* **Lazy and bounded.**  Workers are forked on first demand, at most
  ``max_workers`` of them live at once, and :meth:`WorkerPool.kill_all`
  kills idle and busy ones alike and refuses further work.
* **Detached on start.**  A worker resets SIGTERM/SIGINT to their
  defaults, drops the parent's signal wakeup fd, and closes every
  inherited socket plus the pool-side pipe ends of its siblings.  A
  signal sent to a worker therefore never reaches the parent's event
  loop, a client connection the parent closes reaches EOF, and a
  worker whose parent dies sees EOF on its task pipe and exits.
  Channels are one-way pipes, so a worker's own channel is not a
  socket.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import threading
import time
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Attempt", "AttemptOutcome", "PoolClosed", "WorkerPool"]

#: ``(kind, payload, elapsed_s)`` where kind is ``ok`` (payload = stats
#: document, elapsed = the worker's own simulation time), ``exception``
#: (payload = failure fields), ``crash`` or ``timeout`` (payload =
#: message string); failures carry the wall time since the attempt
#: started
AttemptOutcome = Tuple[str, Any, float]

#: outcome kinds after which a worker is killed instead of reused
RETIRING = ("exception", "crash", "timeout")


class PoolClosed(RuntimeError):
    """:meth:`WorkerPool.kill_all` ran; the pool takes no more work."""


def _close_inherited_sockets() -> None:
    """Point every inherited socket descriptor at ``/dev/null``.

    The socket is closed for good, yet its descriptor number stays
    taken, so a stale socket object that is later collected can never
    close a file this worker opened in the meantime.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # pragma: no cover - no /dev/fd (a spawn platform)
        return
    null = -1
    for fd in fds:
        try:
            is_socket = stat.S_ISSOCK(os.fstat(fd).st_mode)
        except OSError:  # the listing's own, already closed descriptor
            continue
        if is_socket:
            if null < 0:
                null = os.open(os.devnull, os.O_RDWR)
            os.dup2(null, fd)
    if null >= 0:
        os.close(null)


def _worker_main(tasks, replies, inherited) -> None:
    """Entry point of a pool worker: detach, then serve payloads."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    for conn in inherited:
        conn.close()
    _close_inherited_sockets()
    from . import runner  # runner imports this module

    runner._IN_WORKER = True
    while True:
        try:
            payload = tasks.recv()
        except (EOFError, OSError):  # the pool, or its process, is gone
            return
        try:
            doc, elapsed = runner._execute_payload(payload)
            msg: Tuple[Any, ...] = ("ok", doc, elapsed)
        except BaseException as exc:  # a worker must report, never re-raise
            msg = (
                "error",
                {
                    "exc_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback_tail": runner._traceback_tail(),
                },
            )
        try:
            replies.send(msg)
        except (OSError, ValueError):  # the pool is gone
            return


class _Worker:
    """One forked worker and the pool's ends of its two pipes."""

    __slots__ = ("proc", "tasks", "replies")

    def __init__(self, proc, tasks, replies) -> None:
        self.proc = proc
        self.tasks = tasks
        self.replies = replies

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join(timeout=5)
        for conn in (self.tasks, self.replies):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class Attempt:
    """One payload in flight on one worker."""

    def __init__(
        self,
        pool: "WorkerPool",
        worker: _Worker,
        timeout_s: Optional[float],
        started: float,
    ) -> None:
        self._pool = pool
        self._worker = worker
        self.timeout_s = timeout_s
        self.started = started
        self.deadline = None if timeout_s is None else started + timeout_s
        self.outcome: Optional[AttemptOutcome] = None

    @property
    def pid(self) -> int:
        return self._worker.proc.pid

    def waitables(self) -> List[Any]:
        """What to ``multiprocessing.connection.wait`` on: a reply or
        the worker's death."""
        return [self._worker.replies, self._worker.proc.sentinel]

    def poll(self) -> Optional[AttemptOutcome]:
        """The outcome once the attempt has ended, else ``None``.

        Kills the worker once the deadline has passed.  The first call
        that sees the end hands the worker back to the pool: kept warm
        after ``ok``, retired after anything else.
        """
        if self.outcome is None:
            self.outcome = self._check()
            if self.outcome is not None:
                self._pool._release(self._worker, self.outcome[0])
        return self.outcome

    def _check(self) -> Optional[AttemptOutcome]:
        worker = self._worker
        elapsed = time.monotonic() - self.started
        if worker.replies.poll():
            try:
                msg = worker.replies.recv()
            except (EOFError, OSError):
                return ("crash", "worker died mid-reply", elapsed)
            if msg[0] == "ok":
                return ("ok", msg[1], msg[2])
            return ("exception", msg[1], elapsed)
        if not worker.proc.is_alive():
            return (
                "crash",
                "worker process died without a result "
                f"(exit code {worker.proc.exitcode})",
                elapsed,
            )
        if self.deadline is not None and time.monotonic() >= self.deadline:
            worker.proc.kill()
            return (
                "timeout",
                f"attempt exceeded timeout_s={self.timeout_s}",
                elapsed,
            )
        return None

    def wait(self) -> AttemptOutcome:
        """Block until the attempt ends; never raises for its failures."""
        while self.poll() is None:
            timeout = (
                None if self.deadline is None
                else max(0.0, self.deadline - time.monotonic())
            )
            _connection_wait(self.waitables(), timeout=timeout)
        return self.outcome


class WorkerPool:
    """At most ``max_workers`` warm workers, forked on first demand.

    Thread-safe: the daemon runs :meth:`run` from several threads at
    once, the sweep drives :meth:`start`/:meth:`Attempt.poll` from one.
    ``len(pool)`` is the number of attempts in flight.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._idle: List[_Worker] = []
        self._busy: set = set()
        self._cond = threading.Condition()
        self._closed = False
        #: workers forked, attempts run on an already warm worker, and
        #: workers killed after a failed attempt, by outcome kind (one
        #: found dead while idle counts as a crash)
        self.spawned = 0
        self.reused = 0
        self.retired: Dict[str, int] = {kind: 0 for kind in RETIRING}

    def __len__(self) -> int:
        with self._cond:
            return len(self._busy)

    def counters(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "spawned": self.spawned,
                "reused": self.reused,
                "retired": dict(self.retired),
            }

    def _spawn(self) -> _Worker:
        # called with the lock held, so no other fork can copy this
        # worker's pipe ends before the parent closes them
        tasks_r, tasks_w = self._ctx.Pipe(duplex=False)
        replies_r, replies_w = self._ctx.Pipe(duplex=False)
        inherited: List[Any] = []
        if self._ctx.get_start_method() == "fork":
            for worker in [*self._idle, *self._busy]:
                inherited += (worker.tasks, worker.replies)
            inherited += (tasks_w, replies_r)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(tasks_r, replies_w, inherited),
            daemon=True,
        )
        proc.start()
        tasks_r.close()
        replies_w.close()
        self.spawned += 1
        return _Worker(proc, tasks_w, replies_r)

    def start(
        self, payload: Dict[str, Any], timeout_s: Optional[float] = None
    ) -> Attempt:
        """Send ``payload`` to an idle worker, or to a fresh one.

        ``payload`` is a :class:`~repro.sweep.spec.RunSpec` document
        plus the dunder keys :func:`~repro.sweep.runner._execute_payload`
        understands.  Blocks while ``max_workers`` attempts are in
        flight; raises :class:`PoolClosed` after :meth:`kill_all`.
        """
        with self._cond:
            while True:
                if self._closed:
                    raise PoolClosed("daemon shutting down")
                started = time.monotonic()
                if self._idle:
                    worker = self._idle.pop()
                    try:
                        worker.tasks.send(payload)
                    except OSError:  # died while idle (killed from outside)
                        self.retired["crash"] += 1
                        worker.kill()
                        continue
                    self.reused += 1
                elif len(self._busy) < self.max_workers:
                    worker = self._spawn()
                    try:
                        worker.tasks.send(payload)
                    except OSError:  # died at once: the attempt reports it
                        pass
                else:
                    self._cond.wait()
                    continue
                self._busy.add(worker)
                return Attempt(self, worker, timeout_s, started)

    def run(
        self, payload: Dict[str, Any], timeout_s: Optional[float] = None
    ) -> AttemptOutcome:
        """Run one attempt start to end; never raises for its failures."""
        try:
            attempt = self.start(payload, timeout_s)
        except PoolClosed as exc:
            return ("crash", str(exc), 0.0)
        return attempt.wait()

    def _release(self, worker: _Worker, kind: str) -> None:
        with self._cond:
            self._busy.discard(worker)
            keep = kind == "ok" and not self._closed
            if keep:
                self._idle.append(worker)
            elif kind in self.retired:
                self.retired[kind] += 1
            self._cond.notify()
        if not keep:
            worker.kill()

    def kill_all(self) -> int:
        """Kill every worker, idle or busy, and refuse further work.

        Returns the number of attempts that were in flight; each of
        them ends as a ``crash``.
        """
        with self._cond:
            self._closed = True
            idle, busy = self._idle, list(self._busy)
            self._idle = []
            self._cond.notify_all()
        for worker in idle:
            worker.kill()
        # a busy worker's pipes stay open: the thread waiting on its
        # attempt still reads them, and closes them when it sees the end
        for worker in busy:
            worker.proc.kill()
        for worker in busy:
            worker.proc.join(timeout=5)
        return len(busy)
