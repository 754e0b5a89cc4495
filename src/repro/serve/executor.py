"""Isolated execution attempts for the daemon: one warm worker pool.

The daemon needs exactly the slice of the sweep runner's resilience
the scheduler can await concurrently: *run this spec once, isolated,
kill it at the deadline, and tell me how it ended*.  It gets that from
the same :class:`~repro.sweep.workers.WorkerPool` the sweep's isolated
executor uses, so fault injection, crash containment and the stats
codec behave bit-for-bit the same whether a point ran under
``repro sweep`` or ``repro serve``.

The daemon owns one pool of at most ``--workers`` warm workers for its
lifetime, forked on first demand (never at start).  A worker is kept
after an ``ok`` attempt and retired — killed, replaced by a fresh fork
on the next attempt — after an ``exception``, ``crash`` or
``timeout``.  Each worker detaches on start: default SIGTERM/SIGINT
handling, no signal wakeup fd, and none of the daemon's sockets, so a
signal sent to a worker ends only that attempt, a client's result
stream reaches EOF when the daemon closes it, and workers of a daemon
killed hard see EOF on their task pipe and exit.

:meth:`WorkerPool.run` is synchronous and blocking — the daemon calls
it through ``asyncio.to_thread`` while holding one
:class:`~repro.serve.scheduling.FairWorkerPool` slot.  Retry backoff
happens *outside*, in the async layer, with the slot released.

On shutdown :meth:`WorkerPool.kill_all` hard-kills idle and busy
workers and refuses further attempts; the journal still only records
completed points, so killed attempts simply re-run after a restart.
The pool's ``spawned``/``reused``/``retired`` counters appear under
``workers`` in ``/stats``.
"""

from __future__ import annotations

from ..sweep.workers import AttemptOutcome, WorkerPool

__all__ = ["AttemptOutcome", "WorkerPool"]
