"""The benchmark's workloads: which specs each one runs.

Every workload drives the simulator the three ways its users wait for
it -- in-process ``Chip`` runs (the ``simulate`` path), a cold
``SweepRunner`` grid and a closed loop against a ``repro serve``
daemon -- so every end-to-end metric is measured on every workload.
What differs is the input, and with it the layer that does the work:

``sim-com``
    All eight protocols on ``mixed-com`` (2x apache + 2x jbb) on the
    paper-scaled 64-tile chip: L2-bound misses, so the miss handlers,
    ``cache``, ``noc`` and ``mem`` carry a large share of the cells'
    host time (with the 8k + 8k window, trace start-up about half).
``sim-sci``
    The same eight protocols on ``mixed-sci`` (radix, lu, volrend,
    tomcatv).  L1-resident: host time goes to the issue loop, the
    L1-hit path inlined in ``access``, the trace iterators and the
    event heap, and ``dls`` exercises the busy/retry path.

The sweep and serve phases of both run many tiny points of their mix
(the 4x4 test chip, a few hundred cycles each), where process spawn,
the stats codec, the result cache, the journal, HTTP and fair
scheduling dominate; a quarter of the served points repeat, so cache
hits and in-flight dedup run beside executions.

A run repeats cycles of (one round of cells, one cold sweep pass, one
serve session) until ``--seconds`` have passed, so every metric
samples the whole run; the same seed always gives the same specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: the seed the pinned digests were computed for
DEFAULT_SEED = 1

PROTOCOLS = (
    "directory",
    "dico",
    "dico-providers",
    "dico-arin",
    "dls",
    "vh",
    "mesi-snoop",
    "moesi-snoop",
)

#: points per served job, and how many of them repeat a point of the
#: other tenant's concurrent job (in flight: dedup; finished: cache hit)
POINTS_PER_JOB = 4
REPEATS_PER_JOB = 1
#: closed-loop jobs per tenant per serve session
JOBS_PER_TENANT = 16

#: tiny-point window: long enough to leave warmup, short enough that
#: per-point overhead is a large share of a point's cost
POINT_CYCLES = 300
POINT_WARMUP = 100


@dataclass(frozen=True)
class Workload:
    name: str
    #: mix simulated by the cells and the points
    mix: str
    cell_cycles: int
    cell_warmup: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="sim-com", mix="mixed-com", cell_cycles=8_000,
                 cell_warmup=8_000),
        Workload(name="sim-sci", mix="mixed-sci", cell_cycles=8_000,
                 cell_warmup=8_000),
    )
}


def _tiny_config():
    from repro.sim.config import small_test_chip
    from repro.sweep.spec import config_to_dict

    return config_to_dict(small_test_chip())


def cell_specs(w: Workload, seed: int) -> list:
    """One spec per protocol, run one after another in-process."""
    from repro.sweep.spec import RunSpec

    return [
        RunSpec(
            protocol=p,
            workload=w.mix,
            seed=seed,
            cycles=w.cell_cycles,
            warmup=w.cell_warmup,
        )
        for p in PROTOCOLS
    ]


def point_specs(w: Workload, seed: int, n: int) -> list:
    """``n`` distinct tiny points: protocols round-robin, seeds from ``seed``."""
    from repro.sweep.spec import RunSpec

    config = _tiny_config()
    return [
        RunSpec(
            protocol=PROTOCOLS[i % len(PROTOCOLS)],
            workload=w.mix,
            seed=seed * 10_000 + i // len(PROTOCOLS),
            cycles=POINT_CYCLES,
            warmup=POINT_WARMUP,
            config=config,
        )
        for i in range(n)
    ]


def serve_jobs(jobs: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Per-tenant job lists, as indexes into the point list.

    Tenant ``k``'s job ``j`` holds three fresh points and one fresh
    point of the other tenant's job ``j``: the two jobs run
    concurrently, so the shared point is merged by in-flight dedup or
    served from the cache, whichever the timing gives.
    """
    fresh = POINTS_PER_JOB - REPEATS_PER_JOB
    tenants: Tuple[List[List[int]], List[List[int]]] = ([], [])
    for j in range(jobs):
        own = [
            [(j * 2 + k) * fresh + i for i in range(fresh)] for k in (0, 1)
        ]
        for k in (0, 1):
            tenants[k].append(own[k] + own[1 - k][:REPEATS_PER_JOB])
    return tenants


def distinct_points(jobs: int) -> int:
    return jobs * 2 * (POINTS_PER_JOB - REPEATS_PER_JOB)
