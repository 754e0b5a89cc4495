"""In-process cell rounds: the ``simulate`` path, timed per cell.

A round builds and runs every cell of the workload once, one after
another.  Per cell it records the chip build time, the host time in
``Chip.run_cycles`` (warmup plus window) and the committed operations
of both, then -- outside the timed region -- the coherence audit and
the statistics digest.  Untraced cells are stepped by a
``hostspeed.Stepper``, which also gives their host time scaled to the
reference host.  Later rounds may skip the audit: their digests
must equal the audited first round's.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench.hostspeed import Stepper
from perfbench.spans import (
    SpanRecorder,
    inject_access_wait,
    instrument_chip,
    uninstrument_chip,
)


@dataclass
class CellRun:
    label: str
    protocol: str
    #: cores of the chip (each holds at most one fetched, uncommitted op)
    cores: int
    build_s: float
    #: host s in ``run_cycles``, and the same scaled to the reference
    #: host (traced cells are not scaled: equal to ``run_s``)
    run_s: float
    scaled_s: float
    #: committed operations over warmup plus window
    ops: int
    window_ops: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    flits: int
    digest: str
    #: kernel times taken while the cell ran (untraced cells only)
    kernel_s: List[float]
    #: why the cell failed, or None
    failure: Optional[str] = None


class DigestCheck:
    """Pinned digests for the default seed; repeat-determinism otherwise."""

    def __init__(self, pins: Optional[Dict[str, str]]) -> None:
        self.pins = pins
        self._first: Dict[str, tuple] = {}
        self._fp: Dict[int, str] = {}

    def check(self, spec, ops: int, digest: str) -> Optional[str]:
        fp = self._fp.get(id(spec))
        if fp is None:
            fp = self._fp[id(spec)] = spec.fingerprint()
        if self.pins is not None:
            want = self.pins.get(fp)
            if want is None:
                return "no pinned digest for this cell"
            if want != digest:
                return f"digest {digest[:12]} != pinned {want[:12]}"
            return None
        first = self._first.setdefault(fp, (ops, digest))
        if first != (ops, digest):
            return (
                f"not repeatable: ops {ops} vs {first[0]}, "
                f"digest {digest[:12]} vs {first[1][:12]}"
            )
        return None


def run_cell(
    spec,
    check: DigestCheck,
    rec: Optional[SpanRecorder] = None,
    inject_wait_s: float = 0.0,
    audit: bool = True,
) -> CellRun:
    from repro.perf.harness import stats_digest

    gc.collect()
    if rec is None:
        start = time.perf_counter()
        chip = spec.build_chip()
        build_s = time.perf_counter() - start
    else:
        with rec.span("sim.build"):
            start = time.perf_counter()
            chip = spec.build_chip()
            build_s = time.perf_counter() - start
        instrument_chip(chip, rec)
    if inject_wait_s:
        inject_access_wait(chip, inject_wait_s)
    protocol = chip.protocol
    reset = protocol.reset_stats
    warmup_ops = [0]

    def count_warmup() -> None:
        # run_cycles resets the stats (and rebases the op count) once,
        # at the end of warmup; keep the ops committed before it
        warmup_ops[0] = sum(core.ops_done for core in chip.cores)
        reset()

    protocol.reset_stats = count_warmup
    stepper = None
    if rec is None:
        stepper = Stepper()
        stepper.install(chip)
    failure = None
    try:
        if stepper is None:
            start = time.perf_counter()
            stats = chip.run_cycles(spec.cycles, warmup=spec.warmup)
            run_s = scaled_s = time.perf_counter() - start
        else:
            stepper.start()
            stats = chip.run_cycles(spec.cycles, warmup=spec.warmup)
            stepper.finish()
            run_s, scaled_s = stepper.raw_s, stepper.scaled_s
    except Exception as exc:  # a failing cell is counted, not fatal
        return CellRun(
            spec.label, spec.protocol, len(chip.cores), build_s, 0.0, 0.0,
            0, 0, 0, 0, 0, 0, 0, "", [],
            f"raised {type(exc).__name__}: {exc}",
        )
    if stepper is not None:
        stepper.uninstall()
    else:
        uninstrument_chip(chip)
    if audit:
        try:
            chip.verify_coherence()
        except Exception as exc:
            failure = f"coherence audit: {type(exc).__name__}: {exc}"
    digest = stats_digest(stats)
    ops = stats.operations + warmup_ops[0]
    if failure is None:
        failure = check.check(spec, ops, digest)
    return CellRun(
        label=spec.label,
        protocol=spec.protocol,
        cores=len(chip.cores),
        build_s=build_s,
        run_s=run_s,
        scaled_s=scaled_s,
        ops=ops,
        window_ops=stats.operations,
        l1_hits=stats.l1_hits,
        l1_misses=stats.l1_misses,
        l2_hits=stats.l2_data_hits,
        l2_misses=stats.l2_misses,
        flits=sum(stats.network.flits_by_type.values()),
        digest=digest,
        kernel_s=stepper.samples if stepper is not None else [],
        failure=failure,
    )


def run_round(specs, check: DigestCheck, **kwargs) -> List[CellRun]:
    return [run_cell(spec, check, **kwargs) for spec in specs]
