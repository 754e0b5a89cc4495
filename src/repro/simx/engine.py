"""The array engine's chip driver: compiled per-core issue runners.

:class:`ArrayChip` is a drop-in :class:`~repro.sim.chip.Chip` whose
cores issue through closures compiled by :func:`make_runner` instead of
the generic ``Core._issue_fast`` / ``protocol.access`` pair.  Each
runner drains operations with the hot structures (busy table, L1 set
index, LRU stacks, version map, chunked op stream) held in locals and
closure cells, executes the L1 hit/upgrade path inline from the
per-protocol dispatch tables, and accumulates every monotonic counter
in closure cells that are flushed additively only at run boundaries
(:meth:`ArrayChip._flush_runners`: before the warmup ``reset_stats``
and before finalization) — the per-event cost of the object model's
attribute-increment bookkeeping disappears from the hot path entirely.
Misses drop into the protocol's own (unmodified) ``_handle_read_miss``
/ ``_handle_write_miss`` handlers, which in turn call the
instance-patched fast helpers.

Equivalence argument, mirroring the ``_issue_fast`` one: the runner
performs exactly the statement sequence of ``Core._issue_fast`` +
``CoherenceProtocol.access`` — same heap pushes with the same
``(time, seq)`` keys, same RNG draws, same defaultdict touches, same
LRU moves — and the deferred counter flush is sound because the
batched counters are pure monotonic sums (never read mid-run) flushed
at exactly the observation points where the object engine's running
totals are consumed.  The determinism suite and the verify
differential harness pin bit-identity for all five protocols, with
``REPRO_FAST_PATH`` on and off.

When the compiled path cannot apply (a tracer is attached, the network
runs the detailed link-load/contention path, or
``REPRO_SIMX_COMPILED=0``), the chip transparently falls back to the
object issue path — statistics are identical either way, only the
speedup is lost.
"""

from __future__ import annotations

import os
from heapq import heappush
from typing import Callable, Optional, Tuple

from ..core.states import L1State
from ..sim.chip import Chip, Core, _INLINE_OPS
from ..stats.counters import RunStats
from .handlers import compile_protocol_handlers
from .helpers import (
    install_fast_cache_methods,
    install_fast_helpers,
    protocol_caches,
)
from .tables import W_OWNER_CHECK, W_SILENT, ProtocolTables

__all__ = ["ArrayChip", "make_runner"]


def make_runner(
    chip: Chip, core: Core, tables: ProtocolTables
) -> Tuple[
    Callable[[], None],
    Callable[[Optional[int]], None],
    Callable[[], None],
    Callable[[], None],
    Callable[[], None],
]:
    """Compile the issue runner (and its maintenance hooks) for one core.

    Returns ``(runner, rebind, sync, flush, close)``.  The runner closure
    replaces ``core._issue``; *all* per-core state — the chunked op
    stream, the translation memo, the batched counters, and the
    run-scoped values the first version re-read from attributes on
    every call (``chip.deadline``, ``sim._run_until``,
    ``core.ops_target``, the ``_l1_hot`` unpack, ``core._pending`` /
    ``core.ops_done`` / ``core.done``) — lives in closure cells.  With
    eight cores interleaving on the heap a runner call drains ~1 op on
    average, so that per-call prologue/epilogue was paid per *op*;
    hoisting it into cells is the difference between the runner and the
    object engine's ``_issue_fast`` entry cost.

    The cells are only valid between a ``rebind`` and the next
    ``sync``:

    * ``rebind(until)`` loads the run-scoped state *into* the cells and
      must be called immediately before every ``sim.run`` (the chip's
      run methods do; ``until`` mirrors the bound ``sim.run`` will
      publish as ``_run_until``).  It also re-unpacks ``_l1_hot``,
      which ``reset_stats`` rebuilds at the warmup boundary.
    * ``sync()`` writes ``core._pending`` / ``core.ops_done`` back to
      the core attributes so diagnostics, the watchdog progress count
      and the warmup adjustment read the same fields as under the
      object engine.  The chip calls it at every observation boundary
      and before any watchdog callback.

    The flush closure adds the batched counters into the *current*
    stats objects and zeroes them; the chip calls it at every
    observation boundary.  ``close()`` finishes the core's chunk
    stream (:meth:`ArrayChip.release`); the runner cannot issue after
    it.
    """
    proto = chip.protocol
    sim = chip.sim
    queue = sim._queue  # never reassigned over a Simulator's lifetime
    tile = core.tile
    checker = proto.checker
    version_map = checker._version
    busy_get = proto._busy.get
    handle_read_miss = proto._handle_read_miss
    handle_write_miss = proto._handle_write_miss
    upgrade_local = proto._owner_upgrade_is_local
    o_unconditional = tables.o_upgrade_unconditional
    write_action = tables.write_action
    l1_hit_latency = tables.l1_hit_latency
    block_shift = tables.block_shift
    max_addr = tables.max_addr
    block_of = proto.addr.block_of
    l1_name = proto._l1_names[tile]
    I_state = L1State.I
    M_state = L1State.M
    SILENT = W_SILENT
    OWNER_CHECK = W_OWNER_CHECK
    chip_core_finished = chip._core_finished
    #: REPRO_FAST_PATH=0 keeps the one-event-per-op discipline of the
    #: reference path (no inline clock advance); stats are identical
    #: either way, only the event interleaving bookkeeping differs
    fast = chip.fast_path

    workload = chip.workload
    chunked = hasattr(workload, "trace_chunks")
    if chunked:
        chunks = workload.trace_chunks(tile)
        vm = workload.placement.vm_of(tile)
        table = workload.table
        translate = table.translate
        translate_write = table.translate_write
        cow_events = table.cow_events
        cow_seen = len(cow_events)
        tcache: dict = {}
        tcache_get = tcache.get
        page_shift = (
            workload.addr.page_offset_bits - workload.addr.block_offset_bits
        )
        trace = None
    else:
        # e.g. a recorded TraceFileWorkload: consume the core's MemOp
        # stream directly (no stage-a/stage-b split available)
        chunks = None
        trace = core._trace
        cow_seen = 0
    c_vpages = c_offs = c_writes = c_thinks = None
    # chunks vary in length (the first batch ramps up), so the runner
    # steps by each chunk's own length; c_pos == c_len forces a fetch
    c_pos = c_len = 0

    # run-scoped cells: loaded by rebind() at every run boundary,
    # written back by sync() at every observation boundary
    deadline: Optional[int] = None
    run_until: Optional[int] = None
    ops_target: Optional[int] = None
    done = False
    pending = None
    ops_done = 0
    set_mask = l1_index = l1_policies = l1_ways = None

    # batched monotonic counters (closure cells; zeroed by flush).
    # RunStats scalars:
    n_ops = n_reads = n_writes = n_retries = 0
    n_st_hits = n_st_misses = n_upgrades = 0
    # this tile's L1 CacheAccessStats:
    n_tag_reads = n_hits = n_misses = n_data_reads = n_data_writes = 0
    # checker tallies:
    n_reads_checked = n_commits = 0

    def rebind(until: Optional[int]) -> None:
        """Load the run-scoped state into the cells (see above)."""
        nonlocal deadline, run_until, ops_target, done, pending, ops_done
        nonlocal set_mask, l1_index, l1_policies, l1_ways
        deadline = chip.deadline
        run_until = until
        ops_target = core.ops_target
        done = core.done
        pending = core._pending
        ops_done = core.ops_done
        _, set_mask, l1_index, l1_policies, l1_ways = proto._l1_hot[tile]

    def sync() -> None:
        """Write the live cells back to the core attributes."""
        core._pending = pending
        core.ops_done = ops_done

    def runner() -> None:
        nonlocal c_pos, c_len, c_vpages, c_offs, c_writes, c_thinks, cow_seen
        nonlocal pending, ops_done, done
        nonlocal n_ops, n_reads, n_writes, n_retries
        nonlocal n_st_hits, n_st_misses, n_upgrades
        nonlocal n_tag_reads, n_hits, n_misses, n_data_reads, n_data_writes
        nonlocal n_reads_checked, n_commits
        if done:
            return
        now = sim._now
        for _ in range(_INLINE_OPS):
            if deadline is not None and now >= deadline:
                return
            if pending is None:
                if chunked:
                    i = c_pos
                    if i == c_len:
                        c_vpages, c_offs, c_writes, c_thinks = next(chunks)
                        c_len = len(c_vpages)
                        i = 0
                    c_pos = i + 1
                    vpage = c_vpages[i]
                    is_write = c_writes[i]
                    # stage b inline (mirrors ConsolidatedWorkload
                    # .trace): translation in consumption order
                    if is_write:
                        ppage = translate_write(vm, vpage)[0]
                    else:
                        if len(cow_events) != cow_seen:
                            tcache.clear()
                            cow_seen = len(cow_events)
                        ppage = tcache_get(vpage)
                        if ppage is None:
                            ppage = tcache[vpage] = translate(vm, vpage)
                    block = (ppage << page_shift) | c_offs[i]
                    think = c_thinks[i]
                else:
                    op = next(trace)
                    addr = op[0]
                    is_write = op[1]
                    think = op[2]
                    # mirrors the inlined block_of in access()
                    if 0 <= addr <= max_addr:
                        block = addr >> block_shift
                    else:
                        block = block_of(addr)
            else:
                block, is_write, think = pending
                pending = None
            # --- protocol.access, inline -------------------------
            busy_until = busy_get(block, 0)
            if busy_until > now:
                n_retries += 1
                pending = (block, is_write, think)
                # busy_until > now, so the object path's
                # max(retry_at, now + 1) is just busy_until
                heappush(queue, (busy_until, sim._seq, issue))
                sim._seq += 1
                return
            n_ops += 1
            if is_write:
                n_writes += 1
            else:
                n_reads += 1
            n_tag_reads += 1
            s = block & set_mask
            way = l1_index[s].get(block)
            if way is None:
                n_misses += 1
                line = None
            else:
                n_hits += 1
                stack = l1_policies[s]._stack
                if stack[0] != way:
                    stack.remove(way)
                    stack.insert(0, way)
                line = l1_ways[s][way][1]
            missed = False
            if line is not None and line.state is not I_state:
                if not is_write:
                    n_data_reads += 1
                    n_st_hits += 1
                    n_reads_checked += 1
                    if line.version != version_map[block]:
                        # mismatch: re-enter check_read for the
                        # usual violation message (it raises)
                        checker.check_read(
                            block, line.version, where=l1_name,
                            now=now, tile=tile,
                        )
                    latency = l1_hit_latency
                else:
                    act = write_action[line.state]
                    if act == SILENT or (
                        act == OWNER_CHECK
                        and line.sharers == 0
                        and not line.propos
                        and (
                            o_unconditional
                            or upgrade_local(block, line)
                        )
                    ):
                        # silent upgrade (charge_data_write +
                        # commit_write, inline)
                        n_data_writes += 1
                        n_st_hits += 1
                        n_upgrades += 1
                        line.state = M_state
                        line.dirty = True
                        v = version_map[block] + 1
                        version_map[block] = v
                        n_commits += 1
                        commit_log = checker._commit_log
                        if commit_log is not None:
                            commit_log.append(block)
                        line.version = v
                        latency = l1_hit_latency
                    else:
                        missed = True
                        latency, links, category = handle_write_miss(
                            tile, block, now, had_copy=True
                        )
            elif is_write:
                missed = True
                latency, links, category = handle_write_miss(
                    tile, block, now, had_copy=False
                )
            else:
                missed = True
                latency, links, category = handle_read_miss(
                    tile, block, now
                )
            if missed:
                n_st_misses += 1
                # inlined miss_latency/miss_links accumulators
                # (min/max state: not batchable, mirrored exactly)
                st = proto.stats
                acc = st.miss_latency
                if acc.count == 0:
                    acc.minimum = acc.maximum = latency
                elif latency < acc.minimum:
                    acc.minimum = latency
                elif latency > acc.maximum:
                    acc.maximum = latency
                acc.count += 1
                acc.total += latency
                acc = st.miss_links
                if acc.count == 0:
                    acc.minimum = acc.maximum = links
                elif links < acc.minimum:
                    acc.minimum = links
                elif links > acc.maximum:
                    acc.maximum = links
                acc.count += 1
                acc.total += links
                if category:
                    st.miss_categories[category] += 1
            # --- completion (mirrors _issue_fast) ----------------
            ops_done += 1
            if ops_target is not None and ops_done >= ops_target:
                done = True
                core.done = True
                chip_core_finished(now)
                return
            delay = latency + think
            t2 = now + (delay if delay > 1 else 1)
            if (
                not fast
                or (queue and queue[0][0] <= t2)
                or (run_until is not None and t2 > run_until)
            ):
                heappush(queue, (t2, sim._seq, issue))
                sim._seq += 1
                return
            sim._now = now = t2
        # inline budget exhausted; continue via an event at ``now``
        heappush(queue, (now, sim._seq, issue))
        sim._seq += 1

    issue = runner

    def flush() -> None:
        """Add the batched counters into the current stats and zero them."""
        nonlocal n_ops, n_reads, n_writes, n_retries
        nonlocal n_st_hits, n_st_misses, n_upgrades
        nonlocal n_tag_reads, n_hits, n_misses, n_data_reads, n_data_writes
        nonlocal n_reads_checked, n_commits
        st = proto.stats
        st.operations += n_ops
        st.reads += n_reads
        st.writes += n_writes
        st.retries += n_retries
        st.l1_hits += n_st_hits
        st.l1_misses += n_st_misses
        st.upgrades += n_upgrades
        l1stats = proto._l1_hot[tile][0]
        l1stats.tag_reads += n_tag_reads
        l1stats.hits += n_hits
        l1stats.misses += n_misses
        l1stats.data_reads += n_data_reads
        l1stats.data_writes += n_data_writes
        checker.reads_checked += n_reads_checked
        checker.writes_committed += n_commits
        n_ops = n_reads = n_writes = n_retries = 0
        n_st_hits = n_st_misses = n_upgrades = 0
        n_tag_reads = n_hits = n_misses = n_data_reads = n_data_writes = 0
        n_reads_checked = n_commits = 0

    def close() -> None:
        """Finish the chunk stream, freeing its batch arrays."""
        if chunks is not None:
            chunks.close()

    return runner, rebind, sync, flush, close


class ArrayChip(Chip):
    """A :class:`Chip` issuing through compiled array-engine runners."""

    engine = "array"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._simx_tables: Optional[ProtocolTables] = None
        self._flushes: list = []
        self._rebinds: list = []
        self._syncs: list = []
        self._closes: list = []
        self._armed = False

    def _arm(self) -> None:
        """Swap the cores onto compiled runners (idempotent).

        Deferred to run time so a tracer attached after construction is
        seen; when the compiled path cannot apply, the cores keep the
        object issue path — bit-identical statistics, no speedup.
        """
        if self._armed:
            return
        proto = self.protocol
        from ..core.protocols.registry import REGISTRY

        if (
            os.environ.get("REPRO_SIMX_COMPILED", "1") == "0"
            or proto._trace is not None
            or proto.network._detailed
            # a consolidation plan mutates placement/cores/page table
            # mid-run — the compiled runners cache all three, so fall
            # back to the object issue path (like tracer/detailed-NoC)
            or self.plan is not None
            # registry capability flag: new protocol families (bus
            # transport, directoryless LLC) have no compiled mirrors —
            # fall back to the object issue path transparently
            or not REGISTRY.supports_simx(type(proto))
        ):
            return
        tables = ProtocolTables(proto)
        self._simx_tables = tables
        install_fast_helpers(proto, tables)
        for cache in protocol_caches(proto):
            install_fast_cache_methods(cache)
        self._flushes = []
        self._rebinds = []
        self._syncs = []
        self._closes = []
        # compiled per-protocol miss handlers: instance-patched before
        # the runners are compiled, so make_runner binds them
        handler_flush = compile_protocol_handlers(proto, tables)
        if handler_flush is not None:
            self._flushes.append(handler_flush)
        for core in self.cores:
            core._issue, rebind, sync, flush, close = make_runner(
                self, core, tables
            )
            self._rebinds.append(rebind)
            self._syncs.append(sync)
            self._flushes.append(flush)
            self._closes.append(close)
        self._armed = True

    def _rebind_runners(self, until: Optional[int]) -> None:
        """Load every runner's run-scoped cells; call before ``sim.run``."""
        for rebind in self._rebinds:
            rebind(until)

    def _sync_runners(self) -> None:
        """Write every runner's live cells back to the core attributes."""
        for sync in self._syncs:
            sync()

    def _flush_runners(self) -> None:
        """Flush every core's batched counters into the live stats.

        Called at exactly the points where the object engine's running
        totals become observable: the warmup ``reset_stats`` boundary
        and the end of a run (including aborted runs — the ``finally``
        in the run methods — so post-mortem stats stay consistent).
        Syncs the per-core cells first so ``core.ops_done`` /
        ``core._pending`` are as current as the stats.
        """
        self._sync_runners()
        for flush in self._flushes:
            flush()

    def release(self) -> None:
        """Also finish the runners' chunk streams (see ``Chip.release``)."""
        for close in self._closes:
            close()
        super().release()

    # the watchdog holds bound references to these two (see
    # Chip._build_watchdog); the overrides sync the runner cells first
    # so progress sampling and livelock diagnostics see live values
    # even though the runners no longer write the attributes per call

    def _ops_retired(self) -> int:
        self._sync_runners()
        return super()._ops_retired()

    def _livelock_diagnostic(self) -> dict:
        self._sync_runners()
        return super()._livelock_diagnostic()

    def run_cycles(self, cycles: int, warmup: int = 0) -> RunStats:
        self._arm()
        if not self._armed:
            return super().run_cycles(cycles, warmup)
        # mirror of Chip.run_cycles with counter flushes at the two
        # observation boundaries
        self.deadline = warmup + cycles
        self._cores_running = sum(1 for c in self.cores if not c.done)
        for core in self.cores:
            core.start()
        try:
            if warmup:
                self._rebind_runners(warmup)
                self.sim.run(until=warmup)
                self._flush_runners()
                self.protocol.reset_stats()
                ops_at_warmup = [c.ops_done for c in self.cores]
            # rebind again: _l1_hot was rebuilt by reset_stats, and the
            # run window bound changed
            self._rebind_runners(warmup + cycles)
            self.sim.run(until=warmup + cycles)
        finally:
            self._flush_runners()
        if warmup:
            for c, base_ops in zip(self.cores, ops_at_warmup):
                c.ops_done -= base_ops
            self.protocol.stats.operations = sum(c.ops_done for c in self.cores)
        return self._finalize(cycles)

    def run_ops(self, ops_per_core: int) -> RunStats:
        self._arm()
        if not self._armed:
            return super().run_ops(ops_per_core)
        self._cores_running = len(self.cores)
        for core in self.cores:
            core.ops_target = ops_per_core
            core.start()
        self._rebind_runners(None)
        try:
            self.sim.run()
        finally:
            self._flush_runners()
        return self._finalize(self._finish_time or self.sim.now)
