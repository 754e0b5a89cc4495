"""Unit tests for the synthetic trace generator."""

import hashlib
import itertools

import pytest

from repro.core.area import AreaMap
from repro.mem.address import AddressMap
from repro.workloads.generator import ConsolidatedWorkload
from repro.workloads.placement import VMPlacement


@pytest.fixture
def setup():
    areas = AreaMap(4, 4, 4)
    placement = VMPlacement.area_aligned(areas, 4)
    am = AddressMap(n_tiles=16)
    return placement, am


def make(setup, name="apache", seed=0, os_pages=10):
    placement, am = setup
    return ConsolidatedWorkload(name, placement, am, seed=seed, os_pages=os_pages)


def test_trace_is_deterministic(setup):
    a = make(setup, seed=7)
    b = make(setup, seed=7)
    ops_a = list(itertools.islice(a.trace(3), 500))
    ops_b = list(itertools.islice(b.trace(3), 500))
    assert ops_a == ops_b


def test_different_seeds_differ(setup):
    a = make(setup, seed=1)
    b = make(setup, seed=2)
    ops_a = [o.addr for o in itertools.islice(a.trace(3), 200)]
    ops_b = [o.addr for o in itertools.islice(b.trace(3), 200)]
    assert ops_a != ops_b


def test_addresses_are_valid_and_mapped(setup):
    placement, am = setup
    w = make(setup)
    for tile in (0, 5, 15):
        for op in itertools.islice(w.trace(tile), 300):
            assert 0 <= op.addr <= am.max_address
            assert op.addr % am.block_bytes == 0
            assert op.think >= 1


def test_dedup_saving_matches_spec_prediction(setup):
    # without OS pages the measured ratio equals the spec's closed form
    w = make(setup, "apache", os_pages=0)
    spec = w.spec_by_vm[0]
    expected = spec.expected_dedup_saving(threads_per_vm=4, n_vms=4)  # os_pages=0
    assert w.dedup_saving == pytest.approx(expected, abs=1e-9)


def test_os_pages_raise_dedup_savings(setup):
    without = make(setup, "apache", os_pages=0)
    with_os = make(setup, "apache", os_pages=10)
    assert with_os.dedup_saving > without.dedup_saving


def test_mixed_workloads_share_os_pages(setup):
    """The paper's heterogeneous mixes still save ~15% via the guest
    OS pages, identical across all VMs."""
    w = make(setup, "mixed-sci", os_pages=10)
    assert w.dedup_saving > 0.05


def test_vms_share_dedup_frames_but_not_private(setup):
    placement, am = setup
    w = make(setup, "lu")
    addrs_by_vm = {}
    for vm, tile in ((0, 0), (1, 2)):
        addrs = {
            am.page_of(op.addr)
            for op in itertools.islice(w.trace(tile), 4000)
        }
        addrs_by_vm[vm] = addrs
    shared_pages = addrs_by_vm[0] & addrs_by_vm[1]
    # deduplicated physical pages appear in both VMs' streams
    assert shared_pages, "expected cross-VM deduplicated pages"
    for p in shared_pages:
        assert w.table.is_deduplicated_ppage(p)


def test_writes_to_dedup_pages_trigger_cow(setup):
    placement, am = setup
    w = make(setup, "apache")  # write_dedup = 0.001
    drained = 0
    for tile in placement.tiles_used:
        for _ in itertools.islice(w.trace(tile), 3000):
            drained += 1
        if w.cow_breaks:
            break
    assert w.cow_breaks >= 1


def test_temporal_locality_present(setup):
    """The reuse window must produce a hit rate well above the
    footprint-uniform baseline."""
    w = make(setup, "apache")
    from collections import OrderedDict

    cache: OrderedDict = OrderedDict()
    hits = 0
    n = 5000
    for op in itertools.islice(w.trace(0), n):
        b = op.addr >> 6
        if b in cache:
            hits += 1
            cache.move_to_end(b)
        else:
            cache[b] = True
            if len(cache) > 256:
                cache.popitem(last=False)
    assert hits / n > 0.6


def test_mixed_workload_assigns_specs_per_vm(setup):
    w = make(setup, "mixed-com")
    assert w.spec_by_vm[0].name == "apache"
    assert w.spec_by_vm[2].name == "jbb"
    # apache VMs deduplicate among themselves only
    assert w.dedup_saving > 0


def test_single_vm_of_a_benchmark_has_no_dedup():
    areas = AreaMap(4, 4, 4)
    placement = VMPlacement({0: areas.tiles_of(0)})
    am = AddressMap(n_tiles=16)
    w = ConsolidatedWorkload("apache", placement, am, seed=0, os_pages=0)
    assert w.dedup_saving == 0.0
    # but the trace still works
    ops = list(itertools.islice(w.trace(0), 100))
    assert len(ops) == 100


def test_write_fractions_roughly_respected(setup):
    w = make(setup, "radix")
    ops = list(itertools.islice(w.trace(0), 8000))
    write_frac = sum(o.is_write for o in ops) / len(ops)
    # radix: ~0.3 private / 0.12 shared weighted -> ~0.2 overall
    assert 0.1 < write_frac < 0.35


#: sha256 of the first 9,000 ops of ``trace(first tile of each VM)``
#: (seed 1, paper-scaled chip).  9,000 ops cross the ramped first batch
#: and two 4,096-op batch boundaries, far past the few hundred ops per
#: core that the benchmark's stats digests reach.
GOLDEN_STREAMS = {
    "mixed-com": {
        0: "2944c189370b19ea6530d96fdc6bede35b75029dd096dbf67f259a65ddbb83b4",
        4: "f6ae50f428698759ee8dec963198aa8a103d11d64e4af239986336ba825a6697",
        32: "a0cf7773d13d924e6d6d0f255290a302f800f77fa8a768365e5e904e96871669",
        36: "7419f42ebed3e3926bfdba821228b8f6c8909b16e38fa58e7befc726648512d4",
    },
    "mixed-sci": {
        0: "ade8473a155123703e5ac0f027d6d5ac1632a3b6221bbdc159858d8c4adec2c1",
        4: "3832935198b43fa2dabc8f2a6a45f12306d20058949a8214e72eabf50f7d0ff2",
        32: "043af41f65de728a8b4c1d1dc969600abfb9c62f041af3cb19efadf29f43928f",
        36: "f9f687a0af2411129cbf519b5b2f0736adee89d47a98db5a31209fd63769dc6f",
    },
}


def _paper_scaled_workload(mix):
    from repro.sim.chip import paper_scaled_chip

    cfg = paper_scaled_chip()
    areas = AreaMap(cfg.mesh_width, cfg.mesh_height, cfg.n_areas)
    am = AddressMap(
        phys_addr_bits=cfg.phys_addr_bits,
        block_bytes=cfg.block_bytes,
        page_bytes=cfg.memory.page_bytes,
        n_tiles=cfg.n_tiles,
    )
    placement = VMPlacement.area_aligned(areas, 4)
    return ConsolidatedWorkload(mix, placement, am, seed=1)


@pytest.mark.parametrize("mix", sorted(GOLDEN_STREAMS))
def test_trace_stream_matches_golden(mix):
    w = _paper_scaled_workload(mix)
    got = {}
    for vm in w.placement.vms:
        tile = w.placement.tiles_of(vm)[0]
        h = hashlib.sha256()
        for op in itertools.islice(w.trace(tile), 9000):
            h.update(b"%d %d %d\n" % (op.addr, op.is_write, op.think))
        got[tile] = h.hexdigest()
    assert got == GOLDEN_STREAMS[mix]


def test_first_batch_ramps_its_chunks(setup):
    from repro.workloads.generator import _BATCH, _CHUNK

    chunks = make(setup, "apache").trace_chunks(3)
    lengths = [len(next(chunks)[0]) for _ in range(13)]
    first_batch = [32, 32, 64, 128, 256] + [_CHUNK] * 7
    assert lengths[:12] == first_batch
    assert sum(first_batch) == _BATCH
    # later batches are plain _CHUNK-op chunks
    assert lengths[12] == _CHUNK
