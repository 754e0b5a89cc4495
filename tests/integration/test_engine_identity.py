"""Array-engine bit-identity: the tentpole contract of the simx layer.

The array engine (``REPRO_ENGINE=array``) is a pure performance
substitution — same events, same RNG draws, same counters.  These
tests pin ``stats_to_dict`` equality against the object engine over
the full matrix of protocols × fast-path settings, pin the env-knob
plumbing through ``repro.api.simulate``, and property-test the
differential harness's engine pin over random fuzz traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.chip import PROTOCOLS
from repro.sim.config import small_test_chip
from repro.stats.io import stats_to_dict
from repro.sweep import RunSpec
from repro.sweep.spec import config_to_dict
from repro.verify.differential import default_config, pin_engines, run_trace
from repro.verify.fuzzer import Op

TINY = config_to_dict(small_test_chip())


def spec_for(protocol: str, **kwargs) -> RunSpec:
    defaults = dict(
        protocol=protocol,
        workload="mixed-sci",
        seed=7,
        cycles=4_000,
        warmup=1_000,
        config=TINY,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


@pytest.mark.parametrize("fast_path", ["0", "1"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_array_engine_is_bit_identical_to_object_engine(
    protocol, fast_path, monkeypatch
):
    # the identity matrix: every protocol, with the inline-draining
    # fast path both on and off, must produce byte-equal statistics
    monkeypatch.setenv("REPRO_FAST_PATH", fast_path)
    spec = spec_for(protocol)
    reference = spec.execute(engine="object")
    array = spec.execute(engine="array")
    assert stats_to_dict(array) == stats_to_dict(reference)


@pytest.mark.parametrize("protocol", ["mesi-snoop", "moesi-snoop", "dls"])
def test_array_engine_falls_back_for_uncompiled_families(protocol):
    # the registry capability flag gates arming: the new families have
    # no compiled mirrors, so ArrayChip must transparently keep the
    # object issue path — never arming, still bit-identical
    from repro.core.protocols.registry import REGISTRY
    from repro.sim.chip import PROTOCOLS
    from repro.simx.engine import ArrayChip
    from repro.sim.config import small_test_chip

    assert not REGISTRY.supports_simx(PROTOCOLS[protocol])
    chip = ArrayChip(protocol, "mixed-sci", config=small_test_chip(), seed=7)
    array = chip.run_cycles(3_000, warmup=500)
    assert not chip._armed
    assert chip._simx_tables is None
    reference = spec_for(protocol, cycles=3_000, warmup=500).execute(
        engine="object"
    )
    assert stats_to_dict(array) == stats_to_dict(reference)


def test_engine_env_knob_reaches_the_chip(monkeypatch):
    # REPRO_ENGINE=array via the environment must match an explicit
    # engine="array" — the knob the sweep workers inherit
    spec = spec_for("dico")
    explicit = spec.execute(engine="array")
    monkeypatch.setenv("REPRO_ENGINE", "array")
    via_env = spec.execute()
    assert stats_to_dict(via_env) == stats_to_dict(explicit)


def test_api_simulate_records_engine_in_manifest(tmp_path):
    from repro.api import simulate

    spec = spec_for("directory", cycles=1_500, warmup=500)
    result = simulate(
        spec, engine="array", manifest_path=tmp_path / "m_array.json",
    )
    assert result.manifest.engine == "array"
    default = simulate(
        spec, manifest_path=tmp_path / "m_obj.json",
    )
    assert default.manifest.engine == "object"


@pytest.mark.parametrize("engine", ["object", "array"])
def test_simulate_releases_trace_streams(engine, monkeypatch):
    # simulate() finishes every trace stream it started (the array
    # engine's chunk streams included) and drops the workload's region
    # caches before returning, without waiting for the cyclic GC
    from repro.api import simulate
    from repro.workloads.generator import ConsolidatedWorkload

    streams = []
    workloads = []
    for name in ("trace", "trace_chunks"):
        original = getattr(ConsolidatedWorkload, name)

        def record(self, tile, _original=original):
            workloads.append(self)
            stream = _original(self, tile)
            streams.append(stream)
            return stream

        monkeypatch.setattr(ConsolidatedWorkload, name, record)
    spec = spec_for("dico", cycles=1_500, warmup=500)
    first = simulate(spec, engine=engine).stats
    assert streams
    assert all(stream.gi_frame is None for stream in streams)
    for workload in workloads:
        assert not workload._region_cache
        assert not workload._zipf_cache
    # a released run leaves nothing behind that changes the next one
    again = simulate(spec, engine=engine).stats
    assert stats_to_dict(again) == stats_to_dict(first)


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="warp"):
        spec_for("directory").execute(engine="warp")


# --- differential-harness engine pin over random traces -------------------

_ops = st.lists(
    st.builds(
        Op,
        tile=st.integers(min_value=0, max_value=3),
        block=st.integers(min_value=0, max_value=31),
        is_write=st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=20, deadline=None)
@given(ops=_ops, protocol=st.sampled_from(sorted(PROTOCOLS)))
def test_fuzz_traces_replay_identically_on_both_engines(ops, protocol):
    # property: any trace the fuzzer could produce yields the same
    # checker verdict, commit stream and op count on both engines
    obj, arr, violation = pin_engines(ops, protocol, default_config())
    assert violation is None
    assert obj.versions == arr.versions
    assert obj.ops_executed == arr.ops_executed
    assert (obj.violation is None) == (arr.violation is None)


def test_engines_agree_even_on_a_broken_protocol():
    # the pin must hold for failures too: a seeded mutation fires the
    # same violation at the same op on both engines, so engine choice
    # can never mask or move a protocol bug
    from repro.verify.fuzzer import generate_ops
    from repro.verify.mutations import make_mutated_factory

    _, ops = generate_ops(3, 120, 4, scenario="racing-upgrades")
    factory = make_mutated_factory("dico-lost-commit")
    obj, arr, violation = pin_engines(
        ops, "dico", default_config(), seed=3, factory=factory
    )
    assert violation is None  # engines agree (on the failure)
    assert obj.violation is not None and arr.violation is not None
    assert obj.violation.kind == arr.violation.kind
    assert obj.violation.op_index == arr.violation.op_index


@settings(max_examples=10, deadline=None)
@given(ops=_ops)
def test_array_trace_commit_counts_match_write_totals(ops):
    # on the array engine alone, the commit-count oracle must hold:
    # run_trace raises a violation otherwise, so a clean result means
    # every write committed exactly once
    res = run_trace("dico-providers", ops, default_config(), engine="array")
    assert res.violation is None
    assert res.ops_executed == len(ops)
