"""Tiny-size smoke runs of every benchmark workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(a few minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] >= 1
    return result


def report_of(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"report-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = result_of(run_bench(workload, trace=0))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    # seed 2 has no pinned digests: the traced rounds are checked
    # against the untraced rounds of the same run
    seed = 2
    result = result_of(run_bench(workload, trace=1, seed=seed))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared

    report = report_of(workload, seed, 1)
    for cell in report["cells"]:
        assert cell["traced_digests"], cell["label"]
        assert set(cell["traced_digests"]) == {cell["digest"]}, cell["label"]

    spans = json.loads(
        (ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json").read_text()
    )
    agg = spans["aggregate"]
    layers = {name: a for name, a in agg.items() if name != "bench"}
    for name in ("workloads", "sim", "core.protocols", "cache", "noc", "sweep", "serve"):
        assert layers[name]["calls"] > 0, name
    assert all(a["self_s"] >= -1e-9 for a in layers.values())

    # every layer span opens inside a traced cycle's ``bench`` span
    cycles = report["traced_rounds"]
    assert spans["roots"] == {"bench": cycles}

    # each boundary is wrapped exactly once: one ``sim`` span per traced
    # cell, one sweep and serve session per cycle, one trace pull per
    # committed op plus at most one fetched op per core, and one
    # non-retried access per committed op
    cells = report["cells"]
    assert layers["sim"]["calls"] == len(cells) * cycles
    for name in ("sweep", "serve", "serve.start"):
        assert layers[name]["calls"] == cycles, name
    ops = sum(c["ops"] for c in cells) * cycles
    slack = sum(c["cores"] for c in cells) * cycles
    assert ops <= layers["workloads"]["calls"] <= ops + slack
    assert spans["access"]["hits"] + spans["access"]["misses"] == ops

    # the layers' self times plus the bench span's own self time add up
    # to the traced wall time measured outside the recorder
    wall = report["traced_wall_s"]
    bench_self = agg["bench"]["self_s"]
    total = sum(a["self_s"] for a in layers.values()) + bench_self
    assert total == pytest.approx(wall, rel=1e-3, abs=1e-3 * cycles)
    unattributed = result["metrics"]["bench.unattributed_s"]["value"]
    assert unattributed == pytest.approx(bench_self, rel=1e-3, abs=1e-3 * cycles)
    assert unattributed > 0
    assert result["metrics"]["bench.trace_overhead"]["value"] > 0


def test_stepped_cell_keeps_results_and_scales_by_kernel():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import hostspeed, suite
    from perfbench.cells import DigestCheck, run_cell
    from perfbench.run import load_pins

    spec = suite.cell_specs(suite.WORKLOADS["sim-sci"], suite.DEFAULT_SEED)[-1]
    cell = run_cell(spec, DigestCheck(load_pins()))
    assert cell.failure is None
    # each stretch is scaled by the kernel time right after it
    ks = cell.kernel_s
    assert len(ks) >= 2
    ref = hostspeed.REFERENCE_S
    assert cell.run_s * ref / max(ks) <= cell.scaled_s <= cell.run_s * ref / min(ks)


def test_fails_without_the_simulator(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
