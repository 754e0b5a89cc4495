"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-com --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (from an untraced and a traced pass over the same
work).  End-to-end times are scaled to the reference host
(``perfbench/hostspeed.py``).  Every metric is printed by name with its
unit; the last line of standard output is the JSON result.  The full report (provenance,
per-cell timings, digest checks) is written under ``.bench_out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pins.json"

#: variables that select a code path; cleared for everything the
#: benchmark runs, and recorded as found
ENV_PREFIX = "REPRO_"


def _clear_env() -> dict:
    found = {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)}
    for key in found:
        del os.environ[key]
    return found


def _git(*args: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=20, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance(env_found: dict) -> dict:
    from repro.simx import resolve_engine
    from repro.sweep.cache import code_fingerprint

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": rev.strip() if rev else "unknown",
        "dirty": None if status is None else bool(status.strip()),
        "code_sha256": code_fingerprint(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "engine": resolve_engine(),
        "env_cleared": env_found,
    }


#: fresh interpreters timed for ``import repro``
IMPORT_SAMPLES = 3


def import_samples() -> list:
    """Seconds for ``import repro`` in fresh interpreters (warm pyc)."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return samples


def load_pins() -> dict:
    with open(PINS) as fh:
        cells = json.load(fh)["cells"]
    return {fp: pin["stats_sha256"] for fp, pin in cells.items()}


def quantile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# one run


def run(args) -> dict:
    from perfbench import cells as cellmod
    from perfbench import grid, hostspeed, suite
    from perfbench.spans import SpanRecorder

    w = suite.WORKLOADS[args.workload]
    seed = args.seed
    seconds = args.seconds
    workdir = OUT_DIR / f"work-{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    nproc = os.cpu_count() or 1
    report: dict = {"workload": w.name, "seed": seed, "seconds": seconds,
                    "trace": args.trace}
    phase = report["phase_s"] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase[name] = now - mark
        mark = now

    try:
        with hostspeed.Probe() as probe:
            report["import_s"] = imports = import_samples()
        import_scale = probe.factor
        lap("import")
        specs = suite.cell_specs(w, seed)
        pins = None
        if seed == suite.DEFAULT_SEED:
            pins = load_pins()
        check = cellmod.DigestCheck(pins)
        rec = SpanRecorder() if args.trace else None
        wait_s = args.inject_access_wait_ns * 1e-9
        points = suite.point_specs(
            w, seed, suite.distinct_points(suite.JOBS_PER_TENANT))
        tenant_jobs = suite.serve_jobs(suite.JOBS_PER_TENANT)
        refs = grid.reference_digests(points)
        # warm-up: the sweep workers' first imports are not timed
        grid.run_sweep(points[:nproc], nproc, workdir / "warmup", refs,
                       grid.sweep_totals())
        lap("references")

        rounds: list = []
        traced_rounds: list = []
        #: host s of the traced part of each cycle, timed outside the
        #: recorder so that the span accounting can be checked against it
        traced_wall = 0.0
        sweep = grid.sweep_totals()
        serve = grid.serve_totals()
        start = time.perf_counter()
        cycle = 0
        # cycles until --seconds have passed: the next one is started
        # only if it is expected to end in time (the first always is)
        while cycle == 0 or (time.perf_counter() - start) * (cycle + 1) / cycle <= seconds:
            rounds.append(cellmod.run_round(
                specs, check, inject_wait_s=wait_s, audit=not rounds))
            traced_start = time.perf_counter()
            with rec.span("bench") if rec is not None else nullcontext():
                if rec is not None:
                    traced_rounds.append(cellmod.run_round(specs, check, rec=rec))
                grid.run_sweep(points, nproc, workdir / f"sweep-{cycle}", refs,
                               sweep, rec)
                grid.run_serve(ROOT, points, tenant_jobs, nproc,
                               workdir / f"serve-{cycle}", refs, serve, rec)
            traced_wall += time.perf_counter() - traced_start
            cycle += 1
        lap("cycles")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_cells = [c for r in rounds + traced_rounds for c in r]
    failures = [f"{c.label}: {c.failure}" for c in all_cells if c.failure]
    failures += sweep["failures"] + serve["failures"]
    attempted = len(all_cells) + sweep["attempted"] + serve["attempted"]
    failed = (
        sum(1 for c in all_cells if c.failure) + sweep["failed"] + serve["failed"]
    )
    kernel_s = [k for r in rounds for c in r for k in c.kernel_s]
    # the cells are scaled stretch by stretch; their chip builds (this
    # process too) by the cells' median kernel time
    build_scale = hostspeed.factor(kernel_s)
    report.update(
        rounds=len(rounds),
        traced_rounds=len(traced_rounds),
        traced_wall_s=traced_wall if rec is not None else None,
        host_factor=build_scale,
        import_factor=import_scale,
        kernel_samples=len(kernel_s),
        cells=[
            {"label": c.label, "cores": c.cores, "ops": c.ops,
             "window_ops": c.window_ops,
             "digest": c.digest,
             "traced_digests": [r[i].digest for r in traced_rounds],
             "run_s": [r[i].run_s for r in rounds],
             "scaled_s": [r[i].scaled_s for r in rounds],
             "build_s": [r[i].build_s for r in rounds]}
            for i, c in enumerate(rounds[0])
        ],
        sweep={k: v for k, v in sweep.items() if k != "failures"},
        serve={k: v for k, v in serve.items()
               if k not in ("failures", "latency_s", "scaled_latency_s",
                            "submit_s", "executed")},
        latency_samples=len(serve["latency_s"]),
        failures=failures,
    )

    # per-cell median time, so one slow round does not move the rate
    n_cells = len(specs)
    median_scaled = [
        statistics.median(r[i].scaled_s for r in rounds) for i in range(n_cells)
    ]
    ops = [rounds[0][i].ops for i in range(n_cells)]
    build = statistics.median(sum(c.build_s for c in r) for r in rounds)
    daemon_start = statistics.median(serve["start_s"])
    latency = serve["scaled_latency_s"]
    process_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics: dict = {}
    if not args.trace:
        metrics = {
            "sim_ops_per_s": (sum(ops) / sum(median_scaled), "1/s"),
            "setup_s": (
                statistics.median(imports) * import_scale + build * build_scale
                + statistics.median(serve["scaled_start_s"]), "s"),
            "peak_rss_mb": (process_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "sweep_points_per_s": (
                statistics.median(sweep["scaled_rates"]), "1/s"),
            "serve_points_per_s": (
                statistics.median(serve["scaled_rates"]), "1/s"),
            "serve_latency_p50_ms": (quantile(latency, 0.5) * 1e3, "ms"),
            "serve_latency_p90_ms": (quantile(latency, 0.9) * 1e3, "ms"),
        }
    else:
        metrics = layer_metrics(
            rec, rounds, traced_rounds, traced_wall, median_scaled, ops,
            imports, build, daemon_start, sweep, serve, nproc,
        )
        metrics["sim.peak_rss_mb"] = (process_rss_mb, "MB")
        metrics["serve.peak_rss_mb"] = (serve["peak_rss"] / 2**20, "MB")
        rec.dump(str(OUT_DIR / f"spans-{w.name}-seed{seed}.json"))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
        "report": report,
    }


def layer_metrics(
    rec, rounds, traced_rounds, traced_wall, median_scaled, ops, imports,
    build, daemon_start, sweep, serve, nproc,
) -> dict:
    """Per-layer metrics, in host seconds (not scaled) but for the
    per-protocol rates, which come from the scaled untraced cells."""
    from perfbench import suite

    traced_cells = [c for r in traced_rounds for c in r]
    untraced_cells = [c for r in rounds for c in r]
    cell_ops = sum(c.ops for c in traced_cells)
    wl_calls = rec.calls("workloads")
    access = rec.access
    calls_all = rec.calls("core.protocols")
    l1_refs = sum(c.l1_hits + c.l1_misses for c in traced_cells)
    l2_refs = sum(c.l2_hits + c.l2_misses for c in traced_cells)
    layer_self = {name: a[2] for name, a in rec.agg.items() if name != "bench"}
    executed = serve["executed"]

    def ns(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    def p50_ms(values):
        return quantile(values, 0.5) * 1e3 if values else 0.0

    metrics = {
        "workloads.self_s": (rec.self_s("workloads"), "s"),
        "workloads.ops": (wl_calls, "count"),
        "workloads.ns_per_op": (ns(rec.self_s("workloads"), wl_calls), "ns"),
        "sim.self_s": (rec.self_s("sim"), "s"),
        "sim.ns_per_op": (ns(rec.self_s("sim"), cell_ops), "ns"),
        "sim.build_s": (build, "s"),
        "repro.import_s": (statistics.median(imports), "s"),
        "core.protocols.self_s": (rec.self_s("core.protocols"), "s"),
        "core.protocols.access_calls": (calls_all, "count"),
        "core.protocols.hit_ns": (ns(access["hit_s"], access["hits"]), "ns"),
        "core.protocols.miss_ns": (ns(access["miss_s"], access["misses"]), "ns"),
        "core.protocols.retry_ratio": (
            access["retries"] / calls_all if calls_all else 0.0, "ratio"),
    }
    for i, protocol in enumerate(suite.PROTOCOLS):
        metrics[f"core.protocols.{protocol}.ops_per_s"] = (
            ops[i] / median_scaled[i], "1/s")
    metrics.update({
        "cache.self_s": (rec.self_s("cache"), "s"),
        "cache.calls": (rec.calls("cache"), "count"),
        "cache.ns_per_call": (ns(rec.self_s("cache"), rec.calls("cache")), "ns"),
        "cache.l1_miss_rate": (
            sum(c.l1_misses for c in traced_cells) / l1_refs if l1_refs else 0.0,
            "ratio"),
        "cache.l2_miss_rate": (
            sum(c.l2_misses for c in traced_cells) / l2_refs if l2_refs else 0.0,
            "ratio"),
        "noc.self_s": (rec.self_s("noc"), "s"),
        "noc.calls": (rec.calls("noc"), "count"),
        "noc.flits_per_op": (
            sum(c.flits for c in traced_cells)
            / max(1, sum(c.window_ops for c in traced_cells)), "count"),
        "mem.self_s": (rec.self_s("mem"), "s"),
        "mem.calls": (rec.calls("mem"), "count"),
        "sweep.executed": (sweep["executed"], "count"),
        "sweep.sim_s": (sweep["sim_s"], "s"),
        "sweep.parallel_efficiency": (
            sweep["sim_s"] / (sum(sweep["walls"]) * nproc), "ratio"),
        "serve.start_s": (daemon_start, "s"),
        "serve.submit_ms_p50": (p50_ms(serve["submit_s"]), "ms"),
        "serve.exec_ms_p50": (p50_ms([e for e, _ in executed]), "ms"),
        "serve.overhead_ms_p50": (p50_ms([lat - e for e, lat in executed]), "ms"),
        "serve.hit_ratio": (
            (serve["hits"] + serve["dedup"]) / max(1, serve["daemon_points"]),
            "ratio"),
        "serve.retries": (serve["retries"], "count"),
        "serve.rejected": (serve["rejected"], "count"),
        "bench.trace_overhead": (
            sum(c.run_s for c in traced_cells)
            / sum(c.run_s for c in untraced_cells), "ratio"),
        "bench.unattributed_s": (traced_wall - sum(layer_self.values()), "s"),
    })
    return metrics


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # sensitivity self-check only: busy-wait this long around every
    # CoherenceProtocol.access of the in-process cells
    parser.add_argument("--inject-access-wait-ns", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_found = _clear_env()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wall = time.perf_counter()
    result = run(args)
    report = result.pop("report")
    report["provenance"] = provenance(env_found)
    report["wall_s"] = time.perf_counter() - wall
    report.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"])
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} latency_samples={report['latency_samples']} "
          f"rev={report['provenance']['git_rev'][:12]} "
          f"dirty={report['provenance']['dirty']} report={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
