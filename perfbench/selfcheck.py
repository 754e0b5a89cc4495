"""A/A and sensitivity self-checks of the benchmark.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py aa            # writes perfbench/AA_RESULT.json
    python3 perfbench/selfcheck.py sensitivity   # writes perfbench/SENSITIVITY_RESULT.json

Every run is ``run.py`` on a workload of ``BENCHMARK.json`` at its
``run_seconds``.

``aa`` runs two sets of the same code on every workload, interleaved
(A1 B1 B2 A2 A3 B3 ...), set A on seeds 1..5 and set B on seeds
6..10. For each end-to-end metric it reports each set's median and
quartiles and whether the two medians agree within the metric's bound
in ``BENCHMARK.json``. It also reports the interquartile spread of all
2n runs as a share of their median, against a third of the bound.

``sensitivity`` busy-waits around ``CoherenceProtocol.access`` in the
in-process cells (``run.py --inject-access-wait-ns``). The wait is sized
from a calibration run, so that ``sim_ops_per_s`` drops by 1.3 times its
bound. On every ``sim-*`` workload, the injected runs must be flagged as
a regression: their median is worse than the baseline median by more
than the bound.  The baseline is the calibration run plus three
untraced runs, each paired with an injected run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
RUNS_PER_SET = 5
PAIRS = 3


def bench(workload: str, seed: int, extra=()) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed={seed} {' '.join(extra)} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def provenance() -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import provenance as prov

    return prov({})


def aa() -> dict:
    doc = {"mode": "aa", "seconds": SECONDS, "runs_per_set": RUNS_PER_SET,
           "provenance": provenance(), "workloads": {}}
    all_ok = True
    for workload in WORKLOADS:
        sets = {"a": [], "b": []}
        for i in range(RUNS_PER_SET):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for name in order:
                seed = 1 + i + (RUNS_PER_SET if name == "b" else 0)
                sets[name].append(bench(workload, seed))
        metrics = {}
        for name, spec in BOUNDS.items():
            a = [r["metrics"][name]["value"] for r in sets["a"]]
            b = [r["metrics"][name]["value"] for r in sets["b"]]
            sa, sb = summary(a), summary(b)
            together = summary(a + b)
            spread = (together["q3"] - together["q1"]) / together["median"]
            shift = (sb["median"] - sa["median"]) / sa["median"]
            agree = abs(shift) <= spec["bound"]
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "a": sa, "b": sb,
                "median_shift": shift, "agree": agree,
                "spread_all": spread,
                "spread_below_third_of_bound": spread <= spec["bound"] / 3,
            }
            all_ok &= agree and all(r["correct"] for r in sets["a"] + sets["b"])
        doc["workloads"][workload] = {
            "seeds_a": [1 + i for i in range(RUNS_PER_SET)],
            "seeds_b": [1 + RUNS_PER_SET + i for i in range(RUNS_PER_SET)],
            "all_correct": all(r["correct"] for r in sets["a"] + sets["b"]),
            "metrics": metrics,
        }
    doc["all_agree"] = all_ok
    return doc


def sensitivity() -> dict:
    bound = BOUNDS["sim_ops_per_s"]["bound"]
    drop = 1.3 * bound
    doc = {"mode": "sensitivity", "seconds": SECONDS, "bound": bound,
           "target_drop": drop, "provenance": provenance(), "workloads": {}}
    flagged_all = True
    for workload in ("sim-com", "sim-sci"):
        calib = bench(workload, 1)
        rate = calib["metrics"]["sim_ops_per_s"]["value"]
        # n ops take n/rate host s; n waits of w add drop/(1-drop) of it
        wait_ns = int(drop / (1 - drop) / rate * 1e9)
        extra = ("--inject-access-wait-ns", str(wait_ns))
        base, slow = [rate], []
        for i in range(PAIRS):
            seed = 2 + i
            order = (False, True) if i % 2 == 0 else (True, False)
            for injected in order:
                result = bench(workload, seed, extra if injected else ())
                value = result["metrics"]["sim_ops_per_s"]["value"]
                (slow if injected else base).append(value)
        mb, ms = statistics.median(base), statistics.median(slow)
        flagged = ms < mb * (1 - bound)
        flagged_all &= flagged
        doc["workloads"][workload] = {
            "wait_ns_per_access": wait_ns,
            "baseline": base, "injected": slow,
            "baseline_median": mb, "injected_median": ms,
            "measured_drop": 1 - ms / mb, "flagged": flagged,
        }
    doc["all_flagged"] = flagged_all
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("aa", "sensitivity"))
    mode = parser.parse_args(argv).mode
    start = time.time()
    doc = aa() if mode == "aa" else sensitivity()
    doc["wall_s"] = time.time() - start
    text = json.dumps(doc, indent=1)
    out = "AA_RESULT.json" if mode == "aa" else "SENSITIVITY_RESULT.json"
    (ROOT / "perfbench" / out).write_text(text + "\n")
    print(text)
    ok = doc["all_agree"] if mode == "aa" else doc["all_flagged"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
