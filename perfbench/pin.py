"""Recompute the pinned cell digests for the default seed.

Run from the repository root when a change deliberately alters
simulated results, and say so in the change description::

    python3 perfbench/pin.py

Writes ``perfbench/pins.json``: one ``stats_sha256`` per cell of every
workload, keyed by the cell's spec fingerprint.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run as bench
    from perfbench import suite
    from perfbench.cells import DigestCheck, run_round

    bench._clear_env()
    cells = {}
    for w in suite.WORKLOADS.values():
        specs = suite.cell_specs(w, suite.DEFAULT_SEED)
        for spec, cell in zip(specs, run_round(specs, DigestCheck(None))):
            if cell.failure:
                print(f"{cell.label}: {cell.failure}", file=sys.stderr)
                return 1
            cells[spec.fingerprint()] = {"cell": f"{w.name}: {cell.label}",
                                         "stats_sha256": cell.digest}
    doc = {"seed": suite.DEFAULT_SEED, "cells": cells}
    bench.PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(cells)} cells in {bench.PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
