"""Regenerate ``digests.json``: the outcome digests pinned per workload
at the default and held-out seeds.

The simulator's outputs are bit-identical across refactors by contract,
so the pins should only ever change with a deliberate change to the
simulated model.  Run from the repository root::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    PINNED,
    WORKLOADS,
    cold_start,
)


def main() -> int:
    pins: dict[str, dict[str, dict[str, str]]] = {}
    for name, cls in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            with tempfile.TemporaryDirectory() as tmp:
                workload = cls(seed, Path(tmp))
                workload.prepare()
                cold_start()
                inspection = workload.inspect(workload.run())
            bad = {op: found for op, found in inspection.problems.items() if found}
            if bad:
                print(f"{name} seed {seed}: refusing to pin unsound outputs: {bad}")
                return 1
            pins.setdefault(name, {})[str(seed)] = inspection.digests
            print(f"{name} seed {seed}: {len(inspection.digests)} digests")
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
