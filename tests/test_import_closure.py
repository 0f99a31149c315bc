"""The simulator core imports only the standard library and numpy.

Every ``repro`` command, benchmark run and spawn/forkserver pool worker
imports the entry points below before it prices a job.  scipy (for the
user-study statistics) and networkx (for the graph apps) are imported
inside the functions that use them, and ``repro.experiments`` imports
no figure or table module, so that start-up stays cheap.

The imports run in a fresh interpreter.  A failure names each module
outside the boundary and the module that imported it, read from the
interpreter's ``-X importtime`` report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a spawned pool worker loads: the CLI, the simulator, the
#: accounting core and the sweep entry points.
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.sim",
    "repro.accounting",
    "repro.experiments",
    "repro.experiments._simulation",
    "repro.sim.sweep_service",
)

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}

_PROBE = f"""
import json, sys
before = dict(sys.modules)
import {", ".join(ENTRY_POINTS)}
# New names only; an alias of a loaded module (__mp_main__) is not new.
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name not in before and module not in before.values()
)))
"""


def _importers(report: str) -> dict[str, str]:
    """Each module of an ``-X importtime`` report -> its importer.

    The report lists a module after everything it imported, indented
    two spaces per level, so a module's importer is the next line that
    sits one level shallower.  The probe's own imports map to ``repro``.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        field = line.rsplit("|", 1)[1]
        name = field.strip()
        if name == "imported package":
            continue
        entries.append((len(field) - len(field.lstrip()), name))
    importers = {}
    for i, (depth, name) in enumerate(entries):
        outer = (other for d, other in entries[i + 1 :] if d < depth)
        importers[name] = next(outer, "repro")
    return importers


def _outside(name: str) -> bool:
    return name.partition(".")[0] not in ALLOWED


def test_entry_points_load_only_stdlib_numpy_and_repro():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    importers = _importers(proc.stderr)
    outside = [name for name in loaded if _outside(name)]
    # Where each outside package was entered from inside the boundary.
    entered: dict[str, set[str]] = {}
    for name in outside:
        importer = importers.get(name)
        if importer is not None and not _outside(importer):
            entered.setdefault(name.partition(".")[0], set()).add(importer)
    named = [
        f"{package} (imported by {', '.join(sorted(by))})"
        for package, by in sorted(entered.items())
    ]
    assert not outside, "outside the import boundary: " + ", ".join(named or outside)
    figures = [
        name
        for name in loaded
        if name.startswith(("repro.experiments.fig", "repro.experiments.table"))
    ]
    assert not figures, "figure/table modules loaded: " + ", ".join(figures)
    assert "repro.sim.sweep_service" in loaded
