"""The strict-typing ratchet: ``mypy --strict`` over the core allowlist.

The modules named in ``[tool.repro.typing-gate]`` in ``pyproject.toml``
must pass ``mypy --strict``.  The list can only grow: the founding
modules are hard-coded below, and removing one from pyproject fails the
gate even before mypy runs — a module that ratchets in can never
ratchet out.

The gate degrades gracefully where the tooling is absent: without mypy
installed it reports a skip and exits 0, so `make typecheck` works in
minimal environments.  CI passes ``--require`` to turn a missing mypy
into a hard failure, which is what makes the gate blocking.

Usage::

    python tools/typing_gate.py             # run (skip cleanly w/o mypy)
    python tools/typing_gate.py --require   # fail if mypy is missing
    python tools/typing_gate.py --list      # print the active allowlist
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Modules that have ratcheted in.  Append-only by policy: a pyproject
#: allowlist missing any of these fails the gate.  When a new module
#: passes --strict, add it to pyproject *and* here in the same commit.
FOUNDING_MODULES: frozenset[str] = frozenset(
    {
        "src/repro/units.py",
        "src/repro/accounting/spill.py",
        "src/repro/accounting/pricing.py",
        "src/repro/sim/events.py",
        "src/repro/sim/job.py",
        "src/repro/sim/swf.py",
        "src/repro/sim/workload.py",
        "src/repro/sim/metrics.py",
        "src/repro/sim/result_store.py",
        "src/repro/sim/sweep_service.py",
    }
)


def _parse_toml_allowlist(text: str) -> list[str] | None:
    """Extract ``strict-modules`` from the typing-gate table.

    Uses :mod:`tomllib` on 3.11+; on 3.10 falls back to a narrow
    regex over the one section this script owns (an array of plain
    string literals — no escapes, no nested tables).
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = None
    if tomllib is not None:
        data = tomllib.loads(text)
        section = data.get("tool", {}).get("repro", {}).get("typing-gate", {})
        modules = section.get("strict-modules")
        return list(modules) if modules is not None else None
    match = re.search(
        r"^\[tool\.repro\.typing-gate\]\s*$(?P<body>.*?)(?=^\[|\Z)",
        text,
        flags=re.MULTILINE | re.DOTALL,
    )
    if match is None:
        return None
    body = match.group("body")
    array = re.search(
        r"strict-modules\s*=\s*\[(?P<items>.*?)\]", body, flags=re.DOTALL
    )
    if array is None:
        return None
    return re.findall(r"\"([^\"]+)\"", array.group("items"))


def load_allowlist() -> list[str]:
    """Read, validate, and ratchet-check the pyproject allowlist."""
    if not PYPROJECT.is_file():
        raise SystemExit(f"typing gate: {PYPROJECT} not found")
    modules = _parse_toml_allowlist(PYPROJECT.read_text(encoding="utf-8"))
    if modules is None:
        raise SystemExit(
            "typing gate: pyproject.toml has no "
            "[tool.repro.typing-gate] strict-modules list"
        )
    problems: list[str] = []
    seen: set[str] = set()
    for module in modules:
        if module in seen:
            problems.append(f"duplicate entry: {module}")
        seen.add(module)
        if not (REPO_ROOT / module).is_file():
            problems.append(f"listed module does not exist: {module}")
    removed = sorted(FOUNDING_MODULES - seen)
    if removed:
        problems.append(
            "modules ratchet in and can never ratchet out; missing from "
            f"pyproject: {', '.join(removed)}"
        )
    if problems:
        for problem in problems:
            print(f"typing gate: {problem}", file=sys.stderr)
        raise SystemExit(1)
    return modules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail (exit 1) when mypy is not installed instead of skipping",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the active allowlist and exit",
    )
    args = parser.parse_args(argv)

    modules = load_allowlist()
    if args.list:
        for module in modules:
            marker = "founding" if module in FOUNDING_MODULES else "ratcheted-in"
            print(f"{module}  ({marker})")
        return 0

    if importlib.util.find_spec("mypy") is None:
        message = (
            "typing gate: mypy is not installed; "
            f"{len(modules)} allowlisted modules unchecked"
        )
        if args.require:
            print(message + " (--require: failing)", file=sys.stderr)
            return 1
        print(message + " (skipping; install the dev extra to run locally)")
        return 0

    env = dict(os.environ)
    env["MYPYPATH"] = str(REPO_ROOT / "src")
    command = [sys.executable, "-m", "mypy", "--strict", *modules]
    print("typing gate:", " ".join(command[1:]))
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    return completed.returncode


if __name__ == "__main__":
    raise SystemExit(main())
