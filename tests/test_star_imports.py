"""Every ``repro`` module's ``__all__`` names only what the module has.

``from module import *`` raises ``AttributeError`` on the first listed
name the module neither defines nor imports.  Each module is
star-imported into its own namespace; a failure names the module and
the missing attribute.
"""

from __future__ import annotations

import pkgutil

import repro


def test_every_module_star_imports():
    failures = []
    modules = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    for module in sorted(info.name for info in modules):
        try:
            exec(f"from {module} import *", {})
        except AttributeError as exc:
            failures.append(f"{module}: {exc.name or exc}")
    assert not failures, "star-import failed: " + "; ".join(failures)
