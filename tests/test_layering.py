"""The package layering rule: offline packages do not import the serving edge.

``core``, ``netsim``, ``service``, ``engine``, ``scenarios``, ``chaos``
and ``analysis`` sit below ``repro.server`` and ``repro.gateway``.  The
scan reads every module with :mod:`ast`, so imports inside functions and
``TYPE_CHECKING`` blocks count too.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
OFFLINE_PACKAGES = ("core", "netsim", "service", "engine", "scenarios", "chaos", "analysis")
SERVING_PACKAGES = ("repro.server", "repro.gateway")

#: ``(module path, imported module)`` pairs allowed for good: the top-level
#: dispatcher routes to the serving command tree, and the ``queries-live``
#: workload runs a live daemon.
PERMANENT = {
    ("analysis/cli.py", "repro.server.cli"),
    ("engine/kernel.py", "repro.server.live"),
}
#: Offline callers of the serving store, allowed until the store moves
#: below them (ROADMAP item 16).
UNTIL_ITEM_16 = {
    ("chaos/oracle.py", "repro.server.sharding"),
    ("engine/kernel.py", "repro.server.sharding"),
    ("service/workload.py", "repro.server.sharding"),
}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                raise AssertionError("relative imports are not used in this package")
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _serving_imports():
    found = set()
    for package in OFFLINE_PACKAGES:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            relative = path.relative_to(PACKAGE_ROOT).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in _imported_modules(tree):
                if any(
                    module == serving or module.startswith(serving + ".")
                    for serving in SERVING_PACKAGES
                ):
                    found.add((relative, module))
    return found


def _allowed(relative: str, module: str) -> bool:
    # ``from repro.server.live import X`` also yields ``repro.server.live.X``.
    return any(
        relative == path and (module == allowed or module.startswith(allowed + "."))
        for path, allowed in PERMANENT | UNTIL_ITEM_16
    )


def test_offline_packages_do_not_import_the_serving_edge():
    violations = sorted(
        (relative, module)
        for relative, module in _serving_imports()
        if not _allowed(relative, module)
    )
    assert violations == []


def test_every_exception_is_still_needed():
    found = _serving_imports()
    stale = sorted((PERMANENT | UNTIL_ITEM_16) - found)
    assert stale == [], "drop exceptions that no longer match an import"


@pytest.mark.parametrize("command", ["serve-daemon", "gateway"])
def test_serving_help_imports_no_gateway_module(command):
    """Dispatching a serving command loads the gateway only to run it."""
    probe = (
        "import sys\n"
        "from repro.analysis.cli import main\n"
        "try:\n"
        f"    main([{command!r}, '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.gateway')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)},
    )
    assert done.stdout.strip().splitlines()[-1] == "[]"
