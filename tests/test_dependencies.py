"""The package imports what ``pyproject.toml`` declares, and nothing heavier."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "controkit"


def third_party_imports() -> set[str]:
    """Top-level names of every absolute import in the package that is
    neither the standard library nor the package itself."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "controkit"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower()
            for spec in project["dependencies"]}


def test_imports_match_declared_dependencies():
    # Each declared distribution here is imported under its own name.
    assert third_party_imports() == declared_dependencies() == {"numpy", "requests"}


def test_cli_import_loads_no_scipy():
    code = ("import sys, controkit, controkit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
