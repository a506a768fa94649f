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


# Only `crawl` needs the HTTP stack and the fixture server; the CLI imports them
# when that command runs.
NOT_LOADED_BY_CLI = ("scipy", "requests", "ssl", "urllib3", "charset_normalizer", "http.server",
                     "controkit.crawl", "controkit.fixture_wiki")


def test_cli_import_loads_no_scipy():
    code = ("import sys, controkit, controkit.cli; "
            f"print(sorted(m for m in sys.modules for n in {NOT_LOADED_BY_CLI!r} "
            "if m == n or m.startswith(n + '.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Public functions and methods that nothing in the package or the demos
# calls, each kept on purpose. Anything else without a caller is deleted or
# moved to tests/.
ENTRY_POINTS = {
    "crawl.parse_seed_listing":
        "turns a saved issue-listing page into seeds (README, File formats: Seeds)",
    "corpus.write_annotations":
        "writes the annotation JSONL that agreement runs read (README, File formats)",
    "fixture_wiki.FixtureWiki.qualifying_edges":
        "ground-truth link edges for perfbench's BFS check and the crawler tests",
}


def public_definitions() -> dict[str, str]:
    """Qualified name -> name of every module-level function (a ``def`` or a
    name bound to a ``partial``) and every method of a public class in the
    package, leaving out ``_`` names."""
    defs = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs.update((f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}.{node.name}"] = node.name
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "partial"):
                defs.update((f"{module}.{t.id}", t.id) for t in node.targets
                            if not t.id.startswith("_"))
    return defs


def referenced_names() -> set[str]:
    """Every name, attribute and imported name read in the package (CLI
    included) and the demos; binding a name is not reading it."""
    names = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_uncalled_entry_point_is_listed():
    used = referenced_names()
    uncalled = {q for q, name in public_definitions().items() if name not in used}
    assert uncalled == set(ENTRY_POINTS)


def autodiff_calls(tree) -> set[str]:
    """Names of the autodiff functions a module calls as ``ad.name(...)``
    after ``from . import autodiff as ad``."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "autodiff"}
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules}


def test_autodiff_keeps_only_the_ops_the_models_use():
    # an op is an autodiff function that records a tape node; each one must
    # be called somewhere else in the package
    autodiff = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    ops = {node.name for node in autodiff.body if isinstance(node, ast.FunctionDef)
           and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_record"
                   for call in ast.walk(node))}
    used = set().union(*(autodiff_calls(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE.rglob("*.py") if path.name != "autodiff.py"))
    assert {"lookup", "conv_max_pool", "l2_penalty"} <= ops
    assert ops - used == set()
