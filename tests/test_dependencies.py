"""Every third-party import is declared in ``pyproject.toml``.

A clean ``pip install -e ".[test]"`` must be enough to import the
package and run the suite, so this scans the source of ``src/``,
``tests/`` and ``benchmarks/`` for import statements and checks each
top-level module that is neither in the standard library nor one of the
repository's own modules against the matching table: ``src/`` against
``[project] dependencies``, tests and benchmarks against those plus the
``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks")


def _requirement_names(requirements: list[str]) -> set[str]:
    """Distribution names of PEP 508 requirement strings, normalised."""
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
            .replace("-", "_") for req in requirements}


def _local_modules() -> set[str]:
    """Top-level names the repository itself provides."""
    names = set()
    for folder in SCANNED:
        for path in (ROOT / folder).rglob("*.py"):
            names.add(path.stem)
        names.update(p.name for p in (ROOT / folder).iterdir() if p.is_dir())
    # The benchmark harness, which benchmarks/throughput.py imports from.
    names.update(SCANNED + ("perfbench",))
    return names


def _imported_modules(path: Path) -> set[str]:
    """Top-level modules of every absolute import in one file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def _undeclared(folder: str, declared: set[str]) -> dict[str, list[str]]:
    local = _local_modules()
    missing: dict[str, list[str]] = {}
    for path in sorted((ROOT / folder).rglob("*.py")):
        for module in _imported_modules(path):
            if module in sys.stdlib_module_names or module in local:
                continue
            if module.lower() not in declared:
                missing.setdefault(module, []).append(
                    str(path.relative_to(ROOT)))
    return missing


@pytest.fixture(scope="module")
def project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_package_imports_are_runtime_dependencies(project):
    declared = _requirement_names(project["dependencies"])
    assert _undeclared("src", declared) == {}


@pytest.mark.parametrize("folder", ["tests", "benchmarks"])
def test_suite_imports_are_test_dependencies(project, folder):
    declared = _requirement_names(
        project["dependencies"]
        + project["optional-dependencies"]["test"])
    assert _undeclared(folder, declared) == {}


def test_scan_sees_the_declared_imports():
    # Guard against the scan silently finding nothing.
    assert "scipy" in _imported_modules(
        ROOT / "src" / "repro" / "ml" / "regression.py")
    assert "numpy" in _imported_modules(
        ROOT / "src" / "repro" / "cluster" / "engine.py")
