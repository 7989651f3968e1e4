"""Checks on the package source and the test configuration as a whole."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "streamcvi"
# The code that may use a name of the package: tests do not count.
USERS = ("src", "scripts", "perfbench")

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_logging(path):
    # events are the one record of what happened: a step returns them and
    # the engine logs them, so no module writes to a logger
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "logging" for n in names), (
            f"{path.name}:{node.lineno} imports logging")


def public_names(path: Path):
    """The public top-level functions, classes and UPPER_CASE constants of a module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def test_no_public_name_only_tests_use():
    # a function, class or constant that only tests name is code the
    # package keeps for its tests alone
    code = "\n".join(f.read_text(encoding="utf-8")
                     for d in USERS for f in sorted((REPO / d).rglob("*.py")))
    unused = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in public_names(path)
        # one occurrence is the definition itself
        if len(re.findall(rf"\b{name}\b", code)) < 2
    ]
    assert unused == []


def test_readme_library_example_runs():
    # the example imports from the package root, so a documented root
    # name cannot disappear unnoticed
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.M | re.S)[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_failing_property_does_not_abort_the_session(tmp_path):
    # hypothesis reports a failing property through a module that imports
    # libcst, which warns on import; pyproject.toml turns warnings into
    # errors, so unless that one warning is ignored the session ends in
    # INTERNALERROR and later tests never run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed" in out and "1 passed" in out, out[-2000:]
