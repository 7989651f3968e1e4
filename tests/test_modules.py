"""Checks on the package source and the test configuration as a whole."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "streamcvi"

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
