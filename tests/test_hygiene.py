"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flaremon"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module: in code, as the root of an attribute chain, or in an unquoted
    annotation.  Quoted annotations are not looked into.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_unused_and_used_names():
    source = ("import os\nimport numpy as np\nfrom typing import List, Dict\n"
              "def f(x: List[int]):\n    return np.asarray(x)\n")
    assert unused_imports(source) == [(1, "os"), (3, "Dict")]


def to_array_calls(source: str):
    """Lines that call a method named to_array: a full-frame mask decode."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "to_array")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_full_frame_mask_decodes(path):
    """Masks are read through Mask.indices(); to_array() builds a whole
    frame and is for tests and tools only."""
    assert to_array_calls(path.read_text(encoding="utf-8")) == []


def test_decode_checker_sees_calls():
    source = ("def f(m, x):\n    a = m.to_array()\n    to_array = 1\n"
              "    return x.to_array\n")
    assert to_array_calls(source) == [2]


def test_cli_import_loads_no_http_client():
    """Only `--labeling llm` talks HTTP; start-up must not pay for it."""
    code = ("import sys, flaremon.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('requests', 'urllib3')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
