"""The demos stay runnable: their imports are public, the keywords they pass
to them exist, and the quick one runs.  So do the README's Python blocks."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import warpmatch

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def warpmatch_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "warpmatch"
            for alias in node.names]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(demo):
    names = warpmatch_imports(demo)
    assert names, f"{demo.name} imports nothing from warpmatch"
    assert [n for n in names if n not in warpmatch.__all__] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_keywords_are_parameters(demo):
    names = set(warpmatch_imports(demo))
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    calls = [(node.func.id, kw.arg) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in names for kw in node.keywords if kw.arg is not None]
    assert [(name, kw) for name, kw in calls
            if kw not in inspect.signature(getattr(warpmatch, name)).parameters] == []


def test_alignment_toy_demo_runs():
    demo = next(p for p in DEMOS if p.name == "01_alignment_toy.py")
    src = str(Path(warpmatch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "alignment distance    : 654" in proc.stdout


def test_readme_python_blocks_run(capsys):
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
    assert "1118.0" in capsys.readouterr().out.splitlines()
