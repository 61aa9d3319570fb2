import ast
import subprocess
import sys
from pathlib import Path

import setdecomp

SOURCES = sorted(Path(setdecomp.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so exactness and input checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_import_loads_neither_numpy_nor_scipy():
    code = (
        "import sys, setdecomp; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    src = str(Path(setdecomp.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
