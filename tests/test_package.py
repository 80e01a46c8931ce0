import os
import subprocess
import sys
from pathlib import Path

import algpoly


def test_all_names_resolve():
    assert len(set(algpoly.__all__)) == len(algpoly.__all__)
    assert [name for name in algpoly.__all__ if not hasattr(algpoly, name)] == []


def test_no_runtime_dependencies():
    # every top-level module that importing the package loads, beyond those
    # the interpreter loaded at start-up, belongs to the standard library
    code = (
        "import sys; before = set(sys.modules); import algpoly; "
        "print(sorted({name.split('.')[0] for name in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'algpoly'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(algpoly.__file__).parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
