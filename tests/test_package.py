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


def test_flat_rows_stay_in_linalg():
    # flat integer rows are read and built through linalg's helpers only;
    # numfield owns the power rows and the element constructor they use
    for path in sorted(Path(algpoly.__file__).parent.glob("*.py")):
        if path.stem not in ("linalg", "numfield"):
            text = path.read_text()
            found = [name for name in ("_reduce_powers", "_pow_rows", "._make(") if name in text]
            assert found == [], path.name
