"""`tools/outputs.py --compare`, the byte-identity gate of the printed outputs."""

import importlib.util

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("outputs_tool", REPO / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

TREE = {"jobs/lattice-r0-00.out": b"vertices 2\n1 0\n3 1\n", "exit_codes.txt": b"lattice 0\n"}


def _write(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def _compare(tmp_path, changed):
    a = _write(tmp_path / "a", TREE)
    b = _write(tmp_path / "b", changed)
    return outputs.compare(a, b)


def test_equal_trees(tmp_path, capsys):
    assert _compare(tmp_path, TREE) == 0
    assert "2 files, identical" in capsys.readouterr().out


def test_changed_digit_names_file_and_line(tmp_path, capsys):
    changed = dict(TREE, **{"jobs/lattice-r0-00.out": b"vertices 2\n1 0\n3 2\n"})
    assert _compare(tmp_path, changed) == 1
    assert "jobs/lattice-r0-00.out: lines 3\n" in capsys.readouterr().out


@pytest.mark.parametrize("data", [b"lattice 0", b"lattice 0\r\n"])
def test_line_endings_differ(tmp_path, capsys, data):
    assert _compare(tmp_path, dict(TREE, **{"exit_codes.txt": data})) == 1
    assert "exit_codes.txt: line endings\n" in capsys.readouterr().out


def test_file_on_one_side_only(tmp_path, capsys):
    changed = dict(TREE, **{"jobs/extra.aut": b"order 1\n"})
    assert _compare(tmp_path, changed) == 1
    assert "jobs/extra.aut: only in" in capsys.readouterr().out
