"""Native libraries build once and survive races.

:func:`repro.bdd.native.build_and_load` compiles a C source into a
``__pycache__`` directory and publishes the object by an atomic rename.
These tests build a few-line source of their own; that a library which
fails to build or load runs the Python engine, with the same bytes, is
``test_kernel_engines``'s and ``tests/fleet/test_native_run.py``'s.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdd import native

SRC = Path(native.__file__).resolve().parents[2]

SOURCE = "int answer(void) { return %d; }\n"

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@needs_cc
def test_racing_processes_all_load_and_one_object_is_left(tmp_path):
    source = tmp_path / "answer.c"
    source.write_text(SOURCE % 42, encoding="utf-8")
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.bdd import native\n"
        "print(native.build_and_load(Path(sys.argv[1])).answer())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(source)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]
    outcomes = [racer.communicate(timeout=300) for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0, 0], outcomes
    assert [out for out, _ in outcomes] == ["42\n"] * 3
    left = [path.name for path in (tmp_path / "__pycache__").iterdir()]
    assert len(left) == 1 and left[0].endswith(".so"), left


@needs_cc
def test_a_new_build_removes_the_objects_of_older_sources(tmp_path):
    source = tmp_path / "answer.c"
    source.write_text(SOURCE % 1, encoding="utf-8")
    old = native.build_and_load(source)
    cache = tmp_path / "__pycache__"
    (built,) = cache.iterdir()
    # A build in progress elsewhere: its temporary file is not an object.
    partial = cache / f".{built.name}.racer.tmp"
    partial.write_bytes(b"")
    source.write_text(SOURCE % 2, encoding="utf-8")
    assert native.build_and_load(source).answer() == 2
    left = sorted(path.name for path in cache.iterdir())
    assert len(left) == 2 and partial.name in left, left
    assert built.name not in left
    # The object loaded before its file was removed keeps working.
    assert old.answer() == 1


def test_importing_the_flow_loads_no_ctypes():
    code = "import sys, repro.flow; print('ctypes' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "False\n"
