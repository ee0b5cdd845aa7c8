"""The native sift store builds once, survives races and falls back quietly.

:func:`repro.bdd.native.build_and_load` compiles a C source into a
``__pycache__`` directory and publishes the object by an atomic rename;
:func:`repro.bdd.native.sift_library` runs it once per process and turns
any failure into the Python engine, which must build the same bytes.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import dashboard_network
from repro.bdd import BddManager, native
from repro.flow import build_system
from repro.pipeline import BuildTrace

SRC = Path(native.__file__).resolve().parents[2]

needs_native = pytest.mark.skipif(
    native.sift_library() is None, reason="the native sift store did not build"
)


def dashboard_build(directory):
    """The dashboard's files as ``repro build`` writes them, and the
    engines its ``order`` passes report."""
    trace = BuildTrace()
    build_system(dashboard_network(), trace=trace).write_to(str(directory))
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    engines = [
        event["metrics"]["sift_engine"]
        for event in trace.to_dict()["events"]
        if event["kind"] == "pass" and event["name"] == "order"
    ]
    return files, engines


def refuse_to_load(path, *args, **kwargs):
    raise OSError(f"cannot load {path}")


@needs_native
@pytest.mark.parametrize("failure", ["compile", "load"])
def test_a_failed_build_or_load_runs_the_python_engine(failure, tmp_path, monkeypatch):
    want, engines = dashboard_build(tmp_path / "native")
    assert engines and set(engines) == {"native"}
    source = tmp_path / "src" / native.SIFT_SOURCE.name
    source.parent.mkdir()
    text = native.SIFT_SOURCE.read_text(encoding="utf-8")
    if failure == "compile":
        text += "\n#error does not compile\n"
    else:
        monkeypatch.setattr(ctypes, "PyDLL", refuse_to_load)
    source.write_text(text, encoding="utf-8")
    monkeypatch.setattr(native, "SIFT_SOURCE", source)
    monkeypatch.setattr(native, "_sift_library", native._UNLOADED)
    got, engines = dashboard_build(tmp_path / failure)
    assert engines and set(engines) == {"python"}
    assert got == want
    left = [path.name for path in (source.parent / "__pycache__").iterdir()]
    if failure == "compile":
        assert left == []
    else:  # built and published whole, then refused by the loader
        assert len(left) == 1 and left[0].endswith(".so")


@needs_native
def test_racing_processes_all_load_and_one_object_is_left(tmp_path):
    source = tmp_path / native.SIFT_SOURCE.name
    source.write_bytes(native.SIFT_SOURCE.read_bytes())
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.bdd import native\n"
        "native._declare(native.build_and_load(Path(sys.argv[1])))\n"
        "print('loaded')\n"
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
    assert [out for out, _ in outcomes] == ["loaded\n"] * 3
    left = [path.name for path in (tmp_path / "__pycache__").iterdir()]
    assert len(left) == 1 and left[0].endswith(".so"), left


@needs_native
def test_a_new_build_removes_the_objects_of_older_sources(tmp_path):
    source = tmp_path / native.SIFT_SOURCE.name
    text = native.SIFT_SOURCE.read_bytes()
    source.write_bytes(text)
    old = native._declare(native.build_and_load(source))
    cache = tmp_path / "__pycache__"
    (built,) = cache.iterdir()
    # A build in progress elsewhere: its temporary file is not an object.
    partial = cache / f".{built.name}.racer.tmp"
    partial.write_bytes(b"")
    source.write_bytes(text + b"\n/* a second digest */\n")
    native._declare(native.build_and_load(source))
    left = sorted(path.name for path in cache.iterdir())
    assert len(left) == 2 and partial.name in left, left
    assert built.name not in left
    # The object loaded before its file was removed keeps working.
    manager = BddManager()
    a, b, c = (manager.var(manager.new_var(name)) for name in "abc")
    f = (a & b) | (~a & c)
    assert native.NativeStore(old, f).size() == f.size()


def test_importing_the_flow_loads_no_ctypes():
    code = "import sys, repro.flow; print('ctypes' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "False\n"
