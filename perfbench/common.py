"""Plumbing shared by every workload: paths, statistics, provenance, output.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from ``src/`` there, so it always measures the code it
was checked out with.  Nothing here imports ``repro`` at module import
time: :func:`use_checkout_sources` must run first.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from hostspeed import HOST

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH_DIR)
SRC = os.path.join(ROOT, "src")
RSL_DIR = os.path.join(ROOT, "examples", "rsl")
DRIVE_FILE = os.path.join(ROOT, "examples", "dashboard_drive.json")
#: Scratch space (cache directories) and written span files; both are
#: inside the checkout and ignored by git.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: How many times each part of set-up runs; ``setup_s`` reports the sum
#: of the parts' medians: a fresh interpreter's import of the workload,
#: and the rest of set-up.
SETUP_REPEATS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or inputs)."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Child processes (pool workers, the serve daemon) inherit the path
    through ``PYTHONPATH``.
    """
    for path in (os.path.join(SRC, "repro", "__init__.py"), RSL_DIR, DRIVE_FILE):
        if not os.path.exists(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}: run "
                             "from the root of a repro source checkout")
    sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    # Temporary files (a parallel build's telemetry bus) stay inside the
    # checkout too, in this process and every child.
    os.environ["TMPDIR"] = tempfile.tempdir = fresh_dir("tmp")


def fresh_import(module: str) -> None:
    """Start a fresh interpreter that imports a workload module.

    What every ``repro`` invocation pays before its first op: interpreter
    start and the import of the flow (and numpy, for fleet).
    """
    code = f"import sys; sys.path[:0] = [{SRC!r}, {PERFBENCH_DIR!r}]; import {module}"
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def fresh_dir(*parts: str) -> str:
    """An empty directory under the work dir (removed first if present)."""
    path = os.path.join(WORK_DIR, f"{os.getpid()}", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir() -> None:
    shutil.rmtree(os.path.join(WORK_DIR, f"{os.getpid()}"), ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass  # another run's directory is still there


def read_rsl(name: str) -> str:
    with open(os.path.join(RSL_DIR, f"{name}.rsl"), "r", encoding="utf-8") as handle:
        return handle.read()


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


class Intervals:
    """Timed intervals of a run (``time.perf_counter`` start and end)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[float, float]] = []

    def add(self, start: float, end: float) -> None:
        self.spans.append((start, end))

    def __len__(self) -> int:
        return len(self.spans)

    def raw_ms(self) -> List[float]:
        return [(end - start) * 1000.0 for start, end in self.spans]

    def reference_ms(self) -> List[float]:
        """Each interval at the reference speed (see ``hostspeed``)."""
        return [HOST.reference_s(start, end) * 1000.0 for start, end in self.spans]


# -- provenance and output ----------------------------------------------------


def _git_revision() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout: the source digest identifies it
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(workload: str, seed: int, trace: bool, seconds: float,
               attempted: int, failed: int,
               extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.pipeline import code_version

    doc: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "source_digest": code_version(),
        "attempted": attempted,
        "failed": failed,
    }
    doc.update(extra or {})
    return doc


class Result:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}  # check name -> how many ran
        self.problems: List[str] = []  # failed checks, human readable
        self.info: Dict[str, Any] = {}  # extra provenance fields
        #: Each repetition of set-up after the imports.
        self.setup = Intervals()

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def add_timed(self, name: str, unit: str, of: Callable[[List[float]], float],
                  intervals: Intervals) -> None:
        """A metric ``of`` timed intervals, in ms: at the reference speed.

        The same figure from the raw wall times goes into ``info["raw"]``.
        """
        self.add(name, of(intervals.reference_ms()), unit)
        self.info.setdefault("raw", {})[name] = of(intervals.raw_ms())

    def to_reference_speed(self, scale: float) -> None:
        """Scale every time (``ms``) metric of a traced run by ``scale``.

        One factor for the whole run keeps each op's layer times adding
        up to its wall time; the raw values go into ``info["raw"]``.
        """
        raw = self.info.setdefault("raw", {})
        for name, metric in self.metrics.items():
            if metric["unit"] == "ms":
                raw[name] = metric["value"]
                metric["value"] *= scale

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one correctness check; remember it when it fails."""
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.problems.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }, sort_keys=True)
