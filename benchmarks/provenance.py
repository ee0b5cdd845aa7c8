"""Where a committed ``BENCH_*.json`` document's figures were taken.

Standard library only, so the BDD-engine bench can use it where pytest is
not installed.  Each report script adds the block as ``provenance``; the
validators in :mod:`repro.obs.schema` check it when present.
"""

import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_provenance(**repetitions):
    """Host CPUs, interpreter, revision, plus the given repetition counts.

    The revision is ``HEAD``'s hash, suffixed ``-dirty`` when the
    checkout has uncommitted changes (a report is usually regenerated
    before the change that carries it is committed).
    """
    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                 "--abbrev=40", "--exclude=*"],
                capture_output=True, text=True, timeout=30, check=False,
            )
            revision = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):  # no git on the host
            pass
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        **repetitions,
    }
