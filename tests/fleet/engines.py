"""Force the fleet engine a shard run takes, as tests and benches compare.

A shard's :meth:`repro.fleet.FleetShard.run` takes the native engine
whenever ``_fleet_run.c`` builds and loads, and :meth:`FleetShard.step`
otherwise; :func:`engine` patches the loader's process-wide result for
the block.  Pooled workers forked earlier keep the engine they had.
"""

import contextlib
from typing import Iterator

from repro.fleet import native

ENGINES = ("native", "python")


@contextlib.contextmanager
def engine(name: str) -> Iterator[None]:
    """Run shards on the ``"native"`` or the ``"python"`` engine in the block.

    The native engine must load.
    """
    loaded = native.fleet_library()
    if name == "native" and loaded is None:
        raise RuntimeError("the native fleet engine did not build or load")
    saved = native._fleet_library
    native._fleet_library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._fleet_library = saved
