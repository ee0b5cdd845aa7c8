"""Force the BDD kernel engine ``BddManager()`` runs, as tests compare.

``BddManager()`` runs on the native kernel whenever ``_bdd_kernel.c``
builds and loads, and on the Python manager otherwise; :func:`engine`
patches the loader's process-wide result for the block.  Managers made
before the block keep their engine, and pooled workers forked earlier
keep the one they had.
"""

import contextlib
from typing import Iterator

from repro.bdd import native

ENGINES = ("native", "python")


@contextlib.contextmanager
def engine(name: str) -> Iterator[None]:
    """Make managers on the ``"native"`` or the ``"python"`` kernel in the
    block.  The native kernel must load."""
    loaded = native.kernel_library()
    if name == "native" and loaded is None:
        raise RuntimeError("the native BDD kernel did not build or load")
    saved = native._kernel_library
    native._kernel_library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._kernel_library = saved
