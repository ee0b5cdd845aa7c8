"""Kernel compilation: the tape is the kernel, and the compile frees its BDDs.

:func:`repro.fleet.compile_network` stores each machine's kernel as a
tape of plane ops; :attr:`CompiledMachine.source` is rendered from it and
must be, byte for byte, the source the kernel compiler emitted before
kernels were stored as tapes.
"""

import gc
import hashlib
import weakref

import pytest

from repro.apps import abp_network, dashboard_network, shock_network
from repro.bdd.manager import BddManager
from repro.fleet import campaign_case, compile_network

#: SHA-256 over the kernel sources (each followed by a NUL byte) of the
#: three reference designs and the first 20 campaign machines of seed 0,
#: and their op counts, as emitted when a kernel was its source text.
SOURCES_SHA256 = (
    "93f415dd063be36401597604069efdb097f4fa3c65e46ace9c391434b104ee0f"
)
OP_COUNTS = [
    1161, 1329, 199, 49, 3, 102, 3, 209, 33, 95, 794, 71, 306, 21, 54, 49,
    27, 72, 64, 0, 277, 10, 145,
]


def networks():
    found = [dashboard_network(), shock_network(), abp_network()]
    found += [campaign_case(0, index)[0] for index in range(20)]
    return found


def test_sources_rendered_from_tapes_are_unchanged():
    digest = hashlib.sha256()
    counts = []
    for network in networks():
        compiled = compile_network(network)
        for machine in compiled.machines:
            digest.update(machine.source.encode())
            digest.update(b"\0")
        counts.append(compiled.op_count)
    assert counts == OP_COUNTS
    assert digest.hexdigest() == SOURCES_SHA256


def test_compile_network_leaves_no_manager_alive(monkeypatch):
    """Every BDD manager a compile makes is freed when it returns, without
    the cyclic collector."""
    made = []
    init = BddManager.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(BddManager, "__init__", recording_init)
    designs = [dashboard_network(), shock_network(), abp_network()]
    gc.collect()
    gc.disable()
    try:
        for network in designs:
            compile_network(network)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) == 17
    assert alive == []


@pytest.mark.parametrize("name", ["true", "false"])
def test_manager_constants_are_fresh_handles(name):
    manager = BddManager()
    first, second = getattr(manager, name), getattr(manager, name)
    assert first == second and first is not second
    assert first.id == manager.constant(name == "true").id
