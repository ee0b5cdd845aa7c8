"""The native shard run: all the steps of a fleet shard in one C call.

:meth:`repro.fleet.FleetShard.run` hands a shard to :func:`run_shard`,
which packs every plane into one arena of 64-bit lane words, describes
the network in one int32 program, and calls ``fr_run`` of
``_fleet_run.c`` once for all the steps: the stimulus (an exact replay
of ``random.getrandbits`` from the shard's Mersenne Twister state), the
round-robin pick, each machine's kernel tape, the deliveries and the
counters.  The planes, the counters' plane lists, the cursor and the
stream's generator state then equal what as many
:meth:`~repro.fleet.FleetShard.step` calls leave, and the shard holds
plain int planes again.

One fixed C source serves every network: a kernel is data (its tape),
never C.  :func:`fleet_library` builds and loads it through
:func:`repro.bdd.native.build_and_load` at the first native run of a
process; on any failure, or on a big-endian host, every shard of the
process runs :meth:`~repro.fleet.FleetShard.step`.
:func:`load_fleet_library` makes that first call and returns its wall
time (a build of ~0.5 s, or a load), so a fleet shard can report it
apart from its simulation.

The program, in int32s::

    lanes, machines, events, stimuli, counters, cursor_at, runnable_at
    per counter:  at, cap, count               (count is written back)
    per event:    width, buffer_at, consumers,
                  (machine, flag_at) per consumer, env counter
    per stimulus: event, threshold, value planes, n, n bias bits
    per machine:  flags, state planes, n, n parameter planes,
                  ops, results, outputs, event per output, tape

where every ``*_at`` is a plane index into the arena.  Counter 0 counts
lost events and counter 1 reactions; the others are the environment
outputs'.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List

from ..bdd.native import build_and_load

FLEET_SOURCE = Path(__file__).with_name("_fleet_run.c")

_UNLOADED = object()
_fleet_library: Any = _UNLOADED


def _declare(lib: Any) -> Any:
    from ctypes import POINTER, c_int, c_int32, c_uint32, c_uint64

    lib.fr_run.restype = c_int
    lib.fr_run.argtypes = [
        POINTER(c_int32), POINTER(c_uint64), POINTER(c_uint32), c_int,
    ]
    return lib


def fleet_library() -> Any:
    """The loaded shard-run library, or None: shards run :meth:`step`.

    Built and loaded at the first call of a process, never again.
    """
    global _fleet_library
    if _fleet_library is _UNLOADED:
        try:
            if sys.byteorder != "little" or array("I").itemsize != 4:
                raise OSError("the native shard run needs 32-bit words "
                              "on a little-endian host")
            _fleet_library = _declare(build_and_load(FLEET_SOURCE))
        except Exception:
            _fleet_library = None
    return _fleet_library


def load_fleet_library() -> float:
    """Build or load the shard run if this process has not yet; returns
    the wall time that took in ms, 0.0 when it was already done."""
    if _fleet_library is not _UNLOADED:
        return 0.0
    started = time.perf_counter()
    fleet_library()
    return (time.perf_counter() - started) * 1000.0


def fleet_engine() -> str:
    """``"native"`` or ``"python"``: which engine steps a shard's run."""
    return "python" if fleet_library() is None else "native"


def run_shard(library: Any, shard: Any, steps: int) -> None:
    """Advance ``shard`` by ``steps`` steps in one call of ``library``.

    Raises :class:`MemoryError` when the C side cannot allocate; the shard
    is then as it was.
    """
    from ctypes import c_int32, c_uint32, c_uint64

    compiled = shard.compiled
    machines = compiled.machines
    size = (shard.lanes + 63) // 64 * 8
    chunks: List[bytes] = []  # one per plane of the arena

    def place(planes) -> int:
        at = len(chunks)
        chunks.extend(plane.to_bytes(size, "little") for plane in planes)
        return at

    counters = [shard.lost, shard.reactions]
    env_counter: Dict[str, int] = {}
    for name, counter in shard.env_emitted.items():
        env_counter[name] = len(counters)
        counters.append(counter)
    events = list(compiled.consumers)
    event_index = {name: i for i, name in enumerate(events)}
    prog = array("i", [
        shard.lanes, len(machines), len(events), len(shard.stream._events),
        len(counters), place(shard.cursor), place(shard.runnable),
    ])

    flags_at: List[int] = []
    state_at: List[int] = []
    for j, machine in enumerate(machines):
        flags = shard.flags[j]
        state = shard.states[j]
        flags_at.append(place(flags[name] for name in machine.input_events))
        state_at.append(place(
            plane for name, _, _, _ in machine.state_specs
            for plane in state[name]
        ))
    buffer_at = {
        name: place(planes) for name, planes in shard.buffers.items()
    }

    # Room for the largest count a run can reach: per lane and step, one
    # reaction, and at most one delivery per consumer of each event.
    deliveries = max(1, sum(len(c) for c in compiled.consumers.values()))
    headroom = (steps * deliveries).bit_length() + 1
    zero = bytes(size)
    count_at = []
    for counter in counters:
        count = len(counter.planes)
        prog.extend((place(counter.planes), count + headroom, count))
        count_at.append(len(prog) - 1)
        chunks.extend([zero] * headroom)

    for name in events:
        consumers = compiled.consumers[name]
        prog.extend((
            compiled.event_widths.get(name, 0), buffer_at.get(name, -1),
            len(consumers),
        ))
        for mi in consumers:
            flag = machines[mi].input_events.index(name)
            prog.extend((mi, flags_at[mi] + flag))
        prog.append(-1 if consumers else env_counter[name])

    for name, width, threshold, lo, value_bits in shard.stream._events:
        bias = compiled.event_widths[name] if width is not None else 0
        prog.extend((event_index[name], threshold, value_bits, bias))
        prog.extend((lo >> i) & 1 for i in range(bias))

    for j, machine in enumerate(machines):
        n_flags = len(machine.input_events)
        n_state = sum(bits for _, _, bits, _ in machine.state_specs)
        params = list(range(flags_at[j], flags_at[j] + n_flags))
        params += range(state_at[j], state_at[j] + n_state)
        for name, width in zip(machine.valued_inputs, machine.buffer_widths):
            params += range(buffer_at[name], buffer_at[name] + width)
        prog.extend((n_flags, n_state, len(params)))
        prog.extend(params)
        prog.extend((
            machine.op_count, len(machine.tape) - 4 * machine.op_count,
            len(machine.output_events),
        ))
        prog.extend(event_index[name] for name, _ in machine.output_events)
        prog.extend(machine.tape)

    rng = shard.stream._rng
    version, internal, gauss = rng.getstate()
    twister = array("I", internal)
    arena = bytearray().join(chunks)
    status = library.fr_run(
        (c_int32 * len(prog)).from_buffer(prog),
        (c_uint64 * (len(arena) // 8)).from_buffer(arena),
        (c_uint32 * len(twister)).from_buffer(twister),
        steps,
    )
    if status == 1:
        raise MemoryError("native fleet run")
    if status:
        raise RuntimeError(f"native fleet run failed with status {status}")

    view = memoryview(arena)

    def planes(at: int, count: int) -> List[int]:
        return [
            int.from_bytes(view[i * size:(i + 1) * size], "little")
            for i in range(at, at + count)
        ]

    shard.cursor = planes(prog[5], len(machines))
    shard.runnable = planes(prog[6], len(machines))
    for j, machine in enumerate(machines):
        flags = shard.flags[j]
        for name, plane in zip(
            machine.input_events,
            planes(flags_at[j], len(machine.input_events)),
        ):
            flags[name] = plane
        state = shard.states[j]
        at = state_at[j]
        for name, _, bits, _ in machine.state_specs:
            state[name] = planes(at, bits)
            at += bits
    for name, at in buffer_at.items():
        shard.buffers[name] = planes(at, len(shard.buffers[name]))
    for counter, index in zip(counters, count_at):
        counter.planes = planes(prog[index - 2], prog[index])
    rng.setstate((version, tuple(twister), gauss))
