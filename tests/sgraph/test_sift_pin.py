"""Pins what sifting decides for every example module.

Each module of ``examples/rsl`` is sifted from the naive order twice, with
``sifted_order(rf, strict=False)`` and then ``strict=True``, each on a
fresh reactive function.  A row records the final variable order by name,
the order handed to the s-graph builder, the sifted characteristic
function's size and the manager's swap count.

The decisions and the work are pinned apart.  ``DIGEST`` covers the rows
without their swap counts.  It was taken with ``chi.size()``, a full walk,
as the sift metric and the return-trip engine of
``tests/bdd/sift_reference.py``, so any change to the size probe or the
pass that moves a single sifting decision fails here.  ``SWAPS`` is the
swap total of the current engine, which returns a block to its start by
rolling the store back and skips blocks already proven clean (the
return-trip engine took 14230).  It was re-pinned from 6072 to 6466 when
sifting by a size probe moved to a private copy of χ: the 6072
exploration swaps are unchanged, and the 394 swaps that move each shared
manager to the order a pass found are added.
"""

import hashlib
import json
from pathlib import Path

from repro.frontend import compile_source
from repro.sgraph import sifted_order
from repro.synthesis import synthesize_reactive

RSL_DIR = Path(__file__).resolve().parents[2] / "examples" / "rsl"

# The three reference designs, each in network order.
MODULES = (
    "wheel_filter", "speedo", "odometer", "tacho",
    "speed_gauge", "rpm_gauge", "fuel_gauge", "belt_alarm",
    "accel_filter", "road_classifier", "damping_logic", "actuator", "diagnostics",
    "abp_sender", "chan_frame", "abp_receiver", "chan_ack",
)

DIGEST = "7134c4fdc0916bb0b6b7d865e5b4aa44a50bde876bbdcc4efa0cac4657d6cc0a"
SWAPS = 6466


def sift_rows():
    rows = []
    for name in MODULES:
        cfsm = compile_source((RSL_DIR / f"{name}.rsl").read_text(encoding="utf-8"))
        for scheme, strict in (("sift", False), ("sift-strict", True)):
            rf = synthesize_reactive(cfsm)
            manager = rf.manager
            order = sifted_order(rf, strict=strict)
            rows.append([
                name,
                scheme,
                [manager.var_name(v) for v in manager.current_order()],
                order,
                rf.chi.size(),
                manager.swap_count,
            ])
    return rows


def test_sift_outcome_is_pinned():
    rows = sift_rows()
    assert len(rows) == 34
    assert sum(row[5] for row in rows) == SWAPS
    assert sum(row[4] for row in rows) == 1100
    decisions = [row[:5] for row in rows]
    blob = json.dumps(decisions, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
