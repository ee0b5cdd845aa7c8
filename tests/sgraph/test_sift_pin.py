"""Pins what sifting decides for every example module.

Each module of ``examples/rsl`` is sifted from the naive order twice, with
``sifted_order(rf, strict=False)`` and then ``strict=True``, each on a
fresh reactive function.  A row records the final variable order by name,
the order handed to the s-graph builder, the sifted characteristic
function's size and the manager's swap count.  The digest below was
taken with ``chi.size()``, a full walk, as the sift metric, so any change
to the size probe that moves a single sifting decision fails here.
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

DIGEST = "a0858f7dc54b994ed5c8465608873c12663827fdab380d260c36b19eda9ebac9"


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
    assert sum(row[5] for row in rows) == 14230
    assert sum(row[4] for row in rows) == 1100
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
