"""Differential conformance fuzzing across the five executable layers.

The paper's central claim (Theorem 1) is that the synthesized program is
*semantically identical* to its CFSM specification, and Sec. III-C/Table I
claim the s-graph estimator brackets the measured cycle count.  This
subsystem checks both claims mechanically, at scale, on machine-generated
specifications:

* :mod:`repro.difftest.generator` — a seeded random CFSM/snapshot source
  biased toward the historically bug-prone corners (1-place value-buffer
  overwrites, valued events, don't-cares, deep TEST chains);
* :mod:`repro.difftest.oracle` — runs every reaction through the five
  independently executable semantics (CFSM reference interpreter,
  characteristic-function BDD, s-graph traversal, a mini-interpreter for
  the emitted portable C, and the cycle-accurate ISA simulator) and
  cross-checks emissions, state, and firing bit for bit, plus the
  estimator's [min, max] cycle bounds;
* :mod:`repro.difftest.shrink` — minimizes a failing CFSM/snapshot to a
  small replayable repro;
* :mod:`repro.difftest.runner` — schedules cases through the pipeline
  executor and emits the ``repro-difftest/v1`` report consumed by the
  obs reporter (``repro report``) and the ``repro fuzz`` CLI;
* :mod:`repro.difftest.inject` — named deliberate faults, used to prove
  the gate actually catches and shrinks regressions.
"""

from .generator import CaseConfig, GeneratedCase, generate_case, random_snapshots
from .oracle import CaseReport, Mismatch, OracleOptions, check_case, check_reaction
from .inject import FAULTS, inject_fault
from .runner import (
    DEFAULT_SCHEMES,
    DIFFTEST_FORMAT,
    FuzzCaseTask,
    FuzzConfig,
    load_repro_file,
    replay_file,
    replay_repro,
    run_fuzz,
)
from .shrink import shrink_case
from .spec import (
    REPRO_FORMAT,
    case_to_repro_doc,
    cfsm_from_spec,
    cfsm_to_spec,
    snapshot_from_dict,
    snapshot_to_dict,
)

__all__ = [
    "CaseConfig",
    "GeneratedCase",
    "generate_case",
    "random_snapshots",
    "CaseReport",
    "Mismatch",
    "OracleOptions",
    "check_case",
    "check_reaction",
    "shrink_case",
    "FAULTS",
    "inject_fault",
    "DEFAULT_SCHEMES",
    "DIFFTEST_FORMAT",
    "REPRO_FORMAT",
    "FuzzCaseTask",
    "FuzzConfig",
    "run_fuzz",
    "replay_file",
    "replay_repro",
    "load_repro_file",
    "case_to_repro_doc",
    "cfsm_to_spec",
    "cfsm_from_spec",
    "snapshot_to_dict",
    "snapshot_from_dict",
]
