"""Cross-check one CFSM case across the five executable layers.

For every input snapshot the oracle computes the reaction through:

1. the **CFSM reference interpreter** (:func:`repro.cfsm.semantics.react`)
   — the specification semantics of Sec. II-D;
2. the **characteristic-function BDD** — each action's condition BDD is
   evaluated on the encoded input bits, and chi itself is checked to be
   satisfied by (inputs, chosen outputs) and by *no other* output vector
   (Theorem 1: the relation is a function on the care set);
3. the **s-graph traversal** (:meth:`repro.sgraph.graph.SGraph.evaluate`);
4. the **generated portable C**, parsed and executed by
   :mod:`repro.difftest.cinterp` with real C parsing rules;
5. the **ISA simulator** (:func:`repro.target.run_reaction`) on the
   compiled program.

Layers 1, 4 and 5 produce CFSM-level reactions (fired/state/emissions)
and are compared bit-for-bit; layers 2 and 3 produce reactive-function
output bits and are compared against an *independently computed* expected
bit vector (guards re-evaluated transition by transition, not through the
BDD).  Finally the measured cycle count must land inside the exact
[min, max] of :func:`repro.target.analyze_program` (path analysis is
sound) and inside the s-graph estimator's Table-I bounds widened by a
configurable tolerance (the estimator is approximate by design; the
paper reports ~5% worst-case error, Sec. V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cfsm.machine import Cfsm
from ..cfsm.semantics import CfsmConflictError, build_env, react
from ..estimation import calibrate
from ..pipeline.artifacts import (
    bound_figures,
    build_module_artifacts,
    synthesis_options,
)
from ..synthesis.encoding import FireFlag
from ..synthesis.reactive import ConsistencyError
from ..target import PROFILES
from ..target import machine as _target_machine
from .cinterp import CInterpError, CReaction
from .generator import Snapshot

__all__ = [
    "OracleOptions",
    "Mismatch",
    "CaseReport",
    "CaseArtifacts",
    "build_case_artifacts",
    "check_case",
    "check_reaction",
]


@dataclass
class OracleOptions:
    """Synthesis/check knobs; a plain picklable value object."""

    scheme: str = "sift"
    profile: str = "K11"
    copy_elimination: bool = True
    est_tolerance: float = 0.5  # widens the (approximate) estimator bounds
    check_chi_uniqueness: bool = True


@dataclass
class Mismatch:
    """One observed divergence between layers (or a violated bound)."""

    layer: str  # reference | bdd | sgraph | cgen | isa | analysis | estimation
    kind: str
    snapshot: Optional[int]
    detail: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "kind": self.kind,
            "snapshot": self.snapshot,
            "detail": self.detail,
        }


@dataclass
class CaseReport:
    """Outcome of checking one case across all layers and snapshots."""

    index: int
    name: str
    reactions: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    skipped: Optional[str] = None
    estimate: Optional[Dict[str, int]] = None
    measured: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "reactions": self.reactions,
            "mismatches": [m.as_dict() for m in self.mismatches],
            "skipped": self.skipped,
            "estimate": self.estimate,
            "measured": self.measured,
        }


@dataclass
class CaseArtifacts:
    """Everything built once per case, shared across its snapshots."""

    cfsm: Cfsm
    result: Any  # SynthesisResult
    profile: Any  # ISAProfile
    program: Any  # Program
    source: str
    creact: CReaction
    est: Any  # Estimate
    meas: Any  # PathAnalysis
    options: OracleOptions


def build_case_artifacts(cfsm: Cfsm, options: OracleOptions) -> CaseArtifacts:
    """The module's artifacts as a build ships them, plus its parsed C."""
    profile = PROFILES[options.profile]
    built, result = build_module_artifacts(
        cfsm,
        synthesis_options(
            scheme=options.scheme, copy_elimination=options.copy_elimination
        ),
        profile,
        calibrate(profile),
    )
    return CaseArtifacts(
        cfsm=cfsm,
        result=result,
        profile=profile,
        program=built.program,
        source=built.c_source,
        creact=CReaction.parse(built.c_source, cfsm),
        est=built.estimate,
        meas=built.measured,
        options=options,
    )


def _expected_action_bits(
    cfsm: Cfsm, encoding: Any, snapshot: Snapshot
) -> Dict[int, bool]:
    """Ground truth for layers 2/3, computed without any BDD machinery."""
    state, present, values = snapshot
    env = build_env(cfsm, state, values)
    enabled = [t for t in cfsm.transitions if t.enabled(env, present)]
    bits: Dict[int, bool] = {}
    for action in encoding.actions:
        var = encoding.action_vars[action.key()]
        if isinstance(action, FireFlag):
            bits[var] = bool(enabled)
        else:
            bits[var] = any(action in t.actions for t in enabled)
    return bits


def _emissions_dict(
    emissions: List[Tuple[Any, Optional[int]]]
) -> Dict[str, Optional[int]]:
    out: Dict[str, Optional[int]] = {}
    for event, value in emissions:
        out[event.name if hasattr(event, "name") else event] = value
    return out


def _bit_diff(
    encoding: Any, got: Dict[int, bool], want: Dict[int, bool]
) -> str:
    parts = []
    for var, wanted in want.items():
        actual = bool(got.get(var, False))
        if actual != wanted:
            action = encoding.action_of_var(var)
            parts.append(f"{action.label()}: got {actual}, want {wanted}")
    return "; ".join(parts)


def check_reaction(
    artifacts: CaseArtifacts, snapshot: Snapshot, snapshot_index: int
) -> List[Mismatch]:
    """Run one snapshot through all five layers; return the divergences."""
    state, present, values = snapshot
    opts = artifacts.options
    cfsm = artifacts.cfsm
    rf = artifacts.result.reactive
    encoding = rf.encoding
    manager = rf.manager
    mismatches: List[Mismatch] = []

    def bad(layer: str, kind: str, detail: str) -> None:
        mismatches.append(Mismatch(layer, kind, snapshot_index, detail))

    # Layer 1: reference interpreter -----------------------------------
    try:
        ref = react(cfsm, state, present, values)
    except CfsmConflictError as exc:
        # check_consistency passed, so a runtime conflict is itself a bug.
        bad("reference", "conflict", str(exc))
        return mismatches
    ref_emissions = _emissions_dict(ref.emissions)

    want_bits = _expected_action_bits(cfsm, encoding, snapshot)
    input_bits = encoding.evaluate_inputs(state, present, values)

    # Layer 2: characteristic-function BDD -----------------------------
    if not manager.evaluate(rf.care, input_bits):
        bad("bdd", "care", "real snapshot falls outside the care set")
    bdd_bits = rf.expected_outputs(state, present, values)
    if bdd_bits != want_bits:
        bad("bdd", "bits", _bit_diff(encoding, bdd_bits, want_bits))
    else:
        full = dict(input_bits)
        full.update(bdd_bits)
        # chi on the reference vector, then with each output flipped: one
        # manager call.
        flips = encoding.output_vars if opts.check_chi_uniqueness else ()
        accepted = manager._evaluate_ids([rf.chi.id], full, flips)
        if not accepted[0]:
            bad("bdd", "chi", "chi rejects the reference output vector")
        else:
            for var, also in zip(flips, accepted[1:]):
                if also:
                    action = encoding.action_of_var(var)
                    bad(
                        "bdd",
                        "uniqueness",
                        f"chi also accepts flipped {action.label()}",
                    )

    # Layer 3: s-graph traversal ---------------------------------------
    sg_eval = artifacts.result.sgraph.evaluate(input_bits)
    sg_bits = {
        var: bool(sg_eval.outputs.get(var, False))
        for var in encoding.output_vars
    }
    if sg_bits != want_bits:
        bad("sgraph", "bits", _bit_diff(encoding, sg_bits, want_bits))

    # Layer 4: generated C through the mini-interpreter ----------------
    try:
        c_fired, c_state, c_emissions = artifacts.creact.run(
            dict(state), set(present), dict(values)
        )
    except CInterpError as exc:
        bad("cgen", "interp", str(exc))
    else:
        if bool(c_fired) != ref.fired:
            bad("cgen", "fired", f"got {bool(c_fired)}, want {ref.fired}")
        if c_state != ref.new_state:
            bad("cgen", "state", f"got {c_state}, want {ref.new_state}")
        if c_emissions != ref_emissions:
            bad("cgen", "emissions", f"got {c_emissions}, want {ref_emissions}")

    # Layer 5: compiled program on the ISA simulator -------------------
    # Through the module: injectable (see repro.difftest.inject).
    outcome = _target_machine.run_reaction(
        artifacts.program, artifacts.profile, cfsm, state, present, values
    )
    if outcome.fired != ref.fired:
        bad("isa", "fired", f"got {outcome.fired}, want {ref.fired}")
    isa_state = {v.name: outcome.memory.get(v.name, 0) for v in cfsm.state_vars}
    if isa_state != ref.new_state:
        bad("isa", "state", f"got {isa_state}, want {ref.new_state}")
    isa_emissions = _emissions_dict(outcome.emissions)
    if isa_emissions != ref_emissions:
        bad("isa", "emissions", f"got {isa_emissions}, want {ref_emissions}")

    # Cycle bounds (Table I soundness) ---------------------------------
    meas, est = artifacts.meas, artifacts.est
    if not meas.min_cycles <= outcome.cycles <= meas.max_cycles:
        bad(
            "analysis",
            "cycle-bounds",
            f"measured {outcome.cycles} outside exact "
            f"[{meas.min_cycles}, {meas.max_cycles}]",
        )
    tol = opts.est_tolerance
    lo = est.min_cycles * (1.0 - tol)
    hi = est.max_cycles * (1.0 + tol)
    if not lo <= outcome.cycles <= hi:
        bad(
            "estimation",
            "cycle-bounds",
            f"measured {outcome.cycles} outside estimated "
            f"[{est.min_cycles}, {est.max_cycles}] "
            f"with tolerance {tol:g}",
        )
    return mismatches


def check_case(
    cfsm: Cfsm,
    snapshots: List[Snapshot],
    options: Optional[OracleOptions] = None,
    index: int = 0,
    stop_at_first: bool = False,
) -> CaseReport:
    """Check every snapshot of one case; build artifacts exactly once."""
    options = options or OracleOptions()
    report = CaseReport(index=index, name=cfsm.name)
    try:
        artifacts = build_case_artifacts(cfsm, options)
    except ConsistencyError as exc:
        report.skipped = f"inconsistent: {exc}"
        return report
    except CInterpError as exc:
        # The generated C failed to parse at all: every snapshot would
        # fail identically, so report it once as a case-level mismatch.
        report.mismatches.append(Mismatch("cgen", "parse", None, str(exc)))
        return report
    report.estimate = bound_figures(artifacts.est)
    report.measured = bound_figures(artifacts.meas)
    for i, snapshot in enumerate(snapshots):
        report.reactions += 1
        report.mismatches.extend(check_reaction(artifacts, snapshot, i))
        if stop_at_first and report.mismatches:
            break
    return report
