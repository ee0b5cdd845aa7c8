"""Declarative validation of the trace and benchmark document formats.

The container ships no JSON-Schema dependency, so each document format —
the build and run traces, the three ``BENCH_*.json`` reports, the
bench-history trend, the fuzz report and replay, and the verify report —
is one spec table built from a few rule kinds:

* typed leaves (a string, a boolean, an integer or number with a bound);
  a boolean never counts as a number;
* :class:`Obj`: an object with required fields (absent is an error),
  optional fields (absent is fine, present is checked) and one rule for
  every entry, optionally from a fixed set of keys;
* :class:`ListOf` and :class:`Enum`;
* :class:`Nullable`: ``null`` counts as absent.

Checks that relate fields to each other stay code, as hooks on the
object that holds them: the span-link tree, run-event timestamps and
per-kind fields, the ``summary`` counts, ordered percentiles and cycle
bounds, the baseline→speedup and python-wall→engine-speedup pairs, and
the severity and failing-check counts.

Every validator returns a list of error strings (empty means valid), so
CI can print every problem at once; :func:`assert_valid_trace` wraps them
in a raising form.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .runtrace import RUN_EVENT_KINDS, RUN_TRACE_FORMAT

__all__ = [
    "validate_build_trace", "validate_run_trace", "validate_bdd_bench",
    "validate_sim_bench", "validate_serve_bench", "validate_bench_history",
    "validate_difftest_report", "validate_difftest_repro",
    "validate_verify_report", "validate_trace", "assert_valid_trace",
    "BUILD_TRACE_FORMAT", "BDD_BENCH_FORMAT", "SIM_BENCH_FORMAT",
    "SERVE_BENCH_FORMAT", "BENCH_HISTORY_FORMAT", "DIFFTEST_REPORT_FORMAT",
    "DIFFTEST_REPRO_FORMAT", "VERIFY_REPORT_FORMAT", "FORMATS",
]

BUILD_TRACE_FORMAT = "repro-build-trace/v1"
BDD_BENCH_FORMAT = "repro-bdd-bench/v2"
SIM_BENCH_FORMAT = "repro-sim-bench/v1"
SERVE_BENCH_FORMAT = "repro-serve-bench/v1"
BENCH_HISTORY_FORMAT = "repro-bench-history/v1"
DIFFTEST_REPORT_FORMAT = "repro-difftest/v1"
DIFFTEST_REPRO_FORMAT = "repro-difftest-repro/v1"
VERIFY_REPORT_FORMAT = "repro-verify-report/v1"

_DIFFTEST_LAYERS = (
    "reference", "bdd", "sgraph", "cgen", "isa", "analysis", "estimation",
)
_VERIFY_SEVERITIES = ("error", "warning", "info")
_VERIFY_LAYERS = ("network", "sgraph", "codegen", "verify", "verify-network")

#: Per-kind required data fields of a run-trace event.
_RUN_REQUIRED_FIELDS = {
    "stimulus": ("event",), "dispatch": ("task",), "preempt": ("task", "by"),
    "resume": ("task",), "complete": ("task", "cycles"), "isr": ("event",),
    "isr_dispatch": ("task", "cycles"), "emit": ("event", "by"),
    "react": ("machine", "task", "fired", "consumed"),
    "lost": ("event", "task", "where"), "poll": ("events",),
}

Errors = List[str]
Hook = Callable[[Dict[str, Any], str, Errors], None]


# ----------------------------------------------------------------------
# The rule engine
# ----------------------------------------------------------------------


def _label(where: str) -> str:
    """How an error names a value: ``'key'`` at the top level, else its
    path (``a.b``, ``a['entry']``, ``a[0]``)."""
    if not where:
        return "document"
    return f"'{where}'" if where.isidentifier() else where


def _field(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


class Leaf:
    """A typed leaf: ``test`` decides, ``what`` names the expectation."""

    def __init__(self, what: str, test: Callable[[Any], bool]) -> None:
        self.what = what
        self.test = test

    def check(self, value: Any, where: str, errors: Errors) -> None:
        if not self.test(value):
            errors.append(f"{_label(where)} must be {self.what}")


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


ANY = Leaf("anything", lambda v: True)
STR = Leaf("a string", lambda v: isinstance(v, str))
BOOL = Leaf("a boolean", lambda v: isinstance(v, bool))
NUM = Leaf("a number", _is_num)
NONNEG = Leaf("a non-negative number", lambda v: _is_num(v) and not v < 0)
POSITIVE = Leaf("a positive number", lambda v: _is_num(v) and not v <= 0)
SHARE = Leaf("a number in [0, 1]", lambda v: _is_num(v) and 0 <= v <= 1)
INT = Leaf("an integer", _is_int)
COUNT = Leaf("a non-negative integer", lambda v: _is_int(v) and v >= 0)
POS_INT = Leaf("a positive integer", lambda v: _is_int(v) and v > 0)


class Enum:
    """One of a fixed tuple of values (compared, never hashed)."""

    def __init__(self, *choices: Any) -> None:
        self.choices = choices

    def check(self, value: Any, where: str, errors: Errors) -> None:
        if value not in self.choices:
            noun = where.rsplit(".", 1)[-1]
            errors.append(f"{_label(where)}: unknown {noun} {value!r}")


class Nullable:
    """``null`` counts as absent; anything else must pass ``rule``."""

    def __init__(self, rule: Any) -> None:
        self.rule = rule

    def check(self, value: Any, where: str, errors: Errors) -> None:
        if value is not None:
            self.rule.check(value, where, errors)


class ListOf:
    """A list, optionally non-empty, whose every item passes ``item``."""

    def __init__(self, item: Any = ANY, nonempty: bool = False) -> None:
        self.item = item
        self.nonempty = nonempty

    def check(self, value: Any, where: str, errors: Errors) -> None:
        if not isinstance(value, list):
            errors.append(f"{_label(where)} is not a list")
            return
        if self.nonempty and not value:
            errors.append(f"{_label(where)} is empty")
        if self.item is not ANY:
            for i, item in enumerate(value):
                self.item.check(item, f"{where}[{i}]", errors)


class Obj:
    """An object: required and optional fields, a rule for every entry
    (``each``, from ``keys`` when given), and a cross-field ``hook`` run
    once the value is known to be an object."""

    def __init__(
        self,
        required: Optional[Mapping[str, Any]] = None,
        optional: Optional[Mapping[str, Any]] = None,
        each: Any = None,
        keys: Optional[Sequence[str]] = None,
        nonempty: bool = False,
        hook: Optional[Hook] = None,
    ) -> None:
        self.required = dict(required or {})
        self.optional = dict(optional or {})
        self.each = each
        self.keys = keys
        self.nonempty = nonempty
        self.hook = hook

    def check(self, value: Any, where: str, errors: Errors) -> None:
        if not isinstance(value, dict):
            errors.append(f"{_label(where)} is not an object")
            return
        if self.nonempty and not value:
            errors.append(f"{_label(where)} is empty")
        for key, rule in self.required.items():
            if key in value:
                rule.check(value[key], _field(where, key), errors)
            else:
                errors.append(f"{_label(_field(where, key))} is missing")
        for key, rule in self.optional.items():
            if key in value:
                rule.check(value[key], _field(where, key), errors)
        if self.keys is not None:
            for key in value:
                if key not in self.keys:
                    errors.append(f"{_label(where)}: unknown key {key!r}")
        if self.each is not None:
            for key, item in value.items():
                self.each.check(item, f"{where}[{key!r}]", errors)
        if self.hook is not None:
            self.hook(value, where, errors)

    def errors(self, doc: Any) -> Errors:
        found: Errors = []
        self.check(doc, "", found)
        return found


def _document(fmt: str, hook: Optional[Hook] = None,
              optional: Optional[Mapping[str, Any]] = None,
              **required: Any) -> Obj:
    """A top-level spec: the ``format`` tag plus ``required`` fields."""
    return Obj(dict(format=Enum(fmt), **required), optional, hook=hook)


def _summary_count(doc: Dict[str, Any], key: str, count: int, what: str,
                   errors: Errors, strict: bool = True) -> None:
    """``summary.key`` must equal ``count``; unless ``strict``, only an
    integer there is compared."""
    summary = doc.get("summary")
    value = summary.get(key) if isinstance(summary, dict) else count
    if (strict or _is_int(value)) and value != count:
        errors.append(f"summary.{key}={value} but {count} {what} present")


def _listed(doc: Dict[str, Any], key: str) -> List[Any]:
    value = doc.get(key)
    return value if isinstance(value, list) else []


# ----------------------------------------------------------------------
# Cross-field hooks
# ----------------------------------------------------------------------


def _is_hex(value: Any, width: int) -> bool:
    if not isinstance(value, str) or len(value) != width:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def _span_link_errors(doc: Dict[str, Any], events: List[Any]) -> Errors:
    """Causal-link checks of a build trace carrying a ``trace_id``.

    Every event must carry a unique 16-hex ``span_id``; every
    ``parent_id`` must name another span in the document; exactly the
    root span (``root_span_id``) may be parentless; and the parent links
    must form a rooted, acyclic tree.
    """
    errors: Errors = []
    if not _is_hex(doc.get("trace_id"), 32):
        errors.append("trace_id is not a 32-hex-char string")
    root = doc.get("root_span_id")
    if not _is_hex(root, 16):
        errors.append("root_span_id missing or not a 16-hex-char string")
    span_ids: Dict[str, int] = {}
    parents: Dict[str, str] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        where = f"events[{i}]"
        span_id = event.get("span_id")
        if not _is_hex(span_id, 16):
            errors.append(f"{where}: span_id missing or not 16 hex chars")
            continue
        if span_id in span_ids:
            errors.append(
                f"{where}: span_id {span_id} duplicates "
                f"events[{span_ids[span_id]}]"
            )
            continue
        span_ids[span_id] = i
        parent_id = event.get("parent_id")
        if parent_id is None:
            if span_id != root:
                errors.append(f"{where}: non-root span {span_id} has no parent")
        elif not _is_hex(parent_id, 16):
            errors.append(f"{where}: parent_id is not 16 hex chars")
        else:
            parents[span_id] = parent_id
    if isinstance(root, str) and root not in span_ids:
        errors.append(f"root_span_id {root} names no event")
    for span_id, parent_id in parents.items():
        if parent_id not in span_ids:
            errors.append(f"span {span_id}: parent {parent_id} names no event")
    # Cycle check over the parent pointers (a valid doc is a tree).
    state: Dict[str, int] = {}  # 1 = on path, 2 = done
    for start in parents:
        if state.get(start):
            continue
        path = []
        node = start
        while node in parents and state.get(node) is None:
            state[node] = 1
            path.append(node)
            node = parents[node]
            if state.get(node) == 1:
                errors.append(f"span link cycle through {node}")
                break
        for seen in path:
            state[seen] = 2
    return errors


def _build_event(event: Dict[str, Any], where: str, errors: Errors) -> None:
    if event.get("kind") == "cache" and event.get("status") not in ("hit", "miss"):
        errors.append(f"{where}: cache event status "
                      f"{event.get('status')!r} not hit/miss")


def _build_trace(doc: Dict[str, Any], where: str, errors: Errors) -> None:
    events = _listed(doc, "events")
    if "trace_id" in doc or "root_span_id" in doc:
        errors.extend(_span_link_errors(doc, events))
    _summary_count(doc, "events", len(events), "events", errors)


def _run_trace(doc: Dict[str, Any], where: str, errors: Errors) -> None:
    events = _listed(doc, "events")
    last_t = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        t = event.get("t")
        if _is_int(t) and t >= 0:
            if t < last_t:
                errors.append(f"events[{i}]: timestamp {t} goes backwards "
                              f"(previous {last_t})")
            last_t = t
        kind = event.get("kind")
        if kind not in RUN_EVENT_KINDS:
            continue
        for name in _RUN_REQUIRED_FIELDS[kind]:
            if name not in event:
                errors.append(f"events[{i}]: {kind} event missing {name!r}")
        if kind == "lost" and event.get("where") not in ("flags", "pending"):
            errors.append(f"events[{i}]: lost event 'where' must be "
                          f"flags/pending, got {event.get('where')!r}")
    _summary_count(doc, "events", len(events), "events", errors)


def _bench_scenario(sc: Dict[str, Any], where: str, errors: Errors) -> None:
    """A baseline needs a speedup; the Python-manager wall (timed
    interleaved with ``wall_s``) and its engine speedup come together."""
    if sc.get("baseline") is not None and not _is_num(sc.get("speedup")):
        errors.append(f"{where}: baseline present but no speedup")
    if ("python_wall_s" in sc) != ("engine_speedup" in sc):
        errors.append(f"{where}: python_wall_s and engine_speedup "
                      "must come together")


def _ordered(low: str, high: str) -> Hook:
    def hook(value: Dict[str, Any], where: str, errors: Errors) -> None:
        a, b = value.get(low), value.get(high)
        if _is_num(a) and _is_num(b) and a > b:
            errors.append(f"{where}: {low} > {high}")
    return hook


def _bench_history(doc: Dict[str, Any], where: str, errors: Errors) -> None:
    metrics = doc.get("metrics")
    count = len(metrics) if isinstance(metrics, dict) else 0
    _summary_count(doc, "metrics", count, "metrics", errors)
    checks = doc.get("checks")
    if checks is not None:
        # "missing" counts as failing: a benchmark silently dropping out
        # of CI must trip the gate.
        failing = sum(
            1 for check in (checks if isinstance(checks, list) else [])
            if isinstance(check, dict)
            and check.get("status") in ("fail", "missing")
        )
        _summary_count(doc, "failures", failing, "failing checks", errors)


def _difftest_report(doc: Dict[str, Any], where: str, errors: Errors) -> None:
    _summary_count(doc, "failures", len(_listed(doc, "failures")),
                   "failure entries", errors, strict=False)


def _verify_report(doc: Dict[str, Any], where: str, errors: Errors) -> None:
    _summary_count(doc, "modules", len(_listed(doc, "modules")),
                   "module entries", errors, strict=False)
    severities = [diag.get("severity") for diag in _listed(doc, "diagnostics")
                  if isinstance(diag, dict)]
    for severity in _VERIFY_SEVERITIES:
        _summary_count(doc, severity + "s", severities.count(severity),
                       f"{severity} diagnostics", errors, strict=False)


# ----------------------------------------------------------------------
# One spec per format
# ----------------------------------------------------------------------


def _provenance(*counts: str, optional: Sequence[str] = ()) -> Nullable:
    """A bench document's ``provenance``: host CPUs, Python version, git
    revision and its repetition ``counts``."""
    return Nullable(Obj(
        dict(nproc=POS_INT, python=STR, **{c: POS_INT for c in counts}),
        dict(git_revision=Nullable(STR), **{c: POS_INT for c in optional}),
    ))


def _scenario(*counters: str) -> Obj:
    """One timed bench scenario: wall, deterministic counters, baseline."""
    return Obj(
        dict(wall_s=NONNEG, **{c: COUNT for c in counters}),
        dict(baseline=Nullable(Obj(dict(wall_s=NUM))),
             python_wall_s=NONNEG, engine_speedup=NUM),
        hook=_bench_scenario,
    )


#: One timed simulation leg (the scalar baseline and every fleet backend)
#: and one timed serving leg.
_SIM_LEG = dict(reactions=COUNT, wall_s=NONNEG, reactions_per_sec=NUM)
_SERVE_LEG = dict(requests=POS_INT, wall_s=NONNEG, throughput_rps=NUM)

_BOUNDS = Obj(dict(code_size=INT, min_cycles=INT, max_cycles=INT),
              hook=_ordered("min_cycles", "max_cycles"))

_REPRO = _document(
    DIFFTEST_REPRO_FORMAT,
    cfsm=Obj(dict(name=STR, inputs=ListOf(), outputs=ListOf(),
                  state_vars=ListOf(), transitions=ListOf())),
    snapshots=ListOf(Obj(dict(state=Obj(), present=ListOf(), values=Obj())),
                   nonempty=True),
    failure=Obj(dict(layer=Enum(*_DIFFTEST_LAYERS))),
    origin=Obj(),
)

#: The spec of every registered format, keyed by its ``format`` tag.
FORMATS: Dict[str, Obj] = {
    BUILD_TRACE_FORMAT: _document(
        BUILD_TRACE_FORMAT, _build_trace,
        dict(metrics=Nullable(Obj(each=NUM))),
        events=ListOf(Obj(
            dict(module=STR, name=STR, kind=Enum("pass", "cache", "stage")),
            dict(wall_ms=NUM), hook=_build_event,
        )),
        summary=Obj(),
    ),
    RUN_TRACE_FORMAT: _document(
        RUN_TRACE_FORMAT, _run_trace,
        system=STR, policy=STR,
        events=ListOf(Obj(dict(t=COUNT, kind=Enum(*RUN_EVENT_KINDS)))),
        stats=Obj(),
        probes=ListOf(Obj(dict(source=ANY, sink=ANY, samples=ANY))),
        summary=Obj(),
    ),
    BDD_BENCH_FORMAT: _document(
        BDD_BENCH_FORMAT, None,
        dict(
            reactive=_scenario("modules", "chi_size", "ite_misses",
                               "peak_nodes"),
            # Steps timed on the native kernel and the Python manager.
            kernel=Obj(each=Obj(dict(wall_s=NONNEG, python_wall_s=NONNEG,
                                     kernel_speedup=NONNEG))),
            provenance=_provenance("best_of", optional=("runs",)),
        ),
        smoke=BOOL,
        workloads=Obj(each=Obj(dict(wall_s=NONNEG, ops=POS_INT,
                                    ops_per_sec=NUM))),
        # Counted, not timed: what the CI regression gate compares.
        sift=Obj(each=_scenario("swaps", "swap_skips", "collects",
                                "final_size"), nonempty=True),
        counters=Obj(each=NUM),
        # Memory footprint and complement-edge statistics: reported, never
        # gated (sys.getsizeof depends on the interpreter).
        store=Obj(dict(
            allocated_slots=NONNEG, allocated_nodes=NONNEG,
            store_bytes=NONNEG, bytes_per_node=NONNEG,
            complemented_lo_edges=NONNEG, complement_edge_share=SHARE,
        )),
    ),
    SIM_BENCH_FORMAT: _document(
        SIM_BENCH_FORMAT, None,
        dict(
            kernel_compile=Nullable(Obj(dict(wall_s=NONNEG))),
            provenance=_provenance("repetitions",
                                   optional=("best_of", "rounds")),
        ),
        smoke=BOOL, network=STR,
        instances=POS_INT, steps=POS_INT, kernel_ops=POS_INT,
        scalar=Obj(_SIM_LEG),
        backends=Obj(each=Obj(dict(_SIM_LEG, speedup=NUM),
                              dict(engine_speedup=POSITIVE)), nonempty=True),
        crosscheck=Obj(dict(lanes=COUNT, mismatches=COUNT)),
        determinism=Obj(dict(jobs1_digest=STR, jobs4_digest=STR,
                             match=BOOL)),
    ),
    SERVE_BENCH_FORMAT: _document(
        SERVE_BENCH_FORMAT, None,
        dict(provenance=_provenance("repetitions")),
        smoke=BOOL,
        config=Obj(dict(jobs=POS_INT, queue_depth=POS_INT, clients=POS_INT)),
        latency=Obj(each=Obj(
            dict(_SERVE_LEG, p50_ms=NONNEG, p90_ms=NONNEG, p99_ms=NONNEG),
            hook=_ordered("p50_ms", "p99_ms"),
        ), nonempty=True),
        cache=Obj(dict(cold=Obj(_SERVE_LEG), warm=Obj(_SERVE_LEG),
                       warm_over_cold=POSITIVE)),
        conformance=Obj(dict(requests=POS_INT, mismatches=COUNT)),
        backpressure=Obj(dict(attempts=POS_INT, rejected=COUNT,
                              retry_after_ms=NONNEG)),
        soak=Obj(dict(requests=POS_INT, errors=COUNT, leaked_workers=COUNT,
                      pin_files=COUNT)),
    ),
    BENCH_HISTORY_FORMAT: _document(
        BENCH_HISTORY_FORMAT, _bench_history,
        dict(checks=Nullable(ListOf(Obj(dict(
            metric=STR, status=Enum("ok", "fail", "missing")))))),
        sources=ListOf(STR),
        metrics=Obj(each=NUM),
        summary=Obj(),
    ),
    DIFFTEST_REPORT_FORMAT: _document(
        DIFFTEST_REPORT_FORMAT, _difftest_report,
        seed=INT,
        summary=Obj(
            dict(cases=COUNT, reactions=COUNT, failures=COUNT, skipped=COUNT),
            dict(mismatches_by_layer=Obj(keys=_DIFFTEST_LAYERS)),
        ),
        failures=ListOf(Obj(
            dict(index=INT, mismatches=ListOf(Obj(dict(
                layer=Enum(*_DIFFTEST_LAYERS), kind=STR)), nonempty=True)),
            dict(repro=Nullable(_REPRO)),
        )),
    ),
    DIFFTEST_REPRO_FORMAT: _REPRO,
    VERIFY_REPORT_FORMAT: _document(
        VERIFY_REPORT_FORMAT, _verify_report,
        design=STR, scheme=STR, profile=STR,
        summary=Obj(dict(errors=COUNT, warnings=COUNT, infos=COUNT,
                         exit_code=COUNT, modules=COUNT)),
        modules=ListOf(Obj(dict(module=STR, estimate=_BOUNDS,
                              measured=_BOUNDS))),
        diagnostics=ListOf(Obj(dict(
            check=STR, severity=Enum(*_VERIFY_SEVERITIES),
            layer=Enum(*_VERIFY_LAYERS), artifact=STR, message=STR,
        ))),
    ),
}


def _validator(fmt: str, what: str) -> Callable[[Any], Errors]:
    def validate(doc: Any) -> Errors:
        return FORMATS[fmt].errors(doc)

    validate.__doc__ = f"Structural check of a ``{fmt}`` {what}."
    return validate


validate_build_trace = _validator(BUILD_TRACE_FORMAT, "document")
validate_run_trace = _validator(RUN_TRACE_FORMAT, "document")
validate_bdd_bench = _validator(BDD_BENCH_FORMAT, "report (BENCH_bdd.json)")
validate_sim_bench = _validator(SIM_BENCH_FORMAT, "report (BENCH_sim.json)")
validate_serve_bench = _validator(SERVE_BENCH_FORMAT,
                                  "report (BENCH_serve.json)")
validate_bench_history = _validator(BENCH_HISTORY_FORMAT, "trend document")
validate_difftest_report = _validator(DIFFTEST_REPORT_FORMAT,
                                      "fuzz-campaign report")
validate_difftest_repro = _validator(DIFFTEST_REPRO_FORMAT, "replay document")
validate_verify_report = _validator(VERIFY_REPORT_FORMAT, "document")


def validate_trace(doc: Dict[str, Any]) -> Errors:
    """Dispatch on the document's ``format`` field."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    fmt = doc.get("format")
    spec = FORMATS.get(fmt) if isinstance(fmt, str) else None
    if spec is None:
        return [f"unknown trace format {fmt!r}"]
    return spec.errors(doc)


def assert_valid_trace(doc: Dict[str, Any]) -> None:
    errors = validate_trace(doc)
    if errors:
        raise ValueError(
            "invalid trace document:\n" + "\n".join(f"  - {e}" for e in errors)
        )
