"""Structural validators for the trace and benchmark document formats."""

import json
import os

import pytest

from repro.obs import (
    BDD_BENCH_FORMAT,
    RunTrace,
    assert_valid_trace,
    validate_bdd_bench,
    validate_build_trace,
    validate_run_trace,
    validate_trace,
)
from repro.pipeline import BuildTrace

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def valid_run_doc():
    run = RunTrace(system="s", policy="round-robin")
    run.record(10, "stimulus", event="go")
    run.record(10, "dispatch", task="t")
    run.record(50, "complete", task="t", cycles=40)
    run.finalize({"reactions": 1}, [])
    return run.to_dict()


def valid_build_doc():
    trace = BuildTrace()
    trace.record_pass("m1", "order", 1.0, {"chi_nodes": 3})
    trace.record_cache("m1", "hit", "ff")
    return trace.to_dict()


class TestRunTraceValidation:
    def test_valid_document_has_no_errors(self):
        assert validate_run_trace(valid_run_doc()) == []

    def test_wrong_format(self):
        doc = valid_run_doc()
        doc["format"] = "nope"
        assert any("format" in e for e in validate_run_trace(doc))

    def test_negative_and_backward_timestamps(self):
        doc = valid_run_doc()
        doc["events"][0]["t"] = -5
        errors = validate_run_trace(doc)
        assert any("non-negative" in e for e in errors)
        doc = valid_run_doc()
        doc["events"][2]["t"] = 1  # before the dispatch at t=10
        assert any("backwards" in e for e in validate_run_trace(doc))

    def test_unknown_kind_and_missing_fields(self):
        doc = valid_run_doc()
        doc["events"][0]["kind"] = "teleport"
        assert any("unknown kind" in e for e in validate_run_trace(doc))
        doc = valid_run_doc()
        del doc["events"][1]["task"]
        assert any("missing 'task'" in e for e in validate_run_trace(doc))

    def test_lost_where_is_constrained(self):
        run = RunTrace(system="s", policy="p")
        run.record(1, "lost", event="e", task="t", where="elsewhere")
        run.finalize({})
        assert any("flags/pending" in e for e in validate_run_trace(run.to_dict()))

    def test_summary_event_count_must_match(self):
        doc = valid_run_doc()
        doc["summary"]["events"] = 99
        assert any("summary.events" in e for e in validate_run_trace(doc))

    def test_missing_stats_and_probes(self):
        doc = valid_run_doc()
        del doc["stats"]
        del doc["probes"]
        errors = validate_run_trace(doc)
        assert any("stats" in e for e in errors)
        assert any("probes" in e for e in errors)


class TestBuildTraceValidation:
    def test_valid_document_has_no_errors(self):
        assert validate_build_trace(valid_build_doc()) == []

    def test_cache_status_constrained(self):
        doc = valid_build_doc()
        doc["events"][1]["status"] = "warm"
        assert any("hit/miss" in e for e in validate_build_trace(doc))

    def test_summary_event_count_must_match(self):
        doc = valid_build_doc()
        doc["summary"]["events"] = 0
        assert any("summary.events" in e for e in validate_build_trace(doc))


def valid_bench_doc():
    return {
        "format": BDD_BENCH_FORMAT,
        "smoke": True,
        "workloads": {
            "construction": {"ops": 3, "wall_s": 0.25, "ops_per_sec": 12.0},
        },
        "sift": {
            "stress": {
                "wall_s": 1.2,
                "swaps": 3041,
                "swap_skips": 0,
                "collects": 5,
                "final_size": 1487,
                "baseline": {"wall_s": 4.26, "swaps": 3041, "final_size": 1487},
                "speedup": 3.46,
            },
        },
        "counters": {"ite_cache_hits": 10, "ite_cache_misses": 4},
        "store": {
            "allocated_slots": 1500.0,
            "allocated_nodes": 1480.0,
            "store_bytes": 120000.0,
            "bytes_per_node": 81.1,
            "complemented_lo_edges": 64.0,
            "complement_edge_share": 0.043,
        },
    }


class TestBddBenchValidation:
    def test_valid_document_has_no_errors(self):
        assert validate_bdd_bench(valid_bench_doc()) == []

    def test_wrong_format_and_missing_sections(self):
        doc = valid_bench_doc()
        doc["format"] = "nope"
        assert any("format" in e for e in validate_bdd_bench(doc))
        doc = valid_bench_doc()
        del doc["sift"]
        assert any("sift" in e for e in validate_bdd_bench(doc))

    def test_sift_counters_must_be_non_negative_ints(self):
        doc = valid_bench_doc()
        doc["sift"]["stress"]["swaps"] = -1
        assert any("swaps" in e for e in validate_bdd_bench(doc))
        doc = valid_bench_doc()
        doc["sift"]["stress"]["collects"] = 2.5
        assert any("collects" in e for e in validate_bdd_bench(doc))

    def test_swap_skips_is_a_gated_counter(self):
        doc = valid_bench_doc()
        del doc["sift"]["stress"]["swap_skips"]
        assert any("swap_skips" in e for e in validate_bdd_bench(doc))

    def test_store_section_required_and_bounded(self):
        doc = valid_bench_doc()
        del doc["store"]
        assert any("store" in e for e in validate_bdd_bench(doc))
        doc = valid_bench_doc()
        doc["store"]["bytes_per_node"] = -1
        assert any("bytes_per_node" in e for e in validate_bdd_bench(doc))
        doc = valid_bench_doc()
        doc["store"]["complement_edge_share"] = 1.5
        assert any("complement_edge_share" in e for e in validate_bdd_bench(doc))

    def test_baseline_requires_speedup(self):
        doc = valid_bench_doc()
        del doc["sift"]["stress"]["speedup"]
        assert any("speedup" in e for e in validate_bdd_bench(doc))

    def test_workload_fields(self):
        doc = valid_bench_doc()
        doc["workloads"]["construction"]["ops"] = 0
        assert any("ops" in e for e in validate_bdd_bench(doc))

    def test_reactive_and_provenance_are_optional_but_checked(self):
        doc = valid_bench_doc()
        doc["reactive"] = {
            "modules": 17, "wall_s": 0.03, "chi_size": 675,
            "ite_misses": 4596, "peak_nodes": 4794,
            "baseline": {"wall_s": 0.06}, "speedup": 2.0,
        }
        doc["provenance"] = {
            "nproc": 2, "python": "3.12.1", "git_revision": None, "best_of": 5,
        }
        assert validate_bdd_bench(doc) == []
        bad = json.loads(json.dumps(doc))
        bad["reactive"]["ite_misses"] = -1
        del bad["reactive"]["speedup"]
        errors = validate_bdd_bench(bad)
        assert any("ite_misses" in e for e in errors)
        assert any("speedup" in e for e in errors)
        bad = json.loads(json.dumps(doc))
        bad["provenance"]["nproc"] = 0
        bad["provenance"]["git_revision"] = 7
        errors = validate_bdd_bench(bad)
        assert any("nproc" in e for e in errors)
        assert any("git_revision" in e for e in errors)

    def test_provenance_runs_are_optional_but_checked(self):
        doc = valid_bench_doc()
        doc["provenance"] = {
            "nproc": 2, "python": "3.12.1", "git_revision": "abc", "best_of": 5,
        }
        assert validate_bdd_bench(doc) == []
        doc["provenance"]["runs"] = 5
        assert validate_bdd_bench(doc) == []
        doc["provenance"]["runs"] = 0
        assert any("provenance.runs" in e for e in validate_bdd_bench(doc))

    def test_engine_walls_are_optional_but_checked(self):
        doc = valid_bench_doc()
        doc["sift"]["stress"]["python_wall_s"] = 2.4
        doc["sift"]["stress"]["engine_speedup"] = 2.0
        assert validate_bdd_bench(doc) == []
        bad = json.loads(json.dumps(doc))
        del bad["sift"]["stress"]["engine_speedup"]
        assert any("engine_speedup" in e for e in validate_bdd_bench(bad))
        bad = json.loads(json.dumps(doc))
        bad["sift"]["stress"]["python_wall_s"] = -1
        assert any("python_wall_s" in e for e in validate_bdd_bench(bad))

    def test_committed_bench_document_is_valid(self):
        """BENCH_bdd.json at the repo root must always pass the schema."""
        path = os.path.join(REPO_ROOT, "BENCH_bdd.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_bdd_bench(doc) == []
        # The perf-trajectory contract: the stress scenario records the
        # pre-overhaul baseline next to the measured run, and the chi
        # scenario (the synthesis flow's own sift) its full-walk baseline.
        for name in ("stress", "chi"):
            scenario = doc["sift"][name]
            assert "baseline" in scenario and "speedup" in scenario, name
        # The chi scenario times the native kernel and the Python manager,
        # interleaved in one process.
        chi = doc["sift"]["chi"]
        assert chi["python_wall_s"] > 0 and chi["engine_speedup"] > 0
        # The reactive-construction scenario with its baseline, and where
        # the figures were taken.
        assert "baseline" in doc["reactive"] and "speedup" in doc["reactive"]
        assert doc["provenance"]["best_of"] >= 1
        # A full report's walls are medians of at least five best-of runs.
        assert not doc["smoke"] and doc["provenance"]["runs"] >= 5

    def test_committed_reference_counters_are_valid(self):
        path = os.path.join(
            REPO_ROOT, "benchmarks", "results", "bdd_engine_reference.json"
        )
        with open(path) as fh:
            ref = json.load(fh)
        for name, scenario in ref["sift"].items():
            for field in ("swaps", "swap_skips", "collects", "final_size"):
                assert isinstance(scenario[field], int), (name, field)
        # The interaction-matrix fast path must be non-vacuously gated
        # somewhere in the reference.
        assert any(sc["swap_skips"] > 0 for sc in ref["sift"].values())


class TestDispatch:
    def test_validate_trace_routes_by_format(self):
        assert validate_trace(valid_run_doc()) == []
        assert validate_trace(valid_build_doc()) == []
        assert validate_trace(valid_bench_doc()) == []
        assert validate_trace({"format": "mystery"}) == [
            "unknown trace format 'mystery'"
        ]

    def test_assert_valid_trace(self):
        assert_valid_trace(valid_run_doc())  # no raise
        with pytest.raises(ValueError, match="invalid trace"):
            assert_valid_trace({"format": "mystery"})


def valid_verify_doc():
    return {
        "format": "repro-verify-report/v1",
        "design": "d",
        "scheme": "sift",
        "profile": "K11",
        "summary": {
            "errors": 1,
            "warnings": 0,
            "infos": 0,
            "exit_code": 1,
            "modules": 1,
        },
        "modules": [
            {
                "module": "m",
                "estimate": {
                    "code_size": 10, "min_cycles": 5, "max_cycles": 9,
                },
                "measured": {
                    "code_size": 12, "min_cycles": 6, "max_cycles": 8,
                },
            }
        ],
        "diagnostics": [
            {
                "check": "vf-est-bounds",
                "severity": "error",
                "layer": "verify",
                "artifact": "m",
                "location": "",
                "message": "boom",
            }
        ],
    }


class TestVerifyReportValidation:
    def test_valid_document_has_no_errors(self):
        from repro.obs import validate_verify_report

        assert validate_verify_report(valid_verify_doc()) == []

    def test_wrong_format(self):
        from repro.obs import validate_verify_report

        doc = valid_verify_doc()
        doc["format"] = "repro-verify-report/v2"
        assert validate_verify_report(doc)

    def test_severity_counts_cross_checked(self):
        from repro.obs import validate_verify_report

        doc = valid_verify_doc()
        doc["summary"]["errors"] = 2
        errors = validate_verify_report(doc)
        assert any("error" in e for e in errors)

    def test_module_count_cross_checked(self):
        from repro.obs import validate_verify_report

        doc = valid_verify_doc()
        doc["summary"]["modules"] = 5
        assert validate_verify_report(doc)

    def test_bound_tables_must_be_ordered_ints(self):
        from repro.obs import validate_verify_report

        doc = valid_verify_doc()
        doc["modules"][0]["measured"]["min_cycles"] = 99
        assert validate_verify_report(doc)
        doc = valid_verify_doc()
        doc["modules"][0]["estimate"]["code_size"] = "ten"
        assert validate_verify_report(doc)

    def test_diagnostic_enums_constrained(self):
        from repro.obs import validate_verify_report

        doc = valid_verify_doc()
        doc["diagnostics"][0]["severity"] = "fatal"
        assert validate_verify_report(doc)
        doc = valid_verify_doc()
        doc["diagnostics"][0]["layer"] = "bytecode"
        assert validate_verify_report(doc)

    def test_dispatches_through_validate_trace(self):
        assert validate_trace(valid_verify_doc()) == []
        assert_valid_trace(valid_verify_doc())


def valid_sim_doc():
    return {
        "format": "repro-sim-bench/v1",
        "smoke": True,
        "network": "dashboard",
        "instances": 4096,
        "steps": 200,
        "kernel_ops": 1161,
        "scalar": {
            "reactions": 1600, "wall_s": 0.07, "reactions_per_sec": 23000.0,
        },
        "backends": {
            "int": {
                "reactions": 819198, "wall_s": 0.09,
                "reactions_per_sec": 9000000.0, "speedup": 385.0,
            },
        },
        "crosscheck": {"lanes": 16, "mismatches": 0},
        "determinism": {
            "jobs1_digest": "aa", "jobs4_digest": "aa", "match": True,
        },
    }


class TestSimBenchValidation:
    def test_valid_document_has_no_errors(self):
        from repro.obs import validate_sim_bench

        assert validate_sim_bench(valid_sim_doc()) == []

    def test_provenance_is_optional_but_checked(self):
        from repro.obs import validate_sim_bench

        doc = valid_sim_doc()
        doc["provenance"] = {
            "nproc": 2, "python": "3.12.1", "git_revision": None,
            "repetitions": 1,
        }
        assert validate_sim_bench(doc) == []
        from repro.obs import render_report

        assert "repetitions=1" in render_report(doc).splitlines()[-1]
        doc["provenance"]["repetitions"] = 0
        doc["provenance"]["python"] = 3
        errors = validate_sim_bench(doc)
        assert any("provenance.repetitions" in e for e in errors)
        assert any("provenance.python" in e for e in errors)
        doc["provenance"] = []
        assert "'provenance' is not an object" in validate_sim_bench(doc)

    def test_native_leg_carries_its_engine_speedup(self):
        from repro.obs import render_report, validate_sim_bench

        doc = valid_sim_doc()
        doc["backends"]["native"] = {
            "reactions": 819198, "wall_s": 0.02,
            "reactions_per_sec": 40000000.0, "speedup": 1700.0,
            "engine_speedup": 4.5,
        }
        doc["provenance"] = {
            "nproc": 2, "python": "3.12.1", "git_revision": None,
            "repetitions": 1, "best_of": 5, "rounds": 5,
        }
        assert validate_sim_bench(doc) == []
        (row,) = [
            line for line in render_report(doc).splitlines()
            if "fleet/native" in line
        ]
        assert row.endswith("4.50x")
        doc["backends"]["native"]["engine_speedup"] = "fast"
        doc["provenance"]["rounds"] = 0
        errors = validate_sim_bench(doc)
        assert any("engine_speedup" in e for e in errors)
        assert any("provenance.rounds" in e for e in errors)

    def test_kernel_compile_is_optional_but_checked(self):
        from repro.obs import render_report, validate_sim_bench

        doc = valid_sim_doc()
        doc["kernel_compile"] = {"wall_s": 0.0116}
        assert validate_sim_bench(doc) == []
        (row,) = [
            line for line in render_report(doc).splitlines()
            if "kernel compile" in line
        ]
        assert "11.60 ms" in row
        doc["kernel_compile"]["wall_s"] = -1.0
        assert any("kernel_compile.wall_s" in e for e in validate_sim_bench(doc))
        del doc["kernel_compile"]["wall_s"]
        assert any("kernel_compile.wall_s" in e for e in validate_sim_bench(doc))
        doc["kernel_compile"] = 0.0116
        assert "'kernel_compile' is not an object" in validate_sim_bench(doc)

    def test_wrong_format_and_missing_sections(self):
        from repro.obs import validate_sim_bench

        doc = valid_sim_doc()
        doc["format"] = "repro-sim-bench/v0"
        assert any("format" in e for e in validate_sim_bench(doc))
        doc = valid_sim_doc()
        del doc["backends"]
        assert any("backends" in e for e in validate_sim_bench(doc))
        doc = valid_sim_doc()
        doc["backends"] = {}
        assert any("backends" in e for e in validate_sim_bench(doc))

    def test_leg_fields_required(self):
        from repro.obs import validate_sim_bench

        doc = valid_sim_doc()
        del doc["scalar"]["reactions_per_sec"]
        assert any("reactions_per_sec" in e for e in validate_sim_bench(doc))
        doc = valid_sim_doc()
        del doc["backends"]["int"]["speedup"]
        assert any("speedup" in e for e in validate_sim_bench(doc))
        doc = valid_sim_doc()
        doc["backends"]["int"]["wall_s"] = -1
        assert any("wall_s" in e for e in validate_sim_bench(doc))

    def test_crosscheck_and_determinism_required(self):
        from repro.obs import validate_sim_bench

        doc = valid_sim_doc()
        doc["crosscheck"]["mismatches"] = -1
        assert any("mismatches" in e for e in validate_sim_bench(doc))
        doc = valid_sim_doc()
        del doc["determinism"]["match"]
        assert any("match" in e for e in validate_sim_bench(doc))

    def test_dispatches_and_renders(self):
        from repro.obs import render_report

        assert validate_trace(valid_sim_doc()) == []
        assert_valid_trace(valid_sim_doc())
        text = render_report(valid_sim_doc())
        assert "fleet simulation bench" in text
        assert "385.0x" in text

    def test_committed_bench_sim_document_is_valid_and_meets_gate(self):
        """The committed BENCH_sim.json must validate and hold the
        acceptance figures: >= 4096-instance fleet, >= 20x int-backend
        speedup, every sampled lane bit-identical, digests job-invariant.
        """
        from repro.obs import validate_sim_bench

        path = os.path.join(REPO_ROOT, "BENCH_sim.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_sim_bench(doc) == []
        assert doc["instances"] >= 4096
        assert doc["backends"]["int"]["speedup"] >= 20.0
        assert doc["crosscheck"]["lanes"] > 0
        assert doc["crosscheck"]["mismatches"] == 0
        assert doc["determinism"]["match"]
        assert doc["provenance"]["repetitions"] >= 1
