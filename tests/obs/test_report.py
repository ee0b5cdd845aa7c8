"""The shared reporter behind ``repro report``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    RunTrace,
    render_build_report,
    render_report,
    render_run_report,
    report_file,
)
from repro.pipeline import BuildTrace


def build_doc():
    trace = BuildTrace()
    trace.record_pass("slowmod", "order", 9.0, {"chi_nodes": 40})
    trace.record_pass("fastmod", "order", 1.0, {"chi_nodes": 4})
    trace.record_cache("slowmod", "miss", "aa")
    trace.record_cache("fastmod", "hit", "bb")
    trace.record_stage("sys", "rtos", 2.0)
    return trace.to_dict()


def run_doc():
    run = RunTrace(system="demo", policy="static-priority")
    run.record(0, "dispatch", task="hog")
    run.record(900, "complete", task="hog", cycles=900)
    run.record(900, "dispatch", task="mouse")
    run.record(1000, "complete", task="mouse", cycles=100)
    run.record(1000, "lost", event="tick", task="mouse", where="flags")
    run.record(1000, "emit", event="out", by="mouse")
    run.finalize(
        {"utilization": 0.5, "span": 2000},
        [{"source": "tick", "sink": "out",
          "samples": [10, 20, 30, 40], "count": 4}],
    )
    return run.to_dict()


class TestBuildReport:
    def test_mentions_cache_rate_and_slowest_pass_first(self):
        text = render_build_report(build_doc())
        assert "1 hits / 1 misses (50% hit rate)" in text
        # Slowest pass leads the top-N table.
        assert text.index("slowmod") < text.index("fastmod")
        assert "chi_nodes=40" in text
        assert "wall time by stage" in text

    def test_top_limits_rows(self):
        text = render_build_report(build_doc(), top=1)
        assert "top 1 slowest passes" in text
        table = text.split("slowest passes:")[1].split("wall time")[0]
        assert "fastmod" not in table


class TestRunReport:
    def test_cpu_share_lost_table_and_probes(self):
        text = render_run_report(run_doc())
        assert "run trace: demo (static-priority)" in text
        assert "CPU utilization: 50.00%" in text
        # hog occupied 90% of busy cycles and sorts first.
        hog_line = next(
            ln for ln in text.splitlines() if ln.strip().startswith("hog")
        )
        assert "90.0%" in hog_line
        assert "lost events (1 overwrites):" in text
        assert "tick" in text
        assert "p50=20" in text and "p90=40" in text

    def test_probe_without_samples(self):
        run = RunTrace(system="s", policy="p")
        run.finalize({}, [{"source": "a", "sink": "b", "samples": []}])
        assert "a -> b: no samples" in render_run_report(run.to_dict())


class TestDispatchAndFile:
    def test_render_report_routes_by_format(self):
        assert render_report(build_doc()).startswith("== build trace")
        assert render_report(run_doc()).startswith("== run trace")
        with pytest.raises(ValueError, match="unknown trace format"):
            render_report({"format": "?"})

    def test_report_file_validates_by_default(self, tmp_path):
        path = tmp_path / "run.json"
        run = RunTrace.from_dict(run_doc())
        run.write(str(path))
        assert "run trace: demo" in report_file(str(path))

        broken = run_doc()
        broken["events"][0]["kind"] = "teleport"
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="invalid trace"):
            report_file(str(bad))
        # Validation can be bypassed; rendering tolerates the junk event.
        assert "run trace" in report_file(str(bad), validate=False)


class TestVerifyReport:
    def _doc(self):
        from .test_schema import valid_verify_doc

        return valid_verify_doc()

    def test_bounds_table_and_findings(self):
        from repro.obs import render_verify_report

        text = render_verify_report(self._doc())
        assert "static verify: d (sift, K11)" in text
        assert "per-module cycle bounds" in text
        assert "vf-est-bounds" in text or "boom" in text

    def test_clean_document_reports_no_findings(self):
        from repro.obs import render_verify_report

        doc = self._doc()
        doc["diagnostics"] = []
        doc["summary"].update(errors=0, exit_code=0)
        text = render_verify_report(doc)
        assert "no errors or warnings" in text

    def test_render_report_dispatch(self):
        from repro.obs import render_report

        assert "static verify" in render_report(self._doc())


class TestBddBenchReport:
    def _doc(self):
        from .test_schema import valid_bench_doc

        doc = valid_bench_doc()
        doc["sift"]["chi"] = {
            "wall_s": 0.03, "swaps": 1474, "swap_skips": 0, "collects": 3,
            "final_size": 86,
        }
        doc["reactive"] = {
            "modules": 17, "wall_s": 0.0326, "chi_size": 675,
            "ite_misses": 4596, "peak_nodes": 4794,
            "baseline": {"wall_s": 0.0524}, "speedup": 1.61,
        }
        doc["provenance"] = {
            "nproc": 2, "python": "3.11.7", "git_revision": "abc",
            "best_of": 5, "runs": 5,
        }
        return doc

    def test_every_section_is_shown(self):
        from repro.obs import render_bdd_bench

        text = render_bdd_bench(self._doc())
        assert text.startswith("== BDD engine bench (smoke)")
        assert "construction" in text and "12.0" in text
        stress = next(ln for ln in text.splitlines() if "stress" in ln)
        assert "3041" in stress and "1487" in stress and "3.46x" in stress
        chi = next(ln for ln in text.splitlines() if ln.strip().startswith("chi"))
        assert "1474" in chi and chi.rstrip().endswith("-")
        assert "reactive: 17 modules, chi 675 nodes, 4596 ITE misses" in text
        assert "(1.61x)" in text
        assert "nproc=2" in text and "runs=5" in text and "best_of=5" in text

    def test_engine_walls_are_shown(self):
        from repro.obs import render_bdd_bench

        doc = self._doc()
        doc["sift"]["chi"].update(python_wall_s=0.0295, engine_speedup=2.89)
        text = render_bdd_bench(doc)
        assert (
            "chi engines, interleaved: native 0.0300 s, python 0.0295 s (2.89x)"
            in text
        )
        assert "stress engines" not in text

    def test_dispatch_and_missing_provenance(self):
        doc = self._doc()
        del doc["provenance"], doc["reactive"]
        text = render_report(doc)
        assert text.startswith("== BDD engine bench")
        assert "provenance: not recorded" in text
        assert "reactive:" not in text


REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_BENCH = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_every_bench_format_is_committed():
    assert {p.name for p in COMMITTED_BENCH} >= {
        "BENCH_bdd.json", "BENCH_sim.json", "BENCH_serve.json",
    }


@pytest.mark.parametrize("path", COMMITTED_BENCH, ids=lambda p: p.name)
def test_committed_bench_document_renders(path):
    """``repro report`` validates and renders every committed document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(path)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("== ")
