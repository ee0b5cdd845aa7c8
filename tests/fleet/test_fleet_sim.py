"""Fleet simulator: lane-exact semantics, seeded determinism, sharding.

The load-bearing contract: every lane of a batched run is bit-for-bit
the trajectory the scalar :class:`NetworkSimulator` produces under the
same stimulus — and the result is invariant under ``--jobs``.
"""

import pytest

from repro.apps import dashboard_network
from repro.fleet import (
    EventStimulus,
    FleetConfig,
    StimulusSpec,
    check_lanes,
    compile_network,
    default_spec,
    random_campaign,
    run_fleet,
    shard_seed,
)


@pytest.fixture(scope="module")
def dashboard():
    return dashboard_network()


@pytest.fixture(scope="module")
def compiled(dashboard):
    return compile_network(dashboard)


class TestLaneExactness:
    def test_every_dashboard_lane_matches_scalar(self, dashboard, compiled):
        config = FleetConfig(instances=48, steps=30, seed=7)
        mismatches = check_lanes(
            dashboard, config, range(48), compiled=compiled
        )
        assert mismatches == []

    def test_multi_shard_lanes_match_scalar(self, dashboard, compiled):
        """Lanes in later shards replay their own shard's stream."""
        config = FleetConfig(
            instances=96, steps=20, seed=3, lanes_per_shard=32
        )
        sample = [0, 31, 32, 63, 64, 95]
        mismatches = check_lanes(
            dashboard, config, sample, compiled=compiled
        )
        assert mismatches == []


class TestDeterminism:
    def test_jobs_do_not_change_the_fleet(self, dashboard, compiled):
        """Sharding is fixed blocks independent of the worker count, so
        --jobs 1 and --jobs 4 runs are digest-identical."""
        results = {}
        for jobs in (1, 4):
            config = FleetConfig(
                instances=96, steps=25, seed=11, jobs=jobs,
                lanes_per_shard=32,
            )
            results[jobs] = run_fleet(dashboard, config, compiled=compiled)
        assert results[1]["digest"] == results[4]["digest"]
        assert results[1]["reactions"] == results[4]["reactions"]
        assert results[1]["lost_events"] == results[4]["lost_events"]
        assert results[1]["env_emitted"] == results[4]["env_emitted"]

    def test_same_seed_replays_identically(self, dashboard, compiled):
        config = FleetConfig(instances=64, steps=25, seed=5)
        first = run_fleet(dashboard, config, compiled=compiled)
        second = run_fleet(dashboard, config, compiled=compiled)
        assert first["digest"] == second["digest"]

    def test_different_seeds_diverge(self, dashboard, compiled):
        runs = [
            run_fleet(
                dashboard,
                FleetConfig(instances=64, steps=25, seed=seed),
                compiled=compiled,
            )
            for seed in (5, 6)
        ]
        assert runs[0]["digest"] != runs[1]["digest"]

    @pytest.mark.parametrize(
        "instances, steps, lanes_per_shard, digest",
        [
            # BENCH_sim.json's determinism digest (full bench).
            (4096, 200, 1024, "16a19bbbe4cc060af90d9467c96ed743"
                              "bc80056b99970387a2ed9ee3f0aa60d4"),
            # The smoke bench's digest (benchmarks/results/fleet_sim.txt).
            (1024, 50, 256, "14b2cd2cb0f5ea55df160c1558432bd3"
                            "63f3aaa388dc02fec9c37920a99e73b2"),
        ],
    )
    def test_digest_is_pinned(
        self, dashboard, compiled, instances, steps, lanes_per_shard, digest
    ):
        """Kernels, stimulus streams and the digest encoding must not
        drift: each digest is a committed bench figure."""
        config = FleetConfig(
            instances=instances, steps=steps, seed=0, jobs=1,
            lanes_per_shard=lanes_per_shard,
        )
        summary = run_fleet(dashboard, config, compiled=compiled)
        assert summary["digest"] == digest

    def test_shard_seed_mix(self):
        seeds = {shard_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert shard_seed(1, 0) != shard_seed(0, 0)
        assert shard_seed(7, 3) == shard_seed(7, 3)


class TestSummary:
    def test_summary_shape(self, dashboard, compiled):
        config = FleetConfig(
            instances=40, steps=15, seed=1, lanes_per_shard=16
        )
        summary = run_fleet(dashboard, config, compiled=compiled)
        assert summary["network"] == dashboard.name
        assert summary["instances"] == 40
        assert summary["shards"] == 3
        assert summary["kernel_ops"] == compiled.op_count
        assert summary["reactions"] > 0
        assert summary["reactions_per_sec"] > 0
        assert len(summary["digest"]) == 64

    def test_traced_run_merges_shard_spans(self, dashboard, compiled):
        from repro.obs import assert_valid_trace
        from repro.pipeline import BuildTrace

        trace = BuildTrace()
        config = FleetConfig(
            instances=40, steps=10, seed=1, jobs=2, lanes_per_shard=16
        )
        summary = run_fleet(dashboard, config, trace=trace, compiled=compiled)
        doc = trace.to_dict()
        assert_valid_trace(doc)
        shard_events = [
            e for e in doc["events"] if e["name"] == "fleet.shard"
        ]
        assert len(shard_events) == 3
        assert doc["metrics"]["fleet_reactions"] > 0
        # Counters from every shard lane are summed into the run totals.
        assert doc["metrics"]["fleet_reactions"] == summary["reactions"]
        assert doc["metrics"]["fleet_lost_events"] == summary["lost_events"]


class TestStimulusSpec:
    def test_non_power_of_two_span_rejected(self, dashboard):
        spec = StimulusSpec(
            events={"fsample": EventStimulus(probability=0.5, lo=0, hi=2)}
        )
        with pytest.raises(ValueError, match="power of two"):
            spec.validate(dashboard)

    def test_unknown_event_rejected(self, dashboard):
        spec = StimulusSpec(events={"nope": EventStimulus()})
        with pytest.raises(ValueError, match="not an environment input"):
            spec.validate(dashboard)

    def test_probability_bounds(self, dashboard):
        spec = StimulusSpec(
            events={"key_on": EventStimulus(probability=1.5)}
        )
        with pytest.raises(ValueError, match="probability"):
            spec.validate(dashboard)

    def test_default_spec_covers_every_environment_input(self, dashboard):
        spec = default_spec(dashboard)
        assert set(spec.events) == {
            e.name for e in dashboard.environment_inputs()
        }
        spec.validate(dashboard)

    def test_restricted_range_respected(self, dashboard, compiled):
        """All lanes stimulated from [lo, hi] must still match scalar."""
        spec = default_spec(dashboard)
        events = dict(spec.events)
        events["fsample"] = EventStimulus(probability=0.8, lo=4, hi=7)
        config = FleetConfig(
            instances=32, steps=20, seed=2,
            spec=StimulusSpec(events=events),
        )
        mismatches = check_lanes(
            dashboard, config, range(32), compiled=compiled
        )
        assert mismatches == []


class TestRandomCampaign:
    def test_small_campaign_is_clean(self):
        report = random_campaign(cases=6, seed=0, lanes=32, steps=25)
        assert report["failures"] == []
        assert report["lanes_checked"] == 6 * 32


class TestCli:
    def test_fleet_command_checks_lanes(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "--app", "dashboard", "--instances", "32",
            "--steps", "10", "--check", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_fleet_command_requires_modules(self, capsys):
        from repro.cli import main

        assert main(["fleet"]) == 2

    @pytest.mark.parametrize(
        "flags, stimulus, message",
        [
            (["--instances", "0"], None, "at least one instance"),
            (["--lanes-per-shard", "0"], None, "lanes_per_shard"),
            (["--steps", "-5"], None, "steps must not be negative"),
            ([], {"nope": {"p": 0.5}}, "not an environment input"),
            ([], {"fsample": {"p": 0.5, "lo": 0, "hi": 2}}, "power of two"),
            (["--stimulus", "missing.json"], None, "missing.json"),
        ],
    )
    def test_fleet_command_rejects_bad_input(
        self, capsys, tmp_path, monkeypatch, flags, stimulus, message
    ):
        """Bad sizes and stimulus files end in one stderr line, exit 2."""
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        if stimulus is not None:
            (tmp_path / "stim.json").write_text(
                json.dumps({"events": stimulus})
            )
            flags = flags + ["--stimulus", "stim.json"]
        code = main(["fleet", "--app", "dashboard", "--steps", "2"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro fleet: ")
        assert message in lines[0]
