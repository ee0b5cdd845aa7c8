"""Served responses must be byte-identical to direct library calls.

One module-scoped daemon (``--jobs 4``) takes eight *concurrent* mixed
requests — synthesize, estimate, fleet, simulate — fired from eight
client threads at once.  Every response is then compared field-for-field
(C sources byte-for-byte) against the same computation done directly
in-process through :func:`repro.flow.build_system`,
:func:`repro.pipeline.build_module_artifacts`, and
:func:`repro.fleet.sim.run_fleet`.  Concurrency, worker reuse and the
shared artifact cache must all be invisible in the payload bytes.
"""

import threading

import pytest

from repro.serve import ServeClient, ServeConfig, serve_in_thread

_DASH_MACHINES = ("wheel_filter", "speedo", "odometer", "tacho")

_SIM_STIMULI = [
    {"time": 1_000, "event": "send_req", "value": 42},
    {"time": 40_000, "event": "dropf"},
    {"time": 41_000, "event": "timeout"},
    {"time": 90_000, "event": "send_req", "value": 7},
    {"time": 140_000, "event": "timeout"},
]
_SIM_UNTIL = 250_000

#: Eight requests, at least one of every compute kind, all in flight at
#: the same time against a four-worker daemon.
_REQUESTS = [
    ("synthesize", {"app": "abp"}),
    ("synthesize", {"app": "shock"}),
    ("estimate", {"app": "dashboard", "machine": _DASH_MACHINES[0]}),
    ("estimate", {"app": "dashboard", "machine": _DASH_MACHINES[1]}),
    ("estimate", {"app": "dashboard", "machine": _DASH_MACHINES[2]}),
    ("estimate", {"app": "dashboard", "machine": _DASH_MACHINES[3]}),
    ("fleet", {"app": "abp", "instances": 16, "steps": 50, "seed": 3}),
    ("simulate", {"app": "abp", "stimuli": _SIM_STIMULI,
                  "until": _SIM_UNTIL}),
]


@pytest.fixture(scope="module")
def served_responses(tmp_path_factory):
    """All eight responses, gathered from eight concurrent clients."""
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    config = ServeConfig(jobs=4, queue_depth=16, cache_dir=cache_dir)
    responses = [None] * len(_REQUESTS)
    barrier = threading.Barrier(len(_REQUESTS))

    def client(index):
        kind, params = _REQUESTS[index]
        with ServeClient(port=handle.port) as c:
            barrier.wait()  # all eight hit the daemon together
            responses[index] = c.request(kind, params)

    with serve_in_thread(config) as handle:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(_REQUESTS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return responses


def _response(served_responses, index):
    response = served_responses[index]
    assert response is not None, f"request {index} never completed"
    assert response["status"] == "ok", response.get("error")
    return response


def _direct_network(app):
    from repro.apps import abp_network, dashboard_network, shock_network

    return {"abp": abp_network, "dashboard": dashboard_network,
            "shock": shock_network}[app]()


def _direct_build(app):
    from repro.flow import build_system
    from repro.target import K11

    return build_system(_direct_network(app), profile=K11, jobs=1)


def test_all_eight_requests_succeed_concurrently(served_responses):
    assert all(r is not None and r["status"] == "ok"
               for r in served_responses), served_responses


@pytest.mark.parametrize("index,app", [(0, "abp"), (1, "shock")])
def test_synthesize_matches_direct_build(served_responses, index, app):
    result = _response(served_responses, index)["result"]
    build = _direct_build(app)
    assert set(result["modules"]) == set(build.modules)
    for name, module in build.modules.items():
        served = result["modules"][name]
        assert served["c_source"] == module.c_source, name
        assert served["estimate"] == {
            "code_size": module.estimate.code_size,
            "min_cycles": module.estimate.min_cycles,
            "max_cycles": module.estimate.max_cycles,
        }, name
        assert served["copied_state_vars"] == list(module.copied_state_vars)
    assert result["rtos_source"] == build.rtos_source
    assert result["footprint"] == str(build.footprint)
    assert result["report"] == build.report()


@pytest.mark.parametrize("index", range(2, 6))
def test_estimate_matches_direct_artifacts(served_responses, index):
    from repro.estimation import calibrate
    from repro.pipeline import build_module_artifacts, synthesis_options
    from repro.target import K11

    machine_name = _REQUESTS[index][1]["machine"]
    result = _response(served_responses, index)["result"]

    network = _direct_network("dashboard")
    machine = next(m for m in network.machines if m.name == machine_name)
    cost = calibrate(K11)
    options = synthesis_options(scheme="sift", params=cost)
    artifacts, _ = build_module_artifacts(machine, options, K11, cost)

    assert result["module"] == machine_name
    assert result["c_source"] == artifacts.c_source
    assert result["estimate"] == {
        "code_size": artifacts.estimate.code_size,
        "min_cycles": artifacts.estimate.min_cycles,
        "max_cycles": artifacts.estimate.max_cycles,
    }


def test_fleet_matches_direct_run(served_responses):
    from repro.fleet.sim import FleetConfig, run_fleet

    result = _response(served_responses, 6)["result"]
    params = _REQUESTS[6][1]
    config = FleetConfig(
        instances=params["instances"], steps=params["steps"],
        seed=params["seed"], jobs=1,
    )
    direct = run_fleet(_direct_network("abp"), config)
    served = result["summary"]
    # Timing figures legitimately differ; the simulated outcome may not.
    assert served["digest"] == direct["digest"]
    assert served["reactions"] == direct["reactions"]
    assert served["instances"] == direct["instances"]
    assert served["steps"] == direct["steps"]


def test_simulate_matches_direct_cosimulation(served_responses):
    from repro.rtos.runtime import Stimulus

    result = _response(served_responses, 7)["result"]
    build = _direct_build("abp")
    stimuli = [
        Stimulus(time=s["time"], event=s["event"], value=s.get("value"))
        for s in _SIM_STIMULI
    ]
    runtime = build.simulate(stimuli, until=_SIM_UNTIL, probes=[])
    assert result["stats"] == runtime.stats.to_dict()
    assert result["stats"]["reactions"] > 0  # the scenario actually ran


def test_responses_carry_clean_causal_traces(served_responses):
    from repro.obs import validate_trace

    for index in range(len(_REQUESTS)):
        response = _response(served_responses, index)
        trace = response.get("trace")
        assert trace, f"request {index} lost its trace"
        assert validate_trace(trace) == [], (index, validate_trace(trace))
        names = {e["name"] for e in trace["events"]}
        kind = _REQUESTS[index][0]
        assert f"serve.{kind}" in names or f"request.{kind}" in names


def test_workers_were_actually_shared(served_responses):
    """Meta must show real pool workers served the load, not one process."""
    pids = {_response(served_responses, i)["meta"]["worker_pid"]
            for i in range(len(_REQUESTS))}
    assert len(pids) >= 2, pids
