"""The ``repro serve`` path: the serve-mixed workload.

A ``repro serve --jobs 2`` daemon runs in its own process with a fresh
shared cache capped by ``--cache-max-bytes``.  Two clients, one
:class:`~repro.serve.ServeClient` connection each, drive it in a closed
loop: each sends its next request when the previous reply arrives, as a
caller of ``repro serve`` does.  The loop runs in short rounds; between
rounds, with the daemon idle, the benchmark samples the host's speed
(see ``hostspeed``).
"""

from __future__ import annotations

import contextlib
import json
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.cfsm import Network
from repro.estimation import calibrate
from repro.fleet import FleetConfig, run_fleet
from repro.flow import build_system
from repro.frontend import compile_source
from repro.pipeline import build_module_artifacts, synthesis_options
from repro.rtos.runtime import Stimulus
from repro.serve import ServeClient
from repro.serve.protocol import encode_frame
from repro.target import K11, PROFILES

from common import ROOT, SETUP_REPEATS, Intervals, Result, fresh_dir, median, percentile
from hostspeed import HOST
from corpus import Request, RequestStream, example_sources, load_drive, reference_designs, rng_for
from metrics import PER_LAYER, per_layer_defaults
from spans import Spans

JOBS = 2
CLIENTS = 2
#: The 170 estimate artifacts alone take about 1.5 MB; the cap keeps
#: about two thirds of that, so cold keys are evicted and miss again.
CACHE_MAX_BYTES = 1024 * 1024
#: Requests per client in a round: a quarter of its stream's block, so
#: the host speed is sampled about five times a second.
ROUND_REQUESTS = len(RequestStream.BLOCK) // 4
#: Timed rounds per run, at least: 2 clients x 8 requests x 16 rounds
#: puts more than ten requests beyond p95.
MIN_ROUNDS = 16
MIN_ROUNDS_SMALL = 4
#: Untimed rounds that bring the fresh cache to its steady mix of hits,
#: misses and evictions before timing starts.
WARMUP_ROUNDS = 16
WARMUP_ROUNDS_SMALL = 4
#: Share of responses compared with the direct library call.
SAMPLE_SHARE = 0.05
START_TIMEOUT_S = 120.0


class Daemon:
    """One ``repro serve`` process; ``stop()`` always reaps it."""

    ANNOUNCE = re.compile(r"listening on ([0-9.]+):(\d+)")

    def __init__(self, cache_dir: str):
        self.lines: List[str] = []
        self._announced = threading.Event()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(JOBS), "--cache-dir", cache_dir,
             "--cache-max-bytes", str(CACHE_MAX_BYTES)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._announced.wait(START_TIMEOUT_S):
                raise RuntimeError(f"repro serve did not start: {self.lines[-5:]}")
            match = next(filter(None, map(self.ANNOUNCE.search, self.lines)))
            self.host, self.port = match.group(1), int(match.group(2))
            with ServeClient(self.host, self.port, timeout=START_TIMEOUT_S) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        #: Process start to the first reply.
        self.start_s = time.perf_counter() - started

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.lines.append(line.rstrip("\n"))
            if self.ANNOUNCE.search(line):
                self._announced.set()
        self._announced.set()  # exited before announcing

    def stats(self) -> Dict[str, Any]:
        with ServeClient(self.host, self.port, timeout=60.0) as client:
            return client.stats()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                with ServeClient(self.host, self.port, timeout=60.0) as client:
                    client.shutdown()
                self.process.wait(timeout=60.0)
            except (AttributeError, OSError, RuntimeError, subprocess.TimeoutExpired):
                self.process.terminate()
                try:
                    self.process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        self._reader.join(timeout=10.0)
        self.process.stderr.close()


@dataclass
class Reply:
    client: int
    index: int
    request: Request
    response: Dict[str, Any]
    started: float
    ms: float


def _corpus(seed: int):
    calibrate(K11)
    sources = example_sources()
    designs = reference_designs()
    drive = load_drive()
    return lambda client: RequestStream(seed, client, sources, designs, drive)


def _drive(daemon: Daemon, streams, seconds: float, min_rounds: int,
           warmup_rounds: int = 0) -> Tuple[List[Reply], List[Reply], Intervals]:
    """Both clients' closed loops, in rounds.

    In a round each client sends ``ROUND_REQUESTS`` requests of its
    stream, each when the previous reply has arrived.  Between rounds,
    with the daemon idle, the host speed is sampled.  Warm-up
    rounds come first and are not timed; timed rounds go on until
    ``seconds`` have passed and at least ``min_rounds`` have run.
    Returns the warm-up replies, the timed replies and the timed rounds.
    """
    clients = [streams(c) for c in range(CLIENTS)]
    sent = [0] * CLIENTS
    warmup: List[Reply] = []
    timed: List[Reply] = []
    walls = Intervals()
    with contextlib.ExitStack() as stack:
        conns = [stack.enter_context(ServeClient(daemon.host, daemon.port,
                                                 timeout=START_TIMEOUT_S))
                 for _ in range(CLIENTS)]
        for _ in range(warmup_rounds):
            warmup += _round(conns, clients, sent)[0]
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            HOST.between_ops()
            replies, span = _round(conns, clients, sent)
            timed += replies
            walls.add(*span)
            rounds += 1
        HOST.between_ops()  # the last round's window
    return warmup, timed, walls


def _round(conns: List[ServeClient], clients: List[RequestStream],
           sent: List[int]) -> Tuple[List[Reply], Tuple[float, float]]:
    """``ROUND_REQUESTS`` requests per client, both closed loops at once."""
    replies: List[List[Reply]] = [[] for _ in conns]
    errors: List[BaseException] = []

    def client_loop(client: int) -> None:
        try:
            for _ in range(ROUND_REQUESTS):
                request = clients[client].next()
                started = time.perf_counter()
                response = conns[client].request(request.kind, request.params)
                ms = (time.perf_counter() - started) * 1000.0
                replies[client].append(
                    Reply(client, sent[client], request, response, started, ms))
                sent[client] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(conns))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return [r for rs in replies for r in rs], (started, ended)


def _intervals(replies: Iterable[Reply]) -> Intervals:
    """The requests' latencies as the clients saw them."""
    out = Intervals()
    for reply in replies:
        out.add(reply.started, reply.started + reply.ms / 1000.0)
    return out


def _ok(reply: Reply) -> bool:
    return reply.response.get("status") == "ok"


# -- the direct library calls the sampled responses are compared with --------------


def _network(params: Dict[str, Any]) -> Network:
    return Network(params["name"], [compile_source(t) for t in params["sources"]])


def _figures(x) -> Dict[str, int]:
    return {"code_size": x.code_size, "min_cycles": x.min_cycles, "max_cycles": x.max_cycles}


def direct_result(request: Request) -> Dict[str, Any]:
    """What the served ``result`` must equal, computed in this process."""
    params = request.params
    if request.kind == "estimate":
        profile = PROFILES[params["target"]]
        cost = calibrate(profile)
        options = synthesis_options(scheme=params["scheme"], params=cost)
        artifacts, _ = build_module_artifacts(
            compile_source(params["source"]), options, profile, cost)
        return {"module": artifacts.name, "scheme": artifacts.scheme,
                "estimate": _figures(artifacts.estimate),
                "measured": _figures(artifacts.measured), "c_source": artifacts.c_source}
    if request.kind == "fleet":
        config = FleetConfig(instances=params["instances"], steps=params["steps"],
                             seed=params["seed"], jobs=1)
        return {"summary": run_fleet(_network(params), config)}
    build = build_system(_network(params))
    if request.kind == "synthesize":
        return {
            "network": build.network.name,
            "modules": {
                name: {"c_source": m.c_source, "estimate": _figures(m.estimate),
                       "measured": _figures(m.measured),
                       "copied_state_vars": list(m.copied_state_vars)}
                for name, m in build.modules.items()
            },
            "rtos_source": build.rtos_source,
            "footprint": str(build.footprint),
            "report": build.report(),
        }
    stimuli = [Stimulus(time=int(s["time"]), event=str(s["event"]), value=s.get("value"))
               for s in params["stimuli"]]
    runtime = build.simulate(stimuli, until=int(params["until"]), probes=[])
    return {"network": build.network.name, "stats": runtime.stats.to_dict(),
            "probes": [p.to_dict() for p in runtime.probes]}


#: Per-call figures (timings, cache temperature) that legitimately differ.
_VOLATILE = {"from_cache", "reactions_per_sec", "compile_ms", "wall_ms"}


def _comparable(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {k: _comparable(v) for k, v in doc.items() if k not in _VOLATILE}
    if isinstance(doc, list):
        return [_comparable(v) for v in doc]
    return doc


def check_sample(res: Result, seed: int, replies: List[Reply]) -> int:
    """Compare a seeded sample of ok responses with the direct calls.

    Returns how many sampled responses differ.
    """
    expected: Dict[Tuple[Any, ...], Any] = {}
    differing = 0
    for reply in replies:
        rng = rng_for(seed, "serve", "sample", reply.client, reply.index)
        if rng.random() >= SAMPLE_SHARE or not _ok(reply):
            continue
        key = reply.request.key
        if key not in expected:
            expected[key] = _comparable(json.loads(json.dumps(direct_result(reply.request))))
        if not res.check("serve-direct", _comparable(reply.response["result"]) == expected[key],
                         f"{key[:2]}: served result differs from the library call"):
            differing += 1
    return differing


# -- the workload -------------------------------------------------------------------


def serve_mixed(args) -> Result:
    res = Result()
    daemons: List[Daemon] = []
    try:
        for repeat in range(SETUP_REPEATS):
            for daemon in daemons:
                daemon.stop()
            cache_dir = fresh_dir(f"serve-cache-{repeat}")
            (streams, daemon), span = HOST.timed(
                lambda: (_corpus(args.seed), Daemon(cache_dir)))
            daemons = [daemon]
            res.setup.add(*span)
        if args.trace:
            _traced(args, streams, daemons, res)
            return res
        warmup, replies, rounds = _drive(
            daemons[0], streams, args.seconds,
            MIN_ROUNDS_SMALL if args.small else MIN_ROUNDS,
            WARMUP_ROUNDS_SMALL if args.small else WARMUP_ROUNDS)
        res.info["daemon"] = daemons[0].stats()
    finally:
        for daemon in daemons:
            daemon.stop()

    res.info["warmup_requests"] = len(warmup)
    res.attempted = len(warmup) + len(replies)
    res.failed = sum(1 for r in warmup + replies if not _ok(r))
    for reply in warmup + replies:
        if not _ok(reply):
            res.problems.append(f"{reply.request.kind}: {reply.response.get('status')} "
                                f"{reply.response.get('error')}")
    latencies = _intervals(replies)
    res.info["latency_by_kind"] = {
        kind: {"requests": len(ms), "p50_ms": median(ms), "p95_ms": percentile(ms, 95)}
        for kind in sorted({r.request.kind for r in replies})
        for ms in [_intervals(r for r in replies if r.request.kind == kind).reference_ms()]
    }
    res.add_timed("req_p50_ms", "ms", median, latencies)
    res.add_timed("req_p95_ms", "ms", lambda ms: percentile(ms, 95), latencies)
    res.add_timed("req_per_s", "req/s", lambda ms: len(replies) / (sum(ms) / 1000.0), rounds)
    # The served build is a ``synthesize`` request.
    builds = _intervals(r for r in replies if r.request.kind == "synthesize")
    res.add_timed("build_p50_ms", "ms", median, builds)
    res.add_timed("build_p90_ms", "ms", lambda ms: percentile(ms, 90), builds)
    modules = sum(r.request.modules for r in replies)
    res.add_timed("modules_per_s", "modules/s", lambda ms: modules / (sum(ms) / 1000.0), rounds)
    measured: Dict[str, Dict[str, int]] = {}
    fleet_reactions = 0
    for reply in filter(_ok, replies):
        if reply.request.kind == "synthesize":
            for name, module in reply.response["result"]["modules"].items():
                measured[name] = module["measured"]
        elif reply.request.kind == "fleet":
            fleet_reactions += reply.response["result"]["summary"]["reactions"]
    # Served designs' code, and fleet requests' reactions per second of
    # their latency: the figures the build and fleet workloads measure.
    res.add("code_bytes", sum(m["code_size"] for m in measured.values()), "bytes")
    res.add("wcet_cycles", sum(m["max_cycles"] for m in measured.values()), "cycles")
    fleets = _intervals(r for r in replies if r.request.kind == "fleet" and _ok(r))
    res.add_timed("reactions_per_s", "reactions/s",
                  lambda ms: fleet_reactions / (sum(ms) / 1000.0), fleets)
    res.failed += check_sample(res, args.seed, warmup + replies)
    return res


def _traced(args, streams, daemons: List[Daemon], res: Result) -> None:
    """The same request streams twice: untraced, then traced.

    Each phase gets a fresh daemon and cache, so both start cold.  A
    traced request is a client span whose children are the daemon's
    reported queue wait and service time.
    """
    rounds = MIN_ROUNDS_SMALL if args.small else max(MIN_ROUNDS, 4 * (int(args.seconds) // 3))
    _, plain, _ = _drive(daemons[0], streams, 0.0, rounds)
    daemons[0].stop()
    daemons[:] = [Daemon(fresh_dir("serve-cache-traced"))]
    _, traced, _ = _drive(daemons[0], streams, 0.0, rounds)
    stats = daemons[0].stats()
    res.info["daemon"] = stats

    spans = Spans()
    values = per_layer_defaults()
    for op, reply in enumerate(traced):
        root = spans.add("op", op, None, reply.started, reply.ms)
        meta = reply.response.get("meta", {})
        wait = float(meta.get("queue_wait_ms", 0.0))
        service = float(meta.get("service_ms", 0.0))
        spans.add("serve.queue_wait", op, root, reply.started, wait)
        spans.add("serve.service", op, root, reply.started + wait / 1000.0, service)
        values["serve.response_bytes"] += len(encode_frame(reply.response))
    breakdown = spans.op_breakdown()
    values["serve.queue_wait_ms"] = breakdown.get("serve.queue_wait", 0.0)
    values["serve.service_ms"] = breakdown.get("serve.service", 0.0)
    values["serve.overhead_ms"] = breakdown.get("other", 0.0)
    values["serve.failed"] = sum(1 for r in traced if not _ok(r))
    values["trace.op_wall_ms"] = spans.total_ms("op")
    values["trace.overhead_ratio"] = (
        values["trace.op_wall_ms"] / sum(r.ms for r in plain) - 1.0)
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    values["pipeline.cache.hits"] = cache.get("hits", 0)
    values["pipeline.cache.misses"] = cache.get("misses", 0)
    values["pipeline.cache.evictions"] = cache.get("evictions", 0)
    values["pipeline.cache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    values["pipeline.parallel.tasks"] = len(traced)
    for name, value in values.items():
        res.add(name, value, PER_LAYER[name])

    res.attempted = len(traced)
    res.failed = values["serve.failed"]
    res.failed += check_sample(res, args.seed, traced)
    res.info["spans"] = spans


WORKLOADS = {"serve-mixed": serve_mixed}
