"""The `repro serve` daemon: a concurrent front door to the synthesis flow.

One asyncio coordinator accepts length-prefixed JSON requests
(:mod:`repro.serve.protocol`), pushes *work* requests through a bounded
queue, and executes them on a persistent process pool
(:class:`~repro.pipeline.parallel.PersistentProcessExecutor`) whose
workers keep warm state — calibrated cost models and shared
artifact-cache handles — across requests; each module build makes a
fresh BDD manager, exactly as a direct library call does.

Admission control is explicit: at most ``jobs`` requests run and at most
``queue_depth`` wait; one more gets a ``rejected`` response carrying
``retry_after_ms`` (an EWMA of recent service times), the 429 of this
little protocol.  *Control* requests (ping / stats / shutdown) are
answered inline by the coordinator and never consume a queue slot, so
health checks work — and backpressure stays observable — while every
worker is busy.

Each work request gets its own causal trace: the coordinator opens the
root span (lane 0), records the queue wait, and hands the worker a
context on :data:`~repro.serve.tasks.REQUEST_LANE`; the worker's spans
(and its nested per-module / per-case sub-spans on lanes ``1..N``) come
back in the outcome and are merged, with the same
:meth:`~repro.pipeline.trace.BuildTrace.merge` step batch runs use, into
one ``repro-build-trace/v1`` document attached to the response —
``repro report`` renders it like any other trace.

:func:`serve_in_thread` boots the whole daemon on a background thread
for tests and benchmarks; the CLI runs :func:`run_server` in the
foreground.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..pipeline import BuildTrace, PersistentProcessExecutor
from ..pipeline.cache import ArtifactCache
from . import protocol
from .tasks import REQUEST_LANE, ServeOutcome, ServeRequestTask, warm_worker

__all__ = ["ServeConfig", "ServeServer", "ServerHandle", "serve_in_thread",
           "run_server"]


@dataclass
class ServeConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral; the bound port is on the server/handle
    jobs: int = 2
    queue_depth: int = 8
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    trace_requests: bool = True
    #: Fallback retry hint before any request has completed.
    default_retry_after_ms: float = 200.0


@dataclass
class _Job:
    """One admitted work request, parked in the queue."""

    request: Dict[str, Any]
    writer: Any
    lock: asyncio.Lock
    enqueued_at: float = field(default_factory=time.monotonic)


class ServeServer:
    """The asyncio coordinator.  Create, ``await start()``, ``await
    wait_closed()``; all methods must run on the server's event loop."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.port: Optional[int] = None
        self.worker_pids: List[int] = []
        self.started_at = time.monotonic()
        # Counters are loop-thread-only; no locking needed.
        self.requests = 0
        self.served = 0
        self.errors = 0
        self.rejected = 0
        self._active = 0
        self._service_ewma_ms: Optional[float] = None
        self._executor: Optional[PersistentProcessExecutor] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatchers: List[asyncio.Task] = []
        # Connection handler tasks and their writers, so shutdown can end
        # the handlers of clients still connected.
        self._connections: Dict[asyncio.Task, Any] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._cache_view: Optional[ArtifactCache] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        # Fork the pool before accepting connections so no worker is
        # created while request handlers (other tasks/threads) run.
        self._executor = PersistentProcessExecutor(
            config.jobs, initializer=warm_worker
        )
        # prewarm() forces every worker to spawn (and run its warming
        # initializer) but reports only the pids that answered the pings
        # — a fast worker can answer all of them.  The pool's process
        # table is the true worker census.
        self._executor.prewarm()
        self.worker_pids = self._executor.worker_pids()
        if config.cache_dir:
            self._cache_view = ArtifactCache(
                config.cache_dir,
                max_bytes=config.cache_max_bytes,
                shared=True,
            )
        self._queue = asyncio.Queue(maxsize=max(1, config.queue_depth))
        self._stopping = asyncio.Event()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop())
            for _ in range(config.jobs)
        ]
        self._server = await asyncio.start_server(
            self._on_connection, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def wait_closed(self) -> None:
        """Block until shutdown is requested, then drain and tear down."""
        await self._stopping.wait()
        self._server.close()
        # Let admitted work finish: the guarantee the soak test leans on.
        while self._queue.qsize() or self._active:
            await asyncio.sleep(0.01)
        # Clients may still be connected, idle: closing their writers
        # gives each handler a clean EOF, and it returns before the loop
        # ends instead of being cancelled in read_frame.
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        for dispatcher in self._dispatchers:
            dispatcher.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- stats ------------------------------------------------------------

    def _retry_after_ms(self) -> float:
        if self._service_ewma_ms is None:
            return self.config.default_retry_after_ms
        return round(max(1.0, self._service_ewma_ms), 3)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "format": "repro-serve-stats/v1",
            "server": {
                "jobs": self.config.jobs,
                "queue_depth": self.config.queue_depth,
                "queued": self._queue.qsize() if self._queue else 0,
                "active": self._active,
                "requests": self.requests,
                "served": self.served,
                "errors": self.errors,
                "rejected": self.rejected,
                "retry_after_ms": self._retry_after_ms(),
                "uptime_ms": round(
                    (time.monotonic() - self.started_at) * 1000.0, 3
                ),
            },
            "workers": {
                "count": len(self.worker_pids),
                "pids": (
                    self._executor.worker_pids() if self._executor else []
                ),
            },
        }
        if self._cache_view is not None:
            metrics = self._cache_view.shared_metrics()
            out["cache"] = {
                "dir": self.config.cache_dir,
                "bytes": self._cache_view.total_bytes(),
                "pin_files": len(self._cache_view.pin_files()),
                "hits": metrics["hits"],
                "misses": metrics["misses"],
                "evictions": metrics["evictions"],
            }
        return out

    # -- connection handling ----------------------------------------------

    async def _send(self, writer, lock: asyncio.Lock,
                    doc: Dict[str, Any]) -> None:
        try:
            async with lock:
                await protocol.write_frame(writer, doc)
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away; its response has nowhere to go

    async def _on_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await protocol.read_frame(reader)
                except protocol.FrameError:
                    break
                if request is None:
                    break
                await self._admit(request, writer, lock)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._connections[task]

    async def _admit(self, request: Dict[str, Any], writer,
                     lock: asyncio.Lock) -> None:
        self.requests += 1
        kind = request.get("kind")
        request_id = request.get("id")
        if kind in protocol.CONTROL_KINDS:
            await self._send(
                writer, lock, self._control_response(kind, request_id)
            )
            return
        if kind not in protocol.WORK_KINDS:
            self.errors += 1
            await self._send(writer, lock, {
                "id": request_id,
                "status": protocol.STATUS_ERROR,
                "kind": kind,
                "error": f"unknown request kind {kind!r}",
            })
            return
        try:
            self._queue.put_nowait(_Job(request, writer, lock))
        except asyncio.QueueFull:
            self.rejected += 1
            await self._send(writer, lock, {
                "id": request_id,
                "status": protocol.STATUS_REJECTED,
                "kind": kind,
                "error": "server at capacity (queue full)",
                "retry_after_ms": self._retry_after_ms(),
            })

    def _control_response(self, kind: str,
                          request_id) -> Dict[str, Any]:
        if kind == "ping":
            result: Dict[str, Any] = {
                "pong": True, "format": protocol.SERVE_FORMAT
            }
        elif kind == "stats":
            result = self.stats()
        else:  # shutdown
            result = {"stopping": True}
            self.request_shutdown()
        return {
            "id": request_id,
            "status": protocol.STATUS_OK,
            "kind": kind,
            "result": result,
        }

    # -- work execution ---------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            self._active += 1
            try:
                await self._run_job(job)
            finally:
                self._active -= 1
                self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        request = job.request
        kind = request["kind"]
        params = request.get("params") or {}
        started = time.monotonic()
        queue_wait_ms = (started - job.enqueued_at) * 1000.0
        trace: Optional[BuildTrace] = None
        context = None
        if self.config.trace_requests:
            trace = BuildTrace()
            trace.begin(f"serve.{kind}")
            trace.record_stage("serve", "queue.wait", queue_wait_ms)
            context = trace.context_for(REQUEST_LANE)
        task = ServeRequestTask(
            kind=kind,
            params=params,
            cache_dir=self.config.cache_dir,
            cache_max_bytes=self.config.cache_max_bytes,
            context=context,
        )
        try:
            outcome: ServeOutcome = await asyncio.wrap_future(
                self._executor.submit(task)
            )
        except Exception as exc:  # noqa: BLE001 - a dead worker is a response
            outcome = ServeOutcome(
                error=f"{type(exc).__name__}: {exc}"
            )
        service_ms = (time.monotonic() - started) * 1000.0
        alpha = 0.3
        self._service_ewma_ms = (
            service_ms if self._service_ewma_ms is None
            else alpha * service_ms + (1 - alpha) * self._service_ewma_ms
        )
        meta = dict(outcome.meta)
        meta["queue_wait_ms"] = round(queue_wait_ms, 3)
        meta["service_ms"] = round(service_ms, 3)
        response: Dict[str, Any] = {
            "id": request.get("id"),
            "kind": kind,
            "meta": meta,
        }
        if outcome.error is not None:
            self.errors += 1
            response["status"] = protocol.STATUS_ERROR
            response["error"] = outcome.error
        else:
            self.served += 1
            response["status"] = protocol.STATUS_OK
            response["result"] = outcome.result
        if trace is not None:
            trace.merge(outcome.events, outcome.metrics)
            trace.finish()
            response["trace"] = trace.to_dict()
        await self._send(job.writer, job.lock, response)


# -- embedding helpers -----------------------------------------------------


@dataclass
class ServerHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    host: str
    port: int
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    server: ServeServer

    def stop(self, timeout: float = 60.0) -> None:
        """Request shutdown and join the thread (idempotent)."""
        if self.thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(config: ServeConfig,
                    start_timeout: float = 120.0) -> ServerHandle:
    """Boot a daemon on a daemon thread; returns once it accepts requests."""
    started = threading.Event()
    box: Dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            server = ServeServer(config)
            try:
                await server.start()
            except BaseException as exc:  # startup failure -> report it
                box["error"] = exc
                started.set()
                raise
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.wait_closed()

        try:
            asyncio.run(main())
        except Exception:
            if not started.is_set():
                started.set()

    thread = threading.Thread(
        target=runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError("repro serve daemon did not start in time")
    if "error" in box:
        raise RuntimeError(
            f"repro serve daemon failed to start: {box['error']!r}"
        )
    server: ServeServer = box["server"]
    return ServerHandle(
        host=config.host,
        port=server.port,
        thread=thread,
        loop=box["loop"],
        server=server,
    )


def run_server(config: ServeConfig, announce=None) -> None:
    """Run the daemon in the foreground until a shutdown request (CLI)."""

    async def main() -> None:
        server = ServeServer(config)
        await server.start()
        if announce is not None:
            announce(server)
        await server.wait_closed()

    asyncio.run(main())
