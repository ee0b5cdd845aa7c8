"""Synthesis-as-a-service: the `repro serve` daemon and its client.

The paper's flow is batch-shaped — one invocation, one network, one
result.  This package puts a concurrent front door on it: a daemon that
accepts synthesize / estimate / simulate / fleet / fuzz requests over a
length-prefixed JSON protocol, schedules them on a persistent worker pool
with warm per-worker state (calibrated cost models, a shared artifact
cache), applies explicit admission control (bounded queue, ``rejected``
+ ``retry_after_ms``), and attaches one causal trace per request.

The serving contract: a served response is **byte-identical** to the
corresponding direct library call — the daemon adds scheduling, caching,
and observability, never semantics.

* :mod:`repro.serve.protocol` — framing, request kinds, statuses;
* :mod:`repro.serve.server` — the asyncio coordinator + embedding helpers;
* :mod:`repro.serve.tasks` — worker-side request handlers;
* :mod:`repro.serve.client` — a blocking client.
"""

from .client import ServeClient, ServeError, request_once
from .protocol import (
    CONTROL_KINDS,
    MAX_FRAME_BYTES,
    REQUEST_KINDS,
    SERVE_FORMAT,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    WORK_KINDS,
)
from .server import (
    ServeConfig,
    ServeServer,
    ServerHandle,
    run_server,
    serve_in_thread,
)
from .tasks import REQUEST_LANE, ServeOutcome, ServeRequestTask, warm_worker

__all__ = [
    "SERVE_FORMAT",
    "MAX_FRAME_BYTES",
    "WORK_KINDS",
    "CONTROL_KINDS",
    "REQUEST_KINDS",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_REJECTED",
    "ServeConfig",
    "ServeServer",
    "ServerHandle",
    "serve_in_thread",
    "run_server",
    "ServeClient",
    "ServeError",
    "request_once",
    "REQUEST_LANE",
    "ServeOutcome",
    "ServeRequestTask",
    "warm_worker",
]
