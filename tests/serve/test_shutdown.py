"""A daemon stops quietly while a client is still connected, idle.

Shutdown drains the admission queue, then closes the writers of the
connections still open, so each handler reads a clean EOF and returns
before the event loop ends.  A handler the loop cancels instead, in
``read_frame``, is logged by asyncio as "Exception in callback
StreamReaderProtocol.connection_made.<locals>.callback" (Python 3.11).
"""

import logging

from repro.serve import ServeClient, ServeConfig, serve_in_thread


def test_stop_with_an_idle_client_logs_no_error(caplog):
    caplog.set_level(logging.WARNING, logger="asyncio")
    handle = serve_in_thread(ServeConfig(jobs=1))
    with ServeClient(port=handle.port) as client:
        assert client.ping()["result"]["pong"]
        handle.stop()
    errors = [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert errors == []
