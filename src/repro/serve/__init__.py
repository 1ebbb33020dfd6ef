"""``repro serve`` — the sweep-as-a-service HTTP front end.

A long-lived asyncio server (stdlib only) that keeps one warm
:class:`~repro.engine.sweep.ExperimentEngine` — persistent worker pool,
in-memory + SQLite-WAL result cache — behind ``POST /sweep``,
``POST /points``, ``POST /validate``, ``GET /healthz`` and
``GET /stats``, answering with per-request run manifests (schema v8).
Compute requests wait in one bounded queue, the FIFO of the one service
thread's executor, and every request must arrive within one read
deadline.  See DESIGN.md §15 for the architecture and
:mod:`repro.serve.protocol` for the wire format.
"""

from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    evaluation_payload,
    execute_request,
    identity_payload,
    parse_request,
    serial_reference,
)
from repro.serve.queue import RequestTicket, ServeStats
from repro.serve.server import ReproServer, request_json

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "ProtocolError",
    "ReproServer",
    "RequestTicket",
    "ServeStats",
    "evaluation_payload",
    "execute_request",
    "identity_payload",
    "parse_request",
    "request_json",
    "serial_reference",
]
