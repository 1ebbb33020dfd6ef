"""The asyncio HTTP front end: ``repro serve``.

Architecture (DESIGN.md §15):

* **One event loop in one daemon thread** accepts connections
  (``asyncio.start_server``), reads a minimal HTTP/1.1 request
  (request line, headers, ``Content-Length`` body) under one
  ``_READ_TIMEOUT`` deadline (408 past it) and routes it; every
  response is ``Connection: close``.
* **One queue: the service executor's FIFO.**  The compute endpoints
  (``/sweep``, ``/points``, ``/validate``) are admitted against
  :class:`~repro.serve.queue.ServeStats`' waiting count: ``queue_size``
  requests still waiting answer 429 immediately, a draining server
  answers 503 — the queue bound is the server's entire memory
  commitment to pending work.  An admitted request's connection task
  hands it to the executor with ``run_in_executor`` and awaits the
  reply itself.
* **One service thread** runs
  :func:`~repro.serve.protocol.execute_request` on the shared
  :class:`~repro.engine.sweep.ExperimentEngine` — whose worker pool is
  where the actual parallelism lives.  One thread is deliberate: the
  engine's memos (traces, content keys, thermal factorizations) are
  single-threaded ``LruMemo``s, so the queue serialises *bookkeeping*
  while the process pool parallelises *simulation*.
* **Responses are run manifests**: each request runs inside its own
  :class:`~repro.obs.record.RunRecord`, and its reply carries that
  record's manifest plus a ``serve`` section (schema v8) with queue
  depth, wait/service time and the cache hit ratio for that request.
  Closing the record folds its fixed-size totals into the server's
  lifetime record, so building a response costs O(request), not
  O(history).
* **Graceful drain**: ``stop(drain=True)`` (or ``POST /shutdown``)
  stops admissions, waits until no admitted request is in flight,
  gives open connections a bounded window to flush their responses,
  then closes.

The server is in-process embeddable (the concurrency tests and the load
bench start it on an ephemeral port via ``ReproServer(port=0)``) and is
what ``python -m repro serve`` runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

from repro.obs import RunRecord, build_manifest, current_record, run_record
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    execute_request,
    parse_request,
)
from repro.serve.queue import RequestTicket, ServeStats

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Endpoints that go through the bounded queue.
_QUEUED_ENDPOINTS = frozenset({"/sweep", "/points", "/validate"})

#: Seconds a client has to send its whole request: line, headers, body.
_READ_TIMEOUT = 30


class ReproServer:
    """A long-lived sweep service over one experiment engine.

    ``port=0`` binds an ephemeral port (read ``server.port`` after
    :meth:`start`).  Use as a context manager in tests::

        with ReproServer(port=0, engine=engine) as server:
            status, body = request_json(server.port, "POST", "/sweep", {...})
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 engine=None, queue_size: int = 32,
                 max_body_bytes: int = 1 << 20) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.max_body_bytes = max_body_bytes
        self.stats = ServeStats()
        #: The lifetime record request records fold into: the record
        #: active where :meth:`start` ran, else one of the server's own.
        self.record: Optional[RunRecord] = None
        self._engine = engine
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: Set[asyncio.Task] = set()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_on_stop = True
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def engine(self):
        if self._engine is None:
            from repro.engine.sweep import get_engine

            self._engine = get_engine()
        return self._engine

    def start(self) -> "ReproServer":
        """Bind, spawn the loop thread, and warm a multi-worker pool.

        Returns once the socket is listening and ``self.port`` is the
        real bound port.
        """
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.record = current_record() or RunRecord()
        engine = self.engine  # resolve before the loop thread races us
        if engine.jobs > 1:
            from repro.engine.pool import warm_up

            warm_up(engine.jobs)
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("server failed to start within 60s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the server; with ``drain`` let queued work finish first."""
        if self._loop is None or self._stop_event is None:
            return
        loop, event = self._loop, self._stop_event

        def _signal() -> None:
            self._draining = True
            self._drain_on_stop = drain
            event.set()

        try:
            loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            return  # loop already closed
        self.wait(timeout=timeout)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has shut down (True when it has)."""
        if self._thread is None:
            return True
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # -- event loop -----------------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
        finally:
            loop.close()
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-worker")
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop_event.wait()
            self._draining = True
            server.close()
            await server.wait_closed()
            if self._drain_on_stop:
                # Admitted requests still run, or wait in the executor's
                # FIFO; each one's connection task writes its reply.
                while self.stats.in_flight > 0:
                    await asyncio.sleep(0.02)
                if self._connections:
                    # Give the writes a bounded window to flush.
                    await asyncio.wait(set(self._connections), timeout=10)
        finally:
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*list(self._connections),
                                     return_exceptions=True)
            self._executor.shutdown(wait=True)

    # -- request service (runs on the service thread) -------------------------

    def _service(self, ticket: RequestTicket) -> Tuple[int, Dict[str, Any]]:
        ticket.started_at = time.monotonic()
        self.stats.note_started()
        # Opened here, on the service thread: run_in_executor does not
        # carry the event loop's context over.
        with run_record(parent=self.record) as record:
            try:
                results = execute_request(ticket.endpoint, ticket.request,
                                          self.engine)
            except ProtocolError as exc:
                ticket.finished_at = time.monotonic()
                return self._error_payload(exc.status, str(exc))
            ticket.finished_at = time.monotonic()
            return 200, {
                "schema": SERVE_SCHEMA_VERSION,
                "status": "ok",
                "endpoint": ticket.endpoint,
                "request": ticket.request,
                "results": results,
                "manifest": self._request_manifest(ticket, record),
            }

    def _request_manifest(self, ticket: RequestTicket,
                          record: RunRecord) -> Dict[str, Any]:
        """The manifest of the request's own record, with its ``serve``
        section."""
        cache = record.cache
        hits = cache["memory_hits"] + cache["disk_hits"]
        lookups = hits + cache["misses"]
        record.sections["serve"] = {
            "requests": 1,
            "rejected": 0,
            "queue_depth": ticket.queue_depth_at_enqueue,
            "wait_seconds": ticket.wait_seconds,
            "service_seconds": ticket.service_seconds,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
        }
        return build_manifest(f"serve {ticket.endpoint}", record,
                              engine=self.engine)

    def serve_section(self) -> Dict[str, Any]:
        """Aggregate lifetime ``serve`` section (the shutdown manifest)."""
        return self.stats.serve_section(
            cache_hit_ratio=self.engine.cache.stats.hit_ratio)

    # -- HTTP plumbing (runs on the event loop) -------------------------------

    def _error_payload(self, status: int,
                       message: str) -> Tuple[int, Dict[str, Any]]:
        return status, {
            "schema": SERVE_SCHEMA_VERSION,
            "status": "error",
            "error": {"status": status, "message": message},
        }

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                status, payload = await self._handle_request(reader)
            except ProtocolError as exc:
                status, payload = self._error_payload(exc.status, str(exc))
            except asyncio.TimeoutError:
                status, payload = self._error_payload(
                    408, "timed out reading the request")
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away; nothing to answer
            body = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode()
            writer.write(
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode() + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
            self, reader: asyncio.StreamReader) -> Tuple[int, Dict[str, Any]]:
        method, path, raw = await asyncio.wait_for(
            self._read_request(reader), timeout=_READ_TIMEOUT)
        if method == "GET":
            return self._handle_get(path)
        if method != "POST":
            raise ProtocolError(405, f"unsupported method {method}")
        if path == "/shutdown":
            return self._handle_shutdown()
        if path not in _QUEUED_ENDPOINTS:
            raise ProtocolError(404, f"unknown endpoint {path!r}")
        try:
            body = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from None
        request = parse_request(path, body)
        return await self._enqueue(path, request)

    async def _read_request(
            self, reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
        """The request's method, path and body; the caller bounds the
        whole read by one deadline."""
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise ProtocolError(400, "malformed request line")
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # a line past the stream's 64 KiB limit
            raise ProtocolError(
                400, "request line or header too long") from None
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise ProtocolError(400, "bad Content-Length")
        if length > self.max_body_bytes:
            raise ProtocolError(
                413, f"body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit")
        raw = await reader.readexactly(length) if length else b""
        return parts[0].upper(), parts[1].split("?", 1)[0], raw

    def _handle_get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            return 200, {
                "schema": SERVE_SCHEMA_VERSION,
                "status": "draining" if self._draining else "ok",
                "queue_depth": self.stats.queue_depth,
                "queue_size": self.queue_size,
            }
        if path == "/stats":
            from repro.engine.pool import pool_stats

            cache = self.engine.cache.stats
            return 200, {
                "schema": SERVE_SCHEMA_VERSION,
                "status": "draining" if self._draining else "ok",
                "queue_depth": self.stats.queue_depth,
                "queue_size": self.queue_size,
                "serve": self.stats.snapshot(),
                "cache": {
                    "memory_hits": cache.memory_hits,
                    "disk_hits": cache.disk_hits,
                    "misses": cache.misses,
                    "stores": cache.stores,
                    "hit_ratio": cache.hit_ratio,
                },
                "pool": pool_stats(),
                "process": _process_stats(),
            }
        raise ProtocolError(404, f"unknown endpoint {path!r}")

    def _handle_shutdown(self) -> Tuple[int, Dict[str, Any]]:
        assert self._stop_event is not None
        self._draining = True
        self._drain_on_stop = True
        self._stop_event.set()
        return 200, {
            "schema": SERVE_SCHEMA_VERSION,
            "status": "draining",
            "queue_depth": self.stats.queue_depth,
        }

    async def _enqueue(self, endpoint: str,
                       request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Admit one request, then await its turn on the service thread."""
        assert self._loop is not None
        if self._draining:
            raise ProtocolError(503, "server is draining")
        ticket = RequestTicket(endpoint=endpoint, request=request)
        if not self.stats.admit(ticket, self.queue_size):
            raise ProtocolError(
                429, f"request queue full ({self.queue_size} pending); "
                     f"retry later")
        try:
            status, payload = await self._loop.run_in_executor(
                self._executor, self._service, ticket)
        except Exception as exc:
            status, payload = self._error_payload(
                500, f"{type(exc).__name__}: {exc}")
        self.stats.note_completed(ticket, ok=status == 200)
        return status, payload


def _process_stats() -> Dict[str, int]:
    """Fixed-size resource gauges of this process (``GET /stats``)."""
    rss_kb = 0
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
        open_fds = len(os.listdir("/proc/self/fd"))
    except OSError:  # no procfs
        open_fds = 0
    return {
        "rss_kb": rss_kb,
        "open_fds": open_fds,
        "threads": threading.active_count(),
    }


def request_json(port: int, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 host: str = "127.0.0.1",
                 timeout: float = 120.0) -> Tuple[int, Dict[str, Any]]:
    """Minimal blocking JSON client (tests, the bench, simple scripts)."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


__all__ = ["ReproServer", "request_json"]
