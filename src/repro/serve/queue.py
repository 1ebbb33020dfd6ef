"""The bounded request queue's bookkeeping: tickets and telemetry.

The queue itself is the FIFO of the one-thread service executor owned
by :class:`~repro.serve.server.ReproServer`; what lives here is
everything *around* it — the per-request ticket that rides through the
queue and the thread-safe counters the ``/stats`` endpoint, the manifest
``serve`` section and the load bench all read, including the waiting
count that bounds the queue.

Backpressure model: :meth:`ServeStats.admit` refuses a request while
``queue_size`` admitted ones still wait for the service thread — HTTP
429 at once rather than parking the client, so a saturated server
degrades to fast failures instead of unbounded latency.  The queue bound
is therefore the server's *entire* memory commitment to pending work.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, Optional


@dataclasses.dataclass
class RequestTicket:
    """One queued request: what to run, plus its timing lifecycle."""

    endpoint: str  # "/sweep" | "/points" | "/validate"
    request: Dict[str, Any]  # the normalised (echoed) request
    enqueued_at: float = dataclasses.field(default_factory=time.monotonic)
    #: Queue depth observed at admission (how many were ahead of us).
    queue_depth_at_enqueue: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def wait_seconds(self) -> float:
        """Time spent queued before a service thread picked us up."""
        started = self.started_at if self.started_at is not None \
            else time.monotonic()
        return max(0.0, started - self.enqueued_at)

    @property
    def service_seconds(self) -> float:
        """Time spent executing (0.0 until service has started)."""
        if self.started_at is None:
            return 0.0
        finished = self.finished_at if self.finished_at is not None \
            else time.monotonic()
        return max(0.0, finished - self.started_at)


class ServeStats:
    """Thread-safe request/queue accounting for one server lifetime.

    Written from the service thread and the event loop, read from
    ``/stats`` handlers and the shutdown manifest — everything goes
    through one lock, and :meth:`snapshot` returns plain dicts so
    readers never hold live references.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0  # completed successfully
        self.errors = 0  # completed with a 4xx/5xx from the handler
        self.rejected = 0  # refused at admission because the queue was full
        self.in_flight = 0  # admitted, not yet completed
        self.queue_depth = 0  # admitted, not yet started by the service thread
        self.max_queue_depth = 0
        self.wait_seconds = 0.0
        self.service_seconds = 0.0
        self.max_wait_seconds = 0.0
        self.max_service_seconds = 0.0
        self.by_endpoint: Dict[str, int] = {}

    def admit(self, ticket: RequestTicket, queue_size: int) -> bool:
        """Count ``ticket`` in; refuse it (False) while ``queue_size``
        admitted requests are still waiting."""
        with self._lock:
            if self.queue_depth >= queue_size:
                self.rejected += 1
                return False
            ticket.queue_depth_at_enqueue = self.queue_depth
            self.queue_depth += 1
            self.in_flight += 1
            self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
            return True

    def note_started(self) -> None:
        with self._lock:
            self.queue_depth -= 1

    def note_completed(self, ticket: RequestTicket, ok: bool) -> None:
        wait = ticket.wait_seconds
        service = ticket.service_seconds
        with self._lock:
            self.in_flight -= 1
            if ok:
                self.requests += 1
            else:
                self.errors += 1
            self.wait_seconds += wait
            self.service_seconds += service
            self.max_wait_seconds = max(self.max_wait_seconds, wait)
            self.max_service_seconds = max(self.max_service_seconds, service)
            self.by_endpoint[ticket.endpoint] = \
                self.by_endpoint.get(ticket.endpoint, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of every counter (for ``/stats``)."""
        with self._lock:
            return {
                "requests": self.requests,
                "errors": self.errors,
                "rejected": self.rejected,
                "in_flight": self.in_flight,
                "max_queue_depth": self.max_queue_depth,
                "wait_seconds": self.wait_seconds,
                "service_seconds": self.service_seconds,
                "max_wait_seconds": self.max_wait_seconds,
                "max_service_seconds": self.max_service_seconds,
                "by_endpoint": dict(self.by_endpoint),
            }

    def serve_section(self, cache_hit_ratio: float) -> Dict[str, Any]:
        """The aggregate manifest ``serve`` section (schema v8 shape)."""
        with self._lock:
            return {
                "requests": self.requests,
                "rejected": self.rejected,
                "queue_depth": self.queue_depth,
                "wait_seconds": self.wait_seconds,
                "service_seconds": self.service_seconds,
                "cache_hit_ratio": cache_hit_ratio,
            }


__all__ = ["RequestTicket", "ServeStats"]
