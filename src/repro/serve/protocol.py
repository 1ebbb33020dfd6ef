"""The ``repro serve`` wire protocol: request parsing and execution.

One module owns both the *shape* of a request (parse + normalise +
validate, so errors become clean 4xx responses) and its *execution*
(:func:`execute_request`), for one reason: the serial CLI path, the test
harness and the server must all run a request through the **same**
function, so "the served response equals the serial result" is true by
construction for everything except what the server adds around it
(manifest, timing).  :func:`identity_payload` strips exactly those
additions, and :func:`serial_reference` computes the comparable serial
envelope — ``canonical_dumps`` of the two must match byte-for-byte.

Endpoints:

* ``POST /sweep`` — ``{"points": [registered names...], ...sizes}``;
* ``POST /points`` — ``{"points": [DesignPoint dicts...], ...sizes}``;
* ``POST /validate`` — ``{"only": [...], "deep": bool, ...sizes}``.

All three echo their normalised request back in the response, so a
client can verify the server ran what it meant.  A repeated ``/sweep``
or ``/points`` request is answered from the plan its first run left
behind (:func:`_evaluate`), still asking the engine for every result.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Dict, List, Tuple

from repro.lru import LruMemo

#: Response envelope schema; bump when the response shape changes.
SERVE_SCHEMA_VERSION = "repro-serve-v1"

#: Sweep-size fields shared by /sweep and /points, with bounds: a typed
#: (name, default, min, max) row per field.  ``None`` defaults defer to
#: the executing function's own default.
_SIZE_FIELDS = (
    ("uops", 4000, 1, 10_000_000),
    ("multicore_uops", None, 1, 30_000_000),
    ("seed", 1234, 0, 2**31 - 1),
    ("grid", 8, 2, 64),
    ("apps", None, 1, 64),
)


class ProtocolError(Exception):
    """A malformed/unserviceable request, carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _require_object(body: Any) -> Dict[str, Any]:
    if not isinstance(body, dict):
        raise ProtocolError(
            400, f"request body must be a JSON object, "
                 f"got {type(body).__name__}")
    return body


def _parse_sizes(body: Dict[str, Any]) -> Dict[str, Any]:
    sizes: Dict[str, Any] = {}
    for name, default, low, high in _SIZE_FIELDS:
        value = body.get(name, default)
        if value is None:
            sizes[name] = None
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(400, f"{name!r} must be an integer")
        if not low <= value <= high:
            raise ProtocolError(
                400, f"{name!r} must be in [{low}, {high}], got {value}")
        sizes[name] = value
    return sizes


def _reject_unknown(body: Dict[str, Any], known: frozenset,
                    endpoint: str) -> None:
    unknown = sorted(set(body) - known)
    if unknown:
        raise ProtocolError(
            400, f"unknown field(s) for {endpoint}: {', '.join(unknown)}")


_SIZE_NAMES = frozenset(name for name, *_ in _SIZE_FIELDS)


def parse_sweep_request(body: Any) -> Dict[str, Any]:
    """Normalise a ``POST /sweep`` body: registered point names + sizes."""
    from repro.design.registry import get_point

    body = _require_object(body)
    _reject_unknown(body, _SIZE_NAMES | {"points"}, "/sweep")
    names = body.get("points")
    if not isinstance(names, list) or not names:
        raise ProtocolError(400, "'points' must be a non-empty list of "
                                 "registered point names")
    for name in names:
        if not isinstance(name, str):
            raise ProtocolError(400, "/sweep points are registered names "
                                     "(strings); use /points for inline "
                                     "DesignPoint objects")
        try:
            get_point(name)
        except KeyError as exc:
            raise ProtocolError(400, str(exc)) from None
    return {"points": list(names), **_parse_sizes(body)}


def parse_points_request(body: Any) -> Dict[str, Any]:
    """Normalise a ``POST /points`` body: inline DesignPoint dicts + sizes."""
    from repro.design.point import DesignPoint

    body = _require_object(body)
    _reject_unknown(body, _SIZE_NAMES | {"points"}, "/points")
    specs = body.get("points")
    if not isinstance(specs, list) or not specs:
        raise ProtocolError(400, "'points' must be a non-empty list of "
                                 "DesignPoint objects")
    normalised: List[Dict[str, Any]] = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise ProtocolError(400, "/points entries are DesignPoint "
                                     "objects; use /sweep for registered "
                                     "names")
        try:
            normalised.append(DesignPoint.from_dict(spec).to_dict())
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(400, f"invalid DesignPoint: {exc}") from None
    return {"points": normalised, **_parse_sizes(body)}


def parse_validate_request(body: Any) -> Dict[str, Any]:
    """Normalise a ``POST /validate`` body: artifact subset + depth.

    ``update`` is deliberately not accepted: a server must never rewrite
    goldens on behalf of a remote client.
    """
    from repro.golden.artifacts import artifact_names

    body = _require_object(body)
    _reject_unknown(body, frozenset({"only", "deep", "uops"}), "/validate")
    known = artifact_names()
    only = body.get("only")
    if only is not None:
        if not isinstance(only, list) or not only:
            raise ProtocolError(400, "'only' must be a non-empty list of "
                                     "artifact names (or omitted)")
        for name in only:
            if name not in known:
                raise ProtocolError(
                    400, f"unknown golden artifact {name!r}; known: "
                         f"{', '.join(known)}")
        only = list(only)
    deep = body.get("deep", False)
    if not isinstance(deep, bool):
        raise ProtocolError(400, "'deep' must be a boolean")
    uops = body.get("uops")
    if uops is not None and (not isinstance(uops, int)
                             or isinstance(uops, bool) or uops < 1):
        raise ProtocolError(400, "'uops' must be a positive integer")
    return {"only": only, "deep": deep, "uops": uops}


_PARSERS = {
    "/sweep": parse_sweep_request,
    "/points": parse_points_request,
    "/validate": parse_validate_request,
}


def parse_request(endpoint: str, body: Any) -> Dict[str, Any]:
    """Dispatch to the endpoint's parser (404 for an unknown endpoint)."""
    parser = _PARSERS.get(endpoint)
    if parser is None:
        raise ProtocolError(404, f"unknown endpoint {endpoint!r}")
    return parser(body)


# -- execution ----------------------------------------------------------------


def evaluation_payload(evaluations) -> List[Dict[str, Any]]:
    """Deterministic JSON form of a list of :class:`PointEvaluation`.

    The same fields the explore store records per point — identity,
    per-app series, headline summary — so served results line up with
    every other result surface in the repo.
    """
    return [
        {
            "name": ev.name,
            "point": ev.design.point.to_dict(),
            "ghz": ev.ghz,
            "apps": list(ev.apps),
            "cpi": list(ev.cpi),
            "speedup": list(ev.speedup),
            "energy": list(ev.energy),
            "peak_c": list(ev.peak_c),
            "summary": ev.summary_row(),
        }
        for ev in evaluations
    ]


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building a new encoder on every call.
_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclasses.dataclass(frozen=True)
class _Plan:
    """One evaluated ``/sweep`` or ``/points`` request, kept for repeats.

    ``registered`` is every registry entry the evaluation read, as
    ``(name, point)`` pairs; ``resolved`` and ``groups`` are what
    :func:`~repro.design.sweep.submit_groups` resubmits; ``results``
    holds, per group, the engine results ``evaluations`` was built from.
    """

    registered: Tuple[Tuple[str, Any], ...]
    resolved: List[Any]
    groups: List[Any]
    results: List[List[Any]]
    evaluations: List[Dict[str, Any]]

    def current(self) -> bool:
        """True while the registry still holds every point read."""
        from repro.design.registry import get_point

        try:
            return all(get_point(name) is point
                       for name, point in self.registered)
        except KeyError:
            return False

    def built_from(self, results: List[List[Any]]) -> bool:
        """True when ``results`` are the very objects the payload came
        from (``is``, not ``==``)."""
        return all(fresh is kept
                   for now, then in zip(results, self.results)
                   for fresh, kept in zip(now, then))


#: Plans keyed by the canonical JSON of ``[endpoint, request]``.  Bounded
#: because ``repro serve`` is long-lived; locked because the serial
#: reference may run on another thread while the service thread serves.
_PLANS = LruMemo(cap=64)
_PLANS_LOCK = threading.Lock()


def _evaluate(endpoint: str, request: Dict[str, Any],
              engine) -> Dict[str, Any]:
    """Evaluate a ``/sweep`` or ``/points`` request through its plan.

    A request with no plan runs :func:`submit_points` and leaves one.  A
    repeat submits each group's specs once, as the first run did, so its
    lookups, counters and manifest are unchanged; it resolves, keys,
    prices and solves nothing.  It returns the plan's payload while the
    registry still holds the points read and every result is the very
    object that payload was built from; otherwise it finishes the groups
    from the results it just fetched and replaces the plan.
    """
    from repro.design.sweep import submit_groups

    key = _to_json([endpoint, request])
    with _PLANS_LOCK:
        plan = _PLANS.peek(key)
    if plan is not None and plan.current():
        registered = plan.registered
        pending = submit_groups(plan.resolved, plan.groups, engine)
        if plan.built_from(pending.group_results()):
            return {"evaluations": plan.evaluations}
    else:
        registered, pending = _submit(endpoint, request, engine)
    evaluations = evaluation_payload(pending.result())
    with _PLANS_LOCK:
        _PLANS.put(key, _Plan(registered, pending.resolved, pending.groups,
                              pending.group_results(), evaluations))
    return {"evaluations": evaluations}


def _submit(endpoint: str, request: Dict[str, Any], engine):
    """Read a request's points and submit them: ``(registry entries
    read, pending evaluation)``."""
    from repro.design.point import DesignPoint
    from repro.design.registry import get_point
    from repro.design.sweep import BASELINE_POINT, ConfigNameClash, \
        submit_points

    if endpoint == "/sweep":
        names = list(request["points"])
        points = [get_point(name) for name in names]
    else:
        names = []
        points = [DesignPoint.from_dict(spec) for spec in request["points"]]
    registered = (*zip(names, points),
                  (BASELINE_POINT, get_point(BASELINE_POINT)))
    try:
        pending = submit_points(
            points,
            uops=request["uops"],
            multicore_uops=request["multicore_uops"],
            seed=request["seed"],
            grid=request["grid"],
            apps=request["apps"],
            engine=engine,
        )
    except ConfigNameClash as exc:
        raise ProtocolError(400, str(exc)) from None
    return registered, pending


def execute_request(endpoint: str, request: Dict[str, Any],
                    engine=None) -> Dict[str, Any]:
    """Run a parsed request and return its ``results`` payload.

    This is the single execution path shared by the server's service
    thread and the serial reference (:func:`serial_reference`) — both
    sides of the identity assertion call exactly this.  A ``/sweep`` or
    ``/points`` payload may be shared with the request's memoized plan,
    so callers must not mutate it.
    """
    if endpoint in ("/sweep", "/points"):
        return _evaluate(endpoint, request, engine)
    if endpoint == "/validate":
        from repro.golden.artifacts import BuildParams
        from repro.golden.validate import run_validation

        params = None
        if request["uops"] is not None:
            params = BuildParams(uops=request["uops"],
                                 multicore_uops=3 * request["uops"])
        report = run_validation(only=request["only"], update=False,
                                deep=request["deep"], params=params)
        return {"report": report}
    raise ProtocolError(404, f"unknown endpoint {endpoint!r}")


# -- identity -----------------------------------------------------------------


def identity_payload(response: Dict[str, Any]) -> Dict[str, Any]:
    """The timing-free core of a served response.

    Everything the server adds *around* the computation — the per-request
    manifest, queue/wait/service telemetry — is stripped; what remains
    must be byte-identical (under ``canonical_dumps``) to the serial
    path's :func:`serial_reference` for the same request.
    """
    return {
        "endpoint": response["endpoint"],
        "request": response["request"],
        "results": response["results"],
    }


def serial_reference(endpoint: str, request: Dict[str, Any],
                     engine=None) -> Dict[str, Any]:
    """The serial-path envelope a served response must match."""
    parsed = parse_request(endpoint, request)
    return {
        "endpoint": endpoint,
        "request": parsed,
        "results": execute_request(endpoint, parsed, engine),
    }


__all__ = [
    "SERVE_SCHEMA_VERSION",
    "ProtocolError",
    "evaluation_payload",
    "execute_request",
    "identity_payload",
    "parse_points_request",
    "parse_request",
    "parse_sweep_request",
    "parse_validate_request",
    "serial_reference",
]
