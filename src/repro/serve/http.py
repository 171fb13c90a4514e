"""The HTTP layer: one JSON request handler driven by caller-supplied tables.

A front door is a *route table* ``{(method, path): callable(payload) ->
(status, body)}`` plus an ordered *error table* ``[(exception type(s),
status, body builder or None), ...]`` mapping what a route raises to a
reply (first match wins, anything unmatched is a 500).  Both tables come
from the caller — ``scripts/serve.py`` builds one pair for the
single-city service + streaming and one for the cluster — so this module
knows nothing about clusters or sessions, and tests can serve either
table in-process on port 0.

The handler owns what every route shares: the bounded, validated body
reader, JSON encoding, the quiet access log and a socket timeout so a
stalled client cannot pin a handler thread.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from .request import RecoveryRequest, RecoveryResponse

#: Largest request body the handler will read; longer ones get a 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Per-socket-operation timeout: a client that stalls mid-body is dropped.
SOCKET_TIMEOUT = 30.0

Reply = Tuple[int, Dict[str, Any]]
Routes = Mapping[Tuple[str, str], Callable[[Dict[str, Any]], Reply]]
ErrorTable = Sequence[Tuple[
    Union[type, Tuple[type, ...]], int,
    Optional[Callable[[Exception], Dict[str, Any]]]]]


class HttpError(Exception):
    """A request the handler itself rejects, with the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# Wire shapes shared by every front door
# ----------------------------------------------------------------------
def parse_request(payload: Dict[str, Any]) -> RecoveryRequest:
    return RecoveryRequest(
        xy=payload["points"], times=payload["times"],
        hour=int(payload.get("hour", 12)),
        holiday=bool(payload.get("holiday", False)),
        request_id=str(payload.get("request_id", "")),
    )


def response_payload(response: RecoveryResponse) -> Dict[str, Any]:
    return {
        "request_id": response.request_id,
        "segments": response.trajectory.segments.tolist(),
        "ratios": [round(float(r), 6) for r in response.trajectory.ratios],
        "times": response.trajectory.times.tolist(),
        "cached": response.cached,
        "latency_ms": round(response.latency_ms, 3),
        "model": response.model,
        "model_tag": response.model_tag,
        "shard": response.shard,
        "session_id": response.session_id,
        "revised_from": response.revised_from,
    }


def update_payload(update) -> Dict[str, Any]:
    """JSON body for one streaming append (a ``repro.stream.StreamUpdate``)."""
    payload = {
        "session_id": update.session_id,
        "grid_length": update.grid_length,
        "committed_steps": update.committed_steps,
        "revised_from": update.revised_from,
        "decoded_steps": update.decoded_steps,
        "skipped_steps": update.skipped_steps,
        "latency_ms": round(update.latency_ms, 3),
        "model": update.model,
        "model_tag": update.model_tag,
        "shard": update.shard,
    }
    if update.trajectory is not None:
        payload.update({
            "segments": update.trajectory.segments.tolist(),
            "ratios": [round(float(r), 6) for r in update.trajectory.ratios],
            "times": update.trajectory.times.tolist(),
        })
    return payload


def recover_route(recover: Callable[..., RecoveryResponse]
                  ) -> Callable[[Dict[str, Any]], Reply]:
    """``POST /recover`` over any blocking ``recover(request, timeout=)``."""
    def route(payload: Dict[str, Any]) -> Reply:
        try:
            request = parse_request(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, response_payload(recover(request, timeout=300.0))
    return route


# ----------------------------------------------------------------------
class JsonHandler(BaseHTTPRequestHandler):
    """Dispatches through the tables its :class:`JsonServer` carries."""

    timeout = SOCKET_TIMEOUT

    def log_message(self, fmt, *log_args):  # quiet default access log
        pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        route = self.server.routes.get((method, self.path))
        try:
            if route is None:
                raise HttpError(404, f"unknown path {self.path}")
            status, body = route(self._body() if method == "POST" else {})
        except HttpError as exc:
            status, body = exc.status, {"error": str(exc)}
        except Exception as exc:  # the boundary: every failure is a reply
            status, body = self._failure(exc)
        self._send(status, body)

    def _failure(self, exc: Exception) -> Reply:
        for kinds, status, describe in self.server.errors:
            if isinstance(exc, kinds):
                return status, (describe(exc) if describe
                                else {"error": str(exc)})
        return 500, {"error": str(exc)}  # timeouts / model faults

    def _body(self) -> Dict[str, Any]:
        """The request's JSON object; rejects a malformed or oversized
        ``Content-Length`` before reading a byte it did not promise."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise HttpError(400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise HttpError(408, "timed out reading the request body")
        try:
            payload = json.loads(raw or b"{}")
        except ValueError as exc:
            raise HttpError(400, str(exc))
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def _send(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class JsonServer(ThreadingHTTPServer):
    """A threaded HTTP server answering from one route + error table."""

    def __init__(self, address: Tuple[str, int], routes: Routes,
                 errors: ErrorTable = ()) -> None:
        super().__init__(address, JsonHandler)
        self.routes = routes
        self.errors = errors
