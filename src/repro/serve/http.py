"""The HTTP layer: one JSON front door driven by caller-supplied tables.

A front door is a *route table* ``{(method, path): callable(payload) ->
(status, body)}`` plus an ordered *error table* ``[(exception type(s),
status, body builder or None), ...]`` mapping what a route raises to a
reply (first match wins, anything unmatched is a 500).  Both tables come
from the caller — ``scripts/serve.py`` builds the one pair every
subcommand serves — so this module knows nothing about clusters or
sessions, and tests can serve that table, or their own, in-process on
port 0.

:class:`JsonServer` owns what every route shares: the HTTP/1.0 exchange
(read to the blank line, usually one ``recv``; parse the request line and
``Content-Length`` by hand; one ``sendall``; close), the bounded,
validated body reader, JSON encoding and its own counters.  The front
door is bounded: ``HANDLERS`` pre-started threads are every exchange that
can be in progress, and a stalled client holds one for ``SOCKET_TIMEOUT``
before its 408.  Saturated, the ``http`` stats block reads ``busy ==
handlers`` and new connections wait in the listen queue (``BACKLOG``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import socket
import threading
from http import HTTPStatus
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .request import RecoveryRequest, RecoveryResponse, wire_arrays

logger = logging.getLogger(__name__)

#: Largest request body the server will read; longer ones get a 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Largest request line + header block; longer ones get a 431.
MAX_HEADER_BYTES = 64 * 1024
#: Per-socket-operation timeout: a client that stalls mid-request gets a 408.
SOCKET_TIMEOUT = 30.0
#: Accept threads, i.e. exchanges in progress at once.  Above the default
#: ``ShardSpec.max_inflight`` (32), so a shard's 429 shedding stays reachable.
HANDLERS = 64
#: Connections the kernel queues while every handler is busy.
BACKLOG = 128

_REQUEST_LINE = re.compile(rb"(\S+) (\S+) HTTP/\d+\.\d+")
_CONTENT_LENGTH = re.compile(rb"^content-length:[ \t]*(.*?)[ \t]*\r?$", re.I | re.M)
_REASONS = {status.value: status.phrase.encode() for status in HTTPStatus}

Reply = Tuple[int, Dict[str, Any]]
Route = Callable[[Dict[str, Any]], Reply]
Routes = Mapping[Tuple[str, str], Route]
ErrorTable = Sequence[Tuple[
    Union[type, Tuple[type, ...]], int,
    Optional[Callable[[Exception], Dict[str, Any]]]]]


class HttpError(Exception):
    """A request the handler itself rejects, with the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# Wire shapes of the front door's replies
# ----------------------------------------------------------------------
def parse_request(payload: Dict[str, Any]) -> RecoveryRequest:
    """The body as a request; ``points`` / ``times`` stay the parsed lists
    (the router and the shard check them in their own passes)."""
    return RecoveryRequest(
        xy=payload["points"], times=payload["times"],
        hour=int(payload.get("hour", 12)),
        holiday=bool(payload.get("holiday", False)),
        request_id=str(payload.get("request_id", "")),
    )


def response_payload(response: RecoveryResponse) -> Dict[str, Any]:
    """The response body.  Segment ids and 6-decimal ratios come from the
    shard cache entry's stored wire form when the response carries one,
    else from :func:`wire_arrays` of its trajectory."""
    segments, ratios = response.wire or wire_arrays(response.trajectory)
    return {
        "request_id": response.request_id,
        "segments": segments.tolist(),
        "ratios": ratios.tolist(),
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
        segments, ratios = wire_arrays(update.trajectory)
        payload.update({"segments": segments.tolist(), "ratios": ratios.tolist(),
                        "times": update.trajectory.times.tolist()})
    return payload


# ----------------------------------------------------------------------
def _recv(conn: socket.socket) -> bytes:
    """One non-empty read: a stall is the client's 408, EOF a lost peer."""
    try:
        chunk = conn.recv(65536)
    except TimeoutError:
        raise HttpError(408, "timed out reading the request") from None
    if not chunk:
        raise ConnectionAbortedError("peer closed before completing a request")
    return chunk


def _read_body(conn: socket.socket, headers: bytes, body: bytes) -> Dict[str, Any]:
    """The request's JSON object, ``Content-Length`` checked before the wait."""
    lengths = set(_CONTENT_LENGTH.findall(headers)) or {b"0"}
    if len(lengths) > 1 or not (value := lengths.pop()).isdigit():
        raise HttpError(400, "Content-Length must be one non-negative integer")
    if (length := int(value)) > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = bytearray(body)
    while len(body) < length:
        body += _recv(conn)
    try:
        payload = json.loads(body[:length] or b"{}")
    except ValueError as exc:
        raise HttpError(400, str(exc))
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    return payload


class JsonServer:
    """A bounded HTTP/1.0 front door answering from one route + error table.

    ``HANDLERS`` daemon threads, started once by :meth:`serve_forever`,
    each block in ``accept()`` on the one listening socket and serve the
    connection they accepted: one request, one reply, close — no hand-off
    between threads, none created per request.  The table's ``GET /stats``
    reply, if it has one, carries :meth:`stats` as its ``http`` block.
    """

    def __init__(self, address: Tuple[str, int], routes: Routes,
                 errors: ErrorTable = ()) -> None:
        self.routes, self.errors = routes, errors
        self._listener = socket.create_server(address, backlog=BACKLOG)
        self.server_address = self._listener.getsockname()
        self._stopped = threading.Event()
        self._lock = threading.Lock()  # guards the three counters below
        self._accepted = self._busy = 0
        self._replies: Dict[int, int] = {}
        self._threads: List[threading.Thread] = []

    def serve_forever(self) -> None:
        """Start the handler threads; park the caller until :meth:`shutdown`."""
        for _ in range(HANDLERS):
            thread = threading.Thread(target=self._serve, daemon=True)
            thread.start()
            self._threads.append(thread)
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting: ``serve_forever`` returns and each thread leaves
        once the exchange it is in has been answered."""
        self._stopped.set()
        with contextlib.suppress(OSError):  # a second call: already shut down
            self._listener.shutdown(socket.SHUT_RDWR)  # fails every accept()

    def server_close(self) -> None:
        self.shutdown()
        for thread in self._threads:
            thread.join()
        self._listener.close()

    def stats(self) -> Dict[str, Any]:
        """The ``http`` block; ``busy`` counts the exchange that reports it."""
        with self._lock:
            return {"handlers": sum(thread.is_alive() for thread in self._threads),
                    "busy": self._busy, "accepted": self._accepted,
                    "replies": {str(k): n for k, n in sorted(self._replies.items())}}

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # shut down, or this connection died in the backlog
                self._stopped.wait(0.05)
                continue
            with self._lock:
                self._accepted += 1
                self._busy += 1
            status = 0
            try:
                conn.settimeout(SOCKET_TIMEOUT)
                status = self._exchange(conn)
            except OSError as exc:  # the peer reset or left: ends this connection only
                logger.debug("connection dropped: %s", exc)
            except Exception:  # the boundary: no exchange takes its thread with it
                logger.warning("exchange failed", exc_info=True)
            with self._lock:  # before the EOF that tells the client it is done
                self._busy -= 1
                if status:
                    self._replies[status] = self._replies.get(status, 0) + 1
            with conn, contextlib.suppress(OSError):  # the peer may be gone already
                conn.shutdown(socket.SHUT_WR)

    def _exchange(self, conn: socket.socket) -> int:
        """Answer one request; the status sent.  Socket errors propagate."""
        try:
            route, payload = self._request(conn)
        except HttpError as exc:
            status, body = self._failure(exc)
        else:
            try:
                status, body = route(payload)
                if route is self.routes.get(("GET", "/stats")):
                    body = {**body, "http": self.stats()}
            except Exception as exc:  # the boundary: every failure is a reply
                status, body = self._failure(exc)
        raw = json.dumps(body).encode()
        conn.sendall(b"HTTP/1.0 %d %s\r\nContent-Type: application/json\r\n"
                     b"Content-Length: %d\r\n\r\n%s"
                     % (status, _REASONS.get(status, b"Unknown"), len(raw), raw))
        return status

    def _request(self, conn: socket.socket) -> Tuple[Route, Dict[str, Any]]:
        """Read to the blank line; the route named and its checked payload."""
        data = _recv(conn)
        while (end := data.find(b"\r\n\r\n", 0, MAX_HEADER_BYTES)) < 0:
            if len(data) >= MAX_HEADER_BYTES:
                raise HttpError(431, f"request headers exceed {MAX_HEADER_BYTES} bytes")
            data += _recv(conn)
        line, _, headers = data[:end].partition(b"\r\n")
        match = _REQUEST_LINE.fullmatch(line)
        if match is None:
            raise HttpError(400, "request line is not METHOD PATH HTTP/x.y")
        method, path = match[1].decode("latin-1"), match[2].decode("latin-1")
        if method not in ("GET", "POST"):
            raise HttpError(501, f"unsupported method {method}")
        route = self.routes.get((method, path))
        if route is None:
            raise HttpError(404, f"unknown path {path}")
        return route, (_read_body(conn, headers, data[end + 4:])
                       if method == "POST" else {})

    def _failure(self, exc: Exception) -> Reply:
        if isinstance(exc, HttpError):
            return exc.status, {"error": str(exc)}
        for kinds, status, describe in self.errors:
            if isinstance(exc, kinds):
                return status, (describe(exc) if describe else {"error": str(exc)})
        return 500, {"error": str(exc)}  # timeouts / model faults
