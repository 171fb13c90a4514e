"""The HTTP layer, driven in-process on port 0.

``repro.serve.http`` has one server and ``scripts/serve.py`` supplies its
one route table and one error table, over any shard map (``serve.py http``
is the one-shard case).  Every route, status code and body is asserted
here against the cluster and the sessions behind it, and the hand-written
exchange — framing, the bounded handler set, its counters — against a
table of its own.
"""

import importlib.util
import json
import logging
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import RecoveryCluster, ShardMap, ShardSpec, side_by_side
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.serve import http, save_model_bundle
from repro.stream import StoreConfig, StreamingCluster

REPO = Path(__file__).resolve().parent.parent
TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def cli():
    """``scripts/serve.py`` as a module (it is import-safe by contract)."""
    spec = importlib.util.spec_from_file_location(
        "serve_cli", REPO / "scripts" / "serve.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=24)


@pytest.fixture(scope="module")
def model(data):
    return RNTrajRec(data.network, TINY).eval()


def trace(sample, **extra):
    return {"points": sample.raw_low.xy.tolist(),
            "times": sample.raw_low.times.tolist(),
            "hour": sample.hour, "holiday": sample.holiday, **extra}


class Client:
    """One HTTP/1.0 exchange per call against a server on port 0."""

    def __init__(self, server):
        self.port = server.server_address[1]
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()
        self._server = server
        deadline = time.monotonic() + 10.0
        while server.stats()["handlers"] < http.HANDLERS:  # serve_forever starts them
            assert time.monotonic() < deadline
            time.sleep(0.001)

    def raw(self, *pieces: bytes, timeout: float = 10.0, pause: float = 0.0):
        """Each piece is a ``TCP_NODELAY`` send of its own; the reply is
        whatever arrives before EOF."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index, piece in enumerate(pieces):
                try:
                    conn.sendall(piece)
                except OSError:  # answered and closed already: these were
                    assert index  # bytes past the request, never its start
                    break
                time.sleep(pause)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head[9:12]), json.loads(body)

    def get(self, path):
        return self.raw(f"GET {path} HTTP/1.0\r\n\r\n".encode())

    def post(self, path, payload, length=None):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        length = len(body) if length is None else length
        return self.raw(f"POST {path} HTTP/1.0\r\nContent-Length: {length}"
                        f"\r\n\r\n".encode() + body)

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()


def serve(cli, cluster, **store):
    """The CLI's one table over ``cluster``, as ``serve.py`` wires it;
    ``store`` bounds every shard's session store."""
    return Client(http.JsonServer(
        ("127.0.0.1", 0),
        cli.routes(cluster, StreamingCluster(cluster,
                                             store=StoreConfig(**store))),
        cli.ERRORS))


# ---------------------------------------------------------------------------
# serve.py cluster
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster(data, model):
    shard_map = ShardMap(shards=(ShardSpec(name="cd", dataset="chengdu"),),
                         serve={"cache_capacity": 0})
    with RecoveryCluster(shard_map, model_factory=lambda spec, network: model,
                         network_factory=lambda spec: data.network) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def front(cli, cluster):
    client = serve(cli, cluster)
    yield client
    client.stop()


class TestClusterRoutes:
    def test_recover_body_is_the_response_payload(self, cli, cluster, front, data):
        body = trace(data.train[0], request_id="h0")
        status, reply = front.post("/recover", body)
        direct = cli._response_payload(
            cluster.recover(cli._parse_request(body), timeout=60.0))
        assert status == 200 and reply["request_id"] == "h0"
        assert reply["shard"] == "cd" and reply["model_tag"] == "default#1"
        reply.pop("latency_ms"), direct.pop("latency_ms")
        assert reply == direct

    def test_get_routes(self, front):
        status, health = front.get("/healthz")
        assert (status, health) == (200, {
            "status": "ok", "shards": {"cd": {"materialized": True}}})
        status, stats = front.get("/stats")
        assert status == 200
        assert {"cluster", "router", "shards", "memory", "sessions"} <= set(stats)
        assert stats["http"]["handlers"] == http.HANDLERS
        assert stats["http"]["busy"] == 1  # the exchange that reports it
        assert front.get("/deadletters")[0] == 200

    def test_malformed_requests_are_400(self, front, data):
        assert front.post("/recover", b"{not json")[0] == 400
        assert front.post("/recover", {"times": [0, 12]}) == (
            400, {"error": "'points'"})
        assert front.post("/recover", [1, 2]) == (
            400, {"error": "request body must be a JSON object"})
        reversed_times = trace(data.train[0])
        reversed_times["times"] = reversed_times["times"][::-1]
        assert front.post("/recover", reversed_times)[0] == 400

    def test_a_trace_spanning_too_many_grid_steps_is_400(self, front, data):
        """Counted before the grid is built: ``[0, 1e12]`` would be a
        621 GiB allocation."""
        body = trace(data.train[0])
        body["points"], body["times"] = body["points"][:2], [0.0, 1e12]
        status, reply = front.post("/recover", body)
        assert status == 400 and "ε_ρ steps" in reply["error"]

    def test_unknown_path_shard_and_model_are_404(self, front):
        assert front.get("/nope") == (404, {"error": "unknown path /nope"})
        assert front.post("/nope", {}) == (404, {"error": "unknown path /nope"})
        assert front.post("/swap", {"shard": "zz", "model": "m"})[0] == 404
        assert front.post("/swap", {"shard": "cd", "model": "zz"})[0] == 404

    def test_unroutable_is_422_with_reason(self, front, data):
        far = trace(data.train[0])
        far["points"] = (np.asarray(far["points"]) + 1e7).tolist()
        status, reply = front.post("/recover", far)
        assert status == 422 and reply["reason"] == "outside"
        assert front.get("/deadletters")[1]["dead_letters"]

    def test_shed_is_429_with_shard(self, front, cluster, data, monkeypatch):
        monkeypatch.setattr(cluster.shard("cd"), "_pick_replica", lambda: None)
        status, reply = front.post("/recover", trace(data.train[1]))
        assert status == 429 and reply["shard"] == "cd"

    def test_model_fault_is_500(self, front, model, data, monkeypatch):
        def fault(batch):
            raise RuntimeError("encoder fault")

        monkeypatch.setattr(model, "encode", fault)
        assert front.post("/recover", trace(data.train[2])) == (
            500, {"error": "encoder fault"})

    def test_a_type_error_below_the_route_is_a_fault_not_a_400(
            self, front, model, data, monkeypatch):
        raw = data.train[1].raw_low
        sid = front.post("/session/open", {"point": raw.xy[0].tolist()})[1][
            "session_id"]

        def fault(batch):
            raise TypeError("encoder fault")

        monkeypatch.setattr(model, "encode", fault)
        assert front.post("/session/append", {
            "session_id": sid, "points": raw.xy[:2].tolist(),
            "times": raw.times[:2].tolist()}) == (500, {"error": "encoder fault"})

    def test_swap_and_register(self, front, model, tmp_path):
        assert front.post("/swap", {"shard": "cd"}) == (
            400, {"error": "missing field(s) ['model']"})
        assert front.post("/register", {"model": "v2"}) == (
            400, {"error": "missing field(s) ['shard', 'bundle']"})
        prefix = str(tmp_path / "bundle")
        save_model_bundle(model, prefix)
        assert front.post("/register", {
            "shard": "cd", "model": "v2", "bundle": prefix}) == (
            200, {"shard": "cd", "model": "v2", "model_tag": "v2#1"})
        assert front.post("/swap", {"shard": "cd", "model": "default"}) == (
            200, {"shard": "cd", "model": "default", "model_tag": "default#1"})


# ---------------------------------------------------------------------------
# The body reader
# ---------------------------------------------------------------------------
class TestBodyReader:
    @pytest.mark.parametrize("length, status", [
        ("abc", 400), ("-1", 400), (str(http.MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_is_answered_at_once(self, front, length, status):
        started = time.monotonic()
        assert front.post("/recover", b"{}", length=length)[0] == status
        assert time.monotonic() - started < 2.0

    def test_overstated_length_is_dropped_at_the_socket_timeout(
            self, front, monkeypatch):
        monkeypatch.setattr(http, "SOCKET_TIMEOUT", 0.3)
        started = time.monotonic()
        assert front.post("/recover", b"{}", length=999999)[0] == 408
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("wire, status, error", [
        pytest.param(b"hello\r\n\r\n", 400, "request line", id="one-word"),
        pytest.param(b"GET /healthz\r\n\r\n", 400, "request line", id="no-version"),
        pytest.param(b"GET  /healthz HTTP/1.0\r\n\r\n", 400, "request line",
                     id="two-spaces"),
        pytest.param(b"DELETE /recover HTTP/1.0\r\n\r\n", 501,
                     "unsupported method DELETE", id="method"),
        pytest.param(b"GET /healthz HTTP/1.0\r\nX-Pad: "
                     + b"a" * http.MAX_HEADER_BYTES + b"\r\n\r\n", 431,
                     "headers exceed", id="header-block"),
        pytest.param(b"POST /recover HTTP/1.0\r\nContent-Length: 2\r\n"
                     b"content-length: 3\r\n\r\n{}", 400, "Content-Length",
                     id="lengths-disagree"),
        pytest.param(b"POST /recover HTTP/1.0\r\nContent-Length: 2\r\n"
                     b"CONTENT-LENGTH:2\r\n\r\n{}", 400, "'points'",
                     id="lengths-agree"),  # one length: the route's own 400
        pytest.param(b"POST /recover HTTP/1.0\r\nX-Content-Length: 9\r\n"
                     b"Content-Length: 2\r\n\r\n{}", 400, "'points'",
                     id="other-header"),  # only the header of that name counts
        pytest.param(b"POST /recover HTTP/1.0\r\nContent-Le", 408, "timed out",
                     id="stalled-headers"),
    ])
    def test_framing_status_table(self, front, monkeypatch, wire, status, error):
        """What the stdlib parser used to police: one JSON reply each (the
        client reads it to EOF, so the connection was closed)."""
        monkeypatch.setattr(http, "SOCKET_TIMEOUT", 0.3)  # the stalled row
        answered, reply = front.raw(wire)
        assert answered == status and error in reply["error"]


# ---------------------------------------------------------------------------
# The exchange itself: any split of the bytes, the bounded handler set, faults
# ---------------------------------------------------------------------------
def _any_case(name):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda flips: "".join(char.upper() if flip else char.lower()
                              for char, flip in zip(name, flips)))


@st.composite
def _framings(draw, method, path, body=b""):
    """One request's bytes, cut into 1-6 sends, every way a client may frame it."""
    headers = draw(st.lists(st.sampled_from([
        "Host: localhost", "Accept: */*", "Content-Type: application/json",
        "X-Content-Length: 7", "Connection: keep-alive"]), max_size=3, unique=True))
    if method == "POST":
        headers.append(f"Content-Length: {len(body)}")
    lines = [f"{method} {path} HTTP/{draw(st.sampled_from(['1.0', '1.1']))}"]
    for header in draw(st.permutations(headers)):
        name, _, value = header.partition(":")
        lines.append(draw(_any_case(name)) + ":" + draw(st.sampled_from(["", " "]))
                     + value.strip())
    wire = ("\r\n".join(lines) + "\r\n\r\n").encode() + body + draw(st.binary(max_size=24))
    cuts = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=5)))
    return [wire[a:b] for a, b in zip([0] + cuts, cuts + [len(wire)]) if a < b]


class TestFramingProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=st.data(), pause=st.sampled_from([0.0, 0.002]))
    def test_any_split_answers_like_one_send(self, front, data, case, pause):
        body = json.dumps(trace(data.train[0], request_id="split")).encode()
        for method, path, payload in (("POST", "/recover", body),
                                      ("GET", "/healthz", b"")):
            whole = (front.post(path, payload) if method == "POST"
                     else front.get(path))
            split = front.raw(*case.draw(_framings(method, path, payload)),
                              pause=pause)
            whole[1].pop("latency_ms", None), split[1].pop("latency_ms", None)
            assert whole[0] == 200 and split == whole


@pytest.fixture()
def gated():
    """A front door over a table of its own: ``/gate`` holds its handler
    until ``release`` is set, ``/boom`` returns what JSON cannot encode."""
    entered, release = threading.Semaphore(0), threading.Event()

    def gate(_):
        entered.release()
        assert release.wait(30.0)
        return 200, {"gate": "open"}

    client = Client(http.JsonServer(("127.0.0.1", 0), {
        ("GET", "/gate"): gate,
        ("GET", "/stats"): lambda _: (200, {"own": True}),
        ("GET", "/boom"): lambda _: (200, {"body": object()})}))
    client.entered, client.release = entered, release
    yield client
    release.set()
    client.stop()


def _in_threads(count, call):
    """``call()`` on ``count`` threads at once: each one's result, or what it raised."""
    results = [None] * count

    def run(index):
        try:
            results[index] = call()
        except Exception as exc:  # recorded, so the assertion can show it
            results[index] = exc

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    return threads, results


class TestBoundedFrontDoor:
    def test_stats_block_counts_the_exchange_in_progress(self, gated):
        server = gated._server
        threads, results = _in_threads(1, lambda: gated.get("/gate"))
        assert gated.entered.acquire(timeout=10.0)
        assert server.stats() == {"handlers": http.HANDLERS, "busy": 1,
                                  "accepted": 1, "replies": {}}
        gated.release.set()
        threads[0].join(timeout=10.0)
        assert results == [(200, {"gate": "open"})]
        assert server.stats()["busy"] == 0
        assert server.stats()["replies"] == {"200": 1}
        assert gated.get("/nope")[0] == 404
        assert gated.get("/stats") == (200, {"own": True, "http": {
            "handlers": http.HANDLERS, "busy": 1, "accepted": 3,
            "replies": {"200": 1, "404": 1}}})

    def test_a_full_house_queues_in_the_backlog(self, gated):
        """``handlers + 4`` clients at once: none refused or reset, all
        answered once the gate opens — and no counter update is lost."""
        count, server = http.HANDLERS + 4, gated._server
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, results = _in_threads(count, lambda: gated.get("/gate"))
            for _ in range(http.HANDLERS):
                assert gated.entered.acquire(timeout=10.0)
            assert server.stats()["busy"] == server.stats()["handlers"] == http.HANDLERS
            assert not gated.entered.acquire(timeout=0.2)  # four wait, unaccepted
            gated.release.set()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert results == [(200, {"gate": "open"})] * count
        assert server.stats() == {"handlers": http.HANDLERS, "busy": 0,
                                  "accepted": count, "replies": {"200": count}}

    def test_clients_that_reset_take_no_handler_with_them(self, front, data):
        """A complete ``POST /recover``, then RST instead of reading the
        reply — once more than there are handlers, and every eighth peer
        leaves without a word; each ends its own connection only."""
        body = json.dumps(trace(data.train[0])).encode()
        for index in range(http.HANDLERS + 1):
            conn = socket.create_connection(("127.0.0.1", front.port), timeout=10.0)
            if index % 8:
                conn.sendall(b"POST /recover HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(body), body))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()
        deadline = time.monotonic() + 30.0  # the shard still works through them
        while front.get("/stats")[1]["http"]["busy"] > 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert front.post("/recover", trace(data.train[0]))[0] == 200
        assert front.get("/stats")[1]["http"]["handlers"] == http.HANDLERS

    def test_an_unexpected_failure_is_one_warning_and_one_connection(
            self, gated, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.serve.http"):
            with socket.create_connection(("127.0.0.1", gated.port), 10.0) as conn:
                conn.sendall(b"GET /boom HTTP/1.0\r\n\r\n")
                assert conn.recv(65536) == b""  # closed without a reply
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and warnings[0].name == "repro.serve.http"
        assert warnings[0].exc_info[0] is TypeError
        assert gated.get("/stats")[1]["http"]["handlers"] == http.HANDLERS


# ---------------------------------------------------------------------------
# serve.py http: the one-shard map, one-shot + streaming sessions
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def city(cli, data, model):
    shard_map = replace(side_by_side(["chengdu"]), serve={"cache_capacity": 0})
    with RecoveryCluster(shard_map, model_factory=lambda spec, network: model,
                         network_factory=lambda spec: data.network) as cluster:
        client = serve(cli, cluster, capacity=2, evict_idle_seconds=3600.0)
        yield client, cluster
        client.stop()


class TestServiceRoutes:
    def test_recover_and_stats(self, cli, city, data):
        client, cluster = city
        body = trace(data.train[0], request_id="s0")
        status, reply = client.post("/recover", body)
        direct = cli._response_payload(cluster.recover(cli._parse_request(body)))
        reply.pop("latency_ms"), direct.pop("latency_ms")
        assert status == 200 and reply == direct and reply["shard"] == "chengdu"
        assert client.get("/healthz")[1]["shards"] == {
            "chengdu": {"materialized": True}}
        status, stats = client.get("/stats")
        assert status == 200 and stats["cluster"]["requests"] >= 2
        # Lazy: no session service exists until a session opens.
        assert stats["sessions"] == {"pinned_sessions": 0, "shards": {}}
        assert stats["http"]["replies"]["200"] >= 2

    def test_open_append_finalize_equals_one_shot(self, cli, city, data):
        client, cluster = city
        sample = data.train[3]
        status, opened = client.post("/session/open", {"hour": sample.hour,
                                                       "holiday": sample.holiday})
        assert status == 200 and opened["shard"] == "chengdu"
        sid = opened["session_id"]
        xy, times = sample.raw_low.xy.tolist(), sample.raw_low.times.tolist()
        for point, stamp in zip(xy, times):
            status, update = client.post("/session/append", {
                "session_id": sid, "points": [point], "times": [stamp]})
            assert status == 200 and update["session_id"] == sid
        assert update["grid_length"] == len(update["segments"])
        before = cluster.stats()["cluster"]["requests"]  # appends are not in it
        status, final = client.post("/session/finalize", {"session_id": sid})
        one_shot = cli._response_payload(
            cluster.recover(cli._parse_request(trace(sample))))
        assert status == 200 and final["session_id"] == sid
        for key in ("segments", "ratios", "times", "model_tag", "shard"):
            assert final[key] == one_shot[key]
        assert cluster.stats()["cluster"]["requests"] == before + 1
        # Finalized sessions are gone.
        assert client.post("/session/finalize", {"session_id": sid})[0] == 404

    def test_an_append_past_the_grid_bound_is_400_and_keeps_the_session(
            self, city, data):
        client, _ = city
        points = data.train[0].raw_low.xy[:2].tolist()
        sid = client.post("/session/open", {})[1]["session_id"]

        def append(point, stamp):
            return client.post("/session/append", {
                "session_id": sid, "points": [point], "times": [stamp]})

        assert append(points[0], 0.0)[0] == 200
        status, reply = append(points[1], 1e6)
        assert status == 400 and "ε_ρ steps" in reply["error"]
        status, update = append(points[1], 96.0)
        assert status == 200 and update["grid_length"] == 9
        assert client.post("/session/finalize", {"session_id": sid})[0] == 200

    def test_session_status_map(self, city):
        client, _ = city
        assert client.post("/session/append", {"points": [], "times": []}) == (
            400, {"error": "missing field(s) ['session_id']"})
        assert client.post("/session/append", {
            "session_id": "ghost", "points": [[0, 0]], "times": [0]})[0] == 404
        assert client.post("/session/append", {  # unconvertible at the route
            "session_id": "ghost", "points": [[0, 0], [1]], "times": ["x"]})[0] == 400
        assert client.post("/session/open", b"[]")[0] == 400
        assert client.post("/session/open", {"hour": "noon"})[0] == 400
        ids = [client.post("/session/open", {})[1]["session_id"] for _ in range(2)]
        status, reply = client.post("/session/open", {"session_id": ids[0]})
        assert status == 409 and "already open" in reply["error"]
        status, reply = client.post("/session/open", {})  # store is full
        assert status == 429 and "overloaded" in reply["error"]
        sessions = client.get("/stats")[1]["sessions"]
        assert sessions["pinned_sessions"] == 2
        assert sessions["shards"]["chengdu"]["sessions"]["capacity"] == 2
        for sid in ids:  # too short to finalize: the ingest rejects it
            assert client.post("/session/finalize", {"session_id": sid})[0] == 400
        assert client.get("/session/evictions") == (200, {"evictions": []})

    def test_a_trace_outside_the_city_is_422_not_a_nearest_segment(self, city, data):
        client, _ = city
        far = trace(data.train[0])
        far["points"] = (np.asarray(far["points"]) + 1e5).tolist()
        status, reply = client.post("/recover", far)
        assert status == 422 and reply["reason"] == "outside"
        assert client.get("/deadletters")[1]["dead_letters"]
        assert client.post("/session/open", {"point": [1e5, 1e5]})[0] == 422


# ---------------------------------------------------------------------------
# Two cities, two ingest grids: sessions pin to the shard owning their point
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_cities(cli):
    porto = load_dataset("porto", num_trajectories=12)
    with RecoveryCluster(
            side_by_side(["chengdu", "porto"]),
            model_factory=lambda spec, network: RNTrajRec(network, TINY).eval(),
    ) as cluster:
        client = serve(cli, cluster, capacity=4)  # a bound, not a grid
        yield client, cluster, porto
        client.stop()


class TestTwoCityDoor:
    def test_session_finalize_equals_the_owning_shards_recover(self, two_cities):
        """chengdu's grid is 12 s, porto's 15 s: with the store bounded by
        an override, each shard's sessions still ingest on its own."""
        client, cluster, porto = two_cities
        sample = porto.test[0]
        body = trace(sample)
        body["points"] = (sample.raw_low.xy
                          + np.asarray(cluster.shard("porto").spec.origin)).tolist()
        status, opened = client.post("/session/open", {
            "point": body["points"][0], "hour": sample.hour,
            "holiday": sample.holiday})
        assert (status, opened["shard"]) == (200, "porto")
        for point, stamp in zip(body["points"], body["times"]):
            status, update = client.post("/session/append", {
                "session_id": opened["session_id"], "points": [point],
                "times": [stamp]})
            assert (status, update["shard"]) == (200, "porto")
        status, final = client.post("/session/finalize", {
            "session_id": opened["session_id"]})
        assert status == 200
        status, one_shot = client.post("/recover", body)
        assert status == 200
        for key in ("segments", "ratios", "times", "model_tag", "shard"):
            assert final[key] == one_shot[key]
        stats = client.get("/stats")[1]["sessions"]["shards"]
        assert set(stats) == {"porto"}  # chengdu never built a session service
        assert stats["porto"]["sessions"]["capacity"] == 4

    def test_open_without_a_point_is_400(self, two_cities):
        status, reply = two_cities[0].post("/session/open", {"hour": 9})
        assert status == 400 and "point" in reply["error"]


# ---------------------------------------------------------------------------
# Cache hits over the wire: the miss's body, rebased
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def hot(cli, data):
    """Two cached shards, the second at a nonzero origin, and the miss body
    of every trace sent so far."""
    porto = load_dataset("porto", num_trajectories=12)
    with RecoveryCluster(
            side_by_side(["chengdu", "porto"]),
            model_factory=lambda spec, network: RNTrajRec(network, TINY).eval(),
    ) as cluster:
        client = serve(cli, cluster)
        yield client, cluster, {"chengdu": data, "porto": porto}, {}
        client.stop()


def _wire(client, payload):
    """One ``POST /recover``: (status, the body's bytes)."""
    body = json.dumps(payload).encode()
    with socket.create_connection(("127.0.0.1", client.port), 10.0) as conn:
        conn.sendall(b"POST /recover HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(body), body))
        raw = b"".join(iter(lambda: conn.recv(65536), b""))
    head, _, reply = raw.partition(b"\r\n\r\n")
    return int(head[9:12]), reply


def _sans_latency(body: bytes) -> bytes:
    return re.sub(rb'"latency_ms": [-+.e0-9]+, ', b"", body)


class TestCacheHitsOverTheWire:
    @settings(max_examples=40, deadline=None)
    @given(city=st.sampled_from(["chengdu", "porto"]), index=st.integers(0, 5),
           shift=st.one_of(st.integers(-10**6, 10**6).map(float),
                           st.floats(-1e6, 1e6, allow_nan=False),
                           st.sampled_from([0.5, -0.25, 1e-7, 7.3])))
    def test_a_hit_is_the_miss_rebased_byte_for_byte(self, cli, hot, city, index,
                                                     shift):
        client, cluster, datasets, misses = hot
        sample = datasets[city].train[index]
        origin = np.asarray(cluster.shard(city).spec.origin)
        body = trace(sample, request_id="q")
        body["points"] = (sample.raw_low.xy + origin).tolist()
        # The filed grid starts just below 4096 s, so it crosses a binade
        # and rebasing rounds: the hit's times must be the filed grid plus
        # the shift, not a grid rebuilt from the new origin.
        body["times"] = (sample.raw_low.times + 4090.987654321).tolist()
        if (city, index) not in misses:
            status, miss = _wire(client, body)
            assert status == 200 and json.loads(miss)["cached"] is False
            misses[city, index] = miss
        miss = misses[city, index]

        # The same trace: the miss's bytes with ``cached`` flipped.
        status, hit = _wire(client, body)
        assert status == 200
        assert _sans_latency(hit) == _sans_latency(miss).replace(
            b'"cached": false', b'"cached": true')

        # Shifted: the filed grid plus the shift, in the float arithmetic of
        # ``cached.times + shift``; everything else is the miss's.
        shifted = {**body, "request_id": "q-shifted",
                   "times": [t + shift for t in body["times"]]}
        expected = json.loads(miss)
        rebase = shifted["times"][0] - expected["times"][0]
        expected.update(request_id="q-shifted", cached=True,
                        times=(np.asarray(expected["times"]) + rebase).tolist())
        status, hit = _wire(client, shifted)
        assert status == 200
        assert _sans_latency(hit) == _sans_latency(json.dumps(expected).encode())

        # Neither the returned arrays nor the response's payload nor the
        # parsed request (whose lists the request holds) reaches the entry.
        parsed = json.loads(json.dumps(shifted))
        response = cluster.recover(cli._parse_request(parsed), timeout=60.0)
        assert response.cached
        for array in (response.trajectory.segments, response.trajectory.ratios,
                      response.trajectory.times):
            array[:] = 0
        for array in response.wire:  # the entry's own, shared by every hit
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        payload = cli._response_payload(response)
        payload["segments"].append(-1)
        payload["ratios"][0] = 0.5
        payload["times"].clear()
        parsed["points"][0][0] = 1e9
        parsed["times"][-1] += 50.0
        status, again = _wire(client, shifted)
        assert status == 200 and _sans_latency(again) == _sans_latency(hit)


# ---------------------------------------------------------------------------
# SIGTERM to the front door reaps its worker processes
# ---------------------------------------------------------------------------
def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _call(port, path, payload=None):
    """One exchange with a subprocess door: (status, body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    with socket.create_connection(("127.0.0.1", port), 5.0) as conn:
        conn.sendall(b"%s %s HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (
            b"GET" if payload is None else b"POST", path.encode(), len(body), body))
        raw = b"".join(iter(lambda: conn.recv(65536), b""))
    head, _, reply = raw.partition(b"\r\n\r\n")
    return int(head[9:12]), json.loads(reply)


def _boot(*args):
    """``serve.py <args> --port <free>`` once ``GET /stats`` answers:
    (process, port, that first stats body)."""
    port = _free_port()
    server = subprocess.Popen(
        [sys.executable, str(REPO / "scripts" / "serve.py"), *args,
         "--port", str(port)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        assert server.poll() is None, "front door exited before serving"
        try:
            return server, port, _call(port, "/stats")[1]
        except OSError:
            time.sleep(0.1)
    server.kill()
    raise AssertionError("front door never answered")


def _stop(server):
    if server.poll() is None:
        server.kill()
        server.wait(timeout=10.0)


def test_sigterm_leaves_no_worker_process(model, tmp_path):
    prefix = str(tmp_path / "bundle")
    save_model_bundle(model, prefix)
    shard_map = tmp_path / "map.json"
    shard_map.write_text(json.dumps({"shards": [{
        "name": "cd", "dataset": "chengdu", "bundle": prefix,
        "backend": "process", "replicas": 2}]}))
    server, port, stats = _boot("cluster", "--shard-map", str(shard_map), "--warm")
    workers = []
    try:
        workers = [row["pid"] for row in stats["shards"]["cd"]["worker_stats"]]
        assert len(workers) == 2 and all(_alive(pid) for pid in workers)
        # Its decode slots live in those workers: no sessions here.
        status, reply = _call(port, "/session/open", {"point": [700.0, 700.0]})
        assert status == 501 and "inproc" in reply["error"]

        server.send_signal(signal.SIGTERM)  # the front door only
        assert server.wait(timeout=30.0) == 0
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in workers)
    finally:
        _stop(server)
        for pid in workers:  # a failed run must not leak what it asserts on
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_serve_http_is_the_one_shard_cluster(model, data, tmp_path):
    """The ``http`` alias end to end: boots from a bundle through
    ``Shard.warm`` (artifact cache under ``DIR/<dataset>``), answers in the
    cluster's shapes, and a session's finalize equals ``/recover``."""
    prefix = str(tmp_path / "bundle")
    save_model_bundle(model, prefix)
    server, port, stats = _boot("http", "--dataset", "chengdu", "--bundle", prefix,
                                "--artifact-dir", str(tmp_path / "cities"))
    try:
        assert stats["shards"]["chengdu"]["artifacts"]["source"] == "built"
        assert (tmp_path / "cities" / "chengdu").is_dir()
        assert _call(port, "/healthz") == (200, {
            "status": "ok", "shards": {"chengdu": {"materialized": True}}})
        body = trace(data.train[0])
        status, one_shot = _call(port, "/recover", body)
        assert status == 200 and one_shot["shard"] == "chengdu"
        status, opened = _call(port, "/session/open", {
            "hour": body["hour"], "holiday": body["holiday"]})
        assert status == 200
        status, update = _call(port, "/session/append", {
            "session_id": opened["session_id"], "points": body["points"],
            "times": body["times"]})
        assert status == 200 and update["shard"] == "chengdu"
        status, final = _call(port, "/session/finalize", {
            "session_id": opened["session_id"]})
        assert status == 200
        for key in ("segments", "ratios", "times", "model_tag"):
            assert final[key] == one_shot[key]
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30.0) == 0
    finally:
        _stop(server)
