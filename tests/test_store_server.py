"""Tests for the HTTP serving layer: endpoint round-trips must be
byte-identical to in-process TraceStore calls, plus the 4xx surface,
keep-alive connection reuse, request framing (fixed cases and a fuzz),
and the connection lifecycle: idle reaping, the connection cap and
graceful shutdown."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.store import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    StatsRequest,
    TraceServer,
    canonical_json,
)
from repro.store import server as server_mod
from repro.store.server import MAX_BODY_BYTES

from .test_store import query_matrix, wire_root, write_trace  # noqa: F401


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("served")
    write_trace(root, "li-like")
    write_trace(root, "perl-like", with_ir=False)
    session = Session()
    store = session.store(root)
    server = TraceServer(store).start()
    yield server, store, root
    server.stop()
    store.close()
    session.close()


def get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}") as resp:
        return resp.status, resp.read()


# ---------------------------------------------------------------------------
# raw-socket helpers: urllib sends ``Connection: close`` per request, so
# everything keep-alive or framing-shaped talks HTTP/1.1 by hand.


def raw_conn(server):
    return socket.create_connection((server.host, server.port), timeout=10)


def send_get(sock, path, headers=()):
    lines = [f"GET {path} HTTP/1.1", "Host: test"]
    lines.extend(headers)
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))


def read_response(sock, buf=b""):
    """Parse one response off the socket; returns
    ``(status, headers, body, leftover)`` so callers can keep reading
    pipelined responses from ``leftover``."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        buf += chunk
    head, rest = buf.split(b"\r\n\r\n", 1)
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(b":")
        headers[key.strip().lower().decode("ascii")] = value.strip().decode(
            "ascii"
        )
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-body")
        rest += chunk
    return status, headers, rest[:length], rest[length:]


def get_error(server, path):
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(f"{server.url}{path}")
    err = exc_info.value
    return err.code, json.loads(err.read().decode("utf-8"))


def post(server, path, doc):
    req = urllib.request.Request(
        f"{server.url}{path}",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, resp.read()


class TestEndpointsMatchInProcess:
    def test_traces(self, served):
        server, store, _root = served
        status, body = get(server, "/traces")
        assert status == 200
        assert body == canonical_json(store.traces()) + b"\n"

    def test_query_whole_trace(self, served):
        server, store, _root = served
        status, body = get(server, "/query?trace=li-like")
        assert status == 200
        expected = store.query(QueryRequest(trace="li-like"))
        assert body == canonical_json(expected) + b"\n"

    def test_query_with_fn_and_limit(self, served):
        server, store, _root = served
        name = store.catalog.functions("li-like")[0].name
        status, body = get(server, f"/query?trace=li-like&fn={name}&limit=2")
        assert status == 200
        expected = store.query(
            QueryRequest(trace="li-like", functions=(name,), limit=2)
        )
        assert body == canonical_json(expected) + b"\n"

    def test_stats_store_and_trace(self, served):
        server, store, _root = served
        status, body = get(server, "/stats")
        assert status == 200
        assert json.loads(body) == json.loads(
            canonical_json(store.stats(StatsRequest()))
        )
        status, body = get(server, "/stats?trace=li-like")
        assert status == 200
        assert body == canonical_json(
            store.stats(StatsRequest(trace="li-like"))
        ) + b"\n"

    def test_analyze_round_trip(self, served):
        server, store, _root = served
        doc = {"trace": "li-like", "fact": "def:acc"}
        status, body = post(server, "/analyze", doc)
        assert status == 200
        expected = store.analyze(AnalyzeRequest.from_dict(doc))
        assert body == canonical_json(expected) + b"\n"

    def test_metrics_shows_cache_hits(self, served):
        server, _store, _root = served
        get(server, "/query?trace=li-like")
        get(server, "/query?trace=li-like")
        status, body = get(server, "/metrics")
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == "repro.metrics/1"
        assert doc["counters"]["qserve.cache.hits"] > 0
        assert doc["counters"]["http.requests"] > 0


def query_target(request):
    params = [("trace", request.trace)]
    params.extend(("fn", name) for name in request.functions)
    if request.limit is not None:
        params.append(("limit", str(request.limit)))
    return "/query?" + urllib.parse.urlencode(params)


class TestQueryBodiesMatchInProcess:
    """Every ``/query`` body equals ``canonical_json(store.query(req))``
    plus a newline, warm, uncached and under an 8 KiB budget."""

    @pytest.mark.parametrize(
        "cache_bytes", [None, 0, 8192], ids=["warm", "no-cache", "8KiB"]
    )
    def test_identity_matrix(self, wire_root, cache_bytes):
        kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
        with Session(**kwargs) as session:
            store = session.store(wire_root)
            requests = list(query_matrix(store))
            with TraceServer(store) as server:
                sock = raw_conn(server)
                try:
                    leftover = b""
                    for _pass in range(2):
                        for request in requests:
                            send_get(sock, query_target(request))
                            status, _h, body, leftover = read_response(
                                sock, leftover
                            )
                            assert status == 200, body
                            assert body == canonical_json(
                                store.query(request)
                            ) + b"\n", request
                finally:
                    sock.close()
            store.close()


class TestErrorSurface:
    def test_unknown_trace_is_404(self, served):
        server, _store, _root = served
        code, doc = get_error(server, "/query?trace=nope")
        assert code == 404 and "nope" in doc["error"]

    def test_unknown_function_is_404(self, served):
        server, _store, _root = served
        code, doc = get_error(server, "/query?trace=li-like&fn=nope")
        assert code == 404

    def test_unknown_route_is_404(self, served):
        server, _store, _root = served
        code, _doc = get_error(server, "/nope")
        assert code == 404

    def test_missing_trace_param_is_400(self, served):
        server, _store, _root = served
        code, doc = get_error(server, "/query")
        assert code == 400 and "trace" in doc["error"]

    def test_unknown_param_is_400(self, served):
        server, _store, _root = served
        code, _doc = get_error(server, "/query?trace=li-like&nope=1")
        assert code == 400

    def test_bad_limit_is_400(self, served):
        server, _store, _root = served
        code, _doc = get_error(server, "/query?trace=li-like&limit=banana")
        assert code == 400

    def test_get_on_analyze_is_405(self, served):
        server, _store, _root = served
        code, _doc = get_error(server, "/analyze")
        assert code == 405

    def test_post_on_query_is_405(self, served):
        server, _store, _root = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            post(server, "/query", {"trace": "li-like"})
        assert exc_info.value.code == 405

    def test_malformed_json_body_is_400(self, served):
        server, _store, _root = served
        req = urllib.request.Request(
            f"{server.url}/analyze", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req)
        assert exc_info.value.code == 400

    def test_analyze_without_ir_is_400(self, served):
        server, _store, _root = served
        code, doc = get_error_post(
            server, "/analyze", {"trace": "perl-like", "fact": "def:acc"}
        )
        assert code == 400 and "program" in doc["error"]


def get_error_post(server, path, doc):
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        post(server, path, doc)
    err = exc_info.value
    return err.code, json.loads(err.read().decode("utf-8"))


class TestConcurrencyAndRescan:
    def test_concurrent_clients_coalesce_to_one_decode(self, tmp_path):
        write_trace(tmp_path, "li-like")
        session = Session()
        store = session.store(tmp_path)
        server = TraceServer(store).start()
        try:
            name = store.catalog.functions("li-like")[0].name
            n_clients = 8
            barrier = threading.Barrier(n_clients)
            bodies = []

            def client():
                barrier.wait()
                with urllib.request.urlopen(
                    f"{server.url}/query?trace=li-like&fn={name}"
                ) as resp:
                    bodies.append(resp.read())

            threads = [
                threading.Thread(target=client) for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(set(bodies)) == 1 and len(bodies) == n_clients
            assert session.metrics.counter("qserve.decodes") == 1
        finally:
            server.stop()
            store.close()
            session.close()

    def test_refresh_sees_added_and_removed_files(self, tmp_path):
        write_trace(tmp_path, "li-like")
        session = Session()
        store = session.store(tmp_path)
        server = TraceServer(store).start()
        try:
            _status, body = get(server, "/traces")
            assert [t["trace"] for t in json.loads(body)["traces"]] == [
                "li-like"
            ]
            write_trace(tmp_path, "perl-like", with_ir=False)
            _status, body = get(server, "/traces?refresh=1")
            assert [t["trace"] for t in json.loads(body)["traces"]] == [
                "li-like",
                "perl-like",
            ]
            (tmp_path / "perl-like.twpp").unlink()
            _status, body = get(server, "/traces?refresh=1")
            assert [t["trace"] for t in json.loads(body)["traces"]] == [
                "li-like"
            ]
        finally:
            server.stop()
            store.close()
            session.close()


class TestKeepAlive:
    def expected(self, store, path):
        if path == "/traces":
            return canonical_json(store.traces()) + b"\n"
        trace = path.split("trace=")[1].split("&")[0]
        return canonical_json(store.query(QueryRequest(trace=trace))) + b"\n"

    def test_sequential_requests_reuse_connection(self, served):
        server, store, _root = served
        before = store.metrics.counter("serve.keepalive_requests")
        paths = ["/traces", "/query?trace=li-like", "/traces",
                 "/query?trace=perl-like", "/traces"]
        sock = raw_conn(server)
        try:
            leftover = b""
            for path in paths:
                send_get(sock, path)
                status, headers, body, leftover = read_response(
                    sock, leftover
                )
                assert status == 200
                assert headers.get("connection") == "keep-alive"
                assert body == self.expected(store, path)
        finally:
            sock.close()
        after = store.metrics.counter("serve.keepalive_requests")
        assert after - before >= len(paths) - 1

    def test_pipelined_requests_answer_in_order(self, served):
        server, store, _root = served
        paths = ["/query?trace=li-like", "/traces", "/query?trace=perl-like"]
        sock = raw_conn(server)
        try:
            batch = b"".join(
                f"GET {p} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
                for p in paths
            )
            sock.sendall(batch)
            leftover = b""
            for path in paths:
                status, _headers, body, leftover = read_response(
                    sock, leftover
                )
                assert status == 200
                assert body == self.expected(store, path)
        finally:
            sock.close()

    def test_concurrent_keepalive_clients_byte_identity(self, served):
        server, store, _root = served
        paths = ["/traces", "/query?trace=li-like", "/query?trace=perl-like"]
        want = {path: self.expected(store, path) for path in paths}
        n_clients, rounds = 4, 8
        barrier = threading.Barrier(n_clients)
        failures = []

        def client():
            sock = raw_conn(server)
            try:
                barrier.wait()
                leftover = b""
                for i in range(rounds):
                    path = paths[i % len(paths)]
                    send_get(sock, path)
                    status, _headers, body, leftover = read_response(
                        sock, leftover
                    )
                    if status != 200 or body != want[path]:
                        failures.append((path, status))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(repr(exc))
            finally:
                sock.close()

        threads = [threading.Thread(target=client) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_connection_close_header_honored(self, served):
        server, store, _root = served
        sock = raw_conn(server)
        try:
            send_get(sock, "/traces", headers=("Connection: close",))
            status, headers, body, _ = read_response(sock)
            assert status == 200
            assert headers.get("connection") == "close"
            assert body == canonical_json(store.traces()) + b"\n"
            assert sock.recv(1) == b""  # server side actually closed
        finally:
            sock.close()


class TestFraming:
    def test_malformed_content_length_is_400(self, served):
        server, _store, _root = served
        sock = raw_conn(server)
        try:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            status, headers, body, _ = read_response(sock)
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]
            assert headers.get("connection") == "close"
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_oversized_body_is_400(self, served):
        server, _store, _root = served
        sock = raw_conn(server)
        try:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
            # The server rejects on the declared length alone -- no
            # need to stream a megabyte to get told no.
            status, _headers, body, _ = read_response(sock)
            assert status == 400
            assert "body" in json.loads(body)["error"]
        finally:
            sock.close()

    def test_malformed_request_line_is_400(self, served):
        server, _store, _root = served
        sock = raw_conn(server)
        try:
            sock.sendall(b"GARBAGE\r\n\r\n")
            status, _headers, _body, _ = read_response(sock)
            assert status == 400
        finally:
            sock.close()


    def reject(self, server, store, raw):
        """Send ``raw``; the reply must be a counted JSON 400 + close."""
        requests = store.metrics.counter("http.requests")
        errors = store.metrics.counter("http.errors")
        sock = raw_conn(server)
        try:
            sock.sendall(raw)
            status, headers, body, _ = read_response(sock)
            assert status == 400
            assert headers.get("connection") == "close"
            assert sock.recv(1) == b""
        finally:
            sock.close()
        assert store.metrics.counter("http.requests") == requests + 1
        assert store.metrics.counter("http.errors") == errors + 1
        return json.loads(body)["error"]

    def test_non_ascii_digit_content_length_is_400(self, served):
        # "\xb2" is latin-1 superscript two: str.isdigit() accepts it,
        # int() does not.
        server, store, _root = served
        error = self.reject(
            server, store,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: \xb2\r\n\r\n{}",
        )
        assert "Content-Length" in error

    def test_conflicting_content_lengths_are_400(self, served):
        server, store, _root = served
        error = self.reject(
            server, store,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 2\r\nContent-Length: 20\r\n\r\n"
            b"{}GET /healthz HTTP/1.1\r\n",
        )
        assert "Content-Length" in error

    def test_content_length_with_transfer_encoding_is_400(self, served):
        server, store, _root = served
        error = self.reject(
            server, store,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
        )
        assert "Transfer-Encoding" in error


def parse_responses(data):
    """Statuses of the complete JSON responses in ``data``; fails on
    anything else, including a response cut short."""
    statuses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, data
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 "), lines[0]
        headers = dict(
            (key.strip().lower(), value.strip())
            for key, _, value in (line.partition(b":") for line in lines[1:])
        )
        assert headers[b"content-type"] == b"application/json"
        length = int(headers[b"content-length"])
        assert len(rest) >= length, data
        json.loads(rest[:length])
        statuses.append(int(lines[0].split()[1]))
        data = rest[length:]
    return statuses


def exchange(server, payload, half_close):
    """Send ``payload`` and read until the server closes."""
    sock = raw_conn(server)
    data = b""
    try:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    except ConnectionResetError:
        pass
    finally:
        sock.close()
    return data


@pytest.fixture(scope="class")
def fuzz_served(tmp_path_factory):
    """A server whose timeouts are short enough to fuzz against."""
    root = tmp_path_factory.mktemp("fuzz-served")
    write_trace(root, "li-like")
    session = Session()
    store = session.store(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_mod, "KEEPALIVE_TIMEOUT", 0.2)
        mp.setattr(server_mod, "REQUEST_TIMEOUT", 0.2)
        server = TraceServer(store).start()
        fn = store.catalog.functions("li-like")[0].name
        body = json.dumps({"trace": "li-like", "fact": "def:acc"})
        valid = [
            f"GET /query?trace=li-like&fn={fn}&limit=2 HTTP/1.1\r\n"
            "Host: test\r\n\r\n".encode("ascii"),
            "POST /analyze HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}".encode("ascii"),
        ]
        yield server, valid
        server.stop()
    store.close()
    session.close()


class TestFramingFuzz:
    """Truncated and bit-flipped requests get a JSON reply or a close."""

    ANSWERS = {200, 400, 404, 405}

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, 1), cut=st.floats(0, 1), half=st.booleans())
    def test_truncated_requests(self, fuzz_served, which, cut, half):
        server, valid = fuzz_served
        raw = valid[which]
        payload = raw[: int(len(raw) * cut)]
        statuses = parse_responses(exchange(server, payload, half))
        assert set(statuses) <= self.ANSWERS

    @settings(max_examples=80, deadline=None)
    @given(
        which=st.integers(0, 1),
        flips=st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 7)),
            min_size=1, max_size=3,
        ),
        half=st.booleans(),
    )
    def test_bit_flipped_requests(self, fuzz_served, which, flips, half):
        server, valid = fuzz_served
        payload = bytearray(valid[which])
        for where, bit in flips:
            payload[int(len(payload) * where)] ^= 1 << bit
        statuses = parse_responses(exchange(server, bytes(payload), half))
        assert set(statuses) <= self.ANSWERS

    def test_still_healthy_afterwards(self, fuzz_served):
        server, _valid = fuzz_served
        status, _body = get(server, "/healthz")
        assert status == 200


class TestHealthz:
    def test_matches_store_and_is_corpus_free(self, served):
        server, store, _root = served
        status, body = get(server, "/healthz")
        assert status == 200
        assert body == canonical_json(store.healthz()) + b"\n"
        doc = json.loads(body)
        assert doc["status"] == "ok" and doc["traces"] == 2
        assert "corpus_runs" not in doc  # no corpus attached here

    def test_corpus_routes_404_without_corpus(self, served):
        server, _store, _root = served
        code, doc = get_error(server, "/corpus/stats")
        assert code == 404 and "corpus" in doc["error"]


@pytest.fixture(scope="module")
def corpus_served(tmp_path_factory):
    """A store with a two-run corpus attached, served over HTTP."""
    root = tmp_path_factory.mktemp("corpus-served")
    write_trace(root, "li-like")
    write_trace(root, "perl-like", with_ir=False)
    session = Session()
    with session.corpus(root / "corpus") as corpus:
        corpus.ingest_runs(
            [root / "li-like.twpp", root / "perl-like.twpp"]
        )
    store = session.store(root, corpus=root / "corpus")
    server = TraceServer(store).start()
    yield server, store
    server.stop()
    store.close()
    session.close()


class TestCorpusEndpoints:
    def test_stats_matches_store(self, corpus_served):
        server, store = corpus_served
        status, body = get(server, "/corpus/stats")
        assert status == 200
        expected = store.corpus_stats(CorpusStatsRequest())
        assert body == canonical_json(expected) + b"\n"

    def test_hot_matches_store(self, corpus_served):
        server, store = corpus_served
        status, body = get(server, "/corpus/hot?top=3&coverage=0.8")
        assert status == 200
        expected = store.corpus_hot(CorpusHotRequest(top=3, coverage=0.8))
        assert body == canonical_json(expected) + b"\n"

    def test_diff_matches_store(self, corpus_served):
        server, store = corpus_served
        status, body = get(server, "/corpus/diff?a=li-like&b=perl-like")
        assert status == 200
        expected = store.corpus_diff(
            CorpusDiffRequest(run_a="li-like", run_b="perl-like")
        )
        assert body == canonical_json(expected) + b"\n"

    def test_healthz_counts_runs(self, corpus_served):
        server, store = corpus_served
        status, body = get(server, "/healthz")
        assert status == 200
        assert body == canonical_json(store.healthz()) + b"\n"
        assert json.loads(body)["corpus_runs"] == 2

    def test_unknown_run_is_404(self, corpus_served):
        server, _store = corpus_served
        code, _doc = get_error(server, "/corpus/diff?a=li-like&b=nope")
        assert code == 404

    def test_missing_diff_param_is_400(self, corpus_served):
        server, _store = corpus_served
        code, doc = get_error(server, "/corpus/diff?a=li-like")
        assert code == 400 and "b" in doc["error"]

    def test_bad_top_is_400(self, corpus_served):
        server, _store = corpus_served
        code, _doc = get_error(server, "/corpus/hot?top=banana")
        assert code == 400


class TestGracefulShutdown:
    def test_request_stop_drains_and_refuses_new_connections(self, tmp_path):
        write_trace(tmp_path, "li-like")
        session = Session()
        store = session.store(tmp_path)
        server = TraceServer(store).start()
        try:
            # An idle keep-alive connection is open when stop arrives.
            sock = raw_conn(server)
            send_get(sock, "/traces")
            status, _headers, body, _ = read_response(sock)
            assert status == 200
            host, port = server.host, server.port
            server.stop()
            sock.close()
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=2)
            assert body == canonical_json(store.traces()) + b"\n"
        finally:
            server.stop()
            store.close()
            session.close()


@pytest.fixture
def li_store(tmp_path):
    write_trace(tmp_path, "li-like")
    session = Session()
    store = session.store(tmp_path)
    yield store
    store.close()
    session.close()


class TestLifecycle:
    def test_idle_keepalive_connection_is_reaped(self, li_store, monkeypatch):
        monkeypatch.setattr(server_mod, "KEEPALIVE_TIMEOUT", 0.3)
        with TraceServer(li_store) as server:
            sock = raw_conn(server)
            try:
                send_get(sock, "/healthz")
                status, headers, _body, _ = read_response(sock)
                assert status == 200
                assert headers.get("connection") == "keep-alive"
                started = time.monotonic()
                assert sock.recv(1) == b""  # the server hung up
                assert time.monotonic() - started < 5
            finally:
                sock.close()
        assert li_store.metrics.counter("serve.idle_closed") == 1

    def test_in_flight_request_completes_after_stop(
        self, li_store, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        healthz = li_store.healthz

        def held_healthz():
            entered.set()
            release.wait(10)
            return healthz()

        monkeypatch.setattr(li_store, "healthz", held_healthz)
        server = TraceServer(li_store).start()
        sock = raw_conn(server)
        try:
            send_get(sock, "/healthz")
            assert entered.wait(10)
            server.request_stop()
            release.set()
            status, headers, body, _ = read_response(sock)
            assert status == 200
            assert headers.get("connection") == "close"
            assert body == canonical_json(healthz()) + b"\n"
            assert sock.recv(1) == b""
        finally:
            sock.close()
            server.stop()

    def test_connection_cap_queues_the_next_client(
        self, li_store, monkeypatch
    ):
        monkeypatch.setattr(server_mod, "MAX_CONNECTIONS", 2)
        with TraceServer(li_store) as server:
            first, second = raw_conn(server), raw_conn(server)
            third = raw_conn(server)  # completes in the listen backlog
            try:
                for sock in (first, second):
                    send_get(sock, "/healthz")
                    assert read_response(sock)[0] == 200
                send_get(third, "/healthz")
                third.settimeout(0.5)
                with pytest.raises(socket.timeout):
                    third.recv(1)
                first.close()
                third.settimeout(10)
                assert read_response(third)[0] == 200
            finally:
                for sock in (first, second, third):
                    sock.close()

    def test_parser_bug_is_reported_not_swallowed(
        self, li_store, monkeypatch, capsys
    ):
        def broken(conn):
            raise ValueError("parser bug")

        with TraceServer(li_store) as server:
            monkeypatch.setattr(server, "_read_request", broken)
            sock = raw_conn(server)
            try:
                assert sock.recv(1) == b""
            finally:
                sock.close()
        assert "ValueError: parser bug" in capsys.readouterr().err

    def test_sigterm_drains_idle_connection_and_writes_metrics(
        self, li_store, tmp_path
    ):
        metrics_out = tmp_path / "metrics.json"
        env = dict(os.environ)
        src = str(Path(server_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(tmp_path),
             "--port", "0", "--metrics-out", str(metrics_out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            line = proc.stdout.readline().decode()
            port = int(line.rsplit(":", 1)[1])
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            try:
                send_get(sock, "/healthz")
                assert read_response(sock)[0] == 200
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
            finally:
                sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        doc = json.loads(metrics_out.read_text())
        assert doc["schema"] == "repro.metrics/1"
        assert doc["counters"]["serve.connections"] == 1
