"""The trace-serving HTTP daemon: a keep-alive front end over a TraceStore.

``repro-wpp serve DIR`` runs this server.  Endpoints stay a thin
adapter: every route parses its input into one of the typed request
dataclasses of :mod:`repro.store.requests`, calls the corresponding
:class:`~repro.store.store.TraceStore` verb, and writes the returned
dict as canonical JSON -- so an HTTP response body is byte-identical
to ``canonical_json(store.verb(request))`` computed in-process, and the
server adds no semantics of its own.  ``/query`` is the one route that
gets its body already encoded: :meth:`TraceStore.query_json` splices
the engines' cached canonical-JSON trace fragments, still
byte-identical to ``canonical_json(store.query(request))``, so a warm
query does no JSON encoding.  Endpoints:

=====================  ====================================================
``GET /traces``        catalog listing (``?refresh=1`` rescans first)
``GET /query``         ``?trace=NAME&fn=F&fn=G&limit=N`` path traces
``POST /analyze``      JSON :class:`AnalyzeRequest` body, fact frequencies
``GET /stats``         store stats, or ``?trace=NAME`` for one trace
``GET /metrics``       the session's ``repro.metrics/1`` document
``GET /healthz``       liveness + catalog counts (readiness polling)
``GET /corpus/stats``  attached-corpus compaction accounting
``GET /corpus/hot``    ``?run=A&fn=F&top=N&coverage=F`` cross-run hot paths
``GET /corpus/diff``   ``?a=RUN&b=RUN&limit=N`` run-pair comparison
=====================  ====================================================

The transport replaced PR 6's stdlib ``ThreadingHTTPServer`` (one
thread + one TCP handshake per request: ~359 qps) with a persistent-
connection front end:

* one **reactor** thread owns the listening socket, a wakeup
  socketpair, and every *idle* keep-alive connection in a
  ``selectors`` loop; readable connections are handed to
* a bounded pool of **request workers** that parse complete HTTP/1.1
  requests straight from a per-connection buffer, run the store verb,
  and write the response.  A worker briefly polls its connection for
  the next pipelined/closed-loop request (``spin_wait``) before
  parking it back with the reactor, so a busy connection never pays
  the reactor round-trip.

``Connection``/``Content-Length`` semantics follow HTTP/1.1:
responses always carry ``Content-Length`` and an explicit
``Connection: keep-alive``/``close``; requests with malformed or
oversized bodies get a 400 and the connection is closed.  Graceful
shutdown (:meth:`TraceServer.request_stop`) stops accepting, drains
in-flight requests, then closes every connection.

Errors are JSON too: 400 for malformed requests
(:class:`~repro.store.requests.RequestError`), 404 for unknown
traces/runs/routes, 405 for wrong methods, 500 for the rest.
"""

from __future__ import annotations

import json
import select
import selectors
import socket
import sys
import threading
import time
from queue import Empty, Queue
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from .requests import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    RequestError,
    StatsRequest,
)
from .store import TraceNotFound, TraceStore

#: Largest accepted request body (1 MiB): analyze requests are tiny.
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request head (request line + headers).
MAX_HEADER_BYTES = 64 << 10
#: Default request-worker thread count.
DEFAULT_WORKERS = 8

#: A route handler: ``(params, request)`` to a JSON-ready dict or to
#: canonical JSON bytes.
Route = Callable[[Dict[str, List[str]], "_Request"], Union[Dict, bytes]]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

__all__ = [
    "DEFAULT_WORKERS",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "TraceServer",
    "canonical_json",
    "serve",
]


def canonical_json(doc: Dict) -> bytes:
    """The store wire encoding: sorted keys, minimal separators, UTF-8.

    Both the HTTP layer and in-process callers that want byte-for-byte
    comparisons encode through this one function.
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class _BadRequest(Exception):
    """A request the parser rejects; always answered 400 then closed."""


class _Request:
    __slots__ = ("method", "target", "headers", "body", "keep_alive")

    def __init__(self, method, target, headers, body, keep_alive):
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class _Conn:
    """One client connection: socket + unparsed buffered bytes."""

    __slots__ = ("sock", "peer", "buf", "last_active", "requests")

    def __init__(self, sock, peer):
        self.sock = sock
        self.peer = peer
        self.buf = bytearray()
        self.last_active = time.monotonic()
        self.requests = 0


class TraceServer:
    """A persistent-connection HTTP server bound to one TraceStore.

    ``port=0`` binds an ephemeral port; read the chosen one back from
    :attr:`port` / :attr:`url`.  :meth:`serve_forever` blocks (the CLI
    path); :meth:`start` / :meth:`stop` run it on a daemon thread (the
    test and embedding path).  ``workers`` bounds concurrent request
    execution; ``keepalive_timeout`` reaps idle connections;
    ``request_timeout`` bounds one request's read; ``spin_wait`` is
    how long a worker polls a responded connection for its next
    request before parking it with the reactor.
    """

    def __init__(
        self,
        store: TraceStore,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        workers: int = DEFAULT_WORKERS,
        backlog: int = 128,
        keepalive_timeout: float = 60.0,
        request_timeout: float = 30.0,
        spin_wait: float = 0.002,
    ) -> None:
        self.store = store
        self.verbose = verbose
        self.workers = max(1, int(workers))
        self.keepalive_timeout = keepalive_timeout
        self.request_timeout = request_timeout
        self.spin_wait = spin_wait
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._work_q: "Queue[Optional[_Conn]]" = Queue(
            maxsize=self.workers * 8
        )
        self._return_q: "Queue[_Conn]" = Queue()
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._serving = False
        self._routes = self._build_routes()
        self._allowed = {path: method for method, path in self._routes}

    # ---- addressing ----------------------------------------------------

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ---- lifecycle ------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`request_stop` (the ``repro-wpp serve``
        main loop); drains in-flight requests before returning."""
        with self._lock:
            if self._serving:
                raise RuntimeError("server is already running")
            self._serving = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        try:
            self._reactor()
        finally:
            self._drained.set()

    def request_stop(self) -> None:
        """Begin a graceful shutdown: stop accepting, drain, close."""
        self._stop.set()
        self._wake()

    def start(self) -> "TraceServer":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="serve-reactor"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Gracefully stop and join the background thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        else:
            self._drained.wait(timeout=10.0)

    def __enter__(self) -> "TraceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ---- reactor --------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    def _reactor(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, "accept")
        sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        idle: Dict[int, _Conn] = {}
        try:
            while not self._stop.is_set():
                for key, _ in sel.select(timeout=0.5):
                    if key.data == "accept":
                        self._accept(sel, idle)
                    elif key.data == "wake":
                        self._drain_wake(sel, idle)
                    else:
                        conn = key.data
                        sel.unregister(conn.sock)
                        idle.pop(conn.sock.fileno(), None)
                        self._work_q.put(conn)
                self._reap_idle(sel, idle)
        finally:
            try:
                sel.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            # Drain: workers finish everything already queued, then
            # each consumes one sentinel and exits.
            for _ in self._worker_threads:
                self._work_q.put(None)
            for thread in self._worker_threads:
                thread.join(timeout=10.0)
            self._worker_threads = []
            for conn in idle.values():
                self._close_conn(conn)
            # Workers may have parked connections while draining.
            while True:
                try:
                    self._close_conn(self._return_q.get_nowait())
                except Empty:
                    break
            sel.close()
            self._wake_r.close()
            self._wake_w.close()

    def _accept(self, sel, idle) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            sock.setblocking(True)
            sock.settimeout(self.request_timeout)
            conn = _Conn(sock, peer)
            self.store.metrics.inc("serve.connections")
            self._register(sel, idle, conn)

    def _drain_wake(self, sel, idle) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    break
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break
        while True:
            try:
                conn = self._return_q.get_nowait()
            except Empty:
                break
            self._register(sel, idle, conn)

    def _register(self, sel, idle, conn: _Conn) -> None:
        if self._stop.is_set():
            self._close_conn(conn)
            return
        conn.last_active = time.monotonic()
        try:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        except (KeyError, ValueError, OSError):
            self._close_conn(conn)
            return
        idle[conn.sock.fileno()] = conn

    def _reap_idle(self, sel, idle) -> None:
        if not idle:
            return
        deadline = time.monotonic() - self.keepalive_timeout
        for fileno, conn in list(idle.items()):
            if conn.last_active < deadline:
                try:
                    sel.unregister(conn.sock)
                except (KeyError, ValueError):
                    pass
                del idle[fileno]
                self.store.metrics.inc("serve.idle_closed")
                self._close_conn(conn)

    def _close_conn(self, conn: _Conn) -> None:
        try:
            conn.sock.close()
        except OSError:
            pass

    # ---- request workers -------------------------------------------------

    def _worker(self) -> None:
        while True:
            conn = self._work_q.get()
            if conn is None:
                return
            self._serve_conn(conn)

    def _serve_conn(self, conn: _Conn) -> None:
        """Serve buffered requests, then park or close the connection."""
        while True:
            try:
                request = self._read_request(conn)
            except _BadRequest as exc:
                self.store.metrics.inc("http.requests")
                self.store.metrics.inc("http.errors")
                self._log(conn, f"400 {exc}")
                try:
                    self._write_response(
                        conn,
                        400,
                        canonical_json({"error": str(exc)}),
                        keep_alive=False,
                    )
                except OSError:
                    pass
                self._close_conn(conn)
                return
            except (socket.timeout, OSError, ValueError):
                self._close_conn(conn)
                return
            if request is None:  # clean EOF between requests
                self._close_conn(conn)
                return
            conn.requests += 1
            if conn.requests > 1:
                self.store.metrics.inc("serve.keepalive_requests")
            status, body, extra = self._handle(request)
            self._log(conn, f"{request.method} {request.target} {status}")
            keep = request.keep_alive and not self._stop.is_set()
            try:
                self._write_response(
                    conn, status, body, keep_alive=keep, extra=extra
                )
            except OSError:  # client went away mid-reply
                self._close_conn(conn)
                return
            if not keep:
                self._close_conn(conn)
                return
            if conn.buf:
                self.store.metrics.inc("serve.pipelined")
                continue
            if self._next_request_ready(conn):
                continue
            conn.last_active = time.monotonic()
            self._return_q.put(conn)
            self._wake()
            return

    def _next_request_ready(self, conn: _Conn) -> bool:
        """Poll briefly for the next request of a closed-loop client.

        A client that immediately reuses the connection sends its next
        request within microseconds of reading the response; catching
        it here keeps hot connections worker-resident instead of
        paying a reactor round-trip per request.
        """
        if self.spin_wait <= 0:
            return False
        try:
            readable, _, _ = select.select([conn.sock], [], [], self.spin_wait)
        except (OSError, ValueError):
            return False
        return bool(readable)

    # ---- HTTP parsing ----------------------------------------------------

    def _recv(self, conn: _Conn) -> bytes:
        return conn.sock.recv(65536)

    def _read_request(self, conn: _Conn) -> Optional[_Request]:
        """Parse one complete request from the connection.

        Returns None on a clean EOF at a request boundary; raises
        :class:`_BadRequest` for anything malformed (answered 400).
        """
        end = conn.buf.find(b"\r\n\r\n")
        while end < 0:
            if len(conn.buf) > MAX_HEADER_BYTES:
                raise _BadRequest("request head too large")
            data = self._recv(conn)
            if not data:
                if conn.buf:
                    raise _BadRequest("truncated request head")
                return None
            conn.buf += data
            end = conn.buf.find(b"\r\n\r\n")
        head = bytes(conn.buf[:end])
        del conn.buf[: end + 4]
        lines = head.split(b"\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        try:
            method = parts[0].decode("ascii")
            target = parts[1].decode("ascii")
            version = parts[2].decode("ascii")
        except UnicodeDecodeError:
            raise _BadRequest("malformed request line") from None
        if not version.startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(b":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        body = b""
        raw_length = headers.get("content-length")
        if raw_length is not None:
            if not raw_length.isdigit():
                raise _BadRequest("bad Content-Length")
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                raise _BadRequest(
                    f"request body over {MAX_BODY_BYTES} bytes"
                )
            while len(conn.buf) < length:
                data = self._recv(conn)
                if not data:
                    raise _BadRequest("truncated request body")
                conn.buf += data
            body = bytes(conn.buf[:length])
            del conn.buf[:length]
        elif headers.get("transfer-encoding"):
            raise _BadRequest("chunked request bodies are not supported")
        token = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = token != "close"
        elif version == "HTTP/1.0":
            keep_alive = token == "keep-alive"
        else:
            keep_alive = False
        return _Request(method, target, headers, body, keep_alive)

    def _write_response(
        self,
        conn: _Conn,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send one response; ``body`` is canonical JSON, sans newline."""
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Server: repro-wpp-serve/2",
            "Content-Type: application/json",
            f"Content-Length: {len(body) + 1}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if extra:
            head.extend(f"{name}: {value}" for name, value in extra.items())
        conn.sock.sendall(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body + b"\n"
        )

    # ---- routing ---------------------------------------------------------

    def _build_routes(self) -> Dict[Tuple[str, str], Route]:
        """The ``(method, path) -> handler(params, request)`` table.

        A handler returns a JSON-ready dict, or the body already
        encoded as canonical JSON bytes.
        """
        store = self.store
        return {
            ("GET", "/traces"): self._get_traces,
            ("GET", "/query"): lambda params, _request: store.query_json(
                QueryRequest.from_query(params)),
            ("GET", "/stats"): lambda params, _request: store.stats(
                StatsRequest.from_query(params)),
            ("GET", "/metrics"): self._get_metrics,
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/corpus/stats"): lambda params, _request: (
                store.corpus_stats(CorpusStatsRequest.from_query(params))),
            ("GET", "/corpus/hot"): lambda params, _request: (
                store.corpus_hot(CorpusHotRequest.from_query(params))),
            ("GET", "/corpus/diff"): lambda params, _request: (
                store.corpus_diff(CorpusDiffRequest.from_query(params))),
            ("POST", "/analyze"): self._post_analyze,
        }

    def _handle(
        self, request: _Request
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        self.store.metrics.inc("http.requests")
        url = urlsplit(request.target)
        route = self._routes.get((request.method, url.path))
        if route is None:
            if request.method not in ("GET", "POST"):
                return self._method_not_allowed("GET, POST")
            allowed = self._allowed.get(url.path)
            if allowed is None:
                return self._error(404, f"no such endpoint: {url.path}")
            return self._method_not_allowed(allowed)
        params = parse_qs(url.query, keep_blank_values=True)
        try:
            doc = route(params, request)
        except RequestError as exc:
            return self._error(400, str(exc))
        except TraceNotFound as exc:
            return self._error(404, str(exc))
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            return self._error(500, f"{type(exc).__name__}: {exc}")
        if not isinstance(doc, bytes):
            doc = canonical_json(doc)
        return 200, doc, None

    def _error(
        self, status: int, message: str
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        self.store.metrics.inc("http.errors")
        return status, canonical_json({"error": message}), None

    def _method_not_allowed(
        self, allowed: str
    ) -> Tuple[int, bytes, Dict[str, str]]:
        self.store.metrics.inc("http.errors")
        return (
            405,
            canonical_json({"error": f"use {allowed}"}),
            {"Allow": allowed},
        )

    # ---- endpoints -------------------------------------------------------

    def _get_traces(self, params, _request) -> Dict:
        params = dict(params)
        refresh = params.pop("refresh", ["0"])[-1] not in ("0", "", "false")
        if params:
            raise RequestError(
                "unknown traces parameter(s): " + ", ".join(sorted(params))
            )
        return self.store.traces(refresh=refresh)

    def _get_metrics(self, params, _request) -> Dict:
        if params:
            raise RequestError("metrics takes no parameters")
        return self.store.metrics_snapshot()

    def _get_healthz(self, params, _request) -> Dict:
        if params:
            raise RequestError("healthz takes no parameters")
        return self.store.healthz()

    def _post_analyze(self, _params, request: _Request) -> Dict:
        if not request.body:
            raise RequestError("analyze needs a JSON request body")
        try:
            data = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not JSON: {exc}") from None
        return self.store.analyze(AnalyzeRequest.from_dict(data))

    # ---- logging ---------------------------------------------------------

    def _log(self, conn: _Conn, message: str) -> None:
        if self.verbose:
            sys.stderr.write(f"{conn.peer[0]} - {message}\n")


def serve(
    root,
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[TraceStore] = None,
    verbose: bool = False,
    workers: int = DEFAULT_WORKERS,
    corpus=None,
) -> TraceServer:
    """Build a TraceStore for ``root`` (unless given) and a server on it."""
    if store is None:
        store = TraceStore(root, corpus=corpus)
    return TraceServer(
        store, host=host, port=port, verbose=verbose, workers=workers
    )
