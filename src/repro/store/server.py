"""The trace-serving HTTP daemon: a keep-alive front end over a TraceStore.

``repro-wpp serve DIR`` runs this server.  Endpoints stay a thin
adapter: :data:`ROUTES` maps each ``(method, path)`` to a request class
of :mod:`repro.store.requests` and the
:class:`~repro.store.store.TraceStore` verb it feeds (the endpoint table
with its parameters is in ``docs/FORMATS.md``).  A route parses its
input with that class, calls the verb and writes the returned dict as
canonical JSON -- so an HTTP response body is byte-identical to
``canonical_json(store.verb(request))`` computed in-process, and the
server adds no semantics of its own.  ``/query`` is the one route that
gets its body already encoded: :meth:`TraceStore.query_json` splices
the cached canonical-JSON trace fragments, still
byte-identical to ``canonical_json(store.query(request))``, so a warm
query does no JSON encoding.

Transport: one thread per connection, from accept to close.

* The **accept loop** runs on the serving thread.  It takes one of
  :data:`MAX_CONNECTIONS` slots before each blocking ``accept()``, so
  with every slot busy the next client waits in the listen backlog.
* Each accepted connection goes to a pooled thread
  (``ThreadPoolExecutor``: an idle thread is reused, so accepting does
  not wait for a thread to start).  The thread parses complete
  HTTP/1.1 requests from the connection's buffer, runs the store verb
  and writes the response, in order, until the client closes.
* **Idle reaping** is the socket timeout: :data:`KEEPALIVE_TIMEOUT`
  while waiting for a request's first byte (counted as
  ``serve.idle_closed``), :data:`REQUEST_TIMEOUT` once it has begun.

``Connection``/``Content-Length`` semantics follow HTTP/1.1:
responses always carry ``Content-Length`` and an explicit
``Connection: keep-alive``/``close``; malformed framing (a
non-ASCII-digit or conflicting ``Content-Length``, ``Content-Length``
together with ``Transfer-Encoding``, an oversized body) gets a 400 and
the connection is closed.  Graceful shutdown
(:meth:`TraceServer.request_stop`) stops accepting and shuts the read
side of every connection: idle ones end at once, and a reply already
in flight is still written, with ``Connection: close``.

Errors are JSON too: 400 for malformed requests
(:class:`~repro.store.requests.RequestError`), 404 for unknown
traces/runs/routes, 405 for wrong methods, 500 for the rest -- a trace
whose section fails to decode
(:class:`~repro.store.store.CorruptTrace`) names the trace and the
function.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple
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
from .store import CorruptTrace, TraceNotFound, TraceStore

#: Largest accepted request body (1 MiB): analyze requests are tiny.
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request head (request line + headers).
MAX_HEADER_BYTES = 64 << 10
#: Most connections served at once; the next waits in the backlog.
MAX_CONNECTIONS = 64
#: Listen backlog: connections the kernel holds before ``accept``.
BACKLOG = 128
#: Seconds an idle keep-alive connection waits for a request's first byte.
KEEPALIVE_TIMEOUT = 60.0
#: Seconds the rest of a started request may take to arrive.
REQUEST_TIMEOUT = 30.0

#: ``(method, path) -> (request class, TraceStore method)``.  A ``GET``
#: route parses its URL parameters with the class's ``from_query``, a
#: ``POST`` route its JSON body with ``from_dict``; a route without a
#: class takes no parameters (``/traces`` only its ``refresh`` flag).
#: The method returns a JSON-ready dict, or the body already encoded
#: as canonical JSON bytes (``query_json``).
ROUTES: Dict[Tuple[str, str], Tuple[Optional[type], str]] = {
    ("GET", "/traces"): (None, "traces"),
    ("GET", "/query"): (QueryRequest, "query_json"),
    ("GET", "/stats"): (StatsRequest, "stats"),
    ("GET", "/metrics"): (None, "metrics_snapshot"),
    ("GET", "/healthz"): (None, "healthz"),
    ("GET", "/corpus/stats"): (CorpusStatsRequest, "corpus_stats"),
    ("GET", "/corpus/hot"): (CorpusHotRequest, "corpus_hot"),
    ("GET", "/corpus/diff"): (CorpusDiffRequest, "corpus_diff"),
    ("POST", "/analyze"): (AnalyzeRequest, "analyze"),
}
_ALLOWED = {path: method for method, path in ROUTES}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

__all__ = [
    "KEEPALIVE_TIMEOUT",
    "MAX_BODY_BYTES",
    "MAX_CONNECTIONS",
    "MAX_HEADER_BYTES",
    "REQUEST_TIMEOUT",
    "TraceServer",
    "canonical_json",
]


def canonical_json(doc: Dict) -> bytes:
    """The store wire encoding: sorted keys, minimal separators, UTF-8.

    Both the HTTP layer and in-process callers that want byte-for-byte
    comparisons encode through this one function.
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _json_body(body: bytes):
    if not body:
        raise RequestError("POST needs a JSON request body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"request body is not JSON: {exc}") from None


def _bare_args(path: str, params: Dict[str, List[str]]) -> Tuple:
    """The arguments of a route without a request class."""
    refresh = params.pop("refresh", None) if path == "/traces" else None
    if params:
        raise RequestError(
            f"unknown {path} parameter(s): " + ", ".join(sorted(params))
        )
    return () if refresh is None else (refresh[-1] not in ("0", "", "false"),)


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

    __slots__ = ("sock", "peer", "buf", "requests", "timeout")

    def __init__(self, sock, peer):
        self.sock = sock
        self.peer = peer
        self.buf = bytearray()
        self.requests = 0
        # The socket's timeout, so _recv calls settimeout only on a change.
        self.timeout: Optional[float] = None


class TraceServer:
    """A persistent-connection HTTP server bound to one TraceStore.

    ``port=0`` binds an ephemeral port; read the chosen one back from
    :attr:`port` / :attr:`url`.  :meth:`serve_forever` blocks (the CLI
    path); :meth:`start` / :meth:`stop` run it on a daemon thread (the
    test and embedding path).  Each accepted connection is served on
    one pooled thread until the client closes it, a timeout reaps it,
    or the server stops; at most :data:`MAX_CONNECTIONS` are served at
    once, and the next waits in the listen backlog.
    """

    def __init__(
        self,
        store: TraceStore,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.store = store
        self.verbose = verbose
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(BACKLOG)
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._pool = ThreadPoolExecutor(
            max_workers=MAX_CONNECTIONS, thread_name_prefix="serve-conn"
        )
        self._conns: Set[_Conn] = set()
        # Reentrant: request_stop runs in a signal handler on the thread
        # that may hold it in serve_forever.
        self._conns_lock = threading.RLock()
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._serving = False

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
        """Accept until :meth:`request_stop` (the ``repro-wpp serve``
        main loop); drains in-flight requests before returning."""
        with self._lock:
            if self._serving:
                raise RuntimeError("server is already running")
            self._serving = True
        try:
            while True:
                self._slots.acquire()
                if self._stop.is_set():
                    break
                try:
                    sock, peer = self._listener.accept()
                except OSError:
                    self._slots.release()
                    if self._stop.is_set():
                        break
                    continue
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
                conn = _Conn(sock, peer)
                with self._conns_lock:
                    if self._stop.is_set():
                        sock.close()
                        break
                    self._conns.add(conn)
                self.store.metrics.inc("serve.connections")
                self._pool.submit(self._connection, conn)
        finally:
            # Drain: wake idle readers (a reply in flight is still
            # written, with Connection: close), then wait for them.
            self._shut_reads()
            self._pool.shutdown(wait=True)
            self._listener.close()
            self._drained.set()

    def request_stop(self) -> None:
        """Begin a graceful shutdown: stop accepting, drain, close."""
        self._stop.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._shut_reads()  # frees a slot if the accept loop waits on one

    def start(self) -> "TraceServer":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="serve-accept"
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

    def _shut_reads(self) -> None:
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass

    # ---- connections -----------------------------------------------------

    def _connection(self, conn: _Conn) -> None:
        """One pooled thread's whole job: serve ``conn``, then close it."""
        try:
            self._serve_conn(conn)
        except Exception:  # noqa: BLE001 - report a server bug, keep serving
            traceback.print_exc()
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.sock.close()
            except OSError:
                pass
            self._slots.release()

    def _serve_conn(self, conn: _Conn) -> None:
        """Answer requests until the client, a timeout or the server
        ends the connection."""
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
                return
            except socket.timeout:
                if not conn.buf:
                    self.store.metrics.inc("serve.idle_closed")
                return
            except OSError:
                return
            if request is None:  # clean EOF between requests
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
                return
            if not keep:
                return
            if conn.buf:
                self.store.metrics.inc("serve.pipelined")

    # ---- HTTP parsing ----------------------------------------------------

    def _recv(self, conn: _Conn, timeout: float) -> bytes:
        if conn.timeout != timeout:
            conn.sock.settimeout(timeout)
            conn.timeout = timeout
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
            data = self._recv(
                conn, REQUEST_TIMEOUT if conn.buf else KEEPALIVE_TIMEOUT
            )
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
            key = name.strip().lower().decode("latin-1")
            value = value.strip().decode("latin-1")
            if key == "content-length" and headers.get(key, value) != value:
                raise _BadRequest("conflicting Content-Length headers")
            headers[key] = value
        body = b""
        raw_length = headers.get("content-length")
        if raw_length is not None:
            if not (raw_length.isascii() and raw_length.isdigit()):
                raise _BadRequest("bad Content-Length")
            if "transfer-encoding" in headers:
                raise _BadRequest(
                    "both Content-Length and Transfer-Encoding"
                )
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                raise _BadRequest(
                    f"request body over {MAX_BODY_BYTES} bytes"
                )
            while len(conn.buf) < length:
                data = self._recv(conn, REQUEST_TIMEOUT)
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

    def _handle(
        self, request: _Request
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        self.store.metrics.inc("http.requests")
        url = urlsplit(request.target)
        route = ROUTES.get((request.method, url.path))
        if route is None:
            if request.method not in ("GET", "POST"):
                return self._method_not_allowed("GET, POST")
            allowed = _ALLOWED.get(url.path)
            if allowed is None:
                return self._error(404, f"no such endpoint: {url.path}")
            return self._method_not_allowed(allowed)
        cls, verb = route
        params = parse_qs(url.query, keep_blank_values=True)
        try:
            if request.method == "POST":
                args = (cls.from_dict(_json_body(request.body)),)
            elif cls is not None:
                args = (cls.from_query(params),)
            else:
                args = _bare_args(url.path, params)
            doc = getattr(self.store, verb)(*args)
        except RequestError as exc:
            return self._error(400, str(exc))
        except TraceNotFound as exc:
            return self._error(404, str(exc))
        except CorruptTrace as exc:
            return self._error(500, str(exc))
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

    # ---- logging ---------------------------------------------------------

    def _log(self, conn: _Conn, message: str) -> None:
        if self.verbose:
            sys.stderr.write(f"{conn.peer[0]} - {message}\n")

